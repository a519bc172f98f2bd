//! Differential harness for the concurrent serving path
//! ([`gt_sketch::ConcurrentSketch`]): whatever the writer count, buffer
//! threshold, or interleaving, the merged state must be **bitwise
//! identical** (canonical wire bytes) to a single sequential observer of
//! the same multiset — coordinated sampling makes the final state
//! interleaving-independent, so any divergence is a propagation bug, not
//! noise.
//!
//! Two layers:
//!
//! * a proptest over *deterministic seeded schedules*: ops are dealt
//!   round-robin to N in-process writer handles with checkpoint flushes,
//!   so every interleaving decision is a pure function of the case seed
//!   and failures replay exactly (persisted to
//!   `concurrent_equivalence.proptest-regressions`);
//! * a real-thread N-writer / M-reader stress test where the schedule is
//!   whatever the OS provides, readers continuously validate snapshot
//!   monotonicity, and only the final state is compared bitwise.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::streams::encode_sketch;
use gt_sketch::{fold61, ConcurrentSketch, DistinctSketch, SketchConfig};

const SEED: u64 = 0xC0_FFEE;

/// Small capacity + trials so level promotions happen on small inputs and
/// the propagation path has to carry real subsampling decisions.
fn small_config() -> SketchConfig {
    SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_sketch::HashFamilyKind::Pairwise).unwrap()
}

fn sequential_over(labels: &[u64], config: &SketchConfig) -> DistinctSketch {
    let mut s = DistinctSketch::new(config, SEED);
    s.extend_labels(labels.iter().map(|&l| fold61(l)));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deterministic-schedule differential test. Labels are dealt
    /// round-robin across `writers` handles with a small propagation
    /// threshold, or with `u64::MAX` (the batch shape: a buffer that never
    /// fills, propagated at flushes and on level lag), and at every checkpoint (all writers flushed) the
    /// published snapshot must encode to exactly the bytes of a
    /// sequential sketch over the prefix dealt so far. Mid-checkpoint,
    /// snapshots may trail ingestion by at most the sum of writer
    /// buffers — never lead it.
    #[test]
    fn seeded_schedules_match_sequential_at_every_checkpoint(
        labels in vec(0u64..5_000, 1..400),
        writers in 1usize..5,
        threshold in prop_oneof![Just(8u64), Just(32u64), Just(127u64), Just(u64::MAX)],
    ) {
        let config = small_config();
        let shared = ConcurrentSketch::new(&config, SEED);
        let mut handles: Vec<_> = (0..writers)
            .map(|_| shared.writer_with_threshold(threshold))
            .collect();

        let checkpoint = 64usize;
        for (i, &label) in labels.iter().enumerate() {
            handles[i % writers].insert(fold61(label));

            // Snapshots never claim items still sitting in writer buffers.
            let buffered: u64 = handles.iter().map(|h| h.buffered()).sum();
            let snap = shared.snapshot();
            prop_assert!(snap.items_observed() + buffered == (i + 1) as u64);

            if (i + 1) % checkpoint == 0 {
                for h in &mut handles {
                    h.flush();
                }
                let snap = shared.snapshot();
                let sequential = sequential_over(&labels[..=i], &config);
                prop_assert_eq!(snap.items_observed(), (i + 1) as u64);
                let (ours, theirs) = (encode_sketch(snap.sketch()), encode_sketch(&sequential));
                prop_assert_eq!(
                    ours.as_ref(),
                    theirs.as_ref(),
                    "checkpoint at item {} diverged from sequential",
                    i + 1
                );
            }
        }

        drop(handles); // Drop flushes the tails.
        let snap = shared.snapshot();
        let sequential = sequential_over(&labels, &config);
        prop_assert_eq!(snap.items_observed(), labels.len() as u64);
        let (ours, theirs) = (encode_sketch(snap.sketch()), encode_sketch(&sequential));
        prop_assert_eq!(ours.as_ref(), theirs.as_ref());
        // Bitwise identity makes the estimates identical too; check the
        // user-facing number anyway so a codec bug can't mask it.
        prop_assert_eq!(
            snap.estimate_distinct().value.to_bits(),
            sequential.estimate_distinct().value.to_bits()
        );
    }
}

/// Seeded per-writer label streams for the real-thread stress test
/// (SplitMix64, same generator the compat proptest RNG uses).
fn stream(writer: usize, len: usize) -> Vec<u64> {
    let mut state = 0x9E37_79B9_0000_0000u64 ^ (writer as u64);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            fold61(z ^ (z >> 31)) % 200_000
        })
        .collect()
}

/// Real-thread stress: 4 writers race 30k items each through small
/// buffers while 2 readers continuously take snapshots. Readers assert
/// epoch/item monotonicity on every poll (count/ordering assertions only
/// — no timing); after the writers finish, the final state must be
/// bitwise identical to a sequential pass over the concatenated streams.
#[test]
fn threaded_stress_final_state_is_bitwise_sequential() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PER_WRITER: usize = 30_000;

    let config = small_config();
    let shared = ConcurrentSketch::new(&config, SEED);
    let streams: Vec<Vec<u64>> = (0..WRITERS).map(|w| stream(w, PER_WRITER)).collect();
    let writers_done = AtomicUsize::new(0);
    let polls = AtomicUsize::new(0);

    crossbeam::scope(|scope| {
        for labels in &streams {
            let shared = &shared;
            let writers_done = &writers_done;
            scope.spawn(move |_| {
                let mut w = shared.writer_with_threshold(512);
                w.extend_slice(labels);
                drop(w); // flush the tail before signalling completion
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        for _ in 0..READERS {
            let shared = &shared;
            let writers_done = &writers_done;
            let polls = &polls;
            scope.spawn(move |_| {
                let mut last_epoch = 0u64;
                let mut last_items = 0u64;
                loop {
                    let done = writers_done.load(Ordering::Acquire) == WRITERS;
                    let snap = shared.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    assert!(
                        snap.items_observed() >= last_items,
                        "coverage went backwards"
                    );
                    assert!(snap.items_observed() <= (WRITERS * PER_WRITER) as u64);
                    last_epoch = snap.epoch();
                    last_items = snap.items_observed();
                    polls.fetch_add(1, Ordering::Relaxed);
                    if done {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    })
    .unwrap();

    assert!(polls.load(Ordering::Relaxed) >= READERS);
    let all: Vec<u64> = streams.concat();
    let mut sequential = DistinctSketch::new(&config, SEED);
    sequential.extend_labels(all.iter().copied());

    let snap = shared.snapshot();
    assert_eq!(snap.items_observed(), all.len() as u64);
    assert_eq!(
        encode_sketch(snap.sketch()).as_ref(),
        encode_sketch(&sequential).as_ref(),
        "concurrent final state diverged from sequential"
    );

    let m = shared.metrics_snapshot();
    assert_eq!(m.items_propagated, all.len() as u64);
    assert!(m.propagations() >= (all.len() / 512) as u64);
}
