//! Per-key differential oracle for the keyed store
//! ([`gt_sketch::store::SketchStore`]): for any interleaved keyed stream —
//! including evict/restore and pin/demote cycles mid-stream — every key's
//! store-resident sketch must be **bitwise identical** (canonical wire
//! bytes) to a standalone [`gt_sketch::DistinctSketch`] fed that key's
//! labels in arrival order. Same harness shape as
//! `concurrent_equivalence.rs`: a proptest over deterministic seeded
//! streams plus targeted non-prop cycles, and count/ordering assertions
//! only (no wall-clock) per the de-flake rule.

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::store::{DistinctStore, SketchStore, StoreOptions};
use gt_sketch::streams::encode_sketch;
use gt_sketch::{fold61, DistinctSketch, GtSketch, SketchConfig};

const SEED: u64 = 0xBEE5;

/// Small capacity + trials so level promotions, slot-class promotions and
/// fold/writeback cycles all fire on small inputs.
fn small_config() -> SketchConfig {
    SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_sketch::HashFamilyKind::Pairwise).unwrap()
}

/// Standalone oracle over a key's labels (already folded into the field).
fn standalone_for(key: u64, items: &[(u64, u64)], config: &SketchConfig) -> DistinctSketch {
    let mut s = DistinctSketch::new(config, SEED);
    s.extend_labels(items.iter().filter(|&&(k, _)| k == key).map(|&(_, l)| l));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaved keyed stream, any tier churn: budgets small enough
    /// to force evictions mid-stream, hot thresholds low enough to force
    /// pins, and epoch advances at every checkpoint to force front
    /// refreshes and demotions. At each checkpoint the key that was just
    /// touched must match its standalone sketch bitwise; at the end every
    /// key must.
    #[test]
    fn interleaved_keyed_streams_match_standalone_sketches(
        pairs in vec((0u64..24, 0u64..2_000), 1..500),
        budget in prop_oneof![Just(2usize << 10), Just(16usize << 10), Just(64usize << 20)],
        hot_threshold in prop_oneof![Just(0u32), Just(24u32), Just(u32::MAX)],
        shards in 1usize..4,
    ) {
        let config = small_config();
        let options = StoreOptions::default()
            .with_shards(shards)
            .with_byte_budget(budget)
            .with_hot_threshold(hot_threshold)
            .with_epoch_items(0); // epochs advance only at checkpoints
        let store = DistinctStore::new(&config, SEED, options).unwrap();
        let folded: Vec<(u64, u64)> = pairs.iter().map(|&(k, l)| (k, fold61(l))).collect();

        let checkpoint = 96usize;
        for (i, chunk) in folded.chunks(checkpoint).enumerate() {
            store.extend(chunk).unwrap();
            store.advance_epoch();
            // The key touched last this chunk must already be exact.
            let key = chunk.last().unwrap().0;
            let upto = (i * checkpoint + chunk.len()).min(folded.len());
            let mut expect = DistinctSketch::new(&config, SEED);
            expect.extend_labels(
                folded[..upto].iter().filter(|&&(k, _)| k == key).map(|&(_, l)| l),
            );
            let got = store.canonical_bytes(key).unwrap().unwrap();
            let want = encode_sketch(&expect);
            prop_assert_eq!(
                got.as_ref(),
                want.as_ref(),
                "checkpoint {} key {} diverged",
                i,
                key
            );
        }

        // Every key, whatever tier it ended up in.
        for key in 0..24u64 {
            let seen = folded.iter().any(|&(k, _)| k == key);
            let bytes = store.canonical_bytes(key).unwrap();
            prop_assert_eq!(bytes.is_some(), seen);
            if let Some(bytes) = bytes {
                let mut expect = DistinctSketch::new(&config, SEED);
                expect.extend_labels(
                    folded.iter().filter(|&&(k, _)| k == key).map(|&(_, l)| l),
                );
                let want = encode_sketch(&expect);
                prop_assert_eq!(
                    bytes.as_ref(),
                    want.as_ref(),
                    "final state of key {} diverged",
                    key
                );
                prop_assert_eq!(
                    store.estimate(key).unwrap().unwrap().value.to_bits(),
                    expect.estimate_distinct().value.to_bits()
                );
            }
        }

        // The store accounted for exactly the ingested items.
        let snap = store.metrics_snapshot();
        prop_assert_eq!(snap.items, folded.len() as u64);
        prop_assert_eq!(
            snap.resident_keys + snap.pinned_keys + snap.spilled_keys,
            snap.keys
        );
    }
}

/// Deterministic evict/restore churn: a budget that holds only a fraction
/// of the key set, revisited in rounds so most keys cycle disk → memory →
/// disk repeatedly. Invariants are counts and bitwise state only.
#[test]
fn evict_restore_cycles_are_bitwise_lossless() {
    let config = small_config();
    let options = StoreOptions::default()
        .with_shards(2)
        .with_byte_budget(12 << 10)
        .with_hot_threshold(0); // everything stays in the packed tier
    let store = DistinctStore::new(&config, SEED, options).unwrap();

    let keys = 400u64;
    let mut items: Vec<(u64, u64)> = Vec::new();
    for round in 0..5u64 {
        for key in 0..keys {
            for j in 0..3u64 {
                items.push((key, fold61(key * 7_919 + round * 100 + j)));
            }
        }
    }
    store.extend(&items).unwrap();

    let snap = store.metrics_snapshot();
    assert!(snap.evictions > 0, "budget never forced an eviction");
    assert!(snap.restores > 0, "revisited keys never restored");
    assert!(
        snap.resident_bytes <= snap.budget_bytes,
        "resident {} exceeds budget {}",
        snap.resident_bytes,
        snap.budget_bytes
    );
    // Spill records only ever accumulate (append-only log).
    assert!(snap.spilled_bytes >= snap.restored_bytes);

    for key in 0..keys {
        let got = store.canonical_bytes(key).unwrap().unwrap();
        let expect = standalone_for(key, &items, &config);
        assert_eq!(
            got.as_ref(),
            encode_sketch(&expect).as_ref(),
            "key {key} diverged after evict/restore churn"
        );
    }
}

/// Payload-carrying keys through the full tier churn: keep-first `u64`
/// payloads with duplicate labels must reconcile exactly as a standalone
/// sketch does, across delta replay, spill, and restore.
#[test]
fn payload_keys_survive_tier_churn_bitwise() {
    let config = small_config();
    let options = StoreOptions::default()
        .with_shards(2)
        .with_byte_budget(6 << 10)
        .with_hot_threshold(64);
    let store = SketchStore::<u64>::new(&config, SEED, options).unwrap();

    let mut items: Vec<(u64, u64, u64)> = Vec::new();
    for i in 0..12_000u64 {
        // 60 keys, heavy label duplication so payload reconciliation fires
        // constantly; payload encodes arrival index so keep-first order is
        // observable on the wire.
        items.push((i % 60, fold61(i % 300), i + 1));
    }
    store.extend_with(&items).unwrap();

    let snap = store.metrics_snapshot();
    assert!(snap.evictions > 0, "payload keys never spilled");

    for key in 0..60u64 {
        let mut expect = GtSketch::<u64>::new(&config, SEED);
        for &(k, l, p) in &items {
            if k == key {
                expect.insert_with(l, p);
            }
        }
        assert_eq!(
            store.canonical_bytes(key).unwrap().unwrap().as_ref(),
            encode_sketch(&expect).as_ref(),
            "payload key {key} diverged"
        );
    }
}

/// Concurrent multi-writer keyed ingest: per-key label sets are
/// interleaving-independent, so whatever schedule the OS provides, every
/// key must still match a standalone sketch over its labels.
#[test]
fn threaded_keyed_ingest_matches_standalone() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 8_000;
    let config = small_config();
    let options = StoreOptions::default()
        .with_byte_budget(48 << 10)
        .with_hot_threshold(256);
    let store = DistinctStore::new(&config, SEED, options).unwrap();

    crossbeam::scope(|scope| {
        for w in 0..WRITERS {
            let store = &store;
            scope.spawn(move |_| {
                let items: Vec<(u64, u64)> = (0..PER_WRITER)
                    .map(|i| ((i.wrapping_mul(11) + w) % 131, fold61(w * PER_WRITER + i)))
                    .collect();
                store.extend(&items).unwrap();
            });
        }
    })
    .unwrap();

    let snap = store.metrics_snapshot();
    assert_eq!(snap.items, WRITERS * PER_WRITER, "items lost or duplicated");

    for key in (0..131u64).step_by(17) {
        let mut expect = DistinctSketch::new(&config, SEED);
        for w in 0..WRITERS {
            expect.extend_labels(
                (0..PER_WRITER)
                    .filter(|i| (i.wrapping_mul(11) + w) % 131 == key)
                    .map(|i| fold61(w * PER_WRITER + i)),
            );
        }
        assert_eq!(
            store.canonical_bytes(key).unwrap().unwrap().as_ref(),
            encode_sketch(&expect).as_ref(),
            "key {key} diverged under concurrent ingest"
        );
    }
}
