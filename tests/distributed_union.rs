//! End-to-end integration: workload generation → parties on threads →
//! wire codec → referee → estimate, checked against the exact oracle —
//! plus the at-least-once delivery properties: any schedule of duplicated,
//! reordered, or late deliveries must leave the referee in a state
//! bitwise-identical to clean exactly-once delivery.

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::streams::{
    collect_once, encode_sketch, run_batch, CodecError, DeltaParty, Distribution, Party,
    PartyMessage, Receipt, Referee, RefereeOf, RetryPolicy, StreamOracle, TransportSpec,
    WorkloadSpec,
};
use gt_sketch::SketchConfig;

fn spec(parties: usize, overlap: f64, dist: Distribution) -> WorkloadSpec {
    WorkloadSpec {
        parties,
        distinct_per_party: 20_000,
        overlap,
        items_per_party: 60_000,
        distribution: dist,
        seed: 0xFEED,
    }
}

#[test]
fn union_estimate_accurate_across_overlap_sweep() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    for overlap in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let streams = spec(6, overlap, Distribution::Uniform).generate();
        let report = run_batch(&config, 0xA1, &streams, &[], &[]);
        assert!(
            report.relative_error < 0.1,
            "overlap {overlap}: error {} (est {} truth {})",
            report.relative_error,
            report.estimate,
            report.truth
        );
    }
}

#[test]
fn accuracy_is_insensitive_to_skew() {
    // F0 depends only on the distinct set; heavy skew changes duplication,
    // not the answer. (EachOnce gives the same distinct set with zero
    // duplication as Zipf(1.5) with heavy duplication.)
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let mut estimates = Vec::new();
    for dist in [
        Distribution::EachOnce,
        Distribution::Uniform,
        Distribution::Zipf(1.0),
        Distribution::Zipf(1.5),
    ] {
        let streams = spec(4, 0.5, dist).generate();
        let report = run_batch(&config, 0xA2, &streams, &[], &[]);
        assert!(
            report.relative_error < 0.1,
            "{dist:?}: {}",
            report.relative_error
        );
        estimates.push((dist, report.estimate, report.truth));
    }
    // All runs share seed + universe structure; the distinct sets differ
    // only by which labels the draws happened to touch.
    for (dist, est, truth) in estimates {
        assert!(
            (est - truth as f64).abs() / truth as f64 <= 0.1,
            "{dist:?} drifted: est {est} truth {truth}"
        );
    }
}

#[test]
fn communication_independent_of_stream_length() {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let short = spec(4, 0.5, Distribution::Uniform);
    let long = WorkloadSpec {
        items_per_party: 600_000,
        ..short
    };
    let r_short = run_batch(&config, 0xA3, &short.generate(), &[], &[]);
    let r_long = run_batch(&config, 0xA3, &long.generate(), &[], &[]);
    // 10× the items; bytes may differ only marginally (longer streams
    // touch more of the universe and items_observed varints grow).
    let ratio = r_long.total_bytes as f64 / r_short.total_bytes as f64;
    assert!(
        ratio < 1.25,
        "bytes grew with stream length: {} -> {} ({ratio:.2}x)",
        r_short.total_bytes,
        r_long.total_bytes
    );
}

#[test]
fn per_party_space_is_logarithmic_in_stream_length() {
    // The in-memory sample ceiling is fixed by the config alone.
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let ceiling = config.max_sample_entries();
    for items in [10_000u64, 100_000, 1_000_000] {
        let mut sketch = gt_sketch::DistinctSketch::new(&config, 1);
        for i in 0..items {
            sketch.insert(gt_sketch::fold61(i % 500_000));
        }
        assert!(sketch.sample_entries() <= ceiling, "items {items}");
    }
}

#[test]
fn naive_per_party_sum_overcounts_but_union_does_not() {
    // The paper's headline comparison: Σ per-party F0 estimates vs the
    // coordinated union, under full overlap.
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let streams = spec(8, 1.0, Distribution::Uniform).generate();
    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.distinct() as f64;

    let mut per_party_sum = 0.0;
    for (i, s) in streams.streams.iter().enumerate() {
        let mut sk = gt_sketch::DistinctSketch::new(&config, 0xA4 + i as u64);
        sk.extend_labels(s.iter().copied());
        per_party_sum += sk.estimate_distinct().value;
    }
    let report = run_batch(&config, 0xA4, &streams, &[], &[]);

    assert!(
        per_party_sum > 6.0 * truth,
        "naive sum should ~8x overcount: {per_party_sum} vs {truth}"
    );
    assert!(
        report.relative_error < 0.1,
        "union error {}",
        report.relative_error
    );
}

#[test]
fn referee_handles_hundreds_of_parties() {
    let config = SketchConfig::new(0.15, 0.1).unwrap();
    let streams = WorkloadSpec {
        parties: 100,
        distinct_per_party: 1_000,
        overlap: 0.2,
        items_per_party: 2_000,
        distribution: Distribution::Uniform,
        seed: 5,
    }
    .generate();
    let report = run_batch(&config, 0xA5, &streams, &[], &[]);
    assert_eq!(report.parties, 100);
    assert!(
        report.relative_error < 0.15,
        "error {}",
        report.relative_error
    );
}

// ---------------------------------------------------------------------------
// At-least-once delivery properties
// ---------------------------------------------------------------------------

/// Cheap config so promotions happen even on small generated streams.
fn small_config() -> SketchConfig {
    SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_sketch::HashFamilyKind::Pairwise).unwrap()
}

/// Finished messages for four parties; the last party's stream is forced
/// empty so every schedule also exercises the empty-stream case.
fn four_messages(streams: [&[u64]; 3], seed: u64) -> Vec<PartyMessage> {
    let config = small_config();
    let empty: &[u64] = &[];
    streams
        .iter()
        .copied()
        .chain(std::iter::once(empty))
        .enumerate()
        .map(|(id, s)| {
            let mut p = Party::new(id, &config, seed);
            p.observe_stream(&s.iter().map(|&l| gt_sketch::fold61(l)).collect::<Vec<_>>());
            p.finish()
        })
        .collect()
}

/// Everything the referee's exactly-once contract promises, as one
/// comparable value: canonical union bytes, the exactly-once counters,
/// and the merge metrics. Valid only when both referees merged in the
/// same order — the union *state* is order-independent but process
/// metrics like `merge_entries_absorbed` are path-dependent.
fn referee_state(r: &Referee) -> (Vec<u8>, usize, usize, u64, gt_sketch::MetricsSnapshot) {
    (
        encode_sketch(r.union_sketch()).to_vec(),
        r.messages(),
        r.bytes_received(),
        r.items_reported(),
        r.union_metrics(),
    )
}

/// The order-independent subset of [`referee_state`]: canonical union
/// bytes and exactly-once counters. The merge metrics are excluded: the
/// union merges once per accepted message, so `merge_calls` does not
/// depend on how deliveries clump into batches, but the entry counters
/// (`merge_entries_absorbed`, `merge_below_level`, ...) depend on the
/// order the messages arrived in. They are observability counters, never
/// on the wire.
fn referee_state_order_free(r: &Referee) -> (Vec<u8>, usize, usize, u64) {
    (
        encode_sketch(r.union_sketch()).to_vec(),
        r.messages(),
        r.bytes_received(),
        r.items_reported(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE headline property: an arbitrary at-least-once schedule —
    /// duplicates, reorderings, arbitrary interleavings — yields a union
    /// sketch bitwise-identical to clean single delivery of the same
    /// parties, and the exactly-once counters never double-count.
    #[test]
    fn any_delivery_schedule_equals_clean_single_delivery(
        a in vec(0u64..3_000, 0..300),
        b in vec(0u64..3_000, 0..300),
        c in vec(0u64..3_000, 0..300),
        schedule in vec(0usize..4, 1..24),
    ) {
        let msgs = four_messages([&a, &b, &c], 77);

        // Dirty referee: deliver the raw schedule, redeliveries and all.
        let mut dirty = Referee::new(&small_config(), 77);
        for &i in &schedule {
            let receipt = dirty.receive(&msgs[i]).unwrap();
            prop_assert!(matches!(receipt, Receipt::Merged | Receipt::Duplicate));
        }

        // Clean referee: the same parties, first occurrence only.
        let mut clean = Referee::new(&small_config(), 77);
        let mut seen = [false; 4];
        let mut first_occurrences = 0usize;
        for &i in &schedule {
            if !seen[i] {
                seen[i] = true;
                first_occurrences += 1;
                prop_assert_eq!(clean.receive(&msgs[i]).unwrap(), Receipt::Merged);
            }
        }

        prop_assert_eq!(referee_state(&dirty), referee_state(&clean));
        prop_assert_eq!(
            dirty.telemetry().duplicates_suppressed,
            schedule.len() - first_occurrences
        );
        prop_assert_eq!(dirty.telemetry().accepted, first_occurrences);
        prop_assert_eq!(
            dirty.estimate_distinct().value,
            clean.estimate_distinct().value
        );
    }

    /// Delivery order is irrelevant: any permutation of the parties leaves
    /// canonical union bytes identical to natural order.
    #[test]
    fn delivery_order_is_irrelevant(
        a in vec(0u64..3_000, 0..300),
        b in vec(0u64..3_000, 0..300),
        c in vec(0u64..3_000, 0..300),
        keys in vec(0u64..1_000_000, 4..5),
    ) {
        let msgs = four_messages([&a, &b, &c], 91);
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by_key(|&i| keys[i]);

        let mut natural = Referee::new(&small_config(), 91);
        let mut shuffled = Referee::new(&small_config(), 91);
        for i in 0..4 {
            natural.receive(&msgs[i]).unwrap();
            shuffled.receive(&msgs[order[i]]).unwrap();
        }
        prop_assert_eq!(
            referee_state_order_free(&natural),
            referee_state_order_free(&shuffled)
        );
    }

    /// The collection plane never invents data: whatever subset of parties
    /// the collector heard — via acks, retransmits, or late straggler
    /// deliveries — its referee is bitwise-identical to a clean referee fed
    /// exactly that subset once.
    #[test]
    fn lossy_collection_equals_clean_delivery_of_heard_subset(
        a in vec(0u64..3_000, 0..300),
        b in vec(0u64..3_000, 0..300),
        c in vec(0u64..3_000, 0..300),
        drop_pct in 0u32..90,
        seed in 0u64..1_000,
        budget in 1usize..6,
    ) {
        let msgs = four_messages([&a, &b, &c], 13);
        let spec = TransportSpec {
            jitter: 2,
            straggle_probability: 0.2,
            ..TransportSpec::lossy(f64::from(drop_pct) / 100.0, seed)
        };
        let (report, referee) = collect_once(
            &small_config(),
            13,
            &msgs,
            spec,
            RetryPolicy::with_budget(budget),
        );

        let mut clean = Referee::new(&small_config(), 13);
        for msg in &msgs {
            if referee.has_heard(msg.party_id) {
                clean.receive(msg).unwrap();
            }
        }
        prop_assert_eq!(
            referee_state_order_free(&referee),
            referee_state_order_free(&clean)
        );

        // Attempt accounting stays coherent under any loss schedule.
        prop_assert!(report.parties_acked() <= msgs.len());
        prop_assert!(referee.parties_heard() >= report.parties_acked());
        prop_assert!(report.rounds <= budget);
        let partial = referee.estimate_distinct_partial(msgs.len());
        prop_assert_eq!(partial.parties_heard, referee.parties_heard());
        prop_assert!(partial.coverage() >= 0.0 && partial.coverage() <= 1.0);
    }

    /// Payload-carrying (weighted u64) sketches obey the same idempotence
    /// contract: k-fold redelivery changes nothing.
    #[test]
    fn weighted_payload_redelivery_is_idempotent(
        a in vec(0u64..2_000, 1..200),
        b in vec(0u64..2_000, 1..200),
        redeliveries in 1usize..5,
    ) {
        use gt_sketch::SumDistinctSketch;
        let config = small_config();
        let mut once: RefereeOf<u64> = RefereeOf::new(&config, 7);
        let mut noisy: RefereeOf<u64> = RefereeOf::new(&config, 7);
        for (id, labels) in [(0usize, &a), (1, &b)] {
            let mut s = SumDistinctSketch::new(&config, 7);
            for &l in labels.iter() {
                s.insert(gt_sketch::fold61(l), l % 5 + 1);
            }
            let msg = PartyMessage {
                party_id: id,
                payload: encode_sketch(&s),
                items_observed: s.items_observed(),
            };
            prop_assert_eq!(once.receive(&msg).unwrap(), Receipt::Merged);
            prop_assert_eq!(noisy.receive(&msg).unwrap(), Receipt::Merged);
            for _ in 0..redeliveries {
                prop_assert_eq!(noisy.receive(&msg).unwrap(), Receipt::Duplicate);
            }
        }
        prop_assert_eq!(
            encode_sketch(noisy.union_sketch()),
            encode_sketch(once.union_sketch())
        );
        prop_assert_eq!(noisy.items_reported(), once.items_reported());
        prop_assert_eq!(noisy.telemetry().duplicates_suppressed, 2 * redeliveries);
        let w = |_k: u64, v: u64| v as f64;
        prop_assert_eq!(
            noisy.union_sketch().estimate_weighted(w),
            once.union_sketch().estimate_weighted(w)
        );
    }
}

#[test]
fn accuracy_contract_over_many_seeds() {
    // (ε, δ) = (0.15, 0.2): over 25 master seeds at most a handful may
    // exceed ε. With δ = 0.2 the expected failures are 5; allow 9 (a
    // >3σ cushion) so the test is meaningful yet stable.
    let config = SketchConfig::new(0.15, 0.2).unwrap();
    let streams = spec(4, 0.3, Distribution::Uniform).generate();
    let mut failures = 0;
    for seed in 0..25u64 {
        let report = run_batch(&config, 0xB000 + seed, &streams, &[], &[]);
        if report.relative_error > 0.15 {
            failures += 1;
        }
    }
    assert!(failures <= 9, "{failures}/25 seeds exceeded epsilon");
}

// ---------------------------------------------------------------------------
// Mixed ingress: sketch messages and frames against one referee
// ---------------------------------------------------------------------------

/// FNV-1a, 64-bit, continued from `h`.
fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Parties the mixed schedule talks about (ids `0..MIXED_PARTIES`).
const MIXED_PARTIES: usize = 8;

/// Digest the referee after one step: the step's receipts, the
/// non-timing telemetry of both ingresses, the exactly-once counters,
/// every party's heard flag, acked generation and retained summary,
/// and the union's canonical bytes.
fn digest_step(h: u64, r: &Referee, receipts: &[Result<Receipt, CodecError>]) -> u64 {
    // Named counters, not `Debug` text: adding or removing a telemetry
    // field must not move the digest when no behaviour changed.
    let t = r.telemetry();
    let counts = [
        t.accepted,
        t.duplicates_suppressed,
        t.duplicates_merged,
        t.rejected_truncated,
        t.rejected_bad_magic,
        t.rejected_bad_tag,
        t.rejected_malformed,
        t.rejected_sketch,
        t.batches,
    ];
    let d = r.delta_telemetry();
    let frames = [
        d.delta_frames,
        d.full_frames,
        d.delta_bytes,
        d.full_bytes,
        d.resyncs_requested,
        d.duplicate_frames,
    ];
    let mut text = format!(
        "{receipts:?}|{counts:?}|{frames:?}|{} {} {} {}",
        r.messages(),
        r.bytes_received(),
        r.items_reported(),
        r.parties_heard()
    );
    for p in 0..MIXED_PARTIES {
        text += &format!("|{p} {} {:?}", r.has_heard(p), r.acked_generation(p));
    }
    let sketches = (0..MIXED_PARTIES).filter_map(|p| r.party_sketch(p));
    sketches
        .map(|s| encode_sketch(&s))
        .chain([encode_sketch(r.union_sketch())])
        .fold(fnv1a64_from(h, text.as_bytes()), |h, bytes| {
            fnv1a64_from(h, &bytes)
        })
}

/// A plain sketch message carrying `party`'s current state.
fn sketch_message(party: &DeltaParty<()>) -> PartyMessage {
    PartyMessage {
        party_id: party.id(),
        payload: encode_sketch(party.sketch()),
        items_observed: party.sketch().items_observed(),
    }
}

fn observe_range(party: &mut DeltaParty<()>, labels: std::ops::Range<u64>) {
    for l in labels {
        party.observe_with(gt_sketch::fold61(l), ());
    }
}

/// A referee whose every ingress call folds into a running digest.
struct DigestedReferee {
    r: Referee,
    h: u64,
}

impl DigestedReferee {
    fn batch(&mut self, msgs: &[PartyMessage]) -> Vec<Result<Receipt, CodecError>> {
        let receipts = self.r.receive_batch(msgs);
        self.h = digest_step(self.h, &self.r, &receipts);
        receipts
    }

    fn one(&mut self, msg: &PartyMessage) -> Result<Receipt, CodecError> {
        let receipt = self.r.receive(msg);
        self.h = digest_step(self.h, &self.r, std::slice::from_ref(&receipt));
        receipt
    }

    fn frame(&mut self, msg: &PartyMessage) -> Result<Receipt, CodecError> {
        let receipt = self.r.receive_frame(msg);
        self.h = digest_step(self.h, &self.r, std::slice::from_ref(&receipt));
        receipt
    }
}

/// Pins the referee over one schedule that mixes both ingresses: batched
/// and single sketch messages, a byte-identical redelivery, a merged
/// variant, a corrupt message, full and delta frames with duplicates, a
/// held-back (reordered) frame, lost acks, an orphan delta answered with
/// `NeedResync`, a corrupt frame, a frame chain longer than the
/// referee's fingerprint window, and one party that moves from sketch
/// messages to frames and back. The digest covers every receipt and
/// the referee's observable state after every step.
#[test]
fn mixed_ingress_schedule_is_pinned() {
    let config = small_config();
    let seed = 0x3A_11;
    let mut r = DigestedReferee {
        r: Referee::new(&config, seed),
        h: 0xcbf2_9ce4_8422_2325,
    };
    let mut ps: Vec<DeltaParty<()>> = (0..MIXED_PARTIES)
        .map(|p| DeltaParty::new(p, &config, seed))
        .collect();
    for (p, party) in ps.iter_mut().enumerate() {
        let base = 1_000 * p as u64;
        observe_range(party, base..base + 150 + 40 * p as u64);
    }

    // Sketch messages: a batch with an in-batch duplicate, a single
    // message, a byte-identical redelivery, a merged variant, a corrupt
    // message.
    let m4 = sketch_message(&ps[4]);
    let m6 = sketch_message(&ps[6]);
    assert_eq!(
        r.batch(&[m4.clone(), sketch_message(&ps[5]), m4.clone()]),
        vec![
            Ok(Receipt::Merged),
            Ok(Receipt::Merged),
            Ok(Receipt::Duplicate)
        ]
    );
    assert_eq!(r.one(&m6), Ok(Receipt::Merged));
    assert_eq!(r.one(&m4), Ok(Receipt::Duplicate));
    observe_range(&mut ps[5], 9_000..9_100);
    assert_eq!(
        r.batch(&[sketch_message(&ps[5])]),
        vec![Ok(Receipt::MergedVariant)]
    );
    let mut corrupt = sketch_message(&ps[7]);
    corrupt.payload = corrupt.payload.slice(..corrupt.payload.len() / 2);
    assert!(r.one(&corrupt).is_err());

    // Frames from party 0: full, delta, duplicate, a lost ack, and a
    // held-back frame delivered after a newer one.
    let f1 = ps[0].emit_frame();
    assert_eq!(r.frame(&f1), Ok(Receipt::Merged));
    ps[0].handle_ack(1);
    observe_range(&mut ps[0], 20_000..20_060);
    let f2 = ps[0].emit_frame();
    assert_eq!(r.frame(&f2), Ok(Receipt::Merged));
    assert_eq!(r.frame(&f2), Ok(Receipt::Duplicate));
    // The ack for generation 2 is lost: later deltas stay cumulative
    // against generation 1.
    observe_range(&mut ps[0], 20_060..20_090);
    let f3 = ps[0].emit_frame();
    observe_range(&mut ps[0], 20_090..20_200);
    let f4 = ps[0].emit_frame();
    assert_eq!(r.frame(&f4), Ok(Receipt::Merged));
    assert_eq!(r.frame(&f3), Ok(Receipt::Duplicate));
    ps[0].handle_ack(4);

    // Party 1: an orphan delta (its full frame never arrived) gets
    // NeedResync, and the resync's full frame is applied. A corrupt
    // frame errors out.
    let lost = ps[1].emit_frame();
    ps[1].handle_ack(1);
    observe_range(&mut ps[1], 30_000..30_020);
    let orphan = ps[1].emit_frame();
    assert_eq!(r.frame(&orphan), Ok(Receipt::NeedResync));
    ps[1].handle_resync();
    assert_eq!(r.frame(&ps[1].emit_frame()), Ok(Receipt::Merged));
    let mut bad_frame = lost.clone();
    bad_frame.payload = bad_frame.payload.slice(..bad_frame.payload.len() - 3);
    assert!(r.frame(&bad_frame).is_err());

    // Party 2 moves from sketch messages to frames and back.
    assert_eq!(r.one(&sketch_message(&ps[2])), Ok(Receipt::Merged));
    observe_range(&mut ps[2], 40_000..40_050);
    assert_eq!(r.frame(&ps[2].emit_frame()), Ok(Receipt::Merged));
    ps[2].handle_ack(1);
    observe_range(&mut ps[2], 40_050..40_080);
    assert_eq!(r.frame(&ps[2].emit_frame()), Ok(Receipt::Merged));
    observe_range(&mut ps[2], 40_080..40_300);
    assert_eq!(
        r.batch(&[sketch_message(&ps[2]), m6.clone()]),
        vec![Ok(Receipt::MergedVariant), Ok(Receipt::Duplicate)]
    );
    ps[2].handle_ack(2);
    observe_range(&mut ps[2], 40_300..40_320);
    assert_eq!(r.frame(&ps[2].emit_frame()), Ok(Receipt::Merged));

    // Party 3: a frame chain longer than the fingerprint window, every
    // ack delivered, then a redelivery of its first frame.
    let first = ps[3].emit_frame();
    assert_eq!(r.frame(&first), Ok(Receipt::Merged));
    ps[3].handle_ack(1);
    for round in 0..70u64 {
        observe_range(&mut ps[3], 50_000 + 5 * round..50_005 + 5 * round);
        assert_eq!(r.frame(&ps[3].emit_frame()), Ok(Receipt::Merged));
        let generation = ps[3].generation();
        ps[3].handle_ack(generation);
    }
    assert_eq!(r.frame(&first), Ok(Receipt::Duplicate));
    assert_eq!(r.r.acked_generation(3), Some(71));

    assert_eq!(
        r.h, 0xaa84_dd64_52e9_84ff,
        "mixed-ingress digest drifted: {:#018x}",
        r.h
    );
}
