//! End-to-end integration: workload generation → parties on threads →
//! wire codec → referee → estimate, checked against the exact oracle —
//! plus the at-least-once delivery properties: any schedule of duplicated,
//! reordered, or late deliveries must leave the referee in a state
//! bitwise-identical to clean exactly-once delivery.

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::streams::{
    collect_once, encode_sketch, run_batch, Distribution, Party, PartyMessage, Receipt, Referee,
    RefereeOf, RetryPolicy, StreamOracle, TransportSpec, WorkloadSpec,
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
/// bytes and exactly-once counters. `merge_calls` is deliberately
/// excluded: the batched collection plane folds each retry round in one
/// union merge, so the count depends on how deliveries clumped into
/// rounds (it is an observability counter, never on the wire).
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
                payload: encode_sketch(s.inner()),
                items_observed: s.inner().items_observed(),
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
