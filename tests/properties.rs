//! Property-based tests (proptest) on the core invariants of coordinated
//! sampling. These are the load-bearing guarantees: if any of them breaks,
//! the distributed-union semantics silently rot.

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::streams::{decode_sketch, encode_sketch};
use gt_sketch::{DistinctSketch, SketchConfig, SumDistinctSketch};

/// Small capacities + trials so promotions happen even on small inputs.
fn small_config() -> SketchConfig {
    SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_sketch::HashFamilyKind::Pairwise).unwrap()
}

fn sketch_of(labels: &[u64], seed: u64) -> DistinctSketch {
    let mut s = DistinctSketch::new(&small_config(), seed);
    s.extend_labels(labels.iter().map(|&l| gt_sketch::fold61(l)));
    s
}

/// Canonical comparable state: per-trial (level, sorted sample).
fn state(s: &DistinctSketch) -> Vec<(u8, Vec<u64>)> {
    s.trials()
        .iter()
        .map(|t| {
            let mut v: Vec<u64> = t.sample_iter().map(|(k, _)| k).collect();
            v.sort_unstable();
            (t.level(), v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_equals_concatenation(a in vec(0u64..5_000, 0..400), b in vec(0u64..5_000, 0..400)) {
        let sa = sketch_of(&a, 9);
        let sb = sketch_of(&b, 9);
        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let whole = sketch_of(&concat, 9);
        let merged = sa.merged(&sb).unwrap();
        prop_assert_eq!(state(&merged), state(&whole));
    }

    #[test]
    fn merge_is_commutative(a in vec(0u64..5_000, 0..300), b in vec(0u64..5_000, 0..300)) {
        let sa = sketch_of(&a, 11);
        let sb = sketch_of(&b, 11);
        prop_assert_eq!(
            state(&sa.merged(&sb).unwrap()),
            state(&sb.merged(&sa).unwrap())
        );
    }

    #[test]
    fn merge_is_associative(
        a in vec(0u64..5_000, 0..200),
        b in vec(0u64..5_000, 0..200),
        c in vec(0u64..5_000, 0..200),
    ) {
        let (sa, sb, sc) = (sketch_of(&a, 13), sketch_of(&b, 13), sketch_of(&c, 13));
        let left = sa.merged(&sb).unwrap().merged(&sc).unwrap();
        let right = sa.merged(&sb.merged(&sc).unwrap()).unwrap();
        prop_assert_eq!(state(&left), state(&right));
    }

    #[test]
    fn merge_is_idempotent(a in vec(0u64..5_000, 0..400)) {
        let s = sketch_of(&a, 17);
        prop_assert_eq!(state(&s.merged(&s).unwrap()), state(&s));
    }

    #[test]
    fn insertion_order_is_irrelevant(mut a in vec(0u64..5_000, 0..400), seed in 0u64..32) {
        let s1 = sketch_of(&a, seed);
        a.reverse();
        let s2 = sketch_of(&a, seed);
        prop_assert_eq!(state(&s1), state(&s2));
    }

    #[test]
    fn duplication_is_invisible(a in vec(0u64..2_000, 0..200), reps in 1usize..5) {
        let once = sketch_of(&a, 19);
        let repeated: Vec<u64> = std::iter::repeat_with(|| a.iter().copied())
            .take(reps)
            .flatten()
            .collect();
        let many = sketch_of(&repeated, 19);
        prop_assert_eq!(state(&once), state(&many));
    }

    #[test]
    fn capacity_and_level_invariants(a in vec(0u64..100_000, 0..1_000)) {
        let s = sketch_of(&a, 23);
        for t in s.trials() {
            prop_assert!(t.sample_len() <= t.capacity());
            // every sampled label qualifies for the current level
            for (label, _) in t.sample_iter() {
                prop_assert!(gt_sketch::hash::LevelHasher::level(t.hasher(), label) >= t.level());
            }
        }
    }

    #[test]
    fn exact_below_capacity(a in vec(0u64..100_000u64, 0..16)) {
        // ≤ 16 distinct labels never promote a capacity-16 trial, so every
        // trial reports the exact distinct count.
        let distinct = a.iter().collect::<std::collections::HashSet<_>>().len();
        let s = sketch_of(&a, 29);
        prop_assert_eq!(s.estimate_distinct().value, distinct as f64);
    }

    #[test]
    fn codec_roundtrips_arbitrary_states(a in vec(0u64..50_000, 0..800), seed in 0u64..16) {
        let s = sketch_of(&a, seed);
        let decoded: DistinctSketch = decode_sketch(encode_sketch(&s)).unwrap();
        prop_assert_eq!(state(&decoded), state(&s));
        prop_assert_eq!(decoded.items_observed(), s.items_observed());
        prop_assert_eq!(decoded.master_seed(), s.master_seed());
    }

    #[test]
    fn different_seeds_never_merge(a in vec(0u64..1_000, 0..50), s1 in 0u64..100, s2 in 0u64..100) {
        prop_assume!(s1 != s2);
        let sa = sketch_of(&a, s1);
        let sb = sketch_of(&a, s2);
        prop_assert!(sa.merged(&sb).is_err());
    }

    #[test]
    fn sumdistinct_ignores_value_of_duplicates(
        pairs in vec((0u64..2_000, 1u64..100), 1..200),
    ) {
        // Re-inserting a label with ANY value must not change the estimate:
        // first-seen wins (duplicate-insensitive semantics).
        let cfg = small_config();
        let mut s1 = SumDistinctSketch::new(&cfg, 31);
        for &(l, v) in &pairs {
            s1.insert(gt_sketch::fold61(l), v);
        }
        let mut s2 = s1.clone();
        for &(l, _) in &pairs {
            s2.insert(gt_sketch::fold61(l), 9_999); // garbage re-inserts
        }
        prop_assert_eq!(s2.estimate_sum().value, s1.estimate_sum().value);
    }

    #[test]
    fn estimate_is_scale_calibrated(n in 1_000u64..20_000, seed in 0u64..8) {
        // Single-shot sanity: estimate within 60% of truth for a small
        // sketch (capacity 16). This is a *loose* envelope — the tight
        // (ε, δ) contract is exercised statistically in the experiments —
        // but it catches calibration bugs (e.g. off-by-one in level
        // scaling ⇒ 2x error, which this test rejects).
        let labels: Vec<u64> = (0..n).collect();
        let s = sketch_of(&labels, 100 + seed);
        let est = s.estimate_distinct().value;
        let rel = (est - n as f64).abs() / n as f64;
        prop_assert!(rel < 0.6, "n {} est {} rel {}", n, est, rel);
    }
}

mod batch_equivalence {
    use super::*;
    use gt_sketch::{GtSketch, LatestTs};

    /// Per-trial (level, items observed, sorted (label, payload) sample).
    type PayloadState<V> = Vec<(u8, u64, Vec<(u64, V)>)>;

    /// Comparable state including payloads.
    fn payload_state<V: gt_sketch::Payload + Ord>(s: &GtSketch<V>) -> PayloadState<V> {
        s.trials()
            .iter()
            .map(|t| {
                let mut v: Vec<(u64, V)> = t.sample_iter().collect();
                v.sort_unstable();
                (t.level(), t.items_observed(), v)
            })
            .collect()
    }

    /// Feed `items` per item and as one batch: both must leave the same
    /// state, payloads included, and the same metric snapshot.
    fn batch_matches_per_item<V: gt_sketch::Payload + Ord + std::fmt::Debug>(
        items: &[(u64, V)],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let cfg = small_config();
        let mut per_item = GtSketch::<V>::new(&cfg, seed);
        for &(l, p) in items {
            per_item.insert_with(l, p);
        }
        let mut batched = GtSketch::<V>::new(&cfg, seed);
        batched.insert_batch_with(items);
        prop_assert_eq!(payload_state(&batched), payload_state(&per_item));
        prop_assert_eq!(batched.metrics_snapshot(), per_item.metrics_snapshot());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batch-monomorphic kernel (`extend_slice`), the trial-major
        /// reference loop, and the buffered iterator path must all be
        /// bitwise-identical to per-item inserts — samples, levels, item
        /// counts, AND metric snapshots. The narrow label range forces
        /// duplicates; list length up to 600 forces promotions at
        /// capacity 16.
        #[test]
        fn batch_paths_match_per_item(raw in vec(0u64..5_000, 0..600), seed in 0u64..16) {
            let cfg = small_config();
            let folded: Vec<u64> = raw.iter().map(|&l| gt_sketch::fold61(l)).collect();

            let mut per_item = DistinctSketch::new(&cfg, seed);
            for &l in &folded {
                per_item.insert(l);
            }
            let mut kernel = DistinctSketch::new(&cfg, seed);
            kernel.extend_slice(&folded);
            let mut reference = DistinctSketch::new(&cfg, seed);
            reference.extend_slice_reference(&folded);
            let mut buffered = DistinctSketch::new(&cfg, seed);
            buffered.extend_labels(folded.iter().copied());

            for s in [&kernel, &reference, &buffered] {
                prop_assert_eq!(state(s), state(&per_item));
                prop_assert_eq!(s.items_observed(), per_item.items_observed());
                prop_assert_eq!(s.metrics_snapshot(), per_item.metrics_snapshot());
            }
        }

        /// The union kernel (`merge_from`) must be bitwise-identical to the
        /// per-entry reference union: samples, levels, item counts,
        /// payloads AND metric snapshots. Capacities from 8 to 64 make the
        /// merge itself promote mid-chunk; `self_is_big` puts either side
        /// at the higher level, so both level skews run; shared labels
        /// carry disagreeing payloads, so reconciliation order shows.
        #[test]
        fn union_kernel_matches_reference(
            big in vec(0u64..5_000, 0..1_200),
            small in vec(0u64..5_000, 0..150),
            capacity in 8usize..=64,
            self_is_big in any::<bool>(),
            seed in 0u64..8,
        ) {
            let cfg = SketchConfig::from_shape(
                0.3, 0.3, capacity, 5, gt_sketch::HashFamilyKind::Pairwise,
            ).unwrap();
            let side = |raw: &[u64], salt: u64| {
                let mut s = GtSketch::<u64>::new(&cfg, seed);
                for &l in raw {
                    s.insert_with(gt_sketch::fold61(l), l ^ salt);
                }
                s
            };
            let (a, b) = if self_is_big {
                (side(&big, 1), side(&small, 2))
            } else {
                (side(&small, 1), side(&big, 2))
            };

            let mut via_kernel = a.clone();
            via_kernel.merge_from(&b).unwrap();
            let mut via_reference = a.clone();
            via_reference.merge_from_reference(&b).unwrap();

            prop_assert_eq!(payload_state(&via_kernel), payload_state(&via_reference));
            prop_assert_eq!(via_kernel.metrics_snapshot(), via_reference.metrics_snapshot());
        }

        /// The batch kernel must reconcile duplicate payloads exactly like
        /// per-item `insert_with` — payload values and counters included —
        /// for `()`, `u64` (keep-first) and `LatestTs` (keep-max)
        /// payloads. Labels drawn from a tiny universe so most arrivals
        /// are duplicates.
        #[test]
        fn merging_batch_matches_per_item(
            pairs in vec((0u64..300, 0u64..1_000), 0..400),
            seed in 0u64..8,
        ) {
            let items: Vec<(u64, u64)> = pairs
                .iter()
                .map(|&(l, p)| (gt_sketch::fold61(l), p))
                .collect();
            let units: Vec<(u64, ())> = items.iter().map(|&(l, _)| (l, ())).collect();
            batch_matches_per_item(&units, seed)?;
            batch_matches_per_item(&items, seed)?;
            let stamped: Vec<(u64, LatestTs)> =
                items.iter().map(|&(l, p)| (l, LatestTs(p))).collect();
            batch_matches_per_item(&stamped, seed)?;
        }

        /// Splitting a batch arbitrarily and ingesting the pieces through
        /// the kernel equals one kernel call over the whole batch (the
        /// buffer boundary in `extend_labels` must be invisible).
        #[test]
        fn batch_split_is_invisible(raw in vec(0u64..5_000, 0..500), cut in 0usize..500, seed in 0u64..8) {
            let cfg = small_config();
            let folded: Vec<u64> = raw.iter().map(|&l| gt_sketch::fold61(l)).collect();
            let cut = cut.min(folded.len());

            let mut whole = DistinctSketch::new(&cfg, seed);
            whole.extend_slice(&folded);
            let mut split = DistinctSketch::new(&cfg, seed);
            split.extend_slice(&folded[..cut]);
            split.extend_slice(&folded[cut..]);

            prop_assert_eq!(state(&split), state(&whole));
            prop_assert_eq!(split.metrics_snapshot(), whole.metrics_snapshot());
        }
    }
}

mod codec_robustness {
    use super::*;
    use gt_sketch::streams::codec::decode_sketch as decode;

    /// Deterministic port of the stored proptest regression for
    /// `decode_survives_single_byte_corruption` (the shim proptest runner
    /// does not replay `.proptest-regressions` files): this exact label
    /// set, seed, and bit flip once produced a decode that violated the
    /// sample invariant.
    #[test]
    fn corruption_regression_seed0_flip3595_bit6() {
        let labels: Vec<u64> = vec![
            533, 3853, 4173, 8964, 8150, 7573, 9116, 2638, 128, 13, 6408, 3629, 1741, 6334, 5868,
            2842, 1046, 2394, 875, 1955, 6055, 1984, 109, 412, 5910, 564, 7421, 362, 9878, 2988,
            6141, 9931, 2822, 343, 35, 97, 318, 1241, 3087, 2028, 765, 2028, 4047, 2162, 38, 3341,
            3639, 884, 1598, 6905, 4605, 4365, 3632, 5848, 3099, 318, 263, 4025, 5793, 4422, 3851,
            6235, 8814, 8277, 3966, 9027, 306, 1152, 6945, 5959, 2873, 2603, 478, 9624, 2405, 7928,
            4118, 1433,
        ];
        let s = sketch_of(&labels, 0);
        let mut raw = encode_sketch(&s).to_vec();
        let idx = 3595 % raw.len();
        raw[idx] ^= 1 << 6;
        if let Ok(decoded) = decode::<()>(bytes::Bytes::from(raw)) {
            for t in decoded.trials() {
                assert!(t.sample_len() <= t.capacity());
                for (label, _) in t.sample_iter() {
                    assert!(
                        gt_sketch::hash::LevelHasher::level(t.hasher(), label) >= t.level(),
                        "decoded sample entry {label} below trial level {}",
                        t.level()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoding arbitrary bytes must return an error, never panic —
        /// referees face the network.
        #[test]
        fn decode_never_panics_on_garbage(data in vec(any::<u8>(), 0..512)) {
            let _ = decode::<()>(bytes::Bytes::from(data));
        }

        /// Single-byte corruptions of a valid message must either decode
        /// to a VALID sketch (the flip hit a don't-care bit such as the
        /// items counter) or error out — never panic, never produce a
        /// sketch violating the sample invariant.
        #[test]
        fn decode_survives_single_byte_corruption(
            labels in vec(0u64..10_000, 1..200),
            seed in 0u64..8,
            flip_pos in 0usize..4096,
            flip_bit in 0u8..8,
        ) {
            let s = sketch_of(&labels, seed);
            let mut raw = encode_sketch(&s).to_vec();
            let idx = flip_pos % raw.len();
            raw[idx] ^= 1 << flip_bit;
            if let Ok(decoded) = decode::<()>(bytes::Bytes::from(raw)) {
                // Whatever decoded must satisfy the invariant the decoder
                // promises to enforce.
                for t in decoded.trials() {
                    prop_assert!(t.sample_len() <= t.capacity());
                    for (label, _) in t.sample_iter() {
                        prop_assert!(
                            gt_sketch::hash::LevelHasher::level(t.hasher(), label) >= t.level()
                        );
                    }
                }
            }
        }
    }
}

mod sampleset_model {
    use super::*;
    use gt_core::sampleset::{FixedCapMap, InsertOutcome};
    use std::collections::HashMap;

    /// Model-based test: FixedCapMap against std HashMap under a random
    /// operation sequence (insert / contains / retain-by-parity / clear).
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Contains(u64),
        RetainEven,
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u64..500, 0u64..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => (0u64..500).prop_map(Op::Contains),
            1 => Just(Op::RetainEven),
            1 => Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn behaves_like_hashmap(ops in vec(op_strategy(), 0..300)) {
            let capacity = 64usize;
            let mut real = FixedCapMap::<u64>::with_capacity(capacity);
            let mut model: HashMap<u64, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        let outcome = real.try_insert(k, v);
                        match outcome {
                            InsertOutcome::Inserted => {
                                prop_assert!(model.len() < capacity);
                                prop_assert!(!model.contains_key(&k));
                                model.insert(k, v);
                            }
                            InsertOutcome::AlreadyPresent => {
                                prop_assert!(model.contains_key(&k));
                            }
                            InsertOutcome::Full => {
                                prop_assert_eq!(model.len(), capacity);
                                prop_assert!(!model.contains_key(&k));
                            }
                        }
                    }
                    Op::Contains(k) => {
                        prop_assert_eq!(real.get(k), model.get(&k).copied());
                    }
                    Op::RetainEven => {
                        real.retain(|k, _| k % 2 == 0);
                        model.retain(|k, _| k % 2 == 0);
                    }
                    Op::Clear => {
                        real.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(real.len(), model.len());
            }
            let mut got: Vec<(u64, u64)> = real.iter().collect();
            got.sort_unstable();
            let mut want: Vec<(u64, u64)> = model.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
