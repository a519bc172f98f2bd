//! Property tests over *merge topologies*: however many parties exist,
//! however their streams are split, and in whatever shape their sketches
//! are combined (left fold, right fold, random tree), the final state
//! must be identical — the algebraic heart of the distributed-streams
//! model. The union is associative and, for label-only sketches,
//! order-insensitive, so the referee's one n-way union, the `merge_all`
//! left fold, is the reference: every other shape must match its
//! canonical wire bytes, the strongest equality the codec offers.

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::streams::encode_sketch;
use gt_sketch::{merge_all, DistinctSketch, HashFamilyKind, SketchConfig, SketchError};

fn config() -> SketchConfig {
    SketchConfig::from_shape(0.3, 0.3, 32, 5, HashFamilyKind::Pairwise).unwrap()
}

/// Capacity 16, so promotions happen even on small inputs.
fn sketch_of(labels: &[u64], seed: u64) -> DistinctSketch {
    let config = SketchConfig::from_shape(0.3, 0.3, 16, 5, HashFamilyKind::Pairwise).unwrap();
    let mut s = DistinctSketch::new(&config, seed);
    s.extend_labels(labels.iter().map(|&l| gt_sketch::fold61(l)));
    s
}

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

/// Merge a list of sketches in a deterministic "random" tree shape driven
/// by `shape_seed`: repeatedly pick two elements and replace them with
/// their union.
fn merge_random_tree(mut parts: Vec<DistinctSketch>, shape_seed: u64) -> DistinctSketch {
    let mut state = shape_seed;
    let mut next = move |bound: usize| -> usize {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    while parts.len() > 1 {
        let i = next(parts.len());
        let a = parts.swap_remove(i);
        let j = next(parts.len());
        let b = parts.swap_remove(j);
        parts.push(a.merged(&b).expect("coordinated"));
    }
    parts.pop().expect("non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_partition_and_any_merge_shape_agree(
        items in vec(0u64..20_000, 1..600),
        cuts in vec(0usize..600, 0..6),
        shape_seed in 0u64..1_000,
        master in 0u64..16,
    ) {
        // Partition `items` into contiguous party streams at `cuts`.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % items.len()).collect();
        bounds.push(0);
        bounds.push(items.len());
        bounds.sort_unstable();
        bounds.dedup();

        let parties: Vec<DistinctSketch> = bounds
            .windows(2)
            .map(|w| {
                let mut s = DistinctSketch::new(&config(), master);
                s.extend_labels(items[w[0]..w[1]].iter().map(|&x| gt_sketch::fold61(x)));
                s
            })
            .collect();

        // Reference: one observer of the whole stream.
        let mut whole = DistinctSketch::new(&config(), master);
        whole.extend_labels(items.iter().map(|&x| gt_sketch::fold61(x)));

        // Left fold.
        let mut fold = parties[0].clone();
        for p in &parties[1..] {
            fold.merge_from(p).unwrap();
        }
        prop_assert_eq!(state(&fold), state(&whole));

        // Random tree shape.
        let tree = merge_random_tree(parties, shape_seed);
        prop_assert_eq!(state(&tree), state(&whole));
    }

    #[test]
    fn re_merging_subsets_never_double_counts(
        items in vec(0u64..5_000, 1..300),
        master in 0u64..8,
    ) {
        // Overlapping party streams: every party sees a prefix of the
        // whole stream (maximal re-observation). Union must equal the
        // longest prefix's sketch.
        let labels: Vec<u64> = items.iter().map(|&x| gt_sketch::fold61(x)).collect();
        let mut parts = Vec::new();
        for frac in [1usize, 2, 3, 4] {
            let mut s = DistinctSketch::new(&config(), master);
            s.extend_labels(labels[..labels.len() / frac].iter().copied());
            parts.push(s);
        }
        let union = merge_all(&parts).unwrap();
        prop_assert_eq!(state(&union), state(&parts[0]));
    }

    /// Any random pairwise merge schedule — pick two survivors, replace
    /// them with their union, repeat — lands on the same canonical bytes
    /// as the left fold: full order-insensitivity for label-only sketches.
    #[test]
    fn any_pairwise_merge_order_is_canonical(
        parties in vec(vec(0u64..4_000, 0..200), 2..12),
        seed in 0u64..64,
        shape_seed in any::<u64>(),
    ) {
        let sketches: Vec<DistinctSketch> =
            parties.iter().map(|p| sketch_of(p, seed)).collect();
        let seq = merge_all(&sketches).unwrap();
        let tree = merge_random_tree(sketches, shape_seed);
        prop_assert_eq!(encode_sketch(&tree), encode_sketch(&seq));
    }

    /// Level skew: one party far past capacity (high sampling level)
    /// among tiny level-0 parties. The right fold aligns levels in a
    /// different order than the left fold; the result must not care.
    #[test]
    fn level_skew_does_not_break_equivalence(
        big in vec(0u64..100_000, 1_500..2_000),
        smalls in vec(vec(0u64..4_000, 0..50), 1..8),
        position in 0usize..8,
        seed in 0u64..16,
    ) {
        let mut sketches: Vec<DistinctSketch> =
            smalls.iter().map(|p| sketch_of(p, seed)).collect();
        sketches.insert(position.min(sketches.len()), sketch_of(&big, seed));
        let seq = merge_all(&sketches).unwrap();
        sketches.reverse();
        let reversed = merge_all(&sketches).unwrap();
        prop_assert_eq!(encode_sketch(&reversed), encode_sketch(&seq));
    }

    /// A one-party union is the identity, bitwise.
    #[test]
    fn single_party_union_is_identity(
        labels in vec(0u64..4_000, 0..300),
        seed in 0u64..32,
    ) {
        let s = sketch_of(&labels, seed);
        let one = std::slice::from_ref(&s);
        prop_assert_eq!(encode_sketch(&merge_all(one).unwrap()), encode_sketch(&s));
    }
}

/// Zero parties is a typed error, not a panic.
#[test]
fn empty_union_is_an_error() {
    assert_eq!(
        merge_all::<DistinctSketch>(&[]).unwrap_err(),
        SketchError::EmptyUnion
    );
}
