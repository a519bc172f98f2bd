//! Integration tests for the "simple functions" beyond plain counting:
//! SumDistinct, predicate restriction, fractions, similarity — all checked
//! against the exact oracle on generated workloads.

use gt_sketch::streams::{Distribution, StreamOracle, WorkloadSpec};
use gt_sketch::{
    merge_all, similarity, DistinctSketch, RecencySketch, SketchConfig, SumDistinctSketch,
};

fn workload(parties: usize, overlap: f64) -> WorkloadSpec {
    WorkloadSpec {
        parties,
        distinct_per_party: 15_000,
        overlap,
        items_per_party: 50_000,
        distribution: Distribution::Zipf(1.0),
        seed: 0xF00D,
    }
}

#[test]
fn sumdistinct_across_parties_matches_oracle() {
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let set = workload(5, 0.4).generate();
    let value_of = |l: u64| l % 10 + 1;

    let sketches: Vec<SumDistinctSketch> = set
        .streams
        .iter()
        .map(|s| {
            let mut sk = SumDistinctSketch::new(&config, 0xC1);
            for &l in s {
                sk.insert(l, value_of(l));
            }
            sk
        })
        .collect();
    let union = merge_all(&sketches).unwrap();

    let oracle = StreamOracle::of_streams(set.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.sum_distinct(value_of) as f64;
    let est = union.estimate_sum().value;
    let rel = (est - truth).abs() / truth;
    // Values in [1,10]: modest inflation over the base ε.
    assert!(rel < 0.15, "sum est {est} truth {truth} rel {rel}");
}

#[test]
fn predicate_counts_match_oracle() {
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let set = workload(4, 0.25).generate();
    let mut union = DistinctSketch::new(&config, 0xC2);
    for s in &set.streams {
        union.extend_labels(s.iter().copied());
    }
    let oracle = StreamOracle::of_streams(set.streams.iter().map(|s| s.as_slice()));

    for modulus in [2u64, 5, 16] {
        let pred = move |l: u64| l.is_multiple_of(modulus);
        let est = union.estimate_distinct_where(pred).value;
        let truth = oracle.distinct_where(pred) as f64;
        let total = oracle.distinct() as f64;
        // Additive guarantee: |est − truth| ≤ ε · F0(total).
        assert!(
            (est - truth).abs() <= 2.0 * 0.05 * total,
            "mod {modulus}: est {est} truth {truth}"
        );
    }
}

#[test]
fn fraction_estimator_tracks_population_share() {
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let set = workload(3, 0.0).generate();
    let mut union = DistinctSketch::new(&config, 0xC3);
    for s in &set.streams {
        union.extend_labels(s.iter().copied());
    }
    let frac = union.estimate_fraction_where(|l| l % 4 != 0);
    assert!((frac - 0.75).abs() < 0.05, "frac {frac}");
}

#[test]
fn similarity_matches_oracle_on_generated_streams() {
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let set = workload(2, 0.5).generate();
    let mut a = DistinctSketch::new(&config, 0xC4);
    let mut b = DistinctSketch::new(&config, 0xC4);
    a.extend_labels(set.streams[0].iter().copied());
    b.extend_labels(set.streams[1].iter().copied());

    let oa = StreamOracle::of_streams([set.streams[0].as_slice()]);
    let ob = StreamOracle::of_streams([set.streams[1].as_slice()]);

    let sim = similarity(&a, &b).unwrap();
    let true_inter = oa.intersection(&ob) as f64;
    let true_jaccard = oa.jaccard(&ob);

    assert!(
        (sim.intersection - true_inter).abs() / true_inter < 0.2,
        "∩ est {} truth {true_inter}",
        sim.intersection
    );
    assert!(
        (sim.jaccard - true_jaccard).abs() < 0.05,
        "J est {} truth {true_jaccard}",
        sim.jaccard
    );
}

#[test]
fn distinct_sample_supports_posthoc_estimators() {
    // Build a union sketch, take one trial's sample (a Bernoulli sample
    // of the distinct labels, inclusion probability 2^-level), estimate
    // an aggregate that was never designed into the sketch: the number
    // of distinct labels whose value digit-sum is even.
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let set = workload(4, 0.3).generate();
    let mut union = DistinctSketch::new(&config, 0xC5);
    for s in &set.streams {
        union.extend_labels(s.iter().copied());
    }
    let oracle = StreamOracle::of_streams(set.streams.iter().map(|s| s.as_slice()));

    let digit_sum_even = |l: u64| {
        let mut s = 0u64;
        let mut x = l;
        while x > 0 {
            s += x % 10;
            x /= 10;
        }
        s.is_multiple_of(2)
    };

    let trial = &union.trials()[0];
    let est = trial.estimate_weighted(|l, _| if digit_sum_even(l) { 1.0 } else { 0.0 });
    let truth = oracle.distinct_where(digit_sum_even) as f64;
    let rel = (est - truth).abs() / truth;
    // Single-trial HT estimate: loose but must be in the ballpark.
    assert!(rel < 0.3, "est {est} truth {truth} rel {rel}");
}

#[test]
fn weighted_predicate_composition() {
    // Σ value over distinct labels in a sub-population, across parties.
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let set = workload(3, 0.5).generate();
    let value_of = |l: u64| l % 7 + 1;
    let sketches: Vec<SumDistinctSketch> = set
        .streams
        .iter()
        .map(|s| {
            let mut sk = SumDistinctSketch::new(&config, 0xC6);
            for &l in s {
                sk.insert(l, value_of(l));
            }
            sk
        })
        .collect();
    let union = merge_all(&sketches).unwrap();
    let oracle = StreamOracle::of_streams(set.streams.iter().map(|s| s.as_slice()));

    let pred = |l: u64| l.is_multiple_of(3);
    let est = union
        .estimate_weighted(|l, v| if pred(l) { v as f64 } else { 0.0 })
        .value;
    let truth: u64 = oracle.sum_distinct(|l| if pred(l) { value_of(l) } else { 0 });
    let rel = (est - truth as f64).abs() / truth as f64;
    assert!(rel < 0.2, "est {est} truth {truth} rel {rel}");
}

/// FNV-1a over the little-endian bytes of each estimate's bit pattern.
fn digest_bits(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn simple_function_estimates_are_pinned_bitwise() {
    // Every single-sketch simple function, on sketches below capacity
    // (level 0, exact) and past it (promoted), over three seeds. The
    // digest pins the bit patterns, so a refactor of the estimators
    // must reproduce them exactly, not just approximately.
    let config = SketchConfig::new(0.1, 0.1).unwrap();
    let mut bits = Vec::new();
    for seed in [0x51u64, 0x52, 0x53] {
        for n in [150u64, 40_000] {
            let labels: Vec<u64> = (0..n)
                .map(|i| gt_sketch::fold61(i ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            let mut distinct = DistinctSketch::new(&config, seed);
            distinct.extend_labels(labels.iter().copied());
            assert_eq!(distinct.max_level() > 0, n > 150, "n = {n}: wrong regime");

            let mut sum = SumDistinctSketch::new(&config, seed);
            let mut recency = RecencySketch::new(&config, seed);
            for (i, &l) in labels.iter().enumerate() {
                sum.insert(l, l % 13);
                recency.insert(l, i as u64);
            }
            // Half the labels re-arrive later: their latest timestamp moves.
            for (i, &l) in labels.iter().enumerate().step_by(2) {
                recency.insert(l, n + i as u64);
            }

            bits.push(distinct.estimate_distinct_where(|l| l % 3 == 0).value);
            bits.push(distinct.estimate_distinct_where(|l| l & 4 != 0).value);
            bits.push(distinct.estimate_fraction_where(|l| l % 5 < 2));
            for since in [n / 4, n / 2, n + n / 2] {
                bits.push(recency.estimate_distinct_since(since).value);
            }
            bits.push(sum.estimate_sum().value);
            bits.push(sum.estimate_mean_value());
            bits.push(
                sum.estimate_weighted(|l, v| if l % 2 == 0 { v as f64 * 0.5 } else { 1.0 })
                    .value,
            );
        }
    }
    assert!(bits.iter().all(|&v| v > 0.0), "no estimate may be empty");
    assert_eq!(
        digest_bits(&bits),
        0xb1da_7a8e_dc30_a7cd,
        "simple-function estimates drifted"
    );
}

#[test]
fn empty_simple_function_estimates_are_positive_zero() {
    // An empty sum must print `0`, not `-0`: every weighted estimate
    // folds from +0.0, like the distinct count does.
    let config = SketchConfig::new(0.1, 0.1).unwrap();
    let sum = SumDistinctSketch::new(&config, 1);
    let mut recency = RecencySketch::new(&config, 1);
    let distinct = DistinctSketch::new(&config, 1);
    assert_eq!(sum.estimate_sum().value.to_bits(), 0);
    assert_eq!(recency.estimate_distinct_since(0).value.to_bits(), 0);
    assert_eq!(
        distinct.estimate_distinct_where(|_| true).value.to_bits(),
        0
    );
    // No label recent enough is an empty since-estimate too.
    recency.insert(7, 5);
    assert_eq!(recency.estimate_distinct_since(10).value.to_bits(), 0);
}
