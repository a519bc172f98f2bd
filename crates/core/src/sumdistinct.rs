//! SumDistinct: duplicate-insensitive sums over the distinct labels of a
//! union of streams — the "simple functions" of the paper's title beyond
//! plain counting.
//!
//! Each stream item is a `(label, value)` pair where the value is a
//! function of the label (e.g. flow → bytes reserved for it, SKU → unit
//! price). The target aggregate is
//!
//! ```text
//! SumDistinct = Σ_{distinct labels x in the union} value(x)
//! ```
//!
//! — a quantity a plain sum gets wrong by the duplication factor, since
//! every re-observation (locally or at another party) would be re-counted.
//! The coordinated sample fixes this for free: the sample *is* a Bernoulli
//! sample of the distinct labels with known inclusion probability `2^{-l}`,
//! so `2^l · Σ_{x ∈ S} value(x)` is an unbiased Horvitz–Thompson estimate.
//!
//! ## Error guarantee
//!
//! With per-trial capacity `c = Θ(1/ε²)` the estimate is within
//! `ε · R · F₀` of the truth with probability `1 − δ`, where values lie in
//! `[0, R]` — i.e. the *relative* error is `ε · (R·F₀ / SumDistinct)`,
//! which collapses to `ε` when values are `{0,1}` (predicate counting) or
//! within a constant factor of each other, and degrades gracefully with
//! value skew. Experiment E7 measures both regimes. To purchase relative
//! error `ε` under value bound `R` with mean value `v̄`, scale capacity by
//! `(R/v̄)²` via [`crate::SketchConfig::with_constants`].
//!
//! The sum is one simple function, so it is one
//! [`GtSketch::estimate_weighted`] call; the payload type `u64` is all
//! that makes a [`GtSketch`] a [`SumDistinctSketch`].

use crate::estimate::Estimate;
use crate::sketch::GtSketch;

/// An `(ε, δ)` sketch for duplicate-insensitive sums over distinct labels:
/// a [`GtSketch`] whose payload is the label's value. Re-observations
/// keep the first-seen value (the model assumes the value is determined
/// by the label; disagreement means the *stream* violates the model).
///
/// ```
/// use gt_core::{SketchConfig, SumDistinctSketch};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let mut s = SumDistinctSketch::new(&cfg, 42);
/// for _ in 0..10 {
///     s.insert(1, 100); // same label re-observed: counted once
///     s.insert(2, 50);
/// }
/// assert_eq!(s.estimate_sum().value, 150.0);
/// assert_eq!(s.estimate_distinct().value, 2.0);
/// ```
pub type SumDistinctSketch = GtSketch<u64>;

impl GtSketch<u64> {
    /// Observe a `(label, value)` item.
    #[inline]
    pub fn insert(&mut self, label: u64, value: u64) {
        self.insert_with(label, value);
    }

    /// Observe every `(label, value)` pair from an iterator.
    pub fn extend_pairs(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        for (label, value) in pairs {
            self.insert(label, value);
        }
    }

    /// `(ε, δ)`-estimate of `Σ_{distinct x} value(x)` (see module docs for
    /// the precise error statement under value skew).
    pub fn estimate_sum(&self) -> Estimate {
        self.estimate_weighted(|_, v| v as f64)
    }

    /// Estimate of the mean value per distinct label (ratio estimator).
    pub fn estimate_mean_value(&self) -> f64 {
        let d = self.estimate_distinct().value;
        if d == 0.0 {
            0.0
        } else {
            self.estimate_sum().value / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchConfig;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn pairs(n: u64, value: impl Fn(u64) -> u64 + Copy) -> impl Iterator<Item = (u64, u64)> {
        (0..n).map(move |i| (gt_hash::fold61(i), value(i)))
    }

    #[test]
    fn exact_below_capacity() {
        let mut s = SumDistinctSketch::new(&cfg(), 1);
        s.extend_pairs(pairs(100, |i| i % 7 + 1));
        let truth: u64 = (0..100).map(|i| i % 7 + 1).sum();
        assert_eq!(s.estimate_sum().value, truth as f64);
        assert_eq!(s.estimate_distinct().value, 100.0);
    }

    #[test]
    fn duplicate_insensitive_unlike_plain_sum() {
        let mut s = SumDistinctSketch::new(&cfg(), 2);
        let v: Vec<(u64, u64)> = pairs(1_000, |_| 5).collect();
        for _ in 0..10 {
            s.extend_pairs(v.iter().copied()); // 10× duplication
        }
        // Plain sum would be 50_000; SumDistinct stays 5_000.
        assert_eq!(s.estimate_sum().value, 5_000.0);
    }

    #[test]
    fn large_streams_stay_within_relative_error_for_flat_values() {
        let mut s = SumDistinctSketch::new(&cfg(), 3);
        let n = 60_000u64;
        s.extend_pairs(pairs(n, |i| 1 + (i % 3))); // values in {1,2,3}
        let truth: u64 = (0..n).map(|i| 1 + (i % 3)).sum();
        let rel = (s.estimate_sum().value - truth as f64).abs() / truth as f64;
        // Value ratio R/v̄ = 1.5, so the error budget inflates modestly.
        assert!(rel < 0.2, "rel {rel}");
    }

    #[test]
    fn merge_is_duplicate_insensitive_across_parties() {
        let config = cfg();
        let mut a = SumDistinctSketch::new(&config, 4);
        let mut b = SumDistinctSketch::new(&config, 4);
        let shared: Vec<(u64, u64)> = pairs(500, |i| i % 10).collect();
        a.extend_pairs(shared.iter().copied());
        b.extend_pairs(shared.iter().copied());
        let union = a.merged(&b).unwrap();
        assert_eq!(union.estimate_sum().value, a.estimate_sum().value);
    }

    #[test]
    fn merge_matches_single_observer() {
        let config = cfg();
        let mut a = SumDistinctSketch::new(&config, 5);
        let mut b = SumDistinctSketch::new(&config, 5);
        let mut whole = SumDistinctSketch::new(&config, 5);
        let pa: Vec<(u64, u64)> = pairs(20_000, |i| i % 5 + 1).collect();
        let pb: Vec<(u64, u64)> = (10_000..30_000u64)
            .map(|i| (gt_hash::fold61(i), i % 5 + 1))
            .collect();
        a.extend_pairs(pa.iter().copied());
        b.extend_pairs(pb.iter().copied());
        whole.extend_pairs(pa.iter().copied());
        whole.extend_pairs(pb.iter().copied());
        let union = a.merged(&b).unwrap();
        assert_eq!(union.estimate_sum().value, whole.estimate_sum().value);
    }

    #[test]
    fn mean_value_ratio_estimator() {
        let mut s = SumDistinctSketch::new(&cfg(), 6);
        s.extend_pairs(pairs(1_000, |_| 4));
        assert!((s.estimate_mean_value() - 4.0).abs() < 1e-9);
        let empty = SumDistinctSketch::new(&cfg(), 6);
        assert_eq!(empty.estimate_mean_value(), 0.0);
    }

    #[test]
    fn seed_mismatch_rejected() {
        let a = SumDistinctSketch::new(&cfg(), 1);
        let b = SumDistinctSketch::new(&cfg(), 2);
        assert!(a.merged(&b).is_err());
    }
}
