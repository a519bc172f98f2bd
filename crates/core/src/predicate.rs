//! Predicate-restricted distinct counting: "aggregate functions over the
//! distinct labels" evaluated *after* the streams were observed.
//!
//! Because the coordinated sample stores actual labels (not just hashed
//! fingerprints), the referee can estimate, for **any** predicate `P`
//! chosen at query time,
//!
//! ```text
//! F₀(P) = |{ distinct labels x in the union : P(x) }|
//! ```
//!
//! as the simple function with weight `1` on `P` and `0` elsewhere —
//! one [`GtSketch::estimate_weighted`] call. This is the
//! query-flexibility selling point of sample-based sketches over
//! bitmap-based ones (PCSA/LogLog cannot answer any of these): one pass
//! over the streams, unbounded post-hoc predicates. Weighted
//! sub-population sums compose the same way: put the predicate inside
//! the weight.
//!
//! ## Error guarantee
//!
//! The estimate is unbiased. Its error is `± ε · F₀` (additive in the
//! *total* distinct count, with probability `1 − δ`) rather than relative
//! in `F₀(P)`: a predicate selecting a tiny sub-population is estimated
//! from few sample points. Experiment E13 measures the transition.

use crate::estimate::{median_f64, Estimate};
use crate::sketch::GtSketch;
use crate::trial::Payload;

impl<V: Payload> GtSketch<V> {
    /// Estimate the number of distinct labels satisfying `pred`.
    ///
    /// ```
    /// use gt_core::{DistinctSketch, SketchConfig};
    /// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
    /// let mut s = DistinctSketch::new(&cfg, 7);
    /// s.extend_labels(0..1000);
    /// // Predicate chosen at query time, after observation:
    /// assert_eq!(s.estimate_distinct_where(|l| l < 100).value, 100.0);
    /// ```
    ///
    /// Unbiased; error is additive `± ε · F₀(total)` with probability
    /// `1 − δ` (see module docs).
    pub fn estimate_distinct_where(&self, pred: impl Fn(u64) -> bool + Copy) -> Estimate {
        self.estimate_weighted(|label, _| if pred(label) { 1.0 } else { 0.0 })
    }

    /// Estimate the *fraction* of distinct labels satisfying `pred`
    /// (a ratio estimator: restricted count / total count, per trial).
    pub fn estimate_fraction_where(&self, pred: impl Fn(u64) -> bool + Copy) -> f64 {
        let mut per_trial: Vec<f64> = self
            .trials()
            .iter()
            .filter(|t| t.sample_len() > 0)
            .map(|t| {
                let hits = t.sample_iter().filter(|&(label, _)| pred(label)).count();
                hits as f64 / t.sample_len() as f64
            })
            .collect();
        if per_trial.is_empty() {
            return 0.0;
        }
        median_f64(&mut per_trial)
    }
}

#[cfg(test)]
mod tests {
    use crate::params::SketchConfig;
    use crate::sketch::DistinctSketch;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    // Labels carry their pre-fold identity in the low bits by construction:
    // we keep a side table so predicates can refer to original ids.
    fn build(n: u64, seed: u64) -> (DistinctSketch, Vec<u64>) {
        let labels: Vec<u64> = (0..n).map(gt_hash::fold61).collect();
        let mut s = DistinctSketch::new(&cfg(), seed);
        s.extend_labels(labels.iter().copied());
        (s, labels)
    }

    #[test]
    fn exact_at_level_zero() {
        let (s, labels) = build(200, 1);
        let evens: std::collections::HashSet<u64> =
            labels.iter().copied().filter(|l| l % 2 == 0).collect();
        let est = s.estimate_distinct_where(|l| evens.contains(&l));
        assert_eq!(est.value, evens.len() as f64);
    }

    #[test]
    fn half_population_predicate_is_accurate_at_scale() {
        let (s, _labels) = build(50_000, 2);
        // Folded labels are uniform, so "low bit set" selects ~half.
        let est = s.estimate_distinct_where(|l| l & 1 == 1);
        let rel = (est.value - 25_000.0).abs() / 25_000.0;
        assert!(rel < 0.15, "est {} rel {rel}", est.value);
    }

    #[test]
    fn fraction_estimator_matches_population() {
        let (s, _) = build(50_000, 3);
        let frac = s.estimate_fraction_where(|l| l % 4 == 0);
        assert!((frac - 0.25).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn empty_sketch_fraction_is_zero() {
        let s = DistinctSketch::new(&cfg(), 4);
        assert_eq!(s.estimate_fraction_where(|_| true), 0.0);
        assert_eq!(s.estimate_distinct_where(|_| true).value, 0.0);
    }

    #[test]
    fn tiny_subpopulation_error_is_additive_not_relative() {
        // A predicate selecting ~0.1% of labels: absolute error should be
        // within ε·F₀ even though relative error may be large.
        let (s, labels) = build(50_000, 5);
        let rare: std::collections::HashSet<u64> = labels.iter().copied().take(50).collect();
        let est = s.estimate_distinct_where(|l| rare.contains(&l));
        assert!(
            (est.value - 50.0).abs() <= 0.1 * 50_000.0,
            "additive bound violated: {}",
            est.value
        );
    }

    #[test]
    fn predicate_composes_with_weights() {
        let labels: Vec<u64> = (0..100).map(gt_hash::fold61).collect();
        let mut s = crate::sumdistinct::SumDistinctSketch::new(&cfg(), 6);
        for &l in &labels {
            s.insert(l, 7);
        }
        let evens: std::collections::HashSet<u64> =
            labels.iter().copied().filter(|l| l % 2 == 0).collect();
        let sum = s.estimate_weighted(|l, v| if evens.contains(&l) { v as f64 } else { 0.0 });
        assert_eq!(sum.value, evens.len() as f64 * 7.0);
    }

    #[test]
    fn true_predicate_equals_distinct_estimate() {
        let (s, _) = build(30_000, 7);
        let all = s.estimate_distinct_where(|_| true);
        assert_eq!(all.value, s.estimate_distinct().value);
    }
}
