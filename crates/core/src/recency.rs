//! Landmark-window recency queries: "how many distinct labels have been
//! seen **since time t**?" for any `t` chosen at query time.
//!
//! This is a first step toward the authors' follow-up line of work
//! (sliding-window and time-decaying distinct counting, SPAA 2002 and
//! onward), built entirely out of this paper's machinery: attach each
//! label's **latest arrival timestamp** as its payload (merged by `max`
//! on duplicates and across parties), and answer recency queries as
//! predicate-restricted counts over the coordinated sample. The payload
//! type [`LatestTs`] is all that makes a [`GtSketch`] a [`RecencySketch`],
//! so a referee's live union fed by the delta plane answers the same
//! query with the same call.
//!
//! ## Semantics and guarantee
//!
//! The sample is a level-`l` Bernoulli sample of the distinct labels, and
//! each sampled label carries its true latest timestamp (every arrival of
//! an in-sample label updates it; labels evicted by level promotion were
//! dropped independently of time). Hence
//! `|{x ∈ S : ts(x) ≥ t}| · 2^l` is an unbiased estimator of
//! `|{distinct x : latest arrival ≥ t}|` — the simple function with
//! weight `1` on recent labels, one [`GtSketch::estimate_weighted`] call —
//! with the same additive `± ε·F₀(total)` error as any predicate query
//! (experiment E13).
//!
//! This is a **landmark** window (state never expires), not the
//! follow-up's sliding window (which evicts by timestamp to bound space
//! for `t → now`): old labels still occupy sample slots. It answers the
//! same queries exactly when total distinct labels fit the configured
//! space budget — and degrades to additive error beyond it.

use crate::estimate::Estimate;
use crate::sketch::GtSketch;
use crate::trial::Payload;

/// A latest-arrival timestamp, merged by `max`.
#[derive(
    Clone,
    Copy,
    Debug,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct LatestTs(pub u64);

impl Payload for LatestTs {
    #[inline]
    fn merge(self, other: Self) -> Self {
        LatestTs(self.0.max(other.0))
    }
}

/// A distinct-count sketch that also answers "distinct since `t`": a
/// [`GtSketch`] whose payload is each label's latest arrival time.
///
/// ```
/// use gt_core::{RecencySketch, SketchConfig};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let mut s = RecencySketch::new(&cfg, 7);
/// s.insert(10, 100); // label 10 at t=100
/// s.insert(11, 200);
/// s.insert(10, 300); // label 10 comes back later
/// assert_eq!(s.estimate_distinct_since(250).value, 1.0); // only label 10
/// assert_eq!(s.estimate_distinct().value, 2.0);
/// ```
pub type RecencySketch = GtSketch<LatestTs>;

impl GtSketch<LatestTs> {
    /// Observe `label` arriving at `timestamp`. Timestamps may arrive in
    /// any order (out-of-order streams keep the max per label).
    #[inline]
    pub fn insert(&mut self, label: u64, timestamp: u64) {
        self.insert_merging_with(label, LatestTs(timestamp));
    }

    /// Estimate of distinct labels whose **latest** arrival is at or
    /// after `since`. Unbiased; additive `± ε·F₀(total)` error with
    /// probability `1 − δ` (module docs).
    pub fn estimate_distinct_since(&self, since: u64) -> Estimate {
        self.estimate_weighted(|_, ts| if ts.0 >= since { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchConfig;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    #[test]
    fn exact_below_capacity() {
        let mut s = RecencySketch::new(&cfg(), 1);
        // Labels 0..100 at t = label; re-arrivals move timestamps forward.
        for i in 0..100u64 {
            s.insert(gt_hash::fold61(i), i);
        }
        assert_eq!(s.estimate_distinct().value, 100.0);
        assert_eq!(s.estimate_distinct_since(50).value, 50.0);
        assert_eq!(s.estimate_distinct_since(0).value, 100.0);
        assert_eq!(s.estimate_distinct_since(100).value, 0.0);
    }

    #[test]
    fn rearrival_refreshes_recency() {
        let mut s = RecencySketch::new(&cfg(), 2);
        for i in 0..100u64 {
            s.insert(gt_hash::fold61(i), 10);
        }
        assert_eq!(s.estimate_distinct_since(11).value, 0.0);
        // 30 of them come back later.
        for i in 0..30u64 {
            s.insert(gt_hash::fold61(i), 20);
        }
        assert_eq!(s.estimate_distinct_since(11).value, 30.0);
        assert_eq!(s.estimate_distinct().value, 100.0);
    }

    #[test]
    fn out_of_order_timestamps_keep_the_max() {
        let mut s = RecencySketch::new(&cfg(), 3);
        let l = gt_hash::fold61(7);
        s.insert(l, 100);
        s.insert(l, 5); // late, out-of-order arrival
        assert_eq!(s.estimate_distinct_since(50).value, 1.0);
    }

    #[test]
    fn merge_reconciles_timestamps_by_max() {
        let mut a = RecencySketch::new(&cfg(), 4);
        let mut b = RecencySketch::new(&cfg(), 4);
        for i in 0..200u64 {
            a.insert(gt_hash::fold61(i), 10);
        }
        for i in 100..300u64 {
            b.insert(gt_hash::fold61(i), 20);
        }
        let u = a.merged(&b).unwrap();
        assert_eq!(u.estimate_distinct().value, 300.0);
        // Labels 100..300 are recent (b saw them at t=20) — including the
        // overlap a had seen earlier.
        assert_eq!(u.estimate_distinct_since(15).value, 200.0);
        // Merge order must not matter for timestamps.
        let u2 = b.merged(&a).unwrap();
        assert_eq!(u2.estimate_distinct_since(15).value, 200.0);
    }

    #[test]
    fn accurate_at_scale() {
        let mut s = RecencySketch::new(&cfg(), 5);
        let n = 50_000u64;
        for i in 0..n {
            s.insert(gt_hash::fold61(i), i);
        }
        let est = s.estimate_distinct_since(n / 2).value;
        let truth = (n / 2) as f64;
        assert!(
            (est - truth).abs() < 0.1 * n as f64,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn uncoordinated_merge_rejected() {
        let a = RecencySketch::new(&cfg(), 1);
        let b = RecencySketch::new(&cfg(), 2);
        assert!(a.merged(&b).is_err());
    }
}
