//! # gt-core — coordinated adaptive sampling sketches
//!
//! An implementation of the distributed-streams sketch of
//! **Gibbons & Tirthapura, "Estimating simple functions on the union of
//! data streams" (SPAA 2001)**: `(ε, δ)`-approximation of the number of
//! distinct labels — and of other "simple functions" over the distinct
//! labels — in the **union** of many physically distributed data streams,
//! using only logarithmic space per stream and a single end-of-stream
//! message per party.
//!
//! ## The one-paragraph version
//!
//! All parties share a seeded pairwise-independent hash that assigns every
//! label a geometric *level* (`Pr[lvl ≥ l] = 2^{-l}`). Each party keeps the
//! set of distinct labels at or above its current level, raising the level
//! (and sub-sampling) whenever the set outgrows a fixed capacity
//! `c = Θ(1/ε²)`. Because the retained sample is a deterministic function
//! of the *set* of labels seen, samples from different parties can be
//! unioned losslessly — duplication across streams is free — and
//! `|sample| · 2^level` estimates the distinct count. A median over
//! `Θ(log 1/δ)` independent trials gives the `(ε, δ)` guarantee.
//!
//! Every other simple function `Σ_{distinct x} f(x)` is the same
//! estimator with a weight, [`GtSketch::estimate_weighted`]: predicate
//! counts, SumDistinct ([`SumDistinctSketch`]) and recency
//! ([`RecencySketch`]) are all one call on one sketch type, told apart
//! only by the per-label payload.
//!
//! ## Quick start
//!
//! ```
//! use gt_core::{DistinctSketch, SketchConfig};
//!
//! let config = SketchConfig::new(0.05, 0.01).unwrap(); // ε = 5%, δ = 1%
//! let seed = 0xC0FFEE;                                  // shared by all parties
//!
//! let mut site_a = DistinctSketch::new(&config, seed);
//! let mut site_b = DistinctSketch::new(&config, seed);
//! site_a.extend_labels(0..60_000);
//! site_b.extend_labels(40_000..100_000);               // overlaps site_a
//!
//! let union = site_a.merged(&site_b).unwrap();
//! let est = union.estimate_distinct();
//! assert!((est.value - 100_000.0).abs() < 0.05 * 100_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod compact;
pub mod concurrent;
pub mod delta;
pub mod error;
pub mod estimate;
pub mod expr;
pub mod merge;
pub mod metrics;
pub mod params;
pub mod predicate;
pub mod recency;
pub mod sampleset;
pub mod similarity;
pub mod sketch;
pub mod sumdistinct;
pub mod trial;
pub mod view;
pub mod window;
pub mod workers;

pub use compact::harmonize;
pub use concurrent::{ConcurrentSketch, SketchSnapshot, SketchWriter, WRITER_BUF};
pub use delta::{delta_between, ChangeJournal, SortedTrials, StateKey};
pub use error::{Result, SketchError};
pub use estimate::{median_f64, quantile_f64, relative_error, Estimate};
pub use expr::{eval_expr, ExprContext, ExpressionEstimate, JaccardEstimate, SetExpr};
pub use merge::{merge_all, Mergeable};
pub use metrics::{
    ConcurrentMetrics, ConcurrentMetricsSnapshot, MetricsSnapshot, PropagationCause,
};
pub use params::SketchConfig;
pub use recency::{LatestTs, RecencySketch};
pub use similarity::{jaccard_matrix, similarity, SimilarityEstimate};
pub use sketch::{DistinctSketch, GtSketch};
pub use sumdistinct::SumDistinctSketch;
pub use trial::{CoordinatedTrial, Payload, SampleWatch, TrialInsert};
pub use view::LeveledTrials;
pub use window::SlidingWindowSketch;
pub use workers::{balanced_chunks, effective_workers};
