//! # gt-sketch
//!
//! Coordinated-sampling sketches for **estimating simple functions on the
//! union of data streams** — a from-scratch Rust implementation of
//! Gibbons & Tirthapura (SPAA 2001), the algorithm that seeded today's
//! KMV / Theta distinct-counting sketches.
//!
//! ## What you get
//!
//! * [`DistinctSketch`] — `(ε, δ)`-approximate distinct counting (F₀) in
//!   `O(ε⁻² log(1/δ) log n)` space, **losslessly mergeable** across any
//!   number of independent observers that share a seed.
//! * Any simple function `Σ f(x)` over the distinct labels
//!   ([`GtSketch::estimate_weighted`]): predicate-restricted counts
//!   ([`GtSketch::estimate_distinct_where`]), duplicate-insensitive sums
//!   ([`SumDistinctSketch`]) and "distinct since `t`" ([`RecencySketch`])
//!   are payload aliases of the one sketch type, plus two-stream
//!   intersection / Jaccard estimation ([`similarity()`]).
//! * [`ConcurrentSketch`] — multicore ingestion, online or as a batch
//!   build, with bit-identical results to sequential processing.
//! * A full distributed-streams runtime ([`streams`]): parties, referee,
//!   byte-counted wire codec, workload generators, scenario runner.
//! * A keyed multi-tenant sketch store ([`store`]): millions of per-key
//!   sketches behind one sharded ingest path, each resident key packed in
//!   a slot of its own, and LRU eviction to an on-disk spill log.
//! * Baselines ([`baselines`]): exact, FM/PCSA, LogLog, linear counting,
//!   KMV, reservoir sampling — behind one trait.
//!
//! ## Five-line quick start
//!
//! ```
//! use gt_sketch::{DistinctSketch, SketchConfig};
//! let config = SketchConfig::new(0.05, 0.01).unwrap();
//! let (mut a, mut b) = (DistinctSketch::new(&config, 7), DistinctSketch::new(&config, 7));
//! a.extend_labels(0..50_000);
//! b.extend_labels(25_000..75_000);
//! assert!((a.merged(&b).unwrap().estimate_distinct().value - 75_000.0).abs() < 3_750.0);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gt_core::{
    compact, concurrent, error, estimate, eval_expr, expr, harmonize, jaccard_matrix, median_f64,
    merge, merge_all, metrics, params, predicate, quantile_f64, recency, relative_error,
    similarity, sketch, sumdistinct, trial, ConcurrentMetricsSnapshot, ConcurrentSketch,
    CoordinatedTrial, DistinctSketch, Estimate, ExprContext, ExpressionEstimate, GtSketch,
    JaccardEstimate, LatestTs, Mergeable, MetricsSnapshot, Payload, PropagationCause,
    RecencySketch, Result, SetExpr, SimilarityEstimate, SketchConfig, SketchError, SketchSnapshot,
    SketchWriter, SumDistinctSketch, TrialInsert,
};

/// Hashing substrate: pairwise-independent families, levels, seeds.
pub use gt_hash as hash;
pub use gt_hash::{fold61, mix64, HashFamilyKind};

/// Distributed-streams runtime: parties, referee, codec, workloads.
pub use gt_streams as streams;

/// Keyed multi-tenant sketch store: packed per-key slots, sharded ingest,
/// eviction + spill.
pub use gt_store as store;

/// Baseline distinct counters for comparison.
pub use gt_baselines as baselines;
