//! # wallbench — wall-clock benchmark of the gt-sketch system
//!
//! Four named workloads drive the system through its public functions
//! only: party ingest → encode → referee decode/merge → query, the delta
//! plane, and the keyed store. Each run measures end-to-end metrics with
//! tracing off, or per-layer metrics from spans recorded around every
//! call with tracing on, and checks the system's outputs outside timing.
//! See `README.md` for the metric and workload dictionary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod run;
pub mod suite;
pub mod trace;
pub mod workloads;
