//! Data-parallel sketch construction: split the input, sketch each chunk
//! on its own thread, merge.
//!
//! This is the shared-memory incarnation of the paper's model (each chunk
//! is a "party") and the pattern the parallelism guide calls fan-out/merge.
//! Because the union of coordinated sketches is *exactly* the sketch of
//! the concatenation, the parallel build is bitwise-deterministic: it
//! produces the same sample sets as a sequential build of the same data,
//! regardless of thread count or scheduling. That property is tested, not
//! just asserted, and is what makes the speedup free of accuracy cost.
//!
//! ## Why the worker count is clamped
//!
//! [`build_parallel`] treats `threads` as a *ceiling* and clamps it to
//! [`effective_workers`]: spawning more threads than cores made an early
//! version lose to its own sequential path (0.53× at 4 threads; DESIGN.md
//! §13 has the post-mortem). Chunks are balanced to within one item
//! ([`balanced_chunks`]), workers clone one prototype sketch instead of
//! re-deriving the seed schedule, and the worker-local sketches are
//! unioned in chunk order by [`merge_all`]: at most one local per core,
//! kept in stream order, which is all the bitwise identity needs.
//!
//! Workers ingest their chunk through the batch-monomorphic kernel
//! ([`DistinctSketch::extend_slice`]), not per-item inserts — the scaling
//! curve should measure parallelism, not a slow inner loop. Experiment
//! `e14` (`experiments e14`, checked in-binary with `Table::check`)
//! sweeps the thread count, re-checks bitwise identity at every width,
//! and checks the speedup curve against the host's worker count.

use crate::error::Result;
use crate::merge::merge_all;
use crate::params::SketchConfig;
use crate::sketch::DistinctSketch;
use crate::workers::{balanced_chunks, effective_workers, run_workers};

/// Build a [`DistinctSketch`] over `labels` using at most `threads` worker
/// threads, clamped to the host's [`effective_workers`] (values < 2 after
/// clamping fall back to a sequential build).
///
/// ```
/// use gt_core::{parallel::build_parallel, SketchConfig};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let labels: Vec<u64> = (0..1000).collect();
/// let par = build_parallel(&cfg, 7, &labels, 4).unwrap();
/// let seq = build_parallel(&cfg, 7, &labels, 1).unwrap();
/// // Not merely close — identical, regardless of thread count.
/// assert_eq!(par.estimate_distinct().value, seq.estimate_distinct().value);
/// ```
///
/// # Errors
/// [`crate::SketchError::WorkerPanicked`] if a worker thread panics;
/// merge errors are kept in the signature for uniformity (impossible for
/// sketches built here, all from the same config/seed).
pub fn build_parallel(
    config: &SketchConfig,
    master_seed: u64,
    labels: &[u64],
    threads: usize,
) -> Result<DistinctSketch> {
    build_parallel_exact(
        config,
        master_seed,
        labels,
        threads.min(effective_workers()),
    )
}

/// [`build_parallel`] without the worker clamp: spawns exactly `workers`
/// threads (capped only by the label count), so the determinism tests
/// exercise the chunked path on single-core hosts.
fn build_parallel_exact(
    config: &SketchConfig,
    master_seed: u64,
    labels: &[u64],
    workers: usize,
) -> Result<DistinctSketch> {
    if workers < 2 || labels.len() < 2 {
        let mut s = DistinctSketch::new(config, master_seed);
        s.extend_slice(labels);
        return Ok(s);
    }
    // One prototype; workers clone it instead of re-deriving the seed
    // sequence and hash tables per thread. Cloning an empty sketch is a
    // few allocations; `new` walks the whole seed schedule.
    let prototype = DistinctSketch::new(config, master_seed);
    let locals = run_workers(balanced_chunks(labels, workers), |chunk| {
        let mut s = prototype.clone();
        s.extend_slice(chunk);
        s
    })?;
    merge_all(&locals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn sample_sets(s: &DistinctSketch) -> Vec<std::collections::BTreeSet<u64>> {
        s.trials()
            .iter()
            .map(|t| t.sample_iter().map(|(k, _)| k).collect())
            .collect()
    }

    #[test]
    fn parallel_build_is_bitwise_deterministic() {
        let labels: Vec<u64> = (0..40_000).map(gt_hash::fold61).collect();
        let seq = build_parallel(&cfg(), 21, &labels, 1).unwrap();
        for threads in [2, 3, 4, 8] {
            let par = build_parallel(&cfg(), 21, &labels, threads).unwrap();
            assert_eq!(sample_sets(&par), sample_sets(&seq), "threads {threads}");
            assert_eq!(par.estimate_distinct().value, seq.estimate_distinct().value);
            assert_eq!(par.items_observed(), seq.items_observed());
        }
    }

    #[test]
    fn exact_worker_counts_are_bitwise_deterministic() {
        // `build_parallel` clamps to the host's cores, so on a one-core CI
        // runner the loop above never leaves the sequential path. The
        // `_exact` variant forces real chunked builds at awkward widths
        // (3 and 7 do not divide the input evenly) no matter the host.
        let labels: Vec<u64> = (0..40_000).map(gt_hash::fold61).collect();
        let seq = build_parallel_exact(&cfg(), 21, &labels, 1).unwrap();
        for workers in [2, 3, 7] {
            let par = build_parallel_exact(&cfg(), 21, &labels, workers).unwrap();
            assert_eq!(sample_sets(&par), sample_sets(&seq), "workers {workers}");
            assert_eq!(par.estimate_distinct().value, seq.estimate_distinct().value);
            assert_eq!(par.items_observed(), seq.items_observed());
        }
    }

    #[test]
    fn parallel_build_handles_duplicate_heavy_input() {
        let mut labels: Vec<u64> = (0..1_000).map(gt_hash::fold61).collect();
        labels.extend_from_within(..); // 2×
        labels.extend_from_within(..); // 4×
        let s = build_parallel_exact(&cfg(), 22, &labels, 4).unwrap();
        assert_eq!(s.estimate_distinct().value, 1_000.0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let s = build_parallel(&cfg(), 23, &[], 4).unwrap();
        assert_eq!(s.estimate_distinct().value, 0.0);
        let s = build_parallel(&cfg(), 23, &[42], 4).unwrap();
        assert_eq!(s.estimate_distinct().value, 1.0);
    }

    #[test]
    fn more_threads_than_labels() {
        let labels: Vec<u64> = (0..5).map(gt_hash::fold61).collect();
        let s = build_parallel_exact(&cfg(), 24, &labels, 64).unwrap();
        assert_eq!(s.estimate_distinct().value, 5.0);
    }
}
