//! The mergeable-summary abstraction and n-way union helpers.
//!
//! Mergeability is the property the paper's model runs on: each party ships
//! its summary to a referee, and the referee combines `t` summaries into one
//! that is *exactly* what a single observer of the concatenated streams
//! would hold. Everything in this workspace that has that property — the
//! GT sketches here, and the mergeable baselines (PCSA, LogLog, KMV, linear
//! counting) — implements [`Mergeable`], so referees, runners and
//! experiments can be written once.

use crate::error::{Result, SketchError};
use crate::workers::{balanced_chunks, effective_workers, run_workers};

/// A summary that supports lossless union with peers built from the same
/// configuration/seed material.
pub trait Mergeable: Sized {
    /// Fold `other` into `self`. Must be commutative and idempotent up to
    /// estimator-relevant state, and must fail (rather than silently
    /// corrupt) on uncoordinated inputs.
    fn merge_from(&mut self, other: &Self) -> Result<()>;
}

/// Union a non-empty slice of summaries into one, by left fold.
///
/// The referee-side cost is `O(t · c)` for `t` parties with summaries of
/// size `c` — independent of any stream's length, which is experiment
/// E10's claim.
///
/// # Errors
/// [`SketchError::EmptyUnion`] on an empty slice (there is no neutral
/// summary to return), plus any error propagated from a pairwise merge.
pub fn merge_all<T: Mergeable + Clone>(summaries: &[T]) -> Result<T> {
    let (first, rest) = summaries.split_first().ok_or(SketchError::EmptyUnion)?;
    let mut acc = first.clone();
    for s in rest {
        acc.merge_from(s)?;
    }
    Ok(acc)
}

/// Below this many summaries, [`merge_tree`] runs the sequential fold —
/// thread spawn/join overhead dominates a handful of `O(c)` merges.
pub const MERGE_TREE_CROSSOVER: usize = 16;

/// Union a non-empty slice of summaries by balanced tree reduction on
/// scoped worker threads, producing a result identical to the sequential
/// left fold of [`merge_all`].
///
/// Why reassociating is safe: a merged trial's level is the minimal level
/// `≥` every operand's that fits the qualifying union in capacity, and its
/// sample is exactly the qualifying subset of the union — both independent
/// of parenthesization. Payload reconciliation is `stored.merge(incoming)`
/// (earliest operand wins for the keep-first payloads), so the tree
/// preserves the left-to-right operand order: workers fold *contiguous*
/// chunks and layers pair *adjacent* accumulators, never commuting
/// operands. DESIGN.md §12 carries the full argument.
///
/// # Errors
/// [`SketchError::EmptyUnion`] on an empty slice,
/// [`SketchError::WorkerPanicked`] if a reduction worker panics, plus any
/// propagated merge error.
pub fn merge_tree<T: Mergeable + Clone + Send + Sync>(summaries: &[T]) -> Result<T> {
    merge_tree_exact(summaries, effective_workers())
}

/// [`merge_tree`] with an explicit worker count, bypassing the
/// [`effective_workers`] clamp — how the tests drive the chunked reduction
/// on single-core hosts. The crossover still applies.
pub(crate) fn merge_tree_exact<T: Mergeable + Clone + Send + Sync>(
    summaries: &[T],
    workers: usize,
) -> Result<T> {
    if summaries.is_empty() {
        return Err(SketchError::EmptyUnion);
    }
    if summaries.len() < MERGE_TREE_CROSSOVER || workers < 2 {
        return merge_all(summaries);
    }
    // Fan out: fold contiguous chunks in parallel (order within a chunk is
    // the sequential order, so payload reconciliation matches the fold).
    let mut layer: Vec<T> = run_workers(balanced_chunks(summaries, workers), merge_all)?
        .into_iter()
        .collect::<Result<Vec<T>>>()?;
    // Reduce: pair *adjacent* accumulators until one remains.
    while layer.len() > 1 {
        let pairs: Vec<(T, Option<T>)> = {
            let mut it = layer.into_iter();
            let mut out = Vec::new();
            while let Some(a) = it.next() {
                out.push((a, it.next()));
            }
            out
        };
        layer = run_workers(pairs, |(mut a, b)| -> Result<T> {
            if let Some(b) = b {
                a.merge_from(&b)?;
            }
            Ok(a)
        })?
        .into_iter()
        .collect::<Result<Vec<T>>>()?;
    }
    Ok(layer.pop().expect("non-empty by construction"))
}

impl<V: crate::trial::Payload> Mergeable for crate::sketch::GtSketch<V> {
    fn merge_from(&mut self, other: &Self) -> Result<()> {
        GtSketch::merge_from(self, other)
    }
}

use crate::sketch::GtSketch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchConfig;
    use crate::sketch::DistinctSketch;

    fn labels(range: std::ops::Range<u64>) -> impl Iterator<Item = u64> {
        range.map(gt_hash::fold61)
    }

    #[test]
    fn merge_all_many_parties_equals_one_observer() {
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        let t = 8;
        let per_party = 4_000u64;
        let mut parties = Vec::new();
        let mut whole = DistinctSketch::new(&config, 42);
        for p in 0..t {
            let mut s = DistinctSketch::new(&config, 42);
            let range = (p * per_party)..((p + 2) * per_party).min(t * per_party); // overlapping
            s.extend_labels(labels(range.clone()));
            whole.extend_labels(labels(range));
            parties.push(s);
        }
        let union = merge_all(&parties).unwrap();
        assert_eq!(
            union.estimate_distinct().value,
            whole.estimate_distinct().value
        );
        assert_eq!(union.sample_entries(), whole.sample_entries());
    }

    #[test]
    fn merge_all_single_summary_is_identity() {
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let mut s = DistinctSketch::new(&config, 7);
        s.extend_labels(labels(0..500));
        let out = merge_all(std::slice::from_ref(&s)).unwrap();
        assert_eq!(out.estimate_distinct().value, s.estimate_distinct().value);
    }

    #[test]
    fn merge_all_empty_is_an_error_not_a_panic() {
        assert_eq!(
            merge_all::<DistinctSketch>(&[]).unwrap_err(),
            crate::error::SketchError::EmptyUnion
        );
        assert_eq!(
            merge_tree::<DistinctSketch>(&[]).unwrap_err(),
            crate::error::SketchError::EmptyUnion
        );
    }

    #[test]
    fn merge_tree_matches_sequential_fold_across_the_crossover() {
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        for t in [
            1usize,
            2,
            MERGE_TREE_CROSSOVER - 1,
            MERGE_TREE_CROSSOVER,
            37,
        ] {
            let parties: Vec<DistinctSketch> = (0..t as u64)
                .map(|p| {
                    let mut s = DistinctSketch::new(&config, 11);
                    s.extend_labels(labels(p * 300..(p + 2) * 300));
                    s
                })
                .collect();
            let seq = merge_all(&parties).unwrap();
            let tree = merge_tree(&parties).unwrap();
            assert_eq!(tree.sample_entries(), seq.sample_entries(), "t = {t}");
            assert_eq!(tree.items_observed(), seq.items_observed(), "t = {t}");
            assert_eq!(
                tree.estimate_distinct().value,
                seq.estimate_distinct().value,
                "t = {t}"
            );
        }
    }

    #[test]
    fn payload_chunk_union_matches_sequential_build() {
        // Duplicate labels straddle chunk boundaries with distinct
        // payloads, so chunk-local reconciliation (the batch kernel) AND
        // union-time reconciliation both fire; the union must still equal
        // the single-observer build exactly, payloads included.
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        let items: Vec<(u64, u64)> = (0..30_000u64)
            .map(|i| (gt_hash::fold61(i % 9_000), i))
            .collect();
        let mut seq = GtSketch::<u64>::new(&config, 26);
        for &(l, p) in &items {
            seq.insert_with(l, p);
        }
        let state = |s: &GtSketch<u64>| -> Vec<(u8, std::collections::BTreeMap<u64, u64>)> {
            s.trials()
                .iter()
                .map(|t| (t.level(), t.sample_iter().collect()))
                .collect()
        };
        for parts in [1, 2, 4, 8] {
            let locals: Vec<GtSketch<u64>> = crate::workers::balanced_chunks(&items, parts)
                .into_iter()
                .map(|chunk| {
                    let mut s = GtSketch::new(&config, 26);
                    s.insert_batch_with(chunk);
                    s
                })
                .collect();
            let union = merge_all(&locals).unwrap();
            assert_eq!(state(&union), state(&seq), "parts {parts}");
            assert_eq!(union.items_observed(), seq.items_observed());
        }
    }

    #[test]
    fn merge_tree_propagates_coordination_errors() {
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let mut parties: Vec<DistinctSketch> = (0..MERGE_TREE_CROSSOVER as u64 + 4)
            .map(|_| DistinctSketch::new(&config, 1))
            .collect();
        parties.push(DistinctSketch::new(&config, 2)); // uncoordinated seed
        assert!(merge_tree(&parties).is_err());
    }

    #[test]
    fn merge_tree_exact_matches_fold_at_forced_worker_counts() {
        // `merge_tree` clamps to the host's cores; on a one-core runner it
        // always takes the sequential fold. Forcing worker counts keeps
        // the fan-out + adjacent-pair reduction exercised everywhere.
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let parties: Vec<DistinctSketch> = (0..MERGE_TREE_CROSSOVER as u64 + 7)
            .map(|p| {
                let mut s = DistinctSketch::new(&config, 11);
                s.extend_labels(labels(p * 300..(p + 2) * 300));
                s
            })
            .collect();
        let seq = merge_all(&parties).unwrap();
        for workers in [2, 3, 5, 8] {
            let tree = merge_tree_exact(&parties, workers).unwrap();
            assert_eq!(tree.sample_entries(), seq.sample_entries(), "w = {workers}");
            assert_eq!(tree.items_observed(), seq.items_observed(), "w = {workers}");
        }
    }

    #[test]
    fn poisoned_merge_worker_surfaces_as_error() {
        // A summary whose merge panics must fail the union with
        // WorkerPanicked, not abort the process from a referee thread.
        #[derive(Clone, Debug)]
        struct Poisoned;
        impl Mergeable for Poisoned {
            fn merge_from(&mut self, _other: &Self) -> Result<()> {
                panic!("poisoned merge");
            }
        }
        let parties = vec![Poisoned; MERGE_TREE_CROSSOVER + 4];
        assert_eq!(
            merge_tree_exact(&parties, 4).unwrap_err(),
            SketchError::WorkerPanicked
        );
    }

    #[test]
    fn merge_all_propagates_coordination_errors() {
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let a = DistinctSketch::new(&config, 1);
        let b = DistinctSketch::new(&config, 2);
        assert!(merge_all(&[a, b]).is_err());
    }
}
