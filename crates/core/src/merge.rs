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
/// This is the only n-way union: the coordinated union is associative, so
/// any merge tree over the same summaries in the same order yields the
/// same canonical bytes (DESIGN.md §12; `tests/merge_trees.rs`).
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
    fn merge_all_propagates_coordination_errors() {
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let a = DistinctSketch::new(&config, 1);
        let b = DistinctSketch::new(&config, 2);
        assert!(merge_all(&[a, b]).is_err());
    }
}
