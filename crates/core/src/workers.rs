//! Worker-thread plumbing for the parallel build: the host's usable
//! parallelism ([`effective_workers`]), balanced contiguous chunks
//! ([`balanced_chunks`]) and a scoped fan-out that turns a worker panic
//! into [`SketchError::WorkerPanicked`] (`run_workers`). DESIGN.md §13
//! records why each exists.

use crate::error::{Result, SketchError};

/// Number of worker threads worth spawning on this host: the OS-reported
/// available parallelism, or 1 when that cannot be queried (the
/// conservative choice — a sequential fallback is correct, oversubscription
/// is a regression).
pub fn effective_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `items` into at most `parts` contiguous chunks whose lengths
/// differ by at most one (the first `len % parts` chunks take the extra
/// item). `parts` is clamped to `[1, len]` — no empty chunks are produced
/// for a non-empty slice, and an empty slice yields one empty chunk.
///
/// Concatenating the chunks in order reproduces `items` exactly, which is
/// what lets the parallel build stay bitwise-identical to the sequential
/// one: contiguous chunks + ordered fold preserve first-arrival order for
/// keep-first payloads.
pub fn balanced_chunks<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.min(items.len()).max(1);
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut rest = items;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        let (chunk, tail) = rest.split_at(take);
        out.push(chunk);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
    out
}

/// Run `f` over each item on its own scoped thread and collect the results
/// in item order.
///
/// A panicking worker — or a panic escaping the scope itself — surfaces as
/// [`SketchError::WorkerPanicked`] rather than unwinding through (or
/// aborting) the caller: a poisoned closure fails the one request, and the
/// caller can retry sequentially.
pub(crate) fn run_workers<I, U, F>(items: Vec<I>, f: F) -> Result<Vec<U>>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    let f = &f;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move |_| f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| SketchError::WorkerPanicked))
            .collect()
    })
    .unwrap_or(Err(SketchError::WorkerPanicked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_is_at_least_one() {
        assert!(effective_workers() >= 1);
    }

    #[test]
    fn chunks_are_balanced_to_within_one_item() {
        // Regression for the `chunks(div_ceil)` imbalance: 10 items over 4
        // threads must be [3, 3, 2, 2], never [3, 3, 3, 1].
        let items: Vec<u32> = (0..10).collect();
        let sizes: Vec<usize> = balanced_chunks(&items, 4).iter().map(|c| c.len()).collect();
        assert_eq!(sizes, [3, 3, 2, 2]);

        for len in 0..100usize {
            let items: Vec<usize> = (0..len).collect();
            for parts in 1..=12 {
                let chunks = balanced_chunks(&items, parts);
                let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
                let max = sizes.iter().copied().max().unwrap();
                let min = sizes.iter().copied().min().unwrap();
                assert!(
                    max - min <= 1,
                    "len {len} parts {parts}: sizes {sizes:?} differ by more than 1"
                );
                let rejoined: Vec<usize> = chunks.concat();
                assert_eq!(rejoined, items, "len {len} parts {parts}: order changed");
                if len > 0 {
                    assert!(min >= 1, "len {len} parts {parts}: empty chunk");
                }
            }
        }
    }

    #[test]
    fn parts_clamp_to_item_count_and_to_one() {
        let items = [1u8, 2, 3];
        assert_eq!(balanced_chunks(&items, 64).len(), 3);
        assert_eq!(balanced_chunks(&items, 0).len(), 1);
        let empty: [u8; 0] = [];
        let chunks = balanced_chunks(&empty, 8);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].is_empty());
    }

    #[test]
    fn run_workers_preserves_item_order() {
        let out = run_workers((0..20u64).collect(), |x| x * x).unwrap();
        assert_eq!(out, (0..20u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_worker_surfaces_as_error_not_abort() {
        let result = run_workers(vec![1u32, 2, 3], |x| {
            if x == 2 {
                panic!("poisoned closure");
            }
            x
        });
        assert_eq!(result.unwrap_err(), SketchError::WorkerPanicked);
    }
}
