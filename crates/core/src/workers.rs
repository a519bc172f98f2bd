//! Fan-out sizing for multi-writer builds: the host's usable parallelism
//! ([`effective_workers`]) and balanced contiguous chunks
//! ([`balanced_chunks`]). DESIGN.md §13 records why each exists.

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
/// Concatenating the chunks in order reproduces `items` exactly. The
/// chunks are balanced, not merely bounded, because the slowest worker of a
/// fan-out sets its wall time.
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
}
