//! Hierarchical (tree) aggregation of party messages.
//!
//! The paper's referee is a single hop, but nothing about coordinated
//! sampling requires that: because the union of sketches is itself a
//! valid sketch, parties can be aggregated through any tree of
//! intermediate collectors — regional referees merging their children and
//! forwarding one re-encoded message upward. The final estimate is
//! **identical** to the flat single-referee answer (tested, not assumed),
//! and per-link traffic stays one-sketch-sized at every tier, which is
//! what makes the scheme deployable across monitoring domains and, later,
//! sensor networks (cf. the authors' follow-up work on duplicate-
//! insensitive sensor aggregation).

use gt_core::{DistinctSketch, Estimate, SketchConfig};

use crate::codec::{decode_sketch, encode_sketch, CodecError};
use crate::party::PartyMessage;

/// Result of a tree aggregation.
#[derive(Clone, Debug)]
pub struct HierarchicalReport {
    /// The root's estimate of the union's distinct count.
    pub estimate: Estimate,
    /// Tree depth (number of merge tiers above the parties).
    pub tiers: usize,
    /// Bytes forwarded at each tier (tier 0 = party messages).
    pub bytes_per_tier: Vec<usize>,
    /// Messages at each tier.
    pub messages_per_tier: Vec<usize>,
    /// Canonical encoded bytes of the root union — bitwise identical to
    /// the flat single-referee union of the same messages.
    pub root_canonical: bytes::Bytes,
}

/// Aggregate party messages through a tree with the given fan-out.
///
/// ```
/// use gt_core::SketchConfig;
/// use gt_streams::{aggregate_tree, Party};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let messages: Vec<_> = (0..9)
///     .map(|id| {
///         let mut p = Party::new(id, &cfg, 7);
///         p.observe_stream(&[id as u64 * 100, id as u64 * 100 + 1]);
///         p.finish()
///     })
///     .collect();
/// let report = aggregate_tree(&cfg, 7, messages, 3).unwrap();
/// assert_eq!(report.estimate.value, 18.0); // 9 parties x 2 distinct labels
/// assert_eq!(report.messages_per_tier, vec![9, 3, 1]);
/// ```
///
/// Tier 0 holds the party messages; each tier groups `fanout` messages,
/// decodes + merges them, and re-encodes one message upward, until a
/// single message remains. The root decodes it and estimates.
///
/// # Errors
/// Propagates decode/merge failures (corrupt or uncoordinated messages).
///
/// # Panics
/// Panics on an empty message list or `fanout < 2`.
pub fn aggregate_tree(
    config: &SketchConfig,
    master_seed: u64,
    messages: Vec<PartyMessage>,
    fanout: usize,
) -> Result<HierarchicalReport, CodecError> {
    assert!(!messages.is_empty(), "need at least one party message");
    assert!(fanout >= 2, "fanout must be at least 2");

    let mut bytes_per_tier = vec![messages.iter().map(|m| m.bytes()).sum::<usize>()];
    let mut messages_per_tier = vec![messages.len()];
    let mut tier: Vec<bytes::Bytes> = messages.into_iter().map(|m| m.payload).collect();
    let mut tiers = 0usize;

    while tier.len() > 1 {
        tiers += 1;
        let mut next = Vec::with_capacity(tier.len().div_ceil(fanout));
        for group in tier.chunks(fanout) {
            let mut acc = DistinctSketch::new(config, master_seed);
            for payload in group {
                let sketch: DistinctSketch = decode_sketch(payload.clone())?;
                acc.merge_from(&sketch)?;
            }
            next.push(encode_sketch(&acc));
        }
        bytes_per_tier.push(next.iter().map(|b| b.len()).sum());
        messages_per_tier.push(next.len());
        tier = next;
    }

    let root_canonical = tier.pop().expect("one message remains");
    let root: DistinctSketch = decode_sketch(root_canonical.clone())?;
    Ok(HierarchicalReport {
        estimate: root.estimate_distinct(),
        tiers,
        bytes_per_tier,
        messages_per_tier,
        root_canonical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::Party;
    use crate::referee::Referee;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.05).unwrap()
    }

    fn messages(parties: usize, per_party: u64, seed: u64) -> Vec<PartyMessage> {
        (0..parties)
            .map(|p| {
                let mut party = Party::new(p, &cfg(), seed);
                let stream: Vec<u64> = (0..per_party)
                    .map(|i| gt_hash::fold61(i + (p as u64) * per_party / 2))
                    .collect();
                party.observe_stream(&stream);
                party.finish()
            })
            .collect()
    }

    #[test]
    fn tree_estimate_equals_flat_referee() {
        let msgs = messages(16, 8_000, 3);
        let mut flat = Referee::new(&cfg(), 3);
        for m in &msgs {
            flat.receive(m).unwrap();
        }
        for fanout in [2usize, 3, 4, 16] {
            let report = aggregate_tree(&cfg(), 3, msgs.clone(), fanout).unwrap();
            assert_eq!(
                report.estimate.value,
                flat.estimate_distinct().value,
                "fanout {fanout}"
            );
            assert_eq!(
                report.root_canonical,
                encode_sketch(flat.union_sketch()),
                "fanout {fanout}: tree reassociation is lossless"
            );
        }
    }

    #[test]
    fn tier_structure_matches_fanout() {
        let msgs = messages(16, 1_000, 4);
        let report = aggregate_tree(&cfg(), 4, msgs, 4).unwrap();
        assert_eq!(report.tiers, 2); // 16 -> 4 -> 1
        assert_eq!(report.messages_per_tier, vec![16, 4, 1]);
        assert_eq!(report.bytes_per_tier.len(), 3);
    }

    #[test]
    fn per_tier_bytes_shrink_with_message_count() {
        let msgs = messages(32, 5_000, 5);
        let report = aggregate_tree(&cfg(), 5, msgs, 2).unwrap();
        // Each tier halves the message count; total bytes per tier must
        // not grow (a merged sketch is at most one sketch big per message).
        for w in report.bytes_per_tier.windows(2) {
            assert!(w[1] <= w[0] + 64, "{:?}", report.bytes_per_tier);
        }
    }

    #[test]
    fn single_party_tree_is_identity() {
        let msgs = messages(1, 500, 6);
        let report = aggregate_tree(&cfg(), 6, msgs, 2).unwrap();
        assert_eq!(report.tiers, 0);
        assert_eq!(report.estimate.value, 500.0);
    }

    #[test]
    fn foreign_seed_rejected_at_any_tier() {
        let mut msgs = messages(4, 500, 7);
        let mut foreign = Party::new(9, &cfg(), 999);
        foreign.observe_stream(&[1, 2, 3]);
        msgs.push(foreign.finish());
        assert!(aggregate_tree(&cfg(), 7, msgs, 2).is_err());
    }
}
