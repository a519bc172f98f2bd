//! Incremental delta extraction between two snapshots of one party's
//! sketch — the `gt-core` half of the continuous-monitoring plane.
//!
//! The paper's model ships each party's summary once, at the end.
//! Continuous monitoring re-ships it periodically, paying
//! `O(summary)` bytes per refresh even when almost nothing changed. The
//! delta plane pays `O(changes)` instead: a party that holds an
//! acknowledged **base** snapshot and a **current** sketch emits only
//! the per-trial *difference* — the new level (level raises are
//! monotone), the new item counter, and the labels that are in the
//! current sample but would not be reconstructed from the base.
//!
//! ## Why this is exact, not approximate
//!
//! A party's sketch evolves cumulatively: the current state is what the
//! base would become after observing more of the same stream. Per trial,
//! the GT sample is a *deterministic* function of the observed label set
//! and the (monotone) level: `S = {x observed : lvl(x) ≥ level}`,
//! `|S| ≤ c`. Hence every base entry that still qualifies at the current
//! level is still in the current sample, and
//!
//! ```text
//! current = subsample(base, current.level) ∪ delta.entries
//! ```
//!
//! holds with equality — [`apply_delta`] rebuilds the current snapshot
//! **bitwise**, payloads included (payload merges are reconciled with
//! the canonical `stored.merge(incoming)` order, so keep-first and
//! max-merge payloads land exactly where a fresh decode would put
//! them). [`delta_between`] verifies the prefix property instead of
//! assuming it and reports [`SketchError::ConfigMismatch`] when the
//! snapshots do not lie on one party's timeline; callers fall back to
//! shipping a full frame.
//!
//! The delta itself is represented as a [`GtSketch`] whose trials carry
//! the current levels and item counters but only the difference
//! entries. That makes it directly encodable by the canonical wire
//! codec (every entry qualifies at its trial's level, counts fit
//! capacity), so the delta plane reuses the codec's validation,
//! canonical byte-string property, and fingerprinting wholesale. A
//! delta sketch is a *transport* artifact: its own estimates are
//! meaningless and it must only ever be fed to [`apply_delta`].

use std::collections::HashMap;

use gt_hash::LevelHasher;

use crate::error::{Result, SketchError};
use crate::sketch::GtSketch;
use crate::trial::Payload;

/// Extract the per-trial difference that turns `base` into `current`.
///
/// Both sketches must be coordinated (same config and master seed) and
/// must be successive snapshots of **one** party's stream: levels may
/// only rise, and every base entry still qualifying at the current
/// level must still be present. Violations return
/// [`SketchError::ConfigMismatch`] — the caller's cue to ship a full
/// frame instead.
///
/// Entries whose payload changed between the snapshots (e.g. a
/// [`crate::LatestTs`] refreshed by a re-arrival) are included with the
/// current payload; [`apply_delta`] reconciles them through the
/// canonical `stored.merge(incoming)` order.
pub fn delta_between<V: Payload + PartialEq>(
    base: &GtSketch<V>,
    current: &GtSketch<V>,
) -> Result<GtSketch<V>> {
    base.check_coordinated(current)?;
    let mut delta = GtSketch::new(current.config(), current.master_seed());
    let mut base_map: HashMap<u64, V> = HashMap::new();
    let mut entries: Vec<(u64, V)> = Vec::new();
    for (index, (b, c)) in base.trials().iter().zip(current.trials()).enumerate() {
        if c.level() < b.level() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "delta base at level {} is ahead of current level {} (not a prefix)",
                    b.level(),
                    c.level()
                ),
            });
        }
        base_map.clear();
        base_map.extend(b.sample_iter());
        // Prefix check: a base entry that qualifies at the current level
        // must have survived into the current sample.
        for (&label, _) in base_map.iter() {
            if b.hasher().level(label) >= c.level() && !c.contains_label(label) {
                return Err(SketchError::ConfigMismatch {
                    detail: format!(
                        "base entry {label} qualifies at level {} but left the sample \
                         (base is not a prefix of current)",
                        c.level()
                    ),
                });
            }
        }
        entries.clear();
        entries.extend(
            c.sample_iter()
                .filter(|(label, payload)| base_map.get(label) != Some(payload)),
        );
        entries.sort_unstable_by_key(|&(label, _)| label);
        delta.reload_trial(index, c.level(), c.items_observed(), entries.drain(..))?;
    }
    Ok(delta)
}

/// Apply a delta produced by [`delta_between`] onto `base`, rebuilding
/// the successor snapshot in place — bitwise identical to the sketch
/// the delta was extracted from.
///
/// Per trial: subsample the base to the delta's (monotone) level, merge
/// the delta entries with the canonical `stored.merge(incoming)`
/// payload order, and adopt the delta's absolute item counter. The
/// cumulative-stream argument in the module docs is what makes this
/// reconstruction exact; the reload path re-validates the sample
/// invariant, so a delta applied against the wrong base surfaces as
/// [`SketchError::InvalidConfig`] rather than a silently wrong sketch.
///
/// A delta also applies exactly on top of any **later** base from the
/// same timeline (base generation ≤ referee's generation ≤ delta
/// generation): the delta carries every change since its coded base,
/// so entries the newer base already holds merge idempotently. This is
/// what lets a referee whose ack was lost keep applying the party's
/// retransmitted cumulative deltas without rewinding.
///
/// On `Err`, `base` may be partially updated; discard or resync it.
pub fn apply_delta<V: Payload>(base: &mut GtSketch<V>, delta: &GtSketch<V>) -> Result<()> {
    base.check_coordinated(delta)?;
    let capacity = base.config().capacity();
    let mut merged: HashMap<u64, V> = HashMap::with_capacity(capacity);
    let mut scratch: Vec<(u64, V)> = Vec::with_capacity(capacity);
    for index in 0..base.trials().len() {
        let b = &base.trials()[index];
        let d = &delta.trials()[index];
        if d.level() < b.level() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "delta at level {} is staler than base level {}",
                    d.level(),
                    b.level()
                ),
            });
        }
        merged.clear();
        merged.extend(
            b.sample_iter()
                .filter(|&(label, _)| b.hasher().level(label) >= d.level()),
        );
        for (label, incoming) in d.sample_iter() {
            merged
                .entry(label)
                .and_modify(|stored| *stored = stored.merge(incoming))
                .or_insert(incoming);
        }
        if merged.len() > capacity {
            return Err(SketchError::InvalidConfig {
                parameter: "sample",
                reason: format!(
                    "delta application overflows capacity {capacity} with {} entries \
                     (delta coded against a different base)",
                    merged.len()
                ),
            });
        }
        scratch.clear();
        scratch.extend(merged.iter().map(|(&label, &payload)| (label, payload)));
        base.reload_trial(
            index,
            d.level(),
            d.items_observed(),
            scratch.iter().copied(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchConfig;
    use crate::recency::LatestTs;
    use crate::DistinctSketch;

    fn cfg() -> SketchConfig {
        SketchConfig::from_shape(0.2, 0.2, 64, 5, gt_hash::HashFamilyKind::Pairwise).unwrap()
    }

    /// Per-trial (level, items, sorted entries).
    type TrialState<V> = Vec<(u8, u64, Vec<(u64, V)>)>;

    /// Canonical comparable view of a sketch: per-trial (level, items,
    /// sorted entries).
    fn state<V: Payload + std::fmt::Debug + Ord>(s: &GtSketch<V>) -> TrialState<V> {
        s.trials()
            .iter()
            .map(|t| {
                let mut entries: Vec<(u64, V)> = t.sample_iter().collect();
                entries.sort_unstable();
                (t.level(), t.items_observed(), entries)
            })
            .collect()
    }

    #[test]
    fn delta_reconstructs_the_current_snapshot_bitwise() {
        let config = cfg();
        let mut s = DistinctSketch::new(&config, 7);
        s.extend_labels((0..500u64).map(gt_hash::fold61));
        let base = s.clone();
        s.extend_labels((400..5_000u64).map(gt_hash::fold61)); // forces level raises
        let delta = delta_between(&base, &s).unwrap();
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn empty_evolution_yields_an_empty_delta() {
        let config = cfg();
        let mut s = DistinctSketch::new(&config, 3);
        s.extend_labels((0..2_000u64).map(gt_hash::fold61));
        let base = s.clone();
        // Re-observe only existing labels: samples and levels unchanged,
        // only item counters move.
        s.extend_labels((0..100u64).map(gt_hash::fold61));
        let delta = delta_between(&base, &s).unwrap();
        assert_eq!(
            delta.sample_entries(),
            0,
            "steady state must cost no entries"
        );
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn empty_base_delta_is_the_full_snapshot() {
        let config = cfg();
        let base = DistinctSketch::new(&config, 11);
        let mut s = base.clone();
        s.extend_labels((0..3_000u64).map(gt_hash::fold61));
        let delta = delta_between(&base, &s).unwrap();
        assert_eq!(delta.sample_entries(), s.sample_entries());
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn payload_changes_travel_in_the_delta() {
        let config = cfg();
        let mut s = GtSketch::<LatestTs>::new(&config, 5);
        for t in 0..200u64 {
            s.insert_merging_with(gt_hash::fold61(t), LatestTs(t));
        }
        let base = s.clone();
        // Re-arrivals refresh timestamps without adding labels.
        for t in 0..50u64 {
            s.insert_merging_with(gt_hash::fold61(t), LatestTs(1_000 + t));
        }
        let delta = delta_between(&base, &s).unwrap();
        assert!(delta.sample_entries() > 0, "ts refreshes must be carried");
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn cumulative_delta_applies_on_an_intermediate_base() {
        // The lost-ack scenario: the referee applied g1 but the party's
        // delta is coded against its acked base g0. The cumulative delta
        // g0 -> g2 must still land exactly on the g1 base.
        let config = cfg();
        let mut s = DistinctSketch::new(&config, 13);
        s.extend_labels((0..300u64).map(gt_hash::fold61));
        let g0 = s.clone();
        s.extend_labels((300..1_200u64).map(gt_hash::fold61));
        let g1 = s.clone();
        s.extend_labels((1_200..4_000u64).map(gt_hash::fold61));
        let delta = delta_between(&g0, &s).unwrap();
        let mut rebuilt = g1.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(state(&rebuilt), state(&s));
    }

    #[test]
    fn unrelated_snapshots_are_rejected() {
        let config = cfg();
        let mut a = DistinctSketch::new(&config, 17);
        let mut b = DistinctSketch::new(&config, 17);
        // Drive `a` far enough that some of its retained labels no
        // longer appear in `b` even at b's level: a is not a prefix.
        a.extend_labels((0..5_000u64).map(gt_hash::fold61));
        b.extend_labels((10_000..10_040u64).map(gt_hash::fold61));
        assert!(
            delta_between(&a, &b).is_err(),
            "level regression or prefix violation must be reported"
        );
    }

    #[test]
    fn uncoordinated_snapshots_are_rejected() {
        let a = DistinctSketch::new(&cfg(), 1);
        let b = DistinctSketch::new(&cfg(), 2);
        assert!(matches!(
            delta_between(&a, &b),
            Err(SketchError::SeedMismatch)
        ));
        let mut a2 = a.clone();
        assert!(matches!(
            apply_delta(&mut a2, &b),
            Err(SketchError::SeedMismatch)
        ));
    }

    #[test]
    fn refresh_merge_counts_each_snapshot_once() {
        // merge_refresh_from: union absorbs successive snapshots of one
        // party but its item counters must equal a single merge of the
        // latest snapshot.
        let config = cfg();
        let mut party = DistinctSketch::new(&config, 23);
        party.extend_labels((0..800u64).map(gt_hash::fold61));
        let snap1 = party.clone();
        party.extend_labels((800..2_000u64).map(gt_hash::fold61));
        let snap2 = party.clone();

        let mut live = DistinctSketch::new(&config, 23);
        live.merge_from(&snap1).unwrap();
        let old_items: Vec<u64> = snap1.trials().iter().map(|t| t.items_observed()).collect();
        live.merge_refresh_from(&snap2, &old_items).unwrap();

        let mut fresh = DistinctSketch::new(&config, 23);
        fresh.merge_from(&snap2).unwrap();
        assert_eq!(state(&live), state(&fresh));
    }
}
