//! Incremental deltas between two states of one party's sketch — the
//! `gt-core` half of the continuous-monitoring plane.
//!
//! The paper's model ships each party's summary once, at the end.
//! Continuous monitoring re-ships it periodically, paying
//! `O(summary)` bytes per refresh even when almost nothing changed. The
//! delta plane pays `O(changes)` instead: against an acknowledged
//! **base** state, a party emits only the per-trial *difference* — the
//! new level (level raises are monotone), the new item counter, and the
//! labels that are in the current sample but would not be reconstructed
//! from the base.
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
//! holds with equality — [`LeveledTrials::apply_delta_watched`] turns the
//! base into the current state in place, **bitwise**, payloads included
//! (payload merges are reconciled with the canonical
//! `stored.merge(incoming)` order, so keep-first and max-merge payloads
//! land exactly where a fresh decode would put them).
//!
//! ## One delta type
//!
//! A delta is a [`SortedTrials`]: per trial, the level, the item counter
//! and the label-sorted new entries, nothing sized by the capacity. A
//! whole state is a delta from the empty sketch ([`SortedTrials::of`]),
//! so one apply path serves both. The wire codec writes the same order,
//! and a referee decodes a frame straight back into a
//! [`LeveledTrials`] ([`LeveledTrials::push_checked`]), which keeps each
//! entry's hash level beside it.
//!
//! ## The work is O(changes) on both sides
//!
//! A party does not keep its base: a [`ChangeJournal`] watches its
//! ingest ([`SampleWatch`]) and lists what changed since the base, so
//! [`ChangeJournal::delta`] reads the delta without comparing samples.
//! [`delta_between`] computes the same delta from two whole states; it
//! verifies the prefix property instead of assuming it and reports
//! [`SketchError::ConfigMismatch`] when the states do not lie on one
//! party's timeline. It stays as the oracle the journal is tested
//! against. A referee applies a delta in place, after checking it fits
//! ([`LeveledTrials::apply_delta_watched`]), and refresh-merges only its
//! entries into the union ([`GtSketch::merge_refresh_from`]). Both sides
//! name a base state by its [`StateKey`], an order-independent hash they
//! keep current change by change.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use gt_hash::{mix64, LevelHasher};

use crate::error::{Result, SketchError};
use crate::sketch::GtSketch;
use crate::trial::{Payload, SampleWatch};
use crate::view::LeveledTrials;

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
/// current payload; [`LeveledTrials::apply_delta_watched`] reconciles
/// them through the canonical `stored.merge(incoming)` order.
pub fn delta_between<V: Payload + PartialEq>(
    base: &GtSketch<V>,
    current: &GtSketch<V>,
) -> Result<SortedTrials<V>> {
    base.check_coordinated(current)?;
    let mut delta = SortedTrials::default();
    let mut base_map: HashMap<u64, V> = HashMap::new();
    for (b, c) in base.trials().iter().zip(current.trials()) {
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
        let changed = c
            .sample_iter()
            .filter(|(label, payload)| base_map.get(label) != Some(payload));
        delta.push_sorting(c.level(), c.items_observed(), changed);
    }
    Ok(delta)
}

/// A delta must carry one trial per base trial.
pub(crate) fn check_trial_count(delta: usize, base: usize) -> Result<()> {
    if delta != base {
        return Err(SketchError::ConfigMismatch {
            detail: format!("delta carries {delta} trials for {base}"),
        });
    }
    Ok(())
}

/// The fit of one delta trial (`level`, `entries`) on a base trial at
/// `base_level` holding `base_len` entries, whichever form holds the base:
/// a level regression, then a capacity overflow. `kept` counts the base
/// entries at or above `level` (called only if the delta raises the
/// level), and `holds` says whether the base holds a label.
pub(crate) fn check_trial_fit<V>(
    base_level: u8,
    base_len: usize,
    level: u8,
    entries: &[(u64, V)],
    capacity: usize,
    kept: impl FnOnce() -> usize,
    holds: impl Fn(u64) -> bool,
) -> Result<()> {
    if level < base_level {
        return Err(SketchError::ConfigMismatch {
            detail: format!("delta at level {level} is staler than base level {base_level}"),
        });
    }
    // Delta entries qualify at the delta's level, so one the base holds
    // survives the raise: the result is the surviving base entries plus
    // the delta entries the base lacks.
    let kept = if level == base_level {
        base_len
    } else {
        kept()
    };
    // Every delta entry counts as added unless that overflows; only then
    // are the ones the base already holds (lost acks, payload changes)
    // probed out.
    if kept + entries.len() <= capacity {
        return Ok(());
    }
    let added = entries.iter().filter(|&&(label, _)| !holds(label)).count();
    if kept + added > capacity {
        return Err(SketchError::InvalidConfig {
            parameter: "sample",
            reason: format!(
                "delta application overflows capacity {capacity} with {} entries \
                 (delta coded against a different base)",
                kept + added
            ),
        });
    }
    Ok(())
}

/// A delta, or a whole state, trial by trial: each trial's level, item
/// counter and label-sorted entries — the order the wire codec writes,
/// with no table sized by the capacity, so a delta costs what it carries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SortedTrials<V> {
    /// Every trial's entries, trial after trial.
    pub(crate) entries: Vec<(u64, V)>,
    /// Per trial: level, items observed, and the end of its entries.
    pub(crate) trials: Vec<(u8, u64, usize)>,
}

impl<V: Payload> SortedTrials<V> {
    /// The whole state of `sketch`: the delta from its empty sketch.
    pub fn of(sketch: &GtSketch<V>) -> Self {
        let mut out = SortedTrials {
            entries: Vec::with_capacity(sketch.sample_entries()),
            trials: Vec::with_capacity(sketch.trials().len()),
        };
        for trial in sketch.trials() {
            out.push_sorting(trial.level(), trial.items_observed(), trial.sample_iter());
        }
        out
    }

    /// Each trial's level, items observed and label-sorted entries, in
    /// trial order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u64, &[(u64, V)])> + '_ {
        let mut start = 0;
        self.trials.iter().map(move |&(level, items, end)| {
            let entries = &self.entries[start..end];
            start = end;
            (level, items, entries)
        })
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.trials.len()
    }

    /// Total entries across trials.
    pub fn sample_entries(&self) -> usize {
        self.entries.len()
    }

    /// Empty it, keeping its storage, for the next state decoded into it.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.trials.clear();
    }

    /// Entries its storage holds without regrowing.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Append the next trial from unsorted `entries`, sorting them.
    pub(crate) fn push_sorting(
        &mut self,
        level: u8,
        items: u64,
        entries: impl Iterator<Item = (u64, V)>,
    ) {
        let start = self.entries.len();
        self.entries.extend(entries);
        self.entries[start..].sort_unstable_by_key(|&(label, _)| label);
        self.trials.push((level, items, self.entries.len()));
    }
}

/// The hash of one sample entry inside a [`StateKey`]: a bijection of the
/// label for a fixed payload, and of the payload's hashed words for a
/// fixed label, so a single changed label or payload always moves it.
fn entry_hash<V: Hash>(label: u64, payload: V) -> u64 {
    let mut h = WordFold(mix64(label));
    payload.hash(&mut h);
    mix64(h.0)
}

/// A [`Hasher`] that folds each written word into its state with
/// [`mix64`] (`()` writes nothing, `u64` and `LatestTs` one word).
struct WordFold(u64);

impl Hasher for WordFold {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The base key of delta frames: an order-independent fingerprint of a
/// sketch state that needs no sort and follows the state change by
/// change.
///
/// Per trial it keeps the wrapping sum over the sample of a hash of
/// each `(label, payload)` entry (a bijection of either half), a
/// multiset hash that [`SampleWatch`] updates with each admission,
/// payload change and eviction. [`StateKey::key`] chains
/// every trial's sum, item counter and level through [`mix64`], a
/// bijection at each step, so one changed level, counter, label or
/// payload always changes the key. A party and a referee holding the same
/// state compute the same key, however they reached it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateKey {
    /// Per trial: the wrapping sum of `entry_hash` over the sample.
    sums: Vec<u64>,
    /// The trial the watched changes belong to.
    trial: usize,
}

impl StateKey {
    /// The key state of `sketch`, from one pass over every sample.
    pub fn of<V: Payload + Hash>(sketch: &GtSketch<V>) -> Self {
        Self::of_samples(sketch.trials().iter().map(|t| t.sample_iter()))
    }

    /// The key state of a leveled view, from one pass over its entries:
    /// equal to [`StateKey::of`] of the sketch whose state it holds.
    pub fn of_view<V: Payload + Hash>(view: &LeveledTrials<V>) -> Self {
        Self::of_samples(
            view.iter()
                .map(|(_, _, entries, _)| entries.iter().copied()),
        )
    }

    fn of_samples<V: Hash>(samples: impl Iterator<Item = impl Iterator<Item = (u64, V)>>) -> Self {
        let sums = samples
            .map(|sample| {
                sample.fold(0u64, |sum, (label, payload)| {
                    sum.wrapping_add(entry_hash(label, payload))
                })
            })
            .collect();
        StateKey { sums, trial: 0 }
    }

    /// The key of `sketch`, whose samples this key state follows. O(r).
    pub fn key<V: Payload>(&self, sketch: &GtSketch<V>) -> u64 {
        self.chain(
            sketch
                .trials()
                .iter()
                .map(|t| (t.level(), t.items_observed())),
        )
    }

    /// The key of `view`, whose entries this key state follows: equal to
    /// [`StateKey::key`] of the sketch whose state it holds. O(r).
    pub fn view_key<V: Payload>(&self, view: &LeveledTrials<V>) -> u64 {
        self.chain(view.iter().map(|(level, items, _, _)| (level, items)))
    }

    /// Chain every trial's sum, item counter and level.
    fn chain(&self, trials: impl Iterator<Item = (u8, u64)>) -> u64 {
        trials
            .zip(&self.sums)
            .fold(0, |key, ((level, items), &sum)| {
                let key = mix64(key ^ sum);
                let key = mix64(key ^ items);
                mix64(key ^ u64::from(level))
            })
    }

    fn add(&mut self, label: u64, payload: impl Hash) {
        let sum = &mut self.sums[self.trial];
        *sum = sum.wrapping_add(entry_hash(label, payload));
    }

    fn sub(&mut self, label: u64, payload: impl Hash) {
        let sum = &mut self.sums[self.trial];
        *sum = sum.wrapping_sub(entry_hash(label, payload));
    }
}

impl<V: Payload + Hash + PartialEq> SampleWatch<V> for StateKey {
    fn trial(&mut self, t: usize) {
        self.trial = t;
    }

    fn admitted(&mut self, label: u64, payload: V) {
        self.add(label, payload);
    }

    fn merged(&mut self, label: u64, stored: V, merged: V) {
        if stored != merged {
            self.sub(label, stored);
            self.add(label, merged);
        }
    }

    fn evicted(&mut self, label: u64, payload: V) {
        self.sub(label, payload);
    }
}

/// An emitted, not yet acknowledged generation.
#[derive(Clone, Copy, Debug)]
struct Mark {
    generation: u64,
    /// The [`StateKey::key`] of the state emitted.
    key: u64,
    /// The journal length when it was emitted: the changes after it are
    /// the ones made since.
    at: usize,
}

/// The change journal behind a party's delta frames: what changed in its
/// sketch since the acknowledged base, kept instead of a copy of the base.
///
/// As the [`SampleWatch`] of the party's ingest, it records the
/// `(trial, label)` of every admission and payload change, and keeps the
/// live state's [`StateKey`] current. [`ChangeJournal::record`] marks each
/// emitted generation; [`ChangeJournal::acknowledge`] makes an emitted
/// generation the base and drops the changes before it;
/// [`ChangeJournal::delta`] reads the delta from the base to the live
/// state out of the changes since the base, in O(changes).
///
/// That delta equals [`delta_between`]`(base, live)`. Levels and item
/// counters are read from the live sketch. A label in the live sample
/// differs from the base iff it was admitted or its payload changed
/// since, because an evicted label never returns (levels only rise), and
/// a payload merge never returns a stored payload to an earlier value
/// (keep-first `u64`, max-merged `LatestTs`; `()` never changes).
///
/// Memory stays bounded without acks: at most `max_pending` unacked
/// generations are retained, and once the journal is twice the sample
/// size, [`ChangeJournal::record`] compacts it to the last occurrence of
/// each pair still in the sample.
#[derive(Clone, Debug)]
pub struct ChangeJournal {
    /// `(trial, label)` of every admission and payload change since the
    /// oldest retained generation, oldest first. A pair may repeat until
    /// compaction.
    changes: Vec<(u32, u64)>,
    /// The live state's key, kept current change by change.
    key: StateKey,
    /// The acknowledged base: generation and key. Its changes start at 0.
    base: Option<(u64, u64)>,
    /// Emitted, unacknowledged generations, oldest first.
    pending: VecDeque<Mark>,
    /// Most unacknowledged generations retained.
    max_pending: usize,
}

impl ChangeJournal {
    /// A journal for `sketch` from its current state on, retaining at most
    /// `max_pending` unacknowledged generations (at least one).
    pub fn new<V: Payload + Hash>(sketch: &GtSketch<V>, max_pending: usize) -> Self {
        ChangeJournal {
            changes: Vec::new(),
            key: StateKey::of(sketch),
            base: None,
            pending: VecDeque::new(),
            max_pending: max_pending.max(1),
        }
    }

    /// The acknowledged base generation, if any.
    pub fn base_generation(&self) -> Option<u64> {
        self.base.map(|(generation, _)| generation)
    }

    /// The generations a delta can still be coded against after an ack:
    /// the base, then the pending ones oldest first.
    pub fn retained_generations(&self) -> impl Iterator<Item = u64> + '_ {
        let pending = self.pending.iter().map(|m| m.generation);
        self.base_generation().into_iter().chain(pending)
    }

    /// The delta from the acknowledged base to `sketch`, the live state
    /// this journal watched: `(base generation, base key, delta)`, or
    /// `None` without a base.
    pub fn delta<V: Payload>(&self, sketch: &GtSketch<V>) -> Option<(u64, u64, SortedTrials<V>)> {
        let (generation, key) = self.base?;
        let mut changed = self.changes.clone();
        changed.sort_unstable();
        changed.dedup();
        let mut delta = SortedTrials {
            entries: Vec::with_capacity(changed.len()),
            trials: Vec::with_capacity(sketch.trials().len()),
        };
        let mut changed = changed.into_iter().peekable();
        for (t, trial) in sketch.trials().iter().enumerate() {
            while let Some((_, label)) = changed.next_if(|&(ct, _)| ct as usize == t) {
                if let Some(payload) = trial.get(label) {
                    delta.entries.push((label, payload));
                }
            }
            delta
                .trials
                .push((trial.level(), trial.items_observed(), delta.entries.len()));
        }
        Some((generation, key, delta))
    }

    /// Mark `generation` as emitted at the current state of `sketch`. The
    /// oldest pending generation beyond `max_pending` is forgotten (a
    /// late ack for it is ignored).
    pub fn record<V: Payload>(&mut self, generation: u64, sketch: &GtSketch<V>) {
        if self.pending.len() == self.max_pending {
            self.pending.pop_front();
        }
        let key = self.key.key(sketch);
        let at = self.changes.len();
        self.pending.push_back(Mark {
            generation,
            key,
            at,
        });
        if self.base.is_none() {
            // Nothing older than the oldest pending generation can
            // become a base.
            self.drop_before(self.pending[0].at);
        }
        if self.changes.len() > 2 * sketch.sample_entries().max(64) {
            self.compact(sketch);
        }
    }

    /// The referee acknowledged `generation`: if it is pending, it becomes
    /// the base, and it and everything older leave the journal. A stale
    /// or unknown generation is ignored.
    pub fn acknowledge(&mut self, generation: u64) {
        if self.base.is_some_and(|(base, _)| base >= generation) {
            return;
        }
        let Some(i) = self.pending.iter().position(|m| m.generation == generation) else {
            return;
        };
        let mark = self.pending[i];
        self.pending.drain(..=i);
        self.base = Some((generation, mark.key));
        self.drop_before(mark.at);
    }

    /// Forget the base and every pending generation (a resync): the
    /// next emission has nothing to code a delta against.
    pub fn reset(&mut self) {
        self.base = None;
        self.pending.clear();
        self.drop_before(self.changes.len());
    }

    /// Heap bytes the journal holds.
    pub fn heap_bytes(&self) -> usize {
        self.changes.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.pending.capacity() * std::mem::size_of::<Mark>()
            + self.key.sums.capacity() * std::mem::size_of::<u64>()
    }

    /// Drop the changes before position `at`. An emptied journal gives
    /// its storage back: what a burst of changes grew is not held once
    /// they are behind the base.
    fn drop_before(&mut self, at: usize) {
        self.changes.drain(..at);
        if self.changes.is_empty() {
            self.changes = Vec::new();
        }
        for mark in &mut self.pending {
            mark.at -= at;
        }
    }

    /// Keep only the last occurrence of each `(trial, label)` pair, and
    /// only pairs still in `sketch`'s sample: every delta reads the same
    /// entries as before, from at most one change per sampled entry.
    fn compact<V: Payload>(&mut self, sketch: &GtSketch<V>) {
        let trials = sketch.trials();
        let mut seen = HashSet::with_capacity(self.changes.len());
        let mut keep = vec![false; self.changes.len()];
        for (i, &(t, label)) in self.changes.iter().enumerate().rev() {
            keep[i] = seen.insert((t, label)) && trials[t as usize].contains_label(label);
        }
        // A mark moves to the count of kept changes before it.
        let mut kept_before = Vec::with_capacity(keep.len() + 1);
        kept_before.push(0);
        for &k in &keep {
            kept_before.push(kept_before.last().copied().unwrap_or(0) + usize::from(k));
        }
        for mark in &mut self.pending {
            mark.at = kept_before[mark.at];
        }
        let mut keep = keep.into_iter();
        self.changes.retain(|_| keep.next().unwrap_or(false));
    }
}

impl<V: Payload + Hash + PartialEq> SampleWatch<V> for ChangeJournal {
    fn trial(&mut self, t: usize) {
        self.key.trial = t;
    }

    fn admitted(&mut self, label: u64, payload: V) {
        self.changes.push((self.key.trial as u32, label));
        self.key.add(label, payload);
    }

    fn merged(&mut self, label: u64, stored: V, merged: V) {
        if stored != merged {
            self.changes.push((self.key.trial as u32, label));
            self.key.sub(label, stored);
            self.key.add(label, merged);
        }
    }

    fn evicted(&mut self, label: u64, payload: V) {
        self.key.sub(label, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{apply_delta, apply_delta_watched};
    use super::*;
    use crate::params::SketchConfig;
    use crate::recency::LatestTs;
    use crate::DistinctSketch;

    fn cfg() -> SketchConfig {
        SketchConfig::from_shape(0.2, 0.2, 64, 5, gt_hash::HashFamilyKind::Pairwise).unwrap()
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
        assert_eq!(SortedTrials::of(&rebuilt), SortedTrials::of(&s));
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
        assert_eq!(SortedTrials::of(&rebuilt), SortedTrials::of(&s));
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
        assert_eq!(SortedTrials::of(&rebuilt), SortedTrials::of(&s));
    }

    #[test]
    fn payload_changes_travel_in_the_delta() {
        let config = cfg();
        let mut s = GtSketch::<LatestTs>::new(&config, 5);
        for t in 0..200u64 {
            s.insert_with(gt_hash::fold61(t), LatestTs(t));
        }
        let base = s.clone();
        // Re-arrivals refresh timestamps without adding labels.
        for t in 0..50u64 {
            s.insert_with(gt_hash::fold61(t), LatestTs(1_000 + t));
        }
        let delta = delta_between(&base, &s).unwrap();
        assert!(delta.sample_entries() > 0, "ts refreshes must be carried");
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        assert_eq!(SortedTrials::of(&rebuilt), SortedTrials::of(&s));
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
        assert_eq!(SortedTrials::of(&rebuilt), SortedTrials::of(&s));
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
        // A delta carries no seed; one shaped for another config is refused.
        let mut a2 = a.clone();
        let other =
            SketchConfig::from_shape(0.2, 0.2, 64, 3, gt_hash::HashFamilyKind::Pairwise).unwrap();
        let b = DistinctSketch::new(&other, 1);
        assert!(matches!(
            apply_delta(&mut a2, &SortedTrials::of(&b)),
            Err(SketchError::ConfigMismatch { .. })
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
        live.merge_refresh_from(&SortedTrials::of(&snap2), &old_items)
            .unwrap();

        let mut fresh = DistinctSketch::new(&config, 23);
        fresh.merge_from(&snap2).unwrap();
        assert_eq!(SortedTrials::of(&live), SortedTrials::of(&fresh));

        // Refreshing with only the delta lands on the same union.
        let mut by_delta = DistinctSketch::new(&config, 23);
        by_delta.merge_from(&snap1).unwrap();
        let delta = delta_between(&snap1, &snap2).unwrap();
        by_delta.merge_refresh_from(&delta, &old_items).unwrap();
        assert_eq!(SortedTrials::of(&by_delta), SortedTrials::of(&fresh));
    }

    #[test]
    fn a_failed_apply_leaves_the_base_untouched() {
        let config = cfg();
        let mut base = DistinctSketch::new(&config, 31);
        base.extend_labels((0..60u64).map(gt_hash::fold61));
        let before = SortedTrials::of(&base);
        // An unrelated full sample at level 0 overflows the base.
        let mut stranger = DistinctSketch::new(&config, 31);
        stranger.extend_labels((1_000..1_060u64).map(gt_hash::fold61));
        assert!(matches!(
            apply_delta(&mut base, &SortedTrials::of(&stranger)),
            Err(SketchError::InvalidConfig { .. })
        ));
        assert_eq!(SortedTrials::of(&base), before);
        // Trial 0 would apply cleanly; a later trial is staler than the
        // base. Nothing may change, trial 0 included.
        base.extend_labels((0..5_000u64).map(gt_hash::fold61));
        let before = SortedTrials::of(&base);
        let mut stale = base.clone();
        let t = &base.trials()[4];
        stale
            .reload_trial(4, 0, t.items_observed(), std::iter::empty())
            .unwrap();
        stale
            .reload_trial(0, base.trials()[0].level(), 99, std::iter::empty())
            .unwrap();
        assert!(base.trials()[4].level() > 0, "need a raised trial");
        assert!(matches!(
            apply_delta(&mut base, &SortedTrials::of(&stale)),
            Err(SketchError::ConfigMismatch { .. })
        ));
        assert_eq!(SortedTrials::of(&base), before);
    }

    fn key_of<V: Payload + Hash>(s: &GtSketch<V>) -> u64 {
        StateKey::of(s).key(s)
    }

    #[test]
    fn state_key_is_equal_for_equal_states() {
        let config = cfg();
        let labels: Vec<u64> = (0..3_000u64).map(gt_hash::fold61).collect();
        let mut forward = DistinctSketch::new(&config, 41);
        forward.extend_labels(labels.iter().copied());
        let mut backward = DistinctSketch::new(&config, 41);
        backward.extend_labels(labels.iter().rev().copied());
        assert_eq!(SortedTrials::of(&forward), SortedTrials::of(&backward));
        assert_eq!(key_of(&forward), key_of(&backward));

        // Union of two halves, as a referee holds it.
        let (a, b) = labels.split_at(1_700);
        let mut halves = DistinctSketch::new(&config, 41);
        halves.extend_labels(a.iter().copied());
        let mut other = DistinctSketch::new(&config, 41);
        other.extend_labels(b.iter().copied());
        halves.merge_from(&other).unwrap();
        assert_eq!(SortedTrials::of(&halves), SortedTrials::of(&forward));
        assert_eq!(key_of(&halves), key_of(&forward));

        // A delta applied in place, with the key followed change by change.
        let mut base = DistinctSketch::new(&config, 41);
        base.extend_labels(a.iter().copied());
        let delta = delta_between(&base, &forward).unwrap();
        let mut key = StateKey::of(&base);
        apply_delta_watched(&mut base, &delta, &mut key).unwrap();
        assert_eq!(key.key(&base), key_of(&forward));

        // The key an ingest watch keeps equals a fresh pass, payloads too.
        let mut recency = GtSketch::<LatestTs>::new(&config, 41);
        let mut watched = StateKey::of(&recency);
        for (i, &label) in labels.iter().chain(&labels[..500]).enumerate() {
            recency.insert_watched(label, LatestTs(i as u64), &mut watched);
        }
        assert_eq!(watched.key(&recency), key_of(&recency));
    }

    #[test]
    fn state_key_moves_under_every_single_change() {
        let config =
            SketchConfig::from_shape(0.3, 0.3, 6, 3, gt_hash::HashFamilyKind::Pairwise).unwrap();
        let mut s = GtSketch::<u64>::new(&config, 43);
        // Labels at hash level >= 2 in every trial, so level 1 and 2 both
        // hold the same sample.
        let deep: Vec<u64> = (0..)
            .map(gt_hash::fold61)
            .filter(|&l| s.trials().iter().all(|t| t.hasher().level(l) >= 2))
            .take(8)
            .collect();
        for t in 0..3 {
            let entries = deep[..4].iter().map(|&l| (l, l % 5));
            s.reload_trial(t, 1, 10 + t as u64, entries).unwrap();
        }
        let base = key_of(&s);
        let mut keys = vec![base];
        let trial = |s: &GtSketch<u64>, t: usize| -> (u8, u64, Vec<(u64, u64)>) {
            let tr = &s.trials()[t];
            (tr.level(), tr.items_observed(), tr.sample_iter().collect())
        };
        for t in 0..3 {
            let (level, items, entries) = trial(&s, t);
            let mut changed = Vec::new();
            changed.push((level + 1, items, entries.clone()));
            changed.push((level, items + 1, entries.clone()));
            for i in 0..entries.len() {
                let mut relabeled = entries.clone();
                relabeled[i].0 = deep[4 + i];
                changed.push((level, items, relabeled));
                let mut repaid = entries.clone();
                repaid[i].1 += 1;
                changed.push((level, items, repaid));
            }
            for (level, items, entries) in changed {
                let mut c = s.clone();
                c.reload_trial(t, level, items, entries).unwrap();
                keys.push(key_of(&c));
            }
        }
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "two states share a key");
        assert_eq!(key_of(&s), base);
    }

    /// Drive a journaled sketch through `rounds` of ingest and emissions
    /// under a seeded ack schedule (lost, late, stale and out-of-window
    /// acks, and resyncs), checking every journal delta against
    /// [`delta_between`] of the retained snapshot.
    fn journal_matches_delta_between<V: Payload + Hash + PartialEq + Ord + std::fmt::Debug>(
        payload: impl Fn(u64, u64) -> V,
        rounds: u64,
        seed: u64,
    ) -> usize {
        let config = cfg();
        let mut live = GtSketch::<V>::new(&config, 47);
        let mut journal = ChangeJournal::new(&live, 4);
        let mut snapshots: Vec<(u64, GtSketch<V>)> = Vec::new();
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            gt_hash::mix64(rng)
        };
        let mut checked = 0;
        for generation in 1..=rounds {
            let items: Vec<(u64, V)> = (0..next() % 90)
                .map(|i| {
                    let label = gt_hash::fold61(next() % (200 * generation + 50));
                    (label, payload(label, generation * 100 + i))
                })
                .collect();
            if generation % 2 == 0 {
                live.insert_batch_watched(&items, &mut journal);
            } else {
                for &(label, v) in &items {
                    live.insert_watched(label, v, &mut journal);
                }
            }
            if let Some((base_gen, base_key, delta)) = journal.delta(&live) {
                let base = &snapshots.iter().find(|(g, _)| *g == base_gen).unwrap().1;
                let oracle = delta_between(base, &live).unwrap();
                assert_eq!(delta, oracle, "generation {generation}");
                assert_eq!(base_key, key_of(base));
                checked += 1;
            }
            journal.record(generation, &live);
            snapshots.push((generation, live.clone()));
            let retained: Vec<u64> = journal.retained_generations().collect();
            snapshots.retain(|(g, _)| retained.contains(g));
            match next() % 8 {
                0..=2 => journal.acknowledge(generation),
                3 => journal.acknowledge(generation.saturating_sub(next() % 8)),
                4 => journal.reset(),
                _ => {} // lost
            }
        }
        checked
    }

    #[test]
    fn journal_deltas_equal_delta_between() {
        for seed in 0..6 {
            let a = journal_matches_delta_between(|_, _| (), 120, seed);
            let b = journal_matches_delta_between(|l, _| l % 97, 120, seed);
            let c = journal_matches_delta_between(|_, t| LatestTs(t), 120, seed);
            assert!(a > 40 && b > 40 && c > 40, "{a} {b} {c}");
        }
    }

    #[test]
    fn journal_compacts_to_the_sample_when_acks_stop() {
        let config = cfg();
        let mut live = GtSketch::<LatestTs>::new(&config, 53);
        let mut journal = ChangeJournal::new(&live, 32);
        journal.record(1, &live);
        journal.acknowledge(1);
        let base = live.clone();
        let mut peak = 0;
        for generation in 2..400u64 {
            for i in 0..40 {
                let label = gt_hash::fold61(generation * 40 + i);
                live.insert_watched(label, LatestTs(generation), &mut journal);
                // Re-arrivals of early labels change payloads, not the sample.
                let old = gt_hash::fold61(i * 7);
                live.insert_watched(old, LatestTs(generation), &mut journal);
            }
            let (_, _, delta) = journal.delta(&live).unwrap();
            assert_eq!(delta, delta_between(&base, &live).unwrap());
            journal.record(generation, &live);
            peak = peak.max(journal.changes.len());
        }
        // Every pair left is distinct and sampled, so a compaction leaves
        // at most one sample's worth; growth until the next is bounded.
        let sample_bound = config.trials() * config.capacity();
        assert!(
            peak <= 2 * sample_bound + 2 * 40 * config.trials(),
            "{peak}"
        );
    }
}

/// The delta apply on a [`GtSketch`]: the reference that
/// [`LeveledTrials::apply_delta_watched`] is tested against. Nothing
/// outside tests applies a delta to a sketch.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Apply a delta onto `base` in place, with the checks, errors and
    /// result of [`LeveledTrials::apply_delta_watched`]: per trial, raise
    /// the base to the delta's level, offer the delta entries under the
    /// arrival rule, and adopt the delta's item counter. On `Err`, `base`
    /// is untouched.
    pub(crate) fn apply_delta<V: Payload>(
        base: &mut GtSketch<V>,
        delta: &SortedTrials<V>,
    ) -> Result<()> {
        apply_delta_watched(base, delta, &mut ())
    }

    /// [`apply_delta`], reporting the base's sample changes to `watch`.
    pub(crate) fn apply_delta_watched<V: Payload>(
        base: &mut GtSketch<V>,
        delta: &SortedTrials<V>,
        watch: &mut impl SampleWatch<V>,
    ) -> Result<()> {
        check_delta(base, delta)?;
        for (t, (b, (level, items, entries))) in
            base.trials_mut().iter_mut().zip(delta.iter()).enumerate()
        {
            watch.trial(t);
            b.apply_delta(level, items, entries, watch);
        }
        Ok(())
    }

    /// Everything that can make [`apply_delta`] fail, checked before any
    /// trial changes: the trial count, then per trial in order a level
    /// regression or a capacity overflow.
    fn check_delta<V: Payload>(base: &GtSketch<V>, delta: &SortedTrials<V>) -> Result<()> {
        check_trial_count(delta.trials(), base.trials().len())?;
        let capacity = base.config().capacity();
        for (b, (level, _, entries)) in base.trials().iter().zip(delta.iter()) {
            check_trial_fit(
                b.level(),
                b.sample_len(),
                level,
                entries,
                capacity,
                || {
                    b.sample_iter()
                        .filter(|&(label, _)| b.hasher().level(label) >= level)
                        .count()
                },
                |label| b.contains_label(label),
            )?;
        }
        Ok(())
    }
}
