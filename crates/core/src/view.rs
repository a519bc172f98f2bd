//! The retained form of a coordinated summary: per trial the level, the
//! item counter and the label-sorted sample, with each entry's hash level
//! beside it, sized to what it holds.
//!
//! A [`GtSketch`] keeps each trial in a hash table of
//! `next_pow2(1.5c + 1)` slots, which ingest needs and a retained summary
//! does not. A referee reads only each party's coordinated sample
//! `(l, S)` per trial: it unions variants into it, applies the party's
//! deltas, keys it and evaluates expressions over it. So it keeps a
//! [`LeveledTrials`]: one exactly-sized entry array per party (every
//! trial's entries, trial after trial) and a byte array of their hash
//! levels, 9 bytes per label-only entry. This is the retained summary of
//! the Theta framework of Dasgupta et al. ("A Framework for Estimating
//! Stream Expression Cardinalities"): a sorted set under a threshold
//! (θ = 2^-level), and one level byte per entry, so that any higher
//! threshold is a byte comparison.
//!
//! Each level is computed once, when its entry enters a view: the decode
//! check ([`LeveledTrials::push_checked`]) already hashes every label of
//! a trial above level 0, a level-0 trial is hashed with the lane kernel,
//! and [`LeveledTrials::of`] hashes a sketch's samples. Everything after
//! that (a union, a delta, a raise, a key, a query) merges sorted runs
//! and compares level bytes, with the exact result of the [`GtSketch`]
//! operation it stands for: [`LeveledTrials::union_from`] is
//! [`GtSketch::merge_from`], and [`LeveledTrials::apply_delta_watched`]
//! is the delta apply on the sketch this view holds, errors and watched
//! changes included.

use gt_hash::{level_of_hash, HashFamily, MAX_LEVEL};

use crate::delta::{check_trial_count, check_trial_fit, SortedTrials};
use crate::error::{Result, SketchError};
use crate::sketch::GtSketch;
use crate::trial::{check_transmitted, CoordinatedTrial, Payload, SampleWatch, KERNEL_CHUNK};

/// One trial's label-sorted entries and their hash levels.
type Run<'a, V> = (&'a [(u64, V)], &'a [u8]);

/// A coordinated summary as per-trial levels, item counters and
/// label-sorted entries, each entry with its hash level (see the module
/// docs). A referee keeps one per heard party, and the codec decodes
/// every body it receives into one ([`LeveledTrials::push_checked`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LeveledTrials<V> {
    /// Per trial: level, items observed and label-sorted entries.
    sorted: SortedTrials<V>,
    /// The hash level of each entry of `sorted`, at the same index.
    levels: Vec<u8>,
}

impl<V: Payload> LeveledTrials<V> {
    /// The state of `sketch`, each sampled label hashed once.
    pub fn of(sketch: &GtSketch<V>) -> Self {
        let mut view = Self::with_capacity(sketch.trials().len(), sketch.sample_entries());
        for trial in sketch.trials() {
            let from = view.levels.len();
            let (level, items) = (trial.level(), trial.items_observed());
            view.sorted.push_sorting(level, items, trial.sample_iter());
            view.hash_levels(trial.hasher(), from);
        }
        view
    }

    /// The entries without their levels: what a union sketch absorbs.
    pub fn sorted(&self) -> &SortedTrials<V> {
        &self.sorted
    }

    /// Each trial's level, items observed, label-sorted entries and their
    /// hash levels, in trial order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u64, &[(u64, V)], &[u8])> + '_ {
        let mut start = 0;
        self.sorted.trials.iter().map(move |&(level, items, end)| {
            let at = start..end;
            start = end;
            (
                level,
                items,
                &self.sorted.entries[at.clone()],
                &self.levels[at],
            )
        })
    }

    /// Trial `t`'s level and its run of entries with their levels.
    pub(crate) fn trial(&self, t: usize) -> (u8, Run<'_, V>) {
        let (level, _, end) = self.sorted.trials[t];
        let start = t.checked_sub(1).map_or(0, |p| self.sorted.trials[p].2);
        let run = (&self.sorted.entries[start..end], &self.levels[start..end]);
        (level, run)
    }

    /// Bytes of heap storage held: its three arrays at their capacities.
    pub fn heap_bytes(&self) -> usize {
        self.sorted.entries.capacity() * std::mem::size_of::<(u64, V)>()
            + self.levels.capacity()
            + self.sorted.trials.capacity() * std::mem::size_of::<(u8, u64, usize)>()
    }

    /// Union `other` into this summary, trial by trial, exactly as
    /// [`GtSketch::merge_from`] unions two coordinated sketches: the level
    /// is the least one at or above both with at most `capacity` entries
    /// at or above it, a label in both keeps `stored.merge(incoming)`, and
    /// the item counters add.
    ///
    /// # Errors
    /// [`SketchError::ConfigMismatch`] if the trial counts differ; nothing
    /// changes then.
    pub fn union_from(&mut self, other: &LeveledTrials<V>, capacity: usize) -> Result<()> {
        if other.sorted.trials() != self.sorted.trials() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "union of {} trials with {}",
                    other.sorted.trials(),
                    self.sorted.trials()
                ),
            });
        }
        let entries = self.sorted.sample_entries() + other.sorted.sample_entries();
        let mut out = Self::with_capacity(self.sorted.trials(), entries);
        for ((base_level, items, base, base_levels), (level, other_items, new, new_levels)) in
            self.iter().zip(other.iter())
        {
            let floor = base_level.max(level);
            let start = out.levels.len();
            let (base, new) = ((base, base_levels), (new, new_levels));
            out.merge_runs(base_level, base, new, floor, &mut ());
            let level = out.promote_to_fit(start, floor, capacity);
            out.sorted
                .trials
                .push((level, items + other_items, out.levels.len()));
        }
        out.shrink_to_fit();
        *self = out;
        Ok(())
    }

    /// Apply a delta in place, leaving the state it was extracted from
    /// (see [`crate::delta`]), also on any later base of its timeline, as
    /// after a lost ack. The whole delta is checked first: a different
    /// trial count or a trial staler than this summary is
    /// [`SketchError::ConfigMismatch`], entries that would overflow
    /// `capacity` are [`SketchError::InvalidConfig`], and on `Err` nothing
    /// changes. Then per trial: a raise to the delta's level (a byte
    /// comparison per entry), the delta's entries offered under the
    /// arrival rule, and its item counter adopted. Every sample change is
    /// reported to `watch`.
    pub fn apply_delta_watched(
        &mut self,
        delta: &LeveledTrials<V>,
        capacity: usize,
        watch: &mut impl SampleWatch<V>,
    ) -> Result<()> {
        check_trial_count(delta.sorted.trials(), self.sorted.trials())?;
        for ((base_level, _, base, base_levels), (level, _, entries, _)) in
            self.iter().zip(delta.iter())
        {
            check_trial_fit(
                base_level,
                base.len(),
                level,
                entries,
                capacity,
                || base_levels.iter().filter(|&&l| l >= level).count(),
                |label| base.binary_search_by_key(&label, |&(l, _)| l).is_ok(),
            )?;
        }
        let entries = self.sorted.sample_entries() + delta.sorted.sample_entries();
        let mut out = Self::with_capacity(self.sorted.trials(), entries);
        let trials = self.iter().zip(delta.iter()).enumerate();
        for (t, ((base_level, _, base, base_levels), (level, items, new, new_levels))) in trials {
            watch.trial(t);
            let (base, new) = ((base, base_levels), (new, new_levels));
            out.merge_runs(base_level, base, new, level, watch);
            out.sorted.trials.push((level, items, out.levels.len()));
        }
        out.shrink_to_fit();
        *self = out;
        Ok(())
    }

    /// Empty it, keeping its storage, and make room for `entries` entries,
    /// so a body of known bound is read without regrowing.
    pub fn start(&mut self, entries: usize) {
        self.sorted.clear();
        self.sorted.entries.reserve_exact(entries);
        self.levels.clear();
        self.levels.reserve_exact(entries);
    }

    /// Append the next trial from transmitted state — `level`, `items`
    /// and label-sorted `entries` — once it passes the checks
    /// [`CoordinatedTrial::reload`] runs, against `trial`, the receiving
    /// sketch's trial of the same index: the level, then each label's
    /// range, qualification and uniqueness; entries out of label order
    /// are refused too. (A delta's fit is
    /// [`LeveledTrials::apply_delta_watched`]'s to check.) On `Err`
    /// nothing is appended.
    pub fn push_checked(
        &mut self,
        trial: &CoordinatedTrial<V>,
        level: u8,
        items: u64,
        entries: &[(u64, V)],
    ) -> Result<()> {
        let from = self.levels.len();
        // A repeat follows its first occurrence in a sorted list. Above
        // level 0 the check hashes every label; keep what it found.
        let (hasher, mut prev) = (trial.hasher(), None);
        let checked = check_transmitted(hasher, level, entries.iter().copied(), |label, _, lvl| {
            if prev.is_some_and(|p| p > label) {
                return Err(SketchError::InvalidConfig {
                    parameter: "sample",
                    reason: format!("label {label} out of label order"),
                });
            }
            if level > 0 {
                self.levels.push(lvl);
            }
            Ok(prev.replace(label) != Some(label))
        });
        if let Err(e) = checked {
            self.levels.truncate(from);
            return Err(e);
        }
        self.sorted.entries.extend_from_slice(entries);
        let end = self.sorted.entries.len();
        self.sorted.trials.push((level, items, end));
        if level == 0 {
            self.hash_levels(hasher, from);
        }
        Ok(())
    }

    /// An empty view with room for `trials` trials of `entries` entries.
    fn with_capacity(trials: usize, entries: usize) -> Self {
        LeveledTrials {
            sorted: SortedTrials {
                entries: Vec::with_capacity(entries),
                trials: Vec::with_capacity(trials),
            },
            levels: Vec::with_capacity(entries),
        }
    }

    /// Give back the room a built view did not use.
    fn shrink_to_fit(&mut self) {
        self.sorted.entries.shrink_to_fit();
        self.levels.shrink_to_fit();
    }

    /// Append the levels of the entries from index `from` on, hashed with
    /// `hasher`'s lane kernel a chunk at a time.
    fn hash_levels(&mut self, hasher: &HashFamily, from: usize) {
        let mut labels = [0u64; KERNEL_CHUNK];
        let mut hashes = [0u64; KERNEL_CHUNK];
        for chunk in self.sorted.entries[from..].chunks(KERNEL_CHUNK) {
            let n = chunk.len();
            for (slot, &(label, _)) in labels.iter_mut().zip(chunk) {
                *slot = label;
            }
            hasher.hash_slice_into(&labels[..n], &mut hashes[..n]);
            self.levels
                .extend(hashes[..n].iter().map(|&h| level_of_hash(h)));
        }
    }

    /// Append the merge of one trial's runs, keeping what qualifies at
    /// `floor`: a `base` entry below it is evicted, a `new` one below it
    /// is not offered, a label in both keeps `stored.merge(incoming)`, and
    /// one only in `new` is admitted, each change reported to `watch`.
    /// `base` sits at `base_level`, so below `floor` only if it is lower.
    fn merge_runs(
        &mut self,
        base_level: u8,
        (base, base_levels): Run<'_, V>,
        (new, new_levels): Run<'_, V>,
        floor: u8,
        watch: &mut impl SampleWatch<V>,
    ) {
        let raised = floor > base_level;
        let mut i = 0;
        for (&(label, incoming), &lvl) in new.iter().zip(new_levels) {
            if lvl < floor {
                continue;
            }
            let n = entries_below(&base[i..], label);
            self.keep(
                raised,
                (&base[i..i + n], &base_levels[i..i + n]),
                floor,
                watch,
            );
            i += n;
            match base.get(i) {
                // A label has one hash level, so the stored entry
                // qualifies too.
                Some(&(l, stored)) if l == label => {
                    let merged = stored.merge(incoming);
                    watch.merged(label, stored, merged);
                    self.push(label, merged, lvl);
                    i += 1;
                }
                _ => {
                    watch.admitted(label, incoming);
                    self.push(label, incoming, lvl);
                }
            }
        }
        self.keep(raised, (&base[i..], &base_levels[i..]), floor, watch);
    }

    /// Append the entries of `run` at or above `floor`, reporting the rest
    /// as evicted; unless `raised`, all of them are.
    fn keep(
        &mut self,
        raised: bool,
        (run, levels): Run<'_, V>,
        floor: u8,
        watch: &mut impl SampleWatch<V>,
    ) {
        if !raised {
            self.sorted.entries.extend_from_slice(run);
            self.levels.extend_from_slice(levels);
            return;
        }
        for (&(label, payload), &lvl) in run.iter().zip(levels) {
            if lvl >= floor {
                self.push(label, payload, lvl);
            } else {
                watch.evicted(label, payload);
            }
        }
    }

    fn push(&mut self, label: u64, payload: V, lvl: u8) {
        self.sorted.entries.push((label, payload));
        self.levels.push(lvl);
    }

    /// The level an overflowing union promotes the run from index `start`
    /// on to: the least one at or above `floor` with at most `capacity`
    /// entries at or above it. The entries below it leave the run.
    fn promote_to_fit(&mut self, start: usize, floor: u8, capacity: usize) -> u8 {
        let mut kept = self.levels.len() - start;
        if kept <= capacity {
            return floor;
        }
        let mut at_level = [0usize; MAX_LEVEL as usize + 1];
        for &lvl in &self.levels[start..] {
            at_level[usize::from(lvl)] += 1;
        }
        let mut level = floor;
        while kept > capacity {
            kept -= at_level[usize::from(level)];
            level += 1;
            assert!(
                level <= MAX_LEVEL,
                "level overflow: >{capacity} labels share {MAX_LEVEL} trailing zero bits — \
                 astronomically unlikely under a sound hash; check the hash family"
            );
        }
        let mut w = start;
        for r in start..self.levels.len() {
            if self.levels[r] >= level {
                self.levels[w] = self.levels[r];
                self.sorted.entries[w] = self.sorted.entries[r];
                w += 1;
            }
        }
        self.levels.truncate(w);
        self.sorted.entries.truncate(w);
        level
    }
}

/// How many entries of the label-sorted `run` lie below `label`, by a
/// galloping search: O(log n) for an answer n, so a merge costs O(1) per
/// step where two runs are dense in each other, and O(log gap) where one
/// run (a delta) is sparse in the other.
fn entries_below<V>(run: &[(u64, V)], label: u64) -> usize {
    let mut end = 1;
    while end <= run.len() && run[end - 1].0 < label {
        end *= 2;
    }
    // Every entry before `end / 2` is below `label`.
    let start = end / 2;
    let end = end.min(run.len());
    start + run[start..end].partition_point(|&(l, _)| l < label)
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;
    use std::hash::Hash;

    use proptest::prelude::*;

    use super::*;
    use crate::delta::reference::{apply_delta, apply_delta_watched};
    use crate::{delta_between, LatestTs, SketchConfig, StateKey};

    /// SplitMix64: `mix64` adds the increment this steps `state` by.
    fn splitmix(state: &mut u64) -> u64 {
        let z = gt_hash::mix64(*state);
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// A body as the referee decodes it: `body` checked against `like`'s
    /// trials into a leveled view.
    fn leveled<V: Payload>(like: &GtSketch<V>, body: &SortedTrials<V>) -> LeveledTrials<V> {
        let mut view = LeveledTrials::default();
        view.start(body.sample_entries());
        for (trial, (level, items, entries)) in like.trials().iter().zip(body.iter()) {
            view.push_checked(trial, level, items, entries)
                .expect("a body of coordinated state checks");
        }
        view
    }

    /// One party's summary both ways — the sketch a referee used to keep and
    /// the leveled view it keeps — each with its key followed as it changes.
    struct Summaries<V> {
        sketch: GtSketch<V>,
        sketch_key: StateKey,
        view: LeveledTrials<V>,
        view_key: StateKey,
    }

    /// What a schedule exercised: first messages, variants, applied and
    /// rejected delta frames, full frames, and resyncs.
    #[derive(Debug, Default)]
    struct Coverage {
        firsts: u32,
        variants: u32,
        deltas: u32,
        rejected: u32,
        fulls: u32,
        resyncs: u32,
    }

    /// Drive a view summary and a sketch summary through one seeded schedule
    /// over three parties' states: first messages and variants (the union),
    /// delta frames coded against any retained snapshot of any party (so
    /// some apply and some are refused), full frames, and resyncs (an orphan
    /// delta, refused before the summary, then the party's full frame).
    /// After every step both hold the same state, canonical bytes and key.
    fn views_track_sketches<V>(payload: impl Fn(u64) -> V, seed: u64, steps: u32) -> Coverage
    where
        V: Payload + Hash + PartialEq + Debug,
    {
        // Small capacities + trials so level promotions (and therefore
        // level-raise notices inside delta frames) happen on small inputs.
        let config =
            SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_hash::HashFamilyKind::Pairwise).unwrap();
        let capacity = config.capacity();
        let like = GtSketch::<V>::new(&config, 0xD1_7A);
        let mut live: Vec<GtSketch<V>> = vec![like.clone(); 3];
        let mut snapshots: Vec<Vec<GtSketch<V>>> = vec![vec![like.clone()]; 3];
        let mut summary: Option<Summaries<V>> = None;
        let mut covered = Coverage::default();
        let mut rng = seed;
        for step in 0..u64::from(steps) {
            let p = (splitmix(&mut rng) % 3) as usize;
            let op = splitmix(&mut rng) % 8;
            if op < 3 {
                // The party observes; labels overlap across parties and
                // repeat, so payloads merge and levels rise.
                for _ in 0..splitmix(&mut rng) % 40 {
                    let label = gt_hash::fold61(splitmix(&mut rng) % (40 * step + 60));
                    live[p].insert_with(label, payload(step));
                }
                snapshots[p].push(live[p].clone());
                if snapshots[p].len() > 6 {
                    snapshots[p].remove(0);
                }
                continue;
            }
            let state = SortedTrials::of(&live[p]);
            match (op, summary.as_mut()) {
                // A sketch message: the first one is copied, later ones union
                // in, as `receive` does.
                (3 | 4, None) => {
                    let mut sketch = like.clone();
                    apply_delta(&mut sketch, &state).unwrap();
                    let view = leveled(&like, &state).clone();
                    summary = Some(Summaries {
                        sketch_key: StateKey::of(&sketch),
                        view_key: StateKey::of_view(&view),
                        sketch,
                        view,
                    });
                    covered.firsts += 1;
                }
                (3 | 4, Some(s)) => {
                    let nothing_to_debit = vec![0; config.trials()];
                    s.sketch
                        .merge_refresh_from(&state, &nothing_to_debit)
                        .unwrap();
                    s.view
                        .union_from(&leveled(&like, &state), capacity)
                        .unwrap();
                    s.sketch_key = StateKey::of(&s.sketch);
                    s.view_key = StateKey::of_view(&s.view);
                    covered.variants += 1;
                }
                // A delta frame, coded against one of the party's retained
                // snapshots: it applies exactly where that base lies on the
                // summary's timeline and is refused, identically, elsewhere.
                (5 | 6, Some(s)) => {
                    let bases = &snapshots[p];
                    let base = &bases[(splitmix(&mut rng) % bases.len() as u64) as usize];
                    let delta = delta_between(base, &live[p]).unwrap();
                    let want = apply_delta_watched(&mut s.sketch, &delta, &mut s.sketch_key);
                    let got = s.view.apply_delta_watched(
                        &leveled(&like, &delta),
                        capacity,
                        &mut s.view_key,
                    );
                    assert_eq!(got, want, "step {step}");
                    match got {
                        Ok(()) => covered.deltas += 1,
                        Err(_) => covered.rejected += 1,
                    }
                }
                // A full frame, after a resync or first of all: it replaces
                // the summary.
                (_, s) => {
                    if s.is_some() && op == 7 {
                        covered.resyncs += 1;
                    }
                    let mut sketch = like.clone();
                    let mut sketch_key = StateKey::of(&sketch);
                    apply_delta_watched(&mut sketch, &state, &mut sketch_key).unwrap();
                    let view = leveled(&like, &state).clone();
                    let view_key = StateKey::of_view(&view);
                    summary = Some(Summaries {
                        sketch,
                        sketch_key,
                        view,
                        view_key,
                    });
                    covered.fulls += 1;
                }
            }
            let s = summary
                .as_ref()
                .expect("every non-observe step leaves a summary");
            assert_eq!(s.view, LeveledTrials::of(&s.sketch), "step {step}");
            let mut materialized = like.clone();
            apply_delta(&mut materialized, s.view.sorted()).unwrap();
            assert_eq!(
                SortedTrials::of(&materialized),
                SortedTrials::of(&s.sketch),
                "step {step}"
            );
            let key = StateKey::of(&s.sketch).key(&s.sketch);
            assert_eq!(s.sketch_key.key(&s.sketch), key, "step {step}");
            assert_eq!(s.view_key.view_key(&s.view), key, "step {step}");
            // Sized to what it holds: no slack in any of its arrays.
            let entries = s.view.sorted().sample_entries();
            let exact = entries * (std::mem::size_of::<(u64, V)>() + 1)
                + config.trials() * std::mem::size_of::<(u8, u64, usize)>();
            assert_eq!(s.view.heap_bytes(), exact, "step {step}");
        }
        covered
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A referee's leveled summary and the sketch summary it replaced
        /// stay equal in state, canonical bytes, key and every `Err` under
        /// any schedule of messages, variants, delta frames, full frames,
        /// resyncs and rejected frames, for label-only, keep-first and
        /// timestamped payloads.
        #[test]
        fn leveled_summaries_track_sketch_summaries(seed in any::<u64>()) {
            views_track_sketches(|_| (), seed, 120);
            views_track_sketches(|step| step, seed, 120);
            views_track_sketches(LatestTs, seed, 120);
        }
    }

    /// The schedules above reach every kind of step, rejected frames included.
    #[test]
    fn summary_schedules_cover_every_step_kind() {
        let mut total = Coverage::default();
        for seed in 0..8 {
            let c = views_track_sketches(LatestTs, seed, 200);
            total.firsts += c.firsts;
            total.variants += c.variants;
            total.deltas += c.deltas;
            total.rejected += c.rejected;
            total.fulls += c.fulls;
            total.resyncs += c.resyncs;
        }
        let Coverage {
            firsts,
            variants,
            deltas,
            rejected,
            fulls,
            resyncs,
        } = total;
        assert!(
            [firsts, variants, deltas, rejected, fulls, resyncs]
                .iter()
                .all(|&n| n > 0),
            "{total:?}"
        );
    }
}
