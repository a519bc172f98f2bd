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
//! check ([`TrialSink::push_checked`]) already hashes every label of a
//! trial above level 0, a level-0 trial is hashed with the lane kernel,
//! and [`LeveledTrials::of`] hashes a sketch's samples. Everything after
//! that (a union, a delta, a raise, a key, a query) merges sorted runs
//! and compares level bytes, with the exact result of the [`GtSketch`]
//! operation it stands for: [`LeveledTrials::union_from`] is
//! [`GtSketch::merge_from`], [`LeveledTrials::apply_delta_watched`] is
//! [`crate::apply_delta_watched`], errors and watched changes included.

use gt_hash::{level_of_hash, HashFamily, MAX_LEVEL};

use crate::delta::{check_sorted, check_trial_count, check_trial_fit, SortedTrials, TrialSink};
use crate::error::{Result, SketchError};
use crate::sketch::GtSketch;
use crate::trial::{CoordinatedTrial, Payload, SampleWatch, KERNEL_CHUNK};

/// One trial's label-sorted entries and their hash levels.
type Run<'a, V> = (&'a [(u64, V)], &'a [u8]);

/// A coordinated summary as per-trial levels, item counters and
/// label-sorted entries, each entry with its hash level (see the module
/// docs). A referee keeps one per heard party, and decodes every body
/// into one ([`TrialSink`]).
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

    /// Apply a delta in place, exactly as [`crate::apply_delta_watched`]
    /// applies it to the sketch this summary holds: the same checks and
    /// errors first, then per trial a raise to the delta's level (a byte
    /// comparison per entry), the delta's entries offered under the
    /// arrival rule, and its item counter adopted. Every sample change is
    /// reported to `watch`. On `Err` nothing changes.
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

impl<V: Payload> TrialSink<V> for LeveledTrials<V> {
    fn start(&mut self, entries: usize) {
        self.sorted.start(entries);
        self.levels.clear();
        self.levels.reserve_exact(entries);
    }

    fn push_checked(
        &mut self,
        trial: &CoordinatedTrial<V>,
        level: u8,
        items: u64,
        entries: &[(u64, V)],
    ) -> Result<()> {
        let from = self.levels.len();
        // Above level 0 the check hashes every label; keep what it found.
        let checked = check_sorted(trial, level, entries, |lvl| {
            if level > 0 {
                self.levels.push(lvl);
            }
        });
        if let Err(e) = checked {
            self.levels.truncate(from);
            return Err(e);
        }
        self.sorted.push_unchecked(level, items, entries);
        if level == 0 {
            self.hash_levels(trial.hasher(), from);
        }
        Ok(())
    }
}
