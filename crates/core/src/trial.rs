//! A single coordinated-sampling trial — the paper's core data structure.
//!
//! One trial holds a seeded hash function, a *current level* `l`, and a
//! bounded sample `S` of the distinct labels seen whose hash level is at
//! least `l`. The invariants, maintained by every operation:
//!
//! 1. `S = { x observed : lvl(x) ≥ l }` — the sample is a *deterministic
//!    function of the observed label set* (given the seed). This is the
//!    coordination property: two parties with the same seed that saw the
//!    same labels hold identical samples, and a party that saw the union
//!    of two streams holds exactly the merge of the two parties' trials.
//! 2. `|S| ≤ c` (the configured capacity). When an insert would violate
//!    this, the level is *promoted* (`l += 1`) and `S` is sub-sampled,
//!    halving it in expectation, until the new label either fits or no
//!    longer qualifies.
//!
//! Since every label in `S` survives independently with probability
//! `2^{-l}` (pairwise-independently, to be precise), `|S|·2^l` is an
//! unbiased estimate of the number of distinct labels observed.

use gt_hash::{level_of_hash, survival_mask, survival_screen, HashFamily, LevelHasher, MAX_LEVEL};

use crate::error::{Result, SketchError};
use crate::metrics::MetricsSnapshot;
use crate::sampleset::{FixedCapMap, InsertOutcome};

/// Labels hashed per monomorphic kernel dispatch in the trial kernel: large enough to amortize the one-per-chunk enum dispatch to
/// nothing, small enough that the hash buffers live comfortably on the
/// stack (2 × 2 KiB).
pub const KERNEL_CHUNK: usize = 256;

/// Hashes screened per [`gt_hash::survival_screen`] bitmap word inside the
/// trial kernel: one `u64` of survivor bits, so the dominant below-level
/// case costs a lane-friendly compare loop plus a popcount per 64 items
/// instead of a branch per item. Survivor indices come back out via
/// `trailing_zeros`, preserving slice order.
const SCREEN_WINDOW: usize = 64;

/// Payload attached to each sampled label.
///
/// For plain distinct counting the payload is `()`. For SumDistinct-style
/// aggregates it carries the label's value. `merge` reconciles payloads
/// when the same label arrives twice (locally or via sketch union); the
/// paper's model has the value be a function of the label, so agreement is
/// expected — implementations for numeric types keep the first-seen value,
/// matching "duplicate-insensitive" semantics.
///
/// # Canonical argument order
///
/// `merge` is **always** invoked as `stored.merge(incoming)`: `self` is
/// the payload already in the sample (first observed), `other` is the one
/// arriving later — whether the later arrival comes from the local stream
/// ([`CoordinatedTrial::insert_merging`]) or from another party's sketch
/// ([`crate::GtSketch::merge_from`]). Implementations may rely on this
/// order; it is what makes a union of partial streams reconcile payloads
/// exactly like a single observer of the concatenated stream would.
pub trait Payload: Copy + Default {
    /// Reconcile two payloads observed for the same label. Invoked as
    /// `stored.merge(incoming)` (see the trait docs on argument order).
    fn merge(self, other: Self) -> Self;
}

impl Payload for () {
    #[inline]
    fn merge(self, _other: Self) -> Self {}
}

impl Payload for u64 {
    #[inline]
    fn merge(self, _other: Self) -> Self {
        self
    }
}

impl Payload for f64 {
    #[inline]
    fn merge(self, _other: Self) -> Self {
        self
    }
}

/// What [`CoordinatedTrial::insert`] did with an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialInsert {
    /// Label's level is below the trial's current level; not sampled.
    BelowLevel,
    /// Label entered the sample.
    Sampled,
    /// Label was already in the sample (duplicate).
    Duplicate,
    /// Inserting forced one or more level promotions first; the label was
    /// then sampled (it survived the promotions).
    SampledAfterPromotion,
    /// Inserting forced promotions that disqualified the label itself.
    EvictedByPromotion,
}

/// A single trial of coordinated adaptive sampling over labels in
/// `[0, 2^61 − 1)` with payloads `V`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct CoordinatedTrial<V> {
    hasher: HashFamily,
    level: u8,
    sample: FixedCapMap<V>,
    /// Items observed (including duplicates and below-level items) —
    /// diagnostics only; not part of the estimator.
    items_observed: u64,
}

impl<V: Payload> CoordinatedTrial<V> {
    /// Create a trial with the given hash function and sample capacity.
    pub fn new(hasher: HashFamily, capacity: usize) -> Self {
        CoordinatedTrial {
            hasher,
            level: 0,
            sample: FixedCapMap::with_capacity(capacity),
            items_observed: 0,
        }
    }

    /// Reload this trial with transmitted state, reusing the existing
    /// sample storage ([`FixedCapMap::clear`] keeps the allocation) — the
    /// referee's decode arena leans on this to decode thousands of
    /// messages with zero per-message allocation. Validates the sample
    /// invariant: every entry's label must be in the field and clear
    /// `level`, with no duplicates and at most `capacity` entries.
    ///
    /// On `Err` the trial's state is unspecified (partially reloaded);
    /// callers must discard or re-reload it before use.
    pub fn reload(
        &mut self,
        level: u8,
        items_observed: u64,
        entries: impl IntoIterator<Item = (u64, V)>,
    ) -> Result<()> {
        if level > MAX_LEVEL {
            return Err(SketchError::InvalidConfig {
                parameter: "level",
                reason: format!("level {level} exceeds maximum {MAX_LEVEL}"),
            });
        }
        self.sample.clear();
        self.level = level;
        self.items_observed = items_observed;
        let capacity = self.capacity();
        for (label, payload) in entries {
            // Range check before hashing: corrupted wire input can carry
            // labels outside the field (caught by the codec fuzz tests).
            if label >= gt_hash::P61 {
                return Err(SketchError::LabelOutOfRange { label });
            }
            // Every label qualifies at level 0, so the hash is only
            // evaluated above it.
            if level > 0 && self.hasher.level(label) < level {
                return Err(SketchError::InvalidConfig {
                    parameter: "sample",
                    reason: format!("label {label} does not qualify for level {level} (corrupt or uncoordinated message)"),
                });
            }
            match self.sample.try_insert(label, payload) {
                InsertOutcome::Inserted => {}
                InsertOutcome::AlreadyPresent => {
                    return Err(SketchError::InvalidConfig {
                        parameter: "sample",
                        reason: format!("duplicate label {label} in transmitted sample"),
                    })
                }
                InsertOutcome::Full => {
                    return Err(SketchError::InvalidConfig {
                        parameter: "sample",
                        reason: format!("transmitted sample exceeds capacity {capacity}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Current sampling level `l` (sampling probability `2^{-l}`).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Number of labels currently sampled.
    pub fn sample_len(&self) -> usize {
        self.sample.len()
    }

    /// The sample capacity `c`.
    pub fn capacity(&self) -> usize {
        self.sample.capacity()
    }

    /// Total items observed by this trial (duplicates included).
    pub fn items_observed(&self) -> u64 {
        self.items_observed
    }

    /// The hash function driving this trial (parties must agree on it).
    pub fn hasher(&self) -> &HashFamily {
        &self.hasher
    }

    /// Deduct `n` previously-credited items from the diagnostics counter
    /// (saturating). Only [`crate::GtSketch::merge_refresh_from`] calls
    /// this, to cancel the double-count when a party's refreshed snapshot
    /// replaces an already-merged older one.
    pub(crate) fn debit_items(&mut self, n: u64) {
        self.items_observed = self.items_observed.saturating_sub(n);
    }

    /// Iterate over the sampled `(label, payload)` pairs.
    pub fn sample_iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.sample.iter()
    }

    /// Whether `label` is currently in the sample.
    pub fn contains_label(&self, label: u64) -> bool {
        self.sample.contains(label)
    }

    /// The sample as a label-sorted `Vec` of `(label, hash level)` pairs —
    /// the precomputed view the expression engine aligns trials with.
    ///
    /// Because the sample invariant is `S = {x : lvl(x) ≥ level}`, the
    /// subset of this view with `hash level ≥ l` for any `l ≥ level` is
    /// *exactly* the sample this trial would hold after
    /// [`CoordinatedTrial::subsample_to_level`]`(l)` — so one pass over
    /// the sample (hashing each entry once) supports alignment to every
    /// later-chosen common level with no cloning or re-subsampling.
    pub fn leveled_sample(&self) -> Vec<(u64, u8)> {
        let mut view: Vec<(u64, u8)> = self
            .sample
            .iter()
            .map(|(label, _)| (label, self.hasher.level(label)))
            .collect();
        view.sort_unstable_by_key(|&(label, _)| label);
        view
    }

    /// Bytes of heap storage used by the sample (space accounting).
    pub fn heap_bytes(&self) -> usize {
        self.sample.heap_bytes()
    }

    /// Observe one `(label, payload)` item from the stream.
    ///
    /// Labels must lie in `[0, 2^61 − 1)`; larger values are folded mod
    /// `2^61 − 1` by the hash arithmetic (use `gt_hash::fold61` for
    /// full-range labels). Amortized cost is O(1) hash evaluations plus,
    /// over the whole stream, O(log F₀) sub-sampling sweeps.
    #[inline]
    pub fn insert(&mut self, label: u64, payload: V) -> TrialInsert {
        self.items_observed += 1;
        let lvl = self.hasher.level(label);
        if lvl < self.level {
            return TrialInsert::BelowLevel;
        }
        self.insert_qualified(label, lvl, payload)
    }

    /// Sample-insertion slow path shared by [`CoordinatedTrial::insert`]
    /// and the batch kernels: the label is already known to qualify
    /// (`lvl ≥ self.level`) and `items_observed` is already counted.
    #[inline]
    fn insert_qualified(&mut self, label: u64, lvl: u8, payload: V) -> TrialInsert {
        debug_assert!(lvl >= self.level);
        let mut promoted = false;
        loop {
            match self.sample.try_insert(label, payload) {
                InsertOutcome::Inserted => {
                    return if promoted {
                        TrialInsert::SampledAfterPromotion
                    } else {
                        TrialInsert::Sampled
                    };
                }
                InsertOutcome::AlreadyPresent => return TrialInsert::Duplicate,
                InsertOutcome::Full => {
                    self.promote();
                    promoted = true;
                    if lvl < self.level {
                        return TrialInsert::EvictedByPromotion;
                    }
                }
            }
        }
    }

    /// The one screen-and-insert loop behind label ingest, pair ingest and
    /// union, over a chunk of at most [`KERNEL_CHUNK`] labels.
    ///
    /// One [`HashFamily::hash_slice_into`] call hashes the whole chunk
    /// with the family enum dispatched once; `SCREEN_WINDOW`-wide windows
    /// of hashes are then screened lane-wise with
    /// [`gt_hash::survival_screen`], so the dominant below-level case is
    /// retired a bitmap word at a time — no per-item branch, map probe or
    /// re-hash — and only surviving bits take
    /// [`CoordinatedTrial::insert_qualified`], reusing the computed hash
    /// for their level.
    ///
    /// Why the screen is exact and not merely approximate: the survival
    /// mask is monotone in the level, and the level never decreases, so an
    /// item that fails the window-entry mask fails every later mask too —
    /// it can be counted below level immediately. Survivors are re-checked
    /// against the *current* mask in slice order, because an insert earlier
    /// in the window may have promoted the level.
    ///
    /// With `payloads`, label `i` carries `payloads[i]` and a duplicate
    /// folds it in as `stored.merge(incoming)` (the canonical order);
    /// without, every label carries `V::default()` and a duplicate leaves
    /// the stored payload alone, like [`CoordinatedTrial::insert`]. Each
    /// item's outcome goes to `count(outcome, n)`, below-level items a
    /// window at a time. The caller counts `items_observed` and the level
    /// promotions.
    #[inline]
    fn screen_and_insert(
        &mut self,
        labels: &[u64],
        payloads: Option<&[V]>,
        hashes: &mut [u64; KERNEL_CHUNK],
        mut count: impl FnMut(TrialInsert, u64),
    ) {
        let hashes = &mut hashes[..labels.len()];
        self.hasher.hash_slice_into(labels, hashes);
        for (w, window) in hashes.chunks(SCREEN_WINDOW).enumerate() {
            let mut mask = survival_mask(self.level);
            let mut bits = survival_screen(window, mask);
            count(
                TrialInsert::BelowLevel,
                u64::from(window.len() as u32 - bits.count_ones()),
            );
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let h = window[i];
                // Re-check: an insert earlier in this window may have
                // promoted the level past this hash.
                if h & mask != 0 {
                    count(TrialInsert::BelowLevel, 1);
                    continue;
                }
                let at = w * SCREEN_WINDOW + i;
                let payload = payloads.map_or_else(V::default, |p| p[at]);
                let outcome = self.insert_qualified(labels[at], level_of_hash(h), payload);
                if payloads.is_some() && outcome == TrialInsert::Duplicate {
                    self.sample.update(labels[at], |v| *v = v.merge(payload));
                }
                count(outcome, 1);
                mask = survival_mask(self.level);
            }
        }
    }

    /// Batch-observe a slice of labels (payload `V::default()`) through
    /// the trial kernel, counting outcomes and promotions into `m`.
    /// Bitwise-identical in sample, level, `items_observed` and counters
    /// to calling [`CoordinatedTrial::insert`] per item in slice order
    /// (property-tested).
    pub(crate) fn extend_labels_kernel(&mut self, labels: &[u64], m: &mut MetricsSnapshot) {
        let level_before = self.level;
        self.items_observed += labels.len() as u64;
        let mut hashes = [0u64; KERNEL_CHUNK];
        for chunk in labels.chunks(KERNEL_CHUNK) {
            self.screen_and_insert(chunk, None, &mut hashes, |o, n| m.count_insert(o, n));
        }
        m.level_promotions += u64::from(self.level - level_before);
    }

    /// Batch-observe one gathered chunk of `(labels[i], payloads[i])`
    /// pairs (at most [`KERNEL_CHUNK`]) through the trial kernel.
    /// Duplicate arrivals reconcile payloads in place as
    /// `stored.merge(incoming)` — the canonical argument order, matching
    /// [`CoordinatedTrial::insert_merging`] — and count into
    /// `m.local_reconciliations`.
    pub(crate) fn extend_pairs_kernel(
        &mut self,
        labels: &[u64],
        payloads: &[V],
        hashes: &mut [u64; KERNEL_CHUNK],
        m: &mut MetricsSnapshot,
    ) {
        let level_before = self.level;
        self.items_observed += labels.len() as u64;
        self.screen_and_insert(labels, Some(payloads), hashes, |o, n| {
            m.count_merging_insert(o, n)
        });
        m.level_promotions += u64::from(self.level - level_before);
    }

    /// Like [`CoordinatedTrial::insert`], but a duplicate arrival *merges*
    /// its payload into the stored one as `stored.merge(incoming)` —
    /// the **same argument order** [`crate::GtSketch::merge_from`] uses
    /// when both sides of a union sampled the label, so a local stream and
    /// a union of partial streams reconcile identically (keep-first for
    /// the built-in payload types). Used by payloads that accumulate
    /// per-label state across arrivals (e.g. latest-timestamp tracking);
    /// plain distinct counting sticks with `insert`, which skips the extra
    /// probe work on duplicates.
    #[inline]
    pub fn insert_merging(&mut self, label: u64, payload: V) -> TrialInsert {
        let outcome = self.insert(label, payload);
        if outcome == TrialInsert::Duplicate {
            self.sample.update(label, |v| *v = v.merge(payload));
        }
        outcome
    }

    /// Raise the level by one and sub-sample. Each stored label survives
    /// iff its hash level clears the new threshold (prob. ½ each,
    /// pairwise-independently).
    fn promote(&mut self) {
        assert!(
            self.level < MAX_LEVEL,
            "level overflow: >{} labels share {MAX_LEVEL} trailing zero bits — \
             astronomically unlikely under a sound hash; check the hash family",
            self.capacity()
        );
        self.level += 1;
        let threshold = self.level;
        let hasher = self.hasher.clone();
        self.sample
            .retain(|label, _| hasher.level(label) >= threshold);
    }

    /// Force the trial down to sampling level `target ≥ self.level`,
    /// discarding sample entries that do not qualify. Used by the referee
    /// to align trials from different parties before union.
    pub fn subsample_to_level(&mut self, target: u8) {
        assert!(
            target >= self.level,
            "cannot lower a sampling level ({} -> {target}): discarded labels cannot be recovered",
            self.level
        );
        if target == self.level {
            return;
        }
        self.level = target;
        let hasher = self.hasher.clone();
        self.sample.retain(|label, _| hasher.level(label) >= target);
    }

    /// A copy of this trial shrunk to a smaller capacity: the level is
    /// promoted until the sample fits.
    ///
    /// Because promotion is monotone and only ever happens on overflow,
    /// the result is *exactly* the trial a party with `new_capacity` would
    /// have ended at after observing the same label set (the final level
    /// is the minimal `l` with `|{x : lvl(x) ≥ l}| ≤ c` either way) — so
    /// shrunken sketches remain coordinated. Verified by test.
    ///
    /// # Panics
    /// Panics if `new_capacity` is 0 or larger than the current capacity
    /// (growing cannot restore discarded labels).
    pub fn shrunk_to_capacity(&self, new_capacity: usize) -> CoordinatedTrial<V> {
        assert!(
            (1..=self.capacity()).contains(&new_capacity),
            "new capacity {new_capacity} must be in [1, {}]",
            self.capacity()
        );
        let mut out = CoordinatedTrial {
            hasher: self.hasher.clone(),
            level: self.level,
            sample: FixedCapMap::with_capacity(new_capacity),
            items_observed: self.items_observed,
        };
        // Find the minimal level at which the sample fits, then copy the
        // qualifying entries.
        let mut level = self.level;
        loop {
            let count = self
                .sample
                .iter()
                .filter(|&(label, _)| self.hasher.level(label) >= level)
                .count();
            if count <= new_capacity {
                break;
            }
            assert!(level < MAX_LEVEL, "level overflow while shrinking");
            level += 1;
        }
        out.level = level;
        for (label, payload) in self.sample.iter() {
            if self.hasher.level(label) >= level {
                let r = out.sample.try_insert(label, payload);
                debug_assert_eq!(r, InsertOutcome::Inserted);
            }
        }
        out
    }

    /// This trial's estimate of the number of distinct labels observed:
    /// `|S| · 2^l`. Exact whenever the level never left 0.
    pub fn estimate_distinct(&self) -> f64 {
        self.sample.len() as f64 * 2f64.powi(self.level as i32)
    }

    /// This trial's estimate of `Σ_{distinct x} weight(x, payload(x))` via
    /// `2^l · Σ_{x ∈ S} weight(x, payload(x))`. The sum folds from `+0.0`
    /// (`Iterator::sum` starts at `-0.0`), so an empty sample estimates
    /// `+0`, as [`CoordinatedTrial::estimate_distinct`] does.
    pub fn estimate_weighted(&self, weight: impl Fn(u64, V) -> f64) -> f64 {
        let sum = self
            .sample
            .iter()
            .fold(0.0, |acc, (k, v)| acc + weight(k, v));
        sum * 2f64.powi(self.level as i32)
    }

    /// The union's coordination check: both trials must share the hash
    /// function and the capacity.
    fn check_mergeable(&self, other: &CoordinatedTrial<V>) -> Result<()> {
        if self.hasher != other.hasher {
            return Err(SketchError::SeedMismatch);
        }
        if self.capacity() != other.capacity() {
            return Err(SketchError::ConfigMismatch {
                detail: format!("trial capacity {} vs {}", self.capacity(), other.capacity()),
            });
        }
        Ok(())
    }

    /// Merge another trial *of the same hash function* into this one,
    /// producing exactly the trial a single party would hold had it
    /// observed both streams (the referee's union step). Every entry of
    /// `other` counts into `m` as absorbed, reconciled or below level, and
    /// the level movement (alignment plus overflow) as promotions.
    ///
    /// After aligning to the max level, the other sample is gathered into
    /// [`KERNEL_CHUNK`]-sized stack arrays and run through the same trial
    /// kernel as ingest ([`CoordinatedTrial::screen_and_insert`]), so the
    /// state and counters are bitwise-identical to
    /// [`CoordinatedTrial::merge_from_reference`] (property-tested). No
    /// reserve-ahead growth is needed at this layer: the open-addressed
    /// sample table is pre-sized to `capacity` at construction, so bulk
    /// insertion never reallocates.
    pub(crate) fn merge_from(
        &mut self,
        other: &CoordinatedTrial<V>,
        m: &mut MetricsSnapshot,
    ) -> Result<()> {
        self.check_mergeable(other)?;
        let level_before = self.level;
        if other.level > self.level {
            self.subsample_to_level(other.level);
        }
        let mut labels = [0u64; KERNEL_CHUNK];
        let mut payloads = [V::default(); KERNEL_CHUNK];
        let mut hashes = [0u64; KERNEL_CHUNK];
        let mut entries = other.sample.iter();
        loop {
            let mut n = 0;
            for (label, payload) in entries.by_ref().take(KERNEL_CHUNK) {
                labels[n] = label;
                payloads[n] = payload;
                n += 1;
            }
            if n == 0 {
                break;
            }
            let count = |outcome, k| m.count_union(outcome, k);
            self.screen_and_insert(&labels[..n], Some(&payloads[..n]), &mut hashes, count);
        }
        self.items_observed += other.items_observed;
        m.level_promotions += u64::from(self.level - level_before);
        Ok(())
    }

    /// The per-entry union path: one `hasher.level(label)` re-hash and one
    /// map probe per incoming entry. Kept as the equivalence oracle —
    /// tests assert the kernel matches it bitwise in state *and* counters
    /// — and as the readable specification of union semantics.
    pub(crate) fn merge_from_reference(
        &mut self,
        other: &CoordinatedTrial<V>,
        m: &mut MetricsSnapshot,
    ) -> Result<()> {
        self.check_mergeable(other)?;
        let level_before = self.level;
        // Align to the higher of the two levels first.
        if other.level > self.level {
            self.subsample_to_level(other.level);
        }
        for (label, payload) in other.sample.iter() {
            if self.hasher.level(label) < self.level {
                m.merge_below_level += 1;
                continue; // other ran at a lower level; this label no longer qualifies
            }
            loop {
                match self.sample.try_insert(label, payload) {
                    InsertOutcome::Inserted => {
                        m.merge_entries_absorbed += 1;
                        break;
                    }
                    InsertOutcome::AlreadyPresent => {
                        // Both sides sampled this label: reconcile payloads
                        // in place as `stored.merge(incoming)` — the same
                        // argument order `insert_merging` uses locally
                        // (keep-first for the built-in payload types,
                        // custom for user payloads).
                        self.sample.update(label, |v| *v = v.merge(payload));
                        m.merge_reconciliations += 1;
                        break;
                    }
                    InsertOutcome::Full => {
                        self.promote();
                        if self.hasher.level(label) < self.level {
                            m.merge_below_level += 1;
                            break;
                        }
                    }
                }
            }
        }
        self.items_observed += other.items_observed;
        m.level_promotions += u64::from(self.level - level_before);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_hash::{FamilySeed, HashFamilyKind};

    fn trial(capacity: usize, seed: u64) -> CoordinatedTrial<()> {
        CoordinatedTrial::new(HashFamilyKind::Pairwise.build(FamilySeed(seed)), capacity)
    }

    fn labels(n: u64, salt: u64) -> impl Iterator<Item = u64> {
        (0..n).map(move |i| gt_hash::fold61(i ^ (salt << 32)))
    }

    #[test]
    fn small_sets_are_counted_exactly() {
        let mut t = trial(64, 1);
        for x in labels(50, 0) {
            t.insert(x, ());
        }
        assert_eq!(t.level(), 0);
        assert_eq!(t.estimate_distinct(), 50.0);
    }

    #[test]
    fn duplicates_do_not_change_state() {
        let mut t = trial(64, 1);
        for x in labels(50, 0) {
            t.insert(x, ());
        }
        let before_len = t.sample_len();
        let before_level = t.level();
        let mut dup_seen = false;
        for x in labels(50, 0) {
            let r = t.insert(x, ());
            dup_seen |= r == TrialInsert::Duplicate;
            assert!(matches!(
                r,
                TrialInsert::Duplicate | TrialInsert::BelowLevel
            ));
        }
        assert!(dup_seen);
        assert_eq!(t.sample_len(), before_len);
        assert_eq!(t.level(), before_level);
        assert_eq!(t.estimate_distinct(), 50.0);
        assert_eq!(t.items_observed(), 100);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut t = trial(32, 2);
        for x in labels(10_000, 1) {
            t.insert(x, ());
            assert!(t.sample_len() <= 32);
        }
        assert!(t.level() > 0, "10k distinct into capacity 32 must promote");
    }

    #[test]
    fn sample_invariant_holds_after_promotions() {
        // Every sampled label has level ≥ trial level; every observed label
        // with level ≥ trial level is in the sample.
        let mut t = trial(32, 3);
        let observed: Vec<u64> = labels(5_000, 2).collect();
        for &x in &observed {
            t.insert(x, ());
        }
        let hasher = t.hasher().clone();
        let l = t.level();
        let sampled: std::collections::HashSet<u64> = t.sample_iter().map(|(k, _)| k).collect();
        for &x in &observed {
            let qualifies = hasher.level(x) >= l;
            assert_eq!(sampled.contains(&x), qualifies, "label {x}");
        }
    }

    #[test]
    fn estimate_is_close_for_large_sets() {
        let mut t = trial(4096, 4);
        let n = 100_000u64;
        for x in labels(n, 3) {
            t.insert(x, ());
        }
        let est = t.estimate_distinct();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.1, "estimate {est} vs {n} (rel {rel})");
    }

    #[test]
    fn coordination_insertion_order_is_irrelevant() {
        let mut a = trial(32, 5);
        let mut b = trial(32, 5);
        let v: Vec<u64> = labels(2_000, 4).collect();
        for &x in &v {
            a.insert(x, ());
        }
        for &x in v.iter().rev() {
            b.insert(x, ());
        }
        assert_eq!(a.level(), b.level());
        let sa: std::collections::BTreeSet<u64> = a.sample_iter().map(|(k, _)| k).collect();
        let sb: std::collections::BTreeSet<u64> = b.sample_iter().map(|(k, _)| k).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn merge_equals_single_party_on_concatenation() {
        let v1: Vec<u64> = labels(3_000, 5).collect();
        let v2: Vec<u64> = labels(3_000, 6).collect();
        let mut a = trial(64, 7);
        let mut b = trial(64, 7);
        let mut whole = trial(64, 7);
        for &x in &v1 {
            a.insert(x, ());
            whole.insert(x, ());
        }
        for &x in &v2 {
            b.insert(x, ());
            whole.insert(x, ());
        }
        a.merge_from(&b, &mut MetricsSnapshot::default()).unwrap();
        assert_eq!(a.level(), whole.level());
        let sa: std::collections::BTreeSet<u64> = a.sample_iter().map(|(k, _)| k).collect();
        let sw: std::collections::BTreeSet<u64> = whole.sample_iter().map(|(k, _)| k).collect();
        assert_eq!(sa, sw);
        assert_eq!(a.items_observed(), whole.items_observed());
    }

    #[test]
    fn merge_with_overlap_is_duplicate_insensitive() {
        let shared: Vec<u64> = labels(1_000, 8).collect();
        let mut a = trial(64, 9);
        let mut b = trial(64, 9);
        for &x in &shared {
            a.insert(x, ());
            b.insert(x, ());
        }
        let solo_estimate = a.estimate_distinct();
        a.merge_from(&b, &mut MetricsSnapshot::default()).unwrap();
        assert_eq!(
            a.estimate_distinct(),
            solo_estimate,
            "identical streams must merge to themselves"
        );
    }

    #[test]
    fn merge_rejects_different_seeds() {
        let mut a = trial(16, 1);
        let b = trial(16, 2);
        assert_eq!(
            a.merge_from(&b, &mut MetricsSnapshot::default()),
            Err(SketchError::SeedMismatch)
        );
    }

    #[test]
    fn merge_rejects_different_capacities() {
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(1));
        let mut a: CoordinatedTrial<()> = CoordinatedTrial::new(hasher.clone(), 16);
        let b: CoordinatedTrial<()> = CoordinatedTrial::new(hasher, 32);
        assert!(matches!(
            a.merge_from(&b, &mut MetricsSnapshot::default()),
            Err(SketchError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn subsample_to_level_halves_in_expectation() {
        let mut t = trial(8192, 10);
        for x in labels(8_000, 9) {
            t.insert(x, ());
        }
        assert_eq!(t.level(), 0);
        let n0 = t.sample_len() as f64;
        t.subsample_to_level(2);
        let n2 = t.sample_len() as f64;
        assert!(
            (n2 - n0 / 4.0).abs() < 6.0 * (n0 / 4.0).sqrt(),
            "n0 {n0} n2 {n2}"
        );
        assert_eq!(t.level(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot lower a sampling level")]
    fn subsample_cannot_lower_level() {
        let mut t = trial(4, 11);
        for x in labels(100, 10) {
            t.insert(x, ());
        }
        let l = t.level();
        t.subsample_to_level(l - 1);
    }

    #[test]
    fn weighted_estimate_scales_payloads() {
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(12));
        let mut t: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher, 128);
        for x in 0..100u64 {
            t.insert(gt_hash::fold61(x), 3);
        }
        // Level 0 ⇒ exact: 100 labels × weight 3.
        assert_eq!(t.estimate_weighted(|_, v| v as f64), 300.0);
        assert_eq!(t.estimate_distinct(), 100.0);
    }

    #[test]
    fn reload_validates_transmitted_state() {
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(3));
        let fresh = |capacity| CoordinatedTrial::<()>::new(hasher.clone(), capacity);
        // Out-of-field label rejected.
        let r = fresh(8).reload(0, 1, vec![(u64::MAX, ())]);
        assert!(matches!(r, Err(SketchError::LabelOutOfRange { .. })));
        // Level violation rejected: find a level-0 label, claim level 5.
        let lvl0 = (0..10_000u64)
            .map(gt_hash::fold61)
            .find(|&x| {
                use gt_hash::LevelHasher;
                hasher.level(x) == 0
            })
            .unwrap();
        let r = fresh(8).reload(5, 1, vec![(lvl0, ())]);
        assert!(r.is_err());
        // Over-capacity rejected.
        let entries: Vec<(u64, ())> = (0..10u64).map(|i| (gt_hash::fold61(i), ())).collect();
        let r = fresh(4).reload(0, 10, entries.clone());
        assert!(r.is_err());
        // Valid state round-trips.
        let mut ok = fresh(16);
        ok.reload(0, 10, entries).unwrap();
        assert_eq!(ok.sample_len(), 10);
        assert_eq!(ok.items_observed(), 10);
    }

    #[test]
    fn merge_report_accounts_for_every_entry() {
        let v1: Vec<u64> = labels(2_000, 20).collect();
        let v2: Vec<u64> = labels(2_000, 21).collect();
        let shared: Vec<u64> = labels(500, 22).collect();
        let mut a = trial(64, 23);
        let mut b = trial(64, 23);
        for &x in v1.iter().chain(&shared) {
            a.insert(x, ());
        }
        for &x in v2.iter().chain(&shared) {
            b.insert(x, ());
        }
        let b_len = b.sample_len() as u64;
        let a_level_before = a.level();
        let mut m = MetricsSnapshot::default();
        a.merge_from(&b, &mut m).unwrap();
        assert_eq!(
            m.merge_entries_absorbed + m.merge_reconciliations + m.merge_below_level,
            b_len,
            "every entry of the other sample must be classified"
        );
        assert!(m.merge_reconciliations > 0, "shared labels must reconcile");
        assert_eq!(m.level_promotions, u64::from(a.level() - a_level_before));
        assert_eq!(m.trial_inserts(), 0, "a union counts no inserts");
    }

    #[test]
    fn local_merging_and_union_reconcile_in_the_same_order() {
        // Regression for the payload-merge asymmetry: with a keep-first
        // payload (u64), the same label carrying different payloads must
        // resolve to the *first observed* payload both when the duplicate
        // arrives locally (insert_merging) and when it arrives via union
        // (merge_from).
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(31));
        let label = gt_hash::fold61(0xFEED);

        let mut local: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher.clone(), 16);
        local.insert_merging(label, 111);
        local.insert_merging(label, 222);

        let mut first: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher.clone(), 16);
        first.insert_merging(label, 111);
        let mut second: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher, 16);
        second.insert_merging(label, 222);
        let mut m = MetricsSnapshot::default();
        first.merge_from(&second, &mut m).unwrap();
        assert_eq!(m.merge_reconciliations, 1);

        let local_payload = local.sample_iter().find(|&(k, _)| k == label).unwrap().1;
        let union_payload = first.sample_iter().find(|&(k, _)| k == label).unwrap().1;
        assert_eq!(local_payload, 111, "local path must keep the first payload");
        assert_eq!(union_payload, 111, "union path must keep the first payload");
    }

    #[test]
    fn labels_kernel_is_bitwise_identical_to_per_item_insert() {
        // Sizes straddle KERNEL_CHUNK so both the full-chunk and the
        // remainder paths run, and the capacity forces mid-batch
        // promotions (the mask-refresh path).
        for n in [0u64, 1, 255, 256, 257, 5_000] {
            let v: Vec<u64> = labels(n, 30).collect();
            let mut per_item = trial(32, 31);
            let mut per_item_counts = MetricsSnapshot::default();
            for &x in &v {
                let before = per_item.level();
                per_item_counts.count_insert(per_item.insert(x, ()), 1);
                per_item_counts.level_promotions += u64::from(per_item.level() - before);
            }
            let mut kernel = trial(32, 31);
            let mut kernel_counts = MetricsSnapshot::default();
            kernel.extend_labels_kernel(&v, &mut kernel_counts);
            assert_eq!(kernel.level(), per_item.level(), "n = {n}");
            assert_eq!(kernel.items_observed(), per_item.items_observed());
            let set = |t: &CoordinatedTrial<()>| -> std::collections::BTreeSet<u64> {
                t.sample_iter().map(|(k, _)| k).collect()
            };
            assert_eq!(set(&kernel), set(&per_item), "n = {n}");
            assert_eq!(kernel_counts, per_item_counts, "n = {n}");
        }
    }

    #[test]
    fn merging_pairs_kernel_reconciles_like_insert_merging() {
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(33));
        let items: Vec<(u64, u64)> = labels(3_000, 32)
            .chain(labels(3_000, 32)) // second pass: all duplicates
            .enumerate()
            .map(|(i, l)| (l, i as u64))
            .collect();
        let mut per_item: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher.clone(), 64);
        let mut per_item_counts = MetricsSnapshot::default();
        for &(l, p) in &items {
            let before = per_item.level();
            per_item_counts.count_merging_insert(per_item.insert_merging(l, p), 1);
            per_item_counts.level_promotions += u64::from(per_item.level() - before);
        }
        let mut kernel: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher, 64);
        let mut m = MetricsSnapshot::default();
        let mut hashes = [0u64; KERNEL_CHUNK];
        for chunk in items.chunks(KERNEL_CHUNK) {
            let (labels, payloads): (Vec<u64>, Vec<u64>) = chunk.iter().copied().unzip();
            kernel.extend_pairs_kernel(&labels, &payloads, &mut hashes, &mut m);
        }
        let state = |t: &CoordinatedTrial<u64>| -> std::collections::BTreeMap<u64, u64> {
            t.sample_iter().collect()
        };
        assert_eq!(state(&kernel), state(&per_item));
        assert_eq!(kernel.level(), per_item.level());
        assert_eq!(m, per_item_counts);
        assert!(m.inserts_duplicate > 0);
        assert_eq!(m.inserts_duplicate, m.local_reconciliations);
    }

    #[test]
    fn merge_kernel_is_bitwise_identical_to_reference() {
        // Sweep sample sizes straddling KERNEL_CHUNK, level skews in both
        // directions, and capacities that force mid-merge promotions, and
        // require identical state *and* identical counters.
        let state = |t: &CoordinatedTrial<u64>| {
            (
                t.level(),
                t.items_observed(),
                t.sample_iter()
                    .collect::<std::collections::BTreeMap<_, _>>(),
            )
        };
        for (cap, n_a, n_b, salt) in [
            (512, 100u64, 50u64, 40u64), // no promotions, sub-chunk
            (512, 600, 700, 41),         // straddles KERNEL_CHUNK
            (32, 3_000, 200, 42),        // self at higher level: other aligns up
            (32, 200, 3_000, 43),        // other at higher level: self subsamples
            (32, 2_000, 2_000, 44),      // overflow during the merge itself
        ] {
            let hasher = HashFamilyKind::Pairwise.build(FamilySeed(77));
            let build = |n: u64, payload_salt: u64| {
                let mut t: CoordinatedTrial<u64> = CoordinatedTrial::new(hasher.clone(), cap);
                for x in labels(n, salt) {
                    // Shared label prefix across parties, but payloads
                    // disagree — reconciliation order is observable.
                    t.insert_merging(x, x.wrapping_mul(3) ^ payload_salt);
                }
                t
            };
            let a = build(n_a, 1);
            let b = build(n_b, 2);

            let mut via_reference = a.clone();
            let mut ref_counts = MetricsSnapshot::default();
            via_reference
                .merge_from_reference(&b, &mut ref_counts)
                .unwrap();
            let mut via_kernel = a.clone();
            let mut kernel_counts = MetricsSnapshot::default();
            via_kernel.merge_from(&b, &mut kernel_counts).unwrap();
            assert_eq!(
                state(&via_kernel),
                state(&via_reference),
                "cap {cap} salt {salt}"
            );
            assert_eq!(kernel_counts, ref_counts, "cap {cap} salt {salt}");
        }
    }

    #[test]
    fn merge_kernel_rejects_like_reference() {
        let m = &mut MetricsSnapshot::default();
        let mut a = trial(16, 1);
        let b = trial(16, 2);
        assert_eq!(a.merge_from(&b, m), Err(SketchError::SeedMismatch));
        assert_eq!(
            a.merge_from_reference(&b, m),
            Err(SketchError::SeedMismatch)
        );
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(1));
        let mut a: CoordinatedTrial<()> = CoordinatedTrial::new(hasher.clone(), 16);
        let b: CoordinatedTrial<()> = CoordinatedTrial::new(hasher, 32);
        let want = Err(SketchError::ConfigMismatch {
            detail: "trial capacity 16 vs 32".to_string(),
        });
        assert_eq!(a.merge_from(&b, m), want);
        assert_eq!(a.merge_from_reference(&b, m), want);
        assert_eq!(
            *m,
            MetricsSnapshot::default(),
            "a rejected merge counts nothing"
        );
    }

    #[test]
    fn reload_of_a_used_trial_matches_a_fresh_one() {
        let hasher = HashFamilyKind::Pairwise.build(FamilySeed(3));
        let entries: Vec<(u64, ())> = (0..10u64).map(|i| (gt_hash::fold61(i), ())).collect();
        let mut fresh: CoordinatedTrial<()> = CoordinatedTrial::new(hasher.clone(), 16);
        fresh.reload(0, 10, entries.clone()).unwrap();
        let mut reused: CoordinatedTrial<()> = CoordinatedTrial::new(hasher.clone(), 16);
        // Dirty the trial first so clear() actually has work to do.
        for x in labels(200, 50) {
            reused.insert(x, ());
        }
        reused.reload(0, 10, entries.clone()).unwrap();
        assert_eq!(reused.level(), fresh.level());
        assert_eq!(reused.items_observed(), fresh.items_observed());
        let set = |t: &CoordinatedTrial<()>| -> std::collections::BTreeSet<u64> {
            t.sample_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(set(&reused), set(&fresh));
        // Same rejections as a fresh trial's reload.
        assert!(matches!(
            reused.reload(0, 1, vec![(u64::MAX, ())]),
            Err(SketchError::LabelOutOfRange { .. })
        ));
        let mut reused: CoordinatedTrial<()> = CoordinatedTrial::new(hasher, 4);
        assert!(reused.reload(0, 10, entries).is_err(), "over capacity");
    }

    #[test]
    fn insert_outcome_classification() {
        let mut t = trial(2, 13);
        // Find labels of level ≥ 1 and level 0 to steer outcomes.
        let hasher = t.hasher().clone();
        let mut lvl0 = None;
        for x in 0..10_000u64 {
            let x = gt_hash::fold61(x);
            if hasher.level(x) == 0 {
                lvl0 = Some(x);
                break;
            }
        }
        let lvl0 = lvl0.expect("a level-0 label exists");
        assert_eq!(t.insert(lvl0, ()), TrialInsert::Sampled);
        assert_eq!(t.insert(lvl0, ()), TrialInsert::Duplicate);
        // Fill to capacity with higher-level labels, forcing promotion;
        // lvl0 label is evicted and future inserts of it report BelowLevel.
        let mut inserted = 1;
        for x in 10_000..200_000u64 {
            let x = gt_hash::fold61(x);
            if hasher.level(x) >= 1 {
                t.insert(x, ());
                inserted += 1;
                if inserted > 3 {
                    break;
                }
            }
        }
        assert!(t.level() >= 1);
        assert_eq!(t.insert(lvl0, ()), TrialInsert::BelowLevel);
    }
}
