//! The multi-trial Gibbons–Tirthapura sketch: `r` independent coordinated
//! sampling trials combined by the median, giving the paper's
//! `(ε, δ)`-approximation of distinct-label aggregates.
//!
//! [`GtSketch`] is generic over the per-label payload `V`, and the payload
//! alone names what a sketch is for: [`DistinctSketch`] (`V = ()`,
//! distinct counting / F₀) here, [`crate::SumDistinctSketch`] (`V = u64`)
//! in [`crate::sumdistinct`], and [`crate::RecencySketch`]
//! (`V = LatestTs`) in [`crate::recency`].

use gt_hash::{HashFamily, SeedSequence};

use crate::delta::SortedTrials;
use crate::error::{Result, SketchError};
use crate::estimate::{median_f64, Estimate};
use crate::metrics::MetricsSnapshot;
use crate::params::SketchConfig;
use crate::trial::{CoordinatedTrial, Payload, SampleWatch, KERNEL_CHUNK};

/// An `r`-trial coordinated-sampling sketch over labels in `[0, 2^61 − 1)`
/// with per-label payloads `V`.
///
/// # Coordination contract
///
/// Sketches are mergeable iff they were created with the same
/// [`SketchConfig`] **and** the same master seed. Merging then produces
/// exactly the sketch a single observer of the concatenated streams would
/// hold — the union operation is lossless and insensitive to duplication
/// and ordering.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct GtSketch<V> {
    config: SketchConfig,
    master_seed: u64,
    trials: Vec<CoordinatedTrial<V>>,
    /// Observability counters (advisory; never feed the estimator, never
    /// travel on the wire). Every recording site is a `&mut self` method,
    /// so plain fields suffice.
    #[serde(skip)]
    metrics: MetricsSnapshot,
}

impl<V: Payload> GtSketch<V> {
    /// Create an empty sketch. Every party participating in a union must
    /// pass the same `config` and `master_seed`.
    pub fn new(config: &SketchConfig, master_seed: u64) -> Self {
        let seq: SeedSequence = config.seed_sequence(master_seed);
        let trials = (0..config.trials())
            .map(|t| {
                let hasher: HashFamily = config.hash_kind().build(seq.trial_seed(t));
                CoordinatedTrial::new(hasher, config.capacity())
            })
            .collect();
        GtSketch {
            config: *config,
            master_seed,
            trials,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// The sketch's configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// The master seed (the coordination token).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The per-trial state, for advanced estimators (similarity, predicate
    /// restriction) and for the test suite.
    pub fn trials(&self) -> &[CoordinatedTrial<V>] {
        &self.trials
    }

    /// Observe one `(label, payload)` item. A label already in a trial's
    /// sample reconciles its payload there as `stored.merge(incoming)`,
    /// the one arrival rule of [`Payload`]: union, delta and batch ingest
    /// follow it too, so a union of partial streams holds exactly what a
    /// single observer of their concatenation holds, payloads included.
    ///
    /// Labels must lie in `[0, 2^61 − 1)`; fold bigger identifiers through
    /// [`gt_hash::fold61`] or use [`GtSketch::insert_hashed`].
    #[inline]
    pub fn insert_with(&mut self, label: u64, payload: V) {
        self.insert_watched(label, payload, &mut ());
    }

    /// [`GtSketch::insert_with`], reporting sample changes to `watch`.
    #[inline]
    pub fn insert_watched(&mut self, label: u64, payload: V, watch: &mut impl SampleWatch<V>) {
        let m = &mut self.metrics;
        for (t, trial) in self.trials.iter_mut().enumerate() {
            watch.trial(t);
            let level_before = trial.level();
            m.count_insert(trial.insert_watched(label, payload, watch), 1);
            m.level_promotions += u64::from(trial.level() - level_before);
        }
    }

    /// Observe an item of any hashable type, folding it into the label
    /// universe with a fixed high-quality mixer (see `gt_hash::fold_label`).
    #[inline]
    pub fn insert_hashed<T: std::hash::Hash>(&mut self, item: &T, payload: V) {
        self.insert_with(gt_hash::mix::fold_label(item), payload);
    }

    /// Batch counterpart of [`GtSketch::insert_with`]: observe
    /// `(label, payload)` items through the trial kernel, so
    /// payload-carrying workloads get the same fast path as plain
    /// distinct counting. Bitwise-identical (samples, payloads, levels,
    /// and metric snapshots) to the per-item loop.
    ///
    /// The batch is gathered once per [`KERNEL_CHUNK`] items into label
    /// and payload arrays shared by every trial, and each trial runs the
    /// chunk through the trial kernel (the one label ingest and union
    /// use): labels are hashed in bulk with the hash-family enum
    /// dispatched once per chunk, and below-level items are screened out
    /// a bitmap word at a time against the raw hashes. The per-item vs
    /// batched vs kernel gap is measured by experiment `e4`
    /// (`experiments e4`, checked in-binary with `Table::check`).
    pub fn insert_batch_with(&mut self, items: &[(u64, V)]) {
        self.insert_batch_watched(items, &mut ());
    }

    /// [`GtSketch::insert_batch_with`], reporting sample changes to
    /// `watch`.
    pub fn insert_batch_watched(&mut self, items: &[(u64, V)], watch: &mut impl SampleWatch<V>) {
        let mut labels = [0u64; KERNEL_CHUNK];
        let mut payloads = [V::default(); KERNEL_CHUNK];
        let mut hashes = [0u64; KERNEL_CHUNK];
        for chunk in items.chunks(KERNEL_CHUNK) {
            for (i, &(label, payload)) in chunk.iter().enumerate() {
                labels[i] = label;
                payloads[i] = payload;
            }
            let n = chunk.len();
            for (t, trial) in self.trials.iter_mut().enumerate() {
                watch.trial(t);
                let (labels, payloads) = (&labels[..n], &payloads[..n]);
                trial.extend_kernel(labels, payloads, &mut hashes, &mut self.metrics, watch);
            }
        }
    }

    /// Number of items observed (duplicates included).
    pub fn items_observed(&self) -> u64 {
        self.trials.first().map_or(0, |t| t.items_observed())
    }

    /// Highest sampling level across trials (diagnostics; grows as
    /// `log₂(F₀/c)`).
    pub fn max_level(&self) -> u8 {
        self.trials.iter().map(|t| t.level()).max().unwrap_or(0)
    }

    /// Total sampled entries across trials (≤ `trials · capacity`).
    pub fn sample_entries(&self) -> usize {
        self.trials.iter().map(|t| t.sample_len()).sum()
    }

    /// Bytes of heap memory held by the samples (space accounting, E3).
    pub fn heap_bytes(&self) -> usize {
        self.trials.iter().map(|t| t.heap_bytes()).sum()
    }

    /// `(ε, δ)`-estimate of the number of **distinct labels** observed:
    /// the median over trials of `|Sᵢ| · 2^{lᵢ}`.
    pub fn estimate_distinct(&self) -> Estimate {
        self.median_over_trials(|t| t.estimate_distinct())
    }

    /// `(ε, δ)`-estimate of `Σ_{distinct x} weight(x, payload(x))`: the
    /// median over trials of `2^{lᵢ} · Σ_{x ∈ Sᵢ} weight(x, payload(x))`.
    /// Every simple function of the distinct labels is one weight:
    /// predicate counts, SumDistinct and recency are all this call.
    ///
    /// The estimator is unbiased for any weight function; the `(ε, δ)`
    /// *relative*-error contract carries over when weights are bounded
    /// (see `crate::sumdistinct` for the precise statement).
    pub fn estimate_weighted(&self, weight: impl Fn(u64, V) -> f64 + Copy) -> Estimate {
        self.median_over_trials(|t| t.estimate_weighted(weight))
    }

    /// The median over trials of a per-trial estimate, stamped with the
    /// config's `(ε, δ)`.
    fn median_over_trials(&self, per_trial: impl Fn(&CoordinatedTrial<V>) -> f64) -> Estimate {
        let mut values: Vec<f64> = self.trials.iter().map(per_trial).collect();
        Estimate {
            value: median_f64(&mut values),
            epsilon: self.config.epsilon(),
            delta: self.config.delta(),
        }
    }

    /// Merge `other` into `self` (the referee's union step).
    ///
    /// # Errors
    /// [`SketchError::SeedMismatch`] or [`SketchError::ConfigMismatch`] if
    /// the sketches are not coordinated.
    pub fn merge_from(&mut self, other: &GtSketch<V>) -> Result<()> {
        self.check_coordinated(other)?;
        self.metrics.merge_calls += 1;
        for (mine, theirs) in self.trials.iter_mut().zip(&other.trials) {
            mine.merge_from(theirs, &mut self.metrics)?;
        }
        Ok(())
    }

    /// Union via the per-entry reference path (one re-hash and one map
    /// probe per incoming entry) instead of the trial kernel. Same checks,
    /// same counters, bitwise-identical result — kept as the equivalence
    /// oracle for tests and as the `sequential reference` contender in
    /// experiment `e19`.
    ///
    /// # Errors
    /// As [`GtSketch::merge_from`].
    pub fn merge_from_reference(&mut self, other: &GtSketch<V>) -> Result<()> {
        self.check_coordinated(other)?;
        self.metrics.merge_calls += 1;
        for (mine, theirs) in self.trials.iter_mut().zip(&other.trials) {
            mine.merge_from_reference(theirs, &mut self.metrics)?;
        }
        Ok(())
    }

    /// The coordination check every operation combining two sketches
    /// runs: same master seed, then same config.
    ///
    /// # Errors
    /// [`SketchError::SeedMismatch`] or [`SketchError::ConfigMismatch`].
    pub(crate) fn check_coordinated(&self, other: &GtSketch<V>) -> Result<()> {
        if self.master_seed != other.master_seed {
            return Err(SketchError::SeedMismatch);
        }
        if self.config != other.config {
            return Err(SketchError::ConfigMismatch {
                detail: format!("{:?} vs {:?}", self.config, other.config),
            });
        }
        Ok(())
    }

    /// Absorb a party's **refreshed** state, given as the delta from a
    /// state of the party's already merged into `self` (a full state is
    /// the delta from the empty one).
    ///
    /// Samples, levels and payloads merge exactly as
    /// [`GtSketch::merge_from`]: by the cumulative-stream argument in
    /// [`crate::delta`], the union already holds every surviving entry of
    /// the older state. Item counters would double-count, so this adds
    /// the delta's absolute counters and debits the older state's
    /// (`old_trial_items`, read before the refresh): the union's counters
    /// stay equal to "each party's latest state merged exactly once",
    /// which the monitoring plane's canonical-bytes oracle relies on.
    ///
    /// # Errors
    /// [`SketchError::ConfigMismatch`] if `new` or `old_trial_items` does
    /// not cover every trial. Entries are not checked against the hashes:
    /// a referee checks them when it decodes them.
    pub fn merge_refresh_from(
        &mut self,
        new: &SortedTrials<V>,
        old_trial_items: &[u64],
    ) -> Result<()> {
        let trials = self.trials.len();
        if new.trials() != trials || old_trial_items.len() != trials {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "refresh carries {} trials and {} old item counters for {trials} trials",
                    new.trials(),
                    old_trial_items.len(),
                ),
            });
        }
        self.metrics.merge_calls += 1;
        let refreshed = self.trials.iter_mut().zip(new.iter()).zip(old_trial_items);
        for ((trial, (level, items, entries)), &old) in refreshed {
            trial.merge_entries(level, items, entries.iter().copied(), &mut self.metrics);
            trial.debit_items(old);
        }
        Ok(())
    }

    /// Union of two sketches as a new sketch.
    pub fn merged(&self, other: &GtSketch<V>) -> Result<GtSketch<V>> {
        let mut out = self.clone();
        out.merge_from(other)?;
        Ok(out)
    }

    /// Reload trial `index` with transmitted state, reusing its sample
    /// storage (see [`CoordinatedTrial::reload`]): the one checked loader
    /// that rebuilds a sketch from per-trial state — the wire codec's
    /// sketch decoder, `gt-store`'s packed slots and compaction.
    ///
    /// On `Err` the trial's state is unspecified; the sketch must be
    /// fully reloaded (or discarded) before use.
    ///
    /// # Errors
    /// [`SketchError::ConfigMismatch`] if `index` is out of range, plus
    /// everything [`CoordinatedTrial::reload`] rejects.
    pub fn reload_trial(
        &mut self,
        index: usize,
        level: u8,
        items_observed: u64,
        entries: impl IntoIterator<Item = (u64, V)>,
    ) -> Result<()> {
        let trial = self
            .trials
            .get_mut(index)
            .ok_or_else(|| SketchError::ConfigMismatch {
                detail: format!(
                    "trial index {index} out of range for {} trials",
                    self.config.trials()
                ),
            })?;
        trial.reload(level, items_observed, entries)
    }

    /// Reset every trial to the empty level-0 state, keeping the allocated
    /// sample storage.
    ///
    /// This is what makes pooled sketches reusable: `gt-store`'s scratch
    /// sketch is cleared and refilled for a different key instead of
    /// being rebuilt with [`GtSketch::new`] (which re-walks the
    /// whole seed schedule) or cloned (which re-allocates every sample
    /// table). A cleared sketch is bitwise-indistinguishable from a
    /// freshly constructed one with the same config and seed, counters
    /// included.
    pub fn clear(&mut self) {
        for trial in &mut self.trials {
            trial
                .reload(0, 0, std::iter::empty())
                .expect("reloading a trial to the empty level-0 state cannot fail");
        }
        self.metrics = MetricsSnapshot::default();
    }

    /// Raise every trial's sampling level to at least `other`'s, returning
    /// the number of per-trial level steps adopted.
    ///
    /// This is the level-adoption half of the concurrent writer protocol
    /// (see [`crate::concurrent`]): after propagating into the shared
    /// global sketch, a writer aligns its fresh local buffer to the
    /// global's levels so labels the global would reject anyway are
    /// filtered by the cheap below-level mask instead of occupying local
    /// sample slots. Coordination makes this lossless for the eventual
    /// union: a label discarded locally because `lvl(x) < adopted level`
    /// would be discarded by [`GtSketch::merge_from`]'s level alignment
    /// when the buffer reaches the global sketch, since global levels are
    /// monotone and already ≥ the adopted level.
    ///
    /// # Errors
    /// [`SketchError::SeedMismatch`] or [`SketchError::ConfigMismatch`] if
    /// the sketches are not coordinated (same rules as merging).
    pub fn align_levels_to(&mut self, other: &GtSketch<V>) -> Result<u64> {
        self.check_coordinated(other)?;
        let mut adopted = 0u64;
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            if theirs.level() > mine.level() {
                adopted += u64::from(theirs.level() - mine.level());
                mine.subsample_to_level(theirs.level());
            }
        }
        self.metrics.level_promotions += adopted;
        Ok(adopted)
    }

    /// A copy of the observability counters (see [`crate::metrics`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
    }
}

/// The paper's headline object: an `(ε, δ)` distinct-count (F₀) sketch.
pub type DistinctSketch = GtSketch<()>;

impl DistinctSketch {
    /// Observe a label.
    #[inline]
    pub fn insert(&mut self, label: u64) {
        self.insert_with(label, ());
    }

    /// Observe every label from an iterator.
    ///
    /// Labels are gathered into an internal fixed-size stack buffer
    /// ([`INGEST_BUF`] entries) and each full buffer is driven through the
    /// batch-monomorphic kernel, so iterator callers get the same fast
    /// path as [`DistinctSketch::extend_slice`] without allocating. Per
    /// the coordination contract the resulting sketch state is
    /// bitwise-identical to inserting each label individually.
    pub fn extend_labels(&mut self, labels: impl IntoIterator<Item = u64>) {
        let mut buf = [0u64; INGEST_BUF];
        let mut len = 0usize;
        for label in labels {
            buf[len] = label;
            len += 1;
            if len == INGEST_BUF {
                self.extend_slice(&buf);
                len = 0;
            }
        }
        if len > 0 {
            self.extend_slice(&buf[..len]);
        }
    }

    /// Observe a slice of labels through the batch-monomorphic kernel —
    /// the fastest bulk-ingest path (see [`GtSketch::insert_batch_with`]
    /// for the kernel description; experiment `e4` for the numbers).
    pub fn extend_slice(&mut self, labels: &[u64]) {
        self.extend_slice_watched(labels, &mut ());
    }

    /// [`DistinctSketch::extend_slice`], reporting sample changes to
    /// `watch`.
    pub fn extend_slice_watched(&mut self, labels: &[u64], watch: &mut impl SampleWatch<()>) {
        let mut hashes = [0u64; KERNEL_CHUNK];
        for (t, trial) in self.trials.iter_mut().enumerate() {
            watch.trial(t);
            for chunk in labels.chunks(KERNEL_CHUNK) {
                let units = &[(); KERNEL_CHUNK][..chunk.len()];
                trial.extend_kernel(chunk, units, &mut hashes, &mut self.metrics, watch);
            }
        }
    }

    /// Observe a slice with the *pre-kernel* trial-major loop: plain
    /// per-item `insert` calls, interchanged so each trial sweeps the
    /// whole slice. Kept as the documented reference implementation the
    /// kernel is tested against, and as the `batched` contender in
    /// experiment `e4`; use [`DistinctSketch::extend_slice`] for real
    /// ingest.
    pub fn extend_slice_reference(&mut self, labels: &[u64]) {
        let m = &mut self.metrics;
        for trial in &mut self.trials {
            let level_before = trial.level();
            for &label in labels {
                m.count_insert(trial.insert(label, ()), 1);
            }
            m.level_promotions += u64::from(trial.level() - level_before);
        }
    }
}

/// Stack-buffer length used by [`DistinctSketch::extend_labels`] to feed
/// iterator input through the batch kernel (8 KiB of labels).
pub const INGEST_BUF: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recency::LatestTs;
    use std::fmt::Debug;

    fn cfg(eps: f64, delta: f64) -> SketchConfig {
        SketchConfig::new(eps, delta).unwrap()
    }

    fn labels(n: u64, salt: u64) -> impl Iterator<Item = u64> {
        (0..n)
            .map(move |i| gt_hash::fold61(i.wrapping_add(salt.wrapping_mul(0x5851_F42D_4C95_7F2D))))
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = DistinctSketch::new(&cfg(0.1, 0.1), 1);
        assert_eq!(s.estimate_distinct().value, 0.0);
        assert_eq!(s.items_observed(), 0);
        assert_eq!(s.max_level(), 0);
    }

    #[test]
    fn small_cardinalities_are_exact() {
        let mut s = DistinctSketch::new(&cfg(0.1, 0.1), 2);
        s.extend_labels(labels(100, 0));
        assert_eq!(s.estimate_distinct().value, 100.0);
    }

    #[test]
    fn estimate_within_epsilon_for_large_sets() {
        let mut s = DistinctSketch::new(&cfg(0.1, 0.05), 3);
        let n = 50_000;
        s.extend_labels(labels(n, 1));
        let est = s.estimate_distinct();
        let rel = (est.value - n as f64).abs() / n as f64;
        assert!(rel < 0.1, "rel err {rel}");
        assert!(est.lower_bound() <= n as f64 && n as f64 <= est.upper_bound());
    }

    #[test]
    fn duplicates_are_free() {
        let mut once = DistinctSketch::new(&cfg(0.1, 0.1), 4);
        let mut thrice = DistinctSketch::new(&cfg(0.1, 0.1), 4);
        let v: Vec<u64> = labels(10_000, 2).collect();
        once.extend_labels(v.iter().copied());
        for _ in 0..3 {
            thrice.extend_labels(v.iter().copied());
        }
        assert_eq!(
            once.estimate_distinct().value,
            thrice.estimate_distinct().value
        );
        assert_eq!(once.sample_entries(), thrice.sample_entries());
    }

    #[test]
    fn merge_matches_single_observer() {
        let config = cfg(0.1, 0.1);
        let mut a = DistinctSketch::new(&config, 5);
        let mut b = DistinctSketch::new(&config, 5);
        let mut whole = DistinctSketch::new(&config, 5);
        let va: Vec<u64> = labels(20_000, 3).collect();
        let vb: Vec<u64> = labels(20_000, 4).collect();
        a.extend_labels(va.iter().copied());
        b.extend_labels(vb.iter().copied());
        whole.extend_labels(va.iter().copied());
        whole.extend_labels(vb.iter().copied());
        let union = a.merged(&b).unwrap();
        assert_eq!(
            union.estimate_distinct().value,
            whole.estimate_distinct().value
        );
        assert_eq!(union.sample_entries(), whole.sample_entries());
        assert_eq!(union.max_level(), whole.max_level());
    }

    #[test]
    fn merge_is_commutative() {
        let config = cfg(0.15, 0.2);
        let mut a = DistinctSketch::new(&config, 6);
        let mut b = DistinctSketch::new(&config, 6);
        a.extend_labels(labels(5_000, 5));
        b.extend_labels(labels(5_000, 6));
        let ab = a.merged(&b).unwrap();
        let ba = b.merged(&a).unwrap();
        assert_eq!(ab.estimate_distinct().value, ba.estimate_distinct().value);
        assert_eq!(ab.sample_entries(), ba.sample_entries());
    }

    #[test]
    fn merge_is_idempotent() {
        let config = cfg(0.1, 0.1);
        let mut a = DistinctSketch::new(&config, 7);
        a.extend_labels(labels(8_000, 7));
        let aa = a.merged(&a).unwrap();
        assert_eq!(aa.estimate_distinct().value, a.estimate_distinct().value);
        assert_eq!(aa.sample_entries(), a.sample_entries());
    }

    #[test]
    fn merge_rejects_different_seeds_and_configs() {
        let config = cfg(0.1, 0.1);
        let a = DistinctSketch::new(&config, 1);
        let b = DistinctSketch::new(&config, 2);
        assert_eq!(a.merged(&b).unwrap_err(), SketchError::SeedMismatch);
        let c = DistinctSketch::new(&cfg(0.2, 0.1), 1);
        assert!(matches!(
            a.merged(&c).unwrap_err(),
            SketchError::ConfigMismatch { .. }
        ));
    }

    #[test]
    fn align_levels_then_merge_matches_single_observer() {
        // A writer that adopts the global's levels before buffering more
        // labels must still produce the exact single-observer union: the
        // labels its aligned buffer rejects as below-level are precisely
        // the ones merge-time level alignment would have discarded.
        let config = cfg(0.1, 0.1);
        let va: Vec<u64> = labels(120_000, 50).collect();
        let vb: Vec<u64> = labels(40_000, 51).collect();

        let mut global = DistinctSketch::new(&config, 52);
        global.extend_labels(va.iter().copied());
        assert!(global.max_level() > 0, "need promotions for this test");

        let mut aligned = DistinctSketch::new(&config, 52);
        let adopted = aligned.align_levels_to(&global).unwrap();
        assert!(adopted > 0);
        assert_eq!(aligned.max_level(), global.max_level());
        aligned.extend_labels(vb.iter().copied());
        global.merge_from(&aligned).unwrap();

        let mut whole = DistinctSketch::new(&config, 52);
        whole.extend_labels(va.iter().copied());
        whole.extend_labels(vb.iter().copied());

        let state = |s: &DistinctSketch| -> Vec<(u8, u64, std::collections::BTreeSet<u64>)> {
            s.trials()
                .iter()
                .map(|t| {
                    (
                        t.level(),
                        t.items_observed(),
                        t.sample_iter().map(|(k, _)| k).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(state(&global), state(&whole));

        // Alignment is coordination-checked like merging.
        let mut stranger = DistinctSketch::new(&config, 99);
        assert_eq!(
            stranger.align_levels_to(&global).unwrap_err(),
            SketchError::SeedMismatch
        );
    }

    #[test]
    fn insert_hashed_accepts_arbitrary_types() {
        let mut s = DistinctSketch::new(&cfg(0.1, 0.1), 8);
        s.insert_hashed(&"alpha", ());
        s.insert_hashed(&"beta", ());
        s.insert_hashed(&"alpha", ());
        assert_eq!(s.estimate_distinct().value, 2.0);
    }

    #[test]
    fn space_is_bounded_by_config() {
        let config = cfg(0.1, 0.05);
        let mut s = DistinctSketch::new(&config, 9);
        s.extend_labels(labels(200_000, 8));
        assert!(s.sample_entries() <= config.max_sample_entries());
        // Heap bytes: trials × table slots × 8 bytes.
        let slots = crate::sampleset::FixedCapSet::table_len(config.capacity());
        assert!(s.heap_bytes() <= config.trials() * slots * 8);
    }

    #[test]
    fn batched_ingest_is_identical_to_per_item() {
        let config = cfg(0.2, 0.2);
        let data: Vec<u64> = labels(30_000, 11).collect();
        let mut per_item = DistinctSketch::new(&config, 12);
        per_item.extend_labels(data.iter().copied());
        let mut batched = DistinctSketch::new(&config, 12);
        batched.extend_slice(&data);
        let state = |s: &DistinctSketch| -> Vec<(u8, std::collections::BTreeSet<u64>)> {
            s.trials()
                .iter()
                .map(|t| (t.level(), t.sample_iter().map(|(k, _)| k).collect()))
                .collect()
        };
        assert_eq!(state(&batched), state(&per_item));
        assert_eq!(batched.items_observed(), per_item.items_observed());

        let mut pairs = GtSketch::<u64>::new(&config, 12);
        let items: Vec<(u64, u64)> = data.iter().map(|&l| (l, 1)).collect();
        pairs.insert_batch_with(&items);
        assert_eq!(
            pairs.estimate_distinct().value,
            per_item.estimate_distinct().value
        );
    }

    /// Feed `items` per item and as two batches; both must leave the same
    /// state and metric snapshot. Returns the per-item sketch.
    fn batch_matches_per_item<V: Payload + PartialEq + Debug>(items: &[(u64, V)]) -> GtSketch<V> {
        let config = cfg(0.2, 0.2);
        let mut per_item = GtSketch::new(&config, 41);
        for &(l, p) in items {
            per_item.insert_with(l, p);
        }
        let mut batched = GtSketch::new(&config, 41);
        let (head, tail) = items.split_at(items.len() / 2);
        batched.insert_batch_with(head);
        batched.insert_batch_with(tail);
        assert_eq!(SortedTrials::of(&batched), SortedTrials::of(&per_item));
        assert_eq!(batched.metrics_snapshot(), per_item.metrics_snapshot());
        per_item
    }

    #[test]
    fn every_ingest_path_agrees_on_state_and_metrics() {
        // Per-item inserts and the batch kernel must leave bitwise-identical
        // state, payloads included, and identical metric snapshots for
        // every payload. A second pass over the labels with new payloads
        // makes sampled labels arrive again, so keep-first `u64` and
        // keep-max `LatestTs` reconcile. For `()` the label-only paths —
        // the kernel, the reference trial-major loop and the buffered
        // iterator path (longer than INGEST_BUF, so its buffer flushes) —
        // must agree too.
        let pass: Vec<u64> = labels(3 * INGEST_BUF as u64 + 17, 40).collect();
        let twice = || pass.iter().chain(&pass).copied().zip(0u64..);
        batch_matches_per_item(&twice().map(|(l, i)| (l, l ^ i)).collect::<Vec<_>>());
        batch_matches_per_item(&twice().map(|(l, i)| (l, LatestTs(i))).collect::<Vec<_>>());
        let per_item = batch_matches_per_item(&twice().map(|(l, _)| (l, ())).collect::<Vec<_>>());

        let data: Vec<u64> = twice().map(|(l, _)| l).collect();
        let config = cfg(0.2, 0.2);
        let mut kernel = DistinctSketch::new(&config, 41);
        kernel.extend_slice(&data);
        let mut reference = DistinctSketch::new(&config, 41);
        reference.extend_slice_reference(&data);
        let mut buffered = DistinctSketch::new(&config, 41);
        buffered.extend_labels(data.iter().copied());
        for (name, s) in [
            ("kernel", &kernel),
            ("reference", &reference),
            ("buffered", &buffered),
        ] {
            assert_eq!(
                SortedTrials::of(s),
                SortedTrials::of(&per_item),
                "{name} state diverged"
            );
            assert_eq!(
                s.metrics_snapshot(),
                per_item.metrics_snapshot(),
                "{name} metrics diverged"
            );
        }
    }

    /// For every ingest entry and several cut points, the union of a
    /// sketch fed the stream's prefix and one fed the rest must equal a
    /// single observer of the whole stream, payloads included.
    fn union_of_any_split_is_a_single_observer<V: Payload + PartialEq + Debug>(items: &[(u64, V)]) {
        type Feed<V> = fn(&mut GtSketch<V>, &[(u64, V)]);
        let feeds: [(&str, Feed<V>); 4] = [
            ("insert_with", |s, items| {
                items.iter().for_each(|&(l, p)| s.insert_with(l, p))
            }),
            ("insert_hashed", |s, items| {
                items.iter().for_each(|&(l, p)| s.insert_hashed(&l, p))
            }),
            ("insert_watched", |s, items| {
                items
                    .iter()
                    .for_each(|&(l, p)| s.insert_watched(l, p, &mut ()))
            }),
            ("insert_batch_with", |s, items| s.insert_batch_with(items)),
        ];
        let config = cfg(0.1, 0.1);
        for (name, feed) in feeds {
            let mut single = GtSketch::new(&config, 21);
            feed(&mut single, items);
            for cut in [0, items.len() / 3, items.len() / 2, items.len()] {
                let (head, tail) = items.split_at(cut);
                let mut a = GtSketch::new(&config, 21);
                feed(&mut a, head);
                let mut b = GtSketch::new(&config, 21);
                feed(&mut b, tail);
                let union = a.merged(&b).unwrap();
                assert_eq!(
                    SortedTrials::of(&union),
                    SortedTrials::of(&single),
                    "{name}, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn union_reconciles_payloads_like_a_single_observer() {
        // Every arrival of a sampled label leaves `stored.merge(incoming)`,
        // on every ingest path and in the union. Keep-first `u64` fails if
        // the union reconciles in the other argument order; keep-max
        // `LatestTs` fails if an ingest path keeps the stored payload
        // instead of merging. Two passes over the labels make every
        // sampled label arrive again with a new payload.
        let pass: Vec<u64> = labels(2_000, 20).collect();
        let twice = || pass.iter().chain(&pass).copied().zip(0u64..);
        union_of_any_split_is_a_single_observer(
            &twice().map(|(l, i)| (l, l ^ i)).collect::<Vec<_>>(),
        );
        union_of_any_split_is_a_single_observer(
            &twice().map(|(l, i)| (l, LatestTs(i))).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn metrics_track_inserts_promotions_and_merges() {
        let config = cfg(0.2, 0.2);
        let trials = config.trials() as u64;
        let v: Vec<u64> = labels(1_000, 30).collect();

        let mut a = DistinctSketch::new(&config, 31);
        a.extend_slice(&v);
        let snap = a.metrics_snapshot();
        assert_eq!(snap.trial_inserts(), 1_000 * trials);
        assert!(snap.inserts_sampled > 0);

        // A second pass is all duplicates / below-level.
        a.extend_labels(v.iter().copied());
        let snap = a.metrics_snapshot();
        assert_eq!(snap.trial_inserts(), 2_000 * trials);
        assert!(snap.inserts_duplicate > 0);

        // Promotions recorded must match the levels actually reached.
        let mut big = DistinctSketch::new(&config, 32);
        big.extend_labels(labels(100_000, 33));
        let total_levels: u64 = big.trials().iter().map(|t| u64::from(t.level())).sum();
        assert!(total_levels > 0, "100k labels must promote somewhere");
        assert_eq!(big.metrics_snapshot().level_promotions, total_levels);

        // Union accounting.
        let mut b = DistinctSketch::new(&config, 31);
        b.extend_labels(labels(1_000, 34));
        let before = a.metrics_snapshot();
        a.merge_from(&b).unwrap();
        let after = a.metrics_snapshot();
        assert_eq!(after.merge_calls, before.merge_calls + 1);
        assert!(after.merge_entries_absorbed > 0);

        // The donor sketch's counters are untouched by being read from.
        assert_eq!(b.metrics_snapshot().merge_calls, 0);
    }

    #[test]
    fn reference_union_matches_kernel_union_bitwise() {
        let config = cfg(0.1, 0.1);
        let mut a = GtSketch::<u64>::new(&config, 60);
        let mut b = GtSketch::<u64>::new(&config, 60);
        for (i, l) in labels(30_000, 61).enumerate() {
            a.insert_with(l, i as u64);
        }
        for (i, l) in labels(30_000, 62).enumerate() {
            b.insert_with(l, (i as u64) ^ 0xBEEF);
        }
        let mut via_kernel = a.clone();
        via_kernel.merge_from(&b).unwrap();
        let mut via_reference = a.clone();
        via_reference.merge_from_reference(&b).unwrap();
        let state = |s: &GtSketch<u64>| -> Vec<(u8, u64, std::collections::BTreeMap<u64, u64>)> {
            s.trials()
                .iter()
                .map(|t| (t.level(), t.items_observed(), t.sample_iter().collect()))
                .collect()
        };
        assert_eq!(state(&via_kernel), state(&via_reference));
        assert_eq!(
            via_kernel.metrics_snapshot(),
            via_reference.metrics_snapshot(),
            "merge metrics must agree entry for entry"
        );
    }

    #[test]
    fn reload_trial_refills_in_place() {
        let config = cfg(0.2, 0.2);
        let mut donor = DistinctSketch::new(&config, 70);
        donor.extend_labels(labels(5_000, 71));
        let mut fresh = DistinctSketch::new(&config, 70);
        let mut pooled = DistinctSketch::new(&config, 70);
        pooled.extend_labels(labels(900, 72)); // dirty the pooled storage
        for (i, t) in donor.trials().iter().enumerate() {
            fresh
                .reload_trial(i, t.level(), t.items_observed(), t.sample_iter())
                .unwrap();
            pooled
                .reload_trial(i, t.level(), t.items_observed(), t.sample_iter())
                .unwrap();
        }
        let state = |s: &DistinctSketch| -> Vec<(u8, u64, std::collections::BTreeSet<u64>)> {
            s.trials()
                .iter()
                .map(|t| {
                    (
                        t.level(),
                        t.items_observed(),
                        t.sample_iter().map(|(k, _)| k).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(state(&pooled), state(&fresh));
        assert_eq!(state(&pooled), state(&donor));
        // Out-of-range index is an error, not a panic.
        assert!(matches!(
            pooled.reload_trial(usize::MAX, 0, 0, vec![]),
            Err(SketchError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn clear_restores_the_freshly_built_state() {
        let config = cfg(0.2, 0.2);
        let fresh = DistinctSketch::new(&config, 73);
        let mut used = DistinctSketch::new(&config, 73);
        used.extend_labels(labels(5_000, 74));
        assert!(used.sample_entries() > 0 && used.max_level() > 0);
        used.clear();
        let state = |s: &DistinctSketch| -> Vec<(u8, u64, usize)> {
            s.trials()
                .iter()
                .map(|t| (t.level(), t.items_observed(), t.sample_len()))
                .collect()
        };
        assert_eq!(state(&used), state(&fresh));
        assert_eq!(used.items_observed(), 0);
        assert_eq!(used.metrics_snapshot(), fresh.metrics_snapshot());
        // A cleared sketch behaves exactly like a fresh one from here on.
        let mut refilled = fresh.clone();
        refilled.extend_labels(labels(800, 75));
        used.extend_labels(labels(800, 75));
        assert_eq!(state(&used), state(&refilled));
        assert_eq!(
            used.estimate_distinct().value,
            refilled.estimate_distinct().value
        );
    }

    #[test]
    fn items_observed_counts_everything() {
        let mut s = DistinctSketch::new(&cfg(0.2, 0.2), 11);
        s.extend_labels(labels(50, 10));
        s.extend_labels(labels(50, 10));
        assert_eq!(s.items_observed(), 100);
    }

    impl<V: Payload> GtSketch<V> {
        /// Mutable trials, for the reference delta apply.
        pub(crate) fn trials_mut(&mut self) -> &mut [CoordinatedTrial<V>] {
            &mut self.trials
        }
    }
}
