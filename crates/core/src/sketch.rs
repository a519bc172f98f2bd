//! The multi-trial Gibbons–Tirthapura sketch: `r` independent coordinated
//! sampling trials combined by the median, giving the paper's
//! `(ε, δ)`-approximation of distinct-label aggregates.
//!
//! [`GtSketch`] is generic over the per-label payload `V`; the common
//! instantiations have friendly aliases and wrappers:
//! [`DistinctSketch`] (`V = ()`, distinct counting / F₀) here, and
//! `SumDistinctSketch` in [`crate::sumdistinct`].

use gt_hash::{HashFamily, SeedSequence};

use crate::error::{Result, SketchError};
use crate::estimate::{median_f64, Estimate};
use crate::metrics::{InsertTally, MetricsSnapshot, SketchMetrics};
use crate::params::SketchConfig;
use crate::trial::{CoordinatedTrial, Payload, TrialInsert};

/// Transmitted state of one trial: `(level, items observed, sample
/// entries)` — the wire codec's unit of exchange.
pub type TrialState<V> = (u8, u64, Vec<(u64, V)>);

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
    /// travel on the wire).
    #[serde(skip)]
    metrics: SketchMetrics,
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
            metrics: SketchMetrics::new(),
        }
    }

    /// Reassemble a sketch from transmitted per-trial states (the decode
    /// side of a wire codec): for each trial, its level, item count, and
    /// sample entries. Hash functions are rebuilt from `(config,
    /// master_seed)`, so only sample contents travel on the wire.
    ///
    /// # Errors
    /// Rejects trial counts that do not match the config and any per-trial
    /// state that violates the sample invariant.
    pub fn reassemble(
        config: &SketchConfig,
        master_seed: u64,
        trial_states: Vec<TrialState<V>>,
    ) -> Result<Self> {
        if trial_states.len() != config.trials() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "message carries {} trials, config expects {}",
                    trial_states.len(),
                    config.trials()
                ),
            });
        }
        let seq = config.seed_sequence(master_seed);
        let trials = trial_states
            .into_iter()
            .enumerate()
            .map(|(t, (level, items, entries))| {
                let hasher = config.hash_kind().build(seq.trial_seed(t));
                CoordinatedTrial::from_parts(hasher, config.capacity(), level, items, entries)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(GtSketch {
            config: *config,
            master_seed,
            trials,
            metrics: SketchMetrics::new(),
        })
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

    /// Observe one `(label, payload)` item.
    ///
    /// Labels must lie in `[0, 2^61 − 1)`; fold bigger identifiers through
    /// [`gt_hash::fold61`] or use [`GtSketch::insert_hashed`].
    ///
    /// Metrics are tallied on the stack across the trial loop and flushed
    /// once, so the per-item cost is one or two atomic RMWs total instead
    /// of two per trial.
    #[inline]
    pub fn insert_with(&mut self, label: u64, payload: V) {
        let mut tally = InsertTally::default();
        for trial in &mut self.trials {
            let level_before = trial.level();
            tally.record(trial.insert(label, payload));
            tally.promotions += u64::from(trial.level() - level_before);
        }
        self.metrics.record_insert_tally(&tally);
    }

    /// Observe an item of any hashable type, folding it into the label
    /// universe with a fixed high-quality mixer (see `gt_hash::fold_label`).
    #[inline]
    pub fn insert_hashed<T: std::hash::Hash>(&mut self, item: &T, payload: V) {
        self.insert_with(gt_hash::mix::fold_label(item), payload);
    }

    /// Observe one `(label, payload)` item, merging the payload into the
    /// stored one on duplicate arrivals (see
    /// [`CoordinatedTrial::insert_merging`]). Metrics are tallied on the
    /// stack and flushed once, like [`GtSketch::insert_with`].
    #[inline]
    pub fn insert_merging_with(&mut self, label: u64, payload: V) {
        let mut tally = InsertTally::default();
        for trial in &mut self.trials {
            let level_before = trial.level();
            let outcome = trial.insert_merging(label, payload);
            tally.record(outcome);
            if outcome == TrialInsert::Duplicate {
                tally.local_reconciliations += 1;
            }
            tally.promotions += u64::from(trial.level() - level_before);
        }
        self.metrics.record_insert_tally(&tally);
    }

    /// Observe a batch of `(label, payload)` items with trial-major loop
    /// order: each trial sweeps the whole batch before the next trial
    /// runs.
    ///
    /// Semantically identical to calling [`GtSketch::insert_with`] per
    /// item (each trial is independent, and within one trial the item
    /// order is preserved), but each trial runs the batch-monomorphic
    /// kernel ([`CoordinatedTrial::extend_pairs_kernel`]): labels are
    /// hashed in bulk with the hash-family enum dispatched once per
    /// [`crate::trial::KERNEL_CHUNK`] labels, below-level items are
    /// rejected by one compare against the raw hash, and the trial's
    /// coefficients and sample table stay hot for the whole batch. The
    /// per-item vs batched vs kernel gap is measured by experiment `e4`
    /// (`experiments e4`, results in `results/BENCH_ingest.json`).
    pub fn insert_batch_with(&mut self, items: &[(u64, V)]) {
        let mut tally = InsertTally::default();
        for trial in &mut self.trials {
            trial.extend_pairs_kernel::<false>(items, &mut tally);
        }
        self.metrics.record_insert_tally(&tally);
    }

    /// Batch counterpart of [`GtSketch::insert_merging_with`]: observe
    /// `(label, payload)` items through the kernel, reconciling duplicate
    /// arrivals as `stored.merge(incoming)` — so payload-carrying
    /// workloads get the same fast path as plain distinct counting.
    /// Bitwise-identical (samples, levels, and metric snapshots) to the
    /// per-item merging loop.
    pub fn insert_batch_merging_with(&mut self, items: &[(u64, V)]) {
        let mut tally = InsertTally::default();
        for trial in &mut self.trials {
            trial.extend_pairs_kernel::<true>(items, &mut tally);
        }
        self.metrics.record_insert_tally(&tally);
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
        let mut per_trial: Vec<f64> = self.trials.iter().map(|t| t.estimate_distinct()).collect();
        Estimate {
            value: median_f64(&mut per_trial),
            epsilon: self.config.epsilon(),
            delta: self.config.delta(),
        }
    }

    /// Median-of-trials estimate of `Σ_{distinct x} weight(x, payload(x))`.
    ///
    /// The estimator is unbiased for any weight function; the `(ε, δ)`
    /// *relative*-error contract carries over when weights are bounded
    /// (see `crate::sumdistinct` for the precise statement).
    pub fn estimate_weighted(&self, weight: impl Fn(u64, V) -> f64 + Copy) -> f64 {
        let mut per_trial: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.estimate_weighted(weight))
            .collect();
        median_f64(&mut per_trial)
    }

    /// Merge `other` into `self` (the referee's union step).
    ///
    /// # Errors
    /// [`SketchError::SeedMismatch`] or [`SketchError::ConfigMismatch`] if
    /// the sketches are not coordinated.
    pub fn merge_from(&mut self, other: &GtSketch<V>) -> Result<()> {
        if self.master_seed != other.master_seed {
            return Err(SketchError::SeedMismatch);
        }
        if self.config != other.config {
            return Err(SketchError::ConfigMismatch {
                detail: format!("{:?} vs {:?}", self.config, other.config),
            });
        }
        self.metrics.record_merge_call();
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            let report = mine.merge_from(theirs)?;
            self.metrics.record_trial_merge(&report);
        }
        Ok(())
    }

    /// Union via the per-entry reference path
    /// ([`CoordinatedTrial::merge_from_reference`]) instead of the bulk
    /// kernel. Same checks, same metrics recording, bitwise-identical
    /// result — kept as the equivalence oracle for tests and as the
    /// `sequential reference` contender in experiment `e19`.
    ///
    /// # Errors
    /// As [`GtSketch::merge_from`].
    pub fn merge_from_reference(&mut self, other: &GtSketch<V>) -> Result<()> {
        if self.master_seed != other.master_seed {
            return Err(SketchError::SeedMismatch);
        }
        if self.config != other.config {
            return Err(SketchError::ConfigMismatch {
                detail: format!("{:?} vs {:?}", self.config, other.config),
            });
        }
        self.metrics.record_merge_call();
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            let report = mine.merge_from_reference(theirs)?;
            self.metrics.record_trial_merge(&report);
        }
        Ok(())
    }

    /// Absorb a party's **refreshed** snapshot when an older snapshot
    /// from the same party has already been merged into `self`.
    ///
    /// Sample sets, levels, and payloads merge exactly as
    /// [`GtSketch::merge_from`] — by the cumulative-stream argument in
    /// [`crate::delta`], having merged the stale snapshot earlier leaves
    /// the union's final sample bitwise identical to merging only the
    /// latest one. The item counters would double-count, though, so this
    /// variant debits the old snapshot's per-trial item counts
    /// (`old_trial_items`, read from
    /// [`CoordinatedTrial::items_observed`] before the refresh): the
    /// union's counters stay equal to "each party's latest snapshot
    /// merged exactly once", which the continuous-monitoring plane's
    /// canonical-bytes equivalence oracle relies on.
    ///
    /// # Errors
    /// Everything [`GtSketch::merge_from`] rejects, plus
    /// [`SketchError::ConfigMismatch`] if `old_trial_items` does not
    /// cover every trial.
    pub fn merge_refresh_from(&mut self, new: &GtSketch<V>, old_trial_items: &[u64]) -> Result<()> {
        if old_trial_items.len() != self.trials.len() {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "refresh carries {} old item counters for {} trials",
                    old_trial_items.len(),
                    self.trials.len()
                ),
            });
        }
        self.merge_from(new)?;
        for (trial, &old) in self.trials.iter_mut().zip(old_trial_items) {
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

    /// In-place counterpart of [`GtSketch::reassemble`] for one trial:
    /// reload trial `index` with transmitted state, reusing its sample
    /// storage (see [`CoordinatedTrial::reload`]). The referee's decode
    /// arena calls this once per wire trial to refill a pooled sketch
    /// without allocating.
    ///
    /// On `Err` the trial's state is unspecified; the sketch must be
    /// fully reloaded (or discarded) before use.
    ///
    /// # Errors
    /// [`SketchError::ConfigMismatch`] if `index` is out of range, plus
    /// everything [`CoordinatedTrial::from_parts`] rejects.
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
    /// and hot-tier sketches are cleared and refilled for a different key
    /// instead of being rebuilt with [`GtSketch::new`] (which re-walks the
    /// whole seed schedule) or cloned (which re-allocates every sample
    /// table). A cleared sketch is bitwise-indistinguishable from a
    /// freshly constructed one with the same config and seed.
    pub fn clear(&mut self) {
        for trial in &mut self.trials {
            trial
                .reload(0, 0, std::iter::empty())
                .expect("reloading a trial to the empty level-0 state cannot fail");
        }
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
        if self.master_seed != other.master_seed {
            return Err(SketchError::SeedMismatch);
        }
        if self.config != other.config {
            return Err(SketchError::ConfigMismatch {
                detail: format!("{:?} vs {:?}", self.config, other.config),
            });
        }
        let mut adopted = 0u64;
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            if theirs.level() > mine.level() {
                adopted += u64::from(theirs.level() - mine.level());
                mine.subsample_to_level(theirs.level());
            }
        }
        self.metrics.record_promotions(adopted);
        Ok(adopted)
    }

    /// Live observability counters for this sketch (see
    /// [`crate::metrics`]).
    pub fn metrics(&self) -> &SketchMetrics {
        &self.metrics
    }

    /// Point-in-time copy of the observability counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
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
        let mut tally = InsertTally::default();
        let mut buf = [0u64; INGEST_BUF];
        let mut len = 0usize;
        for label in labels {
            buf[len] = label;
            len += 1;
            if len == INGEST_BUF {
                self.ingest_slice(&buf, &mut tally);
                len = 0;
            }
        }
        if len > 0 {
            self.ingest_slice(&buf[..len], &mut tally);
        }
        self.metrics.record_insert_tally(&tally);
    }

    /// Observe a slice of labels through the batch-monomorphic kernel —
    /// the fastest bulk-ingest path (see [`GtSketch::insert_batch_with`]
    /// for the kernel description; experiment `e4` for the numbers).
    pub fn extend_slice(&mut self, labels: &[u64]) {
        let mut tally = InsertTally::default();
        self.ingest_slice(labels, &mut tally);
        self.metrics.record_insert_tally(&tally);
    }

    /// Observe a slice with the *pre-kernel* trial-major loop: plain
    /// per-item `insert` calls, interchanged so each trial sweeps the
    /// whole slice. Kept as the documented reference implementation the
    /// kernel is tested against, and as the `batched` contender in
    /// experiment `e4`; use [`DistinctSketch::extend_slice`] for real
    /// ingest.
    pub fn extend_slice_reference(&mut self, labels: &[u64]) {
        let mut tally = InsertTally::default();
        for trial in &mut self.trials {
            let level_before = trial.level();
            for &label in labels {
                tally.record(trial.insert(label, ()));
            }
            tally.promotions += u64::from(trial.level() - level_before);
        }
        self.metrics.record_insert_tally(&tally);
    }

    /// Trial-major kernel sweep without the metrics flush (callers batch
    /// the flush across multiple slices).
    fn ingest_slice(&mut self, labels: &[u64], tally: &mut InsertTally) {
        for trial in &mut self.trials {
            trial.extend_labels_kernel(labels, tally);
        }
    }
}

/// Stack-buffer length used by [`DistinctSketch::extend_labels`] to feed
/// iterator input through the batch kernel (8 KiB of labels).
pub const INGEST_BUF: usize = 1024;

/// Outcome statistics from inserting a batch (diagnostics for tuning).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertStats {
    /// Items that entered at least one trial's sample.
    pub sampled: u64,
    /// Items that were duplicates in every trial they qualified for.
    pub duplicates: u64,
    /// Items below level in every trial.
    pub below_level: u64,
}

impl DistinctSketch {
    /// Insert a batch and report classification statistics (used by the
    /// ingest benchmarks to show where time goes).
    pub fn extend_labels_stats(&mut self, labels: impl IntoIterator<Item = u64>) -> InsertStats {
        let mut stats = InsertStats::default();
        let mut tally = InsertTally::default();
        for label in labels {
            let mut any_sampled = false;
            let mut any_dup = false;
            for trial in &mut self.trials {
                let level_before = trial.level();
                let outcome = trial.insert(label, ());
                tally.record(outcome);
                tally.promotions += u64::from(trial.level() - level_before);
                match outcome {
                    TrialInsert::Sampled | TrialInsert::SampledAfterPromotion => any_sampled = true,
                    TrialInsert::Duplicate => any_dup = true,
                    TrialInsert::BelowLevel | TrialInsert::EvictedByPromotion => {}
                }
            }
            if any_sampled {
                stats.sampled += 1;
            } else if any_dup {
                stats.duplicates += 1;
            } else {
                stats.below_level += 1;
            }
        }
        self.metrics.record_insert_tally(&tally);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn extend_stats_classifies_items() {
        let mut s = DistinctSketch::new(&cfg(0.3, 0.3), 10);
        let v: Vec<u64> = labels(100, 9).collect();
        let first = s.extend_labels_stats(v.iter().copied());
        assert_eq!(first.sampled, 100);
        let second = s.extend_labels_stats(v.iter().copied());
        assert_eq!(second.sampled, 0);
        assert_eq!(second.duplicates + second.below_level, 100);
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

    #[test]
    fn every_ingest_path_agrees_on_state_and_metrics() {
        // The kernel, the reference trial-major loop, the buffered
        // iterator path, and plain per-item inserts must all leave the
        // sketch in bitwise-identical state AND report identical metric
        // snapshots. Length > INGEST_BUF exercises the buffer flush.
        let config = cfg(0.2, 0.2);
        let data: Vec<u64> = labels(3 * INGEST_BUF as u64 + 17, 40).collect();

        let mut per_item = DistinctSketch::new(&config, 41);
        for &l in &data {
            per_item.insert(l);
        }
        let mut kernel = DistinctSketch::new(&config, 41);
        kernel.extend_slice(&data);
        let mut reference = DistinctSketch::new(&config, 41);
        reference.extend_slice_reference(&data);
        let mut buffered = DistinctSketch::new(&config, 41);
        buffered.extend_labels(data.iter().copied());

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
        let want_state = state(&per_item);
        let want_metrics = per_item.metrics_snapshot();
        for (name, s) in [
            ("kernel", &kernel),
            ("reference", &reference),
            ("buffered", &buffered),
        ] {
            assert_eq!(state(s), want_state, "{name} state diverged");
            assert_eq!(
                s.metrics_snapshot(),
                want_metrics,
                "{name} metrics diverged"
            );
        }
    }

    #[test]
    fn batch_merging_matches_per_item_merging() {
        let config = cfg(0.2, 0.2);
        let items: Vec<(u64, u64)> = labels(4_000, 42).map(|l| (l, l ^ 0x1234)).collect();
        // Two passes with different payloads so duplicates must reconcile.
        let second: Vec<(u64, u64)> = items.iter().map(|&(l, p)| (l, p ^ 0xFFFF)).collect();

        let mut per_item = GtSketch::<u64>::new(&config, 43);
        for &(l, p) in items.iter().chain(second.iter()) {
            per_item.insert_merging_with(l, p);
        }
        let mut batched = GtSketch::<u64>::new(&config, 43);
        batched.insert_batch_merging_with(&items);
        batched.insert_batch_merging_with(&second);

        let state = |s: &GtSketch<u64>| -> Vec<(u8, std::collections::BTreeMap<u64, u64>)> {
            s.trials()
                .iter()
                .map(|t| (t.level(), t.sample_iter().collect()))
                .collect()
        };
        assert_eq!(state(&batched), state(&per_item));
        assert_eq!(batched.metrics_snapshot(), per_item.metrics_snapshot());
    }

    #[test]
    fn union_reconciles_payloads_like_a_single_observer() {
        // Regression for the payload-merge asymmetry: u64's keep-first
        // `merge` is non-commutative, so this fails if the local duplicate
        // path and the union path reconcile in different argument orders.
        let config = cfg(0.1, 0.1);
        let seed = 21;
        let first: Vec<(u64, u64)> = labels(2_000, 20).map(|l| (l, l ^ 0xAAAA)).collect();
        let second: Vec<(u64, u64)> = first.iter().map(|&(l, _)| (l, l ^ 0x5555)).collect();

        // One observer sees both passes over the labels.
        let mut single = GtSketch::<u64>::new(&config, seed);
        for &(l, p) in first.iter().chain(second.iter()) {
            single.insert_merging_with(l, p);
        }

        // Two parties split the passes; the referee unions them.
        let mut a = GtSketch::<u64>::new(&config, seed);
        for &(l, p) in &first {
            a.insert_merging_with(l, p);
        }
        let mut b = GtSketch::<u64>::new(&config, seed);
        for &(l, p) in &second {
            b.insert_merging_with(l, p);
        }
        let union = a.merged(&b).unwrap();

        // Identical state means identical levels AND identical payloads —
        // union-equals-single-observer for payloads, not just labels.
        let state = |s: &GtSketch<u64>| -> Vec<(u8, std::collections::BTreeMap<u64, u64>)> {
            s.trials()
                .iter()
                .map(|t| (t.level(), t.sample_iter().collect()))
                .collect()
        };
        assert_eq!(state(&union), state(&single));
        assert_eq!(union.items_observed(), single.items_observed());
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
    fn metrics_count_local_reconciliations() {
        let config = cfg(0.2, 0.2);
        let mut s = GtSketch::<u64>::new(&config, 35);
        let label = gt_hash::fold61(7);
        s.insert_merging_with(label, 1);
        assert_eq!(s.metrics_snapshot().local_reconciliations, 0);
        s.insert_merging_with(label, 2);
        let snap = s.metrics_snapshot();
        // The duplicate reconciles once per trial (level 0 everywhere).
        assert_eq!(snap.local_reconciliations, config.trials() as u64);
        assert_eq!(snap.reconciliations(), snap.local_reconciliations);
    }

    #[test]
    fn reference_union_matches_kernel_union_bitwise() {
        let config = cfg(0.1, 0.1);
        let mut a = GtSketch::<u64>::new(&config, 60);
        let mut b = GtSketch::<u64>::new(&config, 60);
        for (i, l) in labels(30_000, 61).enumerate() {
            a.insert_merging_with(l, i as u64);
        }
        for (i, l) in labels(30_000, 62).enumerate() {
            b.insert_merging_with(l, (i as u64) ^ 0xBEEF);
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
        let states: Vec<TrialState<()>> = donor
            .trials()
            .iter()
            .map(|t| (t.level(), t.items_observed(), t.sample_iter().collect()))
            .collect();
        let reassembled = DistinctSketch::reassemble(&config, 70, states.clone()).unwrap();
        let mut pooled = DistinctSketch::new(&config, 70);
        pooled.extend_labels(labels(900, 72)); // dirty the pooled storage
        for (i, (level, items, entries)) in states.into_iter().enumerate() {
            pooled.reload_trial(i, level, items, entries).unwrap();
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
        assert_eq!(state(&pooled), state(&reassembled));
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
}
