//! A thread-safe sketch for shared-memory ingest and live serving.
//!
//! The distributed-streams model maps directly onto multicore ingestion:
//! every writer is a "party" holding its own coordinated sketch, and the
//! shared sketch is the "referee" holding their union. [`ConcurrentSketch`]
//! follows the local-buffer / global-sketch pattern of Rinberg et al.
//! (*Fast Concurrent Data Sketches*, PAPERS.md). Each writer owns a
//! thread-local [`DistinctSketch`] buffer fed through the batch kernels
//! and *propagates* it into one shared global sketch in epochs — when the
//! buffer fills, when the writer's local level falls behind the published
//! global level (the buffered labels are mostly doomed to subsampling, so
//! ship them and adopt the higher level), or on flush/drop. Every
//! propagation publishes an immutable [`SketchSnapshot`] behind an `Arc`,
//! so readers serve [`ConcurrentSketch::estimate_distinct`] from an O(1)
//! pointer copy without ever touching the global ingest lock.
//!
//! A propagation clones the whole O(r·c) global sketch into the published
//! snapshot, so a default writer buffers `max(WRITER_BUF, r·c)` items per
//! propagation (r trials of capacity c): the clone then costs O(1) per
//! item at every (ε, δ).
//!
//! Coordination (same config + master seed everywhere) is what makes the
//! design *exact*: the final global sketch is the lossless union of the
//! writers' buffers, bitwise-identical to a sequential sketch of the same
//! label multiset regardless of interleaving. The propagation/snapshot
//! protocol is model-checked exhaustively in `tests/loom_model.rs` and
//! differentially tested against sequential ingest in
//! `tests/concurrent_equivalence.rs` (canonical encoded bytes).
//!
//! Lock choice per the concurrency guide: `parking_lot::Mutex` (no
//! poisoning to handle, word-sized, fast uncontended path). This crate
//! forbids `unsafe`, so snapshot publication uses a second,
//! pointer-copy-only mutex rather than a seqlock or raw atomic pointer
//! swap; the lock ordering is global-before-published and readers take
//! only the published lock, so readers can never block on ingest work.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::estimate::Estimate;
use crate::metrics::{ConcurrentMetrics, ConcurrentMetricsSnapshot, PropagationCause};
use crate::params::SketchConfig;
use crate::sketch::DistinctSketch;

/// The least number of buffered items after which a default
/// [`SketchWriter`] propagates into the global sketch; see
/// [`ConcurrentSketch::writer`].
pub const WRITER_BUF: u64 = 8 * 1024;

/// An immutable point-in-time view of a [`ConcurrentSketch`], published
/// at the end of a propagation epoch and shared with readers by `Arc`.
#[derive(Clone, Debug)]
pub struct SketchSnapshot {
    epoch: u64,
    sketch: DistinctSketch,
}

impl SketchSnapshot {
    /// The propagation epoch that published this snapshot (0 = the empty
    /// initial snapshot). Strictly increasing across the snapshots any
    /// single reader observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen sketch: the union of every writer buffer propagated up
    /// to this epoch — exactly the sketch a sequential observer of that
    /// prefix-union multiset would hold.
    pub fn sketch(&self) -> &DistinctSketch {
        &self.sketch
    }

    /// `(ε, δ)`-estimate of the distinct labels covered by this epoch.
    pub fn estimate_distinct(&self) -> Estimate {
        self.sketch.estimate_distinct()
    }

    /// Items (duplicates included) covered by this epoch.
    pub fn items_observed(&self) -> u64 {
        self.sketch.items_observed()
    }
}

/// A multi-writer / multi-reader distinct-count sketch with epoch-based
/// propagation and non-blocking snapshot reads.
///
/// Writers are created with [`ConcurrentSketch::writer`] (one per thread;
/// they hold `&self`, so scoped threads borrow the sketch directly) and
/// ingest through a thread-local [`DistinctSketch`] running the PR2 batch
/// kernels at full speed — no shared state is touched on the hot path
/// except one relaxed atomic load per call to detect level lag. Readers
/// call [`ConcurrentSketch::snapshot`] / [`ConcurrentSketch::estimate_distinct`]
/// at any time; they clone an `Arc` under a mutex whose critical section
/// is a pointer copy, so a reader can be preempted mid-read without ever
/// making a writer wait on ingest work (and vice versa).
///
/// # Estimate semantics
///
/// A snapshot at epoch `e` is *exactly* the sequential sketch of the
/// union of all writer buffers propagated by epoch `e` — a prefix-union
/// of the full stream set. Its estimate therefore carries the full E1
/// `(ε, δ)` contract *for that prefix-union's cardinality*, and both the
/// epoch and the covered item count are monotone across the snapshots a
/// reader takes. What a mid-stream snapshot does **not** promise is
/// proximity to the final answer: labels still sitting in writer-local
/// buffers are not yet covered. With N writers whose buffers hold at
/// most b items each, a snapshot misses at most N·b items (the
/// relaxation bound of Rinberg et al.); a default writer's b is
/// `max(WRITER_BUF, r·c)`, 870,000 items at (ε, δ) = (0.02, 0.01).
/// After every writer flushes (or drops), the snapshot equals the
/// sequential sketch of the entire multiset, bitwise.
///
/// ```
/// use gt_core::{ConcurrentSketch, SketchConfig};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let sketch = ConcurrentSketch::new(&cfg, 7);
/// crossbeam::scope(|scope| {
///     for t in 0..4u64 {
///         let sketch = &sketch;
///         scope.spawn(move |_| {
///             let mut w = sketch.writer();
///             for i in 0..250 {
///                 w.insert(t * 250 + i); // disjoint ranges
///             }
///         }); // drop flushes
///     }
///     // Live queries while writers run: never blocks on ingest.
///     let _ = sketch.estimate_distinct();
/// })
/// .unwrap();
/// assert_eq!(sketch.estimate_distinct().value, 1000.0);
/// ```
pub struct ConcurrentSketch {
    config: SketchConfig,
    master_seed: u64,
    /// The shared union of everything propagated so far. Held only during
    /// propagation (merge + clone + publish), never by readers.
    global: Mutex<DistinctSketch>,
    /// The current published snapshot. The critical section on this lock
    /// is a pointer copy on both sides — the `forbid(unsafe)` stand-in
    /// for an epoch-pinned arc-swap. Lock order: `global` before
    /// `published`; readers take only `published`.
    published: Mutex<Arc<SketchSnapshot>>,
    /// Epoch of the current published snapshot (advisory mirror of
    /// `published.epoch` for lock-free progress checks).
    epoch: AtomicU64,
    /// Max trial level of the published snapshot; writers poll this with
    /// one relaxed load per ingest call to detect level lag.
    published_level: AtomicU64,
    metrics: ConcurrentMetrics,
}

impl ConcurrentSketch {
    /// Create an empty concurrent sketch. Writers, readers, and any
    /// external parties merging with exported state must share `config`
    /// and `master_seed` (the coordination contract).
    pub fn new(config: &SketchConfig, master_seed: u64) -> Self {
        let empty = DistinctSketch::new(config, master_seed);
        ConcurrentSketch {
            config: *config,
            master_seed,
            published: Mutex::new(Arc::new(SketchSnapshot {
                epoch: 0,
                sketch: empty.clone(),
            })),
            global: Mutex::new(empty),
            epoch: AtomicU64::new(0),
            published_level: AtomicU64::new(0),
            metrics: ConcurrentMetrics::new(),
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

    /// A writer handle that propagates after `max(WRITER_BUF, r·c)`
    /// buffered items, for r = `config.trials()` and c =
    /// `config.capacity()`. One per ingesting thread.
    ///
    /// A propagation clones the O(r·c) global sketch into the published
    /// snapshot, so this threshold keeps that clone at O(1) per item. The
    /// cost is staleness: a snapshot can miss up to this many items per
    /// live writer (the N·b bound in the type docs).
    pub fn writer(&self) -> SketchWriter<'_> {
        let sketch_entries = (self.config.trials() * self.config.capacity()) as u64;
        self.writer_with_threshold(WRITER_BUF.max(sketch_entries))
    }

    /// A writer handle that propagates after `threshold` buffered items
    /// (`threshold` is clamped to ≥ 1). Small thresholds trade ingest
    /// throughput for snapshot freshness.
    pub fn writer_with_threshold(&self, threshold: u64) -> SketchWriter<'_> {
        SketchWriter {
            shared: self,
            local: DistinctSketch::new(&self.config, self.master_seed),
            buffered: 0,
            threshold: threshold.max(1),
        }
    }

    /// The current published snapshot (wait-free for practical purposes:
    /// the lock protecting the pointer is held only for pointer copies).
    pub fn snapshot(&self) -> Arc<SketchSnapshot> {
        let snap = Arc::clone(&self.published.lock());
        self.metrics.record_snapshot_read();
        snap
    }

    /// `(ε, δ)`-estimate of the distinct labels covered by the current
    /// epoch, served from the published snapshot without blocking
    /// writers. See the type docs for mid-stream semantics.
    pub fn estimate_distinct(&self) -> Estimate {
        self.snapshot().estimate_distinct()
    }

    /// The epoch of the current published snapshot (0 until the first
    /// propagation). Monotone.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Items (duplicates included) covered by the current published
    /// snapshot. Excludes items still in writer-local buffers.
    pub fn items_observed(&self) -> u64 {
        self.snapshot().items_observed()
    }

    /// Concurrent-path observability counters (see [`crate::metrics`]).
    pub fn metrics_snapshot(&self) -> ConcurrentMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Merge a writer's local buffer into the global sketch, publish the
    /// next epoch's snapshot, and hand the writer back a fresh buffer
    /// with the global's levels adopted.
    ///
    /// The snapshot is published while the global lock is still held, so
    /// publication order equals merge order and snapshots are monotone in
    /// both epoch and covered items — the loom model's negative test
    /// (`publish moved after unlock`) demonstrates exactly which
    /// violation this ordering prevents.
    fn propagate(&self, local: &mut DistinctSketch, buffered: u64, cause: PropagationCause) {
        let local_metrics = local.metrics_snapshot();
        let mut fresh = DistinctSketch::new(&self.config, self.master_seed);

        let mut global = self.global.lock();
        global
            .merge_from(local)
            .expect("writer and global share config and seed by construction");
        let adopted = fresh
            .align_levels_to(&global)
            .expect("fresh local buffer shares config and seed by construction");
        let next_epoch = self.epoch.load(Relaxed) + 1;
        let snap = Arc::new(SketchSnapshot {
            epoch: next_epoch,
            sketch: global.clone(),
        });
        *self.published.lock() = snap;
        self.epoch.store(next_epoch, Relaxed);
        self.published_level
            .store(u64::from(global.max_level()), Relaxed);
        drop(global);

        *local = fresh;
        self.metrics.record_publish();
        self.metrics
            .record_propagation(cause, buffered, adopted, &local_metrics);
    }
}

/// A single thread's ingest handle into a [`ConcurrentSketch`].
///
/// Not `Sync`/shareable — create one per thread. Dropping the writer
/// flushes its remaining buffer, so after a scoped-thread join the shared
/// sketch covers everything the thread ingested.
pub struct SketchWriter<'a> {
    shared: &'a ConcurrentSketch,
    local: DistinctSketch,
    buffered: u64,
    threshold: u64,
}

impl SketchWriter<'_> {
    /// Observe a label.
    #[inline]
    pub fn insert(&mut self, label: u64) {
        self.local.insert(label);
        self.buffered += 1;
        self.maybe_propagate();
    }

    /// Observe a slice of labels through the batch-monomorphic kernel
    /// (the fastest path; see [`DistinctSketch::extend_slice`]). Long
    /// slices are fed in threshold-sized chunks so propagation cadence —
    /// and therefore snapshot freshness — does not degrade when callers
    /// hand over whole streams at once.
    pub fn extend_slice(&mut self, labels: &[u64]) {
        let mut rest = labels;
        while !rest.is_empty() {
            let room = (self.threshold - self.buffered).max(1) as usize;
            let take = room.min(rest.len());
            self.local.extend_slice(&rest[..take]);
            self.buffered += take as u64;
            self.maybe_propagate();
            rest = &rest[take..];
        }
    }

    /// Observe every label from an iterator (buffered through the kernel,
    /// see [`DistinctSketch::extend_labels`]).
    pub fn extend_labels(&mut self, labels: impl IntoIterator<Item = u64>) {
        // Feed in kernel-sized chunks so a long iterator still honours
        // the propagation threshold along the way.
        let mut buf = Vec::with_capacity(crate::sketch::INGEST_BUF);
        for label in labels {
            buf.push(label);
            if buf.len() == crate::sketch::INGEST_BUF {
                self.extend_slice(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.extend_slice(&buf);
        }
    }

    /// Items currently buffered locally (not yet visible to readers).
    pub fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Push the local buffer into the shared sketch now, publishing a new
    /// snapshot. Called automatically when the buffer fills, when the
    /// published level runs ahead of the local level, and on drop.
    pub fn flush(&mut self) {
        if self.buffered > 0 {
            self.shared
                .propagate(&mut self.local, self.buffered, PropagationCause::Flush);
            self.buffered = 0;
        }
    }

    #[inline]
    fn maybe_propagate(&mut self) {
        if self.buffered >= self.threshold {
            self.shared
                .propagate(&mut self.local, self.buffered, PropagationCause::BufferFull);
            self.buffered = 0;
        } else if self.buffered > 0
            && self.shared.published_level.load(Relaxed) > u64::from(self.local.max_level())
        {
            // The global sketch promoted past us: most of what we'd buffer
            // from here would be thrown away at merge time anyway, so ship
            // the buffer early and adopt the higher level — below-level
            // labels then cost one masked compare instead of a sample slot.
            self.shared
                .propagate(&mut self.local, self.buffered, PropagationCause::LevelLag);
            self.buffered = 0;
        }
    }
}

impl Drop for SketchWriter<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    #[test]
    fn duplicates_across_writers_are_free() {
        // Stay under the per-trial capacity so the estimate is exact and
        // any duplicate leakage across writers would be visible as a
        // deviation from the precise count.
        let concurrent = ConcurrentSketch::new(&cfg(), 13);
        let labels: Vec<u64> = (0..1_000).map(gt_hash::fold61).collect();
        crossbeam::scope(|scope| {
            for _ in 0..4 {
                let concurrent = &concurrent;
                let labels = &labels;
                scope.spawn(move |_| concurrent.writer().extend_slice(labels));
            }
        })
        .unwrap();
        assert_eq!(concurrent.estimate_distinct().value, 1_000.0);
        assert_eq!(concurrent.items_observed(), 4_000);
    }

    #[test]
    fn snapshot_is_mergeable_with_external_parties() {
        // A concurrent local sketch and a remote single-threaded party
        // union cleanly when they share seeds.
        let local = ConcurrentSketch::new(&cfg(), 14);
        local.writer().extend_labels((0..800).map(gt_hash::fold61));
        let mut remote = DistinctSketch::new(&cfg(), 14);
        remote.extend_labels((400..1_200).map(gt_hash::fold61));
        let mut union = local.snapshot().sketch().clone();
        union.merge_from(&remote).unwrap();
        // 1200 distinct labels fit the per-trial capacity (1200 at ε=0.1),
        // so the union estimate is exact.
        assert_eq!(union.estimate_distinct().value, 1_200.0);
    }

    /// Propagations of one default writer fed `n` disjoint labels, as
    /// `(buffer_full, level_lag, flush)`.
    fn default_writer_propagations(config: &SketchConfig, n: u64) -> (u64, u64, u64) {
        let concurrent = ConcurrentSketch::new(config, 26);
        concurrent
            .writer()
            .extend_slice(&(0..n).map(gt_hash::fold61).collect::<Vec<_>>());
        let m = concurrent.metrics_snapshot();
        assert_eq!(m.items_propagated, n);
        (
            m.propagations_buffer_full,
            m.propagations_level_lag,
            m.propagations_flush,
        )
    }

    #[test]
    fn default_writer_propagates_every_max_of_floor_and_sketch_entries() {
        // r·c above the floor: one propagation per r·c items, so each
        // snapshot clone is paid for by as many items as it copies.
        let config = SketchConfig::new(0.05, 0.05).unwrap();
        let entries = (config.trials() * config.capacity()) as u64;
        assert!(entries > WRITER_BUF);
        let n = 2 * entries + entries / 2;
        // ⌈n / r·c⌉ = 3: two full buffers and the final flush. One writer
        // adopts the global levels at every propagation, so it never lags.
        assert_eq!(default_writer_propagations(&config, n), (2, 0, 1));

        // r·c below the floor: WRITER_BUF items per propagation.
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        assert!(((config.trials() * config.capacity()) as u64) < WRITER_BUF);
        let n = 2 * WRITER_BUF + 100;
        assert_eq!(default_writer_propagations(&config, n), (2, 0, 1));
    }

    /// Per-trial state fingerprint for bitwise-identity assertions.
    fn state(s: &DistinctSketch) -> Vec<(u8, u64, Vec<u64>)> {
        s.trials()
            .iter()
            .map(|t| {
                let mut sample: Vec<u64> = t.sample_iter().map(|(k, _)| k).collect();
                sample.sort_unstable();
                (t.level(), t.items_observed(), sample)
            })
            .collect()
    }

    #[test]
    fn concurrent_final_state_equals_sequential() {
        let concurrent = ConcurrentSketch::new(&cfg(), 21);
        let labels: Vec<u64> = (0..60_000).map(gt_hash::fold61).collect();
        crossbeam::scope(|scope| {
            for chunk in labels.chunks(15_000) {
                let concurrent = &concurrent;
                scope.spawn(move |_| {
                    let mut w = concurrent.writer_with_threshold(1_024);
                    w.extend_slice(chunk);
                });
            }
        })
        .unwrap();
        let mut sequential = DistinctSketch::new(&cfg(), 21);
        sequential.extend_slice(&labels);
        assert_eq!(state(concurrent.snapshot().sketch()), state(&sequential));
        assert_eq!(
            concurrent.estimate_distinct().value,
            sequential.estimate_distinct().value
        );
        assert_eq!(concurrent.items_observed(), 60_000);
    }

    #[test]
    fn snapshots_are_epoch_and_item_monotone() {
        let concurrent = ConcurrentSketch::new(&cfg(), 22);
        let mut w = concurrent.writer_with_threshold(500);
        let mut last_epoch = 0u64;
        let mut last_items = 0u64;
        let mut last_estimate = 0.0f64;
        for i in 0..10_000u64 {
            w.insert(gt_hash::fold61(i));
            if i % 977 == 0 {
                let snap = concurrent.snapshot();
                assert!(snap.epoch() >= last_epoch);
                assert!(snap.items_observed() >= last_items);
                // Disjoint duplicate-free stream: coverage only grows, and
                // under capacity the estimate is exact, hence monotone too.
                assert!(snap.estimate_distinct().value >= last_estimate);
                // A snapshot covers propagated items only: everything fed
                // minus what is still in the writer's buffer.
                assert_eq!(snap.items_observed(), i + 1 - w.buffered());
                last_epoch = snap.epoch();
                last_items = snap.items_observed();
                last_estimate = snap.estimate_distinct().value;
            }
        }
        drop(w);
        assert_eq!(concurrent.items_observed(), 10_000);
        assert!(concurrent.epoch() >= 20); // 10_000 / 500 propagations
    }

    #[test]
    fn drop_flushes_and_flush_is_idempotent() {
        let concurrent = ConcurrentSketch::new(&cfg(), 23);
        {
            let mut w = concurrent.writer(); // default threshold, never filled
            w.extend_labels((0..777).map(gt_hash::fold61));
            assert_eq!(concurrent.items_observed(), 0, "nothing propagated yet");
            w.flush();
            assert_eq!(concurrent.items_observed(), 777);
            w.flush(); // no-op: buffer empty
            assert_eq!(concurrent.epoch(), 1);
        } // drop with empty buffer: no extra epoch
        assert_eq!(concurrent.epoch(), 1);
        assert_eq!(concurrent.estimate_distinct().value, 777.0);
    }

    #[test]
    fn level_lag_triggers_early_propagation_and_adoption() {
        // Writer A drives the global level up; writer B, with a huge
        // threshold it would never reach, must still propagate via the
        // level-lag trigger and adopt the global level locally.
        let concurrent = ConcurrentSketch::new(&cfg(), 24);
        let mut a = concurrent.writer_with_threshold(4_096);
        a.extend_labels((0..150_000).map(gt_hash::fold61));
        a.flush();
        let global_level = u64::from(concurrent.snapshot().sketch().max_level());
        assert!(global_level > 0, "need promotions for this test");

        let mut b = concurrent.writer_with_threshold(u64::MAX);
        for i in 0..100u64 {
            b.insert(gt_hash::fold61(500_000 + i));
        }
        let metrics = concurrent.metrics_snapshot();
        assert!(
            metrics.propagations_level_lag > 0,
            "B lagged the published level and must have propagated early"
        );
        assert!(metrics.levels_adopted > 0);
        assert_eq!(u64::from(b.local.max_level()), global_level);
        // After adoption B stops lagging: no propagation per insert.
        let before = concurrent.metrics_snapshot().propagations();
        for i in 0..100u64 {
            b.insert(gt_hash::fold61(600_000 + i));
        }
        assert_eq!(concurrent.metrics_snapshot().propagations(), before);
    }

    #[test]
    fn readers_never_block_writers_and_see_live_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let concurrent = ConcurrentSketch::new(&cfg(), 25);
        let writers_done = AtomicUsize::new(0);
        let labels: Vec<u64> = (0..40_000).map(gt_hash::fold61).collect();
        let chunks: Vec<&[u64]> = labels.chunks(10_000).collect();
        let writer_count = chunks.len();
        crossbeam::scope(|scope| {
            for chunk in &chunks {
                let concurrent = &concurrent;
                let writers_done = &writers_done;
                scope.spawn(move |_| {
                    let mut w = concurrent.writer_with_threshold(512);
                    for &l in *chunk {
                        w.insert(l);
                    }
                    drop(w); // flush before reporting done
                    writers_done.fetch_add(1, Ordering::Release);
                });
            }
            let concurrent = &concurrent;
            let writers_done = &writers_done;
            scope.spawn(move |_| {
                let mut last = 0u64;
                // Count/ordering assertions only — no timing assumptions.
                while writers_done.load(Ordering::Acquire) < writer_count {
                    let snap = concurrent.snapshot();
                    assert!(snap.items_observed() >= last, "coverage went backwards");
                    last = snap.items_observed();
                }
            });
        })
        .unwrap();
        assert_eq!(concurrent.items_observed(), 40_000);
        let metrics = concurrent.metrics_snapshot();
        assert!(metrics.snapshot_reads > 0);
        assert_eq!(metrics.items_propagated, 40_000);
        assert_eq!(
            metrics.writer.trial_inserts(),
            40_000 * cfg().trials() as u64
        );
    }

    #[test]
    fn snapshots_miss_at_most_n_times_b_items() {
        // The relaxation bound in the type docs: with N writers at
        // threshold b, a snapshot misses at most N·b of the items whose
        // `insert` has returned. `finished` counts those items; `started`
        // counts items whose `insert` has begun, which bounds the snapshot
        // from above (a propagation publishes inside `insert`, before
        // `finished` can count the item that triggered it).
        use std::sync::atomic::Ordering::SeqCst;
        const N: u64 = 4;
        const B: u64 = 300;
        const PER_WRITER: u64 = 20_000;
        let concurrent = ConcurrentSketch::new(&cfg(), 27);
        let (started, finished) = (AtomicU64::new(0), AtomicU64::new(0));
        crossbeam::scope(|scope| {
            for w in 0..N {
                let (concurrent, started, finished) = (&concurrent, &started, &finished);
                scope.spawn(move |_| {
                    let mut writer = concurrent.writer_with_threshold(B);
                    for i in 0..PER_WRITER {
                        started.fetch_add(1, SeqCst);
                        writer.insert(gt_hash::fold61(w * PER_WRITER + i));
                        finished.fetch_add(1, SeqCst);
                    }
                });
            }
            // Poll until every insert has returned, at least once.
            loop {
                let before = finished.load(SeqCst);
                let covered = concurrent.snapshot().items_observed();
                let after = started.load(SeqCst);
                assert!(
                    before.saturating_sub(covered) <= N * B,
                    "{covered} of {before}"
                );
                assert!(covered <= after, "{covered} > {after} started");
                if before == N * PER_WRITER {
                    break;
                }
            }
        })
        .unwrap();
        assert_eq!(concurrent.items_observed(), N * PER_WRITER);
    }
}
