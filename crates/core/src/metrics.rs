//! Sketch-ops observability: per-sketch counters for every decision the
//! sampling and union machinery takes.
//!
//! Production sketch services need to see what their sketches are *doing*
//! — duplicate rates, promotion cadence, and how a union's entries fared
//! (absorbed, reconciled with a sampled label, or dropped below level).
//!
//! Every [`crate::GtSketch`] keeps its counters in one plain
//! [`MetricsSnapshot`] field: no atomics, no locks, no allocation on the
//! record path. Each recording site is a `&mut self` method of the
//! sketch, so exclusive access already makes the adds race-free. Counters
//! are monotone between [`crate::GtSketch::clear`] calls and advisory —
//! they never feed back into the estimator. Read them with
//! [`crate::GtSketch::metrics_snapshot`].
//!
//! # Exposition
//!
//! Every telemetry type in the workspace names each of its readings once,
//! in an [`Exposition::visit`] walk; [`to_json`] and [`to_text`] render
//! any walk as one flat JSON object or as Prometheus text. Names follow
//! `gt_<layer>_<field>`, where the layer is one of `sketch`,
//! `concurrent`, `store`, `referee`, `run` or `delta`; a `Duration` field
//! gets a `_seconds` suffix, and each element of an array or per-party
//! field gets an index suffix. A type that nests another's telemetry
//! delegates to that type's walk.
//!
//! # Aggregation ordering guarantee
//!
//! A *multi-sketch aggregate* (summing one snapshot per shard or per
//! writer) is only meaningful if it corresponds to a consistent cut of
//! the recording history. The rule every aggregator in this workspace
//! follows: **hold every lock that guards a recording site before reading
//! the first counter**. A sketch behind a lock records only while that
//! lock is held, so an aggregate taken under all locks contains each
//! ingest or merge call either entirely or not at all, and contains every
//! call that completed (released its lock) before the aggregate began — a
//! prefix-closed view of each thread's history. Aggregates taken
//! lock-by-lock (the historical `ShardedSketch::metrics_snapshot` bug) do
//! not have this property: work recorded on a later-read shard can
//! causally *follow* work missed on an earlier-read shard, producing
//! totals that never existed at any instant.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use parking_lot::Mutex;

use crate::trial::TrialInsert;

/// A telemetry type whose readings can be walked by name; see the module
/// docs for the naming rule.
pub trait Exposition {
    /// Call `f(name, value)` once per reading, in a fixed order, with no
    /// name repeated.
    fn visit(&self, f: &mut dyn FnMut(&str, f64));
}

/// `expose!(f, "gt_layer_", s; a, b)` reports `s.a` and `s.b` to the
/// visitor `f` as readings `gt_layer_a` and `gt_layer_b` (each converted
/// with `as f64`), so an [`Exposition::visit`] names each field once.
#[macro_export]
macro_rules! expose {
    ($f:expr, $prefix:literal, $s:expr; $($field:ident),+ $(,)?) => {
        $($f(concat!($prefix, stringify!($field)), $s.$field as f64);)+
    };
}

/// Render a walk as one flat JSON object, in walk order. JSON has no
/// NaN or infinity, so a non-finite reading is written as `null`.
pub fn to_json(e: &dyn Exposition) -> String {
    let mut out = String::from("{");
    e.visit(&mut |name, value| {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = if value.is_finite() {
            write!(out, "\"{name}\":{value}")
        } else {
            write!(out, "\"{name}\":null")
        };
    });
    out.push('}');
    out
}

/// Render a walk as Prometheus text: one `name value` line per reading,
/// with non-finite readings spelled `NaN`, `+Inf` or `-Inf`.
pub fn to_text(e: &dyn Exposition) -> String {
    let mut out = String::new();
    e.visit(&mut |name, value| {
        let _ = match value {
            v if v.is_nan() => writeln!(out, "{name} NaN"),
            f64::INFINITY => writeln!(out, "{name} +Inf"),
            f64::NEG_INFINITY => writeln!(out, "{name} -Inf"),
            v => writeln!(out, "{name} {v}"),
        };
    });
    out
}

/// Monotone counters recording what a sketch's trials did: the plain
/// field every [`crate::GtSketch`] counts into, and the copy
/// [`crate::GtSketch::metrics_snapshot`] returns. Sharded sketches and
/// parties aggregate one per sketch with [`MetricsSnapshot::absorb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Labels that entered a trial's sample directly.
    pub inserts_sampled: u64,
    /// Labels already present in a trial's sample.
    pub inserts_duplicate: u64,
    /// Labels below a trial's sampling level on arrival.
    pub inserts_below_level: u64,
    /// Labels sampled after forcing one or more promotions.
    pub inserts_sampled_after_promotion: u64,
    /// Labels whose own insert promoted them out of qualification.
    pub inserts_evicted_by_promotion: u64,
    /// Level promotions from any cause (insert overflow or union).
    pub level_promotions: u64,
    /// Sketch-level union operations.
    pub merge_calls: u64,
    /// Entries copied from the other side's samples during unions.
    pub merge_entries_absorbed: u64,
    /// Payload reconciliations where both union sides sampled a label.
    pub merge_reconciliations: u64,
    /// Other-side entries skipped during union (below aligned level).
    pub merge_below_level: u64,
}

impl MetricsSnapshot {
    /// Total per-trial insert decisions recorded.
    pub fn trial_inserts(&self) -> u64 {
        self.inserts_sampled
            + self.inserts_duplicate
            + self.inserts_below_level
            + self.inserts_sampled_after_promotion
            + self.inserts_evicted_by_promotion
    }

    /// Field-wise sum, for aggregating shard or party snapshots.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.inserts_sampled += other.inserts_sampled;
        self.inserts_duplicate += other.inserts_duplicate;
        self.inserts_below_level += other.inserts_below_level;
        self.inserts_sampled_after_promotion += other.inserts_sampled_after_promotion;
        self.inserts_evicted_by_promotion += other.inserts_evicted_by_promotion;
        self.level_promotions += other.level_promotions;
        self.merge_calls += other.merge_calls;
        self.merge_entries_absorbed += other.merge_entries_absorbed;
        self.merge_reconciliations += other.merge_reconciliations;
        self.merge_below_level += other.merge_below_level;
    }

    /// Count `n` local insert outcomes, each into its `inserts_*` counter.
    #[inline]
    pub(crate) fn count_insert(&mut self, outcome: TrialInsert, n: u64) {
        *match outcome {
            TrialInsert::Sampled => &mut self.inserts_sampled,
            TrialInsert::Duplicate => &mut self.inserts_duplicate,
            TrialInsert::BelowLevel => &mut self.inserts_below_level,
            TrialInsert::SampledAfterPromotion => &mut self.inserts_sampled_after_promotion,
            TrialInsert::EvictedByPromotion => &mut self.inserts_evicted_by_promotion,
        } += n;
    }

    /// Count `n` outcomes of the other side's entries during a union: a
    /// new label is absorbed, a label both sides sampled is reconciled,
    /// and one that no longer qualifies (on arrival or after a promotion)
    /// is skipped as below level.
    #[inline]
    pub(crate) fn count_union(&mut self, outcome: TrialInsert, n: u64) {
        *match outcome {
            TrialInsert::Sampled | TrialInsert::SampledAfterPromotion => {
                &mut self.merge_entries_absorbed
            }
            TrialInsert::Duplicate => &mut self.merge_reconciliations,
            TrialInsert::BelowLevel | TrialInsert::EvictedByPromotion => {
                &mut self.merge_below_level
            }
        } += n;
    }
}

impl Exposition for MetricsSnapshot {
    fn visit(&self, f: &mut dyn FnMut(&str, f64)) {
        crate::expose!(f, "gt_sketch_", self; inserts_sampled, inserts_duplicate,
            inserts_below_level, inserts_sampled_after_promotion, inserts_evicted_by_promotion,
            level_promotions, merge_calls, merge_entries_absorbed,
            merge_reconciliations, merge_below_level);
    }
}

/// Why a writer pushed its local buffer into the shared global sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropagationCause {
    /// The local buffer reached the writer's item threshold.
    BufferFull,
    /// The published global level ran ahead of the writer's local level,
    /// so most of the writer's buffered labels were doomed to be
    /// subsampled away — propagate early and adopt the higher level.
    LevelLag,
    /// An explicit [`crate::concurrent::SketchWriter::flush`] (including
    /// the one on drop).
    Flush,
}

/// Counters for the concurrent serving path
/// ([`crate::concurrent::ConcurrentSketch`]): propagation cadence by
/// cause, snapshot traffic, and the folded per-writer sketch counters.
///
/// Propagation counters are relaxed atomics (single-counter reads only);
/// the folded writer-side [`MetricsSnapshot`] is guarded by a mutex and
/// updated inside each propagation, so
/// [`ConcurrentMetrics::snapshot`] reads it under that lock and the
/// aggregation ordering guarantee above applies: the folded totals cover
/// exactly the propagations that have completed.
#[derive(Debug, Default)]
pub struct ConcurrentMetrics {
    propagations_buffer_full: AtomicU64,
    propagations_level_lag: AtomicU64,
    propagations_flush: AtomicU64,
    items_propagated: AtomicU64,
    levels_adopted: AtomicU64,
    snapshots_published: AtomicU64,
    snapshot_reads: AtomicU64,
    /// Field-wise sum of every propagated writer-local sketch's counters.
    writer: Mutex<MetricsSnapshot>,
}

impl ConcurrentMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ConcurrentMetrics::default()
    }

    /// Record one completed propagation: its cause, how many items the
    /// local buffer carried, how many levels the writer adopted from the
    /// global sketch afterwards, and the local sketch's own counters.
    pub fn record_propagation(
        &self,
        cause: PropagationCause,
        items: u64,
        levels_adopted: u64,
        local: &MetricsSnapshot,
    ) {
        let counter = match cause {
            PropagationCause::BufferFull => &self.propagations_buffer_full,
            PropagationCause::LevelLag => &self.propagations_level_lag,
            PropagationCause::Flush => &self.propagations_flush,
        };
        counter.fetch_add(1, Relaxed);
        self.items_propagated.fetch_add(items, Relaxed);
        self.levels_adopted.fetch_add(levels_adopted, Relaxed);
        self.writer.lock().absorb(local);
    }

    /// Record that a new snapshot was published.
    #[inline]
    pub fn record_publish(&self) {
        self.snapshots_published.fetch_add(1, Relaxed);
    }

    /// Record one reader snapshot acquisition.
    #[inline]
    pub fn record_snapshot_read(&self) {
        self.snapshot_reads.fetch_add(1, Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> ConcurrentMetricsSnapshot {
        // Take the writer-fold lock first so the folded totals and the
        // propagation counters describe the same set of completed
        // propagations (each propagation bumps its atomic counter before
        // folding, and folds before returning).
        let writer = *self.writer.lock();
        ConcurrentMetricsSnapshot {
            propagations_buffer_full: self.propagations_buffer_full.load(Relaxed),
            propagations_level_lag: self.propagations_level_lag.load(Relaxed),
            propagations_flush: self.propagations_flush.load(Relaxed),
            items_propagated: self.items_propagated.load(Relaxed),
            levels_adopted: self.levels_adopted.load(Relaxed),
            snapshots_published: self.snapshots_published.load(Relaxed),
            snapshot_reads: self.snapshot_reads.load(Relaxed),
            writer,
        }
    }
}

/// Plain-old-data copy of [`ConcurrentMetrics`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConcurrentMetricsSnapshot {
    /// Propagations triggered by a full local buffer.
    pub propagations_buffer_full: u64,
    /// Propagations triggered by published-level lag.
    pub propagations_level_lag: u64,
    /// Propagations triggered by an explicit or drop-time flush.
    pub propagations_flush: u64,
    /// Items (duplicates included) carried by all propagations.
    pub items_propagated: u64,
    /// Per-trial level steps writers adopted from the global sketch.
    pub levels_adopted: u64,
    /// Snapshots published (one per propagation that changed state).
    pub snapshots_published: u64,
    /// Reader snapshot acquisitions served.
    pub snapshot_reads: u64,
    /// Folded counters of every propagated writer-local sketch.
    pub writer: MetricsSnapshot,
}

impl ConcurrentMetricsSnapshot {
    /// Total propagations from any cause.
    pub fn propagations(&self) -> u64 {
        self.propagations_buffer_full + self.propagations_level_lag + self.propagations_flush
    }
}

impl Exposition for ConcurrentMetricsSnapshot {
    fn visit(&self, f: &mut dyn FnMut(&str, f64)) {
        crate::expose!(f, "gt_concurrent_", self; propagations_buffer_full, propagations_level_lag,
            propagations_flush, items_propagated, levels_adopted, snapshots_published,
            snapshot_reads);
        self.writer.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        use TrialInsert::*;
        let mut s = MetricsSnapshot::default();
        s.count_insert(Sampled, 2);
        s.count_insert(Duplicate, 1);
        s.count_insert(BelowLevel, 1);
        s.count_insert(SampledAfterPromotion, 1);
        s.count_insert(EvictedByPromotion, 1);
        s.count_insert(Duplicate, 1);
        s.count_insert(Sampled, 1);
        assert_eq!(s.inserts_sampled, 3);
        assert_eq!(s.inserts_duplicate, 2);
        assert_eq!(s.inserts_below_level, 1);
        assert_eq!(s.inserts_sampled_after_promotion, 1);
        assert_eq!(s.inserts_evicted_by_promotion, 1);
        assert_eq!(s.trial_inserts(), 8);

        // A union's outcomes land in `merge_*` and never in `inserts_*`.
        for (outcome, n) in [
            (Sampled, 4),
            (SampledAfterPromotion, 2),
            (Duplicate, 2),
            (BelowLevel, 1),
            (EvictedByPromotion, 1),
        ] {
            s.count_union(outcome, n);
        }
        assert_eq!(s.merge_entries_absorbed, 6);
        assert_eq!(s.merge_reconciliations, 2);
        assert_eq!(s.merge_below_level, 2);
        assert_eq!(s.trial_inserts(), 8);
        assert_eq!((s.level_promotions, s.merge_calls), (0, 0));
    }

    #[test]
    fn absorb_sums_fieldwise() {
        let mut a = MetricsSnapshot {
            inserts_sampled: 1,
            merge_calls: 2,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            inserts_sampled: 10,
            level_promotions: 4,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.inserts_sampled, 11);
        assert_eq!(a.merge_calls, 2);
        assert_eq!(a.level_promotions, 4);
    }

    #[test]
    fn concurrent_metrics_record_by_cause_and_fold_writers() {
        let m = ConcurrentMetrics::new();
        let local = MetricsSnapshot {
            inserts_sampled: 7,
            ..Default::default()
        };
        m.record_propagation(PropagationCause::BufferFull, 100, 0, &local);
        m.record_propagation(PropagationCause::LevelLag, 3, 2, &local);
        m.record_propagation(PropagationCause::Flush, 9, 0, &local);
        m.record_publish();
        m.record_snapshot_read();
        m.record_snapshot_read();
        let s = m.snapshot();
        assert_eq!(s.propagations(), 3);
        assert_eq!(s.propagations_buffer_full, 1);
        assert_eq!(s.propagations_level_lag, 1);
        assert_eq!(s.propagations_flush, 1);
        assert_eq!(s.items_propagated, 112);
        assert_eq!(s.levels_adopted, 2);
        assert_eq!(s.snapshots_published, 1);
        assert_eq!(s.snapshot_reads, 2);
        assert_eq!(s.writer.inserts_sampled, 21);
    }

    /// Collect a walk, checking the rules every implementor keeps: names
    /// match `^gt_[a-z0-9_]+$`, none repeats, and both renderers emit one
    /// key or line per reading.
    fn walk(e: &dyn Exposition) -> Vec<(String, f64)> {
        let mut readings = Vec::new();
        e.visit(&mut |name, value| readings.push((name.to_string(), value)));
        let mut seen = std::collections::HashSet::new();
        for (name, _) in &readings {
            let tail = name.strip_prefix("gt_").unwrap_or_default();
            assert!(!tail.is_empty(), "{name}");
            assert!(tail
                .bytes()
                .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')));
            assert!(seen.insert(name.clone()), "{name} repeats");
        }
        assert_eq!(to_json(e).matches("\":").count(), readings.len());
        assert_eq!(to_text(e).lines().count(), readings.len());
        readings
    }

    const SKETCH_FIELDS: [&str; 10] = [
        "inserts_sampled",
        "inserts_duplicate",
        "inserts_below_level",
        "inserts_sampled_after_promotion",
        "inserts_evicted_by_promotion",
        "level_promotions",
        "merge_calls",
        "merge_entries_absorbed",
        "merge_reconciliations",
        "merge_below_level",
    ];

    #[test]
    fn walks_name_every_field_once() {
        let m = MetricsSnapshot {
            inserts_sampled: 1,
            ..Default::default()
        };
        let sketch = walk(&m);
        let names: Vec<&str> = sketch.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<String> = SKETCH_FIELDS
            .iter()
            .map(|f| format!("gt_sketch_{f}"))
            .collect();
        assert_eq!(names, expected);
        assert_eq!(sketch[0].1, 1.0);

        let c = ConcurrentMetrics::new();
        c.record_propagation(PropagationCause::BufferFull, 5, 0, &m);
        let concurrent = walk(&c.snapshot());
        let names: Vec<&str> = concurrent.iter().map(|(n, _)| n.as_str()).collect();
        let mut expected: Vec<String> = [
            "propagations_buffer_full",
            "propagations_level_lag",
            "propagations_flush",
            "items_propagated",
            "levels_adopted",
            "snapshots_published",
            "snapshot_reads",
        ]
        .iter()
        .map(|f| format!("gt_concurrent_{f}"))
        .collect();
        expected.extend(SKETCH_FIELDS.iter().map(|f| format!("gt_sketch_{f}")));
        assert_eq!(names, expected);
        assert_eq!(concurrent[0].1, 1.0);
        assert_eq!(concurrent[3].1, 5.0);
        assert_eq!(concurrent[7].1, 1.0, "the folded writer counters");
    }

    #[test]
    fn non_finite_readings_render_as_null_and_prometheus_spellings() {
        struct Odd;
        impl Exposition for Odd {
            fn visit(&self, f: &mut dyn FnMut(&str, f64)) {
                f("gt_run_a", f64::INFINITY);
                f("gt_run_b", f64::NAN);
                f("gt_run_c", f64::NEG_INFINITY);
                f("gt_run_d", 1.5);
            }
        }
        assert_eq!(
            to_json(&Odd),
            r#"{"gt_run_a":null,"gt_run_b":null,"gt_run_c":null,"gt_run_d":1.5}"#
        );
        assert_eq!(
            to_text(&Odd),
            "gt_run_a +Inf\ngt_run_b NaN\ngt_run_c -Inf\ngt_run_d 1.5\n"
        );
    }
}
