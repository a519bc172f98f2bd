//! Store observability: per-shard tallies with a consistent-cut snapshot.
//!
//! The counters follow the aggregation ordering rule from
//! `gt_core::metrics`: every counter is recorded while holding the lock of
//! the shard it describes, and [`crate::SketchStore::metrics_snapshot`]
//! acquires **all** shard locks (in index order) before reading the first
//! counter. The snapshot is therefore a consistent cut — sums like
//! `resident_keys + spilled_keys == keys` hold exactly, and
//! no in-flight batch is half-counted.
//!
//! Like the sketch-level metrics there are no atomics here: each shard
//! counts its events into its own [`StoreMetricsSnapshot`], touched only
//! under that shard's mutex, so plain `u64` fields are already race-free
//! and cost one untyped add per event.

use gt_core::metrics::Exposition;

/// Consistent-cut view of a [`crate::SketchStore`]'s counters and gauges.
///
/// Produced by [`crate::SketchStore::metrics_snapshot`]; all shard locks
/// are held for the duration of the read, so the numbers describe one
/// instant of the store, not a smear across concurrent batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetricsSnapshot {
    /// Shard count of the store (fixed at construction).
    pub shards: u64,
    /// Labels ingested, across all keys and shards.
    pub items: u64,
    /// Key-runs processed: one per `(batch, shard, key)` group, i.e. how
    /// many times a per-key state was located and appended to.
    pub key_runs: u64,
    /// Delta-buffer folds: packed state materialized into a scratch
    /// sketch, deltas replayed, state written back.
    pub folds: u64,
    /// Raw delta items replayed during folds.
    pub delta_replayed: u64,
    /// Slot-class promotions (key outgrew its slot, moved to a larger
    /// class).
    pub promotions: u64,
    /// Always 0: every point query folds the key's current state, so no
    /// query is answered from a cache. Kept only for readers that still
    /// report it.
    pub front_hits: u64,
    /// Cold keys evicted to the spill log.
    pub evictions: u64,
    /// Spill-record bytes appended: packed words + an 8-byte trailer each.
    pub spilled_bytes: u64,
    /// Spilled keys restored on touch.
    pub restores: u64,
    /// Spill-record bytes read back by restores that passed every check.
    pub restored_bytes: u64,
    /// Spill-log compaction passes (a shard crossed its dead-fraction
    /// threshold and rewrote the live records).
    pub compactions: u64,
    /// Dead spill-log bytes reclaimed by compaction passes.
    pub reclaimed_bytes: u64,
    /// Point queries served (both tiers).
    pub queries: u64,
    /// Keys currently tracked (resident + spilled).
    pub keys: u64,
    /// Keys currently resident, each in its own packed slot.
    pub resident_keys: u64,
    /// Resident keys whose packed section is in exact form: every trial
    /// still at level 0, stored as one shared label list. A subset of
    /// `resident_keys`; keys that have only buffered deltas are not
    /// counted.
    pub exact_keys: u64,
    /// Keys currently only on disk.
    pub spilled_keys: u64,
    /// Budget-accounted bytes: the slots of the resident keys.
    pub resident_bytes: u64,
    /// The store's configured byte budget.
    pub budget_bytes: u64,
}

impl StoreMetricsSnapshot {
    /// Add a shard's event counters (the fields from `items` through
    /// `queries`); the gauges are summed by the caller.
    pub(crate) fn absorb_tally(&mut self, t: &StoreMetricsSnapshot) {
        self.items += t.items;
        self.key_runs += t.key_runs;
        self.folds += t.folds;
        self.delta_replayed += t.delta_replayed;
        self.promotions += t.promotions;
        self.front_hits += t.front_hits;
        self.evictions += t.evictions;
        self.spilled_bytes += t.spilled_bytes;
        self.restores += t.restores;
        self.restored_bytes += t.restored_bytes;
        self.compactions += t.compactions;
        self.reclaimed_bytes += t.reclaimed_bytes;
        self.queries += t.queries;
    }
}

impl Exposition for StoreMetricsSnapshot {
    fn visit(&self, f: &mut dyn FnMut(&str, f64)) {
        gt_core::expose!(f, "gt_store_", self; shards, items, key_runs, folds, delta_replayed,
            promotions, front_hits, evictions, spilled_bytes, restores, restored_bytes, compactions,
            reclaimed_bytes, queries, keys, resident_keys, exact_keys, spilled_keys, resident_bytes,
            budget_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_tallies() {
        let mut snap = StoreMetricsSnapshot::default();
        let t = StoreMetricsSnapshot {
            items: 10,
            keys: 5,
            evictions: 2,
            front_hits: 3,
            ..Default::default()
        };
        snap.absorb_tally(&t);
        snap.absorb_tally(&t);
        assert_eq!(snap.items, 20);
        assert_eq!(snap.evictions, 4);
        assert_eq!(snap.front_hits, 6);
        assert_eq!(snap.keys, 0, "gauges are not tallies");
    }

    #[test]
    fn walk_names_every_field_once() {
        let snap = StoreMetricsSnapshot {
            shards: 4,
            items: 123,
            resident_bytes: 456,
            ..Default::default()
        };
        let mut readings = Vec::new();
        snap.visit(&mut |name, value| readings.push((name.to_string(), value)));
        let names: Vec<String> = readings.iter().map(|(n, _)| n.clone()).collect();
        let expected: Vec<String> = [
            "shards",
            "items",
            "key_runs",
            "folds",
            "delta_replayed",
            "promotions",
            "front_hits",
            "evictions",
            "spilled_bytes",
            "restores",
            "restored_bytes",
            "compactions",
            "reclaimed_bytes",
            "queries",
            "keys",
            "resident_keys",
            "exact_keys",
            "spilled_keys",
            "resident_bytes",
            "budget_bytes",
        ]
        .iter()
        .map(|f| format!("gt_store_{f}"))
        .collect();
        assert_eq!(names, expected);
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| n.strip_prefix("gt_").is_some_and(|t| t
            .bytes()
            .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')))));
        assert_eq!(readings[0].1, 4.0);
        assert_eq!(readings[1].1, 123.0);
        assert_eq!(readings[18].1, 456.0);
        let json = gt_core::metrics::to_json(&snap);
        assert_eq!(json.matches("\":").count(), readings.len());
        assert!(json.contains("\"gt_store_items\":123"));
        let text = gt_core::metrics::to_text(&snap);
        assert_eq!(text.lines().count(), readings.len());
        assert!(text.contains("\ngt_store_resident_bytes 456\n"));
    }
}
