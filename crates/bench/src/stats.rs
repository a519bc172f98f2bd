//! Demo inputs for the sketch-ops stats report: a small batch run, a
//! delta-plane sustained run and a keyed-store workload, each sized so
//! every counter it exposes is live.
//!
//! The `experiments` binary renders all three with
//! [`gt_core::metrics::to_text`] and [`gt_core::metrics::to_json`] after
//! every run, so CI smoke covers the observability layer end to end.

use gt_store::StoreMetricsSnapshot;
use gt_streams::scenario::E2eReport;
use gt_streams::BatchReport;

/// Run a small fixed scenario and return its report.
pub fn demo_scenario() -> BatchReport {
    let spec = gt_streams::WorkloadSpec {
        parties: 4,
        distinct_per_party: 4_000,
        overlap: 0.5,
        items_per_party: 12_000,
        distribution: gt_streams::Distribution::Zipf(1.05),
        seed: 0x5_7A75,
    };
    let config = gt_core::SketchConfig::new(0.1, 0.05).unwrap();
    gt_streams::run_batch(&config, 0xC0FFEE, &spec.generate(), &[], &[])
}

/// Run a small fixed delta-plane scenario and return its report.
pub fn demo_delta_scenario() -> E2eReport {
    let spec = gt_streams::scenario::ScenarioSpec::builder("stats_demo")
        .parties(3)
        .distinct_per_party(2_000)
        .overlap(0.3)
        .distribution(gt_streams::Distribution::Zipf(1.05))
        .workload_seed(0x5_7A75)
        .sustained(25, 120, 10)
        .query_every(10)
        .query_distinct()
        .delta_plane()
        .build();
    let config = gt_core::SketchConfig::new(0.1, 0.05).unwrap();
    gt_streams::scenario::run_sustained(&config, 0xC0FFEE, &spec)
}

/// Run a small keyed-store workload and return its snapshot. The byte
/// budget is deliberately tight so the eviction and restore counters are
/// live.
pub fn demo_store() -> StoreMetricsSnapshot {
    let config =
        gt_core::SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_hash::HashFamilyKind::Pairwise)
            .expect("static shape");
    let options = gt_store::StoreOptions::default()
        .with_shards(2)
        .with_byte_budget(16 << 10);
    let store = gt_store::DistinctStore::new(&config, 0x5_7A75, options).expect("demo store");
    let items: Vec<(u64, u64)> = (0..30_000u64)
        .map(|i| (i % 300, gt_hash::fold61(i)))
        .collect();
    store.extend(&items).expect("demo ingest");
    for key in 0..300 {
        store.estimate(key).expect("demo query");
    }
    store.metrics_snapshot()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use gt_core::metrics::{to_json, to_text, Exposition};

    use super::*;

    /// Collect a walk, checking the rules every implementor keeps: names
    /// match `^gt_[a-z0-9_]+$`, none repeats, and both renderers emit one
    /// key or line per reading.
    fn walk(e: &dyn Exposition) -> HashMap<String, f64> {
        let mut readings = HashMap::new();
        e.visit(&mut |name, value| {
            let tail = name.strip_prefix("gt_").unwrap_or_default();
            let legal = |b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_');
            assert!(!tail.is_empty() && tail.bytes().all(legal), "{name}");
            assert!(
                readings.insert(name.to_string(), value).is_none(),
                "{name} repeats"
            );
        });
        assert_eq!(to_json(e).matches("\":").count(), readings.len());
        assert_eq!(to_text(e).lines().count(), readings.len());
        readings
    }

    #[test]
    fn demo_walks_name_every_field_once_and_carry_the_demo_numbers() {
        let batch = demo_scenario();
        let referee = walk(&batch.referee_telemetry);
        let mut names: Vec<&str> = referee.keys().map(String::as_str).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "gt_referee_accepted",
                "gt_referee_batches",
                "gt_referee_decode_time_seconds",
                "gt_referee_duplicates_merged",
                "gt_referee_duplicates_suppressed",
                "gt_referee_merge_time_seconds",
                "gt_referee_rejected_bad_magic",
                "gt_referee_rejected_bad_tag",
                "gt_referee_rejected_malformed",
                "gt_referee_rejected_sketch",
                "gt_referee_rejected_truncated",
            ]
        );
        // Eight scalars, three readings per party, and the referee's and
        // union sketch's own walks.
        let run = walk(&batch);
        let sketch = walk(&batch.union_metrics);
        assert_eq!(run.len(), 8 + 3 * 4 + referee.len() + sketch.len());
        assert_eq!(run["gt_run_parties"], 4.0);
        assert_eq!(run["gt_referee_accepted"], 4.0);
        assert_eq!(
            run["gt_run_bytes_per_party_3"],
            batch.bytes_per_party[3] as f64
        );
        // The referee folds 4 messages in one union merge each, in 1..=4
        // batches.
        let batches = run["gt_referee_batches"];
        assert!((1.0..=4.0).contains(&batches), "batches {batches}");
        assert_eq!(run["gt_sketch_merge_calls"], 4.0);

        // Twenty-seven run readings and the referee's walk, then twelve
        // delta-plane readings plus one acked generation per party.
        let delta = walk(&demo_delta_scenario());
        assert_eq!(delta.len(), 27 + referee.len() + 12 + 3);
        assert_eq!(delta["gt_run_parties"], 3.0);
        assert_eq!(delta["gt_delta_oracle_failures"], 0.0);
        assert_eq!(
            delta["gt_delta_full_frames"], 3.0,
            "one initial full frame per party"
        );
        assert!(delta["gt_delta_delta_frames"] > 0.0);
        for party in 0..3 {
            assert!(delta[&format!("gt_delta_acked_generations_{party}")] > 0.0);
        }

        let store = walk(&demo_store());
        assert_eq!(store["gt_store_shards"], 2.0);
        assert_eq!(store["gt_store_keys"], 300.0);
        // The demo budget is tight enough that the spill path is live,
        // in both directions.
        assert!(store["gt_store_evictions"] > 0.0);
        assert!(store["gt_store_restores"] > 0.0);
        assert!(store["gt_store_restored_bytes"] > 0.0);
        assert!(store["gt_store_queries"] >= 300.0);
    }
}
