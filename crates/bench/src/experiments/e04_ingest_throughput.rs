//! E4 — ingest throughput: per-item inserts vs the trial-major reference
//! loop vs the batch-monomorphic kernel.
//!
//! Claim: batching wins twice. Interchanging the loops (trial-major order)
//! keeps one trial's hash coefficients and sample table hot across the
//! whole batch; the kernel then additionally hashes labels in bulk — the
//! hash-family enum is dispatched once per chunk instead of once per
//! (item, trial) — and rejects below-level items with a single mask
//! compare on the raw hash. All three paths produce bitwise-identical
//! sketches (property-tested in `gt-core` and `tests/properties.rs`);
//! this experiment measures the throughput gap across cardinalities and
//! hash families and checks that the kernel never loses to per-item
//! inserts.

use std::time::{Duration, Instant};

use crate::experiments::common::labels;
use crate::table::Table;
use gt_core::{DistinctSketch, SketchConfig};
use gt_hash::HashFamilyKind;

struct Measurement {
    hash: &'static str,
    n: u64,
    path: &'static str,
    ns_per_item: f64,
    items_per_sec: f64,
}

/// One named ingest path under measurement. The closure borrows the
/// label slice being timed, hence the lifetime.
type IngestPath<'a> = (&'static str, Box<dyn Fn(&mut DistinctSketch) + 'a>);

/// Best-of-`reps` wall time of `ingest` run against a fresh sketch each
/// rep (so level promotions replay identically every time).
fn best_of(reps: usize, config: &SketchConfig, ingest: impl Fn(&mut DistinctSketch)) -> Duration {
    let mut best = Duration::MAX;
    for rep in 0..reps {
        let mut sketch = DistinctSketch::new(config, 0xE4);
        let start = Instant::now();
        ingest(&mut sketch);
        let elapsed = start.elapsed();
        best = best.min(elapsed);
        // Keep the sketch observable so the ingest cannot be elided.
        assert!(sketch.items_observed() > 0, "rep {rep} ingested nothing");
    }
    best
}

/// Run E4.
pub fn run(quick: bool) -> Vec<Table> {
    let cardinalities: &[u64] = if quick {
        &[50_000]
    } else {
        &[100_000, 1_000_000]
    };
    let reps = if quick { 2 } else { 3 };
    let kinds: &[(&str, HashFamilyKind)] = &[
        ("pairwise", HashFamilyKind::Pairwise),
        ("tabulation", HashFamilyKind::Tabulation),
        ("multiply_shift", HashFamilyKind::MultiplyShift),
    ];

    let mut measurements: Vec<Measurement> = Vec::new();
    for &(hash, kind) in kinds {
        let config = SketchConfig::new(0.1, 0.05).unwrap().with_hash_kind(kind);
        for &n in cardinalities {
            let data = labels(n, 0xE4 ^ n);
            let paths: [IngestPath<'_>; 3] = [
                (
                    "per_item",
                    Box::new(|s: &mut DistinctSketch| {
                        for &l in &data {
                            s.insert(l);
                        }
                    }),
                ),
                (
                    "batched",
                    Box::new(|s: &mut DistinctSketch| s.extend_slice_reference(&data)),
                ),
                (
                    "kernel",
                    Box::new(|s: &mut DistinctSketch| s.extend_slice(&data)),
                ),
            ];
            for (path, ingest) in paths {
                let best = best_of(reps, &config, ingest);
                let secs = best.as_secs_f64();
                measurements.push(Measurement {
                    hash,
                    n,
                    path,
                    ns_per_item: secs * 1e9 / n as f64,
                    items_per_sec: n as f64 / secs,
                });
            }
        }
    }

    // Kernel speedup vs per-item for every (hash, n) pair; the minimum is
    // the checked number (>= 1.0 means the kernel never loses).
    let mut min_speedup = f64::INFINITY;
    let mut table = Table::new(
        "E4",
        "ingest throughput: per-item vs batched vs kernel",
        &[
            "hash",
            "n",
            "path",
            "ns_per_item",
            "items_per_sec",
            "speedup_vs_per_item",
        ],
    );
    for m in &measurements {
        let per_item_ns = measurements
            .iter()
            .find(|b| b.hash == m.hash && b.n == m.n && b.path == "per_item")
            .expect("per_item baseline measured for every (hash, n)")
            .ns_per_item;
        let speedup = per_item_ns / m.ns_per_item;
        if m.path == "kernel" {
            min_speedup = min_speedup.min(speedup);
        }
        table.row(vec![
            m.hash.to_string(),
            m.n.to_string(),
            m.path.to_string(),
            format!("{:.2}", m.ns_per_item),
            format!("{:.3e}", m.items_per_sec),
            format!("{speedup:.2}x"),
        ]);
    }
    table.note(format!(
        "best of {reps} reps per cell; fresh sketch per rep; config eps=0.1 delta=0.05"
    ));
    table.check(
        min_speedup >= 1.0,
        format!("kernel min speedup vs per-item across cells {min_speedup:.2}x >= 1.00"),
    );
    vec![table]
}
