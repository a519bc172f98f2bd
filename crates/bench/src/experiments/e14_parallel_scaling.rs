//! E14 — parallel scaling: fan-out/merge ingest vs thread count.
//!
//! Claim: because the union of coordinated sketches is *exactly* the
//! sketch of the concatenated input, a batch build can spread ingest
//! across threads with zero accuracy cost. Each thread is a scoped
//! [`gt_core::ConcurrentSketch`] writer over one [`balanced_chunks`]
//! chunk; its threshold never fills, so it propagates once, on drop. This
//! experiment (a) **asserts** bitwise identity of the per-trial sample
//! sets at every thread count against a sequential build, and (b) records
//! and checks the speedup curve.
//!
//! The table records the host's worker count
//! ([`gt_core::effective_workers`]) next to the speedups, because the
//! numbers are meaningless without it: an early "regression" (0.53× at 4
//! threads) was this bench oversubscribing a one-core runner. Since the
//! writer count is clamped to the host's cores, a one-core run reads parity
//! (~1.0×) at every width, so the speedup check demands > 1 at every
//! width the host can honour when `workers >= 2`, and parity (≥ 0.9)
//! everywhere otherwise.

use std::time::{Duration, Instant};

use crate::experiments::common::labels;
use crate::table::Table;
use gt_core::{balanced_chunks, effective_workers, ConcurrentSketch, DistinctSketch, SketchConfig};

fn sample_sets(s: &DistinctSketch) -> Vec<std::collections::BTreeSet<u64>> {
    s.trials()
        .iter()
        .map(|t| t.sample_iter().map(|(k, _)| k).collect())
        .collect()
}

/// Run E14.
pub fn run(quick: bool) -> Vec<Table> {
    let n: u64 = if quick { 300_000 } else { 3_000_000 };
    let threads: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let reps = if quick { 2 } else { 3 };
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let data = labels(n, 0xE14);
    let workers = effective_workers();

    let mut baseline = DistinctSketch::new(&config, 0xE14);
    baseline.extend_slice(&data);
    let baseline_sets = sample_sets(&baseline);

    let mut single_thread_best = Duration::MAX;
    let mut table = Table::new(
        "E14",
        "parallel build scaling (bitwise-identical at every width)",
        &[
            "threads",
            "effective",
            "wall_ms",
            "items_per_sec",
            "speedup_vs_1",
            "identical",
        ],
    );
    for &t in threads {
        let mut best = Duration::MAX;
        for _ in 0..reps {
            let start = Instant::now();
            let sketch = ConcurrentSketch::new(&config, 0xE14);
            crossbeam::scope(|scope| {
                for chunk in balanced_chunks(&data, t.min(workers)) {
                    let sketch = &sketch;
                    scope
                        .spawn(move |_| sketch.writer_with_threshold(u64::MAX).extend_slice(chunk));
                }
            })
            .expect("writer threads join");
            let snapshot = sketch.snapshot();
            let elapsed = start.elapsed();
            best = best.min(elapsed);
            // The whole point: parallelism must not change the state.
            assert_eq!(
                sample_sets(snapshot.sketch()),
                baseline_sets,
                "parallel build diverged at {t} threads"
            );
        }
        if t == 1 {
            single_thread_best = best;
        }
        let ms = best.as_secs_f64() * 1e3;
        let speedup = single_thread_best.as_secs_f64() / best.as_secs_f64();
        table.row(vec![
            t.to_string(),
            t.min(workers).to_string(),
            format!("{ms:.1}"),
            format!("{:.3e}", n as f64 / best.as_secs_f64()),
            format!("{speedup:.2}x"),
            "yes".to_string(),
        ]);
        if workers < 2 {
            table.check(
                speedup >= 0.9,
                format!("{t} threads on a single-core host: speedup {speedup:.2}x >= 0.90"),
            );
        } else if (2..=workers).contains(&t) {
            table.check(
                speedup > 1.0,
                format!("{t} threads on {workers} workers: speedup {speedup:.2}x > 1.00"),
            );
        }
    }
    table.note(format!(
        "n = {n} labels, best of {reps} reps; identity asserted per rep (panics on divergence)"
    ));
    table.note(format!(
        "host workers (effective_workers) = {workers}; requested thread counts are \
         ceilings, clamped to the host — 'effective' is the writer count that ran"
    ));
    vec![table]
}
