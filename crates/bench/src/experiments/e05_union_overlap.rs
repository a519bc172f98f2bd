//! E5 — the headline: estimating on the union of distributed streams.
//!
//! Claims under test:
//! 1. The coordinated union estimate stays within ε regardless of the
//!    number of parties `t` and of how much their streams overlap.
//! 2. The naive alternatives fail in the predicted directions:
//!    summing per-party estimates overcounts by up to `t×` under overlap,
//!    and the reservoir-sampling strawman overcounts with duplication.

use crate::pct;
use crate::table::Table;
use gt_baselines::{DistinctCounter, ReservoirSample};
use gt_core::SketchConfig;
use gt_streams::{run_batch, Distribution, WorkloadSpec};

/// Run E5.
pub fn run(quick: bool) -> Vec<Table> {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let parties_sweep: &[usize] = if quick {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let distinct = if quick { 5_000 } else { 20_000 };

    let mut t = Table::new(
        "E5",
        "union estimation vs parties and overlap",
        &[
            "parties",
            "overlap",
            "truth",
            "gt_union_err",
            "naive_sum_ratio",
            "reservoir_ratio",
        ],
    );

    for &parties in parties_sweep {
        for overlap in [0.0, 0.5, 1.0] {
            let spec = WorkloadSpec {
                parties,
                distinct_per_party: distinct,
                overlap,
                items_per_party: distinct * 4,
                distribution: Distribution::Uniform,
                seed: 0xE5 + parties as u64,
            };
            let streams = spec.generate();
            let report = run_batch(&config, 0xE500 + parties as u64, &streams, &[], &[]);

            // Naive 1: independent per-party sketches, estimates summed.
            let naive_sum: f64 = streams
                .streams
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut sk = gt_core::DistinctSketch::new(&config, 0xDEAD + i as u64);
                    sk.extend_labels(s.iter().copied());
                    sk.estimate_distinct().value
                })
                .sum();

            // Naive 2: concatenate per-party reservoirs, scale up.
            let mut reservoir_total = 0.0;
            for (i, s) in streams.streams.iter().enumerate() {
                let mut r = ReservoirSample::new(config.max_sample_entries() / parties, i as u64);
                r.extend_labels(s.iter().copied());
                reservoir_total += r.estimate();
            }

            let truth = report.truth as f64;
            t.row(vec![
                parties.to_string(),
                format!("{overlap}"),
                report.truth.to_string(),
                pct(report.relative_error),
                format!("{:.2}x", naive_sum / truth),
                format!("{:.2}x", reservoir_total / truth),
            ]);
        }
    }
    t.note("gt_union_err: coordinated merge at the referee (expected flat, <= ~10% everywhere)");
    t.note("naive_sum_ratio: sum of per-party estimates / truth (expected -> t x at overlap 1.0)");
    t.note("reservoir_ratio: concatenated naive reservoir scale-up / truth (expected >> 1 with duplication)");
    vec![t]
}
