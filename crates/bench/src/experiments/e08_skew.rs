//! E8 — distribution robustness.
//!
//! Claim: F₀ estimation depends only on the distinct-label set, so the
//! error is flat across item-frequency skew. We sweep Zipf θ over a
//! distributed workload and report both the measured duplication factor
//! (which changes a lot) and the union error (which must not).

use crate::pct;
use crate::table::Table;
use gt_core::SketchConfig;
use gt_streams::{run_batch, Distribution, StreamOracle, WorkloadSpec};

/// Run E8.
pub fn run(quick: bool) -> Vec<Table> {
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let distinct = if quick { 10_000 } else { 30_000 };
    let seeds: u64 = if quick { 5 } else { 15 };

    let mut t = Table::new(
        "E8",
        "union error vs item-frequency skew",
        &[
            "distribution",
            "touched_distinct",
            "duplication",
            "mean_err",
            "max_err",
        ],
    );

    let dists = [
        ("each-once", Distribution::EachOnce),
        ("uniform", Distribution::Uniform),
        ("zipf(0.5)", Distribution::Zipf(0.5)),
        ("zipf(1.0)", Distribution::Zipf(1.0)),
        ("zipf(1.5)", Distribution::Zipf(1.5)),
        ("zipf(2.0)", Distribution::Zipf(2.0)),
    ];
    for (name, dist) in dists {
        let spec = WorkloadSpec {
            parties: 4,
            distinct_per_party: distinct,
            overlap: 0.5,
            items_per_party: distinct * 5,
            distribution: dist,
            seed: 0xE8,
        };
        let streams = spec.generate();
        let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
        let mut errs = Vec::new();
        for s in 0..seeds {
            let report = run_batch(&config, 0xE800 + s, &streams, &[], &[]);
            errs.push(report.relative_error);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().copied().fold(0.0, f64::max);
        t.row(vec![
            name.to_string(),
            oracle.distinct().to_string(),
            format!("{:.1}x", oracle.duplication_factor()),
            pct(mean),
            pct(max),
        ]);
    }
    t.note("4 parties, 50% overlap; heavier skew -> fewer touched labels & more duplication");
    t.note(
        "expected (unchecked): mean_err flat (within noise) across the sweep; no drift with skew",
    );
    vec![t]
}
