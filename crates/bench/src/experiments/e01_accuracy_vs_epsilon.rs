//! E1 — accuracy vs ε.
//!
//! Claim: the estimate is within `±ε` of the true distinct count with
//! probability ≥ `1 − δ`. We sweep ε at fixed δ, measure the relative
//! error over many master seeds, and report quantiles plus the observed
//! failure rate, which must sit below δ.

use crate::experiments::common::{error_samples, labels};
use crate::table::Table;
use crate::{pct, ErrorSummary};
use gt_core::SketchConfig;

/// Run E1.
pub fn run(quick: bool) -> Vec<Table> {
    let (n, seeds) = if quick {
        (30_000u64, 30u64)
    } else {
        (100_000, 200)
    };
    let delta = 0.05;
    let universe = labels(n, 0xE1);

    let mut t = Table::new(
        "E1",
        "accuracy vs epsilon",
        &[
            "eps",
            "capacity",
            "trials",
            "mean_err",
            "p50_err",
            "p95_err",
            "max_err",
            "P(err>eps)",
            "delta",
        ],
    );
    for eps in [0.02, 0.05, 0.10, 0.20] {
        let config = SketchConfig::new(eps, delta).unwrap();
        let errs = error_samples(&config, &universe, seeds, 0xE100);
        let s = ErrorSummary::of(errs, eps);
        t.row(vec![
            format!("{eps}"),
            config.capacity().to_string(),
            config.trials().to_string(),
            pct(s.mean),
            pct(s.p50),
            pct(s.p95),
            pct(s.max),
            pct(s.frac_over),
            format!("{delta}"),
        ]);
    }
    t.note(format!(
        "n = {n} distinct labels, {seeds} master seeds per row"
    ));
    t.note("expected (unchecked): P(err>eps) <= delta for every row, and p95 scales ~linearly with eps");
    vec![t]
}
