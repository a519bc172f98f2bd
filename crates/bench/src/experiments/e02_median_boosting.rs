//! E2 — median boosting.
//!
//! Claim: the failure probability of the median-of-r-trials estimator
//! decays exponentially in `r` (hence `r = Θ(log 1/δ)` trials suffice).
//! We fix ε and the per-trial capacity, sweep the trial count, and measure
//! `P(err > ε)` across master seeds; the observed failure rate should fall
//! monotonically (and roughly geometrically) with `r`.

use crate::experiments::common::{error_samples, labels};
use crate::pct;
use crate::table::Table;
use gt_core::SketchConfig;
use gt_hash::HashFamilyKind;

/// Run E2.
pub fn run(quick: bool) -> Vec<Table> {
    let (n, seeds) = if quick {
        (30_000u64, 60u64)
    } else {
        (100_000, 300)
    };
    let eps: f64 = 0.1;
    // Deliberately tight capacity (k = 3) so single trials fail visibly
    // and the boosting effect is measurable within the seed budget.
    let capacity = (3.0 / (eps * eps)).ceil() as usize;
    let universe = labels(n, 0xE2);

    let mut t = Table::new(
        "E2",
        "median boosting",
        &["trials", "mean_err", "p95_err", "P(err>eps)"],
    );
    for trials in [1usize, 3, 5, 9, 15, 25] {
        let config =
            SketchConfig::from_shape(eps, 0.05, capacity, trials, HashFamilyKind::Pairwise)
                .unwrap();
        let errs = error_samples(&config, &universe, seeds, 0xE200);
        let s = crate::ErrorSummary::of(errs, eps);
        t.row(vec![
            trials.to_string(),
            pct(s.mean),
            pct(s.p95),
            pct(s.frac_over),
        ]);
    }
    t.note(format!(
        "eps = {eps}, per-trial capacity {capacity} (k = 3, deliberately tight), n = {n}, {seeds} seeds"
    ));
    t.note("expected (unchecked): P(err>eps) decreases (roughly geometrically) as trials grow");
    vec![t]
}
