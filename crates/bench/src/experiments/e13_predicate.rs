//! E13 — predicate-restricted distinct counts at query time.
//!
//! Claim: for any post-hoc predicate, the estimate is unbiased with
//! **additive** error `± ε · F₀(total)`. We sweep predicate selectivity
//! from 50% down to 0.1% and check the additive bound holds while the
//! relative error (correctly) degrades for rare sub-populations.

use crate::pct;
use crate::table::Table;
use gt_core::{DistinctSketch, SketchConfig};

/// Run E13.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 40_000u64 } else { 100_000 };
    let seeds: u64 = if quick { 8 } else { 25 };
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let universe = crate::experiments::common::labels(n, 0xE13);

    let mut t = Table::new(
        "E13",
        "predicate-restricted counts vs selectivity",
        &[
            "selectivity",
            "truth",
            "p95_abs_err",
            "eps*F0_bound",
            "p95_rel_err",
        ],
    );

    for denom in [2u64, 10, 100, 1000] {
        // Selectivity 1/denom via a stable pseudo-random label property.
        let pred = move |l: u64| gt_hash::mix64(l).is_multiple_of(denom);
        let truth = universe.iter().filter(|&&l| pred(l)).count() as f64;

        let mut abs_errs = Vec::new();
        let mut rel_errs = Vec::new();
        for s in 0..seeds {
            let mut sk = DistinctSketch::new(&config, 0xE1300 + s);
            sk.extend_labels(universe.iter().copied());
            let est = sk.estimate_distinct_where(pred).value;
            abs_errs.push((est - truth).abs());
            rel_errs.push(if truth > 0.0 {
                (est - truth).abs() / truth
            } else {
                0.0
            });
        }
        let p95_abs = gt_core::quantile_f64(&mut abs_errs, 0.95);
        let p95_rel = gt_core::quantile_f64(&mut rel_errs, 0.95);
        t.row(vec![
            format!("1/{denom}"),
            format!("{truth:.0}"),
            format!("{p95_abs:.0}"),
            format!("{:.0}", 0.05 * n as f64),
            pct(p95_rel),
        ]);
    }
    t.note(format!("n = {n} total distinct, eps = 0.05, {seeds} seeds"));
    t.note("expected (unchecked): p95_abs_err <= eps x F0(total) for every selectivity; relative error grows as the sub-population shrinks (the documented trade-off)");
    vec![t]
}
