//! E15 (extension) — heterogeneous parties: shrink/harmonize, then union.
//!
//! Deployments mix budgets: edge boxes with small sketches, collectors
//! with large ones. Claim (from `gt_core::compact`): shrinking to the
//! weakest shape is *exact* (identical to having run that shape), so a
//! mixed fleet unions correctly and accuracy is governed by the weakest
//! member — never worse.

use crate::pct;
use crate::table::Table;
use gt_core::{harmonize, merge_all, DistinctSketch, SketchConfig};
use gt_hash::HashFamilyKind;

/// Run E15.
pub fn run(quick: bool) -> Vec<Table> {
    let (distinct, seeds) = if quick {
        (20_000u64, 8u64)
    } else {
        (60_000, 25)
    };

    let shapes: &[(&str, usize, usize)] = &[
        ("edge (c=256, r=5)", 256, 5),
        ("mid (c=1200, r=9)", 1200, 9),
        ("dc (c=4800, r=19)", 4800, 19),
    ];

    let mut t = Table::new(
        "E15",
        "heterogeneous-fleet unions via harmonize",
        &[
            "fleet",
            "weakest_capacity",
            "p50_err",
            "p95_err",
            "native_weakest_p95",
        ],
    );

    // Every pair + the full trio.
    let fleets: &[&[usize]] = &[&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
    let universe: Vec<u64> = crate::experiments::common::labels(distinct, 0xE15);
    for &fleet in fleets {
        let weakest = fleet.iter().map(|&i| shapes[i].1).min().unwrap();
        let mut errs = Vec::new();
        let mut native_errs = Vec::new();
        for seed in 0..seeds {
            // Party i observes its own slice of the universe + overlap.
            let chunk = distinct as usize / fleet.len();
            let mut parts: Vec<DistinctSketch> = Vec::new();
            let mut native_parts: Vec<DistinctSketch> = Vec::new();
            let weakest_cfg = SketchConfig::from_shape(
                0.2,
                0.2,
                weakest,
                fleet.iter().map(|&i| shapes[i].2).min().unwrap(),
                HashFamilyKind::Pairwise,
            )
            .unwrap();
            for (slot, &i) in fleet.iter().enumerate() {
                let (_, cap, trials) = shapes[i];
                let cfg = SketchConfig::from_shape(0.2, 0.2, cap, trials, HashFamilyKind::Pairwise)
                    .unwrap();
                let lo = slot * chunk / 2; // 50% overlap between neighbours
                let hi = (lo + chunk).min(universe.len());
                let mut s = DistinctSketch::new(&cfg, 0xE1500 + seed);
                s.extend_labels(universe[lo..hi].iter().copied());
                parts.push(s);
                let mut n = DistinctSketch::new(&weakest_cfg, 0xE1500 + seed);
                n.extend_labels(universe[lo..hi].iter().copied());
                native_parts.push(n);
            }
            // Harmonize pairwise down to the common shape, then union.
            let mut acc = parts[0].clone();
            for p in &parts[1..] {
                let (a, b) = harmonize(&acc, p).unwrap();
                acc = a.merged(&b).unwrap();
            }
            // Ground truth via an exact pass.
            let mut truth_set = std::collections::HashSet::new();
            for (slot, _) in fleet.iter().enumerate() {
                let lo = slot * chunk / 2;
                let hi = (lo + chunk).min(universe.len());
                truth_set.extend(universe[lo..hi].iter().copied());
            }
            let truth = truth_set.len() as f64;
            errs.push(gt_core::relative_error(
                acc.estimate_distinct().value,
                truth,
            ));
            let native = merge_all(&native_parts).unwrap();
            native_errs.push(gt_core::relative_error(
                native.estimate_distinct().value,
                truth,
            ));
        }
        let p50 = gt_core::quantile_f64(&mut errs.clone(), 0.5);
        let p95 = gt_core::quantile_f64(&mut errs, 0.95);
        let native_p95 = gt_core::quantile_f64(&mut native_errs, 0.95);
        let fleet_name: Vec<&str> = fleet.iter().map(|&i| shapes[i].0).collect();
        t.row(vec![
            fleet_name.join(" + "),
            weakest.to_string(),
            pct(p50),
            pct(p95),
            pct(native_p95),
        ]);
    }
    t.note(format!(
        "{distinct} distinct labels split with 50% neighbour overlap, {seeds} seeds"
    ));
    t.note("expected (unchecked): harmonized p95 ~ native_weakest_p95 (shrinking costs nothing beyond running the weakest shape natively)");
    vec![t]
}
