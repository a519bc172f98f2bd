//! E16 (extension) — sliding-window distinct counting vs the landmark
//! recency sketch.
//!
//! Claim (from `gt_core::window`): the level-ladder sliding-window sketch
//! answers "distinct since t₀" with relative error ~ε for ANY window,
//! because each level retains the most *recent* c labels at its sampling
//! rate. The landmark `RecencySketch` answers the same query with only
//! additive ε·F₀(total) error — fine for wide windows, useless for
//! narrow ones once history accumulates. This experiment measures the
//! crossover.

use crate::pct;
use crate::table::Table;
use gt_core::{RecencySketch, SketchConfig, SlidingWindowSketch};
use gt_hash::HashFamilyKind;

/// Run E16.
pub fn run(quick: bool) -> Vec<Table> {
    // The window sketch pays an O(capacity) eviction scan per fresh
    // label at low levels, so sweeps are kept modest even in full mode.
    let n: u64 = if quick { 30_000 } else { 50_000 };
    let seeds: u64 = if quick { 5 } else { 10 };
    // Same budget class for both sketches.
    let config = SketchConfig::from_shape(0.1, 0.1, 300, 9, HashFamilyKind::Pairwise).unwrap();

    let mut t = Table::new(
        "E16",
        "sliding-window vs landmark recency queries",
        &["window", "truth", "window_p95_err", "landmark_p95_err"],
    );

    let windows: Vec<u64> = vec![100, 1_000, 10_000, n];
    for &w in &windows {
        let mut win_errs = Vec::new();
        let mut rec_errs = Vec::new();
        for seed in 0..seeds {
            let mut win = SlidingWindowSketch::new(&config, 0xE1600 + seed);
            let mut rec = RecencySketch::new(&config, 0xE1600 + seed);
            // One fresh label per tick: window of size w holds w distinct.
            for ts in 0..n {
                let label = gt_hash::fold61(ts ^ (seed << 40));
                win.insert(label, ts);
                rec.insert(label, ts);
            }
            let t0 = n - w;
            let truth = w as f64;
            win_errs.push(gt_core::relative_error(
                win.estimate_distinct_since(t0).value,
                truth,
            ));
            rec_errs.push(gt_core::relative_error(
                rec.estimate_distinct_since(t0).value,
                truth,
            ));
        }
        t.row(vec![
            format!("last {w}"),
            w.to_string(),
            pct(gt_core::quantile_f64(&mut win_errs, 0.95)),
            pct(gt_core::quantile_f64(&mut rec_errs, 0.95)),
        ]);
    }
    t.note(format!(
        "stream: {n} distinct labels at 1/tick; both sketches at capacity 300 x 9 trials; {seeds} seeds"
    ));
    t.note("expected (unchecked): window_p95_err flat (~eps) at every width; landmark error explodes for narrow windows (additive eps x F0_total)");
    t.note("the price: the window sketch stores up to 40 levels x capacity per trial (the log N factor of the 2002 follow-up)");
    vec![t]
}
