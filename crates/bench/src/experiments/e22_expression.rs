//! E22 — set-expression queries at the referee: accuracy vs expression
//! depth and operand overlap.
//!
//! Claim: the expression engine answers composite set queries
//! (∪ / ∩ / ∖ nests and Jaccard between sub-expressions) over the
//! referee's retained per-party summaries within the additive error
//! contract ε·|union of referenced streams| — at every nesting depth, not
//! just the pairwise depth the `similarity()` path already covered. The
//! queries run on the same single-message-per-party state the union
//! estimate uses; no extra communication is spent.
//!
//! The sweep crosses expression depth (a leaf, then one operator added
//! per level up to depth 4) with the workload's overlap fraction, because
//! overlap is what moves the intersection/difference truths from empty to
//! total. Every answer is scored against the exact oracle
//! ([`gt_core::expr::SetExpr::eval_exact`] over the raw streams) in
//! contract units: `|estimate − truth| / (ε·|referenced union|)`.
//!
//! Checks, for the leaf through a depth-4 nest, that the max scaled error
//! stays within `depth` contract units, and that Jaccard's max absolute
//! error stays within 2ε.

use crate::table::Table;
use gt_core::{SetExpr, SketchConfig};
use gt_streams::{run_batch, Distribution, WorkloadSpec};

/// Accuracy accumulator for one expression shape across the sweep.
struct DepthStats {
    depth: usize,
    expr: String,
    scaled_errors: Vec<f64>,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Run E22.
pub fn run(quick: bool) -> Vec<Table> {
    let distinct_per_party: u64 = if quick { 6_000 } else { 30_000 };
    let seeds: u64 = if quick { 2 } else { 5 };
    let overlaps: &[f64] = if quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let config = SketchConfig::new(0.1, 0.05).expect("static parameters");
    let epsilon = config.epsilon();

    // One operator added per level: depth d references the first d
    // operands, so every leaf is load-bearing at its depth.
    let (a, b, c, d) = (
        SetExpr::leaf(0),
        SetExpr::leaf(1),
        SetExpr::leaf(2),
        SetExpr::leaf(3),
    );
    let queries = [
        a.clone(),
        a.clone().union(b.clone()),
        a.clone().union(b.clone()).intersect(c.clone()),
        a.clone()
            .union(b.clone())
            .intersect(c.clone())
            .difference(d.clone()),
    ];
    let jaccard_queries = [(a.clone().union(b.clone()), c.clone().difference(a.clone()))];

    let mut depth_stats: Vec<DepthStats> = queries
        .iter()
        .map(|q| DepthStats {
            depth: q.depth(),
            expr: q.to_string(),
            scaled_errors: Vec::new(),
        })
        .collect();
    let mut jaccard_abs_errors: Vec<f64> = Vec::new();

    let mut table = Table::new(
        "E22",
        "set-expression queries at the referee: error vs depth and overlap",
        &[
            "overlap",
            "seed",
            "expr (depth)",
            "estimate",
            "truth",
            "scaled err",
        ],
    );

    for &overlap in overlaps {
        for seed in 0..seeds {
            let spec = WorkloadSpec {
                parties: 4,
                distinct_per_party,
                overlap,
                items_per_party: distinct_per_party * 2,
                distribution: Distribution::Uniform,
                seed: 0xE22 + seed,
            };
            let streams = spec.generate();
            let report = run_batch(&config, 1000 + seed, &streams, &queries, &jaccard_queries);
            for (outcome, stats) in report.queries.iter().zip(depth_stats.iter_mut()) {
                stats.scaled_errors.push(outcome.scaled_error);
                table.row(vec![
                    format!("{overlap:.2}"),
                    seed.to_string(),
                    format!("{} ({})", outcome.expr, outcome.depth),
                    format!("{:.0}", outcome.answer.estimate.value),
                    outcome.truth.to_string(),
                    format!("{:.3}", outcome.scaled_error),
                ]);
            }
            for outcome in &report.jaccard_queries {
                jaccard_abs_errors.push(outcome.abs_error);
                table.row(vec![
                    format!("{overlap:.2}"),
                    seed.to_string(),
                    format!("J({}, {})", outcome.exprs.0, outcome.exprs.1),
                    format!("{:.4}", outcome.answer.jaccard),
                    format!("{:.4}", outcome.truth),
                    format!("{:.4} (abs)", outcome.abs_error),
                ]);
            }
        }
    }

    let mut summary = Table::new(
        "E22-summary",
        "scaled error by expression depth (contract units: eps * |referenced union|)",
        &[
            "expr",
            "depth",
            "queries",
            "mean scaled err",
            "max scaled err",
        ],
    );
    for stats in &depth_stats {
        summary.row(vec![
            stats.expr.clone(),
            stats.depth.to_string(),
            stats.scaled_errors.len().to_string(),
            format!("{:.3}", mean(&stats.scaled_errors)),
            format!("{:.3}", max(&stats.scaled_errors)),
        ]);
    }
    summary.row(vec![
        "Jaccard (abs error)".into(),
        "-".into(),
        jaccard_abs_errors.len().to_string(),
        format!("{:.4}", mean(&jaccard_abs_errors)),
        format!("{:.4}", max(&jaccard_abs_errors)),
    ]);
    summary.note(format!(
        "4 parties, {distinct_per_party} distinct/party, overlaps {overlaps:?}, {seeds} seeds, \
         eps = {epsilon}; scaled err <= 1 is the single-estimate contract, deeper nests compound \
         additively (each operator adds one coordinated estimate's worth of slack)"
    ));
    let depths: Vec<usize> = depth_stats.iter().map(|s| s.depth).collect();
    summary.check(
        depths == [1, 2, 3, 4],
        format!("the sweep covers the leaf through a depth-4 nest: depths {depths:?}"),
    );
    for stats in &depth_stats {
        let worst = max(&stats.scaled_errors);
        summary.check(
            !stats.scaled_errors.is_empty() && worst <= stats.depth as f64,
            format!(
                "depth {}: max scaled error {worst:.3} <= {} over {} queries",
                stats.depth,
                stats.depth,
                stats.scaled_errors.len()
            ),
        );
    }
    let worst = max(&jaccard_abs_errors);
    summary.check(
        !jaccard_abs_errors.is_empty() && worst <= 2.0 * epsilon,
        format!(
            "Jaccard max abs error {worst:.4} <= 2*eps = {} over {} queries",
            2.0 * epsilon,
            jaccard_abs_errors.len()
        ),
    );
    vec![table, summary]
}
