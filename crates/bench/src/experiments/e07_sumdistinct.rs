//! E7 — SumDistinct under duplication.
//!
//! Claim: the SumDistinct estimate depends only on the distinct labels —
//! the duplication factor is invisible — while a plain running sum
//! overcounts by exactly that factor. Also measures the value-skew
//! sensitivity documented in `gt_core::sumdistinct`.

use crate::pct;
use crate::table::Table;
use gt_core::{SketchConfig, SumDistinctSketch};

/// Run E7.
pub fn run(quick: bool) -> Vec<Table> {
    let distinct = if quick { 20_000u64 } else { 50_000 };
    let config = SketchConfig::new(0.05, 0.05).unwrap();
    let universe = crate::experiments::common::labels(distinct, 0xE7);
    let value_of = |l: u64| l % 10 + 1; // values in [1, 10]
    let truth: u64 = universe.iter().map(|&l| value_of(l)).sum();

    let mut t = Table::new(
        "E7a",
        "SumDistinct vs duplication factor",
        &["duplication", "plain_sum_ratio", "sumdistinct_err"],
    );
    for dup in [1u64, 3, 10, 30, 100] {
        let mut sketch = SumDistinctSketch::new(&config, 0xE701);
        let mut plain_sum = 0u64;
        for rep in 0..dup {
            for i in 0..universe.len() {
                // permute order per pass so duplication isn't batched
                let idx =
                    (i as u64).wrapping_mul(0x9E3779B9).wrapping_add(rep) as usize % universe.len();
                let label = universe[idx];
                sketch.insert(label, value_of(label));
                plain_sum += value_of(label);
            }
        }
        let est = sketch.estimate_sum().value;
        t.row(vec![
            format!("{dup}x"),
            format!("{:.1}x", plain_sum as f64 / truth as f64),
            pct((est - truth as f64).abs() / truth as f64),
        ]);
    }
    t.note(format!(
        "{distinct} distinct labels, values in [1, 10], eps = 0.05"
    ));
    t.note("expected (unchecked): sumdistinct_err flat in duplication; plain_sum_ratio = duplication exactly");

    // Value-skew sensitivity: widen the value range at fixed capacity.
    let mut skew = Table::new(
        "E7b",
        "SumDistinct error vs value skew (R = max/mean ratio grows)",
        &["value_range", "R_over_mean", "sum_err", "distinct_err"],
    );
    for range in [1u64, 10, 100, 1000] {
        let value = |l: u64| l % range + 1;
        let truth: u64 = universe.iter().map(|&l| value(l)).sum();
        let mut sketch = SumDistinctSketch::new(&config, 0xE702);
        for &l in &universe {
            sketch.insert(l, value(l));
        }
        let mean = truth as f64 / distinct as f64;
        skew.row(vec![
            format!("[1, {range}]"),
            format!("{:.1}", range as f64 / mean),
            pct((sketch.estimate_sum().value - truth as f64).abs() / truth as f64),
            pct((sketch.estimate_distinct().value - distinct as f64).abs() / distinct as f64),
        ]);
    }
    skew.note("expected: sum_err grows ~ sqrt(R/mean) at fixed capacity; distinct_err unaffected");

    vec![t, skew]
}
