//! E11 — ablations: why the paper's assumptions matter.
//!
//! (a) **Hash family.** The analysis requires pairwise independence. We run
//! the identical estimator over sound families (pairwise, 4-wise,
//! tabulation, multiply–shift) and deliberately broken ones, on both a
//! mixed and an adversarially sequential universe, and report error
//! quantiles plus the calibration metric from `gt_hash::quality`.
//! Expected: sound families indistinguishable (extra independence buys
//! nothing, as the paper's analysis predicts); `shift(3)` biased ~8×;
//! `low-entropy` high variance; `identity` fine on random labels but
//! wrecked by structure.
//!
//! (b) **Capacity constant.** `c = k/ε²` for `k ∈ {1, 3, 12, 36}`:
//! error shrinks like `1/√k`, motivating the default `k = 12`.

use crate::pct;
use crate::table::Table;
use crate::ErrorSummary;
use gt_core::{DistinctSketch, SketchConfig};
use gt_hash::quality;
use gt_hash::{FamilySeed, HashFamilyKind};

fn errors(config: &SketchConfig, labels: &[u64], seeds: u64, base: u64) -> ErrorSummary {
    let truth = labels
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len() as f64;
    let errs: Vec<f64> = (0..seeds)
        .map(|s| {
            let mut sk = DistinctSketch::new(config, base + s);
            sk.extend_labels(labels.iter().copied());
            gt_core::relative_error(sk.estimate_distinct().value, truth)
        })
        .collect();
    ErrorSummary::of(errs, f64::INFINITY)
}

/// Run E11.
pub fn run(quick: bool) -> Vec<Table> {
    let (n, seeds) = if quick {
        (20_000u64, 10u64)
    } else {
        (60_000, 30)
    };
    let mixed: Vec<u64> = crate::experiments::common::labels(n, 0xE11);
    let sequential: Vec<u64> = (1..=n).collect(); // raw structured ids
    let odd_only: Vec<u64> = (0..n).map(|i| 2 * i + 1).collect(); // adversarial for identity

    let mut fam = Table::new(
        "E11a",
        "hash family ablation",
        &["family", "universe", "p50_err", "p95_err", "level_miscal"],
    );
    let families = [
        ("pairwise (paper)", HashFamilyKind::Pairwise),
        ("4-wise", HashFamilyKind::KWise(4)),
        ("tabulation", HashFamilyKind::Tabulation),
        ("multiply-shift", HashFamilyKind::MultiplyShift),
        ("BAD shift(3)", HashFamilyKind::SabotagedShift(3)),
        ("BAD low-entropy", HashFamilyKind::SabotagedLowEntropy),
        ("BAD identity", HashFamilyKind::SabotagedIdentity),
    ];
    for (name, kind) in families {
        let config = SketchConfig::new(0.1, 0.1).unwrap().with_hash_kind(kind);
        for (uni_name, universe) in [
            ("mixed", &mixed),
            ("sequential", &sequential),
            ("odd-only", &odd_only),
        ] {
            let s = errors(&config, universe, seeds, 0xE1100);
            let hasher = kind.build(FamilySeed(0xE11FF));
            // Level 6 keeps >= n/64 expected samples per level, so the
            // metric measures bias rather than deep-level Poisson noise.
            let cal = quality::level_calibration(&hasher, universe.iter().copied(), 6);
            fam.row(vec![
                name.to_string(),
                uni_name.to_string(),
                pct(s.p50),
                pct(s.p95),
                pct(cal.max_relative_error),
            ]);
        }
    }
    fam.note(format!("n = {n}, eps = 0.1, {seeds} seeds; level_miscal = worst |P(lvl>=l) - 2^-l| / 2^-l over l <= 6"));
    fam.note("expected: sound families equivalent; shift(3) ~700% bias; identity survives benign ids but collapses on the odd-only universe (all levels 0); low-entropy is a 16-way seed lottery");

    let mut cap = Table::new(
        "E11b",
        "capacity constant ablation (c = k/eps^2)",
        &["k", "capacity", "p50_err", "p95_err", "p95 x sqrt(k)"],
    );
    for k in [1.0, 3.0, 12.0, 36.0] {
        let config = SketchConfig::with_constants(0.1, 0.1, k, 6.0).unwrap();
        let s = errors(&config, &mixed, seeds, 0xE1101);
        cap.row(vec![
            format!("{k}"),
            config.capacity().to_string(),
            pct(s.p50),
            pct(s.p95),
            format!("{:.3}", s.p95 * k.sqrt()),
        ]);
    }
    cap.note("expected (unchecked): p95 ~ 1/sqrt(k) (last column roughly constant)");

    vec![fam, cap]
}
