//! E20 — hash-kernel microbench: lane (SIMD-shaped) bulk hashing vs the
//! scalar per-element loop, plus the lane-wide survival screen.
//!
//! Claim: the batch ingest path's hashing cost is dominated by
//! [`gt_hash::HashFamily::hash_slice_into`], and the lane kernels behind
//! it (`gt_hash::lanes`, `LANES`-wide blocks with a branch-free 61-bit
//! reduction) beat the per-element scalar loop without changing a single
//! output bit. Every rep re-asserts bitwise identity of the two paths —
//! the coordination contract — before its timing counts. The survival
//! screen ([`gt_hash::survival_screen`]) is measured the same way against
//! the per-item branch loop it replaced in the `gt-core` kernels.
//!
//! Checks the kwise5 Horner-chain win (≥ 1.2×), the screen's win over
//! the branchy loop (≥ 1.1×) and that no family materially loses to
//! scalar (≥ 0.85×), and reports the compiled lane width (4 portable, 8
//! under AVX2) so a regression can be told apart from a narrower build.

use std::time::{Duration, Instant};

use crate::experiments::common::labels;
use crate::table::Table;
use gt_hash::{survival_mask, survival_screen, FamilySeed, HashFamilyKind, LANES};

struct Measurement {
    family: &'static str,
    lane_ns_per_item: f64,
    scalar_ns_per_item: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_item / self.lane_ns_per_item
    }
}

/// Best-of-`reps` wall time of `f`, with a data-dependent sink asserted
/// non-trivial so the hashing cannot be elided.
fn best_of(reps: usize, mut f: impl FnMut() -> u64) -> Duration {
    let mut best = Duration::MAX;
    for rep in 0..reps {
        let start = Instant::now();
        let sink = f();
        let elapsed = start.elapsed();
        best = best.min(elapsed);
        assert!(sink != 0, "rep {rep} produced a trivial sink");
    }
    best
}

/// Run E20.
pub fn run(quick: bool) -> Vec<Table> {
    let n: usize = if quick { 1 << 19 } else { 1 << 21 };
    let reps = if quick { 5 } else { 7 };
    let kinds: &[(&'static str, HashFamilyKind)] = &[
        ("pairwise", HashFamilyKind::Pairwise),
        ("kwise5", HashFamilyKind::KWise(5)),
        ("multiply_shift", HashFamilyKind::MultiplyShift),
        ("tabulation", HashFamilyKind::Tabulation),
    ];
    let data = labels(n as u64, 0xE20);
    let mut out_lane = vec![0u64; n];
    let mut out_scalar = vec![0u64; n];

    let mut measurements: Vec<Measurement> = Vec::new();
    for &(family, kind) in kinds {
        let h = kind.build(FamilySeed(0xE20));
        // Identity first: the lane path must reproduce the scalar path
        // bit for bit before its speed means anything.
        h.hash_slice_into(&data, &mut out_lane);
        h.hash_slice_into_scalar(&data, &mut out_scalar);
        assert_eq!(out_lane, out_scalar, "{family}: lane kernel diverged");

        let lane = best_of(reps, || {
            h.hash_slice_into(&data, &mut out_lane);
            out_lane.iter().fold(0u64, |a, &x| a | x)
        });
        let scalar = best_of(reps, || {
            h.hash_slice_into_scalar(&data, &mut out_scalar);
            out_scalar.iter().fold(0u64, |a, &x| a | x)
        });
        measurements.push(Measurement {
            family,
            lane_ns_per_item: lane.as_secs_f64() * 1e9 / n as f64,
            scalar_ns_per_item: scalar.as_secs_f64() * 1e9 / n as f64,
        });
    }

    // The survival screen vs the branchy per-item compare it replaced,
    // on the task the kernels actually perform: *finding* the survivors
    // (not merely counting them — a pure count if-converts into branch-free
    // vector code and is not a usable alternative). Level 3 puts ~1/8 of
    // items on the survivor path: mostly-rejected, but dense enough that
    // the per-item branch is not predictor-trivial. Both paths write the
    // same survivor indices into the same buffer; identity is asserted.
    let mask = survival_mask(3);
    let mut idx_screen: Vec<u32> = Vec::with_capacity(n);
    let mut idx_branchy: Vec<u32> = Vec::with_capacity(n);
    let screen = best_of(reps, || {
        idx_screen.clear();
        for (w, window) in out_lane.chunks(64).enumerate() {
            let mut bits = survival_screen(window, mask);
            while bits != 0 {
                idx_screen.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        idx_screen.len() as u64
    });
    let branchy = best_of(reps, || {
        idx_branchy.clear();
        for (i, &h) in out_lane.iter().enumerate() {
            if h & mask == 0 {
                idx_branchy.push(i as u32);
            }
        }
        idx_branchy.len() as u64
    });
    assert_eq!(idx_screen, idx_branchy, "screen found different survivors");
    let screen_speedup = branchy.as_secs_f64() / screen.as_secs_f64();

    let min_speedup = measurements
        .iter()
        .map(Measurement::speedup)
        .fold(f64::INFINITY, f64::min);
    // The headline claim is the polynomial family: lanes break the
    // per-item serial Horner chain, a win no out-of-order window can
    // manufacture from the scalar loop. Affine/multiply-shift iterations
    // are already independent, so those ride at parity on non-AVX2 builds.
    let poly_speedup = measurements
        .iter()
        .find(|m| m.family == "kwise5")
        .expect("kwise5 measured")
        .speedup();
    let mut table = Table::new(
        "E20",
        "bulk hash kernels: lane vs scalar (bitwise-identical by assertion)",
        &[
            "family",
            "lane_ns_per_item",
            "scalar_ns_per_item",
            "speedup",
        ],
    );
    for m in &measurements {
        table.row(vec![
            m.family.to_string(),
            format!("{:.2}", m.lane_ns_per_item),
            format!("{:.2}", m.scalar_ns_per_item),
            format!("{:.2}x", m.speedup()),
        ]);
    }
    table.note(format!(
        "n = {n} labels, best of {reps} reps; lane width LANES = {LANES} \
         (8 needs an AVX2 build, e.g. RUSTFLAGS=\"-C target-cpu=native\")"
    ));
    table.check(
        matches!(LANES, 4 | 8),
        format!("lane width {LANES} is 4 or 8"),
    );
    table.check(
        poly_speedup >= 1.2,
        format!("kwise5 lane kernel breaks the serial Horner chain: {poly_speedup:.2}x >= 1.20"),
    );
    table.check(
        screen_speedup >= 1.1,
        format!(
            "survival screen vs per-item branch loop at 1/8 survival: {screen_speedup:.2}x >= 1.10"
        ),
    );
    table.check(
        min_speedup >= 0.85,
        format!("no lane kernel materially loses to scalar: min {min_speedup:.2}x >= 0.85"),
    );
    vec![table]
}
