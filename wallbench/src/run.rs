//! One run of one workload: set-up (several times), the timed phase, the
//! correctness checks, and the metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use gt_core::{DistinctSketch, SketchConfig};

use crate::json::Json;
use crate::metrics::{END_TO_END, GATES, PER_LAYER};
use crate::trace::{median, percentile, windowed_rate, Recorder, RoundLog};
use crate::workloads::{Kind, Ops, Workload};

/// Set-ups per untraced run; `setup_s` is their median. The first is the
/// one the run measures; the others are timed after the timed phase.
pub const SETUP_REPS: usize = 5;

/// Fewest timed rounds, so a traced run has traced and untraced rounds.
pub const MIN_ROUNDS: u64 = 4;

/// Most of a traced round's wall time that may go unattributed to layer
/// calls before the run is flagged.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Timed work, in seconds of the reference host (see
    /// [`crate::workloads::Plan::rounds_per_second`]).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// About a tenth of the work per round.
    pub quick: bool,
    /// A directory the run may write into (spill logs).
    pub scratch: PathBuf,
}

/// What a run measured.
pub struct RunResult {
    /// `(name, unit, value)` for every end-to-end metric (untraced) or
    /// every per-layer metric (traced), in dictionary order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// `(name, unit, value)` for every entry of [`GATES`].
    pub gates: Vec<(&'static str, &'static str, f64)>,
    /// Fallible operations attempted and failed.
    pub ops: Ops,
    /// Observations worth a look that do not fail the run.
    pub flags: Vec<String>,
    /// Timed rounds run.
    pub rounds: usize,
    /// Timed seconds (sum of round wall times).
    pub timed_s: f64,
    /// The spans, for traced runs.
    pub spans: Option<Json>,
}

/// Run `cfg`. `Err` means a correctness check failed or the system
/// returned an error where none is allowed.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let name = cfg.kind.name();
    let plan = cfg.kind.plan(cfg.quick);
    let setup = |rep: usize| {
        let scratch = cfg.scratch.join(format!("setup-{rep}"));
        cfg.kind.setup(cfg.seed, cfg.quick, &scratch)
    };
    let (mut w, first_setup): (Box<dyn Workload>, f64) = setup(0)?;

    let mut rec = Recorder::new(plan.sampling);
    let rounds = ((cfg.seconds * plan.rounds_per_second).round() as u64).max(MIN_ROUNDS);
    let (mut timed, mut items, mut bytes) = (0.0, 0u64, 0u64);
    let (mut decode_secs, mut merge_secs) = (0.0, 0.0);
    for i in 0..rounds {
        let round = plan.warmup_rounds + i;
        w.prepare(round);
        // Traced runs alternate traced and untraced rounds, so the
        // tracing overhead is measured under the same drift as the work.
        let traced = cfg.trace && i % 2 == 0;
        rec.begin_round(round, traced);
        let round_items = w.round(&mut rec);
        timed += rec.end_round(round_items);
        let facts = w.after_round()?;
        items += round_items;
        bytes += facts.bytes;
        if traced {
            decode_secs += facts.decode_secs;
            merge_secs += facts.merge_secs;
        }
    }
    let summary = w.finish()?;
    let mut ops = w.ops();

    let mut flags = Vec::new();
    if summary.rel_error > summary.epsilon {
        flags.push(format!(
            "rel_error {:.4} above epsilon {} (allowed with probability delta)",
            summary.rel_error, summary.epsilon
        ));
    }
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !cfg.trace {
        values.insert("bytes_per_item", bytes as f64 / items as f64);
        // Peak RSS of one set-up and the timed phase: read before the other
        // set-ups, whose freed memory would make the reading depend on
        // how the heap was left.
        values.insert("peak_rss_mib", peak_rss_mib()?);
        drop(w);
        let mut setup_secs = vec![first_setup];
        for rep in 1..SETUP_REPS {
            let (w, secs) = setup(rep)?;
            ops.absorb(w.ops());
            setup_secs.push(secs);
        }
        values.insert("setup_s", median(&setup_secs));
    } else {
        let (traced, untraced): (Vec<RoundLog>, Vec<RoundLog>) =
            rec.rounds.iter().partition(|r| r.traced);
        values.insert("items_per_s", windowed_rate(&untraced));
        let traced: Vec<f64> = traced.iter().map(|r| r.secs).collect();
        let untraced: Vec<f64> = untraced.iter().map(|r| r.secs).collect();
        let wall: f64 = traced.iter().sum();
        let busy = rec.busy();
        for (&span, &secs) in &busy {
            let metric = PER_LAYER
                .iter()
                .map(|&(n, _)| n)
                .find(|n| n.strip_suffix("_frac") == Some(span))
                .ok_or_else(|| format!("span {span} has no per-layer metric"))?;
            values.insert(metric, secs / wall);
        }
        let unattributed = 1.0 - busy.values().sum::<f64>() / wall;
        if unattributed > MAX_UNATTRIBUTED {
            flags.push(format!(
                "trace.unattributed_frac {unattributed:.4} above {MAX_UNATTRIBUTED}"
            ));
        }
        values.insert("referee.decode_frac", decode_secs / wall);
        values.insert("referee.merge_frac", merge_secs / wall);
        values.extend(summary.layer);
        let (config, master, labels) = w.calibration();
        values.insert(
            "hash.ns_per_label",
            hash_ns_per_label(&config, master, &labels),
        );
        for (name, q) in [("round_p50_ms", 0.5), ("round_p90_ms", 0.9)] {
            values.insert(name, 1e3 * percentile(&untraced, q));
        }
        for (name, q) in [
            ("query_p50_us", 0.5),
            ("query_p90_us", 0.9),
            ("query_p99_us", 0.99),
        ] {
            values.insert(name, 1e6 * percentile(&rec.queries, q));
        }
        values.insert("input_mib", w.input_bytes() as f64 / f64::from(1 << 20));
        values.insert("trace.wall_s", wall);
        values.insert("trace.unattributed_frac", unattributed);
        values.insert(
            "trace.overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
        );
    }

    if ops.failed > 0 {
        flags.push(format!(
            "{} of {} operations failed",
            ops.failed, ops.attempted
        ));
    }
    let gates = BTreeMap::from([
        ("rel_error", summary.rel_error),
        ("ops.failed_frac", ops.failed as f64 / ops.attempted as f64),
    ]);
    if cfg.trace {
        values.extend(&gates);
    }
    let dictionary = if cfg.trace { PER_LAYER } else { END_TO_END };
    Ok(RunResult {
        metrics: listed(name, dictionary, &values)?,
        gates: listed(name, GATES, &gates)?,
        ops,
        flags,
        rounds: rec.rounds.len(),
        timed_s: timed,
        spans: cfg.trace.then(|| rec.spans_json(name)),
    })
}

/// `values` in `dictionary` order, with the unit of each; a metric
/// `values` lacks reads 0.
fn listed(
    workload: &str,
    dictionary: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some(stray) = values
        .keys()
        .find(|k| !dictionary.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "{workload}: metric {stray} is not in the dictionary"
        ));
    }
    Ok(dictionary
        .iter()
        .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
        .collect())
}

/// Calibration pass for the hash layer: every trial's hasher over the
/// workload's own labels, in ns per label per trial. Runs after the timed
/// phase and outside every round, so it is not part of the closure sum.
fn hash_ns_per_label(config: &SketchConfig, master: u64, labels: &[u64]) -> f64 {
    let sketch = DistinctSketch::new(config, master);
    let mut out = vec![0u64; labels.len()];
    let per_pass = labels.len() * sketch.trials().len();
    let passes = (1usize << 22).div_ceil(per_pass);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                for trial in sketch.trials() {
                    trial.hasher().hash_slice_into(black_box(labels), &mut out);
                    black_box(&mut out);
                }
            }
            start.elapsed().as_nanos() as f64 / (passes * per_pass) as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
