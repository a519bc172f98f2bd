//! E24 — incremental delta plane: steady-state communication vs
//! estimate staleness, against full re-ship at the same cadence.
//!
//! Claim: once the coordinated sample stabilises, a party's state
//! changes by O(changes) per reporting interval while its cumulative
//! summary stays O(summary)-sized — so shipping delta frames instead of
//! re-shipping the summary cuts steady-state bytes by >= 5x at equal
//! cadence, hence equal (or better) estimate staleness. The referee's
//! incrementally-maintained live union is **bitwise identical** to
//! decoding a fresh full ship at every ack point; the sustained engine
//! on the delta plane checks that equivalence after every applied frame
//! (`oracle_checks` / `oracle_failures` below), so the perf claim never
//! detaches from the exactness claim.
//!
//! Method: one sustained workload (fixed parties / rate / duration /
//! seeds), swept over the reporting cadence. Each cadence runs twice —
//! [`ReportingMode::DeltaPlane`] vs full re-ship — on identical seeds,
//! plus one lossy-channel delta run (drops on both paths, so dup /
//! reorder / resync machinery is exercised under measurement). Queries
//! fire every `QUERY_EVERY` ticks regardless of cadence, so slower
//! cadences honestly pay more staleness: that is the frontier. Writes
//! `results/BENCH_delta.json` for the CI gate: bytes ratio >= floor,
//! staleness bounded by cadence, bytes-vs-staleness monotone across the
//! sweep, zero oracle failures anywhere.
//!
//! [`ReportingMode::DeltaPlane`]: gt_streams::scenario::ReportingMode

use crate::table::Table;
use gt_core::{effective_workers, SketchConfig};
use gt_streams::scenario::{run_sustained, E2eReport, ScenarioSpec};
use gt_streams::{Distribution, RetryPolicy, Tick, TransportSpec};

/// Where the machine-readable summary lands.
pub const BENCH_JSON: &str = "results/BENCH_delta.json";

/// Master seed shared by every run (workload seed is fixed in the spec,
/// so delta and full runs see identical streams).
const MASTER_SEED: u64 = 0xE24;

/// Query cadence, deliberately decoupled from the reporting cadence:
/// queries between emissions see stale state, which is the cost axis
/// the frontier trades bytes against.
const QUERY_EVERY: Tick = 5;

/// The steady-state bytes-reduction floor the CI gate demands at every
/// swept cadence (full re-ship bytes / delta-plane bytes).
pub const BYTES_RATIO_FLOOR: f64 = 5.0;

/// One measured run.
struct Row {
    mode: &'static str,
    report_every: Tick,
    report: E2eReport,
}

fn base_spec(
    name: &str,
    parties: usize,
    distinct: u64,
    rate: u64,
    duration: Tick,
    report_every: Tick,
) -> gt_streams::scenario::ScenarioBuilder {
    ScenarioSpec::builder(name)
        .parties(parties)
        .distinct_per_party(distinct)
        .overlap(0.25)
        .distribution(Distribution::Zipf(1.05))
        .workload_seed(0x24)
        .sustained(rate, duration, report_every)
        .query_every(QUERY_EVERY)
        .query_distinct()
}

/// Run E24.
pub fn run(quick: bool) -> Vec<Table> {
    let config = SketchConfig::new(0.1, 0.05).expect("static config");
    let workers = effective_workers();

    let (parties, distinct, rate, duration) = if quick {
        (4usize, 4_000u64, 30u64, 240 as Tick)
    } else {
        (8, 20_000, 50, 600)
    };
    let cadences: &[Tick] = if quick { &[5, 20] } else { &[5, 10, 20, 40] };

    let mut rows: Vec<Row> = Vec::new();
    for &cadence in cadences {
        let delta_spec = base_spec("delta", parties, distinct, rate, duration, cadence)
            .delta_plane()
            .build();
        rows.push(Row {
            mode: "delta",
            report_every: cadence,
            report: run_sustained(&config, MASTER_SEED, &delta_spec),
        });
        let full_spec = base_spec("full", parties, distinct, rate, duration, cadence).build();
        rows.push(Row {
            mode: "full",
            report_every: cadence,
            report: run_sustained(&config, MASTER_SEED, &full_spec),
        });
    }
    // One lossy run at the base cadence: drops + ack drops force dups,
    // retransmits and (possibly) resyncs through the measured path. It
    // is excluded from the frontier gates but its oracle still counts.
    let lossy_spec = base_spec(
        "delta_lossy",
        parties,
        distinct,
        rate,
        duration,
        cadences[0],
    )
    .transport(TransportSpec::lossy(0.05, 0xE24))
    .retry(RetryPolicy {
        ack_drop_probability: 0.05,
        ..RetryPolicy::with_budget(8)
    })
    .delta_plane()
    .build();
    rows.push(Row {
        mode: "delta_lossy",
        report_every: cadences[0],
        report: run_sustained(&config, MASTER_SEED, &lossy_spec),
    });

    let mut table = Table::new(
        "E24",
        "delta plane vs full re-ship: steady-state bytes vs estimate staleness",
        &[
            "mode",
            "cadence",
            "bytes sent",
            "bytes/tick",
            "mean frame (delta/full)",
            "staleness mean/max",
            "resyncs",
            "bytes ratio",
            "oracle ok/fail",
        ],
    );
    let mut min_ratio = f64::INFINITY;
    for row in &rows {
        let r = &row.report;
        let ratio = full_bytes_at(&rows, row.report_every).map(|fb| {
            let ratio = fb as f64 / r.bytes_sent.max(1) as f64;
            if row.mode == "delta" {
                min_ratio = min_ratio.min(ratio);
            }
            ratio
        });
        let (frames, staleness, resyncs, oracle) = match &r.delta {
            Some(d) => (
                format!("{:.0} / {:.0}", d.mean_delta_frame(), d.mean_full_frame()),
                format!("{:.2} / {}", d.staleness_mean, d.staleness_max),
                d.resyncs.to_string(),
                format!("{} / {}", d.oracle_checks, d.oracle_failures),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        table.row(vec![
            row.mode.to_string(),
            row.report_every.to_string(),
            r.bytes_sent.to_string(),
            format!("{:.1}", r.bytes_sent as f64 / r.duration.max(1) as f64),
            frames,
            staleness,
            resyncs,
            match (row.mode, ratio) {
                ("full", _) => "1.0 (baseline)".into(),
                (_, Some(x)) => format!("{x:.1}x"),
                _ => "-".into(),
            },
            oracle,
        ]);
    }
    table.note(format!(
        "same workload seed per cadence pair; Zipf(1.05) label skew, so the new-label rate decays \
         into a steady state as monitoring traffic does; queries every {QUERY_EVERY} ticks \
         regardless of cadence, so staleness is the honest cost of reporting less often; \
         workers = {workers}"
    ));
    table.note(
        "every delta run re-checks, after each applied frame, that the incrementally maintained \
         union is canonical-bytes identical to a fresh decode of full ships at the acked \
         generations — oracle failures must be zero",
    );
    table.note(format!(
        "PASS condition: bytes ratio >= {BYTES_RATIO_FLOOR:.0} at every cadence; delta staleness \
         bounded by cadence + query offset; bytes/tick non-increasing and staleness non-decreasing \
         in cadence; zero oracle failures and full coverage everywhere"
    ));
    table.note(format!("machine-readable summary: {BENCH_JSON}"));

    write_json(&rows, quick, workers, min_ratio);
    vec![table]
}

/// Full re-ship bytes at the same cadence, if that baseline ran.
fn full_bytes_at(rows: &[Row], cadence: Tick) -> Option<u64> {
    rows.iter()
        .find(|r| r.mode == "full" && r.report_every == cadence)
        .map(|r| r.report.bytes_sent)
}

/// Hand-rolled JSON mirror for the CI gate.
fn write_json(rows: &[Row], quick: bool, workers: usize, min_ratio: f64) {
    let json_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let r = &row.report;
            let ratio = full_bytes_at(rows, row.report_every)
                .map(|fb| format!("{:.4}", fb as f64 / r.bytes_sent.max(1) as f64))
                .unwrap_or_else(|| "null".into());
            let delta = match &r.delta {
                Some(d) => format!(
                    concat!(
                        "{{\"delta_frames\":{},\"full_frames\":{},\"delta_bytes\":{},",
                        "\"full_bytes\":{},\"mean_delta_frame\":{:.2},\"mean_full_frame\":{:.2},",
                        "\"resyncs\":{},\"acks_sent\":{},\"acks_lost\":{},",
                        "\"staleness_mean\":{:.4},\"staleness_max\":{},",
                        "\"oracle_checks\":{},\"oracle_failures\":{},\"oracle_skipped\":{}}}"
                    ),
                    d.delta_frames,
                    d.full_frames,
                    d.delta_bytes,
                    d.full_bytes,
                    d.mean_delta_frame(),
                    d.mean_full_frame(),
                    d.resyncs,
                    d.acks_sent,
                    d.acks_lost,
                    d.staleness_mean,
                    d.staleness_max,
                    d.oracle_checks,
                    d.oracle_failures,
                    d.oracle_skipped,
                ),
                None => "null".into(),
            };
            format!(
                concat!(
                    "{{\"mode\":\"{}\",\"report_every\":{},\"duration_ticks\":{},",
                    "\"bytes_sent\":{},\"bytes_per_tick\":{:.3},\"reports_sent\":{},",
                    "\"item_coverage\":{:.6},\"final_estimate\":{:.3},\"truth\":{},",
                    "\"relative_error\":{:.6},\"bytes_ratio_vs_full\":{},\"delta\":{}}}"
                ),
                row.mode,
                row.report_every,
                r.duration,
                r.bytes_sent,
                r.bytes_sent as f64 / r.duration.max(1) as f64,
                r.reports_sent,
                r.item_coverage,
                r.final_estimate,
                r.truth,
                r.relative_error,
                ratio,
                delta,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"experiment\":\"e24\",\"quick\":{},\"workers\":{},\"query_every\":{},",
            "\"bytes_ratio_floor\":{:.1},\"min_bytes_ratio\":{:.4},\"rows\":[{}]}}\n"
        ),
        quick,
        workers,
        QUERY_EVERY,
        BYTES_RATIO_FLOOR,
        if min_ratio.is_finite() {
            min_ratio
        } else {
            0.0
        },
        json_rows.join(",")
    );
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(BENCH_JSON, json))
    {
        eprintln!("  {BENCH_JSON} write failed: {e}");
    }
}
