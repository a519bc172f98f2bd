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
//! cadences honestly pay more staleness: that is the frontier. Checks:
//! bytes ratio >= floor, staleness bounded by cadence, bytes-vs-staleness
//! monotone across the sweep, zero oracle failures anywhere.
//!
//! [`ReportingMode::DeltaPlane`]: gt_streams::scenario::ReportingMode

use crate::table::Table;
use gt_core::{effective_workers, SketchConfig};
use gt_streams::scenario::{run_sustained, E2eReport, ScenarioSpec};
use gt_streams::{Distribution, RetryPolicy, Tick, TransportSpec};

/// Master seed shared by every run (workload seed is fixed in the spec,
/// so delta and full runs see identical streams).
const MASTER_SEED: u64 = 0xE24;

/// Query cadence, deliberately decoupled from the reporting cadence:
/// queries between emissions see stale state, which is the cost axis
/// the frontier trades bytes against.
const QUERY_EVERY: Tick = 5;

/// The steady-state bytes-reduction floor checked at every swept cadence
/// (full re-ship bytes / delta-plane bytes).
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
    for row in &rows {
        let r = &row.report;
        let ratio = bytes_ratio(&rows, row);
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
            format!("{:.1}", bytes_per_tick(row)),
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
    // Rows run in ascending cadence order, so adjacent delta rows are
    // adjacent frontier points.
    let deltas: Vec<&Row> = rows.iter().filter(|r| r.mode == "delta").collect();
    for row in &deltas {
        let cadence = row.report_every;
        let ratio = bytes_ratio(&rows, row).unwrap_or(0.0);
        table.check(
            ratio >= BYTES_RATIO_FLOOR,
            format!("cadence {cadence}: full / delta bytes {ratio:.1}x >= {BYTES_RATIO_FLOOR:.0}"),
        );
        let bound = cadence + QUERY_EVERY;
        let stale = row.report.delta.as_ref().map(|d| d.staleness_max);
        table.check(
            stale.is_some_and(|s| s <= bound),
            format!(
                "cadence {cadence}: staleness max {} <= cadence + query offset {bound}",
                stale.map_or("missing".into(), |s| s.to_string())
            ),
        );
        table.check(
            row.report.item_coverage == 1.0,
            format!(
                "cadence {cadence}: item coverage {:.4} == 1",
                row.report.item_coverage
            ),
        );
    }
    let staleness = |r: &Row| {
        r.report
            .delta
            .as_ref()
            .map_or(f64::NAN, |d| d.staleness_mean)
    };
    for pair in deltas.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        table.check(
            bytes_per_tick(b) <= bytes_per_tick(a) + 1e-9 && staleness(b) >= staleness(a) - 1e-9,
            format!(
                "cadence {} -> {}: bytes/tick {:.1} -> {:.1} non-increasing, \
                 staleness mean {:.2} -> {:.2} non-decreasing",
                a.report_every,
                b.report_every,
                bytes_per_tick(a),
                bytes_per_tick(b),
                staleness(a),
                staleness(b)
            ),
        );
    }
    for row in rows.iter().filter(|r| r.mode != "full") {
        let (checks, failures) = row
            .report
            .delta
            .as_ref()
            .map_or((0, 0), |d| (d.oracle_checks, d.oracle_failures));
        table.check(
            checks > 0 && failures == 0,
            format!(
                "{} at cadence {}: {checks} oracle checks > 0, {failures} failures == 0",
                row.mode, row.report_every
            ),
        );
    }
    vec![table]
}

fn bytes_per_tick(row: &Row) -> f64 {
    row.report.bytes_sent as f64 / row.report.duration.max(1) as f64
}

/// Full re-ship bytes over `row`'s bytes at the same cadence, if that
/// baseline ran.
fn bytes_ratio(rows: &[Row], row: &Row) -> Option<f64> {
    rows.iter()
        .find(|r| r.mode == "full" && r.report_every == row.report_every)
        .map(|full| full.report.bytes_sent as f64 / row.report.bytes_sent.max(1) as f64)
}
