//! E23 — end-to-end scenario suite: sustained load through the whole
//! stack (writers → codec → transport → collector → referee → live
//! queries) on the virtual clock.
//!
//! Claim: the system serves live union queries under sustained ingest
//! with bounded admission→queryable latency, and degrades honestly —
//! coverage stays 1.0 on a clean channel, tracks the retry budget on a
//! lossy one, and churned-out parties' last acked summaries still count
//! exactly once. Every number here is virtual-clock-derived and bitwise
//! reproducible from the spec + seeds (`tests/scenario_determinism.rs`);
//! wall-clock throughput is reported for context only.
//!
//! Runs the six named scenarios of
//! [`gt_streams::scenario::named_suite`] — steady-state, flash crowd,
//! churn/failover, multi-tenant Zipf, lossy fan-in, windowed recency —
//! and checks that all six ran with populated throughput and a p50 ≤
//! p99 ≤ p999 latency ladder in ticks, that each clears its coverage
//! floor, and that only the lossy channel dropped anything.

use crate::table::Table;
use gt_core::{effective_workers, SketchConfig};
use gt_streams::scenario::{named_suite, run_sustained, E2eReport};

/// Master seed shared by every scenario run (workload seeds differ per
/// scenario inside the specs).
const MASTER_SEED: u64 = 0xE23;

/// The item-coverage floor checked per scenario. Clean
/// channels must ack everything; `churn_failover` loses exactly the
/// crashed party's unflushed tail; `lossy_fan_in` has a 5% drop channel
/// with corruption, jitter and stragglers against a retry budget of 8 —
/// the floor leaves headroom for in-flight tail loss while still
/// proving the retry plane recovers the union.
pub fn coverage_floor(name: &str) -> f64 {
    match name {
        "steady_state" | "flash_crowd" | "multi_tenant_zipf" | "windowed_recency" => 1.0,
        "churn_failover" => 0.95,
        "lossy_fan_in" => 0.90,
        _ => 0.0,
    }
}

/// Run E23.
pub fn run(quick: bool) -> Vec<Table> {
    let config = SketchConfig::new(0.1, 0.05).expect("static config");
    let workers = effective_workers();

    let reports: Vec<E2eReport> = named_suite(quick)
        .iter()
        .map(|spec| run_sustained(&config, MASTER_SEED, spec))
        .collect();

    let mut table = Table::new(
        "E23",
        "end-to-end scenario suite under sustained load (virtual clock)",
        &[
            "scenario",
            "parties",
            "ticks",
            "items",
            "items/s (wall)",
            "p50/p99/p999 (ticks)",
            "coverage (floor)",
            "rel err",
        ],
    );
    for r in &reports {
        let floor = coverage_floor(&r.name);
        table.row(vec![
            r.name.clone(),
            r.parties.to_string(),
            r.duration.to_string(),
            r.total_items.to_string(),
            format!("{:.3e}", r.items_per_sec()),
            format!(
                "{} / {} / {}",
                r.latency.p50(),
                r.latency.p99(),
                r.latency.p999()
            ),
            format!("{:.4} (>= {floor:.2})", r.item_coverage),
            format!("{:.4}", r.relative_error),
        ]);
    }
    table.note(
        "latency = admission tick -> delivery tick of the first accepted summary covering the \
         item, in virtual ticks; no wall clock enters any gated number",
    );
    table.note(format!(
        "scenarios: steady_state (clean baseline), flash_crowd (8x rate spike), churn_failover \
         (leave/crash/join), multi_tenant_zipf (16 tenants, theta=1.1), lossy_fan_in (32 parties, \
         5% drop, retry budget 8), windowed_recency (sliding-window queries); workers = {workers}"
    ));
    let named = |name: &str| reports.iter().find(|r| r.name == name);
    let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    table.check(
        [
            "steady_state",
            "flash_crowd",
            "churn_failover",
            "multi_tenant_zipf",
            "lossy_fan_in",
            "windowed_recency",
        ]
        .iter()
        .all(|n| named(n).is_some()),
        format!("all six named scenarios ran: {names:?}"),
    );
    for r in &reports {
        let floor = coverage_floor(&r.name);
        let (p50, p99, p999) = (r.latency.p50(), r.latency.p99(), r.latency.p999());
        table.check(
            r.total_items > 0
                && r.items_per_sec() > 0.0
                && 0 < p50
                && p50 <= p99
                && p99 <= p999
                && r.item_coverage >= floor,
            format!(
                "{}: {} items at {:.3e}/s, latency 0 < {p50} <= {p99} <= {p999}, \
                 coverage {:.4} >= {floor:.2}",
                r.name,
                r.total_items,
                r.items_per_sec(),
                r.item_coverage
            ),
        );
    }
    table.check(
        named("steady_state").is_some_and(|r| r.item_coverage == 1.0 && r.transport.dropped == 0),
        "steady_state acks every item on a channel that dropped nothing",
    );
    let lossy_dropped = named("lossy_fan_in").map_or(0, |r| r.transport.dropped);
    table.check(
        lossy_dropped > 0,
        format!("lossy_fan_in's channel dropped {lossy_dropped} sends > 0"),
    );
    vec![table]
}
