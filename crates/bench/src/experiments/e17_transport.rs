//! E17 — the collection plane under loss: retry budget vs completeness.
//!
//! Claim: because the referee is idempotent under at-least-once delivery
//! (dedup by `(party, fingerprint)`), a retrying collector can only *add*
//! coverage — duplicates, stragglers, and ack-loss retransmits never
//! corrupt the union or its exactly-once accounting. This experiment
//! sweeps drop probability × retry budget on the deterministic simulated
//! transport and records: fraction of parties heard, the rate of runs
//! achieving the *full* union, distinct-label coverage of the heard
//! subset, retransmit/duplicate volume, and virtual time-to-full-union.
//! It checks that at every lossy drop rate a nonzero retry budget beats
//! the paper's one-shot model, and the largest budget hears at least as
//! many parties as every smaller one.

use std::collections::HashSet;

use crate::table::Table;
use gt_core::SketchConfig;
use gt_streams::{
    collect_once, Distribution, PartyMessage, RetryPolicy, StreamOracle, TransportSpec,
    WorkloadSpec,
};

/// Run E17.
pub fn run(quick: bool) -> Vec<Table> {
    let drops: &[f64] = if quick {
        &[0.2, 0.4]
    } else {
        &[0.0, 0.1, 0.3, 0.5]
    };
    let budgets: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let reps: u64 = if quick { 4 } else { 16 };

    let parties = 8usize;
    let spec = WorkloadSpec {
        parties,
        distinct_per_party: if quick { 2_000 } else { 5_000 },
        overlap: 0.3,
        items_per_party: if quick { 4_000 } else { 10_000 },
        distribution: Distribution::Uniform,
        seed: 0xE17,
    };
    let streams = spec.generate();
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let full_distinct = oracle.distinct() as f64;

    // Parties observe once; the same finished messages feed every cell so
    // only the channel and the retry policy vary.
    let messages: Vec<PartyMessage> = streams
        .streams
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut p = gt_streams::Party::new(id, &config, 0xE17);
            p.observe_stream(&s.iter().map(|&l| gt_hash::fold61(l)).collect::<Vec<_>>());
            p.finish()
        })
        .collect();

    let mut table = Table::new(
        "E17",
        "collection plane under loss: retry budget vs union completeness",
        &[
            "drop",
            "budget",
            "parties_heard",
            "full_union_rate",
            "distinct_coverage",
            "retransmits",
            "duplicates",
            "ticks_to_full",
        ],
    );
    // (drop, budget, mean fraction of parties heard) per cell.
    let mut cells: Vec<(f64, usize, f64)> = Vec::new();
    for &drop in drops {
        for &budget in budgets {
            let mut coverage = 0.0;
            let mut full_runs = 0u64;
            let mut distinct_cov = 0.0;
            let mut retransmits = 0.0;
            let mut duplicates = 0.0;
            let mut ticks = 0.0;
            let mut ticked = 0u64;
            for rep in 0..reps {
                let channel = TransportSpec::lossy(drop, 0xE17_0000 + rep * 131 + budget as u64);
                let policy = RetryPolicy {
                    ack_drop_probability: drop / 2.0,
                    ..RetryPolicy::with_budget(budget)
                };
                let (report, referee) = collect_once(&config, 0xE17, &messages, channel, policy);

                coverage += report.completeness();
                if report.budget_exhausted.is_empty() {
                    full_runs += 1;
                }
                if let Some(t) = report.time_to_full_union {
                    ticks += t as f64;
                    ticked += 1;
                }
                retransmits += report.retransmits as f64;
                duplicates += report.referee.duplicates() as f64;

                let heard: HashSet<u64> = streams
                    .streams
                    .iter()
                    .enumerate()
                    .filter(|(id, _)| referee.has_heard(*id))
                    .flat_map(|(_, s)| s.iter().copied())
                    .collect();
                distinct_cov += heard.len() as f64 / full_distinct;
            }
            let n = reps as f64;
            table.row(vec![
                format!("{drop:.2}"),
                budget.to_string(),
                format!("{:.3}", coverage / n),
                format!("{:.2}", full_runs as f64 / n),
                format!("{:.3}", distinct_cov / n),
                format!("{:.1}", retransmits / n),
                format!("{:.1}", duplicates / n),
                if ticked > 0 {
                    format!("{:.0}", ticks / ticked as f64)
                } else {
                    "-".to_string()
                },
            ]);
            cells.push((drop, budget, coverage / n));
        }
    }

    table.note(format!(
        "{parties} parties, {reps} reps per cell; drop is per-send, acks dropped at drop/2; \
         lossy channel adds jitter and 10% stragglers (late arrivals the referee dedups)"
    ));
    table.note("duplicates are absorbed without affecting the union (proved by property tests)");
    let max_budget = *budgets.iter().max().unwrap();
    for &drop in drops.iter().filter(|&&d| d > 0.0) {
        let heard = |b: usize| {
            cells
                .iter()
                .find(|c| c.0 == drop && c.1 == b)
                .map_or(0.0, |c| c.2)
        };
        let (one_shot, best) = (heard(budgets[0]), heard(max_budget));
        table.check(
            best > one_shot || one_shot >= 1.0,
            format!(
                "drop {drop:.2}: budget {max_budget} hears {best:.3} > one-shot {one_shot:.3} \
                 (unless one-shot already hears everyone)"
            ),
        );
        table.check(
            budgets.iter().all(|&b| best >= heard(b)),
            format!("drop {drop:.2}: budget {max_budget} hears >= every smaller budget"),
        );
    }
    table.check(
        cells.iter().all(|c| (0.0..=1.0).contains(&c.2)),
        "parties_heard in [0, 1] in every cell",
    );
    vec![table]
}
