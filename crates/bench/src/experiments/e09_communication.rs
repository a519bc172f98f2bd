//! E9 — communication cost.
//!
//! Claims: each party transmits exactly one message of
//! `O(ε⁻² log(1/δ) log n)` bits; total communication is `t` messages,
//! independent of every stream's length; and the hand-rolled codec's
//! per-entry cost is a small constant number of bytes.

use crate::bytes_h;
use crate::table::Table;
use gt_core::SketchConfig;
use gt_streams::{run_batch, Distribution, WorkloadSpec};

/// Run E9.
pub fn run(quick: bool) -> Vec<Table> {
    let distinct = if quick { 10_000 } else { 40_000 };

    let mut a = Table::new(
        "E9a",
        "bytes per party vs epsilon and parties",
        &[
            "eps",
            "parties",
            "bytes_per_party",
            "bytes_per_entry",
            "total_bytes",
        ],
    );
    for eps in [0.05, 0.1, 0.2] {
        let config = SketchConfig::new(eps, 0.05).unwrap();
        for parties in [2usize, 8, 16] {
            let spec = WorkloadSpec {
                parties,
                distinct_per_party: distinct,
                overlap: 0.25,
                items_per_party: distinct * 3,
                distribution: Distribution::Uniform,
                seed: 0xE9,
            };
            let report = run_batch(&config, 0xE901, &spec.generate(), &[], &[]);
            let per_party = report.total_bytes / parties;
            let entries = config.max_sample_entries();
            a.row(vec![
                format!("{eps}"),
                parties.to_string(),
                bytes_h(per_party),
                format!("{:.2} B", per_party as f64 / entries as f64),
                bytes_h(report.total_bytes),
            ]);
        }
    }
    a.note("bytes_per_entry: message bytes / (trials x capacity) — the delta-varint cost per sample slot");
    a.note("PASS condition: bytes_per_party ~ eps^-2 (x4 per eps halving), independent of parties");

    let mut b = Table::new(
        "E9b",
        "total communication vs stream length (eps = 0.1)",
        &[
            "items_per_party",
            "total_items",
            "total_bytes",
            "bytes_per_item",
        ],
    );
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    for mult in [1u64, 10, 100] {
        let spec = WorkloadSpec {
            parties: 4,
            distinct_per_party: distinct / 4,
            overlap: 0.25,
            items_per_party: (distinct / 4) * mult,
            distribution: Distribution::Uniform,
            seed: 0xE9 + mult,
        };
        let report = run_batch(&config, 0xE902, &spec.generate(), &[], &[]);
        b.row(vec![
            spec.items_per_party.to_string(),
            report.total_items.to_string(),
            bytes_h(report.total_bytes),
            format!(
                "{:.4}",
                report.total_bytes as f64 / report.total_items as f64
            ),
        ]);
    }
    b.note("PASS condition: total_bytes flat while items grow 100x (bytes_per_item -> 0)");

    // Tree aggregation: per-tier traffic through intermediate collectors.
    let mut c = Table::new(
        "E9c",
        "hierarchical aggregation traffic (32 parties, fanout 4)",
        &["tier", "messages", "tier_bytes", "bytes_per_message"],
    );
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let spec = WorkloadSpec {
        parties: 32,
        distinct_per_party: distinct / 4,
        overlap: 0.25,
        items_per_party: distinct / 2,
        distribution: Distribution::Uniform,
        seed: 0xE9C,
    };
    let set = spec.generate();
    let messages: Vec<gt_streams::PartyMessage> = set
        .streams
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut p = gt_streams::Party::new(id, &config, 0xE903);
            p.observe_stream(s);
            p.finish()
        })
        .collect();
    let report = gt_streams::aggregate_tree(&config, 0xE903, messages, 4).unwrap();
    for (tier, (&msgs, &bytes)) in report
        .messages_per_tier
        .iter()
        .zip(report.bytes_per_tier.iter())
        .enumerate()
    {
        c.row(vec![
            tier.to_string(),
            msgs.to_string(),
            bytes_h(bytes),
            bytes_h(bytes / msgs),
        ]);
    }
    c.note(format!(
        "root estimate {:.0}; flat-referee answer is identical by construction (tested in gt-streams::topology)",
        report.estimate.value
    ));
    c.note(
        "PASS condition: bytes_per_message ~constant at every tier (merged sketches do not grow)",
    );

    vec![a, b, c]
}
