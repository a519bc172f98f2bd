//! The paper's motivating deployment: distributed network monitors.
//!
//! Eight link monitors each observe their own packet stream (flows appear
//! on multiple links: routing overlap). Each monitor keeps a logarithmic-
//! space sketch, and after its observation window ships ONE message to a
//! collector, which answers: *how many distinct flows crossed the network?*
//!
//! The example also shows why the obvious alternatives fail:
//! adding up per-link distinct counts overcounts shared flows, and
//! counting packets overcounts by the duplication factor.
//!
//! Run with: `cargo run --release --example network_monitoring`

use gt_sketch::streams::party::Party;
use gt_sketch::streams::{run_batch, Distribution, Referee, StreamOracle, WorkloadSpec};
use gt_sketch::SketchConfig;

fn main() {
    // Synthetic traffic: 8 monitors, 50k flows visible per link, 30% of
    // flows traverse every link, Zipf(1.1)-skewed packet counts (a few
    // elephant flows dominate), 400k packets per link.
    let spec = WorkloadSpec {
        parties: 8,
        distinct_per_party: 50_000,
        overlap: 0.30,
        items_per_party: 400_000,
        distribution: Distribution::Zipf(1.1),
        seed: 2026,
    };
    let traffic = spec.generate();
    let config = SketchConfig::new(0.1, 0.05).expect("valid config");
    let master_seed = 0x5EED;

    println!("== observation phase (one thread per monitor) ==");
    let report = run_batch(&config, master_seed, &traffic, &[], &[]);
    println!(
        "monitors: {}   packets: {}   throughput: {:.1} M packets/s",
        report.parties,
        report.total_items,
        report.throughput() / 1e6
    );

    println!("\n== collector ==");
    println!("distinct flows (truth):    {}", report.truth);
    println!("distinct flows (sketch):   {:.0}", report.estimate);
    println!(
        "relative error:            {:.2}%",
        report.relative_error * 100.0
    );
    println!(
        "communication: {} bytes total ({} bytes/monitor) for {} packets observed",
        report.total_bytes,
        report.total_bytes / report.parties,
        report.total_items
    );
    println!(
        "  (shipping raw flow sets instead: ~{} bytes; raw packets: ~{} bytes)",
        report.truth * 8,
        report.total_items * 8
    );

    // --- What the naive approaches would report -------------------------
    println!("\n== naive alternatives ==");
    let per_link_sum: f64 = traffic
        .streams
        .iter()
        .map(|s| StreamOracle::of_streams([s.as_slice()]).distinct() as f64)
        .sum();
    println!(
        "sum of per-link distinct counts: {per_link_sum:.0} ({:.1}x overcount — shared flows recounted)",
        per_link_sum / report.truth as f64
    );
    println!(
        "total packet count:              {} ({:.1}x overcount — duplicates recounted)",
        report.total_items,
        report.total_items as f64 / report.truth as f64
    );

    // --- Incremental collection with explicit messages ------------------
    // The runner hides the plumbing; here is the same flow by hand, e.g.
    // for integrating with a real transport.
    println!("\n== manual party/referee wiring ==");
    let mut referee = Referee::new(&config, master_seed);
    for (id, stream) in traffic.streams.iter().enumerate().take(3) {
        let mut party = Party::new(id, &config, master_seed);
        party.observe_stream(stream);
        let msg = party.finish();
        println!("monitor {} sent {} bytes", id, msg.bytes());
        referee.receive(&msg).expect("coordinated message");
    }
    println!(
        "collector estimate over first 3 links: {}",
        referee.estimate_distinct()
    );

    assert!(
        report.relative_error < 0.1,
        "outside the (eps, delta) contract"
    );
}
