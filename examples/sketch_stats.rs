//! Sketch-ops observability walkthrough: what the metrics layer sees.
//!
//! Run with: `cargo run --release --example sketch_stats`
//!
//! Every `GtSketch` carries zero-dependency counters recording what its
//! trials did — insert outcomes, level promotions, and merge accounting,
//! payload reconciliations on the union path included. This
//! example drives a small two-site scenario plus a referee round-trip and
//! prints the counters as Prometheus text and as JSON.

use gt_sketch::metrics::{to_json, to_text};
use gt_sketch::streams::{DeltaParty, Party, Receipt, Referee, RefereeOf};
use gt_sketch::{DistinctSketch, SketchConfig};

fn main() {
    let config = SketchConfig::new(0.1, 0.05).expect("valid (eps, delta)");
    let master_seed = 0x0B5E_57A7;

    // Two sites with overlapping streams.
    let mut site_a = DistinctSketch::new(&config, master_seed);
    let mut site_b = DistinctSketch::new(&config, master_seed);
    site_a.extend_labels((0..30_000u64).map(gt_sketch::fold61));
    site_b.extend_labels((15_000..45_000u64).map(gt_sketch::fold61));

    println!("--- site A ---\n{}", to_text(&site_a.metrics_snapshot()));
    println!("--- site B ---\n{}", to_text(&site_b.metrics_snapshot()));

    // The union path: merge accounting lands on the receiving sketch.
    let union = site_a.merged(&site_b).expect("coordinated");
    let m = union.metrics_snapshot();
    println!("--- union (A <- B) ---\n{}", to_text(&m));
    println!("union as JSON: {}\n", to_json(&m));
    println!(
        "estimate {:.0} over {} merge-absorbed entries, {} reconciliations, {} promotions\n",
        union.estimate_distinct().value,
        m.merge_entries_absorbed,
        m.merge_reconciliations,
        m.level_promotions,
    );

    // The full referee round-trip: wire-encode both sites, decode and
    // union at the referee, and read its per-stage telemetry.
    let mut referee = Referee::new(&config, master_seed);
    for (id, range) in [0..30_000u64, 15_000..45_000].into_iter().enumerate() {
        let mut party = Party::new(id, &config, master_seed);
        for l in range {
            party.observe(gt_sketch::fold61(l));
        }
        referee.receive(&party.finish()).expect("intact message");
    }
    println!("--- referee ---\n{}", to_text(referee.telemetry()));
    println!(
        "referee union metrics: {}",
        to_json(&referee.union_metrics())
    );

    // The incremental delta plane: after the first full ship, a party's
    // frame carries only what changed since the referee's last ack, and
    // the referee's incrementally maintained live union stays bitwise
    // identical to a fresh decode of full ships. The per-side counters
    // show the frame mix and how many wire bytes the deltas saved.
    let mut live: RefereeOf<()> = RefereeOf::new(&config, master_seed);
    let mut delta_party: DeltaParty<()> = DeltaParty::new(0, &config, master_seed);
    for round in 0..5u64 {
        for l in (round * 6_000)..(round + 1) * 6_000 {
            delta_party.observe_with(gt_sketch::fold61(l), ());
        }
        let frame = delta_party.emit_frame();
        match live.receive_frame(&frame).expect("intact frame") {
            Receipt::Merged => {
                let acked = live.acked_generation(0).expect("just merged");
                delta_party.handle_ack(acked);
            }
            other => panic!("clean channel never returns {other:?}"),
        }
    }
    let ps = delta_party.stats();
    let dt = live.delta_telemetry();
    println!(
        "\n--- delta plane (1 party, 5 reporting rounds) ---\n\
         party emitted {} full + {} delta frames ({} + {} bytes)\n\
         referee applied {} full + {} delta ({} resyncs, {} duplicates), acked generation {:?}\n\
         live union estimate {:.0} after {} frames",
        ps.full_frames,
        ps.delta_frames,
        ps.full_bytes,
        ps.delta_bytes,
        dt.full_frames,
        dt.delta_frames,
        dt.resyncs_requested,
        dt.duplicate_frames,
        live.acked_generation(0),
        live.estimate_distinct().value,
        dt.frames_applied(),
    );
    assert_eq!(ps.full_frames, 1, "only the first ship is full");
    assert_eq!(live.acked_generation(0), Some(5));

    // The keyed multi-tenant store: per-key sketches behind one sharded
    // ingest path, with a byte budget tight enough here that eviction,
    // spill, and restore all fire. Its snapshot is a consistent cut —
    // the two tiers always sum to the key count exactly.
    let store = gt_sketch::store::DistinctStore::new(
        &config,
        master_seed,
        gt_sketch::store::StoreOptions::default().with_byte_budget(256 << 10),
    )
    .expect("store construction");
    let keyed: Vec<(u64, u64)> = (0..120_000u64)
        .map(|i| (i % 500, gt_sketch::fold61(i)))
        .collect();
    store.extend(&keyed).expect("keyed ingest");
    for key in (0..500).step_by(7) {
        store.estimate(key).expect("keyed query");
    }
    let s = store.metrics_snapshot();
    println!(
        "\n--- keyed store (500 tenants, 256 KiB budget) ---\n{}",
        to_text(&s)
    );
    println!("store as JSON: {}", to_json(&s));
    assert_eq!(s.resident_keys + s.spilled_keys, s.keys);
}
