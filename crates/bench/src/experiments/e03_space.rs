//! E3 — space usage.
//!
//! Claim: per-party space is `O(ε⁻² · log(1/δ) · log n)` bits, independent
//! of stream length. We measure (a) resident sample entries and heap
//! bytes against the `trials × capacity` ceiling across ε and δ, and
//! (b) that space does not move when the stream gets 100× longer, while an
//! exact set grows linearly.

use crate::bytes_h;
use crate::experiments::common::{labels, sketch_over};
use crate::table::Table;
use gt_core::SketchConfig;
use gt_streams::encode_sketch;

/// Run E3.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 50_000u64 } else { 200_000 };
    let universe = labels(n, 0xE3);

    let mut shape = Table::new(
        "E3a",
        "space vs (eps, delta)",
        &[
            "eps",
            "delta",
            "trials",
            "capacity",
            "ceiling_entries",
            "resident_entries",
            "heap",
            "wire",
        ],
    );
    for (eps, delta) in [
        (0.2, 0.1),
        (0.1, 0.1),
        (0.1, 0.01),
        (0.05, 0.01),
        (0.02, 0.01),
    ] {
        let config = SketchConfig::new(eps, delta).unwrap();
        let sketch = sketch_over(&config, 0xE301, &universe);
        shape.row(vec![
            format!("{eps}"),
            format!("{delta}"),
            config.trials().to_string(),
            config.capacity().to_string(),
            config.max_sample_entries().to_string(),
            sketch.sample_entries().to_string(),
            bytes_h(sketch.heap_bytes()),
            bytes_h(encode_sketch(&sketch).len()),
        ]);
    }
    shape.note(format!("n = {n} distinct labels"));
    shape.note("PASS condition: resident <= ceiling; heap = 8 B x table_len(capacity) per trial (load < 2/3, i.e. 12-24 B per capacity entry); wire ~ entries x delta-varint width");
    shape.note("scaling shape: capacity x4 when eps halves; trials grow ~log(1/delta)");

    let mut vs_len = Table::new(
        "E3b",
        "space vs stream length (fixed eps=0.1, delta=0.05)",
        &[
            "stream_items",
            "distinct",
            "sketch_wire",
            "sketch_heap",
            "exact_set_bytes",
        ],
    );
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let base: u64 = if quick { 10_000 } else { 20_000 };
    for mult in [1u64, 10, 100] {
        let items = base * mult;
        // distinct universe fixed at `base`; longer streams only duplicate.
        let mut sketch = gt_core::DistinctSketch::new(&config, 0xE302);
        for i in 0..items {
            sketch.insert(universe[(i % base) as usize]);
        }
        vs_len.row(vec![
            items.to_string(),
            base.to_string(),
            bytes_h(encode_sketch(&sketch).len()),
            bytes_h(sketch.heap_bytes()),
            bytes_h((base as usize) * 8),
        ]);
    }
    vs_len.note(
        "PASS condition: sketch columns flat as items grow 100x; exact set is ~8 B x distinct",
    );

    vec![shape, vs_len]
}
