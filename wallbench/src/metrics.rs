//! The metric dictionary: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names and units
//! (a test holds the two together).

/// Metrics a user of the system sees, reported by untraced runs on every
/// workload. Each holds its `BENCHMARK.json` bound between two sets of
/// runs of unchanged code; throughput and latencies do not on a shared
/// host, so they are per-layer (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("bytes_per_item", "B/item"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of single layers, reported by traced runs on every workload.
/// A `<layer>.<call>_frac` metric is the share of traced round wall time
/// spent inside that public call; it is 0 on workloads that never make
/// the call.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("hash.ns_per_label", "ns"),
    ("sketch.new_frac", "frac"),
    ("sketch.ingest_frac", "frac"),
    ("sketch.sampled_frac", "frac"),
    ("sketch.level_promotions", "count"),
    ("codec.encode_frac", "frac"),
    ("codec.bytes_out", "B"),
    ("party.emit_frame_frac", "frac"),
    ("party.handle_ack_frac", "frac"),
    ("party.delta_frame_frac", "frac"),
    ("referee.receive_frac", "frac"),
    ("referee.receive_frame_frac", "frac"),
    ("referee.decode_frac", "frac"),
    ("referee.merge_frac", "frac"),
    ("referee.query_distinct_frac", "frac"),
    ("referee.query_expr_frac", "frac"),
    ("referee.query_jaccard_frac", "frac"),
    ("referee.resyncs", "count"),
    ("store.extend_frac", "frac"),
    ("store.estimate_frac", "frac"),
    ("store.evictions", "count"),
    ("store.restores", "count"),
    ("store.spilled_bytes", "B"),
    ("store.restored_bytes", "B"),
    ("store.compactions", "count"),
    ("store.resident_frac", "frac"),
    ("store.front_hit_frac", "frac"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("query_p99_us", "us"),
    ("rel_error", "frac"),
    ("ops.failed_frac", "frac"),
    ("input_mib", "MiB"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Deterministic facts every run writes to its `results.json` (traced or
/// not) and `check` holds to an exact repeat: for a given seed and run
/// length they must not rise.
pub const GATES: &[(&str, &str)] = &[("rel_error", "frac"), ("ops.failed_frac", "frac")];
