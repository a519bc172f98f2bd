//! # gt-streams — the distributed-streams runtime
//!
//! The paper's execution model, as a testable substrate: `t` parties each
//! observe their own stream in one pass, then send **one message** to a
//! referee, who answers queries about the union. This crate provides
//! everything around the sketch needed to *run* that model and measure it:
//!
//! * [`workload`] — synthetic stream generators with precise control over
//!   the distinct-label structure (universe size, per-party overlap, skew,
//!   duplication), standing in for the network-monitoring traces the
//!   paper's setting assumes (substitution documented in DESIGN.md §6).
//! * [`oracle`] — exact ground truth for any set of generated streams.
//! * [`codec`] — a compact wire format for sketches (sorted, delta- and
//!   LEB128-encoded samples) with byte-accurate accounting, so experiment
//!   E9 measures real message sizes rather than `size_of` guesses.
//! * [`party`] / [`referee`] — the two roles, as plain types.
//! * [`runner`] — a multi-threaded scenario runner (one OS thread per
//!   party, crossbeam channels to the referee) producing a
//!   [`runner::ScenarioReport`] with estimates, ground truth, error, and
//!   communication totals.
//! * [`netflow`] — a flow-record (5-tuple) workload generator for the
//!   paper's motivating network-monitoring domain.
//! * [`topology`] — hierarchical (tree) aggregation of party messages
//!   through intermediate collectors, exact at any depth.
//! * [`transport`] — a deterministic simulated channel (drop / corrupt /
//!   delay / reorder on a virtual clock) that every fault experiment
//!   shares, so loss schedules are reproducible from a seed.
//! * [`collector`] — the at-least-once collection plane: ack / timeout /
//!   retransmit rounds with capped exponential backoff over a
//!   [`transport::Transport`], feeding an idempotent [`referee`].
//! * [`scenario`] — the declarative end-to-end harness: a
//!   [`scenario::ScenarioSpec`] (topology × workload × fault plan ×
//!   query plan, all plain data) dispatched to one of five engines,
//!   including a sustained-rate load generator on the virtual clock
//!   that measures per-item admission→queryable latency and emits an
//!   [`scenario::E2eReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod collector;
pub mod netflow;
pub mod oracle;
pub mod party;
pub mod referee;
pub mod runner;
pub mod scenario;
pub mod topology;
pub mod transport;
pub mod workload;

pub use codec::{
    decode_frame, decode_sketch, decode_sketch_into, encode_delta_frame, encode_full_frame,
    encode_sketch, encoded_sketch_len, payload_fingerprint, varint_len, CodecError, DecodeScratch,
    Frame, WirePayload,
};
pub use collector::{collect_once, CollectionReport, Collector, PartyAttempts, RetryPolicy};
pub use netflow::{FlowRecord, FlowWorkload};
pub use oracle::StreamOracle;
pub use party::{DeltaParty, DeltaPartyStats, Party, PartyMessage};
pub use referee::{
    batch_size_bucket, DeltaPlaneTelemetry, PartialEstimate, PartialExpressionEstimate,
    PartialJaccardEstimate, Receipt, Referee, RefereeOf, RefereeTelemetry, BATCH_BUCKET_LABELS,
};
pub use runner::{
    run_expression_scenario, run_live_query_scenario, run_resilient_scenario, run_scenario,
    ExpressionQueryOutcome, ExpressionScenarioReport, JaccardQueryOutcome, LiveQueryReport,
    LiveQuerySample, PartyPhases, ResilientReport, ScenarioReport,
};
pub use scenario::{
    named_suite, run_continuous, run_spec, run_spec_on, run_sustained, ChurnEvent, ChurnKind,
    DeltaPlaneReport, DistinctSample, E2eDeterminismKey, E2eReport, ExpressionSample, FaultPlan,
    IngestMode, JaccardSample, LatencyHistogram, LoadPhase, LoadShape, QueryPlan, ReportingMode,
    ScenarioBuilder, ScenarioOutcome, ScenarioSpec, TopologySpec, WindowSample, WorkloadPlan,
    LATENCY_CLAMP,
};
pub use topology::{aggregate_tree, HierarchicalReport};
pub use transport::{Delivery, SendFate, Tick, Transport, TransportSpec, TransportTelemetry};
pub use workload::{Distribution, StreamSet, WorkloadSpec};
