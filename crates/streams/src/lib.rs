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
//! * [`party`] / [`referee`] — the two roles, as plain types: one party
//!   type, [`DeltaParty`] (with [`Party`] its label-only alias), and a
//!   referee that keeps one record per heard party.
//! * [`runner`] — the batch runs over a pre-generated stream set:
//!   [`runner::run_batch`] (one OS thread per party, crossbeam channels
//!   to the referee) returns a [`runner::BatchReport`] with estimates,
//!   ground truth, error, communication totals and any set-expression
//!   and Jaccard answers; [`runner::run_live`] serves queries from a
//!   shared concurrent sketch while writers ingest.
//! * [`netflow`] — a flow-record (5-tuple) workload generator for the
//!   paper's motivating network-monitoring domain.
//! * [`topology`] — hierarchical (tree) aggregation of party messages
//!   through intermediate collectors, exact at any depth.
//! * [`transport`] — a deterministic simulated channel (drop / corrupt /
//!   delay / reorder on a virtual clock) that every fault experiment
//!   shares, so loss schedules are reproducible from a seed.
//! * [`collector`] — the at-least-once delivery plane: the one ack /
//!   timeout / retransmit loop with capped exponential backoff over a
//!   [`transport::Transport`], feeding an idempotent [`referee`], run by
//!   [`collect_once`] and by the sustained engine's final rounds.
//! * [`scenario`] — the declarative sustained-load harness: a
//!   [`scenario::ScenarioSpec`] (topology × workload × fault plan ×
//!   query plan, all plain data) run by [`scenario::run_sustained`], a
//!   load generator on the virtual clock that measures per-item
//!   admission→queryable latency, reports by full re-ship or over the
//!   delta plane, and emits an [`scenario::E2eReport`].

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
    decode_sketch, decode_trials, encode_full_frame, encode_sketch, payload_fingerprint,
    CodecError, WirePayload,
};
pub use collector::{collect_once, CollectionReport, PartyAttempts, RetryPolicy};
pub use netflow::{FlowRecord, FlowWorkload};
pub use oracle::StreamOracle;
pub use party::{DeltaParty, DeltaPartyStats, Party, PartyMessage};
pub use referee::{
    DeltaPlaneTelemetry, PartialEstimate, PartialExpressionEstimate, PartialJaccardEstimate,
    PartialQuery, Receipt, Referee, RefereeOf, RefereeTelemetry,
};
pub use runner::{
    run_batch, run_live, BatchReport, ExpressionQueryOutcome, JaccardQueryOutcome, LiveQueryReport,
    LiveQuerySample, PartyPhases,
};
pub use scenario::{
    named_suite, run_sustained, ChurnEvent, ChurnKind, DeltaPlaneReport, DistinctSample,
    E2eDeterminismKey, E2eReport, ExpressionSample, FaultPlan, JaccardSample, LatencyHistogram,
    LoadPhase, LoadShape, QueryPlan, ReportingMode, ScenarioBuilder, ScenarioSpec, TopologySpec,
    WindowSample, WorkloadPlan, LATENCY_CLAMP,
};
pub use topology::{aggregate_tree, HierarchicalReport};
pub use transport::{Delivery, SendFate, Tick, Transport, TransportSpec, TransportTelemetry};
pub use workload::{Distribution, StreamSet, WorkloadSpec};
