//! Declarative sustained-load harness: topology × workload × fault plan
//! × query plan, executed through the whole stack on a virtual clock.
//!
//! A [`ScenarioSpec`] is plain data describing an end-to-end run —
//! "32-party fan-in, Zipf multi-tenant traffic, 5% drop with retries,
//! flash crowd at t=150, party churn at t=200, live distinct + windowed
//! queries every 100 ticks" is ~15 lines of [`ScenarioBuilder`] calls.
//! [`run_sustained`] runs it: a load generator on the virtual clock
//! ([`Tick`]) with per-item admission→queryable latency, live
//! degraded-mode queries on a fixed cadence, mid-run churn and an
//! [`E2eReport`] at the end. Every party is a [`DeltaParty`], and the
//! two [`ReportingMode`]s are two report schedules of it: a full re-ship
//! of the cumulative sketch, which the referee takes a tick at a time in
//! one batch, or delta frames, which it applies one by one with acks.
//!
//! One-shot runs over a pre-generated [`crate::workload::StreamSet`] —
//! the paper's model, each party shipping one end-of-stream summary —
//! live in [`crate::runner`].
//!
//! ## Latency definition
//!
//! An item generated at virtual tick `g` becomes **queryable** at the
//! delivery tick `d` of the first summary accepted by the referee whose
//! encode tick `e ≥ g` (summaries are cumulative, so acceptance of a
//! later summary also admits earlier items). Its end-to-end latency is
//! `d − g` ticks. No wall clock is consulted anywhere in the sustained
//! engine: same spec + same seeds ⇒ bitwise-identical referee state,
//! telemetry counts, and latency histograms (property-tested in
//! `tests/scenario_determinism.rs`).
//!
//! ## Determinism contract
//!
//! The sustained engine is single-threaded by construction and every
//! stochastic choice (workload draws, channel fates) is owned by a
//! seeded [`SmallRng`], so a run is a pure function of its spec, its
//! configuration and its master seed. (The threaded batch runs in
//! [`crate::runner`] produce schedule-independent *state* — canonical
//! union bytes, exactly-once counters — but timing-shaped telemetry such
//! as batch counts and phase durations may vary run to run.)

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gt_core::metrics::Exposition;
use gt_core::{GtSketch, LatestTs, SetExpr, SketchConfig};

use crate::codec::{
    encode_full_frame, encode_sketch, payload_fingerprint, CodecError, WirePayload,
};
use crate::collector::{AckPath, RetryPolicy};
use crate::party::{DeltaParty, PartyMessage};
use crate::referee::{Receipt, RefereeOf, RefereeTelemetry};
use crate::transport::{Delivery, Tick, Transport, TransportSpec, TransportTelemetry};
use crate::workload::{Distribution, WorkloadSpec, ZipfSampler};

/// Latencies above this many ticks share one overflow bucket in the
/// [`LatencyHistogram`]; quantiles saturate here.
pub const LATENCY_CLAMP: Tick = 4096;

// ---------------------------------------------------------------------
// Spec types (plain data)
// ---------------------------------------------------------------------

/// Who participates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologySpec {
    /// Number of parties (streams).
    pub parties: usize,
}

/// How parties report their summaries over time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReportingMode {
    /// Every report re-ships the party's full cumulative summary —
    /// `O(summary)` bytes per cadence tick (the paper's one-shot model,
    /// repeated).
    #[default]
    FullReship,
    /// The continuous-monitoring delta plane: parties ship compact
    /// frames — a full frame first ([`crate::codec::encode_full_frame`]),
    /// then deltas coded against the last acked base
    /// ([`crate::DeltaParty::emit_frame`]) — and the referee maintains
    /// a live union that is bitwise identical to a fresh full ship at
    /// every ack point. `O(changes)` bytes per cadence tick in steady
    /// state.
    DeltaPlane,
}

/// A rate-multiplier window for the sustained engine: between `from`
/// (inclusive) and `until` (exclusive) each party's per-tick rate is
/// scaled by `rate_multiplier` (a flash crowd is `8.0`, a lull `0.25`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadPhase {
    /// First tick the multiplier applies to.
    pub from: Tick,
    /// First tick past the window.
    pub until: Tick,
    /// Factor applied to the base per-party rate.
    pub rate_multiplier: f64,
}

/// How much traffic arrives, and in what shape: every alive party draws
/// `rate_per_party` items per virtual tick (scaled by any matching
/// [`LoadPhase`]) and ships a cumulative summary every `report_every`
/// ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadShape {
    /// Base items per party per tick.
    pub rate_per_party: u64,
    /// Total virtual ticks to run.
    pub duration: Tick,
    /// Summary cadence, in ticks.
    pub report_every: Tick,
    /// Rate-multiplier windows (first match wins; default ×1).
    pub phases: Vec<LoadPhase>,
}

/// The traffic's label structure plus its [`LoadShape`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPlan {
    /// Distinct labels in each party's sub-universe.
    pub distinct_per_party: u64,
    /// Fraction of each party's sub-universe shared with all parties.
    pub overlap: f64,
    /// Draw distribution. [`Distribution::EachOnce`] cycles the
    /// sub-universe in order.
    pub distribution: Distribution,
    /// Workload seed (independent of sketch seeds).
    pub seed: u64,
    /// Rate, duration and report cadence.
    pub load: LoadShape,
}

impl WorkloadPlan {
    /// The equivalent [`WorkloadSpec`] for `parties` parties
    /// (`items_per_party` is 0 — the engine draws incrementally instead
    /// of pre-generating).
    pub fn to_workload_spec(&self, parties: usize) -> WorkloadSpec {
        WorkloadSpec {
            parties,
            distinct_per_party: self.distinct_per_party,
            overlap: self.overlap,
            items_per_party: 0,
            distribution: self.distribution,
            seed: self.seed,
        }
    }
}

/// What happens to one party mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// The party stops generating at `at` but ships a parting summary
    /// first (failover done right).
    GracefulLeave,
    /// The party stops generating at `at` and ships nothing further;
    /// items not covered by an earlier summary are lost.
    Crash,
    /// The party is inactive before `at` and starts generating at `at`.
    Join,
}

/// One churn event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Which party.
    pub party: usize,
    /// Virtual tick of the event.
    pub at: Tick,
    /// What happens.
    pub kind: ChurnKind,
}

/// Channel faults, retry budget, and churn.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Simulated channel; `None` means a reliable one.
    pub transport: Option<TransportSpec>,
    /// Retry behaviour: the final retransmit rounds after the load ends,
    /// and ack loss on the delta plane's return path.
    pub retry: RetryPolicy,
    /// Mid-run churn.
    pub churn: Vec<ChurnEvent>,
}

/// Which live queries run, and how often.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// Query cadence in ticks (0 = every tick).
    pub every: Tick,
    /// Sample `estimate_distinct_partial` each cadence tick.
    pub distinct: bool,
    /// Sample a sliding-window distinct count over the last `w` ticks.
    pub window: Option<Tick>,
    /// Set expressions evaluated via `query_partial` (leaves are party
    /// ids).
    pub expressions: Vec<SetExpr>,
    /// Expression pairs evaluated via `query_jaccard_partial`.
    pub jaccard: Vec<(SetExpr, SetExpr)>,
}

/// A complete end-to-end scenario: topology × workload × fault plan ×
/// query plan, all plain data. Build one with [`ScenarioSpec::builder`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (report and JSON key).
    pub name: String,
    /// Who participates.
    pub topology: TopologySpec,
    /// Traffic structure and load shape.
    pub workload: WorkloadPlan,
    /// Channel faults, retries, churn.
    pub faults: FaultPlan,
    /// Live query plan.
    pub queries: QueryPlan,
    /// Full re-ship vs incremental delta frames.
    pub reporting: ReportingMode,
}

impl ScenarioSpec {
    /// Start building a scenario with sane defaults: 4 parties, 1 000
    /// distinct labels each at 25 % overlap, uniform draws, 1 item per
    /// party per tick for 100 ticks reported every 10, full re-ship, no
    /// faults, no queries.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                topology: TopologySpec { parties: 4 },
                workload: WorkloadPlan {
                    distinct_per_party: 1_000,
                    overlap: 0.25,
                    distribution: Distribution::Uniform,
                    seed: 0xBEEF,
                    load: LoadShape {
                        rate_per_party: 1,
                        duration: 100,
                        report_every: 10,
                        phases: Vec::new(),
                    },
                },
                faults: FaultPlan {
                    transport: None,
                    retry: RetryPolicy::one_shot(),
                    churn: Vec::new(),
                },
                queries: QueryPlan::default(),
                reporting: ReportingMode::default(),
            },
        }
    }
}

/// Fluent builder for [`ScenarioSpec`]. Every method returns `self`.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Number of parties.
    pub fn parties(mut self, parties: usize) -> Self {
        self.spec.topology.parties = parties;
        self
    }

    /// Report via the continuous-monitoring delta plane instead of full
    /// re-ships (see [`ReportingMode::DeltaPlane`]).
    pub fn delta_plane(mut self) -> Self {
        self.spec.reporting = ReportingMode::DeltaPlane;
        self
    }

    /// Distinct labels per party.
    pub fn distinct_per_party(mut self, n: u64) -> Self {
        self.spec.workload.distinct_per_party = n;
        self
    }

    /// Shared-universe overlap fraction.
    pub fn overlap(mut self, overlap: f64) -> Self {
        self.spec.workload.overlap = overlap;
        self
    }

    /// Draw distribution.
    pub fn distribution(mut self, d: Distribution) -> Self {
        self.spec.workload.distribution = d;
        self
    }

    /// Workload seed.
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.spec.workload.seed = seed;
        self
    }

    /// Load: `rate` items per party per tick for `duration` ticks,
    /// shipping cumulative summaries every `report_every` ticks (clears
    /// any [`ScenarioBuilder::phase`] added before).
    pub fn sustained(mut self, rate: u64, duration: Tick, report_every: Tick) -> Self {
        self.spec.workload.load = LoadShape {
            rate_per_party: rate,
            duration,
            report_every,
            phases: Vec::new(),
        };
        self
    }

    /// Add a rate-multiplier window to the load.
    pub fn phase(mut self, from: Tick, until: Tick, rate_multiplier: f64) -> Self {
        self.spec.workload.load.phases.push(LoadPhase {
            from,
            until,
            rate_multiplier,
        });
        self
    }

    /// Route messages through a simulated faulty channel.
    pub fn transport(mut self, spec: TransportSpec) -> Self {
        self.spec.faults.transport = Some(spec);
        self
    }

    /// Retry policy for the collection plane.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.spec.faults.retry = policy;
        self
    }

    /// Party `party` joins (starts generating) at tick `at`.
    pub fn join(mut self, party: usize, at: Tick) -> Self {
        self.spec.faults.churn.push(ChurnEvent {
            party,
            at,
            kind: ChurnKind::Join,
        });
        self
    }

    /// Party `party` leaves gracefully at tick `at` (parting summary
    /// shipped first).
    pub fn graceful_leave(mut self, party: usize, at: Tick) -> Self {
        self.spec.faults.churn.push(ChurnEvent {
            party,
            at,
            kind: ChurnKind::GracefulLeave,
        });
        self
    }

    /// Party `party` crashes at tick `at` (nothing further is shipped).
    pub fn crash(mut self, party: usize, at: Tick) -> Self {
        self.spec.faults.churn.push(ChurnEvent {
            party,
            at,
            kind: ChurnKind::Crash,
        });
        self
    }

    /// Live-query cadence in ticks.
    pub fn query_every(mut self, every: Tick) -> Self {
        self.spec.queries.every = every;
        self
    }

    /// Sample the degraded-mode distinct estimate each cadence tick.
    pub fn query_distinct(mut self) -> Self {
        self.spec.queries.distinct = true;
        self
    }

    /// Sample a sliding-window distinct count over the last `window`
    /// ticks each cadence tick.
    pub fn query_window(mut self, window: Tick) -> Self {
        self.spec.queries.window = Some(window);
        self
    }

    /// Add a set-expression query (leaves are party ids).
    pub fn query_expr(mut self, expr: SetExpr) -> Self {
        self.spec.queries.expressions.push(expr);
        self
    }

    /// Add a Jaccard query between two expressions.
    pub fn query_jaccard(mut self, e1: SetExpr, e2: SetExpr) -> Self {
        self.spec.queries.jaccard.push((e1, e2));
        self
    }

    /// Finish: validate and return the spec.
    pub fn build(self) -> ScenarioSpec {
        let spec = self.spec;
        assert!(spec.topology.parties > 0, "need at least one party");
        assert!(
            spec.workload.distinct_per_party > 0,
            "need a non-empty universe"
        );
        for ev in &spec.faults.churn {
            assert!(
                ev.party < spec.topology.parties,
                "churn event references party {} of {}",
                ev.party,
                spec.topology.parties
            );
        }
        spec
    }
}

// ---------------------------------------------------------------------
// Sustained engine
// ---------------------------------------------------------------------

/// A tick-resolution latency histogram: bucket `i` counts items whose
/// admission→queryable latency was exactly `i` ticks (clamped at
/// [`LATENCY_CLAMP`]). Derives `Eq`, so same-seed replays can assert
/// bitwise-identical latency distributions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: Tick,
}

impl LatencyHistogram {
    /// Record `n` items at `latency` ticks.
    pub fn record(&mut self, latency: Tick, n: u64) {
        if n == 0 {
            return;
        }
        let idx = latency.min(LATENCY_CLAMP) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.max = self.max.max(latency);
    }

    /// Items recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest latency recorded (unclamped).
    pub fn max(&self) -> Tick {
        self.max
    }

    /// The smallest latency `L` such that at least `⌈q·count⌉` items had
    /// latency ≤ `L` (0 when empty; saturates at [`LATENCY_CLAMP`]).
    pub fn quantile(&self, q: f64) -> Tick {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return i as Tick;
            }
        }
        LATENCY_CLAMP
    }

    /// Median latency in ticks.
    pub fn p50(&self) -> Tick {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in ticks.
    pub fn p99(&self) -> Tick {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in ticks.
    pub fn p999(&self) -> Tick {
        self.quantile(0.999)
    }

    /// Mean latency in ticks (clamped items count at the clamp).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| i as u64 * b)
            .sum();
        sum as f64 / self.count as f64
    }
}

/// One degraded-mode distinct sample from the query plan.
#[derive(Clone, Copy, Debug)]
pub struct DistinctSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// `estimate_distinct_partial` point estimate.
    pub estimate: f64,
    /// Parties heard at query time.
    pub parties_heard: usize,
    /// Parties active (joined) at query time.
    pub parties_expected: usize,
    /// `parties_heard / parties_expected` (1 when none expected).
    pub coverage: f64,
}

/// One sliding-window distinct sample: the estimate over the last
/// `window` ticks against the engine's exact recency oracle.
#[derive(Clone, Copy, Debug)]
pub struct WindowSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// Window width in ticks.
    pub window: Tick,
    /// The referee's windowed estimate over the union of what reached it.
    pub estimate: f64,
    /// Exact count of labels last seen in `(at − window, at]`.
    pub truth: u64,
}

/// One set-expression sample (`query_partial`).
#[derive(Clone, Copy, Debug)]
pub struct ExpressionSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// Index into [`QueryPlan::expressions`].
    pub query: usize,
    /// Point estimate.
    pub estimate: f64,
    /// Fraction of referenced parties heard.
    pub coverage: f64,
}

/// One Jaccard sample (`query_jaccard_partial`).
#[derive(Clone, Copy, Debug)]
pub struct JaccardSample {
    /// Virtual tick of the query.
    pub at: Tick,
    /// Index into [`QueryPlan::jaccard`].
    pub pair: usize,
    /// Jaccard estimate.
    pub jaccard: f64,
    /// Fraction of referenced parties heard.
    pub coverage: f64,
}

/// What the continuous-monitoring delta plane did during a sustained
/// run — present on [`E2eReport::delta`] when the scenario used
/// [`ReportingMode::DeltaPlane`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaPlaneReport {
    /// Delta frames applied by the referee.
    pub delta_frames: u64,
    /// Full frames applied (initial ships and post-resync re-keys).
    pub full_frames: u64,
    /// Wire bytes of applied delta frames.
    pub delta_bytes: u64,
    /// Wire bytes of applied full frames.
    pub full_bytes: u64,
    /// Resyncs requested (delta refused for an unknown/mismatched base).
    pub resyncs: u64,
    /// Per-generation acks sent back to parties.
    pub acks_sent: u64,
    /// Acks lost on the return path ([`RetryPolicy::ack_drop_probability`]).
    pub acks_lost: u64,
    /// Final acked (applied) generation per party, indexed by party id
    /// (0 = never heard).
    pub acked_generations: Vec<u64>,
    /// Mean over query ticks of the worst per-party estimate staleness,
    /// in virtual ticks (tick of query minus encode tick of the last
    /// applied frame).
    pub staleness_mean: f64,
    /// Worst staleness observed at any query tick.
    pub staleness_max: Tick,
    /// Bitwise live-union-vs-full-ship equivalence checks run (one per
    /// tick that applied at least one frame).
    pub oracle_checks: u64,
    /// Equivalence checks that failed — **must be zero**; a nonzero
    /// count means the incremental union diverged from a fresh full
    /// ship.
    pub oracle_failures: u64,
    /// Checks skipped because a party no longer retained the generation
    /// for its acked generation (mid-resync windows).
    pub oracle_skipped: u64,
}

impl DeltaPlaneReport {
    /// Mean applied delta-frame size in bytes (0 when none).
    pub fn mean_delta_frame(&self) -> f64 {
        if self.delta_frames == 0 {
            0.0
        } else {
            self.delta_bytes as f64 / self.delta_frames as f64
        }
    }

    /// Mean applied full-frame size in bytes (0 when none).
    pub fn mean_full_frame(&self) -> f64 {
        if self.full_frames == 0 {
            0.0
        } else {
            self.full_bytes as f64 / self.full_frames as f64
        }
    }
}

/// Everything a sustained-rate scenario run measured.
#[derive(Clone, Debug)]
pub struct E2eReport {
    /// Scenario name.
    pub name: String,
    /// Parties in the topology.
    pub parties: usize,
    /// Virtual ticks run (before final retry rounds).
    pub duration: Tick,
    /// Items generated across all parties.
    pub total_items: u64,
    /// Items that became queryable (covered by an accepted summary).
    pub items_acked: u64,
    /// Summary messages encoded and first-sent (excludes retransmits).
    pub reports_sent: usize,
    /// Final retransmit rounds driven after the load ended.
    pub retry_rounds: usize,
    /// Admission→queryable latency per item, in virtual ticks.
    pub latency: LatencyHistogram,
    /// Parties heard / parties that sent ≥ 1 summary (1 when none sent).
    pub party_coverage: f64,
    /// Items acked / items generated (1 when none generated).
    pub item_coverage: f64,
    /// Final union distinct estimate.
    pub final_estimate: f64,
    /// Exact distinct count of everything generated.
    pub truth: u64,
    /// `|final_estimate − truth| / truth` — only meaningful at full
    /// coverage (at partial coverage the contract covers the heard
    /// union, as in [`crate::referee::PartialEstimate`]).
    pub relative_error: f64,
    /// Degraded-mode distinct samples, in query order.
    pub distinct_samples: Vec<DistinctSample>,
    /// Sliding-window samples, in query order.
    pub window_samples: Vec<WindowSample>,
    /// Set-expression samples, in query order.
    pub expression_samples: Vec<ExpressionSample>,
    /// Jaccard samples, in query order.
    pub jaccard_samples: Vec<JaccardSample>,
    /// Channel-side telemetry (authoritative drop counts).
    pub transport: TransportTelemetry,
    /// Referee-side telemetry (accepts, duplicates, rejects).
    pub referee: RefereeTelemetry,
    /// Canonical encoded bytes of the final union sketch — the bitwise
    /// determinism witness.
    pub union_canonical: bytes::Bytes,
    /// Total summary bytes put on the wire (first sends + engine-driven
    /// retransmits; the steady-state communication cost E24 measures).
    pub bytes_sent: u64,
    /// Delta-plane accounting, when the run used
    /// [`ReportingMode::DeltaPlane`].
    pub delta: Option<DeltaPlaneReport>,
    /// Wall time of the whole run (diagnostics only — never asserted).
    pub run_wall: std::time::Duration,
}

impl E2eReport {
    /// Wall-clock ingest throughput in items per second (diagnostics;
    /// `f64::INFINITY` if the clock read zero).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.run_wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.total_items as f64 / secs
        }
    }

    /// Everything deterministic about this run, folded into one
    /// `Eq`-comparable value: canonical union bytes, latency histogram,
    /// exactly-once counters, telemetry counts (timings excluded), and
    /// every query sample (estimates as IEEE bit patterns). Two
    /// same-seed runs of the same spec must compare equal — the replay
    /// property `tests/scenario_determinism.rs` checks.
    pub fn determinism_key(&self) -> E2eDeterminismKey {
        let r = &self.referee;
        let d = self.delta.clone().unwrap_or_default();
        E2eDeterminismKey {
            union_canonical: self.union_canonical.clone(),
            bytes_sent: self.bytes_sent,
            delta_counts: [
                d.delta_frames,
                d.full_frames,
                d.delta_bytes,
                d.full_bytes,
                d.resyncs,
                d.acks_sent,
                d.acks_lost,
                d.oracle_failures,
            ],
            latency: self.latency.clone(),
            total_items: self.total_items,
            items_acked: self.items_acked,
            reports_sent: self.reports_sent,
            retry_rounds: self.retry_rounds,
            truth: self.truth,
            final_estimate_bits: self.final_estimate.to_bits(),
            party_coverage_bits: self.party_coverage.to_bits(),
            item_coverage_bits: self.item_coverage.to_bits(),
            transport: self.transport,
            referee_counts: [
                r.accepted,
                r.duplicates_suppressed,
                r.duplicates_merged,
                r.rejected(),
                r.batches,
            ],
            samples: self
                .distinct_samples
                .iter()
                .map(|s| (s.at, 0usize, s.estimate.to_bits(), s.parties_heard as u64))
                .chain(
                    self.window_samples
                        .iter()
                        .map(|s| (s.at, 1, s.estimate.to_bits(), s.truth)),
                )
                .chain(
                    self.expression_samples
                        .iter()
                        .map(|s| (s.at, 2, s.estimate.to_bits(), s.query as u64)),
                )
                .chain(
                    self.jaccard_samples
                        .iter()
                        .map(|s| (s.at, 3, s.jaccard.to_bits(), s.pair as u64)),
                )
                .collect(),
        }
    }
}

/// The run's scalars and channel counters under `gt_run_`, the referee's
/// walk, then the delta plane's accounting under `gt_delta_` when the run
/// used it. The scenario name is a label, not a reading, and each query
/// sample log yields its length.
impl Exposition for E2eReport {
    fn visit(&self, f: &mut dyn FnMut(&str, f64)) {
        gt_core::expose!(f, "gt_run_", self; parties, duration, total_items, items_acked,
            reports_sent, retry_rounds, party_coverage, item_coverage, final_estimate, truth,
            relative_error, bytes_sent);
        let latency = &self.latency;
        f("gt_run_latency_p50", latency.p50() as f64);
        f("gt_run_latency_p99", latency.p99() as f64);
        f("gt_run_latency_p999", latency.p999() as f64);
        f("gt_run_latency_max", latency.max() as f64);
        // The scenario name is a label, not a reading; each query-sample
        // log yields its length.
        f(
            "gt_run_distinct_samples",
            self.distinct_samples.len() as f64,
        );
        f("gt_run_window_samples", self.window_samples.len() as f64);
        f(
            "gt_run_expression_samples",
            self.expression_samples.len() as f64,
        );
        f("gt_run_jaccard_samples", self.jaccard_samples.len() as f64);
        let union_bytes = self.union_canonical.len() as f64;
        f("gt_run_union_canonical_bytes", union_bytes);
        f("gt_run_run_wall_seconds", self.run_wall.as_secs_f64());
        let t = &self.transport;
        gt_core::expose!(f, "gt_run_transport_", t; sends, dropped, corrupted, straggled,
            delivered);
        self.referee.visit(f);
        if let Some(d) = &self.delta {
            gt_core::expose!(f, "gt_delta_", d; delta_frames, full_frames, delta_bytes, full_bytes,
                resyncs, acks_sent, acks_lost, staleness_mean, staleness_max, oracle_checks,
                oracle_failures, oracle_skipped);
            for (i, &g) in d.acked_generations.iter().enumerate() {
                f(&format!("gt_delta_acked_generations_{i}"), g as f64);
            }
        }
    }
}

/// The `Eq`-comparable replay witness of an [`E2eReport`] — see
/// [`E2eReport::determinism_key`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct E2eDeterminismKey {
    /// Canonical encoded bytes of the final union sketch.
    pub union_canonical: bytes::Bytes,
    /// Summary bytes put on the wire.
    pub bytes_sent: u64,
    /// Delta-plane counts: delta/full frames, delta/full bytes, resyncs,
    /// acks sent/lost, oracle failures (all zero off the delta plane).
    pub delta_counts: [u64; 8],
    /// Full latency histogram.
    pub latency: LatencyHistogram,
    /// Items generated.
    pub total_items: u64,
    /// Items acked.
    pub items_acked: u64,
    /// Summaries first-sent.
    pub reports_sent: usize,
    /// Final retry rounds.
    pub retry_rounds: usize,
    /// Exact distinct truth.
    pub truth: u64,
    /// Final estimate, as IEEE bits.
    pub final_estimate_bits: u64,
    /// Party coverage, as IEEE bits.
    pub party_coverage_bits: u64,
    /// Item coverage, as IEEE bits.
    pub item_coverage_bits: u64,
    /// Channel telemetry (all counts).
    pub transport: TransportTelemetry,
    /// Referee counts: accepted, dup-suppressed, dup-merged, rejected,
    /// batches (timings excluded — they are wall-clock).
    pub referee_counts: [usize; 5],
    /// Every query sample: `(tick, kind, estimate bits, aux)`.
    pub samples: Vec<(Tick, usize, u64, u64)>,
}

/// Per-party runtime state of the sustained engine.
struct PartyRt<V: WirePayload> {
    party: DeltaParty<V>,
    rng: SmallRng,
    universe: Vec<u64>,
    zipf: Option<ZipfSampler>,
    each_once: bool,
    /// Items generated but not yet covered by an accepted report:
    /// `(generation tick, count)` in tick order.
    pending: VecDeque<(Tick, u64)>,
    generated: u64,
    /// Items covered by the most recent report (skip no-op re-encodes).
    last_encoded_items: u64,
    /// Most recent report and its encode tick, for final retransmits.
    last_encode: Option<(Tick, PartyMessage)>,
    /// Encode tick of the newest report the referee accepted — the
    /// staleness anchor for this party.
    applied_emit_tick: Option<Tick>,
    /// A resync notice arrived (delta plane): the next report goes out
    /// even with no new items, re-keying the chain with a full frame.
    needs_reemit: bool,
    joined_at: Tick,
    leave_at: Option<Tick>,
    graceful: bool,
    sends: usize,
    /// The delta plane's oracle copies of the party's state at each
    /// generation it still retains ([`DeltaParty::retained_generations`]).
    snapshots: Vec<(u64, GtSketch<V>)>,
}

impl<V: WirePayload> PartyRt<V> {
    fn draw(&mut self) -> u64 {
        let idx = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as usize,
            None if self.each_once => (self.generated as usize) % self.universe.len(),
            None => self.rng.gen_range(0..self.universe.len()),
        };
        self.universe[idx]
    }

    /// Generating at tick `t`?
    fn generating(&self, t: Tick) -> bool {
        self.joined_at <= t && self.leave_at.is_none_or(|l| t < l)
    }

    /// Allowed to send at tick `t`? (Graceful leavers ship their parting
    /// report at the leave tick; crashers ship nothing from theirs.)
    fn can_send(&self, t: Tick) -> bool {
        self.joined_at <= t
            && match self.leave_at {
                None => true,
                Some(l) => t < l || (t == l && self.graceful),
            }
    }
}

/// Admission→queryable latency accounting: the encode tick of every
/// report, and the latency of every item an accepted report covered.
#[derive(Default)]
struct Ledger {
    /// Encode tick of each `(party, payload fingerprint)`.
    encoded_at: HashMap<(usize, u64), Tick>,
    latency: LatencyHistogram,
    items_acked: u64,
}

/// What [`ReportingMode::DeltaPlane`] adds to the shared tick loop of
/// [`run_engine`]: parties ship [`DeltaParty`] frames, the referee
/// applies them one by one and acks each generation back (subject to
/// return-path loss) or asks for a resync, an always-on oracle checks
/// the live union against a fresh full ship, and the worst reporting
/// staleness is tracked at every query tick.
struct DeltaPlane {
    ack: AckPath,
    staleness_sum: u64,
    staleness_ticks: u64,
    report: DeltaPlaneReport,
}

impl DeltaPlane {
    fn new(spec: &ScenarioSpec) -> Self {
        DeltaPlane {
            ack: spec.faults.retry.ack_path(spec.workload.seed),
            staleness_sum: 0,
            staleness_ticks: 0,
            report: DeltaPlaneReport::default(),
        }
    }

    /// Hand deliveries to the referee frame by frame, and route each
    /// ack or resync request back to its party. One receipt per
    /// delivery, in order.
    fn deliver<V: WirePayload>(
        &mut self,
        deliveries: &[Delivery],
        referee: &mut RefereeOf<V>,
        ps: &mut [PartyRt<V>],
    ) -> Vec<Result<Receipt, CodecError>> {
        let mut receipts = Vec::with_capacity(deliveries.len());
        for d in deliveries {
            let p = d.msg.party_id;
            let receipt = referee.receive_frame(&d.msg);
            match receipt {
                // Route the referee's cumulative per-generation ack back,
                // subject to return-path loss. Duplicates are re-acked:
                // the original ack may be the thing that was lost, and
                // the cumulative ack lets the party advance its base and
                // prune snapshots.
                Ok(Receipt::Merged | Receipt::Duplicate) => {
                    if let Some(generation) = referee.acked_generation(p) {
                        self.report.acks_sent += 1;
                        if self.ack.lost() {
                            self.report.acks_lost += 1;
                        } else {
                            ps[p].party.handle_ack(generation);
                        }
                    }
                }
                Ok(Receipt::NeedResync) => {
                    ps[p].party.handle_resync();
                    ps[p].needs_reemit = true;
                }
                // MergedVariant is unreachable on the frame path; corrupt
                // deliveries error out and are counted by referee
                // telemetry.
                Ok(Receipt::MergedVariant) | Err(_) => {}
            }
            receipts.push(receipt);
        }
        receipts
    }

    /// The equivalence oracle, run after each tick in which the referee
    /// accepted a report: a fresh referee full-shipped each party's
    /// snapshot at its applied generation must produce canonical union
    /// bytes identical to the live union. When some party no longer
    /// retains the needed generation (mid-resync window) the check is
    /// skipped, not failed.
    fn check_oracle<V: WirePayload>(&mut self, referee: &RefereeOf<V>, ps: &[PartyRt<V>]) {
        let live = referee.union_sketch();
        let mut oracle: RefereeOf<V> = RefereeOf::new(live.config(), live.master_seed());
        let mut matches = true;
        for (p, rt) in ps.iter().enumerate() {
            let Some(generation) = referee.acked_generation(p) else {
                continue;
            };
            let retained = rt.party.retained_generations().any(|g| g == generation);
            let snap = rt.snapshots.iter().find(|&&(g, _)| g == generation);
            let (true, Some((_, snap))) = (retained, snap) else {
                self.report.oracle_skipped += 1;
                return;
            };
            let msg = PartyMessage {
                party_id: p,
                payload: encode_full_frame(snap, 1),
                items_observed: snap.items_observed(),
            };
            if !matches!(oracle.receive_frame(&msg), Ok(Receipt::Merged)) {
                matches = false;
                break;
            }
        }
        matches = matches && encode_sketch(oracle.union_sketch()) == encode_sketch(live);
        self.report.oracle_checks += 1;
        self.report.oracle_failures += u64::from(!matches);
    }

    /// Record the worst reporting staleness at query tick `t`.
    fn track_staleness<V: WirePayload>(&mut self, ps: &[PartyRt<V>], t: Tick) {
        let worst = ps
            .iter()
            .filter(|rt| rt.sends > 0)
            .map(|rt| t.saturating_sub(rt.applied_emit_tick.unwrap_or(0)))
            .max()
            .unwrap_or(0);
        self.staleness_sum += worst;
        self.staleness_ticks += 1;
        self.report.staleness_max = self.report.staleness_max.max(worst);
    }

    /// The delta plane's section of the report.
    fn finish<V: WirePayload>(
        mut self,
        referee: &RefereeOf<V>,
        parties: usize,
    ) -> DeltaPlaneReport {
        let rt = referee.delta_telemetry();
        self.report.delta_frames = rt.delta_frames;
        self.report.full_frames = rt.full_frames;
        self.report.delta_bytes = rt.delta_bytes;
        self.report.full_bytes = rt.full_bytes;
        self.report.resyncs = rt.resyncs_requested;
        self.report.acked_generations = (0..parties)
            .map(|p| referee.acked_generation(p).unwrap_or(0))
            .collect();
        self.report.staleness_mean = if self.staleness_ticks == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.staleness_ticks as f64
        };
        self.report
    }
}

/// Feed deliveries to the referee — frame by frame over the delta
/// plane, otherwise as one [`RefereeOf::receive_batch`] of full
/// re-ships — then account latency: an accepted report admits every
/// pending item of its party generated at or before the report's encode
/// tick. Returns whether the referee accepted any report.
fn absorb<V: WirePayload>(
    plane: &mut Option<DeltaPlane>,
    deliveries: &[Delivery],
    referee: &mut RefereeOf<V>,
    ps: &mut [PartyRt<V>],
    ledger: &mut Ledger,
) -> bool {
    if deliveries.is_empty() {
        return false;
    }
    let receipts = match plane {
        Some(plane) => plane.deliver(deliveries, referee, ps),
        None => {
            let msgs: Vec<PartyMessage> = deliveries.iter().map(|d| d.msg.clone()).collect();
            referee.receive_batch(&msgs)
        }
    };
    let mut any_accepted = false;
    for (d, receipt) in deliveries.iter().zip(receipts) {
        if !matches!(receipt, Ok(Receipt::Merged | Receipt::MergedVariant)) {
            // Duplicates changed nothing; corrupt deliveries decode to
            // an error (or, rarely, to an unknown-fingerprint variant
            // that the ledger lookup below rejects).
            continue;
        }
        any_accepted = true;
        let fp = payload_fingerprint(&d.msg.payload);
        let Some(&encode_tick) = ledger.encoded_at.get(&(d.msg.party_id, fp)) else {
            continue;
        };
        let rt = &mut ps[d.msg.party_id];
        rt.applied_emit_tick = rt.applied_emit_tick.max(Some(encode_tick));
        while let Some(&(gen_tick, n)) = rt.pending.front() {
            if gen_tick > encode_tick {
                break;
            }
            ledger.latency.record(d.at.saturating_sub(gen_tick), n);
            ledger.items_acked += n;
            rt.pending.pop_front();
        }
    }
    any_accepted
}

/// Encode a party's next report at tick `t` — a frame on the delta
/// plane, otherwise its whole cumulative sketch — and record it as the
/// party's latest.
fn encode_report<V: WirePayload>(
    frames: bool,
    rt: &mut PartyRt<V>,
    t: Tick,
    ledger: &mut Ledger,
) -> PartyMessage {
    let msg = if frames {
        let msg = rt.party.emit_frame();
        // Keep the oracle's copy of every generation the party retains.
        let party = &rt.party;
        rt.snapshots
            .retain(|&(g, _)| party.retained_generations().any(|r| r == g));
        rt.snapshots
            .push((party.generation(), party.sketch().clone()));
        msg
    } else {
        rt.party.full_message()
    };
    ledger
        .encoded_at
        .entry((msg.party_id, payload_fingerprint(&msg.payload)))
        .or_insert(t);
    rt.last_encode = Some((t, msg.clone()));
    rt.last_encoded_items = rt.generated;
    rt.needs_reemit = false;
    msg
}

/// The base-rate multiplier at tick `t` (first matching phase wins).
fn multiplier_at(phases: &[LoadPhase], t: Tick) -> f64 {
    phases
        .iter()
        .find(|p| p.from <= t && t < p.until)
        .map_or(1.0, |p| p.rate_multiplier)
}

/// Run a sustained-load spec on the virtual clock, reporting as
/// `spec.reporting` says.
///
/// Under [`ReportingMode::FullReship`] every report re-ships the party's
/// whole sketch; under [`ReportingMode::DeltaPlane`] parties ship delta
/// frames, and the referee maintains a live union with per-generation
/// acks (and resyncs) on the return path. In both modes every answer
/// comes from what reached the referee. That includes windowed queries,
/// so their error includes the reporting staleness the run measures:
/// when the spec asks for them, reports carry [`LatestTs`] timestamps
/// (reconciled by `max`) and the referee answers with
/// [`RefereeOf::query_distinct_since`]; otherwise their payload is `()`.
pub fn run_sustained(config: &SketchConfig, master_seed: u64, spec: &ScenarioSpec) -> E2eReport {
    if spec.queries.window.is_some() {
        run_engine(config, master_seed, spec, LatestTs, |r, now, w| {
            r.query_distinct_since(now.saturating_sub(w).saturating_add(1))
                .value
        })
    } else {
        run_engine(config, master_seed, spec, |_| (), |_, _, _| 0.0)
    }
}

/// The sustained engine's tick loop, shared by both reporting modes, for
/// items stamped with `stamp(tick)` and windows answered by
/// `window(referee, now, width)`.
fn run_engine<V: WirePayload>(
    config: &SketchConfig,
    master_seed: u64,
    spec: &ScenarioSpec,
    stamp: fn(Tick) -> V,
    window: fn(&RefereeOf<V>, Tick, Tick) -> f64,
) -> E2eReport {
    let wall_start = Instant::now();
    let LoadShape {
        rate_per_party,
        duration,
        report_every,
        ref phases,
    } = spec.workload.load;
    let parties = spec.topology.parties;
    assert!(parties > 0, "need at least one party");
    let report_every = report_every.max(1);
    let query_every = spec.queries.every.max(1);
    let wants_queries = spec.queries.distinct
        || spec.queries.window.is_some()
        || !spec.queries.expressions.is_empty()
        || !spec.queries.jaccard.is_empty();

    let wl = spec.workload.to_workload_spec(parties);
    let mut plane = (spec.reporting == ReportingMode::DeltaPlane).then(|| DeltaPlane::new(spec));
    let mut ps: Vec<PartyRt<V>> = (0..parties)
        .map(|p| {
            let universe: Vec<u64> = wl.party_universe(p).collect();
            let zipf = match spec.workload.distribution {
                Distribution::Zipf(theta) if theta > 0.0 => {
                    Some(ZipfSampler::new(universe.len() as u64, theta))
                }
                _ => None,
            };
            PartyRt {
                party: DeltaParty::new(p, config, master_seed),
                rng: SmallRng::seed_from_u64(wl.seed ^ gt_hash::mix64(0x57EA_4000 + p as u64)),
                universe,
                zipf,
                each_once: spec.workload.distribution == Distribution::EachOnce,
                pending: VecDeque::new(),
                generated: 0,
                last_encoded_items: 0,
                last_encode: None,
                applied_emit_tick: None,
                needs_reemit: false,
                joined_at: 0,
                leave_at: None,
                graceful: false,
                sends: 0,
                snapshots: Vec::new(),
            }
        })
        .collect();
    for ev in &spec.faults.churn {
        assert!(ev.party < parties, "churn references party {}", ev.party);
        match ev.kind {
            ChurnKind::Join => ps[ev.party].joined_at = ev.at,
            ChurnKind::GracefulLeave | ChurnKind::Crash => {
                ps[ev.party].leave_at = Some(ev.at);
                ps[ev.party].graceful = ev.kind == ChurnKind::GracefulLeave;
            }
        }
    }

    let tspec = spec
        .faults
        .transport
        .unwrap_or_else(|| TransportSpec::reliable(wl.seed ^ 0x51AE));
    let mut transport = Transport::new(tspec);
    let mut referee: RefereeOf<V> = RefereeOf::new(config, master_seed);
    let mut ledger = Ledger::default();
    let mut seen_exact: HashSet<u64> = HashSet::new();
    let mut last_seen: HashMap<u64, Tick> = HashMap::new();
    let mut total_items = 0u64;
    let mut reports_sent = 0usize;
    let mut bytes_sent = 0u64;
    let mut gen_buf: Vec<(u64, V)> = Vec::new();
    let mut distinct_samples = Vec::new();
    let mut window_samples = Vec::new();
    let mut expression_samples = Vec::new();
    let mut jaccard_samples = Vec::new();

    for t in 1..=duration {
        // 1. Generation: every alive party draws its per-tick quota.
        for rt in ps.iter_mut() {
            if !rt.generating(t) {
                continue;
            }
            let n = (rate_per_party as f64 * multiplier_at(phases, t)).round() as u64;
            if n == 0 {
                continue;
            }
            gen_buf.clear();
            for _ in 0..n {
                let label = rt.draw();
                rt.generated += 1;
                gen_buf.push((label, stamp(t)));
            }
            rt.party.observe_batch(&gen_buf);
            for &(label, _) in &gen_buf {
                seen_exact.insert(label);
                if spec.queries.window.is_some() {
                    last_seen.insert(label, t);
                }
            }
            rt.pending.push_back((t, n));
            total_items += n;
        }

        // 2. Reporting: cadence ticks, parting reports at graceful
        // leaves, a final flush at the end of the run, and forced
        // re-emits after a resync.
        for rt in ps.iter_mut() {
            if !rt.can_send(t) {
                continue;
            }
            let parting = rt.leave_at == Some(t) && rt.graceful;
            if !(t % report_every == 0 || parting || t == duration) {
                continue;
            }
            if rt.generated == 0 || (rt.generated == rt.last_encoded_items && !rt.needs_reemit) {
                continue; // nothing new to report
            }
            let msg = encode_report(plane.is_some(), rt, t, &mut ledger);
            rt.sends += 1;
            reports_sent += 1;
            bytes_sent += msg.bytes() as u64;
            transport.send(msg);
        }

        // 3. Delivery: advance the clock, feed the referee, account
        // admission→queryable latency.
        let deliveries = transport.advance(t);
        if absorb(&mut plane, &deliveries, &mut referee, &mut ps, &mut ledger) {
            if let Some(plane) = &mut plane {
                plane.check_oracle(&referee, &ps);
            }
        }

        // 4. Live queries on the cadence.
        if wants_queries && t % query_every == 0 {
            if let Some(plane) = &mut plane {
                plane.track_staleness(&ps, t);
            }
            let expected = ps.iter().filter(|rt| rt.joined_at <= t).count();
            if spec.queries.distinct {
                let pe = referee.estimate_distinct_partial(expected);
                distinct_samples.push(DistinctSample {
                    at: t,
                    estimate: pe.estimate.value,
                    parties_heard: pe.parties_heard,
                    parties_expected: expected,
                    coverage: pe.coverage(),
                });
            }
            if let Some(w) = spec.queries.window {
                let estimate = window(&referee, t, w);
                let truth = last_seen
                    .values()
                    .filter(|&&ts| ts <= t && ts + w > t)
                    .count() as u64;
                window_samples.push(WindowSample {
                    at: t,
                    window: w,
                    estimate,
                    truth,
                });
            }
            for (i, expr) in spec.queries.expressions.iter().enumerate() {
                if let Ok(pe) = referee.query_partial(expr) {
                    expression_samples.push(ExpressionSample {
                        at: t,
                        query: i,
                        estimate: pe.estimate.estimate.value,
                        coverage: pe.coverage(),
                    });
                }
            }
            for (i, (e1, e2)) in spec.queries.jaccard.iter().enumerate() {
                if let Ok(pj) = referee.query_jaccard_partial(e1, e2) {
                    jaccard_samples.push(JaccardSample {
                        at: t,
                        pair: i,
                        jaccard: pj.estimate.jaccard,
                        coverage: pj.coverage(),
                    });
                }
            }
        }
    }

    // Final retransmit rounds: parties still up whose last report covers
    // unacked items resend it (or, after a resync, a fresh full frame).
    // The in-load report was each party's first attempt, so the budget
    // leaves `max_attempts − 1` rounds.
    let retry = spec.faults.retry;
    let mut state = (plane, referee, ps, ledger);
    let retry_rounds = retry.drive(
        retry.max_attempts.saturating_sub(1),
        &mut transport,
        &mut state,
        |(plane, _, ps, ledger), transport| {
            let mut sent = false;
            for rt in ps.iter_mut() {
                let unacked = (rt.needs_reemit && !rt.pending.is_empty())
                    || matches!(
                        (&rt.last_encode, rt.pending.front()),
                        (Some((enc, _)), Some(&(gen, _))) if gen <= *enc
                    );
                if rt.leave_at.is_some() || !unacked {
                    continue;
                }
                let msg = if rt.needs_reemit {
                    encode_report(plane.is_some(), rt, transport.now(), ledger)
                } else {
                    rt.last_encode.clone().expect("checked above").1
                };
                rt.sends += 1;
                bytes_sent += msg.bytes() as u64;
                transport.send(msg);
                sent = true;
            }
            sent
        },
        |(plane, referee, ps, ledger), deliveries| {
            absorb(plane, deliveries, referee, ps, ledger);
        },
    );
    let (plane, referee, ps, ledger) = state;

    let senders = ps.iter().filter(|rt| rt.sends > 0).count();
    let heard = (0..parties).filter(|&p| referee.has_heard(p)).count();
    let party_coverage = if senders == 0 {
        1.0
    } else {
        heard as f64 / senders as f64
    };
    let item_coverage = if total_items == 0 {
        1.0
    } else {
        ledger.items_acked as f64 / total_items as f64
    };
    let final_estimate = referee.estimate_distinct().value;
    let truth = seen_exact.len() as u64;

    E2eReport {
        name: spec.name.clone(),
        parties,
        duration,
        total_items,
        items_acked: ledger.items_acked,
        reports_sent,
        retry_rounds,
        latency: ledger.latency,
        party_coverage,
        item_coverage,
        final_estimate,
        truth,
        relative_error: gt_core::relative_error(final_estimate, truth as f64),
        distinct_samples,
        window_samples,
        expression_samples,
        jaccard_samples,
        transport: transport.telemetry(),
        referee: *referee.telemetry(),
        union_canonical: encode_sketch(referee.union_sketch()),
        bytes_sent,
        delta: plane.map(|plane| plane.finish(&referee, parties)),
        run_wall: wall_start.elapsed(),
    }
}

// ---------------------------------------------------------------------
// Named scenarios
// ---------------------------------------------------------------------

/// The six named end-to-end scenarios experiment `e23` runs. `quick`
/// shrinks durations for CI (each scenario well under 2 s); full mode
/// runs 10× longer with the same structure.
pub fn named_suite(quick: bool) -> Vec<ScenarioSpec> {
    vec![
        steady_state(quick),
        flash_crowd(quick),
        churn_failover(quick),
        multi_tenant_zipf(quick),
        lossy_fan_in(quick),
        windowed_recency(quick),
    ]
}

fn scale(quick: bool, base: Tick) -> Tick {
    if quick {
        base
    } else {
        base * 10
    }
}

/// 8 parties, uniform traffic, perfect channel: the baseline. Expected
/// coverage 1.0 exactly.
pub fn steady_state(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("steady_state")
        .parties(8)
        .distinct_per_party(4_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E01)
        .sustained(4, d, 20)
        .query_every(100)
        .query_distinct()
        .build()
}

/// Mid-run flash crowd: the per-party rate jumps 8× for a quarter of
/// the run, stressing summary cadence and latency tails.
pub fn flash_crowd(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("flash_crowd")
        .parties(8)
        .distinct_per_party(4_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E02)
        .sustained(3, d, 20)
        .phase(d / 2, d * 3 / 4, 8.0)
        .query_every(100)
        .query_distinct()
        .build()
}

/// Mid-run churn: one graceful leave (parting summary ships), one
/// crash (tail items lost), one late join.
pub fn churn_failover(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("churn_failover")
        .parties(8)
        .distinct_per_party(4_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E03)
        .sustained(4, d, 20)
        .graceful_leave(2, d * 3 / 8)
        .crash(3, d / 2)
        .join(7, d / 2)
        .query_every(100)
        .query_distinct()
        .build()
}

/// 16 tenants with Zipf(1.1) skew: heavy duplication per tenant, the
/// regime where distinct counting diverges from counting.
pub fn multi_tenant_zipf(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 300);
    ScenarioSpec::builder("multi_tenant_zipf")
        .parties(16)
        .distinct_per_party(2_000)
        .overlap(0.2)
        .distribution(Distribution::Zipf(1.1))
        .workload_seed(0x000E_2E04)
        .sustained(3, d, 25)
        .query_every(100)
        .query_distinct()
        .build()
}

/// 32-party fan-in over a 5%-drop channel with stragglers and a retry
/// budget of 8 — the ISSUE's network-monitoring headline shape.
pub fn lossy_fan_in(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 300);
    ScenarioSpec::builder("lossy_fan_in")
        .parties(32)
        .distinct_per_party(2_000)
        .overlap(0.25)
        .workload_seed(0x000E_2E05)
        .sustained(2, d, 25)
        .transport(TransportSpec {
            drop_probability: 0.05,
            corrupt_probability: 0.01,
            base_latency: 2,
            jitter: 3,
            straggle_probability: 0.05,
            straggle_latency: 40,
            seed: 0x000E_2E05,
        })
        .retry(RetryPolicy::with_budget(8))
        .query_every(100)
        .query_distinct()
        .build()
}

/// Sliding-window recency queries over sustained traffic, scored
/// against the engine's exact recency oracle.
pub fn windowed_recency(quick: bool) -> ScenarioSpec {
    let d = scale(quick, 400);
    ScenarioSpec::builder("windowed_recency")
        .parties(6)
        .distinct_per_party(3_000)
        .overlap(0.3)
        .workload_seed(0x000E_2E06)
        .sustained(4, d, 20)
        .query_every(50)
        .query_distinct()
        .query_window(100)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn small_sustained() -> ScenarioSpec {
        ScenarioSpec::builder("small")
            .parties(4)
            .distinct_per_party(500)
            .overlap(0.25)
            .workload_seed(7)
            .sustained(3, 60, 10)
            .query_every(20)
            .query_distinct()
            .build()
    }

    #[test]
    fn sustained_reliable_run_acks_everything() {
        let report = run_sustained(&cfg(), 42, &small_sustained());
        assert_eq!(report.parties, 4);
        assert_eq!(report.duration, 60);
        assert_eq!(report.total_items, 4 * 3 * 60);
        assert_eq!(report.items_acked, report.total_items);
        assert_eq!(report.item_coverage, 1.0);
        assert_eq!(report.party_coverage, 1.0);
        assert!(report.reports_sent >= 4 * 6, "cumulative summary cadence");
        assert_eq!(report.retry_rounds, 0, "reliable channel needs no retries");
        assert_eq!(report.latency.count(), report.total_items);
        // Unit latency, report cadence 10: worst case an item waits 9
        // ticks for the next summary + 1 tick of transport.
        assert!(report.latency.p50() <= 10, "p50 {}", report.latency.p50());
        assert!(report.latency.max() <= 10, "max {}", report.latency.max());
        assert!(report.latency.p50() <= report.latency.p99());
        assert!(report.latency.p99() <= report.latency.p999());
        assert!(!report.distinct_samples.is_empty());
        let last = report.distinct_samples.last().unwrap();
        assert_eq!(last.parties_expected, 4);
        assert!(report.truth > 0);
        assert!(
            report.relative_error < 0.1,
            "err {} (estimate {} truth {})",
            report.relative_error,
            report.final_estimate,
            report.truth
        );
        assert!(!report.union_canonical.is_empty());
        let mut delta_readings = 0;
        report.visit(&mut |name, _| delta_readings += usize::from(name.starts_with("gt_delta_")));
        assert_eq!(delta_readings, 0, "a full-ship run exposes no delta block");
    }

    #[test]
    fn sustained_run_is_deterministic() {
        let a = run_sustained(&cfg(), 42, &small_sustained());
        let b = run_sustained(&cfg(), 42, &small_sustained());
        assert_eq!(a.determinism_key(), b.determinism_key());
        let c = run_sustained(&cfg(), 43, &small_sustained());
        assert_ne!(
            a.determinism_key().union_canonical,
            c.determinism_key().union_canonical,
            "different master seed must change the union bytes"
        );
    }

    #[test]
    fn flash_crowd_phase_multiplies_rate() {
        let base = ScenarioSpec::builder("base")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(3)
            .sustained(2, 40, 10)
            .build();
        let crowd = ScenarioSpec::builder("crowd")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(3)
            .sustained(2, 40, 10)
            .phase(20, 30, 5.0)
            .build();
        let r_base = run_sustained(&cfg(), 1, &base);
        let r_crowd = run_sustained(&cfg(), 1, &crowd);
        // 10 ticks at 5x instead of 1x: 2 parties * 2 rate * 10 * 4 extra.
        assert_eq!(r_base.total_items, 2 * 2 * 40);
        assert_eq!(r_crowd.total_items, r_base.total_items + 2 * 2 * 10 * 4);
        assert_eq!(r_crowd.item_coverage, 1.0);
    }

    #[test]
    fn churn_crash_loses_tail_items_exactly_once() {
        // Party 1 crashes mid-run right after a report tick: items it
        // generated after its last summary can never be acked, and its
        // last acked summary still counts exactly once.
        let spec = ScenarioSpec::builder("crash")
            .parties(2)
            .distinct_per_party(400)
            .workload_seed(9)
            .sustained(2, 40, 10)
            .crash(1, 35)
            .query_every(10)
            .query_distinct()
            .build();
        let report = run_sustained(&cfg(), 5, &spec);
        // Party 1 generated through tick 34; its last summary covered
        // through tick 30, so ticks 31..=34 (2 items each) are lost.
        assert_eq!(report.total_items, 2 * 2 * 40 - 2 * 6);
        assert_eq!(report.items_acked, report.total_items - 2 * 4);
        assert!(report.item_coverage < 1.0);
        assert_eq!(report.party_coverage, 1.0, "the crashed party was heard");
        let t = report.referee;
        assert_eq!(t.accepted, 2, "each party counted exactly once");
    }

    #[test]
    fn churn_join_starts_late() {
        let spec = ScenarioSpec::builder("join")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(11)
            .sustained(2, 40, 10)
            .join(1, 21)
            .build();
        let report = run_sustained(&cfg(), 5, &spec);
        // Party 0: 40 ticks; party 1: ticks 21..=40 only.
        assert_eq!(report.total_items, 2 * 40 + 2 * 20);
        assert_eq!(report.item_coverage, 1.0);
    }

    #[test]
    fn graceful_leave_ships_parting_summary() {
        // Leave at a tick that is NOT on the report cadence: without the
        // parting summary the tail would be lost.
        let spec = ScenarioSpec::builder("leave")
            .parties(2)
            .distinct_per_party(300)
            .workload_seed(13)
            .sustained(2, 40, 10)
            .graceful_leave(1, 27)
            .build();
        let report = run_sustained(&cfg(), 5, &spec);
        // Party 1 generates ticks 1..=26 and flushes at 27.
        assert_eq!(report.total_items, 2 * 40 + 2 * 26);
        assert_eq!(report.item_coverage, 1.0, "parting summary covers the tail");
    }

    #[test]
    fn lossy_channel_retries_recover_coverage() {
        let lossy = TransportSpec {
            jitter: 0,
            straggle_probability: 0.0,
            ..TransportSpec::lossy(0.4, 0x1055)
        };
        let build = |retry: RetryPolicy| {
            ScenarioSpec::builder("lossy")
                .parties(6)
                .distinct_per_party(400)
                .workload_seed(17)
                .sustained(2, 60, 15)
                .transport(lossy)
                .retry(retry)
                .build()
        };
        let one_shot = run_sustained(&cfg(), 3, &build(RetryPolicy::one_shot()));
        let retried = run_sustained(&cfg(), 3, &build(RetryPolicy::with_budget(8)));
        assert!(one_shot.transport.dropped > 0, "p=0.4 must drop summaries");
        assert!(
            retried.item_coverage >= one_shot.item_coverage,
            "retries cannot reduce coverage"
        );
        assert_eq!(
            retried.item_coverage, 1.0,
            "budget 8 at p=0.4 recovers the final summaries"
        );
        assert!(retried.retry_rounds > 0 || one_shot.item_coverage == 1.0);
    }

    #[test]
    fn window_queries_track_the_exact_recency_oracle() {
        let spec = ScenarioSpec::builder("window")
            .parties(3)
            .distinct_per_party(500)
            .workload_seed(19)
            .sustained(4, 80, 10)
            .query_every(20)
            .query_window(30)
            .build();
        let report = run_sustained(&cfg(), 7, &spec);
        assert!(!report.window_samples.is_empty());
        for s in &report.window_samples {
            assert_eq!(s.window, 30);
            assert!(s.truth > 0, "traffic flowed in every window");
            let err = (s.estimate - s.truth as f64).abs() / s.truth as f64;
            assert!(
                err < 0.25,
                "tick {}: est {} truth {}",
                s.at,
                s.estimate,
                s.truth
            );
        }
    }

    #[test]
    fn expression_and_jaccard_samples_report_coverage() {
        let spec = ScenarioSpec::builder("expr")
            .parties(3)
            .distinct_per_party(400)
            .overlap(0.5)
            .workload_seed(23)
            .sustained(3, 60, 10)
            .query_every(30)
            .query_expr(SetExpr::leaf(0).union(SetExpr::leaf(1)))
            .query_jaccard(SetExpr::leaf(0), SetExpr::leaf(2))
            .build();
        let report = run_sustained(&cfg(), 9, &spec);
        assert!(!report.expression_samples.is_empty());
        assert!(!report.jaccard_samples.is_empty());
        let last_e = report.expression_samples.last().unwrap();
        assert_eq!(last_e.coverage, 1.0);
        assert!(last_e.estimate > 0.0);
        let last_j = report.jaccard_samples.last().unwrap();
        assert_eq!(last_j.coverage, 1.0);
        assert!(last_j.jaccard > 0.0 && last_j.jaccard < 1.0);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.p50(), 0);
        h.record(1, 50);
        h.record(2, 49);
        h.record(100, 1);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 2);
        assert_eq!(h.p999(), 100);
        assert_eq!(h.max(), 100);
        assert!(h.mean() > 1.0 && h.mean() < 3.0);
        // Clamp: huge latencies land in the overflow bucket.
        h.record(1 << 40, 1);
        assert_eq!(h.max(), 1 << 40);
        assert_eq!(h.quantile(1.0), LATENCY_CLAMP);
    }

    #[test]
    fn named_suite_has_six_distinct_scenarios() {
        let suite = named_suite(true);
        assert_eq!(suite.len(), 6);
        let mut names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "scenario names must be unique");
        for spec in &suite {
            assert!(spec.queries.distinct, "every scenario samples distinct");
        }
    }

    #[test]
    #[should_panic(expected = "churn event references party")]
    fn churn_out_of_range_panics() {
        let _ = ScenarioSpec::builder("bad").parties(2).crash(5, 10).build();
    }

    // ---- delta plane ----

    fn delta_spec() -> ScenarioSpec {
        ScenarioSpec::builder("delta_small")
            .parties(4)
            .distinct_per_party(500)
            .overlap(0.25)
            .workload_seed(7)
            .sustained(3, 60, 10)
            .query_every(20)
            .query_distinct()
            .delta_plane()
            .build()
    }

    #[test]
    fn delta_plane_matches_full_reship_union_and_cuts_bytes() {
        let full = run_sustained(&cfg(), 42, &small_sustained());
        let delta = run_sustained(&cfg(), 42, &delta_spec());
        // Same workload seed, both at full coverage: the final unions
        // hold the same samples at the same levels, so the estimates are
        // bit-for-bit equal. (Canonical bytes differ only in per-trial
        // item counters: full re-ship absorb-merges every cumulative
        // re-ship while the delta plane stays exactly-once; the engine's
        // built-in oracle covers the bitwise claim against a fresh ship.)
        assert_eq!(delta.item_coverage, 1.0);
        assert_eq!(
            delta.final_estimate.to_bits(),
            full.final_estimate.to_bits()
        );
        assert_eq!(delta.truth, full.truth);
        let d = delta.delta.as_ref().expect("delta engine reports stats");
        assert_eq!(d.oracle_failures, 0);
        assert!(d.oracle_checks > 0, "the oracle must actually run");
        assert_eq!(d.resyncs, 0, "reliable channel never resyncs");
        assert_eq!(d.full_frames, 4, "one initial full frame per party");
        assert!(d.delta_frames > 0);
        // The communication claim, in miniature: shipping deltas beats
        // re-shipping cumulative summaries on the same traffic.
        assert!(
            delta.bytes_sent < full.bytes_sent,
            "delta {} full {}",
            delta.bytes_sent,
            full.bytes_sent
        );
    }

    #[test]
    fn delta_plane_is_deterministic_under_faults() {
        let spec = ScenarioSpec::builder("delta_faulty")
            .parties(4)
            .distinct_per_party(400)
            .overlap(0.2)
            .workload_seed(11)
            .sustained(3, 80, 10)
            .transport(TransportSpec::lossy(0.2, 0xFA17))
            .retry(RetryPolicy {
                ack_drop_probability: 0.2,
                ..RetryPolicy::with_budget(6)
            })
            .query_every(20)
            .query_distinct()
            .delta_plane()
            .build();
        let a = run_sustained(&cfg(), 42, &spec);
        let b = run_sustained(&cfg(), 42, &spec);
        assert_eq!(a.determinism_key(), b.determinism_key());
        let d = a.delta.as_ref().unwrap();
        assert_eq!(d.oracle_failures, 0, "dup/reorder/loss must not corrupt");
        assert!(d.acks_sent > 0);
    }

    #[test]
    fn delta_plane_windowed_queries_answer_from_the_referee() {
        // Under-capacity and cadence-aligned: at every query tick the
        // referee has just applied fresh reports, so the distributed
        // window answer is exact in both reporting modes.
        let spec = ScenarioSpec::builder("delta_window")
            .parties(2)
            .distinct_per_party(150)
            .overlap(0.0)
            .distribution(Distribution::EachOnce)
            .workload_seed(3)
            .sustained(5, 40, 4)
            .query_every(4)
            .query_window(8)
            .build();
        for reporting in [ReportingMode::FullReship, ReportingMode::DeltaPlane] {
            let spec = ScenarioSpec {
                reporting,
                ..spec.clone()
            };
            let report = run_sustained(&cfg(), 42, &spec);
            assert!(!report.window_samples.is_empty());
            for s in &report.window_samples {
                assert_eq!(
                    s.estimate, s.truth as f64,
                    "{reporting:?}: window at {} estimate {} truth {}",
                    s.at, s.estimate, s.truth
                );
            }
            if reporting == ReportingMode::DeltaPlane {
                let d = report.delta.as_ref().unwrap();
                assert_eq!(d.oracle_failures, 0);
                assert_eq!(d.staleness_max, 0, "cadence-aligned queries are fresh");
            }
        }
    }
}
