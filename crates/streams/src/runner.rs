//! The batch runs: every party's whole stream exists up front, as in
//! the paper's one-shot model.
//!
//! * [`run_batch`] — one OS thread per party, each observing its stream
//!   and shipping one end-of-stream message; the referee unions the
//!   messages pipelined on the caller's thread, then answers the distinct
//!   count and any set-expression and Jaccard queries, each scored
//!   against the exact oracle.
//! * [`run_live`] — one writer thread per stream ingesting into a shared
//!   [`gt_core::ConcurrentSketch`] while the caller's thread serves
//!   distinct-count queries from snapshots.
//!
//! Runs that unfold over time (sustained load, churn, faulty channels,
//! the delta plane) go through [`crate::scenario::run_sustained`]
//! instead. `tests/scenario_regression.rs` pins both batch runs bitwise
//! to a hand-rolled party→referee pipeline.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gt_core::metrics::Exposition;
use gt_core::{SetExpr, SketchConfig};

use crate::oracle::StreamOracle;
use crate::party::{Party, PartyMessage};
use crate::referee::{Referee, RefereeTelemetry};
use crate::workload::StreamSet;

/// One party's own phase timings, measured on its thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartyPhases {
    /// Time feeding the stream into the sketch.
    pub observe: Duration,
    /// Time encoding the end-of-stream message.
    pub encode: Duration,
}

/// Everything measured in one [`run_batch`].
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// The sketch estimate of the union's distinct count.
    pub estimate: f64,
    /// Exact distinct count of the union.
    pub truth: u64,
    /// `|estimate − truth| / truth` (0 when both are 0).
    pub relative_error: f64,
    /// Number of parties.
    pub parties: usize,
    /// Total items across streams.
    pub total_items: u64,
    /// Bytes each party transmitted.
    pub bytes_per_party: Vec<usize>,
    /// Total communication (referee bytes received).
    pub total_bytes: usize,
    /// Per-party observe/encode timings (index = party id) — what each
    /// party actually spent, as opposed to the wall clock of the phase.
    pub party_phases: Vec<PartyPhases>,
    /// Wall time of the pipelined observe-and-merge phase (slowest party
    /// plus thread overhead plus any referee work trailing the last
    /// message).
    pub observe_wall: Duration,
    /// Referee telemetry: decode outcomes and decode/merge phase timings.
    pub referee_telemetry: RefereeTelemetry,
    /// Observability counters of the referee's union sketch.
    pub union_metrics: gt_core::MetricsSnapshot,
    /// Referee busy time: accumulated decode + union across messages plus
    /// the final estimate. Overlaps `observe_wall` (the referee merges
    /// while parties still observe), so it is not additive with it.
    pub referee_time: Duration,
    /// One outcome per requested set expression, in request order
    /// (empty when none was asked).
    pub queries: Vec<ExpressionQueryOutcome>,
    /// One outcome per requested Jaccard pair, in request order (empty
    /// when none was asked).
    pub jaccard_queries: Vec<JaccardQueryOutcome>,
}

impl BatchReport {
    /// Items per second across all parties during observation.
    pub fn throughput(&self) -> f64 {
        let secs = self.observe_wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.total_items as f64 / secs
        }
    }
}

impl Exposition for BatchReport {
    fn visit(&self, f: &mut dyn FnMut(&str, f64)) {
        gt_core::expose!(f, "gt_run_", self; estimate, truth, relative_error, parties, total_items,
            total_bytes);
        for (i, &b) in self.bytes_per_party.iter().enumerate() {
            f(&format!("gt_run_bytes_per_party_{i}"), b as f64);
        }
        for (i, p) in self.party_phases.iter().enumerate() {
            let observe = p.observe.as_secs_f64();
            f(&format!("gt_run_party_phases_observe_seconds_{i}"), observe);
            let encode = p.encode.as_secs_f64();
            f(&format!("gt_run_party_phases_encode_seconds_{i}"), encode);
        }
        f(
            "gt_run_observe_wall_seconds",
            self.observe_wall.as_secs_f64(),
        );
        self.referee_telemetry.visit(f);
        self.union_metrics.visit(f);
        f(
            "gt_run_referee_time_seconds",
            self.referee_time.as_secs_f64(),
        );
        for (i, q) in self.queries.iter().enumerate() {
            let estimate = q.answer.estimate.value;
            f(&format!("gt_run_queries_estimate_{i}"), estimate);
            f(&format!("gt_run_queries_truth_{i}"), q.truth as f64);
            f(&format!("gt_run_queries_scaled_error_{i}"), q.scaled_error);
        }
        for (i, q) in self.jaccard_queries.iter().enumerate() {
            let estimate = q.answer.jaccard;
            f(&format!("gt_run_jaccard_queries_estimate_{i}"), estimate);
            f(&format!("gt_run_jaccard_queries_truth_{i}"), q.truth);
            f(
                &format!("gt_run_jaccard_queries_abs_error_{i}"),
                q.abs_error,
            );
        }
    }
}

/// One set-expression query answered by the referee, scored against the
/// exact oracle.
#[derive(Clone, Debug)]
pub struct ExpressionQueryOutcome {
    /// The expression, rendered (leaves are party ids, e.g. `(s0 ∪ s1)`).
    pub expr: String,
    /// Nesting depth of the expression tree (a leaf has depth 1).
    pub depth: usize,
    /// The referee's answer: point estimate, per-trial variance, CI.
    pub answer: gt_core::ExpressionEstimate,
    /// Exact cardinality of the expression over the true streams.
    pub truth: u64,
    /// `|estimate − truth| / (ε · |union of referenced streams|)` — the
    /// additive error contract's yardstick; ≤ 1 means within contract.
    /// 0 when the referenced union is empty.
    pub scaled_error: f64,
}

/// One Jaccard query between two set expressions, scored against the
/// exact oracle.
#[derive(Clone, Debug)]
pub struct JaccardQueryOutcome {
    /// The two expressions, rendered.
    pub exprs: (String, String),
    /// The referee's answer.
    pub answer: gt_core::JaccardEstimate,
    /// Exact Jaccard similarity over the true streams (0 when the true
    /// union is empty, matching the engine's convention).
    pub truth: f64,
    /// `|estimate − truth|`.
    pub abs_error: f64,
}

/// One mid-stream query answered while writers were still ingesting.
#[derive(Clone, Copy, Debug)]
pub struct LiveQuerySample {
    /// Propagation epoch of the snapshot that served the query.
    pub epoch: u64,
    /// Items (duplicates included) covered by the snapshot's
    /// prefix-union.
    pub items_covered: u64,
    /// The snapshot's `(ε, δ)` distinct estimate — the contract covers
    /// the prefix-union's cardinality, not the final answer.
    pub estimate: f64,
    /// `items_covered` as a fraction of the full workload's items: the
    /// live-serving analogue of [`crate::referee::PartialEstimate`]'s
    /// coverage.
    pub coverage: f64,
}

/// Everything measured in one [`run_live`]: writers ingest
/// concurrently through a [`gt_core::ConcurrentSketch`] while the
/// caller's thread answers distinct-count queries from snapshots.
#[derive(Clone, Debug)]
pub struct LiveQueryReport {
    /// Queries answered from a fresh epoch, in observation order (always
    /// ends with the final, complete epoch).
    pub samples: Vec<LiveQuerySample>,
    /// Total snapshot polls taken, including ones that saw no new epoch.
    pub snapshots_taken: u64,
    /// True iff every consecutive snapshot pair was monotone in epoch
    /// and covered items (the protocol guarantees this; experiments gate
    /// on it).
    pub monotone: bool,
    /// Estimate from the final snapshot, after every writer flushed.
    pub final_estimate: f64,
    /// Exact distinct count of the union of all streams.
    pub truth: u64,
    /// `|final_estimate − truth| / truth` (0 when both are 0).
    pub relative_error: f64,
    /// Epoch of the final snapshot.
    pub final_epoch: u64,
    /// Number of writer threads (one per stream).
    pub parties: usize,
    /// Total items across streams.
    pub total_items: u64,
    /// Wall time of the whole ingest-and-serve phase.
    pub observe_wall: Duration,
    /// Concurrent-path counters: propagation cadence by cause, snapshot
    /// traffic, folded writer-side sketch counters.
    pub concurrent_metrics: gt_core::ConcurrentMetricsSnapshot,
}

impl LiveQueryReport {
    /// Items per second across all writers during the ingest phase.
    pub fn throughput(&self) -> f64 {
        let secs = self.observe_wall.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.total_items as f64 / secs
        }
    }
}

/// Observe one party's whole stream and encode its end-of-stream
/// message, timing both phases.
fn observe_party(
    id: usize,
    config: &SketchConfig,
    master_seed: u64,
    stream: &[u64],
) -> (PartyMessage, PartyPhases) {
    let mut party = Party::new(id, config, master_seed);
    let observe_start = Instant::now();
    party.observe_stream(stream);
    let observe = observe_start.elapsed();
    let encode_start = Instant::now();
    let msg = party.finish();
    let encode = encode_start.elapsed();
    (msg, PartyPhases { observe, encode })
}

/// Run the paper's one-shot model: one thread per party observes its
/// stream and ships one message, and the referee on this thread unions
/// the messages as they arrive. It then answers the distinct count and
/// every set-expression and Jaccard query.
///
/// Leaves of the query expressions are **party ids**, i.e. indices into
/// `streams.streams`. Every answer is scored against the exact oracle
/// ([`SetExpr::eval_exact`] over the raw streams); the exact per-party
/// sets are built only when a query is asked. Answers come from the
/// referee's retained per-party summaries, which do not depend on thread
/// scheduling.
///
/// ```
/// use gt_core::SketchConfig;
/// use gt_streams::{run_batch, Distribution, WorkloadSpec};
/// let spec = WorkloadSpec {
///     parties: 4,
///     distinct_per_party: 2_000,
///     overlap: 0.5,
///     items_per_party: 6_000,
///     distribution: Distribution::Uniform,
///     seed: 1,
/// };
/// let config = SketchConfig::new(0.1, 0.05).unwrap();
/// let report = run_batch(&config, 99, &spec.generate(), &[], &[]);
/// assert!(report.relative_error < 0.1);
/// assert_eq!(report.bytes_per_party.len(), 4);
/// ```
///
/// # Panics
/// Panics if a party thread panics, the referee rejects a message, or a
/// query references a party outside the stream set (all wiring or
/// caller bugs).
pub fn run_batch(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    expressions: &[SetExpr],
    jaccard: &[(SetExpr, SetExpr)],
) -> BatchReport {
    let t = streams.streams.len();
    assert!(t > 0, "need at least one party");

    let observe_start = Instant::now();
    let mut referee = Referee::new(config, master_seed);
    let mut bytes_per_party = vec![0usize; t];
    let mut party_phases = vec![PartyPhases::default(); t];
    let mut referee_busy = Duration::ZERO;
    let (tx, rx) = crossbeam::channel::unbounded::<(PartyMessage, PartyPhases)>();
    crossbeam::scope(|scope| {
        for (id, stream) in streams.streams.iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move |_| {
                tx.send(observe_party(id, config, master_seed, stream))
                    .expect("referee hung up");
            });
        }
        drop(tx);
        // Referee loop, pipelined: runs on this thread while party
        // threads are still observing; exits when every sender is done.
        // Messages that queued up while the referee was busy are drained
        // into one batch, which the referee receives message by message,
        // in order.
        let mut batch: Vec<PartyMessage> = Vec::with_capacity(t);
        while let Ok((msg, phases)) = rx.recv() {
            let busy_start = Instant::now();
            batch.clear();
            bytes_per_party[msg.party_id] = msg.bytes();
            party_phases[msg.party_id] = phases;
            batch.push(msg);
            while let Ok((msg, phases)) = rx.try_recv() {
                bytes_per_party[msg.party_id] = msg.bytes();
                party_phases[msg.party_id] = phases;
                batch.push(msg);
            }
            for outcome in referee.receive_batch(&batch) {
                outcome.expect("coordinated message must decode");
            }
            referee_busy += busy_start.elapsed();
        }
    })
    .expect("party thread panicked");
    let observe_wall = observe_start.elapsed();

    let estimate_start = Instant::now();
    let estimate = referee.estimate_distinct().value;
    let referee_time = referee_busy + estimate_start.elapsed();

    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.distinct();

    let sets: Vec<HashSet<u64>> = if expressions.is_empty() && jaccard.is_empty() {
        Vec::new()
    } else {
        streams
            .streams
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect()
    };
    let queries = expressions
        .iter()
        .map(|expr| {
            let answer = referee.query(expr).expect("query references heard parties");
            let truth = expr
                .eval_exact(&sets)
                .expect("oracle shares the leaves")
                .len() as u64;
            // Union of every referenced stream: the additive contract's scale.
            let mut referenced: HashSet<u64> = HashSet::new();
            expr.for_each_leaf(&mut |i| referenced.extend(&sets[i]));
            let scale = config.epsilon() * referenced.len() as f64;
            let scaled_error = if scale == 0.0 {
                0.0
            } else {
                (answer.estimate.value - truth as f64).abs() / scale
            };
            ExpressionQueryOutcome {
                expr: expr.to_string(),
                depth: expr.depth(),
                answer,
                truth,
                scaled_error,
            }
        })
        .collect();
    let jaccard_queries = jaccard
        .iter()
        .map(|(e1, e2)| {
            let answer = referee
                .query_jaccard(e1, e2)
                .expect("query references heard parties");
            let s1 = e1.eval_exact(&sets).expect("oracle shares the leaves");
            let s2 = e2.eval_exact(&sets).expect("oracle shares the leaves");
            let union = s1.union(&s2).count();
            let truth = if union == 0 {
                0.0
            } else {
                s1.intersection(&s2).count() as f64 / union as f64
            };
            JaccardQueryOutcome {
                exprs: (e1.to_string(), e2.to_string()),
                abs_error: (answer.jaccard - truth).abs(),
                answer,
                truth,
            }
        })
        .collect();

    BatchReport {
        estimate,
        truth,
        relative_error: gt_core::relative_error(estimate, truth as f64),
        parties: t,
        total_items: streams.total_items(),
        total_bytes: bytes_per_party.iter().sum(),
        bytes_per_party,
        party_phases,
        observe_wall,
        referee_telemetry: *referee.telemetry(),
        union_metrics: referee.union_metrics(),
        referee_time,
        queries,
        jaccard_queries,
    }
}

/// Run the live-query path: one writer thread per stream ingests into a
/// shared [`gt_core::ConcurrentSketch`] (each writer propagating its
/// thread-local buffer every `writer_threshold` items or on level lag),
/// while this thread serves `estimate_distinct` queries from published
/// snapshots the whole time.
///
/// Unlike [`run_batch`] there is no end-of-stream message: queries never
/// block writers, every answered query is an `(ε, δ)` estimate of the
/// prefix-union its epoch covers, and once all writers finish the final
/// snapshot is bitwise-identical (canonical encoding) to a sequential
/// sketch of the full multiset.
///
/// # Panics
/// Panics if a writer thread panics.
pub fn run_live(
    config: &SketchConfig,
    master_seed: u64,
    streams: &StreamSet,
    writer_threshold: u64,
) -> LiveQueryReport {
    let t = streams.streams.len();
    assert!(t > 0, "need at least one writer");
    let total_items = streams.total_items();

    let shared = gt_core::ConcurrentSketch::new(config, master_seed);
    let writers_done = AtomicUsize::new(0);
    let mut samples: Vec<LiveQuerySample> = Vec::new();
    let mut snapshots_taken = 0u64;
    let mut monotone = true;

    let observe_start = Instant::now();
    crossbeam::scope(|scope| {
        for stream in &streams.streams {
            let shared = &shared;
            let writers_done = &writers_done;
            scope.spawn(move |_| {
                let mut writer = shared.writer_with_threshold(writer_threshold);
                writer.extend_slice(stream);
                drop(writer); // flush the tail before reporting done
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        // Query loop on this thread: serve estimates from snapshots while
        // writers run. Samples are recorded per *new epoch*; monotonicity
        // is tracked across every poll (count/ordering property, no
        // timing assumptions).
        let mut last_epoch = 0u64;
        let mut last_items = 0u64;
        loop {
            let done = writers_done.load(Ordering::Acquire) >= t;
            let snap = shared.snapshot();
            snapshots_taken += 1;
            if snap.epoch() < last_epoch || snap.items_observed() < last_items {
                monotone = false;
            }
            if snap.epoch() != last_epoch || (done && samples.is_empty()) {
                samples.push(LiveQuerySample {
                    epoch: snap.epoch(),
                    items_covered: snap.items_observed(),
                    estimate: snap.estimate_distinct().value,
                    coverage: if total_items == 0 {
                        1.0
                    } else {
                        snap.items_observed() as f64 / total_items as f64
                    },
                });
            }
            last_epoch = snap.epoch();
            last_items = snap.items_observed();
            if done {
                break;
            }
            std::thread::yield_now();
        }
    })
    .expect("writer thread panicked");
    let observe_wall = observe_start.elapsed();

    let final_snap = shared.snapshot();
    let final_estimate = final_snap.estimate_distinct().value;
    let oracle = StreamOracle::of_streams(streams.streams.iter().map(|s| s.as_slice()));
    let truth = oracle.distinct();

    LiveQueryReport {
        samples,
        snapshots_taken,
        monotone,
        final_estimate,
        truth,
        relative_error: gt_core::relative_error(final_estimate, truth as f64),
        final_epoch: final_snap.epoch(),
        parties: t,
        total_items,
        observe_wall,
        concurrent_metrics: shared.metrics_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Distribution, WorkloadSpec};

    #[test]
    fn batch_report_carries_accounting_phase_timings_and_telemetry() {
        let spec = WorkloadSpec {
            parties: 4,
            distinct_per_party: 3_000,
            overlap: 0.4,
            items_per_party: 10_000,
            distribution: Distribution::Uniform,
            seed: 14,
        };
        let streams = spec.generate();
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        let report = run_batch(&config, 21, &streams, &[], &[]);
        assert_eq!(report.parties, 4);
        assert_eq!(report.total_items, 4 * 10_000);
        assert!(report.relative_error < 0.1, "err {}", report.relative_error);
        assert_eq!(report.bytes_per_party.len(), 4);
        assert!(report.bytes_per_party.iter().all(|&b| b > 0));
        assert_eq!(
            report.total_bytes,
            report.bytes_per_party.iter().sum::<usize>()
        );
        assert!(report.throughput() > 0.0);
        assert!(report.queries.is_empty() && report.jaccard_queries.is_empty());
        // Per-party phases were populated for every party. Phase
        // *ordering* invariants only — strict `> Duration::ZERO` checks
        // are flaky on platforms whose monotonic clock is coarser than a
        // fast decode, so positivity is not asserted here (counts below
        // prove the stages ran).
        assert_eq!(report.party_phases.len(), 4);
        let wall = report.observe_wall;
        assert!(report
            .party_phases
            .iter()
            .all(|p| p.observe <= wall && p.encode <= wall));
        // Referee telemetry accounts for every message, by stage.
        let t = report.referee_telemetry;
        assert_eq!(t.accepted, 4);
        assert_eq!(t.rejected(), 0);
        assert_eq!(t.duplicates(), 0);
        assert_eq!(t.attempts(), 4);
        assert!(t.decode_time + t.merge_time <= report.referee_time);
        // Batched referee: one union merge per accepted message, at most
        // one batch per message, and the histogram accounts for every
        // batch.
        assert!(t.batches >= 1 && t.batches <= 4, "batches {}", t.batches);
        assert_eq!(t.summaries_per_batch.iter().sum::<usize>(), t.batches);
        assert_eq!(report.union_metrics.merge_calls, t.accepted as u64);
        assert!(report.union_metrics.merge_entries_absorbed > 0);
    }

    #[test]
    fn single_party_batch_is_exact_under_capacity() {
        let spec = WorkloadSpec {
            parties: 1,
            distinct_per_party: 1_000,
            overlap: 0.0,
            items_per_party: 2_000,
            distribution: Distribution::Uniform,
            seed: 12,
        };
        let streams = spec.generate();
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        let report = run_batch(&config, 5, &streams, &[], &[]);
        assert_eq!(report.relative_error, 0.0);
        assert_eq!(report.estimate, report.truth as f64);
    }

    #[test]
    fn batch_expression_queries_answer_within_contract() {
        let spec = WorkloadSpec {
            parties: 4,
            distinct_per_party: 8_000,
            overlap: 0.5,
            items_per_party: 16_000,
            distribution: Distribution::Uniform,
            seed: 41,
        };
        let streams = spec.generate();
        let config = SketchConfig::new(0.1, 0.05).unwrap();
        let (a, b, c, d) = (
            SetExpr::leaf(0),
            SetExpr::leaf(1),
            SetExpr::leaf(2),
            SetExpr::leaf(3),
        );
        let queries = [
            a.clone().union(b.clone()),
            a.clone().union(b.clone()).intersect(c.clone()),
            a.clone()
                .union(b.clone())
                .intersect(c.clone())
                .difference(d.clone()),
        ];
        let jaccard = [(a.clone().union(b.clone()), c.clone().difference(a.clone()))];
        let report = run_batch(&config, 61, &streams, &queries, &jaccard);

        assert_eq!(report.parties, 4);
        assert!(report.relative_error < 0.1, "err {}", report.relative_error);
        assert_eq!(report.queries.len(), 3);
        assert_eq!(report.queries[0].depth, 2);
        assert_eq!(report.queries[2].depth, 4);
        for q in &report.queries {
            // Additive contract with slack for the intersection queries
            // (differences of coordinated estimates compound the bound).
            assert!(
                q.scaled_error <= 3.0,
                "{} scaled error {}",
                q.expr,
                q.scaled_error
            );
            assert!(q.answer.ci_lower() <= q.answer.ci_upper());
        }
        assert_eq!(report.jaccard_queries.len(), 1);
        let j = &report.jaccard_queries[0];
        assert!(j.truth > 0.0 && j.truth < 1.0, "truth {}", j.truth);
        assert!(j.abs_error < 0.15, "jaccard err {}", j.abs_error);
        // Each query yields its estimate, truth and error, index-suffixed.
        let mut readings = std::collections::HashMap::new();
        report
            .visit(&mut |name, value| assert!(readings.insert(name.to_string(), value).is_none()));
        assert_eq!(
            readings["gt_run_queries_truth_2"],
            report.queries[2].truth as f64
        );
        assert_eq!(readings["gt_run_jaccard_queries_abs_error_0"], j.abs_error);
        assert!(!readings.contains_key("gt_run_queries_estimate_3"));
    }

    #[test]
    fn live_run_serves_monotone_valid_estimates() {
        let spec = WorkloadSpec {
            parties: 4,
            distinct_per_party: 4_000,
            overlap: 0.5,
            items_per_party: 12_000,
            distribution: Distribution::Uniform,
            seed: 23,
        };
        let streams = spec.generate();
        let config = SketchConfig::new(0.1, 0.05).unwrap();
        let report = run_live(&config, 55, &streams, 1_000);

        assert_eq!(report.parties, 4);
        assert_eq!(report.total_items, 4 * 12_000);
        assert!(report.monotone, "snapshots regressed");
        assert!(report.relative_error < 0.1, "err {}", report.relative_error);
        // The query loop polls at least once and always records the final
        // complete epoch as its last sample.
        assert!(report.snapshots_taken >= 1);
        let last = report.samples.last().expect("final epoch always sampled");
        assert_eq!(last.epoch, report.final_epoch);
        assert_eq!(last.items_covered, report.total_items);
        assert_eq!(last.coverage, 1.0);
        assert_eq!(last.estimate, report.final_estimate);
        // Coverage and epochs are nondecreasing across samples.
        for pair in report.samples.windows(2) {
            assert!(pair[1].epoch > pair[0].epoch);
            assert!(pair[1].items_covered >= pair[0].items_covered);
        }
        // 48k items at threshold 1k must propagate many times, and every
        // propagated item is accounted for.
        let m = report.concurrent_metrics;
        assert!(m.propagations() >= 48, "{m:?}");
        assert_eq!(m.items_propagated, report.total_items);
        assert!(m.snapshot_reads >= report.snapshots_taken);
        assert_eq!(
            m.writer.trial_inserts(),
            report.total_items * config.trials() as u64
        );
    }

    #[test]
    fn live_run_single_writer_is_exact_under_capacity() {
        let spec = WorkloadSpec {
            parties: 1,
            distinct_per_party: 900,
            overlap: 0.0,
            items_per_party: 1_800,
            distribution: Distribution::Uniform,
            seed: 31,
        };
        let streams = spec.generate();
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        let report = run_live(&config, 5, &streams, 250);
        assert_eq!(report.relative_error, 0.0); // under capacity → exact
        assert_eq!(report.final_estimate, report.truth as f64);
        assert!(report.monotone);
    }
}
