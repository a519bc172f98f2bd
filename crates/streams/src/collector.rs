//! The retrying delivery plane: ack / timeout / retransmit rounds with
//! capped exponential backoff over the simulated [`crate::transport`].
//!
//! The paper's model sends each party's summary exactly once; real
//! channels lose messages. [`collect_once`] closes that gap for one
//! finished message per party, and the sustained engine
//! ([`crate::scenario::run_sustained`]) closes it the same way for the
//! reports still unacknowledged when its load ends. Both run the one
//! retransmit loop: every unacknowledged party's message is (re)sent, the
//! virtual clock advances by the round's timeout, and arriving deliveries
//! are fed to an idempotent [`Referee`]. The round timeout doubles up to
//! a cap, and each party has a bounded retry budget
//! ([`RetryPolicy::max_attempts`]). Both also share the one ack return
//! path, whose losses ([`RetryPolicy::ack_drop_probability`]) make a
//! party retransmit data the referee already holds.
//!
//! Because delivery is now **at-least-once** (stragglers from earlier
//! attempts arrive after a retransmit; acks themselves can be lost), the
//! referee's `(party, fingerprint)` dedup is what keeps the union and its
//! exactly-once accounting correct — see `crate::referee`.
//!
//! When the budget exhausts with parties still unheard, the caller gets a
//! [`CollectionReport`] naming them and can answer queries in degraded
//! mode via [`crate::RefereeOf::estimate_distinct_partial`], which reports
//! coverage alongside the estimate.

use std::collections::{BTreeSet, HashMap};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gt_core::SketchConfig;

use crate::party::PartyMessage;
use crate::referee::{Referee, RefereeTelemetry};
use crate::transport::{Delivery, SendFate, Tick, Transport, TransportSpec, TransportTelemetry};

/// Retry behaviour of the delivery plane.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total send attempts allowed per party (1 = the paper's one-shot
    /// model, no retries). Must be at least 1.
    pub max_attempts: usize,
    /// Ticks to wait for deliveries in the first round.
    pub initial_timeout: Tick,
    /// Cap on the per-round timeout as it doubles (capped exponential
    /// backoff).
    pub max_timeout: Tick,
    /// Probability the acknowledgement back to a party is lost, leaving
    /// the party to retransmit a message the referee already merged — the
    /// classic at-least-once duplicate source.
    pub ack_drop_probability: f64,
}

impl RetryPolicy {
    /// The paper's one-shot model: a single attempt, no retries.
    pub fn one_shot() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_timeout: 8,
            max_timeout: 64,
            ack_drop_probability: 0.0,
        }
    }

    /// A retrying policy with the given per-party attempt budget and the
    /// default backoff schedule (8 ticks doubling to 64).
    pub fn with_budget(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::one_shot()
        }
    }

    /// The retransmit loop. Each of at most `rounds` rounds checks the
    /// budget, lets `send` put every pending party's message on the wire
    /// in party-index order (it returns `false`, having sent nothing,
    /// once no party is pending), advances the virtual clock by the
    /// round's timeout and hands the deliveries to `absorb`; the timeout
    /// then doubles up to the cap. After the last round the stragglers
    /// still on the wire are drained into `absorb` too: at-least-once
    /// channels deliver late rather than never. `state` is what both
    /// steps update. Returns the rounds driven.
    pub(crate) fn drive<S>(
        &self,
        rounds: usize,
        transport: &mut Transport,
        state: &mut S,
        mut send: impl FnMut(&mut S, &mut Transport) -> bool,
        mut absorb: impl FnMut(&mut S, &[Delivery]),
    ) -> usize {
        let mut driven = 0;
        let mut timeout = self.initial_timeout.max(1);
        let timeout_cap = self.max_timeout.max(timeout);
        while driven < rounds && send(state, transport) {
            driven += 1;
            let deadline = transport.now().saturating_add(timeout);
            absorb(state, &transport.advance(deadline));
            timeout = timeout.saturating_mul(2).min(timeout_cap);
        }
        absorb(state, &transport.drain());
        driven
    }

    /// The ack return path of a channel seeded with `seed`.
    pub(crate) fn ack_path(&self, seed: u64) -> AckPath {
        AckPath {
            rng: SmallRng::seed_from_u64(seed ^ 0xACC0_ACC0_ACC0_ACC0),
            drop_probability: self.ack_drop_probability.clamp(0.0, 1.0),
        }
    }
}

/// Which acknowledgements back to the parties are lost. Its RNG stream
/// is its own, so a channel's forward fates are identical with and
/// without ack loss, and it draws nothing when acks are never lost.
pub(crate) struct AckPath {
    rng: SmallRng,
    drop_probability: f64,
}

impl AckPath {
    /// Whether the next ack is lost.
    pub(crate) fn lost(&mut self) -> bool {
        self.drop_probability > 0.0 && self.rng.gen_bool(self.drop_probability)
    }
}

/// Per-party attempt accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartyAttempts {
    /// Send attempts made for this party (1 = no retransmits).
    pub sends: usize,
    /// Channel-side fate of the most recent attempt.
    pub last_fate: Option<SendFate>,
    /// Virtual time the party's data first reached the union, if ever.
    pub acked_at: Option<Tick>,
}

/// Everything one collection run measured.
#[derive(Clone, Debug)]
pub struct CollectionReport {
    /// Attempt accounting, indexed like the input messages.
    pub per_party: Vec<PartyAttempts>,
    /// Retransmit rounds driven (1 = one-shot).
    pub rounds: usize,
    /// Total sends beyond each party's first.
    pub retransmits: usize,
    /// Deliveries that arrived for a party whose data was already in the
    /// union (stragglers and ack-loss retransmits; the referee
    /// deduplicated them).
    pub late_arrivals: usize,
    /// Party ids still unheard when the retry budget ran out. Non-empty
    /// means the union is partial: query through
    /// [`crate::RefereeOf::estimate_distinct_partial`].
    pub budget_exhausted: Vec<usize>,
    /// Virtual time at which the last party's data arrived — the
    /// time-to-full-union — or `None` if the union never completed.
    pub time_to_full_union: Option<Tick>,
    /// Channel-side telemetry (authoritative drop counts).
    pub transport: TransportTelemetry,
    /// Referee-side telemetry (accepts, duplicates, rejects, timings).
    pub referee: RefereeTelemetry,
}

impl CollectionReport {
    /// Parties whose data made it into the union.
    pub fn parties_acked(&self) -> usize {
        self.per_party
            .iter()
            .filter(|p| p.acked_at.is_some())
            .count()
    }

    /// Fraction of parties whose data made it into the union.
    pub fn completeness(&self) -> f64 {
        if self.per_party.is_empty() {
            1.0
        } else {
            self.parties_acked() as f64 / self.per_party.len() as f64
        }
    }
}

/// Collect one label-only message per party under the retry policy,
/// over a fresh channel with the given fault model, into a fresh referee
/// expecting sketches built from `(config, master_seed)`. Party ids in
/// `messages` must be unique. Returns the report plus the referee.
///
/// Each round (see [`RetryPolicy`]) hands its deliveries to the referee
/// as one batch (received message by message, in order) and acknowledges
/// the parties whose data is in; a lost ack or a corrupt delivery leaves
/// the party pending for the next round. Stragglers drained after the budget is
/// spent still count toward the union.
pub fn collect_once(
    config: &SketchConfig,
    master_seed: u64,
    messages: &[PartyMessage],
    spec: TransportSpec,
    policy: RetryPolicy,
) -> (CollectionReport, Referee) {
    assert!(policy.max_attempts >= 1, "need at least one attempt");
    let t = messages.len();
    let index_of: HashMap<usize, usize> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| (m.party_id, i))
        .collect();
    assert_eq!(index_of.len(), t, "party ids must be unique");

    let mut transport = Transport::new(spec);
    let mut referee = Referee::new(config, master_seed);
    let mut ack = policy.ack_path(spec.seed);
    let mut late_arrivals = 0usize;
    // Per-party accounting, and the parties not yet acknowledged.
    let mut state = (
        vec![PartyAttempts::default(); t],
        (0..t).collect::<BTreeSet<usize>>(),
    );
    let rounds = policy.drive(
        policy.max_attempts,
        &mut transport,
        &mut state,
        |(per_party, pending), transport| {
            for &i in pending.iter() {
                per_party[i].sends += 1;
                per_party[i].last_fate = Some(transport.send(messages[i].clone()));
            }
            !pending.is_empty()
        },
        |(per_party, pending), deliveries| {
            // One batch through the referee, then the receipts in arrival
            // order, so `acked_at`, late arrivals and ack draws are as if
            // each delivery were handled on its own.
            let batch: Vec<PartyMessage> = deliveries.iter().map(|d| d.msg.clone()).collect();
            for (delivery, receipt) in deliveries.iter().zip(referee.receive_batch(&batch)) {
                let i = index_of[&delivery.msg.party_id];
                if per_party[i].acked_at.is_some() {
                    late_arrivals += 1;
                }
                if receipt.is_ok() {
                    per_party[i].acked_at.get_or_insert(delivery.at);
                    if !ack.lost() {
                        pending.remove(&i);
                    }
                }
            }
        },
    );
    let (per_party, _) = state;

    let budget_exhausted: Vec<usize> = per_party
        .iter()
        .enumerate()
        .filter(|(_, p)| p.acked_at.is_none())
        .map(|(i, _)| messages[i].party_id)
        .collect();
    let time_to_full_union = if budget_exhausted.is_empty() {
        per_party.iter().filter_map(|p| p.acked_at).max()
    } else {
        None
    };
    let report = CollectionReport {
        retransmits: per_party.iter().map(|p| p.sends.saturating_sub(1)).sum(),
        per_party,
        rounds,
        late_arrivals,
        budget_exhausted,
        time_to_full_union,
        transport: transport.telemetry(),
        referee: *referee.telemetry(),
    };
    (report, referee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::Party;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn messages(parties: usize, per_party: u64, seed: u64) -> Vec<PartyMessage> {
        (0..parties)
            .map(|id| {
                let mut p = Party::new(id, &cfg(), seed);
                let lo = id as u64 * per_party / 2; // 50% overlap with neighbor
                p.observe_stream(
                    &(lo..lo + per_party)
                        .map(gt_hash::fold61)
                        .collect::<Vec<_>>(),
                );
                p.finish()
            })
            .collect()
    }

    #[test]
    fn reliable_channel_one_shot_collects_everyone() {
        let msgs = messages(6, 300, 3);
        let (report, referee) = collect_once(
            &cfg(),
            3,
            &msgs,
            TransportSpec::reliable(1),
            RetryPolicy::one_shot(),
        );
        assert_eq!(report.parties_acked(), 6);
        assert_eq!(report.completeness(), 1.0);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.retransmits, 0);
        assert_eq!(report.late_arrivals, 0);
        assert!(report.budget_exhausted.is_empty());
        assert!(report.time_to_full_union.is_some());
        assert_eq!(referee.messages(), 6);
        assert_eq!(referee.estimate_distinct_partial(6).coverage(), 1.0);
        // 6 parties, 300 labels each, 50% neighbor overlap -> 150*(6+1),
        // under the per-trial capacity so the union estimate is exact.
        assert_eq!(referee.estimate_distinct().value, 1050.0);
    }

    #[test]
    fn retries_recover_dropped_messages() {
        let msgs = messages(8, 300, 5);
        let spec = TransportSpec {
            straggle_probability: 0.0,
            jitter: 0,
            ..TransportSpec::lossy(0.5, 0xD0)
        };
        let (one_shot, _) = collect_once(&cfg(), 5, &msgs, spec, RetryPolicy::one_shot());
        assert!(
            one_shot.parties_acked() < 8,
            "seed should drop someone on the single attempt"
        );
        assert!(!one_shot.budget_exhausted.is_empty());
        assert_eq!(one_shot.time_to_full_union, None);

        let (retried, referee) = collect_once(&cfg(), 5, &msgs, spec, RetryPolicy::with_budget(8));
        assert_eq!(
            retried.parties_acked(),
            8,
            "8 attempts at p=0.5 recover all"
        );
        assert!(retried.retransmits > 0);
        assert!(retried.time_to_full_union.is_some());
        assert_eq!(referee.messages(), 8);
        // Retrying must not double-count: exactly-once per party.
        assert_eq!(
            referee.bytes_received(),
            msgs.iter().map(|m| m.bytes()).sum::<usize>()
        );
        assert_eq!(
            referee.items_reported(),
            msgs.iter().map(|m| m.items_observed).sum::<u64>()
        );
    }

    #[test]
    fn lost_acks_cause_duplicates_the_referee_suppresses() {
        let msgs = messages(5, 200, 7);
        let policy = RetryPolicy {
            max_attempts: 6,
            ack_drop_probability: 0.7,
            ..RetryPolicy::one_shot()
        };
        let (report, referee) =
            collect_once(&cfg(), 7, &msgs, TransportSpec::reliable(0xAC), policy);
        assert_eq!(report.parties_acked(), 5);
        assert!(
            report.referee.duplicates_suppressed > 0,
            "lost acks must have caused retransmit duplicates"
        );
        assert!(report.late_arrivals > 0);
        // Exactly-once despite the duplicates.
        assert_eq!(referee.messages(), 5);
        assert_eq!(
            referee.items_reported(),
            msgs.iter().map(|m| m.items_observed).sum::<u64>()
        );
    }

    #[test]
    fn stragglers_from_earlier_attempts_arrive_as_duplicates() {
        let msgs = messages(4, 200, 9);
        // Every message straggles past the first timeout: attempt 1 and
        // the attempt-2 retransmit BOTH arrive eventually.
        let spec = TransportSpec {
            straggle_probability: 1.0,
            straggle_latency: 20,
            ..TransportSpec::reliable(0x57)
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            initial_timeout: 4,
            max_timeout: 64,
            ack_drop_probability: 0.0,
        };
        let (report, referee) = collect_once(&cfg(), 9, &msgs, spec, policy);
        assert_eq!(report.parties_acked(), 4);
        assert_eq!(
            report.retransmits, 4,
            "round-1 stragglers missed the timeout"
        );
        assert_eq!(report.referee.duplicates_suppressed, 4);
        assert_eq!(report.late_arrivals, 4);
        assert_eq!(referee.messages(), 4);
    }

    #[test]
    fn budget_exhaustion_yields_degraded_estimate_with_coverage() {
        let msgs = messages(6, 300, 11);
        let spec = TransportSpec {
            jitter: 0,
            straggle_probability: 0.0,
            ..TransportSpec::lossy(0.95, 0xEE)
        };
        let (report, referee) = collect_once(&cfg(), 11, &msgs, spec, RetryPolicy::with_budget(2));
        assert!(
            report.parties_acked() < 6,
            "p=0.95 over 2 attempts must lose someone"
        );
        let partial = referee.estimate_distinct_partial(6);
        assert!(!partial.is_complete());
        assert_eq!(partial.parties_heard, report.parties_acked());
        assert!(partial.coverage() < 1.0);
        assert_eq!(report.budget_exhausted.len(), 6 - report.parties_acked());
        // The estimate still covers what arrived (capacity is generous
        // here, so the received union is exact).
        let acked_labels: std::collections::BTreeSet<u64> = report
            .per_party
            .iter()
            .enumerate()
            .filter(|(_, p)| p.acked_at.is_some())
            .flat_map(|(i, _)| {
                let lo = i as u64 * 150;
                (lo..lo + 300).map(gt_hash::fold61)
            })
            .collect();
        assert_eq!(partial.estimate.value, acked_labels.len() as f64);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // With everything dropped, rounds are pure timeouts: the virtual
        // clock records initial*2^k growth capped at max_timeout.
        let msg = messages(1, 50, 1).remove(0);
        let spec = TransportSpec {
            drop_probability: 1.0,
            ..TransportSpec::reliable(1)
        };
        let policy = RetryPolicy {
            max_attempts: 5,
            initial_timeout: 4,
            max_timeout: 16,
            ack_drop_probability: 0.0,
        };
        let mut transport = Transport::new(spec);
        let mut attempts = PartyAttempts::default();
        let rounds = policy.drive(
            policy.max_attempts,
            &mut transport,
            &mut attempts,
            |attempts, transport| {
                attempts.sends += 1;
                attempts.last_fate = Some(transport.send(msg.clone()));
                true
            },
            |_, deliveries| assert!(deliveries.is_empty()),
        );
        assert_eq!(rounds, 5);
        assert_eq!(attempts.sends, 5);
        assert_eq!(attempts.last_fate, Some(SendFate::Dropped));
        // 4 + 8 + 16 + 16 + 16 = 60 ticks of waiting.
        assert_eq!(transport.now(), 60);
        assert_eq!(transport.telemetry().dropped, 5);
    }

    /// FNV-1a, 64-bit: a dependency-free digest for the pinned outputs.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn collection_outputs_are_pinned() {
        // Every fate, receipt and union byte of three faulty collections,
        // digested so any change to the round or ack logic shows.
        let msgs = messages(6, 250, 17);
        let ack_lossy = RetryPolicy {
            max_attempts: 5,
            ack_drop_probability: 0.4,
            ..RetryPolicy::one_shot()
        };
        let straggle_all = TransportSpec {
            straggle_probability: 1.0,
            straggle_latency: 12,
            ..TransportSpec::reliable(0x5A)
        };
        let corrupting = TransportSpec {
            corrupt_probability: 0.4,
            ..TransportSpec::lossy(0.2, 0xC0)
        };
        let straggle_policy = RetryPolicy {
            max_attempts: 3,
            initial_timeout: 2,
            max_timeout: 8,
            ack_drop_probability: 0.0,
        };
        let cases = [
            (TransportSpec::lossy(0.35, 0xA1), ack_lossy),
            (straggle_all, straggle_policy),
            (
                corrupting,
                RetryPolicy {
                    max_attempts: 4,
                    ..ack_lossy
                },
            ),
        ];
        let digests = cases.map(|(spec, policy)| {
            let (report, referee) = collect_once(&cfg(), 17, &msgs, spec, policy);
            let fates: Vec<_> = report
                .per_party
                .iter()
                .map(|p| (p.sends, p.last_fate, p.acked_at))
                .collect();
            let referee_counts = RefereeTelemetry {
                decode_time: Default::default(),
                merge_time: Default::default(),
                ..report.referee
            };
            let key = (
                fates,
                report.rounds,
                report.retransmits,
                report.late_arrivals,
                &report.budget_exhausted,
                report.time_to_full_union,
                report.transport,
                referee_counts,
                crate::codec::encode_sketch(referee.union_sketch()),
            );
            fnv1a64(format!("{key:?}").as_bytes())
        });
        assert_eq!(
            digests,
            [
                0xfa13_c66a_f42e_ad2f,
                0xd27b_b458_661e_dd26,
                0x3fbb_e32e_8b93_e1b3
            ]
        );
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let msgs = messages(6, 200, 13);
        let run = |seed| {
            let spec = TransportSpec {
                corrupt_probability: 0.2,
                ..TransportSpec::lossy(0.3, seed)
            };
            let policy = RetryPolicy {
                max_attempts: 4,
                ack_drop_probability: 0.2,
                ..RetryPolicy::one_shot()
            };
            let (report, referee) = collect_once(&cfg(), 13, &msgs, spec, policy);
            (
                report.parties_acked(),
                report.retransmits,
                report.late_arrivals,
                report.transport,
                report.referee,
                referee.estimate_distinct().value,
            )
        };
        let (a, b) = (run(21), run(21));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
        assert_eq!(a.5, b.5);
        // Telemetry counts match too (timings may differ; compare counts).
        assert_eq!(a.4.accepted, b.4.accepted);
        assert_eq!(a.4.duplicates(), b.4.duplicates());
        assert_eq!(a.4.rejected(), b.4.rejected());
    }

    // ---- the paper's one-shot model over a lossy, corrupting channel ----

    use crate::oracle::StreamOracle;
    use crate::workload::{Distribution, StreamSet, WorkloadSpec};

    fn fault_config() -> SketchConfig {
        SketchConfig::new(0.1, 0.05).unwrap()
    }

    /// One finished message per stream, party id = stream index, seed 7.
    fn finished(streams: &StreamSet) -> Vec<PartyMessage> {
        let config = fault_config();
        let finish = |(id, s): (usize, &Vec<u64>)| {
            let mut p = Party::new(id, &config, 7);
            p.observe_stream(s);
            p.finish()
        };
        streams.streams.iter().enumerate().map(finish).collect()
    }

    fn ten_parties() -> StreamSet {
        WorkloadSpec {
            parties: 10,
            distinct_per_party: 3_000,
            overlap: 0.3,
            items_per_party: 9_000,
            distribution: Distribution::Uniform,
            seed: 0xFA17,
        }
        .generate()
    }

    /// Unit latency, no jitter or stragglers: one fate per send.
    fn faulty(drop_probability: f64, corrupt_probability: f64, seed: u64) -> TransportSpec {
        TransportSpec {
            drop_probability,
            corrupt_probability,
            ..TransportSpec::reliable(seed)
        }
    }

    /// A one-shot collection, held against exact truth for the full
    /// union and for the union of the parties that got through.
    #[derive(Debug)]
    struct OneShot {
        report: CollectionReport,
        estimate: f64,
        full: u64,
        received: u64,
        /// Relative error against `received`: what `(ε, δ)` still covers.
        err: f64,
        /// Information lost with the parties that did not get through.
        shortfall: f64,
        /// Sends the channel dropped / delivered but the referee refused.
        dropped: usize,
        rejected: usize,
    }

    impl OneShot {
        fn run(streams: &StreamSet, channel: TransportSpec) -> Self {
            let (report, referee) = collect_once(
                &fault_config(),
                7,
                &finished(streams),
                channel,
                RetryPolicy::one_shot(),
            );
            let truth = |acked_only: bool| {
                let parties = streams.streams.iter().zip(&report.per_party);
                StreamOracle::of_streams(
                    parties
                        .filter(|(_, p)| !acked_only || p.acked_at.is_some())
                        .map(|(s, _)| s.as_slice()),
                )
                .distinct()
            };
            let (full, received) = (truth(false), truth(true));
            let estimate = referee.estimate_distinct().value;
            let count =
                |f: fn(&PartyAttempts) -> bool| report.per_party.iter().filter(|p| f(p)).count();
            OneShot {
                dropped: count(|p| p.last_fate == Some(SendFate::Dropped)),
                rejected: count(|p| p.acked_at.is_none() && p.last_fate != Some(SendFate::Dropped)),
                estimate,
                full,
                received,
                err: gt_core::relative_error(estimate, received as f64),
                shortfall: (full - received) as f64 / full.max(1) as f64,
                report,
            }
        }
    }

    #[test]
    fn one_shot_faults_are_detected_or_degrade_predictably() {
        let streams = ten_parties();
        // (case, drop probability, corrupt probability, seed, what holds)
        type Case = (&'static str, f64, f64, u64, fn(&OneShot) -> bool);
        let cases: [Case; 5] = [
            ("clean channel", 0.0, 0.0, 1, |o| {
                o.report.parties_acked() == 10
                    && o.shortfall == 0.0
                    && o.received == o.full
                    && o.err < 0.1
            }),
            ("drops degrade predictably", 0.4, 0.0, 2, |o| {
                o.dropped > 0 && o.err < 0.1 && o.shortfall > 0.0 && o.received < o.full
            }),
            // Almost every flip lands in validated content; a rare flip in
            // an items-observed varint is delivered.
            ("corruption is detected, not absorbed", 0.0, 1.0, 3, |o| {
                o.rejected >= 8 && o.err < 0.1
            }),
            ("all messages lost", 1.0, 0.0, 4, |o| {
                o.estimate == 0.0
                    && o.received == 0
                    && o.shortfall == 1.0
                    && o.err == 0.0
                    && o.report.transport.dropped == 10
            }),
            // Accepts and rejects come from the referee, drops from the
            // channel, and each agrees with the per-party fates.
            ("fate counts", 0.3, 0.5, 6, |o| {
                let (referee, channel) = (&o.report.referee, &o.report.transport);
                referee.accepted == o.report.parties_acked()
                    && channel.dropped == o.dropped
                    && referee.rejected() == o.rejected
                    && referee.accepted + referee.rejected() + channel.dropped == 10
            }),
        ];
        for (name, drop, corrupt, seed, holds) in cases {
            let o = OneShot::run(&streams, faulty(drop, corrupt, seed));
            assert!(holds(&o), "{name}: {o:?}");
        }

        // An empty-stream party sends the smallest legitimate message;
        // however the flips land, every delivery is accounted once.
        let tiny = StreamSet {
            streams: vec![Vec::new(), (0..100).map(gt_hash::fold61).collect()],
            spec: WorkloadSpec {
                parties: 2,
                ..streams.spec
            },
        };
        for seed in 0..16 {
            let t = OneShot::run(&tiny, faulty(0.0, 1.0, seed)).report.referee;
            assert_eq!(t.accepted + t.rejected(), 2, "seed {seed}");
        }

        // Fault decisions are deterministic per seed.
        let [a, b] = [0, 1].map(|_| OneShot::run(&streams, faulty(0.3, 0.3, 5)));
        let fates = |o: &OneShot| -> Vec<_> {
            o.report
                .per_party
                .iter()
                .map(|p| (p.last_fate, p.acked_at))
                .collect()
        };
        assert_eq!(fates(&a), fates(&b));
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn retries_beat_the_one_shot_channel() {
        // Same drop probability, same seed, nonzero retry budget ->
        // strictly more of the union delivered.
        let config = fault_config();
        let messages = finished(&ten_parties());
        let channel = faulty(0.5, 0.0, 2);
        let (one_shot, _) = collect_once(&config, 7, &messages, channel, RetryPolicy::one_shot());
        let (retried, referee) =
            collect_once(&config, 7, &messages, channel, RetryPolicy::with_budget(8));
        assert!(
            one_shot.parties_acked() < retried.parties_acked(),
            "one-shot {} vs retried {}",
            one_shot.parties_acked(),
            retried.parties_acked()
        );
        assert_eq!(retried.parties_acked(), 10, "8 attempts at p=0.5");
        assert!(referee.estimate_distinct_partial(10).is_complete());
    }

    #[test]
    fn fate_counts_stay_consistent_under_retries() {
        // The regression the channel-side drop count fixes: with a retry
        // budget, the referee records several attempts for one party; the
        // old `fates.len() - attempts()` derivation would underflow here.
        let messages = finished(&ten_parties());
        let (report, referee) = collect_once(
            &fault_config(),
            7,
            &messages,
            faulty(0.4, 0.2, 8),
            RetryPolicy {
                max_attempts: 6,
                ack_drop_probability: 0.3,
                ..RetryPolicy::one_shot()
            },
        );
        let t = referee.telemetry();
        // Channel-side conservation: every send was dropped or delivered.
        assert_eq!(
            report.transport.sends,
            report.transport.dropped + report.transport.delivered
        );
        // Referee-side conservation: every delivery is accounted once.
        assert_eq!(t.attempts(), report.transport.delivered);
        // And drops exceed what any referee-side derivation could see.
        assert!(report.transport.sends > messages.len());
    }
}
