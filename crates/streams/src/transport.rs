//! Deterministic simulated transport: drop / corrupt / delay / reorder
//! under a virtual clock.
//!
//! Real collection planes fail in messier ways than "each message is
//! dropped or it isn't": messages straggle past timeouts, arrive out of
//! order, and show up twice once the sender starts retransmitting. This
//! module simulates exactly that with no threads and no wall clock — a
//! seeded RNG decides each message's fate and latency, and a virtual
//! [`Tick`] clock orders deliveries — so every schedule a property test
//! or experiment explores is exactly reproducible from its seed.
//!
//! Under [`crate::collector::collect_once`] with a no-retry policy
//! ([`crate::collector::RetryPolicy::one_shot`]) it is the paper's
//! one-shot model over a lossy channel. Its faults:
//!
//! * **Drop** — the message is never enqueued; only the channel knows
//!   (authoritative source for drop counts — the referee cannot count
//!   messages it never saw).
//! * **Corrupt** — a random byte past the magic word is bit-flipped in
//!   flight; the codec detects (almost) all of these on decode.
//! * **Delay** — base latency plus uniform jitter; two messages sent at
//!   the same tick can arrive in either order.
//! * **Straggle** — with small probability a message takes an extra-long
//!   detour, arriving rounds later: the canonical source of
//!   at-least-once duplicates once the sender has retransmitted.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::party::PartyMessage;

/// Virtual time, in abstract ticks. Only the order and spacing of events
/// matter; no wall clock is consulted anywhere.
pub type Tick = u64;

/// Fault and latency model for a simulated channel.
#[derive(Clone, Copy, Debug)]
pub struct TransportSpec {
    /// Probability a sent message is dropped outright.
    pub drop_probability: f64,
    /// Probability a (non-dropped) message has a random byte corrupted.
    pub corrupt_probability: f64,
    /// Minimum delivery latency, in ticks.
    pub base_latency: Tick,
    /// Uniform extra latency in `0..=jitter` ticks (0 = deterministic
    /// latency, no reordering).
    pub jitter: Tick,
    /// Probability a delivered message straggles (takes
    /// `straggle_latency` extra ticks — typically past the sender's
    /// retransmit timeout, producing duplicates).
    pub straggle_probability: f64,
    /// Extra latency added to straggling messages.
    pub straggle_latency: Tick,
    /// RNG seed for all per-message decisions.
    pub seed: u64,
}

impl TransportSpec {
    /// A perfect channel: nothing dropped, corrupted, or reordered;
    /// unit latency.
    pub fn reliable(seed: u64) -> Self {
        TransportSpec {
            drop_probability: 0.0,
            corrupt_probability: 0.0,
            base_latency: 1,
            jitter: 0,
            straggle_probability: 0.0,
            straggle_latency: 0,
            seed,
        }
    }

    /// A lossy but realistic channel: the given drop rate, mild jitter,
    /// and a 10% straggler rate long enough to outlive early timeouts.
    pub fn lossy(drop_probability: f64, seed: u64) -> Self {
        TransportSpec {
            drop_probability,
            corrupt_probability: 0.0,
            base_latency: 1,
            jitter: 3,
            straggle_probability: 0.1,
            straggle_latency: 40,
            seed,
        }
    }
}

/// Channel-side fate of one `send` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFate {
    /// Dropped by the channel; it will never be delivered.
    Dropped,
    /// In flight with a flipped byte.
    SentCorrupted,
    /// In flight, intact.
    Sent,
}

/// Channel-side accounting. Authoritative for drops: the receiver never
/// sees a dropped message, so only the channel can count them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportTelemetry {
    /// Total `send` calls.
    pub sends: usize,
    /// Sends dropped outright.
    pub dropped: usize,
    /// Sends corrupted in flight (still delivered).
    pub corrupted: usize,
    /// Sends that took the straggler detour.
    pub straggled: usize,
    /// Messages handed to the receiver by `advance`/`drain`.
    pub delivered: usize,
}

/// One message arriving at the receiver.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Virtual time the message arrived.
    pub at: Tick,
    /// The (possibly corrupted) message.
    pub msg: PartyMessage,
}

struct InFlight {
    deliver_at: Tick,
    seq: u64,
    msg: PartyMessage,
}

// Heap order: earliest `deliver_at` first, FIFO (`seq`) among ties —
// `PartyMessage` itself carries no ordering.
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// A simulated unidirectional channel with a virtual clock.
pub struct Transport {
    spec: TransportSpec,
    rng: SmallRng,
    now: Tick,
    seq: u64,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    telemetry: TransportTelemetry,
}

impl Transport {
    /// Open a channel with the given fault/latency model.
    pub fn new(spec: TransportSpec) -> Self {
        Transport {
            rng: SmallRng::seed_from_u64(spec.seed),
            spec,
            now: 0,
            seq: 0,
            in_flight: BinaryHeap::new(),
            telemetry: TransportTelemetry::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Messages sent but not yet delivered (excludes drops).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Channel-side accounting.
    pub fn telemetry(&self) -> TransportTelemetry {
        self.telemetry
    }

    /// Put one message on the wire at the current tick. Returns the
    /// channel-side fate; a non-dropped message is delivered at least one
    /// tick later by a subsequent [`Transport::advance`].
    pub fn send(&mut self, mut msg: PartyMessage) -> SendFate {
        self.telemetry.sends += 1;
        if self
            .rng
            .gen_bool(self.spec.drop_probability.clamp(0.0, 1.0))
        {
            self.telemetry.dropped += 1;
            return SendFate::Dropped;
        }
        let corrupted = self
            .rng
            .gen_bool(self.spec.corrupt_probability.clamp(0.0, 1.0))
            && corrupt_in_flight(&mut msg, &mut self.rng);
        if corrupted {
            self.telemetry.corrupted += 1;
        }
        let mut latency = self.spec.base_latency;
        if self.spec.jitter > 0 {
            latency += self.rng.gen_range(0..=self.spec.jitter);
        }
        if self.spec.straggle_probability > 0.0
            && self
                .rng
                .gen_bool(self.spec.straggle_probability.clamp(0.0, 1.0))
        {
            latency += self.spec.straggle_latency;
            self.telemetry.straggled += 1;
        }
        self.seq += 1;
        self.in_flight.push(Reverse(InFlight {
            deliver_at: self.now.saturating_add(latency.max(1)),
            seq: self.seq,
            msg,
        }));
        if corrupted {
            SendFate::SentCorrupted
        } else {
            SendFate::Sent
        }
    }

    /// Advance the virtual clock to `to` and collect every message whose
    /// delivery time has come, in arrival order. The clock never moves
    /// backwards.
    pub fn advance(&mut self, to: Tick) -> Vec<Delivery> {
        self.now = self.now.max(to);
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.in_flight.peek() {
            if head.deliver_at > self.now {
                break;
            }
            let Reverse(m) = self.in_flight.pop().expect("peeked");
            self.telemetry.delivered += 1;
            out.push(Delivery {
                at: m.deliver_at,
                msg: m.msg,
            });
        }
        out
    }

    /// Advance past the last in-flight message and deliver everything
    /// still on the wire (stragglers included): at-least-once channels
    /// lose messages, but what they accepted they eventually deliver.
    pub fn drain(&mut self) -> Vec<Delivery> {
        let horizon = self
            .in_flight
            .iter()
            .map(|Reverse(m)| m.deliver_at)
            .max()
            .unwrap_or(self.now);
        self.advance(horizon)
    }
}

/// Flip a random byte somewhere after the magic word. Messages with no
/// content past the magic corrupt their last byte instead, and an empty
/// payload has nothing to flip (returns false: delivered intact).
fn corrupt_in_flight(msg: &mut PartyMessage, rng: &mut SmallRng) -> bool {
    let mut raw = msg.payload.to_vec();
    let idx = if raw.len() > 4 {
        Some(rng.gen_range(4..raw.len()))
    } else {
        raw.len().checked_sub(1)
    };
    match idx {
        Some(idx) => {
            raw[idx] ^= 1u8 << rng.gen_range(0u32..8);
            msg.payload = bytes::Bytes::from(raw);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::Party;
    use gt_core::SketchConfig;

    fn msg(id: usize) -> PartyMessage {
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let mut p = Party::new(id, &config, 1);
        p.observe_stream(&(0..50u64).map(gt_hash::fold61).collect::<Vec<_>>());
        p.finish()
    }

    #[test]
    fn reliable_channel_delivers_everything_in_order() {
        let mut t = Transport::new(TransportSpec::reliable(1));
        for id in 0..5 {
            assert_eq!(t.send(msg(id)), SendFate::Sent);
        }
        assert_eq!(t.in_flight(), 5);
        let deliveries = t.advance(1);
        assert_eq!(deliveries.len(), 5);
        // Unit latency, FIFO tie-break: arrival order is send order.
        let ids: Vec<usize> = deliveries.iter().map(|d| d.msg.party_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(deliveries.iter().all(|d| d.at == 1));
        let tel = t.telemetry();
        assert_eq!((tel.sends, tel.dropped, tel.delivered), (5, 0, 5));
    }

    #[test]
    fn clock_gates_delivery() {
        let mut t = Transport::new(TransportSpec {
            base_latency: 10,
            ..TransportSpec::reliable(2)
        });
        t.send(msg(0));
        assert!(t.advance(9).is_empty());
        assert_eq!(t.advance(10).len(), 1);
        assert_eq!(t.now(), 10);
        // The clock never runs backwards.
        t.advance(3);
        assert_eq!(t.now(), 10);
    }

    #[test]
    fn drops_never_arrive_and_are_counted_channel_side() {
        let mut t = Transport::new(TransportSpec {
            drop_probability: 1.0,
            ..TransportSpec::reliable(3)
        });
        for id in 0..8 {
            assert_eq!(t.send(msg(id)), SendFate::Dropped);
        }
        assert_eq!(t.in_flight(), 0);
        assert!(t.drain().is_empty());
        assert_eq!(t.telemetry().dropped, 8);
        assert_eq!(t.telemetry().delivered, 0);
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let spec = TransportSpec {
            jitter: 7,
            ..TransportSpec::reliable(0xBEEF)
        };
        let mut t = Transport::new(spec);
        for id in 0..32 {
            t.send(msg(id));
        }
        let deliveries = t.drain();
        assert_eq!(deliveries.len(), 32);
        let ids: Vec<usize> = deliveries.iter().map(|d| d.msg.party_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(ids, sorted, "jitter should reorder some pair");
        // Arrival times are non-decreasing.
        assert!(deliveries.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn stragglers_arrive_late_but_arrive() {
        let spec = TransportSpec {
            straggle_probability: 1.0,
            straggle_latency: 100,
            ..TransportSpec::reliable(4)
        };
        let mut t = Transport::new(spec);
        t.send(msg(0));
        assert!(t.advance(50).is_empty(), "straggler not due yet");
        let late = t.drain();
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].at, 101);
        assert_eq!(t.telemetry().straggled, 1);
    }

    #[test]
    fn corruption_flips_payload_bytes() {
        let spec = TransportSpec {
            corrupt_probability: 1.0,
            ..TransportSpec::reliable(5)
        };
        let mut t = Transport::new(spec);
        let original = msg(0);
        assert_eq!(t.send(original.clone()), SendFate::SentCorrupted);
        let d = t.drain().pop().unwrap();
        assert_eq!(d.msg.payload.len(), original.payload.len());
        assert_ne!(d.msg.payload, original.payload);
        assert_eq!(t.telemetry().corrupted, 1);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut t = Transport::new(TransportSpec {
                corrupt_probability: 0.3,
                ..TransportSpec::lossy(0.3, seed)
            });
            for id in 0..16 {
                t.send(msg(id));
            }
            let deliveries: Vec<(Tick, usize, bytes::Bytes)> = t
                .drain()
                .into_iter()
                .map(|d| (d.at, d.msg.party_id, d.msg.payload))
                .collect();
            (deliveries, t.telemetry())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }
}
