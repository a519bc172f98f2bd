//! The party role: one stream observer, [`DeltaParty`], whose report
//! schedule is the caller's choice.
//!
//! In the paper's model a party owns a coordinated sketch of its own
//! stream and ships it to the referee. Shipping once at end of stream
//! ([`Party::finish`]), re-shipping the whole sketch on a cadence
//! ([`DeltaParty::full_message`]) and shipping generation-stamped delta
//! frames as the state evolves ([`DeltaParty::emit_frame`]) are only
//! different report schedules of that one object. Every report is a
//! [`PartyMessage`] whose byte length *is* the communication it costs.
//! [`Party`] is the label-only party (`DeltaParty<()>`) the runner puts
//! on each thread.

use std::collections::VecDeque;

use bytes::Bytes;
use gt_core::{delta_between, GtSketch, SketchConfig};

use crate::codec::{
    encode_delta_frame, encode_full_frame, encode_sketch, full_frame_len, payload_fingerprint,
    WirePayload,
};

/// A finalized party transmission: everything a party ever sends.
#[derive(Clone, Debug)]
pub struct PartyMessage {
    /// Which party sent it.
    pub party_id: usize,
    /// The encoded sketch.
    pub payload: Bytes,
    /// Items the party observed (diagnostics; also inside the payload).
    pub items_observed: u64,
}

impl PartyMessage {
    /// Total communication cost of this party, in bytes.
    pub fn bytes(&self) -> usize {
        self.payload.len()
    }
}

/// The label-only party of the paper's one-shot model.
pub type Party = DeltaParty<()>;

impl Party {
    /// Observe one label.
    #[inline]
    pub fn observe(&mut self, label: u64) {
        self.sketch.insert(label);
    }

    /// Observe an entire stream through the batch-monomorphic kernel
    /// (see [`gt_core::DistinctSketch::extend_slice`]) — same state as
    /// calling [`Party::observe`] per label, measured faster by
    /// experiment `e4`.
    pub fn observe_stream(&mut self, stream: &[u64]) {
        self.sketch.extend_slice(stream);
    }

    /// End of stream: encode and emit the single permitted message.
    pub fn finish(self) -> PartyMessage {
        self.full_message()
    }
}

/// Emitted-but-unacked snapshots a [`DeltaParty`] retains so a late ack
/// can still become the next delta base. Beyond this, the oldest
/// snapshot is dropped and its ack (if it ever arrives) is ignored —
/// the party simply keeps coding against its current base.
const MAX_PENDING_SNAPSHOTS: usize = 32;

/// Communication counters a [`DeltaParty`] accumulates, split by frame
/// kind so the bytes-saved headline is derivable at any point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaPartyStats {
    /// Delta frames emitted.
    pub delta_frames: u64,
    /// Full frames emitted (first ship, resyncs, and size fallbacks).
    pub full_frames: u64,
    /// Bytes across all delta frames.
    pub delta_bytes: u64,
    /// Bytes across all full frames.
    pub full_bytes: u64,
    /// Resync requests honoured (base dropped, next frame full).
    pub resyncs: u64,
}

impl DeltaPartyStats {
    /// All bytes this party ever put on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.delta_bytes + self.full_bytes
    }
}

/// A party: observes its stream indefinitely and reports it — as a
/// plain sketch message ([`DeltaParty::full_message`]), or as
/// generation-stamped frames, compact deltas against the last
/// acknowledged base when possible and full snapshots otherwise
/// ([`DeltaParty::emit_frame`]).
///
/// Frame protocol state machine (referee side in
/// [`crate::referee::RefereeOf::receive_frame`]):
///
/// * Every emission gets a fresh **generation** from a monotone
///   counter; the frame for generation `g` is a pure function of the
///   sketch state at `g` and the acked base.
/// * Deltas are **cumulative**: always coded against the last *acked*
///   generation, carrying every change since it. Lost acks therefore
///   never wedge the stream — the referee can apply a cumulative delta
///   on top of any base it reconstructed after the coded one
///   (see [`gt_core::delta`]).
/// * An **ack** for generation `g` promotes the retained snapshot at
///   `g` to the new delta base; older pending snapshots are dropped.
/// * A **resync** request (referee detected a gap or fingerprint
///   mismatch) drops the base: the next frame is a full snapshot.
/// * A delta that would not actually be smaller than the full snapshot
///   falls back to the full frame (steady-state deltas win by a wide
///   margin; the fallback guards the early ramp where nearly every
///   entry is new).
#[derive(Clone, Debug)]
pub struct DeltaParty<V: WirePayload> {
    id: usize,
    sketch: GtSketch<V>,
    generation: u64,
    /// Last acked snapshot: (generation, state, canonical fingerprint).
    acked: Option<(u64, GtSketch<V>, u64)>,
    /// Emitted, unacked snapshots, oldest first.
    pending: VecDeque<(u64, GtSketch<V>)>,
    stats: DeltaPartyStats,
}

impl<V: WirePayload + PartialEq> DeltaParty<V> {
    /// Create party `id` with the shared `(config, master_seed)` pair.
    pub fn new(id: usize, config: &SketchConfig, master_seed: u64) -> Self {
        DeltaParty {
            id,
            sketch: GtSketch::new(config, master_seed),
            generation: 0,
            acked: None,
            pending: VecDeque::new(),
            stats: DeltaPartyStats::default(),
        }
    }

    /// This party's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Observe one `(label, payload)` item (payload-merging, so
    /// re-arrivals reconcile exactly like a single observer's would).
    #[inline]
    pub fn observe_with(&mut self, label: u64, payload: V) {
        self.sketch.insert_merging_with(label, payload);
    }

    /// Observe a batch of `(label, payload)` items through the merging
    /// batch kernel ([`GtSketch::insert_batch_merging_with`]) — same
    /// state and counters as [`DeltaParty::observe_with`] per item.
    pub fn observe_batch(&mut self, items: &[(u64, V)]) {
        self.sketch.insert_batch_merging_with(items);
    }

    /// Read access to the live sketch.
    pub fn sketch(&self) -> &GtSketch<V> {
        &self.sketch
    }

    /// The generation of the most recent emission (0 before the first).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation the referee last acknowledged, if any.
    pub fn acked_generation(&self) -> Option<u64> {
        self.acked.as_ref().map(|&(g, _, _)| g)
    }

    /// Communication counters so far.
    pub fn stats(&self) -> DeltaPartyStats {
        self.stats
    }

    /// The retained snapshot for `generation`, if still held (pending or
    /// acked) — what the equivalence oracle full-ships to compare
    /// against the referee's live union.
    pub fn snapshot_for(&self, generation: u64) -> Option<&GtSketch<V>> {
        if let Some((g, snap, _)) = &self.acked {
            if *g == generation {
                return Some(snap);
            }
        }
        self.pending
            .iter()
            .find(|&&(g, _)| g == generation)
            .map(|(_, snap)| snap)
    }

    /// The plain sketch message of the live state: what a full re-ship
    /// and [`Party::finish`] send. Frame state is untouched.
    pub fn full_message(&self) -> PartyMessage {
        PartyMessage {
            party_id: self.id,
            payload: encode_sketch(&self.sketch),
            items_observed: self.sketch.items_observed(),
        }
    }

    /// Emit the next frame: a fresh generation stamped over either a
    /// cumulative delta against the acked base or a full snapshot
    /// (first ship, post-resync, failed prefix check, or when the delta
    /// would not be smaller).
    pub fn emit_frame(&mut self) -> PartyMessage {
        self.generation += 1;
        let generation = self.generation;
        let delta_payload = self.acked.as_ref().and_then(|(base_gen, base, base_fp)| {
            let delta = delta_between(base, &self.sketch).ok()?;
            let frame = encode_delta_frame(&delta, generation, *base_gen, *base_fp);
            (frame.len() < full_frame_len(&self.sketch, generation)).then_some(frame)
        });
        let payload = match delta_payload {
            Some(frame) => {
                self.stats.delta_frames += 1;
                self.stats.delta_bytes += frame.len() as u64;
                frame
            }
            None => {
                let frame = encode_full_frame(&self.sketch, generation);
                self.stats.full_frames += 1;
                self.stats.full_bytes += frame.len() as u64;
                frame
            }
        };
        if self.pending.len() == MAX_PENDING_SNAPSHOTS {
            self.pending.pop_front();
        }
        self.pending.push_back((generation, self.sketch.clone()));
        PartyMessage {
            party_id: self.id,
            payload,
            items_observed: self.sketch.items_observed(),
        }
    }

    /// The referee acknowledged `generation`: promote that snapshot to
    /// the delta base and drop everything older. Stale or unknown acks
    /// (older than the current base, or beyond the retention window)
    /// are ignored.
    pub fn handle_ack(&mut self, generation: u64) {
        if self
            .acked
            .as_ref()
            .is_some_and(|&(g, _, _)| g >= generation)
        {
            return;
        }
        let Some(pos) = self.pending.iter().position(|&(g, _)| g == generation) else {
            return;
        };
        let (gen, snap) = self.pending.remove(pos).expect("position just found");
        self.pending.retain(|&(g, _)| g > gen);
        let fp = payload_fingerprint(&encode_sketch(&snap));
        self.acked = Some((gen, snap, fp));
    }

    /// The referee requested a resync (gap or fingerprint mismatch):
    /// drop the base so the next frame is a full snapshot.
    pub fn handle_resync(&mut self) {
        self.acked = None;
        self.pending.clear();
        self.stats.resyncs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    #[test]
    fn party_observes_and_finishes() {
        let mut p = Party::new(3, &cfg(), 1);
        p.observe_stream(&(0..500u64).map(gt_hash::fold61).collect::<Vec<_>>());
        assert_eq!(p.id(), 3);
        assert_eq!(p.sketch().estimate_distinct().value, 500.0);
        let msg = p.finish();
        assert_eq!(msg.party_id, 3);
        assert_eq!(msg.items_observed, 500);
        assert!(msg.bytes() > 0);
    }

    #[test]
    fn delta_party_ships_full_then_delta_then_resyncs() {
        let mut p: DeltaParty<()> = DeltaParty::new(2, &cfg(), 5);
        for l in 0..20_000u64 {
            p.observe_with(gt_hash::fold61(l), ());
        }
        // First emission: no base, must be full.
        let m1 = p.emit_frame();
        assert_eq!(p.stats().full_frames, 1);
        assert_eq!(m1.party_id, 2);
        p.handle_ack(1);
        assert_eq!(p.acked_generation(), Some(1));

        // Steady state: few new labels -> small delta frame.
        for l in 0..50u64 {
            p.observe_with(gt_hash::fold61(l), ()); // duplicates only
        }
        let m2 = p.emit_frame();
        assert_eq!(p.stats().delta_frames, 1);
        assert!(
            m2.bytes() * 5 <= m1.bytes(),
            "steady-state delta {} not >=5x under full {}",
            m2.bytes(),
            m1.bytes()
        );

        // Resync drops the base: next frame is full again.
        p.handle_resync();
        let m3 = p.emit_frame();
        assert_eq!(p.stats().full_frames, 2);
        assert_eq!(p.stats().resyncs, 1);
        assert!(m3.bytes() >= m1.bytes());
    }

    #[test]
    fn stale_and_unknown_acks_are_ignored() {
        let mut p: DeltaParty<()> = DeltaParty::new(0, &cfg(), 9);
        p.observe_with(gt_hash::fold61(1), ());
        p.emit_frame(); // gen 1
        p.observe_with(gt_hash::fold61(2), ());
        p.emit_frame(); // gen 2
        p.handle_ack(2);
        assert_eq!(p.acked_generation(), Some(2));
        p.handle_ack(1); // stale: base must not rewind
        assert_eq!(p.acked_generation(), Some(2));
        p.handle_ack(99); // unknown: ignored
        assert_eq!(p.acked_generation(), Some(2));
        // Snapshot retention serves the oracle.
        assert!(p.snapshot_for(2).is_some());
        assert!(p.snapshot_for(1).is_none());
    }

    #[test]
    fn message_size_independent_of_duplication() {
        let labels: Vec<u64> = (0..1_000).map(gt_hash::fold61).collect();
        let mut once = Party::new(0, &cfg(), 2);
        once.observe_stream(&labels);
        let mut many = Party::new(1, &cfg(), 2);
        for _ in 0..50 {
            many.observe_stream(&labels);
        }
        let b_once = once.finish().bytes();
        let b_many = many.finish().bytes();
        // Only the items_observed varint grows (few bytes per trial).
        assert!(b_many < b_once + 3 * cfg().trials(), "{b_once} vs {b_many}");
    }
}
