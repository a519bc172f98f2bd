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

use bytes::Bytes;
use gt_core::{ChangeJournal, GtSketch, SketchConfig};

use crate::codec::{
    encode_frame, encode_full_frame, encode_sketch, full_frame_len, full_frame_len_floor,
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
        self.sketch.insert_watched(label, (), &mut self.journal);
    }

    /// Observe an entire stream through the batch-monomorphic kernel
    /// (see [`gt_core::DistinctSketch::extend_slice`]) — same state as
    /// calling [`Party::observe`] per label, measured faster by
    /// experiment `e4`.
    pub fn observe_stream(&mut self, stream: &[u64]) {
        self.sketch.extend_slice_watched(stream, &mut self.journal);
    }

    /// End of stream: encode and emit the single permitted message.
    pub fn finish(self) -> PartyMessage {
        self.full_message()
    }
}

/// Emitted-but-unacked generations a [`DeltaParty`] retains so a late
/// ack can still make one the next delta base. Beyond this, the oldest
/// is forgotten and its ack (if it ever arrives) is ignored — the party
/// simply keeps coding against its current base.
const MAX_PENDING_GENERATIONS: usize = 32;

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
/// * The party keeps no copy of any emitted state. From its first
///   emission on, a [`ChangeJournal`] watches its ingest: the labels
///   admitted and the payloads changed since the acked base, with one
///   mark (generation, base key, position) per pending generation. A
///   delta is read from it in O(changes).
/// * An **ack** for generation `g` makes `g` the new delta base: the
///   journal drops its changes up to `g`'s mark, and older pending
///   generations are forgotten. At most 32 unacked generations stay
///   pending.
/// * A **resync** request (referee detected a gap or base key
///   mismatch) drops the base: the next frame is a full snapshot.
/// * A delta that would not actually be smaller than the full snapshot
///   falls back to the full frame (steady-state deltas win by a wide
///   margin; the fallback guards the early ramp where nearly every
///   entry is new). An O(trials) lower bound on the full frame's length
///   decides most emissions; only when it does not is the full frame's
///   exact length computed.
#[derive(Clone, Debug)]
pub struct DeltaParty<V: WirePayload> {
    id: usize,
    sketch: GtSketch<V>,
    generation: u64,
    /// What changed since the acked base, from the first emission on.
    journal: Option<ChangeJournal>,
    stats: DeltaPartyStats,
}

impl<V: WirePayload> DeltaParty<V> {
    /// Create party `id` with the shared `(config, master_seed)` pair.
    pub fn new(id: usize, config: &SketchConfig, master_seed: u64) -> Self {
        DeltaParty {
            id,
            sketch: GtSketch::new(config, master_seed),
            generation: 0,
            journal: None,
            stats: DeltaPartyStats::default(),
        }
    }

    /// This party's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Observe one `(label, payload)` item. A label already sampled
    /// reconciles its payload as `stored.merge(incoming)`, the rule every
    /// arrival follows, so the referee's union of parties holds what a
    /// single observer of their streams would.
    #[inline]
    pub fn observe_with(&mut self, label: u64, payload: V) {
        self.sketch
            .insert_watched(label, payload, &mut self.journal);
    }

    /// Observe a batch of `(label, payload)` items through the batch
    /// kernel ([`GtSketch::insert_batch_with`]) — same state and counters
    /// as [`DeltaParty::observe_with`] per item.
    pub fn observe_batch(&mut self, items: &[(u64, V)]) {
        self.sketch.insert_batch_watched(items, &mut self.journal);
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
        self.journal.as_ref()?.base_generation()
    }

    /// The generations an ack can still make (or keep as) the delta base:
    /// the acked one, then the pending ones oldest first.
    pub fn retained_generations(&self) -> impl Iterator<Item = u64> + '_ {
        self.journal
            .iter()
            .flat_map(ChangeJournal::retained_generations)
    }

    /// Heap bytes the party holds: its sketch plus its change journal.
    pub fn heap_bytes(&self) -> usize {
        self.sketch.heap_bytes() + self.journal.as_ref().map_or(0, ChangeJournal::heap_bytes)
    }

    /// Communication counters so far.
    pub fn stats(&self) -> DeltaPartyStats {
        self.stats
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
        let sketch = &self.sketch;
        let journal = self
            .journal
            .get_or_insert_with(|| ChangeJournal::new(sketch, MAX_PENDING_GENERATIONS));
        let delta_payload = journal
            .delta(sketch)
            .and_then(|(base_gen, base_key, delta)| {
                let frame = encode_frame(sketch, &delta, generation, Some((base_gen, base_key)));
                let smaller = frame.len() < full_frame_len_floor(sketch, generation)
                    || frame.len() < full_frame_len(sketch, generation);
                smaller.then_some(frame)
            });
        journal.record(generation, sketch);
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
        PartyMessage {
            party_id: self.id,
            payload,
            items_observed: self.sketch.items_observed(),
        }
    }

    /// The referee acknowledged `generation`: make it the delta base and
    /// drop everything older. Stale or unknown acks (older than the
    /// current base, or beyond the retention window) are ignored.
    pub fn handle_ack(&mut self, generation: u64) {
        if let Some(journal) = &mut self.journal {
            journal.acknowledge(generation);
        }
    }

    /// The referee requested a resync (gap or base key mismatch): drop
    /// the base so the next frame is a full snapshot.
    pub fn handle_resync(&mut self) {
        if let Some(journal) = &mut self.journal {
            journal.reset();
        }
        self.stats.resyncs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::{delta_between, SortedTrials, StateKey};

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
        // Only the acked generation is retained: generation 1 is gone.
        assert_eq!(p.retained_generations().collect::<Vec<_>>(), [2]);
    }

    /// FNV-1a over every frame's kind, generation, base generation and
    /// body: everything a frame carries except the 8-byte base key.
    fn frame_digest(digest: &mut u64, frame: &Bytes) {
        let mut body = frame.clone();
        let (generation, base) = crate::codec::get_frame_header(&mut body).expect("own frame");
        let base_generation = base.map(|(g, _)| g);
        let head = format!("{}:{generation}:{base_generation:?}:", base.is_some());
        for &b in head.as_bytes().iter().chain(body.iter()) {
            *digest ^= u64::from(b);
            *digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The frame a party holding a copy of every emitted state sends: a
    /// [`delta_between`] delta from the acked `base`, keyed by the base's
    /// [`StateKey`], when it is smaller than the full frame; otherwise the
    /// full frame.
    fn oracle_frame<V: WirePayload>(
        base: Option<(u64, &GtSketch<V>)>,
        live: &GtSketch<V>,
        generation: u64,
    ) -> Bytes {
        if let Some((base_generation, base)) = base {
            let delta = delta_between(base, live).unwrap();
            let key = StateKey::of(base).key(base);
            let frame = encode_frame(live, &delta, generation, Some((base_generation, key)));
            if frame.len() < full_frame_len(live, generation) {
                return frame;
            }
        }
        encode_full_frame(live, generation)
    }

    /// One fixed report schedule over a party whose `observe(party, round,
    /// i)` ingests item `i` of round `round`: a tiny acked first frame, a
    /// burst whose delta is no smaller than the full frame (size
    /// fallback), 38 emissions with every ack lost (more than the 32 the
    /// party retains), an ack from beyond the window and one from inside
    /// it, alternating lost and stale acks, then a resync. Every frame is
    /// checked against [`oracle_frame`] on the way.
    fn scheduled_frames<V: WirePayload>(
        mut observe: impl FnMut(&mut DeltaParty<V>, u64, u64),
    ) -> (u64, DeltaPartyStats) {
        let config =
            SketchConfig::from_shape(0.2, 0.2, 64, 5, gt_hash::HashFamilyKind::Pairwise).unwrap();
        let mut p: DeltaParty<V> = DeltaParty::new(4, &config, 0xF4A3);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut emitted: Vec<GtSketch<V>> = Vec::new();
        let mut emit = |p: &mut DeltaParty<V>| {
            let base = p.acked_generation().map(|g| (g, &emitted[g as usize - 1]));
            let expected = oracle_frame(base, p.sketch(), p.generation() + 1);
            let frame = p.emit_frame().payload;
            assert_eq!(frame, expected, "generation {}", p.generation());
            frame_digest(&mut digest, &frame);
            emitted.push(p.sketch().clone());
        };
        let mut round = |p: &mut DeltaParty<V>, r: u64, items: u64| {
            for i in 0..items {
                observe(p, r, i);
            }
        };
        round(&mut p, 0, 10);
        emit(&mut p); // gen 1: full
        p.handle_ack(1);
        round(&mut p, 1, 5_000);
        emit(&mut p); // gen 2: size fallback to full
        p.handle_ack(2);
        for r in 2..40 {
            round(&mut p, r, 60);
            emit(&mut p); // gens 3..=40, every ack lost
        }
        p.handle_ack(5); // beyond the retention window: ignored
        p.handle_ack(39);
        for r in 40..52 {
            round(&mut p, r, 60);
            emit(&mut p); // gens 41..=52
            if r % 2 == 0 {
                p.handle_ack(40 + r / 2);
            }
        }
        p.handle_ack(41); // stale
        p.handle_resync();
        for r in 52..58 {
            round(&mut p, r, 60);
            emit(&mut p); // gen 53: full after the resync
            p.handle_ack(p.generation());
        }
        (digest, p.stats())
    }

    /// Item `i` of round `r`: a fresh label for most items, and a
    /// re-arrival of an earlier round's label for every fourth one.
    fn label(r: u64, i: u64) -> u64 {
        let id = if i % 4 == 3 {
            (r / 2) * 10_000 + i
        } else {
            r * 10_000 + i
        };
        gt_hash::fold61(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Every frame `DeltaParty` emits on the fixed schedule above, for
    /// each wire payload, is pinned by digest (base key excluded).
    #[test]
    fn frames_are_pinned_on_a_fixed_schedule() {
        let unit = scheduled_frames::<()>(|p, r, i| p.observe_with(label(r, i), ()));
        let weights = scheduled_frames::<u64>(|p, r, i| {
            p.observe_batch(&[(label(r, i), i % 7 + 1)]);
        });
        let recency = scheduled_frames::<gt_core::LatestTs>(|p, r, i| {
            p.observe_with(label(r, i), gt_core::LatestTs(r * 100 + i));
        });
        // Digests recorded before the party moved from retained snapshots
        // to a change journal; the frame bytes must not move.
        assert_eq!(
            [unit.0, weights.0, recency.0],
            [0xacbea1dfbc28a123, 0xa1c43f377cd5b21b, 0xee0f4762990dff66],
            "frame digests moved"
        );
        // First ship, the size fallback and the resync are the full frames.
        let stats = |delta_bytes, full_bytes| DeltaPartyStats {
            delta_frames: 55,
            full_frames: 3,
            delta_bytes,
            full_bytes,
            resyncs: 1,
        };
        assert_eq!(unit.1, stats(18_559, 4_352));
        assert_eq!(weights.1, stats(20_262, 4_857));
        assert_eq!(recency.1, stats(21_998, 5_308));
    }

    /// Steady emit/ack rounds leave the party little beyond its sketch;
    /// with every ack lost, the journal stays bounded however many frames
    /// go out.
    #[test]
    fn party_memory_stays_bounded() {
        let config = SketchConfig::new(0.1, 0.05).unwrap();
        let labels = |r: u64, n: u64| -> Vec<u64> {
            (0..n)
                .map(|i| gt_hash::fold61(r * 7_919 + i * 13))
                .collect()
        };
        let mut acked = Party::new(0, &config, 3);
        for r in 0..50 {
            acked.observe_stream(&labels(r, 2_000));
            acked.emit_frame();
            acked.handle_ack(acked.generation());
            assert!(
                acked.heap_bytes() * 4 <= acked.sketch().heap_bytes() * 5,
                "round {r}: {} vs sketch {}",
                acked.heap_bytes(),
                acked.sketch().heap_bytes()
            );
        }

        let config =
            SketchConfig::from_shape(0.3, 0.3, 64, 3, gt_hash::HashFamilyKind::Pairwise).unwrap();
        for first_ack in [false, true] {
            let mut lost = Party::new(1, &config, 3);
            let mut peak = 0;
            for r in 0..1_000 {
                lost.observe_stream(&labels(r, 40));
                lost.emit_frame();
                if first_ack && r == 0 {
                    lost.handle_ack(1);
                }
                peak = peak.max(lost.heap_bytes());
                if r == 100 {
                    // Bounded: the second 900 emissions add nothing.
                    assert!(peak <= 4 * lost.sketch().heap_bytes(), "{peak}");
                }
            }
            assert!(peak <= 4 * lost.sketch().heap_bytes(), "{peak}");
            assert_eq!(lost.acked_generation(), first_ack.then_some(1));
        }
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

    /// Feed `items` to parties through `observe_with` and `observe_batch`:
    /// for several cut points the union of a party fed the prefix and one
    /// fed the rest must equal one party fed everything, payloads and
    /// item counters included.
    fn observed_union_is_a_single_observer<V: WirePayload + std::fmt::Debug>(items: &[(u64, V)]) {
        type Feed<V> = fn(&mut DeltaParty<V>, &[(u64, V)]);
        let feeds: [(&str, Feed<V>); 2] = [
            ("observe_with", |p, items| {
                items.iter().for_each(|&(l, v)| p.observe_with(l, v))
            }),
            ("observe_batch", |p, items| p.observe_batch(items)),
        ];
        for (name, feed) in feeds {
            let mut single = DeltaParty::new(0, &cfg(), 9);
            feed(&mut single, items);
            for cut in [0, items.len() / 3, items.len() / 2, items.len()] {
                let (head, tail) = items.split_at(cut);
                let (mut a, mut b) = (DeltaParty::new(1, &cfg(), 9), DeltaParty::new(2, &cfg(), 9));
                feed(&mut a, head);
                feed(&mut b, tail);
                let union = a.sketch().merged(b.sketch()).unwrap();
                assert_eq!(
                    SortedTrials::of(&union),
                    SortedTrials::of(single.sketch()),
                    "{name}, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn observed_payloads_reconcile_like_a_union() {
        // A second pass over the labels with new payloads makes every
        // sampled label arrive again: keep-max `LatestTs` fails if a
        // party keeps the stored payload instead of merging, keep-first
        // `u64` if the union merges in the other argument order.
        let pass: Vec<u64> = (0..2_000u64).map(gt_hash::fold61).collect();
        let twice = || pass.iter().chain(&pass).copied().zip(0u64..);
        observed_union_is_a_single_observer(&twice().map(|(l, i)| (l, l ^ i)).collect::<Vec<_>>());
        observed_union_is_a_single_observer(
            &twice()
                .map(|(l, i)| (l, gt_core::LatestTs(i)))
                .collect::<Vec<_>>(),
        );
    }
}
