//! The referee role: receive party messages, answer queries about the
//! union — **idempotent under at-least-once delivery**.
//!
//! The referee validates and decodes each message (rejecting anything
//! uncoordinated or corrupt), merges it into its running union sketch,
//! and keeps byte-level communication accounting for experiment E9 plus
//! per-stage telemetry ([`RefereeTelemetry`]).
//!
//! ## At-least-once delivery
//!
//! A retrying collection plane (see [`crate::collector`]) redelivers
//! messages: a straggler from attempt 1 can arrive after attempt 2, and a
//! lost ack makes a party retransmit bytes the referee already merged.
//! The referee therefore deduplicates on `(party_id, payload
//! fingerprint)` before decoding: a byte-identical redelivery is
//! suppressed — no decode, no merge, no counter change — and only
//! counted in [`RefereeTelemetry::duplicates_suppressed`]. This keeps
//! `messages`, `bytes_received`, and `items_reported` **exactly-once**
//! per party, and the union sketch (plus its ops metrics) bitwise
//! identical to a clean single delivery, which
//! `tests/distributed_union.rs` proves over arbitrary schedules.
//!
//! The fingerprint is well defined because the codec is canonical (sorted
//! samples, minimal varints — see [`crate::codec::payload_fingerprint`]).
//! A message from an already-heard party whose bytes *differ* but still
//! decode to a valid coordinated sketch (e.g. a bit flip in a don't-care
//! position) is merged — set-union semantics make that safe — but not
//! re-counted; see [`Receipt::MergedVariant`].

use std::cell::OnceCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gt_core::{
    apply_delta, merge_tree, Estimate, ExprContext, ExpressionEstimate, GtSketch, JaccardEstimate,
    SetExpr, SketchConfig, SketchError,
};

use crate::codec::{
    decode_sketch_into, encode_sketch, get_frame_header, payload_fingerprint, CodecError,
    DecodeScratch, WirePayload,
};
use crate::party::PartyMessage;

/// Generations of applied-state fingerprints retained per party for
/// delta-base validation; a delta whose base predates the window forces
/// a resync (safe: the party falls back to a full frame). Matches the
/// party side's own snapshot retention bound.
const MAX_FP_HISTORY: usize = 64;

/// Histogram bucket labels for [`RefereeTelemetry::summaries_per_batch`]:
/// bucket `i` counts batches whose size fell in the `i`-th range.
pub const BATCH_BUCKET_LABELS: [&str; 5] = ["1", "2-4", "5-16", "17-64", "65+"];

/// Map a batch size to its [`BATCH_BUCKET_LABELS`] bucket index.
pub fn batch_size_bucket(summaries: usize) -> usize {
    match summaries {
        0..=1 => 0,
        2..=4 => 1,
        5..=16 => 2,
        17..=64 => 3,
        _ => 4,
    }
}

/// Per-stage accounting of everything the referee was handed.
///
/// Fate counts derive from here plus the channel's own drop counter
/// ([`crate::transport::TransportTelemetry::dropped`]):
/// `accepted + duplicates() + rejected() == deliveries the referee saw`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefereeTelemetry {
    /// First accepted message per party: decoded, validated, merged, and
    /// counted (exactly-once).
    pub accepted: usize,
    /// Byte-identical redeliveries suppressed before decode.
    pub duplicates_suppressed: usize,
    /// Same party, different bytes, still valid: merged under set-union
    /// semantics but not re-counted.
    pub duplicates_merged: usize,
    /// Rejects: buffer ended before the message did.
    pub rejected_truncated: usize,
    /// Rejects: magic/version word mismatch.
    pub rejected_bad_magic: usize,
    /// Rejects: invalid enum tag byte.
    pub rejected_bad_tag: usize,
    /// Rejects: varint/delta value outside its domain (including
    /// non-canonical over-long varints).
    pub rejected_malformed: usize,
    /// Rejects: decoded but failed sketch validation (bad seed, sample
    /// invariant violation, config mismatch).
    pub rejected_sketch: usize,
    /// Time spent decoding payloads (successful and failed).
    pub decode_time: Duration,
    /// Time spent merging decoded sketches into the union.
    pub merge_time: Duration,
    /// Batched receive calls ([`RefereeOf::receive_batch`] with a
    /// non-empty slice); per-message [`RefereeOf::receive`] never counts
    /// here.
    pub batches: usize,
    /// Histogram of batch sizes (messages per batch), bucketed per
    /// [`BATCH_BUCKET_LABELS`].
    pub summaries_per_batch: [usize; 5],
}

impl RefereeTelemetry {
    /// Total rejected messages, all reasons.
    pub fn rejected(&self) -> usize {
        self.rejected_truncated
            + self.rejected_bad_magic
            + self.rejected_bad_tag
            + self.rejected_malformed
            + self.rejected_sketch
    }

    /// Total redeliveries from already-heard parties, suppressed or
    /// variant-merged.
    pub fn duplicates(&self) -> usize {
        self.duplicates_suppressed + self.duplicates_merged
    }

    /// Total receive attempts recorded.
    pub fn attempts(&self) -> usize {
        self.accepted + self.duplicates() + self.rejected()
    }

    fn record_reject(&mut self, err: &CodecError) {
        match err {
            CodecError::Truncated => self.rejected_truncated += 1,
            CodecError::BadMagic(_) => self.rejected_bad_magic += 1,
            CodecError::BadTag(_) => self.rejected_bad_tag += 1,
            CodecError::Malformed(_) => self.rejected_malformed += 1,
            CodecError::Sketch(_) => self.rejected_sketch += 1,
        }
    }
}

/// What the referee did with one delivered message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receipt {
    /// First accepted message from this party: merged and counted.
    Merged,
    /// Byte-identical redelivery of an already-accepted payload:
    /// suppressed before decode; no state or counter changed.
    Duplicate,
    /// Same party, different bytes, still a valid coordinated sketch:
    /// merged (set-union semantics make re-merging safe) but the party's
    /// `messages`/`bytes_received`/`items_reported` stay exactly-once.
    MergedVariant,
    /// A delta frame whose base generation is unknown to the referee (or
    /// whose base fingerprint disagrees with the state the referee
    /// applied at that generation): nothing was merged, and the caller
    /// must route a resync notice back to the party so it falls back to
    /// a full frame. Only [`RefereeOf::receive_frame`] produces this.
    NeedResync,
}

/// Delta-plane accounting: what the continuous-monitoring frame path
/// ([`RefereeOf::receive_frame`]) did with the frames it was handed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaPlaneTelemetry {
    /// Delta frames validated against their base and applied.
    pub delta_frames: u64,
    /// Full frames applied (initial ships and post-resync re-keys).
    pub full_frames: u64,
    /// Wire bytes of applied delta frames.
    pub delta_bytes: u64,
    /// Wire bytes of applied full frames.
    pub full_bytes: u64,
    /// Delta frames refused for an unknown or mismatched base
    /// (each one is a resync request back to the party).
    pub resyncs_requested: u64,
    /// Frames suppressed as duplicates (byte-identical redelivery, or a
    /// reordered frame at or below the party's applied watermark).
    pub duplicate_frames: u64,
}

impl DeltaPlaneTelemetry {
    /// Total frames applied, both kinds.
    pub fn frames_applied(&self) -> u64 {
        self.delta_frames + self.full_frames
    }

    /// Total wire bytes applied, both kinds.
    pub fn bytes_applied(&self) -> u64 {
        self.delta_bytes + self.full_bytes
    }
}

/// Per-party state of the continuous-monitoring frame path.
#[derive(Clone, Debug, Default)]
struct PartyDeltaState {
    /// Highest applied generation; frames at or below it are duplicates.
    watermark: u64,
    /// Cumulative items the party last reported, for exactly-once
    /// `items_reported` accounting across refreshing frames.
    items: u64,
    /// `(generation, canonical-bytes fingerprint)` of recently applied
    /// states, newest last — the base-validation window for incoming
    /// delta frames (bounded by [`MAX_FP_HISTORY`]).
    history: Vec<(u64, u64)>,
}

/// A degraded-mode answer: the estimate plus how much of the fleet it
/// actually covers.
///
/// When the collection plane exhausts its retry budget, the `(ε, δ)`
/// contract still holds — but for the union of the parties *heard*, not
/// the full fleet. Callers inspect [`PartialEstimate::is_complete`] /
/// [`PartialEstimate::coverage`] before treating the value as the full
/// union.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialEstimate {
    /// `(ε, δ)`-estimate of the distinct labels in the union of the
    /// parties heard so far.
    pub estimate: Estimate,
    /// Distinct parties whose message was accepted.
    pub parties_heard: usize,
    /// Parties the caller expected to hear from.
    pub parties_expected: usize,
    /// Items those parties reported observing (exactly-once).
    pub items_reported: u64,
}

impl PartialEstimate {
    /// Whether every expected party was heard (the estimate covers the
    /// full union).
    pub fn is_complete(&self) -> bool {
        self.parties_heard >= self.parties_expected
    }

    /// Fraction of expected parties heard, in `[0, 1]` (1 when none were
    /// expected).
    pub fn coverage(&self) -> f64 {
        if self.parties_expected == 0 {
            1.0
        } else {
            (self.parties_heard as f64 / self.parties_expected as f64).min(1.0)
        }
    }
}

/// A degraded-mode expression answer: the estimate plus how many of the
/// parties the expression references were actually heard.
///
/// Produced by [`RefereeOf::query_partial`]. Unheard referenced parties
/// are evaluated as **empty streams** — consistent with
/// [`RefereeOf::estimate_distinct_partial`], where the union estimate
/// likewise covers only the parties heard. Monotone operators (∪, ∩)
/// therefore under-report at partial coverage, while a difference
/// `A ∖ B` with `B` unheard over-reports; callers inspect
/// [`PartialExpressionEstimate::is_complete`] before treating the value
/// as the full-fleet answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialExpressionEstimate {
    /// Expression estimate over the parties heard (unheard leaves empty).
    pub estimate: ExpressionEstimate,
    /// Referenced parties with an accepted message.
    pub parties_heard: usize,
    /// Distinct parties the expression references.
    pub parties_referenced: usize,
}

impl PartialExpressionEstimate {
    /// Whether every referenced party was heard (the estimate is the
    /// full-coverage answer).
    pub fn is_complete(&self) -> bool {
        self.parties_heard >= self.parties_referenced
    }

    /// Fraction of referenced parties heard, in `[0, 1]` (1 when the
    /// expression references none).
    pub fn coverage(&self) -> f64 {
        if self.parties_referenced == 0 {
            1.0
        } else {
            (self.parties_heard as f64 / self.parties_referenced as f64).min(1.0)
        }
    }
}

/// A degraded-mode Jaccard answer: the similarity estimate plus how many
/// of the parties the two expressions reference were actually heard.
///
/// Produced by [`RefereeOf::query_jaccard_partial`]. Unheard referenced
/// parties evaluate as **empty streams**, exactly as in
/// [`RefereeOf::query_partial`]; coverage is counted over the union of
/// both expressions' referenced parties.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialJaccardEstimate {
    /// Jaccard estimate over the parties heard (unheard leaves empty).
    pub estimate: JaccardEstimate,
    /// Referenced parties with an accepted message.
    pub parties_heard: usize,
    /// Distinct parties the two expressions reference.
    pub parties_referenced: usize,
}

impl PartialJaccardEstimate {
    /// Whether every referenced party was heard (the estimate is the
    /// full-coverage answer).
    pub fn is_complete(&self) -> bool {
        self.parties_heard >= self.parties_referenced
    }

    /// Fraction of referenced parties heard, in `[0, 1]` (1 when the
    /// expressions reference none).
    pub fn coverage(&self) -> f64 {
        if self.parties_referenced == 0 {
            1.0
        } else {
            (self.parties_heard as f64 / self.parties_referenced as f64).min(1.0)
        }
    }
}

/// The central aggregator of the distributed-streams model, generic over
/// the sketch payload it unions (labels only, `u64` weights, ...).
///
/// Most code wants the label-only alias [`Referee`].
///
/// Besides the running union, the referee retains each party's own
/// merged summary (one sketch per party heard — logarithmic space each,
/// the same order as the messages themselves), which is what powers the
/// set-expression query API ([`RefereeOf::query`]) over the fleet.
#[derive(Clone, Debug)]
pub struct RefereeOf<V: WirePayload> {
    master_seed: u64,
    union: GtSketch<V>,
    messages: usize,
    bytes_received: usize,
    items_reported: u64,
    /// Accepted payload fingerprints per party; the first entry is the
    /// party's first accepted message, later entries are merged variants.
    accepted_payloads: HashMap<usize, Vec<u64>>,
    /// Per-party retained summaries: the union of every accepted payload
    /// from that party (variants merge in). Feeds the expression engine.
    /// The frame path *replaces* a party's entry instead (cumulative
    /// snapshots supersede, they don't accumulate).
    party_sketches: HashMap<usize, GtSketch<V>>,
    /// Per-party watermark + base-fingerprint window of the frame path.
    delta_state: HashMap<usize, PartyDeltaState>,
    telemetry: RefereeTelemetry,
    delta_telemetry: DeltaPlaneTelemetry,
    /// Pooled scratch sketches for the admission step every ingress
    /// shares: messages decode into these in place. An accepted sketch
    /// from a first-heard party, or a full frame, leaves the pool and
    /// becomes that party's retained summary (moved, never cloned); one
    /// that merges into an existing summary returns to the pool, as does
    /// the summary a full frame replaces. So the pool never holds a copy
    /// of a retained summary, and it only grows past its current size in
    /// a call with more accepted messages than it holds.
    decode_arena: Vec<GtSketch<V>>,
    /// Reusable decode buffers shared across the arena.
    scratch: DecodeScratch<V>,
}

/// A delivery that passed admission, awaiting its commit; its decoded
/// sketch is in the referee's decode arena.
struct Admitted<H> {
    receipt_index: usize,
    party_id: usize,
    fingerprint: u64,
    bytes: usize,
    items: u64,
    /// The frame header (see `get_frame_header`), or `()` for a sketch
    /// message.
    header: H,
}

/// The referee for plain distinct-count sketches (no payload).
pub type Referee = RefereeOf<()>;

impl<V: WirePayload> RefereeOf<V> {
    /// Create a referee expecting sketches built from `(config,
    /// master_seed)`.
    pub fn new(config: &SketchConfig, master_seed: u64) -> Self {
        RefereeOf {
            master_seed,
            union: GtSketch::new(config, master_seed),
            messages: 0,
            bytes_received: 0,
            items_reported: 0,
            accepted_payloads: HashMap::new(),
            party_sketches: HashMap::new(),
            delta_state: HashMap::new(),
            telemetry: RefereeTelemetry::default(),
            delta_telemetry: DeltaPlaneTelemetry::default(),
            decode_arena: Vec::new(),
            scratch: DecodeScratch::new(),
        }
    }

    /// Receive one delivery: dedup, decode, validate, union — a batch of
    /// one through the same admission and fold as
    /// [`RefereeOf::receive_batch`], without advancing its batch counters.
    ///
    /// Safe to call any number of times with redeliveries of the same
    /// message — see the module docs on at-least-once idempotence.
    pub fn receive(&mut self, msg: &PartyMessage) -> Result<Receipt, CodecError> {
        let mut receipts = self.union_messages(std::slice::from_ref(msg));
        receipts.pop().expect("one receipt per message")
    }

    /// Receive one continuous-monitoring **frame** (see
    /// [`crate::codec::Frame`]): a full cumulative snapshot, or a delta
    /// coded against a previously acked base.
    ///
    /// The live union is maintained incrementally and stays **bitwise
    /// identical** (canonical encoding) to a referee that decoded a
    /// fresh full ship of every party's latest applied state — the
    /// refresh merge debits the superseded snapshot's per-trial item
    /// counters so nothing is double-counted (`tests/delta_plane.rs`
    /// proves this over arbitrary delivery schedules).
    ///
    /// Idempotence and ordering: frames at or below the party's applied
    /// watermark return [`Receipt::Duplicate`] untouched, so duplicates
    /// and reorders are safe. A delta whose `(base generation, base
    /// fingerprint)` is not in the referee's applied history returns
    /// [`Receipt::NeedResync`] — the caller routes that back to the
    /// party, which falls back to a full frame. Because parties code
    /// deltas cumulatively against their last *acked* base, a delta is
    /// exact on any applied state between its base and its own
    /// generation, so lost acks never corrupt the union.
    pub fn receive_frame(&mut self, msg: &PartyMessage) -> Result<Receipt, CodecError> {
        let (mut receipts, mut admitted) = self.admit(std::slice::from_ref(msg), get_frame_header);
        let Some(a) = admitted.pop() else {
            let receipt = receipts.pop().expect("one receipt per message");
            if matches!(receipt, Ok(Receipt::Duplicate)) {
                self.delta_telemetry.duplicate_frames += 1;
            }
            return receipt;
        };
        let (party_id, (generation, base)) = (a.party_id, a.header);
        if self
            .delta_state
            .get(&party_id)
            .is_some_and(|s| generation <= s.watermark)
        {
            self.telemetry.duplicates_suppressed += 1;
            self.delta_telemetry.duplicate_frames += 1;
            return Ok(Receipt::Duplicate);
        }

        // The decoded body sits in `decode_arena[0]`. `next` is the
        // party's new state; `oldest_live` the oldest base it can still
        // reference.
        let old_items = self.party_trial_items(party_id);
        let merge_start = Instant::now();
        let (next, oldest_live) = match base {
            // A full frame's slot becomes the state by move, and re-keys
            // the chain: older bases are dead.
            None => (self.decode_arena.swap_remove(0), generation),
            Some((base_generation, base_fingerprint)) => {
                let base_known = self.delta_state.get(&party_id).is_some_and(|s| {
                    s.history
                        .iter()
                        .any(|&(g, fp)| g == base_generation && fp == base_fingerprint)
                });
                if !base_known {
                    self.delta_telemetry.resyncs_requested += 1;
                    return Ok(Receipt::NeedResync);
                }
                // The delta's slot stays in the arena for the next frame.
                let mut next = self
                    .party_sketches
                    .get(&party_id)
                    .expect("a validated delta base implies a retained party sketch")
                    .clone();
                if let Err(e) = apply_delta(&mut next, &self.decode_arena[0]) {
                    self.telemetry.merge_time += merge_start.elapsed();
                    let e = CodecError::from(e);
                    self.telemetry.record_reject(&e);
                    return Err(e);
                }
                // Bases older than the one just consumed can never be
                // referenced again (the party's acked base only advances).
                (next, base_generation)
            }
        };
        self.union
            .merge_refresh_from(&next, &old_items)
            .expect("admitted sketches share the union's seed and config");
        self.telemetry.merge_time += merge_start.elapsed();
        let state_fp = payload_fingerprint(&encode_sketch(&next));
        let replaced = self.party_sketches.insert(party_id, next);
        if base.is_none() {
            // The summary a full frame replaces goes back to the arena.
            self.decode_arena.extend(replaced);
            self.delta_telemetry.full_frames += 1;
            self.delta_telemetry.full_bytes += a.bytes as u64;
        } else {
            self.delta_telemetry.delta_frames += 1;
            self.delta_telemetry.delta_bytes += a.bytes as u64;
        }
        let state = self.delta_state.entry(party_id).or_default();
        state.watermark = generation;
        state.history.retain(|&(g, _)| g >= oldest_live);
        state.history.push((generation, state_fp));
        if state.history.len() > MAX_FP_HISTORY {
            let excess = state.history.len() - MAX_FP_HISTORY;
            state.history.drain(..excess);
        }
        self.commit_frame(party_id, a.fingerprint, a.bytes, a.items);
        Ok(Receipt::Merged)
    }

    /// Bookkeeping for one applied frame: every applied frame counts as
    /// a message (frames supersede, they are not redeliveries), while
    /// `items_reported` advances by the *difference* of the party's
    /// cumulative counter so it stays exactly-once across refreshes.
    fn commit_frame(&mut self, party_id: usize, fingerprint: u64, bytes: usize, items: u64) {
        let fps = self.accepted_payloads.entry(party_id).or_default();
        fps.push(fingerprint);
        if fps.len() > MAX_FP_HISTORY {
            let excess = fps.len() - MAX_FP_HISTORY;
            fps.drain(..excess);
        }
        self.telemetry.accepted += 1;
        self.messages += 1;
        self.bytes_received += bytes;
        let state = self
            .delta_state
            .get_mut(&party_id)
            .expect("commit_frame follows delta_state insertion");
        self.items_reported += items.saturating_sub(state.items);
        state.items = items;
    }

    /// Per-trial `items_observed` counters of a party's retained
    /// summary, or zeros if the party is unheard — the debit vector for
    /// a refresh merge.
    fn party_trial_items(&self, party_id: usize) -> Vec<u64> {
        match self.party_sketches.get(&party_id) {
            Some(s) => s.trials().iter().map(|t| t.items_observed()).collect(),
            None => vec![0; self.union.trials().len()],
        }
    }

    /// Highest frame generation applied for `party_id` (the generation
    /// the caller should ack back to the party), if any frame was
    /// applied.
    pub fn acked_generation(&self, party_id: usize) -> Option<u64> {
        self.delta_state.get(&party_id).map(|s| s.watermark)
    }

    /// Frame-path accounting: applied delta/full frames and bytes,
    /// resync requests, suppressed duplicates.
    pub fn delta_telemetry(&self) -> &DeltaPlaneTelemetry {
        &self.delta_telemetry
    }

    /// Receive a whole batch of deliveries at once: fingerprint-dedup up
    /// front, decode into the pooled arena (a first-heard party's decoded
    /// sketch becomes its retained summary by move), tree-union the
    /// accepted sketches ([`gt_core::merge_tree`]), and fold the batch
    /// union into the running union with a single merge.
    ///
    /// Returns one receipt per input message, in order. The union sketch
    /// state, all exactly-once counters (`messages`, `bytes_received`,
    /// `items_reported`), and every count-based telemetry field match a
    /// sequence of per-message [`RefereeOf::receive`] calls on the same
    /// messages in the same order — the tree reassociation is lossless
    /// (see DESIGN.md §12). The only observable differences are
    /// per-batch: the union sketch's *ops metrics* count one merge call
    /// per batch instead of one per accepted message, and
    /// [`RefereeTelemetry::batches`] / summaries-per-batch advance.
    pub fn receive_batch(&mut self, msgs: &[PartyMessage]) -> Vec<Result<Receipt, CodecError>> {
        if msgs.is_empty() {
            return Vec::new();
        }
        self.telemetry.batches += 1;
        self.telemetry.summaries_per_batch[batch_size_bucket(msgs.len())] += 1;
        self.union_messages(msgs)
    }

    /// Admit sketch messages and fold them into the union: the admitted
    /// sketch itself for a batch of one, otherwise their balanced tree
    /// union, in one merge. Then, left to right so in-batch variants
    /// reconcile payloads exactly as sequential receives do, hand each
    /// sketch to its party's retained summary — by move for a first-heard
    /// party, otherwise merged in with the sketch returned to the arena.
    fn union_messages(&mut self, msgs: &[PartyMessage]) -> Vec<Result<Receipt, CodecError>> {
        let (mut receipts, admitted) = self.admit(msgs, |_| Ok(()));
        if admitted.is_empty() {
            return receipts;
        }
        let merge_start = Instant::now();
        let merged = match &self.decode_arena[..admitted.len()] {
            [one] => self.union.merge_from(one),
            many => merge_tree(many).and_then(|batch_union| self.union.merge_from(&batch_union)),
        };
        self.telemetry.merge_time += merge_start.elapsed();
        merged.expect("admitted sketches share the union's seed and config");
        let decoded: Vec<GtSketch<V>> = self.decode_arena.drain(..admitted.len()).collect();
        for (sketch, a) in decoded.into_iter().zip(admitted) {
            if let Some(summary) = self.party_sketches.get_mut(&a.party_id) {
                summary
                    .merge_from(&sketch)
                    .expect("party sketches share the union's seed and config");
                self.decode_arena.push(sketch);
            } else {
                self.party_sketches.insert(a.party_id, sketch);
            }
            receipts[a.receipt_index] =
                Ok(self.commit_accepted(a.party_id, a.fingerprint, a.bytes, a.items));
        }
        receipts
    }

    /// The admission step every ingress shares. Per message:
    /// fingerprint-dedup against the party's accepted payloads and the
    /// messages admitted earlier in this call, parse the header with
    /// `parse_header` (frames carry one, sketch messages do not), and
    /// decode the sketch body into a pooled arena slot —
    /// [`decode_sketch_into`] checks seed and config before the body —
    /// recording every reject.
    ///
    /// Returns one receipt per message, where an admitted message holds a
    /// placeholder for the caller to settle, plus the admitted messages
    /// in order: the `k`-th one's sketch is `decode_arena[k]`. Only a
    /// message that decodes suppresses later identical bytes, so a
    /// corrupt message redelivered within one call errors twice, exactly
    /// as sequential receives would.
    fn admit<H>(
        &mut self,
        msgs: &[PartyMessage],
        parse_header: fn(&mut Bytes) -> Result<H, CodecError>,
    ) -> (Vec<Result<Receipt, CodecError>>, Vec<Admitted<H>>) {
        let mut receipts = Vec::with_capacity(msgs.len());
        let mut admitted: Vec<Admitted<H>> = Vec::new();
        let decode_start = Instant::now();
        for msg in msgs {
            let fingerprint = payload_fingerprint(&msg.payload);
            let dup = self
                .accepted_payloads
                .get(&msg.party_id)
                .is_some_and(|fps| fps.contains(&fingerprint))
                || admitted
                    .iter()
                    .any(|a| a.party_id == msg.party_id && a.fingerprint == fingerprint);
            if dup {
                self.telemetry.duplicates_suppressed += 1;
                receipts.push(Ok(Receipt::Duplicate));
                continue;
            }
            if self.decode_arena.len() == admitted.len() {
                self.decode_arena
                    .push(GtSketch::new(self.union.config(), self.master_seed));
            }
            let slot = &mut self.decode_arena[admitted.len()];
            let mut body = msg.payload.clone();
            let decoded = parse_header(&mut body).and_then(|header| {
                decode_sketch_into(slot, body, &mut self.scratch).map(|()| header)
            });
            match decoded {
                Ok(header) => {
                    admitted.push(Admitted {
                        receipt_index: receipts.len(),
                        party_id: msg.party_id,
                        fingerprint,
                        bytes: msg.bytes(),
                        items: msg.items_observed,
                        header,
                    });
                    receipts.push(Ok(Receipt::Merged));
                }
                Err(e) => {
                    self.telemetry.record_reject(&e);
                    receipts.push(Err(e));
                }
            }
        }
        self.telemetry.decode_time += decode_start.elapsed();
        (receipts, admitted)
    }

    /// Exactly-once bookkeeping for one accepted sketch message: push the
    /// fingerprint and bill the party once.
    fn commit_accepted(
        &mut self,
        party_id: usize,
        fingerprint: u64,
        bytes: usize,
        items: u64,
    ) -> Receipt {
        let heard_before = self.accepted_payloads.contains_key(&party_id);
        self.accepted_payloads
            .entry(party_id)
            .or_default()
            .push(fingerprint);
        if heard_before {
            self.telemetry.duplicates_merged += 1;
            Receipt::MergedVariant
        } else {
            self.telemetry.accepted += 1;
            self.messages += 1;
            self.bytes_received += bytes;
            self.items_reported += items;
            Receipt::Merged
        }
    }

    /// Per-stage telemetry: decode outcomes by reason, duplicate counts,
    /// and phase timings.
    pub fn telemetry(&self) -> &RefereeTelemetry {
        &self.telemetry
    }

    /// Observability counters of the union sketch itself (merge entry
    /// accounting, reconciliations, promotions).
    pub fn union_metrics(&self) -> gt_core::MetricsSnapshot {
        self.union.metrics_snapshot()
    }

    /// `(ε, δ)`-estimate of the distinct labels in the union of all
    /// received streams.
    pub fn estimate_distinct(&self) -> Estimate {
        self.union.estimate_distinct()
    }

    /// Degraded-mode query: the estimate together with coverage, for
    /// callers that must know whether the `(ε, δ)` contract applies to
    /// the full union or only the parties heard.
    pub fn estimate_distinct_partial(&self, parties_expected: usize) -> PartialEstimate {
        PartialEstimate {
            estimate: self.union.estimate_distinct(),
            parties_heard: self.parties_heard(),
            parties_expected,
            items_reported: self.items_reported,
        }
    }

    /// The merged union sketch (for similarity/predicate/weighted
    /// queries).
    pub fn union_sketch(&self) -> &GtSketch<V> {
        &self.union
    }

    /// The retained summary of one party (the union of all its accepted
    /// payloads), if it has been heard.
    pub fn party_sketch(&self, party_id: usize) -> Option<&GtSketch<V>> {
        self.party_sketches.get(&party_id)
    }

    /// The distinct referenced party ids of one or more expressions,
    /// sorted ascending.
    fn referenced_parties(exprs: &[&SetExpr]) -> Vec<usize> {
        let mut ids: Vec<usize> = Vec::new();
        for e in exprs {
            e.for_each_leaf(&mut |i| ids.push(i));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Build the evaluation context for `exprs`, with leaves remapped
    /// from party ids to dense operand indices. With `empty` = `None`
    /// (strict mode) an unheard referenced party is an error; otherwise
    /// it evaluates as an empty stream, backed by an empty sketch built in
    /// `empty` on first need (the caller keeps it alive for the borrow).
    fn expr_context<'s>(
        &'s self,
        exprs: &[&SetExpr],
        empty: Option<&'s OnceCell<GtSketch<V>>>,
    ) -> gt_core::Result<(ExprContext<'s, V>, Vec<SetExpr>, usize, usize)> {
        let ids = Self::referenced_parties(exprs);
        let mut heard = 0usize;
        let mut operands: Vec<&GtSketch<V>> = Vec::with_capacity(ids.len());
        for &id in &ids {
            match self.party_sketches.get(&id) {
                Some(s) => {
                    heard += 1;
                    operands.push(s);
                }
                None => match empty {
                    Some(cell) => operands.push(
                        cell.get_or_init(|| GtSketch::new(self.union.config(), self.master_seed)),
                    ),
                    None => {
                        return Err(SketchError::InvalidConfig {
                            parameter: "expr",
                            reason: format!("party {id} referenced but not heard"),
                        })
                    }
                },
            }
        }
        let remap: HashMap<usize, usize> = ids
            .iter()
            .enumerate()
            .map(|(dense, &id)| (id, dense))
            .collect();
        let remapped = exprs.iter().map(|e| remap_leaves(e, &remap)).collect();
        Ok((ExprContext::new(&operands)?, remapped, heard, ids.len()))
    }

    /// Evaluate a set expression over the retained party summaries.
    /// Leaves are **party ids**: `SetExpr::leaf(3)` is the distinct-label
    /// set of party 3's stream.
    ///
    /// Strict-coverage mode: every referenced party must have an accepted
    /// message (use [`RefereeOf::query_partial`] to tolerate gaps). The
    /// estimate carries the `(ε, δ)` of the shared configuration with the
    /// additive error contract described in [`gt_core::expr`], plus the
    /// per-trial variance and ±2·SE confidence interval.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] when the expression references an
    /// unheard party or the expression is otherwise invalid.
    pub fn query(&self, expr: &SetExpr) -> gt_core::Result<ExpressionEstimate> {
        let (ctx, remapped, _, _) = self.expr_context(&[expr], None)?;
        ctx.eval(&remapped[0])
    }

    /// Jaccard similarity between two set expressions over the retained
    /// party summaries (strict coverage, like [`RefereeOf::query`]).
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] when either expression references
    /// an unheard party.
    pub fn query_jaccard(&self, e1: &SetExpr, e2: &SetExpr) -> gt_core::Result<JaccardEstimate> {
        let (ctx, remapped, _, _) = self.expr_context(&[e1, e2], None)?;
        ctx.eval_jaccard(&remapped[0], &remapped[1])
    }

    /// Degraded-mode expression query: unheard referenced parties are
    /// evaluated as empty streams, and the answer reports how many of the
    /// referenced parties were actually heard — the expression-engine
    /// counterpart of [`RefereeOf::estimate_distinct_partial`].
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] for malformed expressions (coverage
    /// gaps are *not* errors here — that is the point of this entry).
    pub fn query_partial(&self, expr: &SetExpr) -> gt_core::Result<PartialExpressionEstimate> {
        let empty = OnceCell::new();
        let (ctx, remapped, heard, referenced) = self.expr_context(&[expr], Some(&empty))?;
        Ok(PartialExpressionEstimate {
            estimate: ctx.eval(&remapped[0])?,
            parties_heard: heard,
            parties_referenced: referenced,
        })
    }

    /// Degraded-mode Jaccard query: unheard referenced parties evaluate
    /// as empty streams — the Jaccard counterpart of
    /// [`RefereeOf::query_partial`]. Note that an empty leaf can swing
    /// the similarity in either direction (it empties intersections but
    /// also shrinks unions), so callers must check coverage before
    /// comparing answers across runs.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] for malformed expressions (coverage
    /// gaps are *not* errors here).
    pub fn query_jaccard_partial(
        &self,
        e1: &SetExpr,
        e2: &SetExpr,
    ) -> gt_core::Result<PartialJaccardEstimate> {
        let empty = OnceCell::new();
        let (ctx, remapped, heard, referenced) = self.expr_context(&[e1, e2], Some(&empty))?;
        Ok(PartialJaccardEstimate {
            estimate: ctx.eval_jaccard(&remapped[0], &remapped[1])?,
            parties_heard: heard,
            parties_referenced: referenced,
        })
    }

    /// Distinct parties with at least one accepted message.
    pub fn parties_heard(&self) -> usize {
        self.accepted_payloads.len()
    }

    /// Whether this party already has an accepted message.
    pub fn has_heard(&self, party_id: usize) -> bool {
        self.accepted_payloads.contains_key(&party_id)
    }

    /// Messages accepted so far, exactly-once per party (redeliveries are
    /// deduplicated, not counted).
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// Total bytes received and merged, exactly-once per party — the
    /// scenario's communication cost net of retransmissions. (Retransmit
    /// traffic is accounted by the transport, not here.)
    pub fn bytes_received(&self) -> usize {
        self.bytes_received
    }

    /// Total items the parties reported observing, exactly-once per
    /// party.
    pub fn items_reported(&self) -> u64 {
        self.items_reported
    }
}

impl RefereeOf<gt_core::LatestTs> {
    /// Distributed windowed query: estimate of distinct labels across
    /// **all parties** whose latest arrival (at any party) is at or
    /// after `since` — the referee-side counterpart of
    /// [`gt_core::RecencySketch::estimate_distinct_since`], answered
    /// from the live union (per-label timestamps reconcile by `max`
    /// across parties, both on the classic path and under the delta
    /// plane's refresh merges).
    pub fn query_distinct_since(&self, since: u64) -> Estimate {
        gt_core::estimate_distinct_since_on(&self.union, since)
    }
}

/// Rewrite every leaf's party id to its dense operand index.
fn remap_leaves(expr: &SetExpr, remap: &HashMap<usize, usize>) -> SetExpr {
    match expr {
        SetExpr::Leaf(id) => SetExpr::leaf(remap[id]),
        SetExpr::Union(a, b) => remap_leaves(a, remap).union(remap_leaves(b, remap)),
        SetExpr::Intersect(a, b) => remap_leaves(a, remap).intersect(remap_leaves(b, remap)),
        SetExpr::Difference(a, b) => remap_leaves(a, remap).difference(remap_leaves(b, remap)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_frame, decode_sketch};
    use crate::party::Party;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn labels(range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(gt_hash::fold61).collect()
    }

    fn message(party: usize, range: std::ops::Range<u64>, seed: u64) -> PartyMessage {
        let mut p = Party::new(party, &cfg(), seed);
        p.observe_stream(&labels(range));
        p.finish()
    }

    /// `msg` cut to half its bytes.
    fn truncated(msg: &PartyMessage) -> PartyMessage {
        PartyMessage {
            payload: msg.payload.slice(..msg.payload.len() / 2),
            ..msg.clone()
        }
    }

    #[test]
    fn referee_unions_party_messages() {
        let config = cfg();
        let mut referee = Referee::new(&config, 5);
        for p in 0..4usize {
            let mut party = Party::new(p, &config, 5);
            // Overlapping ranges; union = [0, 250 + 150·3) = 700 labels,
            // under the per-trial capacity so the union estimate is exact.
            party.observe_stream(&labels(p as u64 * 150..p as u64 * 150 + 250));
            assert_eq!(referee.receive(&party.finish()).unwrap(), Receipt::Merged);
        }
        assert_eq!(referee.messages(), 4);
        assert_eq!(referee.parties_heard(), 4);
        assert_eq!(referee.estimate_distinct().value, 700.0);
        assert!(referee.bytes_received() > 0);
        assert_eq!(referee.items_reported(), 4 * 250);
    }

    #[test]
    fn redelivery_is_suppressed_exactly_once() {
        let mut referee = Referee::new(&cfg(), 5);
        let msg = message(0, 0..300, 5);
        assert_eq!(referee.receive(&msg).unwrap(), Receipt::Merged);
        let snapshot = (
            encode_sketch(referee.union_sketch()),
            referee.messages(),
            referee.bytes_received(),
            referee.items_reported(),
            referee.union_metrics(),
        );
        for round in 1..=5usize {
            assert_eq!(referee.receive(&msg).unwrap(), Receipt::Duplicate);
            assert_eq!(referee.telemetry().duplicates_suppressed, round);
        }
        // Bitwise-identical union, exactly-once counters, untouched
        // sketch-ops metrics: redelivery changed *nothing* but the
        // duplicate counter.
        assert_eq!(encode_sketch(referee.union_sketch()), snapshot.0);
        assert_eq!(referee.messages(), snapshot.1);
        assert_eq!(referee.bytes_received(), snapshot.2);
        assert_eq!(referee.items_reported(), snapshot.3);
        assert_eq!(referee.union_metrics(), snapshot.4);
        assert_eq!(referee.telemetry().accepted, 1);
        assert_eq!(referee.telemetry().attempts(), 6);
    }

    #[test]
    fn variant_payload_merges_without_recounting() {
        // Same party sends two different-but-valid payloads (e.g. a
        // retransmit raced a sketch that kept observing). The union
        // absorbs both; the exactly-once counters bill the party once.
        let mut referee = Referee::new(&cfg(), 5);
        let first = message(7, 0..200, 5);
        let second = message(7, 0..350, 5);
        assert_eq!(referee.receive(&first).unwrap(), Receipt::Merged);
        assert_eq!(referee.receive(&second).unwrap(), Receipt::MergedVariant);
        assert_eq!(referee.messages(), 1);
        assert_eq!(referee.parties_heard(), 1);
        assert_eq!(referee.items_reported(), first.items_observed);
        assert_eq!(referee.bytes_received(), first.bytes());
        assert_eq!(referee.telemetry().duplicates_merged, 1);
        // Both payloads' labels are in the union.
        assert_eq!(referee.estimate_distinct().value, 350.0);
        // Redelivering either exact payload is now suppressed.
        assert_eq!(referee.receive(&first).unwrap(), Receipt::Duplicate);
        assert_eq!(referee.receive(&second).unwrap(), Receipt::Duplicate);
    }

    #[test]
    fn partial_estimate_reports_coverage() {
        let mut referee = Referee::new(&cfg(), 5);
        referee.receive(&message(0, 0..400, 5)).unwrap();
        referee.receive(&message(1, 200..600, 5)).unwrap();
        let partial = referee.estimate_distinct_partial(4);
        assert_eq!(partial.parties_heard, 2);
        assert_eq!(partial.parties_expected, 4);
        assert!(!partial.is_complete());
        assert_eq!(partial.coverage(), 0.5);
        assert_eq!(partial.estimate.value, 600.0);
        assert_eq!(partial.items_reported, 800);

        referee.receive(&message(2, 0..100, 5)).unwrap();
        referee.receive(&message(3, 0..100, 5)).unwrap();
        let partial = referee.estimate_distinct_partial(4);
        assert!(partial.is_complete());
        assert_eq!(partial.coverage(), 1.0);
    }

    #[test]
    fn depth_three_expression_query_tracks_exact_truth() {
        // Four parties, everything below per-trial capacity, so the
        // engine is exact: ((s0 ∪ s1) ∩ s2) ∖ s3 over
        // [0,300) ∪ [200,500) = [0,500); ∩ [250,350) = [250,350);
        // ∖ [300,700) = [250,300) → 50 labels.
        let mut referee = Referee::new(&cfg(), 5);
        referee.receive(&message(0, 0..300, 5)).unwrap();
        referee.receive(&message(1, 200..500, 5)).unwrap();
        referee.receive(&message(2, 250..350, 5)).unwrap();
        referee.receive(&message(3, 300..700, 5)).unwrap();

        let expr = SetExpr::leaf(0)
            .union(SetExpr::leaf(1))
            .intersect(SetExpr::leaf(2))
            .difference(SetExpr::leaf(3));
        assert!(expr.depth() >= 3);
        let answer = referee.query(&expr).unwrap();
        assert_eq!(answer.estimate.value, 50.0);
        assert!(answer.ci_lower() <= answer.estimate.value);
        assert!(answer.ci_upper() >= answer.estimate.value);
        assert_eq!(answer.trials, referee.union_sketch().config().trials());

        // Jaccard of two non-leaf expressions, still exact:
        // |[250,350) ∩ [0,500)| / |[250,350) ∪ [0,500)| = 100 / 500.
        let j = referee
            .query_jaccard(&SetExpr::leaf(2), &SetExpr::leaf(0).union(SetExpr::leaf(1)))
            .unwrap();
        assert_eq!(j.jaccard, 0.2);
    }

    #[test]
    fn strict_query_rejects_unheard_parties_partial_tolerates_them() {
        let mut referee = Referee::new(&cfg(), 5);
        referee.receive(&message(0, 0..400, 5)).unwrap();

        let expr = SetExpr::leaf(0).union(SetExpr::leaf(1));
        let err = referee.query(&expr).unwrap_err();
        assert!(
            err.to_string().contains("party 1"),
            "error should name the missing party: {err}"
        );
        assert!(referee
            .query_jaccard(&SetExpr::leaf(0), &SetExpr::leaf(1))
            .is_err());

        // Degraded mode: the unheard party contributes an empty stream
        // and the answer reports the coverage gap.
        let partial = referee.query_partial(&expr).unwrap();
        assert_eq!(partial.estimate.estimate.value, 400.0);
        assert_eq!(partial.parties_heard, 1);
        assert_eq!(partial.parties_referenced, 2);
        assert!(!partial.is_complete());
        assert_eq!(partial.coverage(), 0.5);

        referee.receive(&message(1, 200..600, 5)).unwrap();
        let partial = referee.query_partial(&expr).unwrap();
        assert!(partial.is_complete());
        assert_eq!(partial.coverage(), 1.0);
        assert_eq!(partial.estimate.estimate.value, 600.0);
        assert_eq!(referee.query(&expr).unwrap().estimate.value, 600.0);
    }

    #[test]
    fn pairwise_query_matches_similarity() {
        // At scale (subsampled trials), the referee's expression path and
        // the direct pairwise `similarity()` over the retained summaries
        // must agree exactly — the engine is the same code.
        let mut referee = Referee::new(&cfg(), 5);
        referee.receive(&message(0, 0..60_000, 5)).unwrap();
        referee.receive(&message(1, 30_000..90_000, 5)).unwrap();

        let sim = gt_core::similarity(
            referee.party_sketch(0).unwrap(),
            referee.party_sketch(1).unwrap(),
        )
        .unwrap();
        let (a, b) = (SetExpr::leaf(0), SetExpr::leaf(1));
        let j = referee.query_jaccard(&a, &b).unwrap();
        assert_eq!(j.jaccard, sim.jaccard);
        let union = referee.query(&a.clone().union(b.clone())).unwrap();
        assert_eq!(union.estimate.value, sim.union);
        let inter = referee.query(&a.clone().intersect(b.clone())).unwrap();
        assert_eq!(inter.estimate.value, sim.intersection);
        let diff = referee.query(&a.difference(b)).unwrap();
        assert_eq!(diff.estimate.value, sim.difference_a_minus_b);
    }

    #[test]
    fn rejected_message_can_be_retried_clean() {
        // A corrupt delivery must not poison the party: the intact
        // retransmit of the same message is accepted afterwards.
        let mut referee = Referee::new(&cfg(), 1);
        let msg = message(0, 0..100, 1);
        assert!(referee.receive(&truncated(&msg)).is_err());
        assert_eq!(referee.receive(&msg).unwrap(), Receipt::Merged);
        assert_eq!(referee.messages(), 1);
        assert_eq!(referee.telemetry().rejected(), 1);
    }

    #[test]
    fn empty_referee_estimates_zero() {
        let referee = Referee::new(&cfg(), 9);
        assert_eq!(referee.estimate_distinct().value, 0.0);
        assert_eq!(referee.bytes_received(), 0);
        assert_eq!(referee.parties_heard(), 0);
        assert_eq!(*referee.telemetry(), RefereeTelemetry::default());
        let partial = referee.estimate_distinct_partial(0);
        assert!(partial.is_complete());
        assert_eq!(partial.coverage(), 1.0);
    }

    #[test]
    fn telemetry_classifies_accepts_and_rejects() {
        let mut referee = Referee::new(&cfg(), 1);
        // One good message, one truncated, and one foreign-seed message
        // (a well-formed header that fails sketch validation).
        referee.receive(&message(0, 0..100, 1)).unwrap();
        assert!(referee.receive(&truncated(&message(1, 0..100, 1))).is_err());
        assert!(referee.receive(&message(2, 0..100, 99)).is_err());
        assert_eq!(referee.messages(), 1);

        let t = referee.telemetry();
        assert_eq!(t.accepted, 1);
        assert_eq!(t.rejected_sketch, 1);
        assert_eq!(t.rejected(), 2);
        assert_eq!(t.duplicates(), 0);
        // Count-based (not timing-based — coarse platform clocks can
        // round a fast decode to zero): every receive call is accounted
        // for in exactly one bucket.
        assert_eq!(t.attempts(), 3);
        assert_eq!(t.rejected_bad_magic + t.rejected_bad_tag, 0);
    }

    #[test]
    fn payload_referee_unions_weighted_sketches() {
        use gt_core::SumDistinctSketch;
        let config = cfg();
        let mut referee: RefereeOf<u64> = RefereeOf::new(&config, 8);
        // Two parties observe overlapping (label, weight) streams.
        for (id, range) in [(0usize, 0u64..300), (1, 150..450)] {
            let mut s = SumDistinctSketch::new(&config, 8);
            for i in range {
                s.insert(gt_hash::fold61(i), i % 7 + 1);
            }
            let msg = PartyMessage {
                party_id: id,
                payload: encode_sketch(s.inner()),
                items_observed: s.inner().items_observed(),
            };
            assert_eq!(referee.receive(&msg).unwrap(), Receipt::Merged);
            // Redelivery of a weighted payload dedups too.
            assert_eq!(referee.receive(&msg).unwrap(), Receipt::Duplicate);
        }
        let expected: f64 = (0u64..450).map(|i| (i % 7 + 1) as f64).sum();
        let estimated = referee.union_sketch().estimate_weighted(|_, v| v as f64);
        assert!(
            (estimated - expected).abs() / expected < 0.1,
            "weighted union {estimated} vs {expected}"
        );
        assert_eq!(referee.telemetry().duplicates_suppressed, 2);
    }

    /// Zero the fields that legitimately differ between the batch and
    /// per-message paths (timings are nondeterministic; batch counters
    /// only advance on the batch path), leaving every exactly-once count.
    fn countable(t: &RefereeTelemetry) -> RefereeTelemetry {
        RefereeTelemetry {
            decode_time: Duration::ZERO,
            merge_time: Duration::ZERO,
            batches: 0,
            summaries_per_batch: [0; 5],
            ..*t
        }
    }

    #[test]
    fn receive_batch_matches_sequential_receives() {
        // A messy batch: good messages, an in-batch byte-identical
        // duplicate, a corrupt message delivered twice (must error twice,
        // not dedup), a foreign seed, and a variant payload from an
        // already-heard party. Counters, receipts, and count-based
        // telemetry must all match per-message receives; union bytes and
        // the retained per-party summaries (variant merges included, so
        // expression queries cannot depend on the delivery path) must
        // match a pure gt-core fold on every path.
        let good0 = message(0, 0..300, 5);
        let good1 = message(1, 150..450, 5);
        let variant0 = message(0, 0..400, 5);
        let corrupt = truncated(&message(2, 0..200, 5));
        let foreign = message(3, 0..100, 99);
        let batch = [
            good0.clone(),
            corrupt.clone(),
            good1.clone(),
            good0.clone(),   // in-batch duplicate
            corrupt.clone(), // corrupt redelivery: Err again, not Duplicate
            variant0.clone(),
            foreign.clone(),
        ];

        // An independent oracle: a pure gt-core fold, in delivery order,
        // of each distinct (party, payload) that decodes under seed 5.
        let mut oracle_union = GtSketch::<()>::new(&cfg(), 5);
        let mut oracle_parties = std::collections::BTreeMap::new();
        let mut seen = std::collections::HashSet::new();
        for m in &batch {
            let Ok(sketch) = decode_sketch::<()>(m.payload.clone()) else {
                continue;
            };
            if sketch.master_seed() == 5 && seen.insert((m.party_id, m.payload.to_vec())) {
                oracle_union.merge_from(&sketch).unwrap();
                let party = oracle_parties.entry(m.party_id);
                let summary = party.or_insert_with(|| GtSketch::<()>::new(&cfg(), 5));
                summary.merge_from(&sketch).unwrap();
            }
        }
        let pin_to_oracle = |path: &str, referee: &Referee| {
            assert_eq!(
                encode_sketch(referee.union_sketch()),
                encode_sketch(&oracle_union),
                "{path}: union diverged from the fold"
            );
            for party in 0..4usize {
                assert_eq!(
                    referee.party_sketch(party).map(encode_sketch),
                    oracle_parties.get(&party).map(encode_sketch),
                    "{path}: party {party} summary diverged from the fold"
                );
            }
        };

        let mut sequential = Referee::new(&cfg(), 5);
        let want_receipts: Vec<_> = batch.iter().map(|m| sequential.receive(m)).collect();

        for split in [batch.len(), 3, 1] {
            let mut batched = Referee::new(&cfg(), 5);
            let mut got_receipts = Vec::new();
            for chunk in batch.chunks(split) {
                got_receipts.extend(batched.receive_batch(chunk));
            }
            assert_eq!(got_receipts, want_receipts, "split {split}");
            assert_eq!(batched.messages(), sequential.messages());
            assert_eq!(batched.bytes_received(), sequential.bytes_received());
            assert_eq!(batched.items_reported(), sequential.items_reported());
            assert_eq!(batched.parties_heard(), sequential.parties_heard());
            assert_eq!(
                countable(batched.telemetry()),
                countable(sequential.telemetry()),
                "split {split}"
            );
            assert_eq!(batched.telemetry().batches, batch.len().div_ceil(split));
            pin_to_oracle(&format!("receive_batch split {split}"), &batched);
        }
        assert_eq!(sequential.telemetry().batches, 0);
        assert_eq!(sequential.telemetry().summaries_per_batch, [0; 5]);
        pin_to_oracle("receive", &sequential);

        // The frame ingress, handed one full frame per party holding the
        // oracle's summary of that party, lands on the same state.
        let mut framed = Referee::new(&cfg(), 5);
        for (&party_id, summary) in &oracle_parties {
            let msg = PartyMessage {
                party_id,
                payload: encode_full_frame(summary, 1),
                items_observed: summary.items_observed(),
            };
            assert_eq!(framed.receive_frame(&msg).unwrap(), Receipt::Merged);
        }
        pin_to_oracle("receive_frame", &framed);
    }

    #[test]
    fn trailing_bytes_are_rejected_by_every_decoder_and_ingress() {
        // One byte of padding must not give a state a second accepted
        // encoding, and so a second fingerprint.
        let pad = |msg: &PartyMessage| PartyMessage {
            payload: Bytes::from([&msg.payload[..], &[0u8][..]].concat()),
            ..msg.clone()
        };
        let trailing = Some(CodecError::Malformed("trailing bytes after sketch"));
        let mut referee = Referee::new(&cfg(), 5);
        let mut refusals = 0;
        let mut refused = |got: Option<CodecError>, referee: &Referee| {
            refusals += 1;
            assert_eq!(got, trailing);
            assert_eq!(referee.telemetry().rejected_malformed, refusals);
        };

        let clean = message(0, 0..300, 5);
        let padded = pad(&clean);
        assert_eq!(decode_sketch::<()>(padded.payload.clone()).err(), trailing);
        let (mut slot, mut scratch) = (GtSketch::<()>::new(&cfg(), 5), DecodeScratch::new());
        let into = decode_sketch_into(&mut slot, padded.payload.clone(), &mut scratch);
        assert_eq!(into.err(), trailing);
        refused(referee.receive(&padded).err(), &referee);
        let mut receipts = referee.receive_batch(std::slice::from_ref(&padded));
        refused(receipts.remove(0).err(), &referee);
        // Once the clean bytes are in, the padded ones are still refused
        // rather than merged as a variant of the same state.
        assert_eq!(referee.receive(&clean), Ok(Receipt::Merged));
        refused(referee.receive(&padded).err(), &referee);

        // A full frame, then a delta frame against it.
        let mut p = DeltaParty::<()>::new(1, &cfg(), 5);
        for generation in 1..=2u64 {
            for i in generation * 500..generation * 500 + 500 {
                p.observe_with(gt_hash::fold61(i), ());
            }
            let frame = p.emit_frame();
            let padded = pad(&frame);
            assert_eq!(decode_frame::<()>(padded.payload.clone()).err(), trailing);
            refused(referee.receive_frame(&padded).err(), &referee);
            assert_eq!(referee.receive_frame(&frame), Ok(Receipt::Merged));
            p.handle_ack(generation);
        }
        assert_eq!(referee.delta_telemetry().delta_frames, 1);
    }

    #[test]
    fn batch_telemetry_histogram_buckets_sizes() {
        assert_eq!(batch_size_bucket(1), 0);
        assert_eq!(batch_size_bucket(2), 1);
        assert_eq!(batch_size_bucket(4), 1);
        assert_eq!(batch_size_bucket(5), 2);
        assert_eq!(batch_size_bucket(16), 2);
        assert_eq!(batch_size_bucket(17), 3);
        assert_eq!(batch_size_bucket(64), 3);
        assert_eq!(batch_size_bucket(65), 4);

        let mut referee = Referee::new(&cfg(), 5);
        // Empty batch: no state change, not even the batch counter.
        assert!(referee.receive_batch(&[]).is_empty());
        assert_eq!(referee.telemetry().batches, 0);

        let msgs: Vec<PartyMessage> = (0..6).map(|p| message(p, 0..50, 5)).collect();
        referee.receive_batch(&msgs[0..1]);
        referee.receive_batch(&msgs[1..4]);
        referee.receive_batch(&msgs[0..6]);
        let t = referee.telemetry();
        assert_eq!(t.batches, 3);
        assert_eq!(t.summaries_per_batch, [1, 1, 1, 0, 0]);
    }

    #[test]
    fn retained_summaries_move_out_of_the_arena() {
        let config = cfg();
        let t = 5usize;
        let rounds: Vec<Vec<PartyMessage>> = (1..=3u64)
            .map(|r| {
                (0..t)
                    .map(|p| message(p, p as u64 * 100..p as u64 * 100 + r * 150, 5))
                    .collect()
            })
            .collect();
        let mut batched = Referee::new(&config, 5);
        let mut sequential = Referee::new(&config, 5);

        // First-heard parties keep their decoded sketches: nothing stays
        // behind in the arena.
        batched.receive_batch(&rounds[0]);
        assert!(batched.decode_arena.is_empty());

        // Variants merge into the summaries and their slots return to the
        // arena, which later variant batches reuse without growing.
        batched.receive_batch(&rounds[1]);
        assert_eq!(batched.decode_arena.len(), t);
        batched.receive_batch(&rounds[2]);
        assert_eq!(batched.decode_arena.len(), t);

        for msg in rounds.iter().flatten() {
            sequential.receive(msg).unwrap();
        }
        assert_eq!(
            encode_sketch(batched.union_sketch()),
            encode_sketch(sequential.union_sketch())
        );
        for party in 0..t {
            assert_eq!(
                batched.party_sketch(party).map(encode_sketch),
                sequential.party_sketch(party).map(encode_sketch),
                "party {party} summary diverged"
            );
        }
    }

    #[test]
    fn union_metrics_reflect_merges() {
        let config = cfg();
        let mut referee = Referee::new(&config, 4);
        for p in 0..3usize {
            let mut party = Party::new(p, &config, 4);
            party.observe_stream(&labels(p as u64 * 100..p as u64 * 100 + 150));
            referee.receive(&party.finish()).unwrap();
        }
        let m = referee.union_metrics();
        assert_eq!(m.merge_calls, 3);
        assert!(m.merge_entries_absorbed > 0);
        // Overlapping ranges: both sides sampled some labels.
        assert!(m.merge_reconciliations > 0);
    }

    // ---- delta-plane (continuous-monitoring frame path) ----

    use crate::codec::encode_full_frame;
    use crate::party::DeltaParty;

    /// A full-ship oracle: a fresh referee handed one full frame of each
    /// party's current snapshot. The live union must match it bitwise.
    fn full_ship_union(config: &SketchConfig, seed: u64, parties: &[&DeltaParty<()>]) -> Bytes {
        let mut oracle = Referee::new(config, seed);
        for p in parties {
            let msg = PartyMessage {
                party_id: p.id(),
                payload: encode_full_frame(p.sketch(), 1),
                items_observed: p.sketch().items_observed(),
            };
            assert_eq!(oracle.receive_frame(&msg).unwrap(), Receipt::Merged);
        }
        encode_sketch(oracle.union_sketch())
    }

    use bytes::Bytes;

    #[test]
    fn delta_frames_maintain_a_bitwise_identical_live_union() {
        let config = cfg();
        let mut referee = Referee::new(&config, 9);
        let mut parties: Vec<DeltaParty<()>> =
            (0..3).map(|id| DeltaParty::new(id, &config, 9)).collect();
        let mut next_label = 0u64;
        for round in 0..6 {
            for p in parties.iter_mut() {
                // Growing, overlapping streams; volume forces level raises.
                for i in 0..400u64 {
                    p.observe_with(gt_hash::fold61(next_label + i + p.id() as u64 * 123), ());
                }
                next_label += 150;
                let msg = p.emit_frame();
                assert_eq!(referee.receive_frame(&msg).unwrap(), Receipt::Merged);
                p.handle_ack(referee.acked_generation(p.id()).unwrap());
            }
            // The live union is bitwise the full-ship union at every ack
            // point, not just at the end.
            let live = encode_sketch(referee.union_sketch());
            let oracle = full_ship_union(&config, 9, &parties.iter().collect::<Vec<_>>());
            assert_eq!(live, oracle, "diverged at round {round}");
        }
        let t = referee.delta_telemetry();
        assert_eq!(t.full_frames, 3, "one initial full ship per party");
        assert_eq!(t.delta_frames, 15, "every later round ships deltas");
        assert_eq!(t.resyncs_requested, 0);
        // Steady-state deltas are much cheaper than full snapshots.
        assert!(
            t.delta_bytes / t.delta_frames < t.full_bytes / t.full_frames,
            "delta {} full {}",
            t.delta_bytes / t.delta_frames,
            t.full_bytes / t.full_frames
        );
    }

    #[test]
    fn duplicate_and_reordered_frames_are_suppressed() {
        let config = cfg();
        let mut referee = Referee::new(&config, 3);
        let mut p = DeltaParty::<()>::new(0, &config, 3);
        for i in 0..500u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let full = p.emit_frame();
        assert_eq!(referee.receive_frame(&full).unwrap(), Receipt::Merged);
        p.handle_ack(1);
        for i in 500..600u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let delta = p.emit_frame();
        assert_eq!(referee.receive_frame(&delta).unwrap(), Receipt::Merged);
        let before = encode_sketch(referee.union_sketch());

        // Byte-identical redelivery of both frames, then the stale full
        // frame again (a reorder past the watermark): all suppressed.
        assert_eq!(referee.receive_frame(&delta).unwrap(), Receipt::Duplicate);
        assert_eq!(referee.receive_frame(&full).unwrap(), Receipt::Duplicate);
        assert_eq!(encode_sketch(referee.union_sketch()), before);
        assert_eq!(referee.delta_telemetry().duplicate_frames, 2);
        assert_eq!(referee.messages(), 2);
        assert_eq!(
            referee.items_reported(),
            p.sketch().items_observed(),
            "refresh accounting keeps items exactly-once"
        );
    }

    #[test]
    fn unknown_or_mismatched_base_requests_resync() {
        let config = cfg();
        let mut referee = Referee::new(&config, 7);
        // The party believes generation 1 was acked, but the referee
        // never saw it (the full frame was lost past the retry budget).
        let mut p = DeltaParty::<()>::new(0, &config, 7);
        for i in 0..300u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let _lost = p.emit_frame();
        p.handle_ack(1);
        for i in 300..350u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let orphan_delta = p.emit_frame();
        assert_eq!(
            referee.receive_frame(&orphan_delta).unwrap(),
            Receipt::NeedResync
        );
        assert_eq!(referee.delta_telemetry().resyncs_requested, 1);
        assert_eq!(referee.parties_heard(), 0, "nothing was merged");

        // The resync notice makes the party fall back to a full frame.
        p.handle_resync();
        let recovery = p.emit_frame();
        assert_eq!(referee.receive_frame(&recovery).unwrap(), Receipt::Merged);
        assert_eq!(
            encode_sketch(referee.union_sketch()),
            encode_sketch(p.sketch()),
        );

        // Mismatched base: a forked party instance under the same id
        // whose generation-1 state differs from what the referee
        // applied. Its delta must clear the watermark (the referee is at
        // generation 3 for this party) so that only the base-fingerprint
        // check can — and must — reject it.
        let mut fork = DeltaParty::<()>::new(0, &config, 7);
        for i in 1000..1300u64 {
            fork.observe_with(gt_hash::fold61(i), ());
        }
        let _lost = fork.emit_frame(); // gen 1, never delivered
        fork.handle_ack(1);
        for skip in [2u64, 3] {
            for i in 1300 + skip * 20..1320 + skip * 20 {
                fork.observe_with(gt_hash::fold61(i), ());
            }
            let _skipped = fork.emit_frame(); // gens 2 and 3, never delivered
        }
        for i in 1400..1420u64 {
            fork.observe_with(gt_hash::fold61(i), ());
        }
        let fork_delta = fork.emit_frame(); // gen 4 against the fork's own gen-1 base
        assert_eq!(
            referee.receive_frame(&fork_delta).unwrap(),
            Receipt::NeedResync,
            "base fingerprint mismatch must refuse the delta"
        );
        assert_eq!(referee.delta_telemetry().resyncs_requested, 2);
    }

    #[test]
    fn lost_acks_still_apply_cumulative_deltas_exactly() {
        let config = cfg();
        let mut referee = Referee::new(&config, 11);
        let mut p = DeltaParty::<()>::new(0, &config, 11);
        for i in 0..400u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let full = p.emit_frame();
        assert_eq!(referee.receive_frame(&full).unwrap(), Receipt::Merged);
        p.handle_ack(1);

        // Delta generation 2 reaches the referee, but its ack is lost:
        // the party keeps coding against the generation-1 base.
        for i in 400..700u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let d2 = p.emit_frame();
        assert_eq!(referee.receive_frame(&d2).unwrap(), Receipt::Merged);
        // (no handle_ack: the ack vanished)

        for i in 700..1100u64 {
            p.observe_with(gt_hash::fold61(i), ());
        }
        let d3 = p.emit_frame(); // still base generation 1
        assert_eq!(
            referee.receive_frame(&d3).unwrap(),
            Receipt::Merged,
            "cumulative delta applies on the newer intermediate state"
        );
        assert_eq!(
            encode_sketch(referee.union_sketch()),
            encode_sketch(p.sketch()),
            "live union bitwise equals the party's own state"
        );
        assert_eq!(referee.acked_generation(0), Some(3));
    }

    #[test]
    fn windowed_query_answers_from_the_live_union() {
        let config = cfg();
        let mut referee: RefereeOf<gt_core::LatestTs> = RefereeOf::new(&config, 13);
        let mut a = DeltaParty::<gt_core::LatestTs>::new(0, &config, 13);
        let mut b = DeltaParty::<gt_core::LatestTs>::new(1, &config, 13);
        // Under-capacity so the recency estimate is exact: 60 labels at
        // t=10; 20 of them re-arrive at party b at t=30.
        for i in 0..60u64 {
            a.observe_with(gt_hash::fold61(i), gt_core::LatestTs(10));
        }
        for i in 0..20u64 {
            b.observe_with(gt_hash::fold61(i), gt_core::LatestTs(30));
        }
        for p in [&mut a, &mut b] {
            let msg = p.emit_frame();
            assert_eq!(referee.receive_frame(&msg).unwrap(), Receipt::Merged);
            p.handle_ack(1);
        }
        assert_eq!(referee.query_distinct_since(0).value, 60.0);
        assert_eq!(referee.query_distinct_since(20).value, 20.0);
        // The window keeps answering as deltas stream in.
        for i in 60..90u64 {
            a.observe_with(gt_hash::fold61(i), gt_core::LatestTs(50));
        }
        let msg = a.emit_frame();
        assert_eq!(referee.receive_frame(&msg).unwrap(), Receipt::Merged);
        assert_eq!(referee.query_distinct_since(40).value, 30.0);
        assert_eq!(referee.query_distinct_since(20).value, 50.0);
        assert_eq!(referee.query_distinct_since(0).value, 90.0);
    }
}
