//! Compact wire format for sketches, with byte-accurate accounting.
//!
//! The paper's communication claim — one message of
//! `O(ε⁻² log(1/δ) log n)` **bits** per party, independent of stream
//! length — deserves to be measured in real bytes, so this codec is
//! hand-rolled rather than `derive(Serialize)`d:
//!
//! * Hash functions never travel: the receiver rebuilds them from
//!   `(config, master seed)`, which is the whole point of coordination.
//! * Sample labels are sorted, delta-encoded and LEB128-varint packed;
//!   for a level-`l` sample of size `c` drawn from `[0, 2^61)` the gaps
//!   are ≈ `2^61/c` and each costs ≈ `(61 − log₂ c)/7` bytes — within a
//!   small constant of the information-theoretic minimum.
//! * Integrity is checked on decode (magic, version, config echo, sample
//!   invariant via `SortedTrials::push_checked`, in [`decode_trials`], the
//!   one body parser), so a referee cannot silently union a corrupt or
//!   uncoordinated message.

use std::hash::Hash;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gt_core::{apply_delta, GtSketch, SketchConfig, SketchError, SortedTrials, TrialSink};
use gt_hash::HashFamilyKind;

/// Format magic: "GTS" + version 1.
const MAGIC: u32 = 0x4754_5301;

/// Ceiling on `capacity x trials` accepted from the wire. Decoding
/// allocates the sample tables eagerly, so the declared shape must be
/// bounded *before* allocation or a tiny crafted message could demand
/// terabytes (each field individually respects its own cap, but the
/// product does not). 2^24 entries (~512 MiB of tables worst case) is
/// ~15x beyond the largest legitimate configuration (eps = 0.02,
/// delta = 0.001 -> ~1.3M entries).
const MAX_WIRE_ENTRIES: u64 = 1 << 24;

/// Errors from decoding a sketch message.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The buffer ended before the message did.
    Truncated,
    /// The magic/version word did not match.
    BadMagic(u32),
    /// An enum tag byte was invalid.
    BadTag(u8),
    /// A varint or delta-coded value overflowed its domain.
    Malformed(&'static str),
    /// The payload decoded but failed sketch validation.
    Sketch(SketchError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            CodecError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::Malformed(what) => write!(f, "malformed message: {what}"),
            CodecError::Sketch(e) => write!(f, "decoded sketch invalid: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<SketchError> for CodecError {
    fn from(e: SketchError) -> Self {
        CodecError::Sketch(e)
    }
}

/// Payloads that know how to put themselves on the wire.
///
/// `PartialEq + Hash` is what the delta plane needs: a party journals
/// only payloads that changed, and the base key
/// ([`gt_core::StateKey`]) hashes them.
pub trait WirePayload: gt_core::Payload + PartialEq + Hash {
    /// Append the payload.
    fn encode(self, buf: &mut BytesMut);
    /// Read the payload back.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;
    /// Exact bytes [`WirePayload::encode`] will append — what lets
    /// [`encode_sketch`] pre-reserve the whole message instead of growing
    /// the buffer entry by entry.
    fn encoded_len(self) -> usize;
}

impl WirePayload for () {
    fn encode(self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(())
    }
    fn encoded_len(self) -> usize {
        0
    }
}

impl WirePayload for u64 {
    fn encode(self, buf: &mut BytesMut) {
        put_varint(buf, self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        get_varint(buf)
    }
    fn encoded_len(self) -> usize {
        varint_len(self)
    }
}

impl WirePayload for gt_core::LatestTs {
    fn encode(self, buf: &mut BytesMut) {
        put_varint(buf, self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(gt_core::LatestTs(get_varint(buf)?))
    }
    fn encoded_len(self) -> usize {
        varint_len(self.0)
    }
}

/// Frame magic for the continuous-monitoring plane: "GTF" + version 1.
/// Distinct from the one-shot sketch magic so a frame accidentally fed
/// to [`decode_sketch`] (or vice versa) is rejected at the first word.
const FRAME_MAGIC: u32 = 0x4754_4601;

const FRAME_KIND_FULL: u8 = 0;
const FRAME_KIND_DELTA: u8 = 1;

/// Encode a complete snapshot as a monitoring-plane frame: generation
/// `generation` of the sender's sketch. Also the resync/fallback path.
///
/// Wire layout of a frame: `FRAME_MAGIC` u32, kind u8, generation
/// varint; delta frames continue with the base generation varint and the
/// 8-byte base key, the [`gt_core::StateKey::key`] of the state the
/// delta was coded against (the continuation header that lets a referee
/// detect gaps and request resync); then the canonical sketch encoding —
/// [`encode_sketch`] bytes verbatim, magic included, so frames inherit
/// the codec's validation, canonical-bytes property, and fingerprinting
/// unchanged. A delta frame's sketch carries the current levels and item
/// counters but only the difference entries.
pub fn encode_full_frame<V: WirePayload>(sketch: &GtSketch<V>, generation: u64) -> Bytes {
    let trials = SortedTrials::of(sketch);
    encode_frame(sketch, &trials, generation, None)
}

/// Exact byte length [`encode_full_frame`] produces for `sketch` at
/// `generation`, without encoding it.
pub fn full_frame_len<V: WirePayload>(sketch: &GtSketch<V>, generation: u64) -> usize {
    frame_header_len(generation, None) + encoded_sketch_len(sketch)
}

/// A lower bound on [`full_frame_len`] in O(trials), with no sort: every
/// sampled label costs at least one byte and a payload at least none.
pub fn full_frame_len_floor<V: WirePayload>(sketch: &GtSketch<V>, generation: u64) -> usize {
    let trials: usize = sketch
        .trials()
        .iter()
        .map(|t| {
            1 + varint_len(t.items_observed()) + varint_len(t.sample_len() as u64) + t.sample_len()
        })
        .sum();
    frame_header_len(generation, None) + header_len(sketch.config()) + trials
}

/// A frame's header: magic, kind byte, generation varint, and for a
/// delta frame the base generation varint and the 8-byte base key.
fn frame_header_len(generation: u64, base: Option<(u64, u64)>) -> usize {
    4 + 1 + varint_len(generation) + base.map_or(0, |(g, _)| varint_len(g) + 8)
}

/// Write a frame whose body is the sketch message of `trials`, under the
/// config and seed of `sketch`: a full frame without `base`, a delta
/// frame coded against `base = (generation, key)` with it.
pub(crate) fn encode_frame<V: WirePayload>(
    sketch: &GtSketch<V>,
    trials: &SortedTrials<V>,
    generation: u64,
    base: Option<(u64, u64)>,
) -> Bytes {
    let total = frame_header_len(generation, base) + sketch_len(sketch.config(), trials);
    let mut buf = BytesMut::with_capacity(total);
    buf.put_u32(FRAME_MAGIC);
    match base {
        None => {
            buf.put_u8(FRAME_KIND_FULL);
            put_varint(&mut buf, generation);
        }
        Some((base_generation, base_key)) => {
            buf.put_u8(FRAME_KIND_DELTA);
            put_varint(&mut buf, generation);
            put_varint(&mut buf, base_generation);
            buf.put_u64(base_key);
        }
    }
    put_sketch(&mut buf, sketch.config(), sketch.master_seed(), trials);
    debug_assert_eq!(buf.len(), total, "frame length prediction drifted");
    buf.freeze()
}

/// A frame's header: its generation, plus `(base generation, base key)`
/// for a delta frame.
pub(crate) type FrameHeader = (u64, Option<(u64, u64)>);

/// Parse a frame header, leaving `buf` at the embedded sketch message.
/// The one frame-header parser.
pub(crate) fn get_frame_header(buf: &mut Bytes) -> Result<FrameHeader, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let magic = buf.get_u32();
    if magic != FRAME_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    match get_u8(buf)? {
        FRAME_KIND_FULL => Ok((get_varint(buf)?, None)),
        FRAME_KIND_DELTA => {
            let generation = get_varint(buf)?;
            let base_generation = get_varint(buf)?;
            if base_generation >= generation {
                return Err(CodecError::Malformed(
                    "delta frame base generation not older than its own",
                ));
            }
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            Ok((generation, Some((base_generation, buf.get_u64()))))
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Decode a frame for the sketch `like` belongs with: the header, then
/// the embedded sketch message into `body` with [`decode_trials`] — the
/// whole state for a full frame, the delta for a delta frame.
///
/// On `Err`, `body` holds an unspecified prefix of the trials.
pub(crate) fn decode_frame<V: WirePayload>(
    like: &GtSketch<V>,
    mut buf: Bytes,
    body: &mut impl TrialSink<V>,
) -> Result<FrameHeader, CodecError> {
    let header = get_frame_header(&mut buf)?;
    decode_trials(like, buf, body)?;
    Ok(header)
}

/// LEB128 varint append.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Bytes the canonical LEB128 encoding of `v` occupies (1–10).
pub fn varint_len(v: u64) -> usize {
    let bits = (64 - v.leading_zeros()).max(1) as usize;
    bits.div_ceil(7)
}

/// LEB128 varint read, **canonical encodings only**.
///
/// A multi-byte encoding whose final byte is `0x00` contributes no bits
/// and has a strictly shorter equivalent (e.g. `[0x80, 0x00]` for 0), so
/// it is rejected as malformed. This makes the byte representation of
/// every value unique, which [`payload_fingerprint`]-based duplicate
/// detection relies on: one sketch state, one byte string.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(CodecError::Truncated);
        }
        let byte = buf.get_u8();
        if shift >= 63 && byte > 1 {
            return Err(CodecError::Malformed("varint overflows 64 bits"));
        }
        if shift > 0 && byte == 0 {
            return Err(CodecError::Malformed(
                "non-canonical varint (over-long encoding)",
            ));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// 64-bit FNV-1a over a message payload — the referee's duplicate-
/// detection fingerprint.
///
/// Stable across processes (no per-run hasher seed), and well defined per
/// sketch state because the wire format is canonical: samples are sorted
/// before delta-coding, [`get_varint`] rejects over-long varints, and the
/// decoders reject trailing bytes, so a given sketch has exactly one
/// accepted encoding and therefore one fingerprint.
pub fn payload_fingerprint(payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn put_hash_kind(buf: &mut BytesMut, kind: HashFamilyKind) {
    match kind {
        HashFamilyKind::Pairwise => buf.put_u8(0),
        HashFamilyKind::KWise(k) => {
            buf.put_u8(1);
            buf.put_u8(k);
        }
        HashFamilyKind::MultiplyShift => buf.put_u8(2),
        HashFamilyKind::Tabulation => buf.put_u8(3),
        HashFamilyKind::SabotagedShift(k) => {
            buf.put_u8(4);
            buf.put_u8(k);
        }
        HashFamilyKind::SabotagedLowEntropy => buf.put_u8(5),
        HashFamilyKind::SabotagedIdentity => buf.put_u8(6),
    }
}

fn get_u8(buf: &mut Bytes) -> Result<u8, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_hash_kind(buf: &mut Bytes) -> Result<HashFamilyKind, CodecError> {
    match get_u8(buf)? {
        0 => Ok(HashFamilyKind::Pairwise),
        1 => Ok(HashFamilyKind::KWise(get_u8(buf)?)),
        2 => Ok(HashFamilyKind::MultiplyShift),
        3 => Ok(HashFamilyKind::Tabulation),
        4 => Ok(HashFamilyKind::SabotagedShift(get_u8(buf)?)),
        5 => Ok(HashFamilyKind::SabotagedLowEntropy),
        6 => Ok(HashFamilyKind::SabotagedIdentity),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Serialize a sketch into its wire message.
///
/// ```
/// use gt_core::{DistinctSketch, SketchConfig};
/// use gt_streams::{decode_sketch, encode_sketch};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let mut party = DistinctSketch::new(&cfg, 7);
/// party.extend_labels(0..800);
/// let message = encode_sketch(&party);           // goes on the wire
/// let at_referee: DistinctSketch = decode_sketch(message).unwrap();
/// assert_eq!(at_referee.estimate_distinct().value, 800.0);
/// ```
pub fn encode_sketch<V: WirePayload>(sketch: &GtSketch<V>) -> Bytes {
    let trials = SortedTrials::of(sketch);
    let total = sketch_len(sketch.config(), &trials);
    let mut buf = BytesMut::with_capacity(total);
    put_sketch(&mut buf, sketch.config(), sketch.master_seed(), &trials);
    debug_assert_eq!(buf.len(), total, "encoded length prediction drifted");
    buf.freeze()
}

/// Append the sketch message of `trials` under `cfg` and `master_seed`.
fn put_sketch<V: WirePayload>(
    buf: &mut BytesMut,
    cfg: &SketchConfig,
    master_seed: u64,
    trials: &SortedTrials<V>,
) {
    buf.put_u32(MAGIC);
    buf.put_u64(master_seed);
    buf.put_f64(cfg.epsilon());
    buf.put_f64(cfg.delta());
    put_varint(buf, cfg.capacity() as u64);
    put_varint(buf, cfg.trials() as u64);
    put_hash_kind(buf, cfg.hash_kind());
    for (level, items, sorted) in trials.iter() {
        buf.put_u8(level);
        put_varint(buf, items);
        put_varint(buf, sorted.len() as u64);
        let mut prev = 0u64;
        for &(label, _) in sorted {
            put_varint(buf, label - prev);
            prev = label;
        }
        for &(_, payload) in sorted {
            payload.encode(buf);
        }
    }
}

/// Fixed-size wire header length for `cfg`: magic, seed, epsilon, delta,
/// capacity + trials varints, hash-kind tag.
fn header_len(cfg: &gt_core::SketchConfig) -> usize {
    let kind_len = match cfg.hash_kind() {
        HashFamilyKind::KWise(_) | HashFamilyKind::SabotagedShift(_) => 2,
        _ => 1,
    };
    4 + 8 + 8 + 8 + varint_len(cfg.capacity() as u64) + varint_len(cfg.trials() as u64) + kind_len
}

/// The exact length of the sketch message of `trials` under `cfg`, so
/// the encoder reserves its buffer once — spilling millions of small
/// sketches must not pay repeated `Vec` regrowth.
fn sketch_len<V: WirePayload>(cfg: &SketchConfig, trials: &SortedTrials<V>) -> usize {
    let mut total = header_len(cfg);
    for (_, items, sorted) in trials.iter() {
        total += 1 + varint_len(items) + varint_len(sorted.len() as u64);
        let mut prev = 0u64;
        for &(label, payload) in sorted {
            total += varint_len(label - prev) + payload.encoded_len();
            prev = label;
        }
    }
    total
}

/// Exact byte length [`encode_sketch`] will produce for `sketch`, without
/// encoding it — what [`full_frame_len`] builds on, asserted against the
/// real encoder in tests.
pub fn encoded_sketch_len<V: WirePayload>(sketch: &GtSketch<V>) -> usize {
    sketch_len(sketch.config(), &SortedTrials::of(sketch))
}

/// Parse a sketch message's header — magic, master seed, ε, δ, capacity,
/// trials, hash kind — bounding the declared shape by [`MAX_WIRE_ENTRIES`]
/// before anything is allocated. The one sketch-header parser.
fn get_sketch_header(buf: &mut Bytes) -> Result<(u64, SketchConfig), CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let magic = buf.get_u32();
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    if buf.remaining() < 8 + 8 + 8 {
        return Err(CodecError::Truncated);
    }
    let master_seed = buf.get_u64();
    let epsilon = buf.get_f64();
    let delta = buf.get_f64();
    let capacity = get_varint(buf)? as usize;
    let trials = get_varint(buf)? as usize;
    let kind = get_hash_kind(buf)?;
    if (capacity as u64).saturating_mul(trials as u64) > MAX_WIRE_ENTRIES {
        return Err(CodecError::Sketch(SketchError::InvalidConfig {
            parameter: "shape",
            reason: format!(
                "declared shape {capacity} x {trials} exceeds the wire ceiling of {MAX_WIRE_ENTRIES} entries"
            ),
        }));
    }
    let config = SketchConfig::from_shape(epsilon, delta, capacity, trials, kind)?;
    Ok((master_seed, config))
}

/// Deserialize and validate a sketch message: its header gives the
/// config and seed of a new sketch, [`decode_trials`] checks the body
/// against that sketch's trials, and the body is applied to it.
pub fn decode_sketch<V: WirePayload>(buf: Bytes) -> Result<GtSketch<V>, CodecError> {
    let (master_seed, config) = get_sketch_header(&mut buf.clone())?;
    let mut sketch = GtSketch::new(&config, master_seed);
    let mut body = SortedTrials::default();
    decode_trials(&sketch, buf, &mut body)?;
    apply_delta(&mut sketch, &body)?;
    Ok(sketch)
}

/// Parse a sketch message's header and require `like`'s master seed and
/// config: the coordination check of [`decode_trials`].
fn get_coordinated_header<V: WirePayload>(
    buf: &mut Bytes,
    like: &GtSketch<V>,
) -> Result<(), CodecError> {
    let (master_seed, config) = get_sketch_header(buf)?;
    if master_seed != like.master_seed() {
        return Err(CodecError::Sketch(SketchError::SeedMismatch));
    }
    if config != *like.config() {
        return Err(CodecError::Sketch(SketchError::ConfigMismatch {
            detail: format!("{:?} vs {:?}", config, like.config()),
        }));
    }
    Ok(())
}

/// Decode a sketch message for the sketch `like` belongs with into
/// `body`, as per-trial label-sorted entries (with their hash levels, if
/// `body` is a [`gt_core::LeveledTrials`]): the one body parser, under
/// every decoder and both referee ingresses.
///
/// The message must carry `like`'s master seed and config, or it is
/// [`CodecError::Sketch`] with [`SketchError::SeedMismatch`] or
/// [`SketchError::ConfigMismatch`]. No trial may declare more entries
/// than the capacity, and each trial passes
/// [`SortedTrials::push_checked`] against `like`'s trial of the same
/// index: the level bound, then each label's range, qualification, order
/// and uniqueness. Entries decode in label order, since the wire stores
/// non-negative gaps. Trailing bytes are refused. `body` is reserved once
/// for at most min(message bytes, trials × capacity) entries — every
/// entry costs at least one wire byte — so what is allocated stays
/// bounded by the input and a delta costs O(delta) to decode.
///
/// On `Err`, `body` holds an unspecified prefix of the trials.
pub fn decode_trials<V: WirePayload>(
    like: &GtSketch<V>,
    mut buf: Bytes,
    body: &mut impl TrialSink<V>,
) -> Result<(), CodecError> {
    get_coordinated_header(&mut buf, like)?;
    let capacity = like.config().capacity();
    body.start(buf.remaining().min(like.trials().len() * capacity));
    let mut entries: Vec<(u64, V)> = Vec::new();
    for trial in like.trials() {
        let level = get_u8(&mut buf)?;
        let items = get_varint(&mut buf)?;
        let n = get_varint(&mut buf)? as usize;
        if n > capacity {
            return Err(CodecError::Sketch(SketchError::InvalidConfig {
                parameter: "sample",
                reason: format!("sample size {n} exceeds capacity {capacity}"),
            }));
        }
        entries.clear();
        entries.reserve(n.min(buf.remaining()));
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev
                .checked_add(get_varint(&mut buf)?)
                .ok_or(CodecError::Malformed("label delta overflows u64"))?;
            entries.push((prev, V::default()));
        }
        for entry in entries.iter_mut() {
            entry.1 = V::decode(&mut buf)?;
        }
        body.push_checked(trial, level, items, &entries)?;
    }
    reject_trailing_bytes(&buf)
}

/// A sketch message ends at its last trial. Accepting padding would give
/// one sketch state many byte strings, and so many [`payload_fingerprint`]s.
fn reject_trailing_bytes(buf: &Bytes) -> Result<(), CodecError> {
    if buf.has_remaining() {
        return Err(CodecError::Malformed("trailing bytes after sketch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::{DistinctSketch, LeveledTrials, SumDistinctSketch};
    use gt_hash::LevelHasher;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn sample_sets(s: &DistinctSketch) -> Vec<std::collections::BTreeSet<u64>> {
        s.trials()
            .iter()
            .map(|t| t.sample_iter().map(|(k, _)| k).collect())
            .collect()
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "value {v}");
        }
    }

    #[test]
    fn encode_reserves_the_exact_length_up_front() {
        // The predicted length must equal the produced length for empty,
        // populated, and payload-carrying sketches — that equality is what
        // guarantees the pre-reserved buffer never regrows while spilling
        // millions of small sketches.
        let empty = DistinctSketch::new(&cfg(), 3);
        assert_eq!(encode_sketch(&empty).len(), encoded_sketch_len(&empty));

        let mut small = DistinctSketch::new(&cfg(), 3);
        small.extend_labels((0..50u64).map(gt_hash::fold61));
        assert_eq!(encode_sketch(&small).len(), encoded_sketch_len(&small));

        let mut large = DistinctSketch::new(&cfg(), 3);
        large.extend_labels((0..60_000u64).map(gt_hash::fold61));
        assert_eq!(encode_sketch(&large).len(), encoded_sketch_len(&large));

        let mut payload = GtSketch::<u64>::new(&cfg(), 3);
        for i in 0..5_000u64 {
            payload.insert_with(gt_hash::fold61(i), i * 977);
        }
        assert_eq!(encode_sketch(&payload).len(), encoded_sketch_len(&payload));

        // Two-byte hash-kind tags go through the same header accounting.
        let kwise =
            gt_core::SketchConfig::from_shape(0.2, 0.2, 16, 5, HashFamilyKind::KWise(4)).unwrap();
        let mut s = DistinctSketch::new(&kwise, 9);
        s.extend_labels((0..2_000u64).map(gt_hash::fold61));
        assert_eq!(encode_sketch(&s).len(), encoded_sketch_len(&s));
    }

    /// `full_frame_len` predicts `encode_full_frame` across the varint
    /// width boundaries of the generation, at level 0 and past it, with
    /// and without payloads, and `full_frame_len_floor` never exceeds it.
    #[test]
    fn full_frame_len_matches_the_encoder() {
        fn check<V: WirePayload>(s: &GtSketch<V>) {
            for g in [1u64, 127, 128, 16_383, 16_384, u64::MAX] {
                assert_eq!(
                    full_frame_len(s, g),
                    encode_full_frame(s, g).len(),
                    "gen {g}"
                );
                assert!(
                    full_frame_len_floor(s, g) <= full_frame_len(s, g),
                    "gen {g}"
                );
            }
        }
        for n in [40u64, 60_000] {
            let mut labels = DistinctSketch::new(&cfg(), 5);
            let mut stamped = GtSketch::<gt_core::LatestTs>::new(&cfg(), 5);
            for i in 0..n {
                labels.insert(gt_hash::fold61(i));
                stamped.insert_with(gt_hash::fold61(i), gt_core::LatestTs(i * 31));
            }
            assert_eq!(labels.max_level() > 0, n > 40);
            assert_eq!(stamped.max_level() > 0, n > 40);
            check(&labels);
            check(&stamped);
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut s = DistinctSketch::new(&cfg(), 42);
        s.extend_labels((0..30_000).map(gt_hash::fold61));
        let bytes = encode_sketch(&s);
        let d: DistinctSketch = decode_sketch(bytes).unwrap();
        assert_eq!(d.master_seed(), 42);
        assert_eq!(d.config(), s.config());
        assert_eq!(d.estimate_distinct().value, s.estimate_distinct().value);
        assert_eq!(d.items_observed(), s.items_observed());
        assert_eq!(sample_sets(&d), sample_sets(&s));
    }

    #[test]
    fn decoded_sketch_is_mergeable_with_originals() {
        let mut a = DistinctSketch::new(&cfg(), 7);
        let mut b = DistinctSketch::new(&cfg(), 7);
        a.extend_labels((0..5_000).map(gt_hash::fold61));
        b.extend_labels((2_500..7_500).map(gt_hash::fold61));
        let mut d: DistinctSketch = decode_sketch(encode_sketch(&a)).unwrap();
        d.merge_from(&b).unwrap();
        let direct = a.merged(&b).unwrap();
        assert_eq!(
            d.estimate_distinct().value,
            direct.estimate_distinct().value
        );
    }

    #[test]
    fn empty_sketch_roundtrips() {
        let s = DistinctSketch::new(&cfg(), 1);
        let d: DistinctSketch = decode_sketch(encode_sketch(&s)).unwrap();
        assert_eq!(d.estimate_distinct().value, 0.0);
    }

    #[test]
    fn sum_sketch_payloads_roundtrip() {
        let mut s = SumDistinctSketch::new(&cfg(), 9);
        for i in 0..500u64 {
            s.insert(gt_hash::fold61(i), i % 13 + 1);
        }
        let bytes = encode_sketch(&s);
        let inner: GtSketch<u64> = decode_sketch(bytes).unwrap();
        assert_eq!(
            inner.estimate_weighted(|_, v| v as f64).value,
            s.estimate_sum().value
        );
    }

    #[test]
    fn message_size_is_logarithmic_in_stream_length() {
        // Same config, streams of 10k vs 1M items over the same distinct
        // universe: message size must not grow with length.
        let mut small = DistinctSketch::new(&cfg(), 3);
        let mut large = DistinctSketch::new(&cfg(), 3);
        let universe: Vec<u64> = (0..10_000).map(gt_hash::fold61).collect();
        small.extend_labels(universe.iter().copied());
        for _ in 0..100 {
            large.extend_labels(universe.iter().copied());
        }
        let sb = encode_sketch(&small).len();
        let lb = encode_sketch(&large).len();
        assert_eq!(
            sb.max(lb) - sb.min(lb),
            estimate_items_delta(&small, &large)
        );

        fn estimate_items_delta(a: &DistinctSketch, b: &DistinctSketch) -> usize {
            // Only the items_observed varints differ in size.
            let va = varint_len(a.items_observed());
            let vb = varint_len(b.items_observed());
            (vb - va) * a.config().trials()
        }
        fn varint_len(v: u64) -> usize {
            (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
        }
    }

    #[test]
    fn delta_varint_beats_fixed_width() {
        let mut s = DistinctSketch::new(&cfg(), 5);
        s.extend_labels((0..50_000).map(gt_hash::fold61));
        let bytes = encode_sketch(&s).len();
        let fixed = s.sample_entries() * 8;
        assert!(bytes < fixed, "codec {bytes} vs fixed-width {fixed}");
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let mut s = DistinctSketch::new(&cfg(), 1);
        s.extend_labels((0..100).map(gt_hash::fold61));
        let bytes = encode_sketch(&s);
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            let r: Result<DistinctSketch, _> = decode_sketch(bytes.slice(0..cut));
            assert!(r.is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(0xDEAD_BEEF);
        buf.put_bytes(0, 64);
        let r: Result<DistinctSketch, _> = decode_sketch(buf.freeze());
        assert!(matches!(r, Err(CodecError::BadMagic(0xDEAD_BEEF))));
    }

    #[test]
    fn corrupted_sample_fails_validation() {
        let mut s = DistinctSketch::new(&cfg(), 1);
        s.extend_labels((0..50_000).map(gt_hash::fold61)); // level > 0
        let bytes = encode_sketch(&s);
        // Flip a byte inside the first trial's label area; the decoded
        // label will (almost surely) not satisfy the level invariant.
        let mut raw = bytes.to_vec();
        let idx = raw.len() - 10;
        raw[idx] ^= 0x55;
        let r: Result<DistinctSketch, _> = decode_sketch(Bytes::from(raw));
        assert!(r.is_err(), "corruption must not decode cleanly");
    }

    #[test]
    fn every_hash_kind_roundtrips() {
        use gt_hash::HashFamilyKind as K;
        for kind in [
            K::Pairwise,
            K::KWise(4),
            K::MultiplyShift,
            K::Tabulation,
            K::SabotagedShift(3),
            K::SabotagedLowEntropy,
            K::SabotagedIdentity,
        ] {
            let config = SketchConfig::from_shape(0.2, 0.2, 64, 3, kind).unwrap();
            let mut s = DistinctSketch::new(&config, 11);
            s.extend_labels((0..500).map(gt_hash::fold61));
            let d: DistinctSketch = decode_sketch(encode_sketch(&s)).unwrap();
            assert_eq!(d.config().hash_kind(), kind, "{kind:?}");
            assert_eq!(d.estimate_distinct().value, s.estimate_distinct().value);
        }
    }

    #[test]
    fn oversized_declared_shape_rejected_before_allocation() {
        // Craft a header declaring capacity 2^28 x 4096 trials (each field
        // individually legal) with no sample data; decode must refuse
        // before allocating the tables.
        let mut buf = BytesMut::new();
        buf.put_u32(0x4754_5301);
        buf.put_u64(1); // master seed
        buf.put_f64(0.1);
        buf.put_f64(0.1);
        put_varint(&mut buf, 1 << 28); // capacity
        put_varint(&mut buf, 4096); // trials
        buf.put_u8(0); // Pairwise
        let r: Result<DistinctSketch, _> = decode_sketch(buf.freeze());
        assert!(
            matches!(
                r,
                Err(CodecError::Sketch(SketchError::InvalidConfig {
                    parameter: "shape",
                    ..
                }))
            ),
            "{r:?}"
        );
    }

    #[test]
    fn non_finite_epsilon_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(0x4754_5301);
        buf.put_u64(1);
        buf.put_f64(f64::NAN); // epsilon
        buf.put_f64(0.1);
        put_varint(&mut buf, 64);
        put_varint(&mut buf, 3);
        buf.put_u8(0);
        let r: Result<DistinctSketch, _> = decode_sketch(buf.freeze());
        assert!(
            matches!(
                r,
                Err(CodecError::Sketch(SketchError::InvalidConfig {
                    parameter: "epsilon",
                    ..
                }))
            ),
            "{r:?}"
        );
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn varint_rejects_overlong_encoding() {
        // 11 bytes of 0xFF can encode > 64 bits.
        let mut b = Bytes::from(vec![0xFFu8; 11]);
        assert!(get_varint(&mut b).is_err());
    }

    #[test]
    fn varint_rejects_non_canonical_encodings() {
        // Each of these decodes to a value with a shorter encoding, so a
        // canonical codec must reject them (otherwise one sketch has many
        // byte representations and the dedup fingerprint is ill-defined).
        let cases: &[&[u8]] = &[
            &[0x80, 0x00],                                                 // 0 in 2 bytes
            &[0xFF, 0x00],                                                 // 127 in 2 bytes
            &[0x80, 0x80, 0x00],                                           // 0 in 3 bytes
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00], // 0 in 10
        ];
        for case in cases {
            let mut b = Bytes::from(case.to_vec());
            assert!(
                matches!(get_varint(&mut b), Err(CodecError::Malformed(_))),
                "{case:?} should be rejected as non-canonical"
            );
        }
        // The single-byte encoding of zero stays legal.
        let mut b = Bytes::from(vec![0x00u8]);
        assert_eq!(get_varint(&mut b).unwrap(), 0);
    }

    #[test]
    fn encoder_only_emits_canonical_varints() {
        // Round-trip sweep including every byte-length boundary: what
        // put_varint writes, the canonical reader accepts.
        let mut edge = vec![0u64, 1];
        for k in 1..=9u32 {
            let b = 1u64 << (7 * k);
            edge.extend([b - 1, b, b + 1]);
        }
        edge.push(u64::MAX);
        for v in edge {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert!(!b.has_remaining());
        }
    }

    /// SplitMix64 — deterministic fuzz schedule, reproducible run-to-run.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Structured mutations over valid messages: rather than pure random
    /// bytes (which die at the magic check), each round takes a real
    /// encoding and perturbs it the way real corruption or a hostile
    /// sender would — truncation, bit flips, varint splices (injected
    /// continuation bits / over-long encodings), section duplication,
    /// deletion, and region swaps. The decoder contract under attack:
    /// **never panic**, and every accepted message must re-encode to a
    /// canonical fixpoint (decode → encode → decode gives identical
    /// bytes), otherwise the referee's byte-level dedup fingerprint is
    /// ill-defined.
    #[test]
    fn structured_mutation_fuzz_never_panics_and_reencodes_canonically() {
        let mut bases: Vec<Vec<u8>> = Vec::new();
        for (seed, n) in [(1u64, 0u64), (2, 100), (3, 20_000)] {
            let mut s = DistinctSketch::new(&cfg(), seed);
            s.extend_labels((0..n).map(gt_hash::fold61));
            bases.push(encode_sketch(&s).to_vec());
        }
        let mut sum = SumDistinctSketch::new(&cfg(), 4);
        for i in 0..2_000u64 {
            sum.insert(gt_hash::fold61(i), i % 7 + 1);
        }
        let sum_base = encode_sketch(&sum).to_vec();

        let mut rng = 0x5EED_F0CC_u64;
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for round in 0..1_200u64 {
            let base = &bases[(round % bases.len() as u64) as usize];
            let mut raw = base.clone();
            // 1-3 stacked mutations per round.
            for _ in 0..(splitmix(&mut rng) % 3 + 1) {
                if raw.is_empty() {
                    break;
                }
                let at = (splitmix(&mut rng) as usize) % raw.len();
                match splitmix(&mut rng) % 6 {
                    0 => raw.truncate(at),
                    1 => raw[at] ^= (splitmix(&mut rng) % 255 + 1) as u8,
                    // Varint splice: set a continuation bit and append a
                    // spare byte, manufacturing over-long/shifted varints.
                    2 => {
                        raw[at] |= 0x80;
                        raw.insert(at + 1, (splitmix(&mut rng) & 0x7F) as u8);
                    }
                    // Duplicate a section in place.
                    3 => {
                        let len = ((splitmix(&mut rng) as usize) % 16 + 1).min(raw.len() - at);
                        let section = raw[at..at + len].to_vec();
                        raw.splice(at..at, section);
                    }
                    // Delete a section.
                    4 => {
                        let len = ((splitmix(&mut rng) as usize) % 8 + 1).min(raw.len() - at);
                        raw.drain(at..at + len);
                    }
                    // Swap two adjacent regions.
                    _ => {
                        let len = ((splitmix(&mut rng) as usize) % 8 + 1).min(raw.len() - at) / 2;
                        for k in 0..len {
                            raw.swap(at + k, at + 2 * len - 1 - k);
                        }
                    }
                }
            }
            // The contract: decode must return, not panic…
            match decode_sketch::<()>(Bytes::from(raw.clone())) {
                Err(_) => rejected += 1,
                Ok(decoded) => {
                    accepted += 1;
                    // …and anything accepted re-encodes to a fixpoint.
                    let reenc = encode_sketch(&decoded);
                    let again: DistinctSketch = decode_sketch(reenc.clone())
                        .expect("re-encoding of an accepted sketch must decode");
                    assert_eq!(
                        reenc,
                        encode_sketch(&again),
                        "round {round}: accepted message is not canonical"
                    );
                }
            }
            // Same schedule against the payload-carrying decoder.
            let mut raw = sum_base.clone();
            let at = (splitmix(&mut rng) as usize) % raw.len();
            raw[at] ^= (splitmix(&mut rng) % 255 + 1) as u8;
            let _ = decode_sketch::<u64>(Bytes::from(raw)); // must not panic
        }
        // The fuzz must exercise both outcomes to mean anything.
        assert!(rejected > 0, "no mutation was ever rejected");
        assert!(
            accepted > 0,
            "every mutation was rejected — mutations too destructive to \
             test the accept path ({rejected} rejected)"
        );
    }

    #[test]
    fn decode_trials_matches_decode_and_reuses_its_body() {
        let mut s = GtSketch::<u64>::new(&cfg(), 42);
        for i in 0..30_000u64 {
            s.insert_with(gt_hash::fold61(i), i);
        }
        let bytes = encode_sketch(&s);
        let fresh: GtSketch<u64> = decode_sketch(bytes.clone()).unwrap();
        let like = GtSketch::<u64>::new(&cfg(), 42);
        let mut body = SortedTrials::default();
        // Decode twice into the same body: the second pass replaces the
        // first rather than appending to it.
        decode_trials(&like, bytes.clone(), &mut body).unwrap();
        decode_trials(&like, bytes, &mut body).unwrap();
        assert_eq!(body, SortedTrials::of(&fresh));
        assert_eq!(body, SortedTrials::of(&s));
    }

    #[test]
    fn decode_trials_enforces_the_coordination_contract() {
        let mut s = DistinctSketch::new(&cfg(), 42);
        s.extend_labels((0..500).map(gt_hash::fold61));
        let bytes = encode_sketch(&s);
        let mut body = SortedTrials::default();
        // Wrong seed in the receiving sketch.
        let wrong_seed = DistinctSketch::new(&cfg(), 43);
        assert!(matches!(
            decode_trials(&wrong_seed, bytes.clone(), &mut body),
            Err(CodecError::Sketch(SketchError::SeedMismatch))
        ));
        // Wrong config in the receiving sketch.
        let other_cfg = SketchConfig::new(0.2, 0.2).unwrap();
        let wrong_cfg = DistinctSketch::new(&other_cfg, 42);
        assert!(matches!(
            decode_trials(&wrong_cfg, bytes, &mut body),
            Err(CodecError::Sketch(SketchError::ConfigMismatch { .. }))
        ));
    }

    /// Mutated sketch messages go through both [`decode_sketch`] and a
    /// referee's [`crate::Referee::receive`], under the same structured
    /// mutation schedule as the main fuzz. The oracle is the same
    /// header check the referee runs (`like`'s seed and config), then
    /// [`decode_sketch`]. Either both reject with the same error and the
    /// referee's state and counters stay as they were, bar the one
    /// reject counter; or both accept, the message re-encodes to itself,
    /// and the referee's union equals the fold of every accepted message.
    ///
    /// Mutated full and delta frames are a second input: the frame
    /// decoder must agree with [`decode_sketch`] on the embedded body of
    /// every frame whose header checks pass: both accept with the same
    /// entries, or both reject with the same error.
    #[test]
    fn decode_and_receive_agree_under_mutation_fuzz() {
        use crate::party::PartyMessage;
        use crate::referee::{Receipt, Referee};
        let mut s = DistinctSketch::new(&cfg(), 9);
        s.extend_labels((0..20_000).map(gt_hash::fold61));
        let base = encode_sketch(&s).to_vec();
        let mut later = s.clone();
        later.extend_labels((20_000..26_000).map(gt_hash::fold61));
        let delta = gt_core::delta_between(&s, &later).unwrap();
        let frames = [
            encode_full_frame(&s, 2).to_vec(),
            encode_frame(&later, &delta, 5, Some((2, 0xBA5E))).to_vec(),
        ];
        let like = DistinctSketch::new(&cfg(), 9);
        let mut referee = Referee::new(&cfg(), 9);
        let mut fold = DistinctSketch::new(&cfg(), 9);
        // A decode reserves once, for at most min(message bytes, trials ×
        // capacity) entries; a fresh body's capacity is that reserve.
        let shape = cfg().trials() * cfg().capacity();
        let reserved_within_bound = |bytes: &Bytes, reserved: usize, round: u64| {
            let bound = bytes.len().min(shape);
            assert!(
                reserved <= bound,
                "round {round}: reserved {reserved} > {bound}"
            );
        };
        let mut rng = 0xF1A9_5EED_u64;
        let mut frame_rng = 0xF4A3_5EED_u64;
        let (mut both_ok, mut both_err) = (0u64, 0u64);
        let (mut frames_ok, mut frames_err) = (0u64, 0u64);
        // 1-3 stacked mutations: truncation, a byte flip, a varint splice.
        let mutate = |raw: &mut Vec<u8>, rng: &mut u64| {
            for _ in 0..splitmix(rng) % 3 + 1 {
                if raw.is_empty() {
                    break;
                }
                let at = (splitmix(rng) as usize) % raw.len();
                match splitmix(rng) % 3 {
                    0 => raw.truncate(at),
                    1 => raw[at] ^= (splitmix(rng) % 255 + 1) as u8,
                    _ => {
                        raw[at] |= 0x80;
                        raw.insert(at + 1, (splitmix(rng) & 0x7F) as u8);
                    }
                }
            }
        };
        // Everything a reject must leave as it was.
        let state = |r: &Referee| {
            let t = r.telemetry();
            let counts = (r.messages(), r.bytes_received(), r.items_reported());
            (counts, t.accepted, t.duplicates(), r.union_metrics())
        };
        for round in 0..800u64 {
            let mut raw = base.clone();
            // Most rounds mutate; every 8th passes the message through
            // clean so the accept path is exercised even though the
            // coordination filter rejects most seed/config-touching
            // mutations outright.
            if round % 8 != 0 {
                mutate(&mut raw, &mut rng);
            }
            let bytes = Bytes::from(raw);
            let oracle = get_coordinated_header(&mut bytes.clone(), &like)
                .and_then(|()| decode_sketch::<()>(bytes.clone()));
            let mut body = SortedTrials::default();
            let _ = decode_trials(&like, bytes.clone(), &mut body);
            reserved_within_bound(&bytes, body.capacity(), round);
            // One party per round, so no message is a redelivery.
            let msg = PartyMessage {
                party_id: round as usize,
                payload: bytes.clone(),
                items_observed: 0,
            };
            let before = state(&referee);
            let rejected = referee.telemetry().rejected();
            match (oracle, referee.receive(&msg)) {
                (Ok(d), Ok(receipt)) => {
                    both_ok += 1;
                    assert_eq!(receipt, Receipt::Merged, "round {round}");
                    assert_eq!(encode_sketch(&d), bytes, "round {round}: not canonical");
                    fold.merge_from(&d).unwrap();
                    assert_eq!(
                        encode_sketch(referee.union_sketch()),
                        encode_sketch(&fold),
                        "round {round}: the union diverged from the fold"
                    );
                }
                (Err(want), Err(got)) => {
                    both_err += 1;
                    assert_eq!(got, want, "round {round}: errors diverged");
                    assert_eq!(state(&referee), before, "round {round}");
                    assert_eq!(referee.telemetry().rejected(), rejected + 1);
                }
                (oracle, got) => panic!(
                    "round {round}: accept sets diverged (decode_sketch: {:?}, receive: {got:?})",
                    oracle.map(|_| "accepted"),
                ),
            }

            let mut raw = frames[round as usize % 2].clone();
            if round % 8 != 1 {
                mutate(&mut raw, &mut frame_rng);
            }
            let bytes = Bytes::from(raw);
            let mut body = SortedTrials::default();
            let got = decode_frame(&like, bytes.clone(), &mut body);
            reserved_within_bound(&bytes, body.capacity(), round);
            // The referee's leveled decode agrees, within the same bound,
            // and each entry carries its label's hash level.
            let mut leveled = LeveledTrials::default();
            let got_leveled = decode_frame(&like, bytes.clone(), &mut leveled);
            reserved_within_bound(&bytes, leveled.sorted().capacity(), round);
            assert_eq!(got_leveled, got, "round {round}");
            if got.is_ok() {
                assert_eq!(leveled.sorted(), &body, "round {round}");
                for (trial, (_, _, entries, levels)) in like.trials().iter().zip(leveled.iter()) {
                    for (&(label, ()), &level) in entries.iter().zip(levels) {
                        assert_eq!(level, trial.hasher().level(label), "round {round}");
                    }
                }
            }
            // The oracle: the same header checks, then `decode_sketch` on
            // the embedded body.
            let mut embedded = bytes;
            let want = get_frame_header(&mut embedded).and_then(|header| {
                get_coordinated_header(&mut embedded.clone(), &like)?;
                let d = decode_sketch::<()>(embedded)?;
                Ok((header, SortedTrials::of(&d)))
            });
            match (got, want) {
                (Ok(header), Ok((want_header, want_body))) => {
                    frames_ok += 1;
                    assert_eq!(header, want_header, "round {round}");
                    assert_eq!(body, want_body, "round {round}: frame bodies diverged");
                }
                (Err(e), Err(want)) => {
                    frames_err += 1;
                    assert_eq!(e, want, "round {round}: frame errors diverged");
                }
                (got, want) => panic!(
                    "round {round}: frame accept sets diverged (frame decoder: {:?}, oracle: {:?})",
                    got.map(|_| "accepted"),
                    want.map(|_| "accepted")
                ),
            }
        }
        assert!(both_err > 0, "no mutation was ever rejected");
        assert!(both_ok > 0, "every mutation was rejected");
        assert!(frames_err > 0 && frames_ok > 0, "{frames_ok} {frames_err}");
    }

    /// A frame decoded to a sketch: the header with
    /// [`get_frame_header`], then the embedded sketch with
    /// [`decode_sketch`]'s full validation.
    type DecodedFrame<V> = (u64, Option<(u64, u64)>, GtSketch<V>);

    fn parse_frame<V: WirePayload>(mut buf: Bytes) -> Result<DecodedFrame<V>, CodecError> {
        let (generation, base) = get_frame_header(&mut buf)?;
        Ok((generation, base, decode_sketch(buf)?))
    }

    #[test]
    fn frames_roundtrip_both_kinds() {
        let mut s = DistinctSketch::new(&cfg(), 21);
        s.extend_labels((0..4_000u64).map(gt_hash::fold61));
        let base = s.clone();
        s.extend_labels((4_000..6_000u64).map(gt_hash::fold61));

        let full = encode_full_frame(&s, 9);
        let (generation, header, sketch) = parse_frame::<()>(full).unwrap();
        assert_eq!(header, None, "expected full frame");
        assert_eq!(generation, 9);
        assert_eq!(encode_sketch(&sketch), encode_sketch(&s));

        let d = gt_core::delta_between(&base, &s).unwrap();
        let base_fp = payload_fingerprint(&encode_sketch(&base));
        let bytes = encode_frame(&s, &d, 9, Some((4, base_fp)));
        let (generation, header, delta) = parse_frame::<()>(bytes).unwrap();
        let (base_generation, base_fingerprint) = header.expect("expected delta frame");
        assert_eq!(
            (generation, base_generation, base_fingerprint),
            (9, 4, base_fp)
        );
        // The decoded delta must still apply exactly.
        let mut rebuilt = base.clone();
        gt_core::apply_delta(&mut rebuilt, &SortedTrials::of(&delta)).unwrap();
        assert_eq!(encode_sketch(&rebuilt), encode_sketch(&s));
    }

    #[test]
    fn steady_state_delta_frame_is_a_fraction_of_the_full_frame() {
        // The tentpole's byte claim at codec granularity: few changes ->
        // tiny frame.
        let mut s = DistinctSketch::new(&cfg(), 33);
        s.extend_labels((0..50_000u64).map(gt_hash::fold61));
        let base = s.clone();
        s.extend_labels((0..500u64).map(gt_hash::fold61)); // re-arrivals only
        let d = gt_core::delta_between(&base, &s).unwrap();
        let full = encode_full_frame(&s, 2).len();
        let delta = encode_frame(&s, &d, 2, Some((1, 0))).len();
        assert!(
            delta * 5 <= full,
            "steady-state delta frame {delta}B not >=5x smaller than full {full}B"
        );
    }

    #[test]
    fn corrupt_frames_are_rejected_not_applied() {
        let mut s = DistinctSketch::new(&cfg(), 5);
        s.extend_labels((0..1_000u64).map(gt_hash::fold61));
        let bytes = encode_full_frame(&s, 3);
        // Wrong magic (a bare sketch message is not a frame).
        assert!(matches!(
            parse_frame::<()>(encode_sketch(&s)),
            Err(CodecError::BadMagic(_))
        ));
        // Unknown kind byte.
        let mut raw = bytes.to_vec();
        raw[4] = 7;
        assert!(matches!(
            parse_frame::<()>(Bytes::from(raw)),
            Err(CodecError::BadTag(7))
        ));
        // Truncations anywhere must not panic.
        for cut in [0, 4, 5, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(parse_frame::<()>(bytes.slice(0..cut)).is_err(), "cut {cut}");
        }
        // A delta frame claiming to be its own base is malformed.
        let d = DistinctSketch::new(&cfg(), 5);
        let frame = encode_frame(&d, &SortedTrials::of(&d), 4, Some((4, 0)));
        assert!(matches!(
            parse_frame::<()>(frame),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn latest_ts_payloads_roundtrip_through_frames() {
        use gt_core::LatestTs;
        let mut s = GtSketch::<LatestTs>::new(&cfg(), 15);
        for t in 0..3_000u64 {
            s.insert_with(gt_hash::fold61(t % 2_000), LatestTs(t));
        }
        let bytes = encode_sketch(&s);
        let d: GtSketch<LatestTs> = decode_sketch(bytes.clone()).unwrap();
        assert_eq!(encode_sketch(&d), bytes);
        assert_eq!(bytes.len(), encoded_sketch_len(&s));
        let (_, header, sketch) = parse_frame::<LatestTs>(encode_full_frame(&s, 1)).unwrap();
        assert_eq!(header, None, "expected full frame");
        assert_eq!(encode_sketch(&sketch), bytes);
    }

    #[test]
    fn fingerprint_separates_payloads_and_is_stable() {
        let mut a = DistinctSketch::new(&cfg(), 3);
        a.extend_labels((0..1_000).map(gt_hash::fold61));
        let mut b = DistinctSketch::new(&cfg(), 3);
        b.extend_labels((1..1_001).map(gt_hash::fold61));
        let ea = encode_sketch(&a);
        let eb = encode_sketch(&b);
        // Same state, same fingerprint (deterministic re-encode)...
        assert_eq!(
            payload_fingerprint(&ea),
            payload_fingerprint(&encode_sketch(&a))
        );
        // ...different states, different fingerprints (w.h.p.).
        assert_ne!(payload_fingerprint(&ea), payload_fingerprint(&eb));
        // Known vectors so the function cannot silently change: FNV-1a.
        assert_eq!(payload_fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(payload_fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// The base key is a function of the state: a sketch decoded from the
    /// wire keys exactly as the sender's.
    #[test]
    fn a_decoded_sketch_has_the_senders_state_key() {
        use gt_core::{LatestTs, StateKey};
        let mut s = GtSketch::<LatestTs>::new(&cfg(), 3);
        for i in 0..20_000u64 {
            s.insert_with(gt_hash::fold61(i % 7_000), LatestTs(i));
        }
        let decoded: GtSketch<LatestTs> = decode_sketch(encode_sketch(&s)).unwrap();
        assert_eq!(
            StateKey::of(&decoded).key(&decoded),
            StateKey::of(&s).key(&s)
        );
    }
}
