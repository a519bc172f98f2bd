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
//!   invariant via `CoordinatedTrial::reload`), so a referee cannot silently
//!   union a corrupt or uncoordinated message.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gt_core::{GtSketch, SketchConfig, SketchError};
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
/// `Send + Sync` is part of the contract: referee-side batch unions fan
/// the decoded sketches out across scoped worker threads
/// (`gt_core::merge_tree`), so any payload that travels must be shareable.
pub trait WirePayload: gt_core::Payload + Send + Sync {
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
/// base fingerprint u64 (the continuation header that lets a referee
/// detect gaps and request resync); then the canonical sketch encoding —
/// [`encode_sketch`] bytes verbatim, magic included, so frames inherit
/// the codec's validation, canonical-bytes property, and fingerprinting
/// unchanged.
pub fn encode_full_frame<V: WirePayload>(sketch: &GtSketch<V>, generation: u64) -> Bytes {
    let body = encode_sketch(sketch);
    let mut buf = BytesMut::with_capacity(4 + 1 + varint_len(generation) + body.len());
    buf.put_u32(FRAME_MAGIC);
    buf.put_u8(FRAME_KIND_FULL);
    put_varint(&mut buf, generation);
    buf.put_slice(&body);
    buf.freeze()
}

/// Encode a delta (a [`gt_core::delta_between`] result) as a
/// monitoring-plane frame with its continuation header.
pub fn encode_delta_frame<V: WirePayload>(
    delta: &GtSketch<V>,
    generation: u64,
    base_generation: u64,
    base_fingerprint: u64,
) -> Bytes {
    let body = encode_sketch(delta);
    let mut buf = BytesMut::with_capacity(
        4 + 1 + varint_len(generation) + varint_len(base_generation) + 8 + body.len(),
    );
    buf.put_u32(FRAME_MAGIC);
    buf.put_u8(FRAME_KIND_DELTA);
    put_varint(&mut buf, generation);
    put_varint(&mut buf, base_generation);
    buf.put_u64(base_fingerprint);
    buf.put_slice(&body);
    buf.freeze()
}

/// Parse a frame header, leaving `buf` at the embedded sketch message:
/// the generation, plus `(base generation, base fingerprint)` for a delta
/// frame. The one frame-header parser: the referee's frame ingress
/// decodes the embedded sketch that follows through
/// [`decode_sketch_into`], with the full sketch validation, so a corrupt
/// frame is rejected, never silently applied.
pub(crate) fn get_frame_header(buf: &mut Bytes) -> Result<(u64, Option<(u64, u64)>), CodecError> {
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
    // Pass 1: collect and sort every trial's entries once (one Vec with
    // per-trial ranges, not one Vec per trial) and total the exact
    // encoded length. The buffer is then reserved exactly — spilling
    // millions of small sketches must not pay repeated `Vec` regrowth,
    // and the capacity test pins `len == encoded_sketch_len`.
    let trials = sketch.trials();
    let mut entries: Vec<(u64, V)> = Vec::with_capacity(sketch.sample_entries());
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(trials.len());
    for trial in trials {
        let start = entries.len();
        entries.extend(trial.sample_iter());
        entries[start..].sort_unstable_by_key(|&(label, _)| label);
        ranges.push((start, entries.len()));
    }
    let cfg = sketch.config();
    let mut total = header_len(cfg);
    for (trial, &(start, end)) in trials.iter().zip(&ranges) {
        total += 1 + varint_len(trial.items_observed());
        total += varint_len((end - start) as u64);
        let mut prev = 0u64;
        for &(label, payload) in &entries[start..end] {
            total += varint_len(label - prev) + payload.encoded_len();
            prev = label;
        }
    }
    // Pass 2: write.
    let mut buf = BytesMut::with_capacity(total);
    buf.put_u32(MAGIC);
    buf.put_u64(sketch.master_seed());
    buf.put_f64(cfg.epsilon());
    buf.put_f64(cfg.delta());
    put_varint(&mut buf, cfg.capacity() as u64);
    put_varint(&mut buf, cfg.trials() as u64);
    put_hash_kind(&mut buf, cfg.hash_kind());
    for (trial, &(start, end)) in trials.iter().zip(&ranges) {
        buf.put_u8(trial.level());
        put_varint(&mut buf, trial.items_observed());
        put_varint(&mut buf, (end - start) as u64);
        let mut prev = 0u64;
        for &(label, _) in &entries[start..end] {
            put_varint(&mut buf, label - prev);
            prev = label;
        }
        for &(_, payload) in &entries[start..end] {
            payload.encode(&mut buf);
        }
    }
    debug_assert_eq!(buf.len(), total, "encoded length prediction drifted");
    buf.freeze()
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

/// Exact byte length [`encode_sketch`] will produce for `sketch`, without
/// encoding it — usable for spill-log capacity planning and asserted
/// against the real encoder in tests.
pub fn encoded_sketch_len<V: WirePayload>(sketch: &GtSketch<V>) -> usize {
    let mut total = header_len(sketch.config());
    let mut labels: Vec<u64> = Vec::new();
    for trial in sketch.trials() {
        total += 1 + varint_len(trial.items_observed());
        total += varint_len(trial.sample_len() as u64);
        labels.clear();
        labels.extend(trial.sample_iter().map(|(label, _)| label));
        labels.sort_unstable();
        let mut prev = 0u64;
        for &label in &labels {
            total += varint_len(label - prev);
            prev = label;
        }
        total += trial
            .sample_iter()
            .map(|(_, payload)| payload.encoded_len())
            .sum::<usize>();
    }
    total
}

/// Parse a sketch message's header — magic, master seed, ε, δ, capacity,
/// trials, hash kind — bounding the declared shape by [`MAX_WIRE_ENTRIES`]
/// before anything is allocated. The one header parser of both sketch
/// decoders.
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

/// Deserialize and validate a sketch message.
pub fn decode_sketch<V: WirePayload>(mut buf: Bytes) -> Result<GtSketch<V>, CodecError> {
    let (master_seed, config) = get_sketch_header(&mut buf)?;
    let mut sketch = GtSketch::new(&config, master_seed);
    get_sketch_body(&mut sketch, buf, &mut DecodeScratch::new())?;
    Ok(sketch)
}

/// Reusable decode buffers for [`decode_sketch_into`]: one entries vector,
/// grown once to the configured capacity and kept across messages.
#[derive(Clone, Debug, Default)]
pub struct DecodeScratch<V> {
    entries: Vec<(u64, V)>,
}

impl<V> DecodeScratch<V> {
    /// Fresh scratch (buffers grow on first use and then stay).
    pub fn new() -> Self {
        DecodeScratch {
            entries: Vec::new(),
        }
    }
}

/// Deserialize a sketch message *into* an existing sketch, reusing its
/// trial storage and the caller's [`DecodeScratch`] — the allocation-free
/// counterpart of [`decode_sketch`] for referees that decode thousands of
/// messages per collection round.
///
/// Beyond [`decode_sketch`]'s validation, this variant enforces the
/// coordination contract up front (the receiving sketch already knows the
/// expected seed and config, so there is no reason to build an
/// uncoordinated sketch only to reject it at merge time):
///
/// * a master-seed mismatch is [`CodecError::Sketch`] /
///   [`SketchError::SeedMismatch`];
/// * a config mismatch (shape, epsilon/delta, hash kind) is
///   [`CodecError::Sketch`] / [`SketchError::ConfigMismatch`].
///
/// On `Err` the sketch's state is unspecified (some trials may hold the
/// new message, others the old one); reload or discard it before use. On
/// `Ok` the sketch state is bitwise-identical to what [`decode_sketch`]
/// would have returned — property-tested, including under the structured
/// mutation fuzz.
pub fn decode_sketch_into<V: WirePayload>(
    sketch: &mut GtSketch<V>,
    mut buf: Bytes,
    scratch: &mut DecodeScratch<V>,
) -> Result<(), CodecError> {
    let (master_seed, config) = get_sketch_header(&mut buf)?;
    if master_seed != sketch.master_seed() {
        return Err(CodecError::Sketch(SketchError::SeedMismatch));
    }
    if config != *sketch.config() {
        return Err(CodecError::Sketch(SketchError::ConfigMismatch {
            detail: format!("{:?} vs {:?}", config, sketch.config()),
        }));
    }
    get_sketch_body(sketch, buf, scratch)
}

/// Parse the per-trial level / items / labels / payloads that follow the
/// header into `sketch`'s trials, then reject trailing bytes. The one
/// body parser of both sketch decoders; `sketch` already has the
/// header's config.
fn get_sketch_body<V: WirePayload>(
    sketch: &mut GtSketch<V>,
    mut buf: Bytes,
    scratch: &mut DecodeScratch<V>,
) -> Result<(), CodecError> {
    let (capacity, trials) = (sketch.config().capacity(), sketch.config().trials());
    scratch.entries.reserve(capacity);
    for t in 0..trials {
        let level = get_u8(&mut buf)?;
        let items = get_varint(&mut buf)?;
        let n = get_varint(&mut buf)? as usize;
        if n > capacity {
            return Err(CodecError::Sketch(SketchError::InvalidConfig {
                parameter: "sample",
                reason: format!("sample size {n} exceeds capacity {capacity}"),
            }));
        }
        scratch.entries.clear();
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev
                .checked_add(get_varint(&mut buf)?)
                .ok_or(CodecError::Malformed("label delta overflows u64"))?;
            scratch.entries.push((prev, V::default()));
        }
        for entry in scratch.entries.iter_mut() {
            entry.1 = V::decode(&mut buf)?;
        }
        sketch.reload_trial(t, level, items, scratch.entries.iter().copied())?;
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
    use gt_core::{DistinctSketch, SumDistinctSketch};

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
            payload.insert_merging_with(gt_hash::fold61(i), i * 977);
        }
        assert_eq!(encode_sketch(&payload).len(), encoded_sketch_len(&payload));

        // Two-byte hash-kind tags go through the same header accounting.
        let kwise =
            gt_core::SketchConfig::from_shape(0.2, 0.2, 16, 5, HashFamilyKind::KWise(4)).unwrap();
        let mut s = DistinctSketch::new(&kwise, 9);
        s.extend_labels((0..2_000u64).map(gt_hash::fold61));
        assert_eq!(encode_sketch(&s).len(), encoded_sketch_len(&s));
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
    fn decode_into_matches_decode_and_reuses_storage() {
        let mut s = GtSketch::<u64>::new(&cfg(), 42);
        for i in 0..30_000u64 {
            s.insert_merging_with(gt_hash::fold61(i), i);
        }
        let bytes = encode_sketch(&s);
        let fresh: GtSketch<u64> = decode_sketch(bytes.clone()).unwrap();
        let mut arena = GtSketch::<u64>::new(&cfg(), 42);
        let mut scratch = DecodeScratch::new();
        // Decode twice into the same arena: the second pass overwrites the
        // first, proving the reload path doesn't accumulate stale entries.
        decode_sketch_into(&mut arena, bytes.clone(), &mut scratch).unwrap();
        decode_sketch_into(&mut arena, bytes, &mut scratch).unwrap();
        assert_eq!(encode_sketch(&arena), encode_sketch(&fresh));
        assert_eq!(arena.items_observed(), fresh.items_observed());
    }

    #[test]
    fn decode_into_enforces_the_coordination_contract() {
        let mut s = DistinctSketch::new(&cfg(), 42);
        s.extend_labels((0..500).map(gt_hash::fold61));
        let bytes = encode_sketch(&s);
        let mut scratch = DecodeScratch::new();
        // Wrong seed in the receiving sketch.
        let mut wrong_seed = DistinctSketch::new(&cfg(), 43);
        assert!(matches!(
            decode_sketch_into(&mut wrong_seed, bytes.clone(), &mut scratch),
            Err(CodecError::Sketch(SketchError::SeedMismatch))
        ));
        // Wrong config in the receiving sketch.
        let other_cfg = SketchConfig::new(0.2, 0.2).unwrap();
        let mut wrong_cfg = DistinctSketch::new(&other_cfg, 42);
        assert!(matches!(
            decode_sketch_into(&mut wrong_cfg, bytes, &mut scratch),
            Err(CodecError::Sketch(SketchError::ConfigMismatch { .. }))
        ));
    }

    /// The into-variant must accept exactly the messages the allocating
    /// decoder (followed by the referee's seed/config checks) accepts, and
    /// produce bitwise-identical sketches — under the same structured
    /// mutation schedule as the main fuzz. Error *variants* may differ
    /// (the into-variant front-loads the coordination checks), but the
    /// accept sets may not.
    #[test]
    fn decode_into_agrees_with_decode_under_mutation_fuzz() {
        let mut s = DistinctSketch::new(&cfg(), 9);
        s.extend_labels((0..20_000).map(gt_hash::fold61));
        let base = encode_sketch(&s).to_vec();
        let mut arena = DistinctSketch::new(&cfg(), 9);
        let mut scratch = DecodeScratch::new();
        let mut rng = 0xF1A9_5EED_u64;
        let (mut both_ok, mut both_err) = (0u64, 0u64);
        for round in 0..800u64 {
            let mut raw = base.clone();
            // Most rounds mutate; every 8th passes the message through
            // clean so the accept path is exercised even though the
            // coordination filter rejects most seed/config-touching
            // mutations outright.
            let mutations = if round % 8 == 0 {
                0
            } else {
                splitmix(&mut rng) % 3 + 1
            };
            for _ in 0..mutations {
                if raw.is_empty() {
                    break;
                }
                let at = (splitmix(&mut rng) as usize) % raw.len();
                match splitmix(&mut rng) % 3 {
                    0 => raw.truncate(at),
                    1 => raw[at] ^= (splitmix(&mut rng) % 255 + 1) as u8,
                    _ => {
                        raw[at] |= 0x80;
                        raw.insert(at + 1, (splitmix(&mut rng) & 0x7F) as u8);
                    }
                }
            }
            let bytes = Bytes::from(raw);
            let oracle = decode_sketch::<()>(bytes.clone())
                .ok()
                .filter(|d| d.master_seed() == arena.master_seed() && d.config() == arena.config());
            let into = decode_sketch_into(&mut arena, bytes, &mut scratch);
            match (oracle, into) {
                (Some(d), Ok(())) => {
                    both_ok += 1;
                    assert_eq!(
                        encode_sketch(&arena),
                        encode_sketch(&d),
                        "round {round}: accepted states diverged"
                    );
                }
                (None, Err(_)) => both_err += 1,
                (oracle, into) => panic!(
                    "round {round}: accept sets diverged (oracle accepted: {}, into: {:?})",
                    oracle.is_some(),
                    into.map(|()| "accepted")
                ),
            }
        }
        assert!(both_err > 0, "no mutation was ever rejected");
        assert!(both_ok > 0, "every mutation was rejected");
    }

    /// A frame decoded the way the referee's ingress does: the header
    /// with [`get_frame_header`], then the embedded sketch with its full
    /// validation.
    type DecodedFrame<V> = (u64, Option<(u64, u64)>, GtSketch<V>);

    fn decode_frame<V: WirePayload>(mut buf: Bytes) -> Result<DecodedFrame<V>, CodecError> {
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
        let (generation, header, sketch) = decode_frame::<()>(full).unwrap();
        assert_eq!(header, None, "expected full frame");
        assert_eq!(generation, 9);
        assert_eq!(encode_sketch(&sketch), encode_sketch(&s));

        let d = gt_core::delta_between(&base, &s).unwrap();
        let base_fp = payload_fingerprint(&encode_sketch(&base));
        let bytes = encode_delta_frame(&d, 9, 4, base_fp);
        let (generation, header, delta) = decode_frame::<()>(bytes).unwrap();
        let (base_generation, base_fingerprint) = header.expect("expected delta frame");
        assert_eq!(
            (generation, base_generation, base_fingerprint),
            (9, 4, base_fp)
        );
        // The decoded delta must still apply exactly.
        let mut rebuilt = base.clone();
        gt_core::apply_delta(&mut rebuilt, &delta).unwrap();
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
        let delta = encode_delta_frame(&d, 2, 1, 0).len();
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
            decode_frame::<()>(encode_sketch(&s)),
            Err(CodecError::BadMagic(_))
        ));
        // Unknown kind byte.
        let mut raw = bytes.to_vec();
        raw[4] = 7;
        assert!(matches!(
            decode_frame::<()>(Bytes::from(raw)),
            Err(CodecError::BadTag(7))
        ));
        // Truncations anywhere must not panic.
        for cut in [0, 4, 5, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_frame::<()>(bytes.slice(0..cut)).is_err(),
                "cut {cut}"
            );
        }
        // A delta frame claiming to be its own base is malformed.
        let d = DistinctSketch::new(&cfg(), 5);
        let frame = encode_delta_frame(&d, 4, 4, 0);
        assert!(matches!(
            decode_frame::<()>(frame),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn latest_ts_payloads_roundtrip_through_frames() {
        use gt_core::LatestTs;
        let mut s = GtSketch::<LatestTs>::new(&cfg(), 15);
        for t in 0..3_000u64 {
            s.insert_merging_with(gt_hash::fold61(t % 2_000), LatestTs(t));
        }
        let bytes = encode_sketch(&s);
        let d: GtSketch<LatestTs> = decode_sketch(bytes.clone()).unwrap();
        assert_eq!(encode_sketch(&d), bytes);
        assert_eq!(bytes.len(), encoded_sketch_len(&s));
        let (_, header, sketch) = decode_frame::<LatestTs>(encode_full_frame(&s, 1)).unwrap();
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
}
