//! The keyed multi-tenant sketch store.
//!
//! [`SketchStore`] holds one coordinated GT sketch per `u64` key — designed
//! for millions of small sketches behind one ingest path. Every key shares
//! the store's [`SketchConfig`] and master seed, so any key's state is
//! always bitwise-interchangeable (canonical wire bytes) with a standalone
//! [`GtSketch`] fed the same labels; the per-key oracle test holds the
//! store to exactly that.
//!
//! ## Tiers
//!
//! A key lives in exactly one of two tiers:
//!
//! * **Resident (packed)** — state lives in the key's own slot, a
//!   `Box<[u64]>` held by its index entry: a packed sketch section (per
//!   trial: level+count word, items word, then the sample entries)
//!   followed by a *delta buffer* of raw labels appended with no hashing
//!   at all. Because a coordinated sketch's state is a pure function of
//!   the observed label multiset (the interleaving-independence property
//!   the concurrent tests prove), deferring the hash work is lossless:
//!   when the slot fills — or a query or eviction needs real state — the
//!   packed section is reloaded into a pooled scratch sketch, the delta
//!   is replayed in arrival order through the batch kernel, and the
//!   folded state is written back. Ingest therefore pays ~1 word write
//!   per item, and every query reads the key's current state.
//!
//!   Below capacity every trial is at level 0 and holds the same labels,
//!   payloads and item count, so the section packs in *exact form*: one
//!   meta word whose level byte is the reserved `EXACT` flag over the
//!   sample length, one items word, then the shared entries once —
//!   `2 + n·entry` words instead of `r·(2 + n·entry)`. Parsing reloads
//!   every trial from the one list; the first overflow promotes them all
//!   during the delta replay, and the next writeback packs the per-trial
//!   form. Canonical bytes do not depend on the form.
//! * **Spilled** — evicted to the shard's spill log as the folded
//!   packed section's words, a word count and a CRC32C (`seal`). The next
//!   touch checks the checksum, then the structure (`parse_into`), before
//!   writing back; a failure is a [`crate::StoreError::CorruptRecord`].
//!
//! ## Sharding and locking
//!
//! Keys hash (`mix64`) onto a power-of-two shard array sized from
//! [`effective_workers`]. Ingest stages up to [`STORE_STAGE`] items,
//! sorts them by `(shard, key, arrival)` — arrival order is preserved
//! *within* a key, which is what keep-first payload semantics need — and
//! takes each shard lock once per staged batch. All store counters are
//! recorded under the owning shard's lock; [`SketchStore::metrics_snapshot`]
//! takes every shard lock in index order for a consistent cut.
//!
//! ## Eviction
//!
//! Each shard enforces `byte_budget / shards` over its resident bytes
//! (the bytes of its resident keys' slots). Pressure pops an
//! approximate-LRU queue of `(key, stamp)` touches (stale stamps are
//! lazily skipped), spilling until the shard is back under budget or
//! nothing evictable remains. An evicted key's slot is dropped, so the
//! budget bounds the memory the slots hold, not only their accounting.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use crossbeam::utils::CachePadded;
use gt_core::{effective_workers, CoordinatedTrial, Estimate, GtSketch, SketchConfig, SketchError};
use gt_hash::{crc32c, crc32c_append, mix64};
use gt_streams::{encode_sketch, WirePayload};
use parking_lot::Mutex;

use crate::metrics::StoreMetricsSnapshot;
use crate::spill::SpillLog;
use crate::{Result, StoreError};

/// Staging-buffer size for keyed ingest: items are grouped by
/// `(shard, key)` in chunks of this many entries so each shard lock is
/// taken once per chunk. Matches `gt_core::sketch::INGEST_BUF`.
pub const STORE_STAGE: usize = 1024;

/// Level byte that marks a packed section in exact form (one shared list
/// for every trial). No trial can reach it: levels stop at `MAX_LEVEL`.
const EXACT: u8 = 0xFF;
const _: () = assert!(EXACT > gt_hash::MAX_LEVEL);

/// A [`StoreError::CorruptRecord`] for `reason`.
fn corrupt(reason: impl std::fmt::Display) -> StoreError {
    StoreError::CorruptRecord(reason.to_string())
}

/// CRC32C over `key` and then its record `body`: binds a record to its key.
fn record_crc(key: u64, body: &[u8]) -> u32 {
    crc32c_append(crc32c(&key.to_le_bytes()), body)
}

/// Pack `words` into `record` as `key`'s spill record: the words
/// little-endian, then a `u32` word count, then the record checksum.
fn seal(key: u64, words: &[u64], record: &mut Vec<u8>) {
    record.clear();
    record.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    record.extend((words.len() as u32).to_le_bytes());
    record.extend(record_crc(key, record).to_le_bytes());
}

/// Check `key`'s spill record's checksum and word count (never 0: every
/// spilled key has state) and unpack its words for the parse to check.
fn unseal(key: u64, record: &[u8], words: &mut Vec<u64>) -> Result<()> {
    let Some((body, crc)) = record.split_last_chunk::<4>() else {
        return Err(corrupt("record shorter than its trailer"));
    };
    if record_crc(key, body) != u32::from_le_bytes(*crc) {
        return Err(corrupt("checksum mismatch"));
    }
    let Some((packed, &count)) = body.split_last_chunk::<4>() else {
        return Err(corrupt("record shorter than its trailer"));
    };
    let (chunks, tail) = packed.as_chunks::<8>();
    let count = u32::from_le_bytes(count) as usize;
    if count == 0 || !tail.is_empty() || chunks.len() != count {
        return Err(corrupt("word count is 0 or not the record length"));
    }
    words.clear();
    words.extend(chunks.iter().map(|&w| u64::from_le_bytes(w)));
    Ok(())
}

/// The smallest power-of-two multiple of `unit` words that holds `words`.
fn pow2_multiple(words: usize, unit: usize) -> usize {
    unit * words.div_ceil(unit).next_power_of_two()
}

/// Payloads a [`SketchStore`] can pack into slot words. `WORDS` is the
/// packed width per sample entry — `0` for `()` (distinct counting), `1`
/// for word-sized payloads like `u64`.
pub trait StorePayload: WirePayload {
    /// Packed words per payload (0 or 1).
    const WORDS: usize;
    /// Pack into one slot word. Never called when `WORDS == 0`.
    fn to_word(self) -> u64;
    /// Unpack from one slot word. Never called when `WORDS == 0`.
    fn from_word(word: u64) -> Self;
}

impl StorePayload for () {
    const WORDS: usize = 0;
    fn to_word(self) -> u64 {
        0
    }
    fn from_word(_word: u64) -> Self {}
}

impl StorePayload for u64 {
    const WORDS: usize = 1;
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

/// Construction knobs for a [`SketchStore`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Shard count; `0` (the default) means [`effective_workers`]. Rounded
    /// up to a power of two.
    pub shards: usize,
    /// Total resident bytes across all shards (live packed slots).
    /// Crossing it triggers LRU eviction to the spill log. Default 64 MiB.
    pub byte_budget: usize,
    /// Directory for the per-shard spill logs. `None` (the default) makes
    /// a unique directory under [`std::env::temp_dir`] that is removed on
    /// drop; a provided directory is created if missing and its log files
    /// are removed on drop, but the directory itself is kept.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            shards: 0,
            byte_budget: 64 << 20,
            spill_dir: None,
        }
    }
}

impl StoreOptions {
    /// Set the shard count (see [`StoreOptions::shards`]).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the byte budget (see [`StoreOptions::byte_budget`]).
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        self.byte_budget = bytes;
        self
    }

    /// Set an explicit spill directory (see [`StoreOptions::spill_dir`]).
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// One staged ingest entry, tagged with its shard and arrival sequence so
/// the sort groups by `(shard, key)` while preserving arrival order within
/// a key (keep-first payload semantics depend on that order).
struct Staged<V> {
    shard: u32,
    seq: u32,
    key: u64,
    label: u64,
    payload: V,
}

/// Where a key's state currently lives.
enum KeyState {
    /// Packed in the key's own slot: `sketch_words` words of packed sketch
    /// section followed by `delta_items` raw unfolded items. The slot's
    /// length follows [`ShardState::slot_len`].
    Resident {
        slot: Box<[u64]>,
        sketch_words: u32,
        delta_items: u32,
    },
    /// On disk in the shard's spill log.
    Spilled { offset: u64, len: u32 },
}

/// Per-key index entry.
struct KeyEntry {
    state: KeyState,
    /// Stamp of this key's latest LRU touch (stale queue entries carry an
    /// older stamp and are skipped).
    last_stamp: u64,
}

struct ShardState<V: StorePayload> {
    index: HashMap<u64, KeyEntry>,
    /// Words of the smallest slot: `2r + 6` rounded up to a power of two.
    min_slot: usize,
    /// Words of the largest slot: the first power-of-two multiple of
    /// `min_slot` that holds a key's worst-case section plus headroom.
    max_slot: usize,
    /// Pooled sketch every fold/query/evict materializes into.
    scratch: GtSketch<V>,
    /// Reusable `(label, payload)` buffer for delta replay.
    run_buf: Vec<(u64, V)>,
    spill: SpillLog,
    /// Reusable spill record bytes, for both directions.
    spill_buf: Vec<u8>,
    /// Reusable record words (eviction's packed fold, restore's unpack).
    spill_words: Vec<u64>,
    /// Approximate-LRU touch queue of `(key, stamp)`.
    lru: VecDeque<(u64, u64)>,
    stamp: u64,
    /// Budgeted bytes: 8 × the words of every resident key's slot.
    resident_bytes: usize,
    resident_keys: u64,
    /// Resident keys whose packed section is in exact form.
    exact_keys: u64,
    spilled_keys: u64,
    budget: usize,
    /// This shard's event counters; the gauge fields stay zero (the
    /// snapshot reads those from the shard state).
    tally: StoreMetricsSnapshot,
}

impl<V: StorePayload> ShardState<V> {
    /// Packed words per sample entry: the label plus the payload words.
    const ENTRY_WORDS: usize = 1 + V::WORDS;

    /// Whether `sketch` packs in exact form: every trial is still at level
    /// 0, where every label qualifies, so all trials hold the same labels,
    /// payloads and item count and one shared list stands for all of them.
    fn is_exact(sketch: &GtSketch<V>) -> bool {
        sketch.trials().iter().all(|t| t.level() == 0)
    }

    /// The trials whose lists the packed section stores: only the first
    /// one in exact form, every trial otherwise.
    fn packed_trials(sketch: &GtSketch<V>) -> &[CoordinatedTrial<V>] {
        let trials = sketch.trials();
        if Self::is_exact(sketch) {
            &trials[..1]
        } else {
            trials
        }
    }

    /// Words the packed sketch section of `sketch` needs.
    fn packed_words(sketch: &GtSketch<V>) -> usize {
        Self::packed_trials(sketch)
            .iter()
            .map(|t| 2 + t.sample_len() * Self::ENTRY_WORDS)
            .sum()
    }

    /// Delta headroom a written-back slot must keep: at least 8 items, and
    /// at least a quarter of the sketch section (so slots roughly double
    /// alongside the state they hold).
    fn headroom(needed: usize) -> usize {
        (needed / 4).max(8 * Self::ENTRY_WORDS)
    }

    /// Words of the slot for a packed section of `needed` words: the
    /// smallest power-of-two multiple of `min_slot` that holds `needed`
    /// plus its headroom, clamped to `max_slot`. Slots come in few sizes,
    /// so a key changes slot only when its state doubles or halves.
    fn slot_len(&self, needed: usize) -> usize {
        pow2_multiple(needed + Self::headroom(needed), self.min_slot).min(self.max_slot)
    }

    /// Materialize a packed section and its delta into `sketch`: reload
    /// the section (or clear, when the key has only ever buffered deltas),
    /// then replay the delta in arrival order through the batch kernel.
    /// An exact section reloads every trial at level 0 from its one list;
    /// an overflowing replay promotes them all. Restore parses spill
    /// records here too, so nothing is trusted: the section must be one
    /// exact list or r per-trial lists, each inside `section`, with
    /// nothing after them and, per-trial, some trial above level 0 (the
    /// writer packs that state exact); `reload_trial` checks each sample.
    /// On [`StoreError::CorruptRecord`] the sketch state is unspecified.
    fn parse_into(
        sketch: &mut GtSketch<V>,
        section: &[u64],
        delta: &[u64],
        replay: &mut Vec<(u64, V)>,
    ) -> Result<()> {
        let ew = Self::ENTRY_WORDS;
        let entry = |e: &[u64]| (e[0], e.get(1).map_or_else(V::default, |&w| V::from_word(w)));
        if let Some(&first) = section.first() {
            let trials = sketch.trials().len();
            let exact = (first >> 56) as u8 == EXACT;
            let mut rest = section;
            let mut leveled = false;
            for t in 0..if exact { 1 } else { trials } {
                let [meta, items, tail @ ..] = rest else {
                    return Err(corrupt("section header past the end of the record"));
                };
                let level = if exact { 0 } else { (meta >> 56) as u8 };
                let n = (meta & ((1u64 << 56) - 1)) as usize;
                let Some((entries, tail)) = tail.split_at_checked(n * ew) else {
                    return Err(corrupt("sample past the end of the record"));
                };
                let targets = if exact { 0..trials } else { t..t + 1 };
                for target in targets {
                    sketch
                        .reload_trial(target, level, *items, entries.chunks_exact(ew).map(entry))
                        .map_err(corrupt)?;
                }
                leveled |= level > 0;
                rest = tail;
            }
            if !rest.is_empty() {
                return Err(corrupt("words past the last section"));
            }
            if !exact && !leveled {
                return Err(corrupt("per-trial section with every trial at level 0"));
            }
        } else {
            sketch.clear();
        }
        replay.clear();
        replay.extend(delta.chunks_exact(ew).map(entry));
        if !replay.is_empty() {
            sketch.insert_batch_with(replay);
        }
        Ok(())
    }

    /// Write `sketch`'s packed section into `slot`, returning the words
    /// written (== [`ShardState::packed_words`]).
    fn write_sketch_section(sketch: &GtSketch<V>, slot: &mut [u64]) -> usize {
        let ew = Self::ENTRY_WORDS;
        let exact = Self::is_exact(sketch);
        let mut pos = 0usize;
        for t in Self::packed_trials(sketch) {
            let n = t.sample_len();
            let level = if exact { EXACT } else { t.level() };
            slot[pos] = (u64::from(level) << 56) | n as u64;
            slot[pos + 1] = t.items_observed();
            let mut at = pos + 2;
            for (label, payload) in t.sample_iter() {
                slot[at] = label;
                if V::WORDS == 1 {
                    slot[at + 1] = payload.to_word();
                }
                at += ew;
            }
            pos = at;
        }
        pos
    }

    /// 1 when `slot`'s packed section is in exact form, else 0: the
    /// `exact_keys` gauge moves by this whenever a slot is written or
    /// dropped. A slot that has only buffered deltas has no section.
    fn exact_flag(slot: &[u64], sketch_words: u32) -> u64 {
        u64::from(sketch_words > 0 && (slot[0] >> 56) as u8 == EXACT)
    }

    /// Record a touch for the LRU queue, compacting stale entries when the
    /// queue outgrows the live key set.
    fn touch_lru(&mut self, key: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(entry) = self.index.get_mut(&key) {
            entry.last_stamp = stamp;
        }
        self.note_touch(key, stamp);
    }

    /// LRU bookkeeping for a touch whose stamp is already recorded on the
    /// key's entry (the ingest path sets it while it holds the entry
    /// borrow, saving a second index lookup).
    fn note_touch(&mut self, key: u64, stamp: u64) {
        self.lru.push_back((key, stamp));
        if self.lru.len() > (2 * self.index.len()).max(1024) {
            let index = &self.index;
            self.lru
                .retain(|&(k, s)| index.get(&k).is_some_and(|e| e.last_stamp == s));
        }
    }

    /// Write the scratch sketch back as `key`'s resident state. A resident
    /// key whose slot length still fits rewrites its slot in place;
    /// otherwise (a restore, growth or shrinkage) the key gets a fresh
    /// slot and the old one is dropped.
    fn writeback_scratch(&mut self, key: u64) {
        let needed = Self::packed_words(&self.scratch);
        let len = self.slot_len(needed);
        let entry = self.index.get_mut(&key).expect("writeback of unknown key");
        let kept = match &mut entry.state {
            KeyState::Resident {
                slot, sketch_words, ..
            } => {
                self.exact_keys -= Self::exact_flag(slot, *sketch_words);
                self.resident_bytes -= slot.len() * 8;
                self.tally.promotions += u64::from(len > slot.len());
                Some(std::mem::take(slot)).filter(|s| s.len() == len)
            }
            KeyState::Spilled { .. } => None,
        };
        let mut slot = kept.unwrap_or_else(|| vec![0; len].into_boxed_slice());
        self.resident_bytes += len * 8;
        let written = Self::write_sketch_section(&self.scratch, &mut slot);
        debug_assert_eq!(written, needed);
        self.exact_keys += Self::exact_flag(&slot, needed as u32);
        entry.state = KeyState::Resident {
            slot,
            sketch_words: needed as u32,
            delta_items: 0,
        };
    }

    /// Fold a resident key into the scratch sketch. Writes the folded
    /// state back when a delta was replayed (the fold should be paid once,
    /// not per query) or when `force_writeback` asks for a fresh slot
    /// sizing (the append path uses this to promote a full slot).
    fn fold_resident(&mut self, key: u64, force_writeback: bool) -> Result<()> {
        if self.fold_slot(key)? > 0 || force_writeback {
            self.writeback_scratch(key);
        }
        Ok(())
    }

    /// Parse resident `key`'s slot into the scratch sketch, counting the
    /// fold. Returns the delta items replayed.
    fn fold_slot(&mut self, key: u64) -> Result<u32> {
        let KeyState::Resident {
            slot,
            sketch_words,
            delta_items,
        } = &self.index[&key].state
        else {
            unreachable!("fold of a spilled key");
        };
        let (section, delta) = slot.split_at(*sketch_words as usize);
        let items = *delta_items;
        let delta = &delta[..items as usize * Self::ENTRY_WORDS];
        Self::parse_into(&mut self.scratch, section, delta, &mut self.run_buf)?;
        if items > 0 {
            self.tally.folds += 1;
            self.tally.delta_replayed += u64::from(items);
        }
        Ok(items)
    }

    /// Restore a spilled key into a fresh slot, bitwise-identically, or
    /// leave it spilled if its record fails to read, [`unseal`] or
    /// [`ShardState::parse_into`]: no unchecked word reaches a slot. The
    /// log range is dead afterwards; compact the log if enough of it is.
    fn restore(&mut self, key: u64) -> Result<()> {
        let KeyState::Spilled { offset, len } = self.index[&key].state else {
            return Ok(());
        };
        self.spill.read(offset, len, &mut self.spill_buf)?;
        unseal(key, &self.spill_buf, &mut self.spill_words)?;
        Self::parse_into(&mut self.scratch, &self.spill_words, &[], &mut self.run_buf)?;
        self.writeback_scratch(key);
        self.spilled_keys -= 1;
        self.resident_keys += 1;
        self.tally.restores += 1;
        self.tally.restored_bytes += u64::from(len);
        self.spill.note_dead(len);
        if self.spill.should_compact() {
            self.compact_spill()?;
        }
        Ok(())
    }

    /// Rewrite the spill log to hold only the still-spilled keys' records
    /// and point their index entries at the new offsets. Restores stay
    /// bitwise-identical across the move: the records themselves are
    /// copied verbatim, only their offsets change.
    fn compact_spill(&mut self) -> Result<()> {
        // Sorted by offset (unique), as `compact` sorts `live`, so the
        // keys stay aligned with their rewritten ranges.
        let mut spilled: Vec<(u64, u32, u64)> = (self.index.iter())
            .filter_map(|(&key, e)| match e.state {
                KeyState::Spilled { offset, len } => Some((offset, len, key)),
                KeyState::Resident { .. } => None,
            })
            .collect();
        spilled.sort_unstable();
        let mut live: Vec<(u64, u32)> = spilled.iter().map(|&(o, l, _)| (o, l)).collect();
        let reclaimed = self.spill.compact(&mut live)?;
        for ((.., key), &(offset, len)) in spilled.iter().zip(&live) {
            self.index
                .get_mut(key)
                .expect("compacted key vanished")
                .state = KeyState::Spilled { offset, len };
        }
        self.tally.compactions += 1;
        self.tally.reclaimed_bytes += reclaimed;
        Ok(())
    }

    /// Evict the least-recently-used evictable key to the spill log.
    /// Returns `false` when nothing evictable remains (or the disk refused
    /// the spill — the victim stays resident).
    fn evict_one(&mut self) -> Result<bool> {
        while let Some((key, stamp)) = self.lru.pop_front() {
            let Some(entry) = self.index.get(&key) else {
                continue;
            };
            if entry.last_stamp != stamp {
                continue;
            }
            // A folded slot holds the record's words; else fold, pack aside.
            let words = match &entry.state {
                KeyState::Spilled { .. } => continue,
                KeyState::Resident {
                    slot,
                    sketch_words: words @ 1..,
                    delta_items: 0,
                } => &slot[..*words as usize],
                KeyState::Resident { .. } => {
                    self.fold_slot(key)?;
                    let needed = Self::packed_words(&self.scratch);
                    self.spill_words.resize(needed, 0);
                    Self::write_sketch_section(&self.scratch, &mut self.spill_words);
                    &self.spill_words
                }
            };
            seal(key, words, &mut self.spill_buf);
            let Ok((offset, len)) = self.spill.append(&self.spill_buf) else {
                // Disk refused the spill: keep the victim resident (its
                // slot is untouched) and stop evicting.
                self.lru.push_back((key, stamp));
                return Ok(false);
            };
            let entry = self.index.get_mut(&key).expect("evict of unknown key");
            let spilled = KeyState::Spilled { offset, len };
            let KeyState::Resident {
                slot, sketch_words, ..
            } = std::mem::replace(&mut entry.state, spilled)
            else {
                unreachable!("evicted key was resident");
            };
            self.exact_keys -= Self::exact_flag(&slot, sketch_words);
            self.resident_bytes -= slot.len() * 8;
            self.resident_keys -= 1;
            self.spilled_keys += 1;
            self.tally.evictions += 1;
            self.tally.spilled_bytes += u64::from(len);
            return Ok(true);
        }
        Ok(false)
    }

    /// Evict until the shard is back under its byte budget or nothing
    /// evictable remains.
    fn maybe_evict(&mut self) -> Result<()> {
        while self.resident_bytes > self.budget && self.evict_one()? {}
        Ok(())
    }

    /// Ingest one staged key-run (all entries share `key`, arrival order
    /// preserved). The steady-state path holds a single index borrow: the
    /// LRU stamp and the delta append happen against one `get_mut`, and
    /// the slot is the entry's own. Only the rare transitions (create,
    /// restore, slot-full fold) release the borrow.
    fn ingest_run(&mut self, key: u64, run: &[Staged<V>]) -> Result<()> {
        self.tally.key_runs += 1;
        self.tally.items += run.len() as u64;
        let ew = Self::ENTRY_WORDS;
        self.stamp += 1;
        let stamp = self.stamp;

        match self.index.get(&key).map(|e| &e.state) {
            None => {
                self.resident_bytes += self.min_slot * 8;
                let state = KeyState::Resident {
                    slot: vec![0; self.min_slot].into_boxed_slice(),
                    sketch_words: 0,
                    delta_items: 0,
                };
                let entry = KeyEntry {
                    state,
                    last_stamp: 0,
                };
                self.index.insert(key, entry);
                self.resident_keys += 1;
            }
            Some(KeyState::Spilled { .. }) => self.restore(key)?,
            Some(KeyState::Resident { .. }) => {}
        }

        let mut rest = run;
        loop {
            let entry = self.index.get_mut(&key).expect("entry ensured above");
            entry.last_stamp = stamp;
            let KeyState::Resident {
                slot,
                sketch_words,
                delta_items,
            } = &mut entry.state
            else {
                unreachable!("spilled key restored above");
            };
            let base = *sketch_words as usize + *delta_items as usize * ew;
            let take = ((slot.len() - base) / ew).min(rest.len());
            for (i, item) in rest[..take].iter().enumerate() {
                let at = base + i * ew;
                slot[at] = item.label;
                if V::WORDS == 1 {
                    slot[at + 1] = item.payload.to_word();
                }
            }
            *delta_items += take as u32;
            rest = &rest[take..];
            if rest.is_empty() {
                break;
            }
            // Slot full: fold the delta in, which re-sizes the slot with
            // fresh delta headroom.
            self.fold_resident(key, true)?;
        }
        self.note_touch(key, stamp);
        Ok(())
    }

    /// Run `f` on `key`'s current sketch, folded into `scratch`, and
    /// record the touch. A spilled key's restore already leaves its state
    /// in `scratch`, so the slot it wrote back is not parsed a second
    /// time. `None` for a key the store has never seen.
    fn with_sketch<T>(&mut self, key: u64, f: impl FnOnce(&GtSketch<V>) -> T) -> Result<Option<T>> {
        let Some(entry) = self.index.get(&key) else {
            return Ok(None);
        };
        match entry.state {
            KeyState::Resident { .. } => self.fold_resident(key, false)?,
            KeyState::Spilled { .. } => self.restore(key)?,
        }
        self.touch_lru(key);
        Ok(Some(f(&self.scratch)))
    }

    /// Point query on the key's current state. `None` for a key the store
    /// has never seen.
    fn estimate(&mut self, key: u64) -> Result<Option<Estimate>> {
        self.tally.queries += 1;
        self.with_sketch(key, GtSketch::estimate_distinct)
    }

    /// Items observed for `key` (exact, both tiers).
    fn items_observed(&mut self, key: u64) -> Result<Option<u64>> {
        self.with_sketch(key, GtSketch::items_observed)
    }

    /// Canonical wire bytes of `key`'s sketch — the authoritative state
    /// the per-key oracle compares against a standalone sketch.
    fn canonical_bytes(&mut self, key: u64) -> Result<Option<Bytes>> {
        self.with_sketch(key, encode_sketch)
    }
}

/// Keyed multi-tenant sketch store. See the [module docs](self) for the
/// tier/locking/eviction design.
///
/// ```
/// use gt_store::{SketchStore, StoreOptions};
/// use gt_core::SketchConfig;
/// let config = SketchConfig::new(0.2, 0.2).unwrap();
/// let store = SketchStore::<()>::new(&config, 7, StoreOptions::default()).unwrap();
/// store.extend(&[(1, 100), (2, 200), (1, 101)]).unwrap();
/// assert_eq!(store.items_observed(1).unwrap(), Some(2));
/// assert!(store.estimate(1).unwrap().is_some());
/// assert!(store.estimate(99).unwrap().is_none());
/// ```
pub struct SketchStore<V: StorePayload = ()> {
    config: SketchConfig,
    master_seed: u64,
    shards: Vec<CachePadded<Mutex<ShardState<V>>>>,
    shard_mask: u64,
    byte_budget: usize,
    spill_dir: PathBuf,
    owns_spill_dir: bool,
}

/// A [`SketchStore`] counting distinct labels per key (no payloads).
pub type DistinctStore = SketchStore<()>;

impl<V: StorePayload> SketchStore<V> {
    /// Build a store whose per-key sketches all share `config` and
    /// `master_seed` (so any key unions losslessly with any coordinated
    /// peer).
    ///
    /// # Errors
    /// [`crate::StoreError::Io`] if the spill directory or a shard log cannot be
    /// created.
    pub fn new(config: &SketchConfig, master_seed: u64, options: StoreOptions) -> Result<Self> {
        let requested = if options.shards == 0 {
            effective_workers()
        } else {
            options.shards
        };
        let shard_count = requested.next_power_of_two();
        let (spill_dir, owns_spill_dir) = match &options.spill_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                static UNIQ: AtomicU64 = AtomicU64::new(0);
                let mut dir = std::env::temp_dir();
                dir.push(format!(
                    "gt-store-{}-{}",
                    std::process::id(),
                    UNIQ.fetch_add(1, Ordering::Relaxed)
                ));
                (dir, true)
            }
        };
        std::fs::create_dir_all(&spill_dir)?;
        let scratch = GtSketch::<V>::new(config, master_seed);
        let ew = 1 + V::WORDS;
        let trials = config.trials();
        let full = trials * (2 + config.capacity() * ew);
        let max_words = full + (full / 4).max(8 * ew);
        let min_slot = (2 * trials + 6).next_power_of_two();
        let max_slot = pow2_multiple(max_words, min_slot);
        let budget = (options.byte_budget / shard_count).max(1);
        let shards = (0..shard_count)
            .map(|i| {
                let spill = SpillLog::create(&spill_dir.join(format!("shard-{i:03}.spill")))?;
                Ok(CachePadded::new(Mutex::new(ShardState {
                    index: HashMap::new(),
                    min_slot,
                    max_slot,
                    scratch: scratch.clone(),
                    run_buf: Vec::new(),
                    spill,
                    spill_buf: Vec::new(),
                    spill_words: Vec::new(),
                    lru: VecDeque::new(),
                    stamp: 0,
                    resident_bytes: 0,
                    resident_keys: 0,
                    exact_keys: 0,
                    spilled_keys: 0,
                    budget,
                    tally: StoreMetricsSnapshot::default(),
                })))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(SketchStore {
            config: *config,
            master_seed,
            shards,
            shard_mask: shard_count as u64 - 1,
            byte_budget: options.byte_budget,
            spill_dir,
            owns_spill_dir,
        })
    }

    fn shard_of(&self, key: u64) -> usize {
        (mix64(key ^ 0xC3C3_C3C3_C3C3_C3C3) & self.shard_mask) as usize
    }

    fn extend_iter(&self, items: impl IntoIterator<Item = (u64, u64, V)> + Clone) -> Result<()> {
        // Reject the whole batch before anything is staged: an
        // out-of-field label would be written into packed state and fail
        // the next read of its key.
        if let Some((_, label, _)) = items.clone().into_iter().find(|i| i.1 >= gt_hash::P61) {
            return Err(SketchError::LabelOutOfRange { label }.into());
        }
        let mut stage: Vec<Staged<V>> = Vec::with_capacity(STORE_STAGE);
        let mut iter = items.into_iter();
        loop {
            stage.clear();
            while stage.len() < STORE_STAGE {
                let Some((key, label, payload)) = iter.next() else {
                    break;
                };
                stage.push(Staged {
                    shard: self.shard_of(key) as u32,
                    seq: stage.len() as u32,
                    key,
                    label,
                    payload,
                });
            }
            if stage.is_empty() {
                return Ok(());
            }
            // Group by (shard, key); `seq` keeps arrival order within a
            // key so keep-first payload semantics survive the sort.
            stage.sort_unstable_by_key(|s| (s.shard, s.key, s.seq));
            let mut i = 0;
            while i < stage.len() {
                let shard = stage[i].shard;
                let mut j = i;
                while j < stage.len() && stage[j].shard == shard {
                    j += 1;
                }
                let mut guard = self.shards[shard as usize].lock();
                let mut k = i;
                while k < j {
                    let key = stage[k].key;
                    let mut m = k;
                    while m < j && stage[m].key == key {
                        m += 1;
                    }
                    guard.ingest_run(key, &stage[k..m])?;
                    k = m;
                }
                guard.maybe_evict()?;
                drop(guard);
                i = j;
            }
        }
    }

    /// Ingest `(key, label)` pairs with the default payload. Thread-safe:
    /// any number of threads may call this concurrently.
    ///
    /// # Errors
    /// [`crate::StoreError::Sketch`] with [`SketchError::LabelOutOfRange`]
    /// if any label lies outside `[0, 2^61 − 1)` (fold larger labels with
    /// `gt_hash::fold61`); the check runs before anything is staged, so
    /// such a batch ingests nothing. Otherwise, spill-log I/O errors or
    /// corrupt spill records met while restoring a spilled key touched
    /// by this batch; items staged before the failing run are ingested,
    /// the rest of the batch is dropped.
    pub fn extend(&self, items: &[(u64, u64)]) -> Result<()> {
        self.extend_iter(items.iter().map(|&(key, label)| (key, label, V::default())))
    }

    /// Ingest `(key, label, payload)` triples (keep-first/merge payload
    /// semantics per the sketch's payload type, exactly as a standalone
    /// sketch would apply them in arrival order).
    ///
    /// # Errors
    /// As [`SketchStore::extend`].
    pub fn extend_with(&self, items: &[(u64, u64, V)]) -> Result<()> {
        self.extend_iter(items.iter().copied())
    }

    /// Point query: the distinct estimate of `key`'s current state, or
    /// `None` if the store has never seen it. The key's buffered delta is
    /// folded first, so the answer covers every label ingested so far.
    ///
    /// # Errors
    /// As [`SketchStore::extend`] (querying a spilled key restores it).
    pub fn estimate(&self, key: u64) -> Result<Option<Estimate>> {
        let mut guard = self.shards[self.shard_of(key)].lock();
        let out = guard.estimate(key)?;
        guard.maybe_evict()?;
        Ok(out)
    }

    /// Exact items observed for `key`, or `None` for an unknown key.
    ///
    /// # Errors
    /// As [`SketchStore::estimate`].
    pub fn items_observed(&self, key: u64) -> Result<Option<u64>> {
        let mut guard = self.shards[self.shard_of(key)].lock();
        let out = guard.items_observed(key)?;
        guard.maybe_evict()?;
        Ok(out)
    }

    /// Canonical wire bytes of `key`'s sketch — bitwise identical to
    /// `encode_sketch` of a standalone coordinated [`GtSketch`] fed the
    /// same labels, whichever tier the key is in (a spilled key is
    /// restored first). `None` for an unknown key.
    ///
    /// # Errors
    /// As [`SketchStore::estimate`].
    pub fn canonical_bytes(&self, key: u64) -> Result<Option<Bytes>> {
        let mut guard = self.shards[self.shard_of(key)].lock();
        let out = guard.canonical_bytes(key)?;
        guard.maybe_evict()?;
        Ok(out)
    }

    /// Keys tracked across both tiers (resident + spilled).
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().index.len()).sum()
    }

    /// Budgeted resident bytes across all shards (live packed slots).
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident_bytes).sum()
    }

    /// The configured total byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Shard count (power of two, sized from [`effective_workers`] unless
    /// overridden).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared per-key sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// The shared master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Directory holding the per-shard spill logs.
    pub fn spill_dir(&self) -> &Path {
        &self.spill_dir
    }

    /// Consistent-cut metrics: every shard lock is acquired (in index
    /// order) before the first counter is read, per the metrics
    /// lock-ordering rule — cross-shard sums in the snapshot are exact.
    pub fn metrics_snapshot(&self) -> StoreMetricsSnapshot {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut snap = StoreMetricsSnapshot {
            shards: guards.len() as u64,
            budget_bytes: self.byte_budget as u64,
            ..StoreMetricsSnapshot::default()
        };
        for g in &guards {
            snap.absorb_tally(&g.tally);
            snap.keys += g.index.len() as u64;
            snap.resident_keys += g.resident_keys;
            snap.exact_keys += g.exact_keys;
            snap.spilled_keys += g.spilled_keys;
            snap.resident_bytes += g.resident_bytes as u64;
        }
        snap
    }
}

impl<V: StorePayload> Drop for SketchStore<V> {
    fn drop(&mut self) {
        for shard in &self.shards {
            let guard = shard.lock();
            let _ = std::fs::remove_file(guard.spill.path());
        }
        if self.owns_spill_dir {
            let _ = std::fs::remove_dir(&self.spill_dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_core::DistinctSketch;
    use gt_hash::fold61;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.2, 0.2).unwrap()
    }

    fn tiny_cfg() -> SketchConfig {
        SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_hash::HashFamilyKind::Pairwise).unwrap()
    }

    fn opts(budget: usize) -> StoreOptions {
        StoreOptions::default()
            .with_shards(2)
            .with_byte_budget(budget)
    }

    #[test]
    fn per_key_state_matches_standalone_sketches() {
        let config = cfg();
        let store = DistinctStore::new(&config, 11, opts(64 << 20)).unwrap();
        let keys = 17u64;
        let mut items = Vec::new();
        for i in 0..20_000u64 {
            items.push((i % keys, fold61(i * 31)));
        }
        store.extend(&items).unwrap();
        for key in 0..keys {
            let mut standalone = DistinctSketch::new(&config, 11);
            standalone.extend_labels(items.iter().filter(|&&(k, _)| k == key).map(|&(_, l)| l));
            let expect = encode_sketch(&standalone);
            let got = store.canonical_bytes(key).unwrap().unwrap();
            assert_eq!(got, expect, "key {key}");
            assert_eq!(
                store.items_observed(key).unwrap().unwrap(),
                standalone.items_observed()
            );
            assert_eq!(
                store.estimate(key).unwrap().unwrap().value,
                standalone.estimate_distinct().value
            );
        }
        assert_eq!(store.key_count(), keys as usize);
        assert!(store.estimate(keys + 1).unwrap().is_none());
    }

    #[test]
    fn eviction_restores_bitwise_and_respects_budget() {
        let config = tiny_cfg();
        // A budget small enough that most of 600 keys cannot stay
        // resident, forcing evict/restore cycles mid-stream.
        let store = DistinctStore::new(&config, 5, opts(16 << 10)).unwrap();
        let keys = 600u64;
        let mut items = Vec::new();
        for round in 0..6u64 {
            for key in 0..keys {
                for j in 0..4u64 {
                    items.push((key, fold61(key * 1000 + round * 10 + j)));
                }
            }
        }
        store.extend(&items).unwrap();
        let snap = store.metrics_snapshot();
        assert!(snap.evictions > 0, "budget never forced an eviction");
        assert!(snap.restores > 0, "revisited keys never restored");
        // Every eviction decision and spill byte is pinned: a change to
        // the slot-size rule, the budget accounting or the record format
        // moves these.
        let pinned = (
            snap.evictions,
            snap.restores,
            snap.promotions,
            snap.spilled_bytes,
            snap.restored_bytes,
            snap.resident_bytes,
            snap.exact_keys,
        );
        assert_eq!(pinned, (3584, 3000, 0, 866_232, 541_600, 16_384, 0));
        assert!(
            snap.resident_bytes <= snap.budget_bytes,
            "resident {} exceeds budget {}",
            snap.resident_bytes,
            snap.budget_bytes
        );
        // Every key still matches its standalone oracle exactly.
        for key in (0..keys).step_by(41) {
            let mut standalone = DistinctSketch::new(&config, 5);
            standalone.extend_labels(items.iter().filter(|&&(k, _)| k == key).map(|&(_, l)| l));
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                encode_sketch(&standalone),
                "key {key}"
            );
        }
    }

    #[test]
    fn spill_compaction_reclaims_bytes_and_keeps_restores_bitwise() {
        let config = tiny_cfg();
        // Tight budget + many rounds of key revisits: every revisit of a
        // spilled key restores it (killing its log record) and the next
        // budget squeeze spills it again (appending a new one), so dead
        // bytes accumulate until the dead-fraction threshold fires.
        let store = DistinctStore::new(&config, 5, opts(16 << 10)).unwrap();
        let keys = 600u64;
        let mut items = Vec::new();
        for round in 0..10u64 {
            let mut batch = Vec::new();
            for key in 0..keys {
                for j in 0..3u64 {
                    batch.push((key, fold61(key * 1000 + round * 10 + j)));
                }
            }
            store.extend(&batch).unwrap();
            items.extend(batch);
        }
        let snap = store.metrics_snapshot();
        assert!(snap.restores > 0, "churn never restored a key");
        assert!(
            snap.compactions > 0,
            "dead fraction never triggered compaction"
        );
        assert!(snap.reclaimed_bytes > 0, "compaction reclaimed nothing");
        assert!(
            snap.reclaimed_bytes <= snap.spilled_bytes,
            "cannot reclaim more than was ever spilled"
        );
        // Compaction moved records; every key — spilled or resident —
        // still round-trips bitwise-identically to its standalone oracle.
        for key in (0..keys).step_by(29) {
            let mut standalone = DistinctSketch::new(&config, 5);
            standalone.extend_labels(items.iter().filter(|&&(k, _)| k == key).map(|&(_, l)| l));
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                encode_sketch(&standalone),
                "key {key}"
            );
        }
    }

    /// Every point query reads the key's current state: under the default
    /// options, after each of three batches of fresh labels into one key,
    /// `estimate` equals a standalone sketch's estimate bit for bit.
    #[test]
    fn estimate_reads_current_state_after_every_batch() {
        let config = tiny_cfg();
        let store = DistinctStore::new(&config, 29, StoreOptions::default()).unwrap();
        let mut standalone = DistinctSketch::new(&config, 29);
        for batch in 0..3u64 {
            let items: Vec<(u64, u64)> = (0..5_000u64)
                .map(|i| (1, fold61(batch * 5_000 + i)))
                .collect();
            store.extend(&items).unwrap();
            standalone.extend_labels(items.iter().map(|&(_, l)| l));
            assert_eq!(
                store.estimate(1).unwrap().unwrap().value.to_bits(),
                standalone.estimate_distinct().value.to_bits(),
                "after batch {batch}"
            );
        }
    }

    #[test]
    fn payload_store_matches_standalone_sketch() {
        let config = tiny_cfg();
        let store = SketchStore::<u64>::new(&config, 13, opts(64 << 20)).unwrap();
        let mut items = Vec::new();
        for i in 0..3_000u64 {
            // Duplicate labels with distinct payloads exercise the
            // keep-first reconciliation through the delta replay.
            items.push((i % 5, fold61(i % 400), i));
        }
        store.extend_with(&items).unwrap();
        for key in 0..5u64 {
            let mut standalone = GtSketch::<u64>::new(&config, 13);
            for &(k, l, p) in &items {
                if k == key {
                    standalone.insert_with(l, p);
                }
            }
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                encode_sketch(&standalone),
                "key {key}"
            );
        }
    }

    #[test]
    fn concurrent_keyed_ingest_matches_sequential() {
        let config = tiny_cfg();
        let store = DistinctStore::new(&config, 21, opts(64 << 20)).unwrap();
        let threads = 4usize;
        let per_thread = 4_000u64;
        crossbeam::scope(|scope| {
            for t in 0..threads as u64 {
                let store = &store;
                scope.spawn(move |_| {
                    let items: Vec<(u64, u64)> = (0..per_thread)
                        .map(|i| ((i * 7 + t) % 97, fold61(t * per_thread + i)))
                        .collect();
                    store.extend(&items).unwrap();
                });
            }
        })
        .unwrap();
        // The store saw every item exactly once (count/ordering invariant,
        // no wall-clock assertions per the de-flake rule).
        let snap = store.metrics_snapshot();
        assert_eq!(snap.items, threads as u64 * per_thread);
        // Each key's state equals a standalone sketch over that key's
        // labels — label sets are interleaving-independent.
        for key in (0..97u64).step_by(13) {
            let mut standalone = DistinctSketch::new(&config, 21);
            for t in 0..threads as u64 {
                standalone.extend_labels(
                    (0..per_thread)
                        .filter(|i| (i * 7 + t) % 97 == key)
                        .map(|i| fold61(t * per_thread + i)),
                );
            }
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                encode_sketch(&standalone),
                "key {key}"
            );
        }
    }

    #[test]
    fn metrics_snapshot_tiers_sum_to_key_count() {
        let config = tiny_cfg();
        let store = DistinctStore::new(&config, 17, opts(24 << 10)).unwrap();
        let items: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 900, fold61(i))).collect();
        store.extend(&items).unwrap();
        let snap = store.metrics_snapshot();
        assert_eq!(snap.resident_keys + snap.spilled_keys, snap.keys);
        assert!(snap.exact_keys <= snap.resident_keys);
        assert_eq!(snap.keys as usize, store.key_count());
        assert_eq!(snap.items, items.len() as u64);
        assert_eq!(snap.keys, 900);
        // The budget counts exactly the resident keys' slots.
        let slot_words: usize = (store.shards.iter())
            .map(|s| {
                (s.lock().index.values())
                    .map(|e| match &e.state {
                        KeyState::Resident { slot, .. } => slot.len(),
                        KeyState::Spilled { .. } => 0,
                    })
                    .sum::<usize>()
            })
            .sum();
        assert!(slot_words > 0);
        assert_eq!(snap.resident_bytes, 8 * slot_words as u64);
    }

    /// Canonical bytes of a standalone sketch fed `items` in order.
    fn standalone_bytes<V: StorePayload>(
        config: &SketchConfig,
        seed: u64,
        items: &[(u64, V)],
    ) -> Bytes {
        let mut sketch = GtSketch::<V>::new(config, seed);
        for &(label, payload) in items {
            sketch.insert_with(label, payload);
        }
        encode_sketch(&sketch)
    }

    /// One key grows label by label to c + 1 distinct labels. Each label
    /// arrives twice with different payloads while the key is exact, so
    /// keep-first runs through the exact parse; the last label overflows
    /// every trial at once. Canonical bytes match a standalone sketch
    /// after every item, and the key counts as exact exactly while it is
    /// below capacity.
    fn exact_form_tracks_standalone_through_overflow<V: StorePayload>(payload: fn(u64) -> V) {
        let config = tiny_cfg();
        let c = config.capacity() as u64;
        let store = SketchStore::<V>::new(&config, 31, opts(64 << 20)).unwrap();
        let mut fed = Vec::new();
        for i in 0..=c {
            let label = fold61(i * 7 + 3);
            for p in [payload(i), payload(i + 1_000)] {
                store.extend_with(&[(1, label, p)]).unwrap();
                fed.push((label, p));
                assert_eq!(
                    store.canonical_bytes(1).unwrap().unwrap(),
                    standalone_bytes(&config, 31, &fed),
                    "after {} items",
                    fed.len()
                );
                let exact = store.metrics_snapshot().exact_keys;
                assert_eq!(exact, u64::from(i < c), "distinct labels {}", i + 1);
            }
        }
    }

    #[test]
    fn exact_form_tracks_standalone_through_overflow_distinct() {
        exact_form_tracks_standalone_through_overflow::<()>(|_| ());
    }

    #[test]
    fn exact_form_tracks_standalone_through_overflow_payload() {
        exact_form_tracks_standalone_through_overflow::<u64>(|i| i);
    }

    /// Keys that stay below capacity cycle through evict and restore under
    /// a tight budget; every key still matches its standalone sketch.
    fn exact_keys_survive_evict_restore<V: StorePayload>(payload: fn(u64) -> V) {
        let config = tiny_cfg();
        let store = SketchStore::<V>::new(&config, 5, opts(4 << 10)).unwrap();
        let keys = 200u64;
        let mut items = Vec::new();
        for round in 0..3u64 {
            let mut batch = Vec::new();
            for key in 0..keys {
                for j in 0..4u64 {
                    batch.push((
                        key,
                        fold61(key * 1000 + round * 10 + j),
                        payload(round * 10 + j),
                    ));
                }
            }
            store.extend_with(&batch).unwrap();
            items.extend(batch);
            // Fold a sample of keys so exact slots exist to evict.
            for key in (0..keys).step_by(7) {
                store.estimate(key).unwrap();
            }
        }
        let snap = store.metrics_snapshot();
        assert!(snap.evictions > 0, "budget never forced an eviction");
        assert!(snap.restores > 0, "revisited keys never restored");
        assert!(snap.exact_keys > 0, "no key packed in exact form");
        for key in 0..keys {
            let fed: Vec<(u64, V)> = items
                .iter()
                .filter(|&&(k, _, _)| k == key)
                .map(|&(_, l, p)| (l, p))
                .collect();
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                standalone_bytes(&config, 5, &fed),
                "key {key}"
            );
        }
    }

    #[test]
    fn exact_keys_survive_evict_restore_distinct() {
        exact_keys_survive_evict_restore::<()>(|_| ());
    }

    #[test]
    fn exact_keys_survive_evict_restore_payload() {
        exact_keys_survive_evict_restore::<u64>(|i| i);
    }

    /// A slot is the smallest power-of-two multiple of the smallest slot
    /// (`2r + 6` words rounded up to a power of two) that holds the packed
    /// section plus its headroom (at least 8 entries, at least a quarter
    /// of the section), clamped to the largest slot: the first such
    /// multiple that holds a full sketch plus its headroom.
    #[test]
    fn slot_len_is_the_smallest_fitting_power_of_two_multiple() {
        let slot_len = |config: &SketchConfig, needed: usize| {
            let store = DistinctStore::new(config, 1, opts(64 << 20)).unwrap();
            let shard = store.shards[0].lock();
            (shard.min_slot, shard.max_slot, shard.slot_len(needed))
        };
        // r = 5 and c = 16: the smallest slot is 16 words; a full sketch
        // is 5 · (2 + 16) = 90 words, plus 22 of headroom is 112, so the
        // largest slot is 128.
        let tiny = tiny_cfg();
        for (needed, len) in [(0, 16), (8, 16), (9, 32), (24, 32), (25, 64), (90, 128)] {
            assert_eq!(slot_len(&tiny, needed), (16, 128, len), "needed {needed}");
        }
        assert_eq!(slot_len(&tiny, usize::MAX >> 8).2, 128);
        // r = 6: 2r + 6 = 18 rounds up to a 32-word smallest slot, and the
        // largest slot is the first power-of-two multiple of 32 at or above
        // 6 · (2 + 16) + 27 = 135 words.
        let six =
            SketchConfig::from_shape(0.3, 0.3, 16, 6, gt_hash::HashFamilyKind::Pairwise).unwrap();
        for (needed, len) in [(0, 32), (24, 32), (25, 64), (200, 256)] {
            assert_eq!(slot_len(&six, needed), (32, 256, len), "needed {needed}");
        }
    }

    #[test]
    fn exact_slots_pack_one_shared_list() {
        let config = tiny_cfg();
        let store = DistinctStore::new(&config, 7, opts(64 << 20)).unwrap();
        let keys = 64u64;
        let items: Vec<(u64, u64)> = (0..keys)
            .flat_map(|k| (0..4u64).map(move |j| (k, fold61(k * 100 + j))))
            .collect();
        store.extend(&items).unwrap();
        for key in 0..keys {
            store.estimate(key).unwrap();
        }
        let snap = store.metrics_snapshot();
        assert_eq!(snap.folds, keys);
        assert_eq!(snap.exact_keys, keys);
        // One shared list of 4 labels (2 + 4 words) plus 8 words of delta
        // headroom fits the 16-word class; five per-trial copies (30 + 8
        // words) would need the 64-word class.
        assert_eq!(store.resident_bytes(), keys as usize * 16 * 8);
    }

    /// Every item of `items` fed to `key`, as `(label, payload)` pairs in
    /// arrival order.
    fn fed<V: StorePayload>(items: &[(u64, u64, V)], key: u64) -> Vec<(u64, V)> {
        items
            .iter()
            .filter(|i| i.0 == key)
            .map(|&(_, l, p)| (l, p))
            .collect()
    }

    /// The 240-key workload of the spill fuzz tests, under a budget so
    /// tight that most keys are spilled. Even keys stay under capacity
    /// (exact form, every trial at level 0); odd keys overflow it.
    fn spilled_store(dir: Option<&Path>) -> (DistinctStore, Vec<(u64, u64, ())>) {
        let mut options = opts(1 << 10);
        options.spill_dir = dir.map(Path::to_path_buf);
        let store = DistinctStore::new(&tiny_cfg(), 3, options).unwrap();
        let items: Vec<(u64, u64, ())> = (0..240u64)
            .flat_map(|k| (0..6 + k % 2 * 54).map(move |j| (k, fold61(k * 1_000 + j), ())))
            .collect();
        store.extend_with(&items).unwrap();
        (store, items)
    }

    /// Spilled keys with their shard, record offset and length, by key.
    fn spilled_keys<V: StorePayload>(store: &SketchStore<V>) -> Vec<(u64, usize, u64, u32)> {
        let mut spilled = Vec::new();
        for (shard, state) in store.shards.iter().enumerate() {
            for (&key, entry) in &state.lock().index {
                if let KeyState::Spilled { offset, len } = entry.state {
                    spilled.push((key, shard, offset, len));
                }
            }
        }
        spilled.sort_unstable();
        spilled
    }

    /// The spill record of spilled `key`.
    fn read_record<V: StorePayload>(store: &SketchStore<V>, key: u64) -> Vec<u8> {
        let mut guard = store.shards[store.shard_of(key)].lock();
        let KeyState::Spilled { offset, len } = guard.index[&key].state else {
            panic!("key {key} is resident");
        };
        let mut record = Vec::new();
        guard.spill.read(offset, len, &mut record).unwrap();
        record
    }

    /// Point spilled `key` at `record`, appended to its shard's log.
    fn replace_record<V: StorePayload>(store: &SketchStore<V>, key: u64, record: &[u8]) {
        let mut guard = store.shards[store.shard_of(key)].lock();
        let KeyState::Spilled { len, .. } = guard.index[&key].state else {
            panic!("key {key} is resident");
        };
        guard.spill.note_dead(len);
        let (offset, len) = guard.spill.append(record).unwrap();
        guard.index.get_mut(&key).unwrap().state = KeyState::Spilled { offset, len };
    }

    /// Query spilled `key` twice: both queries must refuse it with a
    /// corrupt-record error and leave it spilled. Returns the reason.
    fn assert_refused<V: StorePayload>(store: &SketchStore<V>, key: u64, case: &str) -> String {
        use crate::StoreError;
        let mut reasons = Vec::new();
        for _ in 0..2 {
            match store.canonical_bytes(key) {
                Err(StoreError::CorruptRecord(reason)) => reasons.push(reason),
                other => panic!("key {key}, {case}: {other:?}"),
            }
            let shard = store.shards[store.shard_of(key)].lock();
            assert!(
                matches!(shard.index[&key].state, KeyState::Spilled { .. }),
                "key {key}, {case}"
            );
        }
        assert_eq!(reasons[0], reasons[1], "key {key}, {case}");
        reasons.swap_remove(0)
    }

    /// A record's words, without its trailer.
    fn words_of(record: &[u8]) -> Vec<u64> {
        record[..record.len() - 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// `words` sealed as `key`'s spill record (fresh word count and
    /// checksum).
    fn sealed(key: u64, words: &[u64]) -> Vec<u8> {
        let mut record = Vec::new();
        seal(key, words, &mut record);
        record
    }

    /// What a fresh sketch makes of a record's words, fed section by
    /// section through `reload_trial`: `None` if a section runs past the
    /// words, the sections leave words over, a per-trial record has every
    /// trial at level 0, or `reload_trial` refuses a sample.
    fn reload_words<V: StorePayload>(
        config: &SketchConfig,
        seed: u64,
        words: &[u64],
    ) -> Option<GtSketch<V>> {
        let ew = 1 + V::WORDS;
        let trials = config.trials();
        let exact = words.first().is_some_and(|w| w >> 56 == u64::from(EXACT));
        let mut sections = Vec::new();
        let mut at = 0;
        for _ in 0..if exact { 1 } else { trials } {
            let meta = *words.get(at)?;
            let n = (meta & ((1 << 56) - 1)) as usize;
            let level = if exact { 0 } else { (meta >> 56) as u8 };
            sections.push((
                level,
                *words.get(at + 1)?,
                words.get(at + 2..at + 2 + n * ew)?,
            ));
            at += 2 + n * ew;
        }
        if at != words.len() || (!exact && sections.iter().all(|s| s.0 == 0)) {
            return None;
        }
        let mut sketch = GtSketch::<V>::new(config, seed);
        for t in 0..trials {
            let (level, items, entries) = sections[if exact { 0 } else { t }];
            let pairs = entries.chunks_exact(ew).map(|e| {
                let payload = if V::WORDS == 1 {
                    V::from_word(e[1])
                } else {
                    V::default()
                };
                (e[0], payload)
            });
            sketch.reload_trial(t, level, items, pairs).ok()?;
        }
        Some(sketch)
    }

    /// Spill records are bytes from outside the process. With bytes
    /// flipped or spliced inside the on-disk records, every query returns
    /// `Ok` or a corrupt-record error and never panics; a key that
    /// restores reports exactly the canonical bytes of a standalone sketch
    /// of its items, and an intact record always restores.
    #[test]
    fn corrupt_spill_records_fail_typed_or_restore_exactly() {
        use crate::StoreError;
        let config = tiny_cfg();
        let mut dir = std::env::temp_dir();
        dir.push(format!("gt-store-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, items) = spilled_store(Some(&dir));

        // Every spilled key's record, mutated and written back to the log
        // file.
        let records = spilled_keys(&store);
        assert!(records.len() > 120, "only {} keys spilled", records.len());
        let path = |shard: usize| store.shards[shard].lock().spill.path().to_path_buf();
        let mut rng = 0u64;
        let mut next = || {
            rng += 1;
            mix64(rng)
        };
        let mut logs: HashMap<_, _> = records
            .iter()
            .map(|r| (r.1, std::fs::read(path(r.1)).unwrap()))
            .collect();
        // A quarter of the records stay intact, an eighth are spliced (a
        // record's bytes up to a random cut, then another record's bytes
        // from the same offset), and the rest take byte flips.
        let span = |offset: u64, len: u32| offset as usize..(offset + u64::from(len)) as usize;
        let originals: Vec<Vec<u8>> = records
            .iter()
            .map(|(_, shard, offset, len)| logs[shard][span(*offset, *len)].to_vec())
            .collect();
        let mut intact = HashMap::new();
        for (i, (key, shard, offset, len)) in records.iter().enumerate() {
            let mut record = originals[i].clone();
            if key % 8 == 2 {
                let donor =
                    &originals[(i + 1 + next() as usize % (records.len() - 1)) % records.len()];
                let end = record.len().min(donor.len());
                let cut = (next() % end as u64) as usize;
                record[cut..end].copy_from_slice(&donor[cut..end]);
            } else if key % 4 != 0 {
                for _ in 0..1 + next() % 2 {
                    let at = (next() % u64::from(*len)) as usize;
                    record[at] ^= (next() % 255 + 1) as u8;
                }
            }
            logs.get_mut(shard).unwrap()[span(*offset, *len)].copy_from_slice(&record);
            intact.insert(*key, record == originals[i]);
        }
        for (&shard, log) in &logs {
            std::fs::write(path(shard), log).unwrap();
        }

        let (mut restored, mut refused) = (0, 0);
        for &(key, ..) in &records {
            let expected = standalone_bytes(&config, 3, &fed(&items, key));
            // Query twice: a refused key stays spilled and refuses again.
            for _ in 0..2 {
                match store.canonical_bytes(key) {
                    Ok(bytes) => {
                        assert_eq!(bytes.as_ref(), Some(&expected), "key {key}");
                        restored += 1;
                    }
                    Err(StoreError::CorruptRecord(_)) if !intact[&key] => refused += 1,
                    Err(e) => panic!("key {key}: {e}"),
                }
            }
            // The other queries take the same restore.
            assert_eq!(
                store.estimate(key).is_ok(),
                store.items_observed(key).is_ok()
            );
        }
        assert!(restored > 0 && refused > 0, "{restored} {refused}");
        drop(store);
        std::fs::remove_dir(&dir).ok();
    }

    /// Records resealed after a mutation (fresh word count and checksum)
    /// reach the structural checks. Each named mutation is refused with a
    /// corrupt-record error, leaves the key spilled and refuses again;
    /// random resealed bit flips restore exactly when a fresh sketch fed
    /// the same words through `reload_trial` accepts them, with that
    /// sketch's canonical bytes.
    #[test]
    fn resealed_spill_records_fail_typed_or_restore_exactly() {
        let config = tiny_cfg();
        let (c, r) = (config.capacity(), config.trials());
        let (store, items) = spilled_store(None);
        let spilled = spilled_keys(&store);
        let exact_key = spilled.iter().find(|s| s.0 % 2 == 0).unwrap().0;
        let leveled_key = spilled.iter().find(|s| s.0 % 2 == 1).unwrap().0;
        let exact = words_of(&read_record(&store, exact_key));
        let leveled = words_of(&read_record(&store, leveled_key));
        assert_eq!(exact[0] >> 56, u64::from(EXACT));
        assert_eq!(exact.len(), 2 + 6);

        // Per-trial sections of `leveled` as (meta word index, level, n).
        let mut sections = Vec::new();
        let mut at = 0;
        while at < leveled.len() {
            let n = (leveled[at] & ((1 << 56) - 1)) as usize;
            sections.push((at, (leveled[at] >> 56) as u8, n));
            at += 2 + n;
        }
        assert_eq!(sections.len(), r);
        let (meta_at, level, n) = *sections.iter().find(|s| s.1 > 0 && s.2 > 0).unwrap();
        let trial = sections.iter().position(|s| s.0 == meta_at).unwrap();
        let hasher = GtSketch::<()>::new(&config, 3).trials()[trial]
            .hasher()
            .clone();
        let low = (0..)
            .map(|i| fold61(7_000_000 + i))
            .find(|&l| gt_hash::LevelHasher::level(&hasher, l) < level)
            .unwrap();

        let edit = |words: &[u64], f: &dyn Fn(&mut Vec<u64>)| {
            let mut words = words.to_vec();
            f(&mut words);
            words
        };
        let cases: Vec<(&str, u64, Vec<u64>)> = vec![
            (
                "exact, a word short",
                exact_key,
                exact[..exact.len() - 1].to_vec(),
            ),
            (
                "per-trial, a word short",
                leveled_key,
                leveled[..leveled.len() - 1].to_vec(),
            ),
            (
                "exact, a word long",
                exact_key,
                edit(&exact, &|w| w.push(0)),
            ),
            (
                "per-trial, a word long",
                leveled_key,
                edit(&leveled, &|w| w.push(0)),
            ),
            ("no words", exact_key, Vec::new()),
            (
                "n > capacity",
                exact_key,
                edit(&exact, &|w| {
                    w[0] = (u64::from(EXACT) << 56) | (c as u64 + 1);
                    w.extend((0..c as u64 + 1 - 6).map(|i| fold61(9_000_000 + i)));
                }),
            ),
            (
                "level > MAX_LEVEL",
                leveled_key,
                edit(&leveled, &|w| {
                    w[meta_at] = (u64::from(gt_hash::MAX_LEVEL + 1) << 56) | n as u64;
                }),
            ),
            (
                "exact, label out of field",
                exact_key,
                edit(&exact, &|w| w[2] = gt_hash::P61),
            ),
            (
                "per-trial, label out of field",
                leveled_key,
                edit(&leveled, &|w| w[meta_at + 2] = u64::MAX),
            ),
            ("duplicate label", exact_key, edit(&exact, &|w| w[3] = w[2])),
            (
                "label below its level",
                leveled_key,
                edit(&leveled, &|w| w[meta_at + 2] = low),
            ),
            (
                "per-trial, every trial at level 0",
                exact_key,
                (0..r)
                    .flat_map(|_| [6, exact[1]].into_iter().chain(exact[2..].iter().copied()))
                    .collect(),
            ),
        ];
        let mut disagreeing = 0;
        for (case, key, words) in &cases {
            replace_record(&store, *key, &sealed(*key, words));
            let reason = assert_refused(&store, *key, case);
            disagreeing += usize::from(reason.contains("every trial at level 0"));
        }
        // A zero-length record, as compaction leaves for a record cut off
        // the end of the log.
        {
            let mut guard = store.shards[store.shard_of(exact_key)].lock();
            let entry = guard.index.get_mut(&exact_key).unwrap();
            let KeyState::Spilled { offset, .. } = entry.state else {
                unreachable!()
            };
            entry.state = KeyState::Spilled { offset, len: 0 };
        }
        assert_refused(&store, exact_key, "zero-length record");
        // Another key's intact record fails the key-bound checksum.
        replace_record(&store, exact_key, &read_record(&store, leveled_key));
        assert_refused(&store, exact_key, "another key's record");
        assert_eq!(
            disagreeing, 1,
            "the all-level-0 record was not refused as such"
        );

        // The original words still restore exactly.
        for (key, words) in [(exact_key, &exact), (leveled_key, &leveled)] {
            replace_record(&store, key, &sealed(key, words));
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                standalone_bytes(&config, 3, &fed(&items, key)),
                "key {key}"
            );
        }

        // Random resealed flips of 1–2 bits in every other spilled key.
        let mut rng = 0u64;
        let mut next = || {
            rng += 1;
            mix64(rng ^ 0x5EA1)
        };
        let (mut restored, mut refused) = (0, 0);
        for (key, ..) in spilled_keys(&store) {
            let mut words = words_of(&read_record(&store, key));
            for _ in 0..1 + next() % 2 {
                let bit = next() % (64 * words.len() as u64);
                words[(bit / 64) as usize] ^= 1 << (bit % 64);
            }
            replace_record(&store, key, &sealed(key, &words));
            match reload_words::<()>(&config, 3, &words) {
                Some(sketch) => {
                    for _ in 0..2 {
                        let bytes = store.canonical_bytes(key).unwrap().unwrap();
                        assert_eq!(bytes, encode_sketch(&sketch), "key {key}");
                    }
                    restored += 1;
                }
                None => {
                    assert_refused(&store, key, "resealed flip");
                    refused += 1;
                }
            }
        }
        assert!(restored > 0 && refused > 0, "{restored} {refused}");
    }

    /// Every single-bit flip of a small exact record and of a small
    /// per-trial record fails the checksum: the restore is refused with a
    /// corrupt-record error and the key stays spilled. The intact record
    /// then restores exactly.
    fn every_single_bit_flip_is_refused<V: StorePayload>(payload: fn(u64) -> V) {
        use std::io::{Seek, SeekFrom, Write};
        let config = tiny_cfg();
        let store = SketchStore::<V>::new(&config, 9, opts(1 << 10)).unwrap();
        // Key 0 stays exact with 3 labels and key 1 overflows with 30;
        // 60 later keys push both out.
        let mut items: Vec<(u64, u64, V)> = Vec::new();
        for (key, count) in [(0u64, 3u64), (1, 30)] {
            items.extend((0..count).map(|j| (key, fold61(key * 1_000 + j), payload(j))));
        }
        items.extend(
            (2..62u64).flat_map(|k| (0..4u64).map(move |j| (k, fold61(k * 1_000 + j), payload(j)))),
        );
        store.extend_with(&items).unwrap();
        for key in [0, 1] {
            let record = read_record(&store, key);
            let exact = words_of(&record)[0] >> 56 == u64::from(EXACT);
            assert_eq!(exact, key == 0, "key {key}");
            // Flip each bit in place in the log file, then put it back.
            let (path, offset) = {
                let guard = store.shards[store.shard_of(key)].lock();
                let KeyState::Spilled { offset, .. } = guard.index[&key].state else {
                    unreachable!()
                };
                (guard.spill.path().to_path_buf(), offset)
            };
            let mut log = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            let mut write_byte = |at: usize, byte: u8| {
                log.seek(SeekFrom::Start(offset + at as u64)).unwrap();
                log.write_all(&[byte]).unwrap();
            };
            for bit in 0..record.len() * 8 {
                write_byte(bit / 8, record[bit / 8] ^ (1 << (bit % 8)));
                assert_refused(&store, key, &format!("bit {bit}"));
                write_byte(bit / 8, record[bit / 8]);
            }
            assert_eq!(
                store.canonical_bytes(key).unwrap().unwrap(),
                standalone_bytes(&config, 9, &fed(&items, key)),
                "key {key}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused_distinct() {
        every_single_bit_flip_is_refused::<()>(|_| ());
    }

    #[test]
    fn every_single_bit_flip_is_refused_payload() {
        every_single_bit_flip_is_refused::<u64>(|j| j * 3 + 1);
    }

    /// A shard log cut short inside a live record, just before a restore
    /// compacts the log: every query on that shard restores bitwise or
    /// returns a typed error, and none panics. Keys whose records lie
    /// wholly before the cut restore exactly, across the compaction that
    /// meets the cut; a key whose record the cut reaches is refused, stays
    /// spilled and refuses again.
    #[test]
    fn truncated_spill_log_fails_typed_or_restores_exactly() {
        use crate::StoreError;
        let config = tiny_cfg();
        let mut dir = std::env::temp_dir();
        dir.push(format!("gt-store-truncated-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (store, items) = spilled_store(Some(&dir));
        // Shard 0's spilled keys as `(offset, len, key)`, in log order.
        let spilled = || {
            let mut spilled: Vec<(u64, u32, u64)> = spilled_keys(&store)
                .into_iter()
                .filter(|s| s.1 == 0)
                .map(|(key, _, offset, len)| (offset, len, key))
                .collect();
            spilled.sort_unstable();
            spilled
        };
        let keys: Vec<u64> = spilled().iter().map(|r| r.2).collect();
        assert!(keys.len() > 60, "only {} keys spilled", keys.len());

        // Restore keys in turn (the tight budget spills each straight back)
        // until the next restore would compact the log, so that compaction
        // meets the cut before any append extends the file again.
        let first = 'churn: loop {
            for &key in &keys {
                let guard = store.shards[0].lock();
                if let KeyState::Spilled { len, .. } = guard.index[&key].state {
                    let dead = guard.spill.dead_bytes() + u64::from(len);
                    if dead >= 4096 && 2 * dead >= guard.spill.appended_bytes() {
                        break 'churn key;
                    }
                }
                drop(guard);
                store.canonical_bytes(key).unwrap();
            }
        };
        let mut records = spilled();
        // Cut halfway through the last record that is not `first`'s, and
        // query `first` first.
        let (offset, len, ..) = *records.iter().rev().find(|r| r.2 != first).unwrap();
        let cut = offset + u64::from(len) / 2;
        let path = store.shards[0].lock().spill.path().to_path_buf();
        let log = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        log.set_len(cut).unwrap();
        records.sort_by_key(|r| r.2 != first);

        let compactions = store.metrics_snapshot().compactions;
        let (mut restored, mut refused) = (0, 0);
        for (offset, len, key) in &records {
            let intact = offset + u64::from(*len) <= cut;
            let expected = standalone_bytes(&config, 3, &fed(&items, *key));
            for _ in 0..2 {
                match store.canonical_bytes(*key) {
                    Ok(bytes) => {
                        assert!(intact, "key {key}: a record the cut reaches restored");
                        assert_eq!(bytes.as_ref(), Some(&expected), "key {key}");
                        restored += 1;
                    }
                    Err(StoreError::Io(_) | StoreError::CorruptRecord(_)) if !intact => {
                        let shard = store.shards[0].lock();
                        let state = &shard.index[key].state;
                        assert!(matches!(state, KeyState::Spilled { .. }), "key {key}");
                        drop(shard);
                        refused += 1;
                    }
                    Err(e) => panic!("key {key} (intact: {intact}): {e}"),
                }
                assert_eq!(store.estimate(*key).is_ok(), intact, "key {key}");
            }
        }
        assert!(restored > 0 && refused > 0, "{restored} {refused}");
        assert!(
            store.metrics_snapshot().compactions > compactions,
            "no restore compacted the cut log"
        );
        drop(store);
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn out_of_range_labels_reject_the_whole_batch() {
        use crate::StoreError;
        let out_of_range = |r: Result<()>, bad: u64| {
            assert!(
                matches!(r, Err(StoreError::Sketch(SketchError::LabelOutOfRange { label })) if label == bad),
                "{r:?}"
            );
        };
        let store = DistinctStore::new(&cfg(), 12, opts(64 << 20)).unwrap();
        let bad = 1u64 << 62;
        out_of_range(
            store.extend(&[(1, fold61(5)), (1, bad), (2, fold61(6))]),
            bad,
        );
        out_of_range(store.extend(&[(3, gt_hash::P61)]), gt_hash::P61);
        // Nothing was staged, and later queries and ingest work.
        assert_eq!(store.key_count(), 0);
        assert!(store.estimate(1).unwrap().is_none());
        store.extend(&[(1, fold61(5))]).unwrap();
        for _ in 0..2 {
            assert_eq!(store.estimate(1).unwrap().unwrap().value, 1.0);
        }

        let payloads = SketchStore::<u64>::new(&cfg(), 12, opts(64 << 20)).unwrap();
        out_of_range(payloads.extend_with(&[(1, fold61(5), 7), (1, bad, 8)]), bad);
        assert_eq!(payloads.key_count(), 0);
        assert!(payloads.items_observed(1).unwrap().is_none());
    }

    #[test]
    fn spill_files_live_in_the_configured_dir_and_are_cleaned_up() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("gt-store-cfgdir-{}", std::process::id()));
        {
            let store =
                DistinctStore::new(&tiny_cfg(), 1, opts(1 << 10).with_spill_dir(&dir)).unwrap();
            let items: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i % 200, fold61(i))).collect();
            store.extend(&items).unwrap();
            assert!(store.metrics_snapshot().evictions > 0);
            let logs = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(logs, store.shard_count());
        }
        // Drop removed the shard logs but kept the user-provided dir.
        assert!(dir.exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).ok();
    }
}
