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
//! * **Resident (packed)** — state lives in a per-shard [`SlotArena`]
//!   slot: a packed sketch section (per trial: level+count word, items
//!   word, then the sample entries) followed by a *delta buffer* of raw
//!   labels appended with no hashing at all. Because a coordinated
//!   sketch's state is a pure function of the observed label multiset
//!   (the interleaving-independence property the concurrent tests
//!   prove), deferring the hash work is lossless: when the slot fills —
//!   or a query or eviction needs real state — the packed section is
//!   reloaded into a pooled scratch sketch, the delta is replayed in
//!   arrival order through the batch kernel, and the folded state is
//!   written back. Ingest therefore pays ~1 word write per item, and
//!   every query reads the key's current state.
//!
//!   Below capacity every trial is at level 0 and holds the same labels,
//!   payloads and item count, so the section packs in *exact form*: one
//!   meta word whose level byte is the reserved `EXACT` flag over the
//!   sample length, one items word, then the shared entries once —
//!   `2 + n·entry` words instead of `r·(2 + n·entry)`. Parsing reloads
//!   every trial from the one list; the first overflow promotes them all
//!   during the delta replay, and the next writeback packs the per-trial
//!   form. Canonical bytes and spill records do not depend on the form.
//! * **Spilled** — evicted under memory pressure: folded, encoded with the
//!   canonical codec, appended to the shard's [`SpillLog`]. The next touch
//!   restores it bitwise-identically via `decode_trials` + `apply_delta`.
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
//! (live slot-class bytes). Pressure pops an approximate-LRU queue of
//! `(key, stamp)` touches (stale stamps are lazily skipped), spilling
//! until the shard is back under budget or nothing evictable remains.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use crossbeam::utils::CachePadded;
use gt_core::{apply_delta, SortedTrials};
use gt_core::{effective_workers, CoordinatedTrial, Estimate, GtSketch, SketchConfig, SketchError};
use gt_hash::mix64;
use gt_streams::{decode_trials, encode_sketch, CodecError, WirePayload};
use parking_lot::Mutex;

use crate::arena::{SketchHandle, SlotArena};
use crate::metrics::StoreMetricsSnapshot;
use crate::spill::SpillLog;
use crate::Result;

/// Staging-buffer size for keyed ingest: items are grouped by
/// `(shard, key)` in chunks of this many entries so each shard lock is
/// taken once per chunk. Matches `gt_core::sketch::INGEST_BUF`.
pub const STORE_STAGE: usize = 1024;

/// Level byte that marks a packed section in exact form (one shared list
/// for every trial). No trial can reach it: levels stop at `MAX_LEVEL`.
const EXACT: u8 = 0xFF;
const _: () = assert!(EXACT > gt_hash::MAX_LEVEL);

/// Payloads a [`SketchStore`] can pack into arena words. `WORDS` is the
/// packed width per sample entry — `0` for `()` (distinct counting), `1`
/// for word-sized payloads like `u64`.
pub trait StorePayload: WirePayload {
    /// Packed words per payload (0 or 1).
    const WORDS: usize;
    /// Pack into one arena word. Never called when `WORDS == 0`.
    fn to_word(self) -> u64;
    /// Unpack from one arena word. Never called when `WORDS == 0`.
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
#[derive(Clone, Copy, Debug)]
enum KeyState {
    /// Packed in an arena slot: `sketch_words` words of packed sketch
    /// section followed by `delta_items` raw unfolded items.
    Resident {
        handle: SketchHandle,
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
    arena: SlotArena,
    /// Pooled sketch every fold/query/evict materializes into.
    scratch: GtSketch<V>,
    /// Reusable `(label, payload)` buffer for delta replay.
    run_buf: Vec<(u64, V)>,
    spill: SpillLog,
    spill_buf: Vec<u8>,
    spill_body: SortedTrials<V>,
    /// Approximate-LRU touch queue of `(key, stamp)`.
    lru: VecDeque<(u64, u64)>,
    stamp: u64,
    /// Budgeted bytes: live slot-class bytes.
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
    /// at least a quarter of the sketch section (so slot classes roughly
    /// double alongside the state they hold).
    fn headroom(needed: usize) -> usize {
        (needed / 4).max(8 * Self::ENTRY_WORDS)
    }

    /// Materialize a packed slot into `sketch`: reload the sketch section
    /// (or clear, when the key has only ever buffered deltas), then replay
    /// the delta items in arrival order through the batch kernel.
    /// An exact section reloads every trial at level 0 from its one list;
    /// a replay that overflows it promotes every trial, and the next
    /// writeback packs the per-trial form. Pure function of the slot
    /// contents — callers decide whether to write the folded state back.
    fn parse_into(
        sketch: &mut GtSketch<V>,
        slot: &[u64],
        sketch_words: usize,
        delta_items: usize,
        replay: &mut Vec<(u64, V)>,
    ) {
        let ew = Self::ENTRY_WORDS;
        if sketch_words == 0 {
            sketch.clear();
        } else {
            let trials = sketch.trials().len();
            let exact = (slot[0] >> 56) as u8 == EXACT;
            let mut pos = 0usize;
            for t in 0..trials {
                let start = if exact { 0 } else { pos };
                let meta = slot[start];
                let level = if exact { 0 } else { (meta >> 56) as u8 };
                let n = (meta & ((1u64 << 56) - 1)) as usize;
                let items = slot[start + 1];
                let base = start + 2;
                let entries = (0..n).map(|i| {
                    let at = base + i * ew;
                    let payload = if V::WORDS == 1 {
                        V::from_word(slot[at + 1])
                    } else {
                        V::default()
                    };
                    (slot[at], payload)
                });
                sketch
                    .reload_trial(t, level, items, entries)
                    .expect("packed slot state is self-consistent");
                pos = base + n * ew;
            }
            debug_assert_eq!(pos, sketch_words);
        }
        replay.clear();
        let mut at = sketch_words;
        for _ in 0..delta_items {
            let payload = if V::WORDS == 1 {
                V::from_word(slot[at + 1])
            } else {
                V::default()
            };
            replay.push((slot[at], payload));
            at += ew;
        }
        if !replay.is_empty() {
            sketch.insert_batch_with(replay);
        }
    }

    /// Write `sketch`'s packed section into `slot`, returning the words
    /// written (== [`ShardState::packed_words`]).
    fn write_sketch_section(sketch: &GtSketch<V>, slot: &mut [u64]) -> usize {
        let ew = Self::ENTRY_WORDS;
        let exact = Self::is_exact(sketch);
        debug_assert!(
            !exact || Self::trials_agree(&SortedTrials::of(sketch)),
            "exact-form trials must hold equal samples and item counts"
        );
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

    /// Whether every trial holds the first trial's level, item count and
    /// sample — what packing one shared list assumes.
    fn trials_agree(trials: &SortedTrials<V>) -> bool {
        let first = trials.iter().next();
        trials.iter().all(|t| Some(t) == first)
    }

    /// 1 when `handle`'s packed section is in exact form, else 0: the
    /// `exact_keys` gauge moves by this whenever a slot is written or
    /// freed. A slot that has only buffered deltas has no section.
    fn exact_flag(&self, handle: SketchHandle, sketch_words: u32) -> u64 {
        u64::from(sketch_words > 0 && (self.arena.slot(handle)[0] >> 56) as u8 == EXACT)
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

    /// Write the scratch sketch back as `key`'s resident state, promoting
    /// (or shrinking) the slot class as needed. A resident key rewrites
    /// its current slot; a restored key gets a fresh one.
    fn writeback_scratch(&mut self, key: u64) {
        let old = match self.index[&key].state {
            KeyState::Resident {
                handle,
                sketch_words,
                ..
            } => {
                self.exact_keys -= self.exact_flag(handle, sketch_words);
                Some(handle)
            }
            _ => None,
        };
        let needed = Self::packed_words(&self.scratch);
        let class = self.arena.class_for(needed + Self::headroom(needed));
        let handle = match old {
            Some(h) if h.class == class => h,
            Some(h) => {
                self.resident_bytes -= self.arena.class_bytes(h.class);
                self.arena.free(h);
                if class > h.class {
                    self.tally.promotions += 1;
                }
                let fresh = self.arena.alloc(class);
                self.resident_bytes += self.arena.class_bytes(class);
                fresh
            }
            None => {
                let fresh = self.arena.alloc(class);
                self.resident_bytes += self.arena.class_bytes(class);
                fresh
            }
        };
        let written = Self::write_sketch_section(&self.scratch, self.arena.slot_mut(handle));
        debug_assert_eq!(written, needed);
        self.exact_keys += self.exact_flag(handle, needed as u32);
        self.index
            .get_mut(&key)
            .expect("writeback of unknown key")
            .state = KeyState::Resident {
            handle,
            sketch_words: needed as u32,
            delta_items: 0,
        };
    }

    /// Fold a resident key into the scratch sketch. Writes the folded
    /// state back when a delta was replayed (the fold should be paid once,
    /// not per query) or when `force_writeback` asks for a fresh slot
    /// sizing (the append path uses this to promote a full slot).
    fn fold_resident(&mut self, key: u64, force_writeback: bool) {
        let KeyState::Resident {
            handle,
            sketch_words,
            delta_items,
        } = self.index[&key].state
        else {
            unreachable!("fold_resident on a non-resident key");
        };
        Self::parse_into(
            &mut self.scratch,
            self.arena.slot(handle),
            sketch_words as usize,
            delta_items as usize,
            &mut self.run_buf,
        );
        if delta_items > 0 {
            self.tally.folds += 1;
            self.tally.delta_replayed += u64::from(delta_items);
        }
        if force_writeback || delta_items > 0 {
            self.writeback_scratch(key);
        }
    }

    /// Restore a spilled key into a fresh packed slot, bitwise-identically
    /// (the canonical codec enforces seed/config and round-trips exactly),
    /// or leave it spilled if its record fails to read or decode, or has
    /// every trial at level 0 but trials that disagree (no stream makes
    /// that). The key's log range is dead afterwards; when enough of the
    /// log is dead, compact it in the same breath.
    fn restore(&mut self, key: u64) -> Result<()> {
        let KeyState::Spilled { offset, len } = self.index[&key].state else {
            return Ok(());
        };
        self.spill.read(offset, len, &mut self.spill_buf)?;
        let bytes = Bytes::from(self.spill_buf.as_slice());
        decode_trials(&self.scratch, bytes, &mut self.spill_body)?;
        let exact = self.spill_body.iter().all(|(level, ..)| level == 0);
        if exact && !Self::trials_agree(&self.spill_body) {
            return Err(CodecError::Malformed("spill record's level-0 trials disagree").into());
        }
        self.scratch.clear();
        apply_delta(&mut self.scratch, &self.spill_body)?;
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
        let mut keys: Vec<u64> = Vec::with_capacity(self.spilled_keys as usize);
        let mut live: Vec<(u64, u32)> = Vec::with_capacity(self.spilled_keys as usize);
        for (&key, entry) in &self.index {
            if let KeyState::Spilled { offset, len } = entry.state {
                keys.push(key);
                live.push((offset, len));
            }
        }
        // `compact` sorts by offset; offsets are unique, so sorting the
        // keys by the same offset keeps the two vectors aligned.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| live[i].0);
        let keys: Vec<u64> = order.iter().map(|&i| keys[i]).collect();
        let mut live: Vec<(u64, u32)> = order.iter().map(|&i| live[i]).collect();

        let reclaimed = self.spill.compact(&mut live)?;
        for (key, &(offset, len)) in keys.iter().zip(&live) {
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
    fn evict_one(&mut self) -> bool {
        while let Some((key, stamp)) = self.lru.pop_front() {
            let Some(entry) = self.index.get(&key) else {
                continue;
            };
            if entry.last_stamp != stamp {
                continue;
            }
            let KeyState::Resident {
                handle,
                sketch_words,
                delta_items,
            } = entry.state
            else {
                continue;
            };
            Self::parse_into(
                &mut self.scratch,
                self.arena.slot(handle),
                sketch_words as usize,
                delta_items as usize,
                &mut self.run_buf,
            );
            if delta_items > 0 {
                self.tally.folds += 1;
                self.tally.delta_replayed += u64::from(delta_items);
            }
            let bytes = encode_sketch(&self.scratch);
            match self.spill.append(&bytes) {
                Ok((offset, len)) => {
                    self.exact_keys -= self.exact_flag(handle, sketch_words);
                    self.resident_bytes -= self.arena.class_bytes(handle.class);
                    self.arena.free(handle);
                    let entry = self.index.get_mut(&key).expect("evict of unknown key");
                    entry.state = KeyState::Spilled { offset, len };
                    self.resident_keys -= 1;
                    self.spilled_keys += 1;
                    self.tally.evictions += 1;
                    self.tally.spilled_bytes += u64::from(len);
                    return true;
                }
                Err(_) => {
                    // Disk refused the spill: keep the victim resident
                    // (its slot is untouched) and stop evicting.
                    self.lru.push_back((key, stamp));
                    return false;
                }
            }
        }
        false
    }

    /// Evict until the shard is back under its byte budget or nothing
    /// evictable remains.
    fn maybe_evict(&mut self) {
        while self.resident_bytes > self.budget {
            if !self.evict_one() {
                break;
            }
        }
    }

    /// Ingest one staged key-run (all entries share `key`, arrival order
    /// preserved). The steady-state path holds a single index borrow: the
    /// LRU stamp and the delta append happen against one `get_mut`, with
    /// the arena accessed as a disjoint field. Only the rare transitions
    /// (create, restore, slot-full fold) release the borrow.
    fn ingest_run(&mut self, key: u64, run: &[Staged<V>]) -> Result<()> {
        self.tally.key_runs += 1;
        self.tally.items += run.len() as u64;
        let ew = Self::ENTRY_WORDS;
        self.stamp += 1;
        let stamp = self.stamp;

        match self.index.get(&key).map(|e| e.state) {
            None => {
                let handle = self.arena.alloc(0);
                self.resident_bytes += self.arena.class_bytes(0);
                self.index.insert(
                    key,
                    KeyEntry {
                        state: KeyState::Resident {
                            handle,
                            sketch_words: 0,
                            delta_items: 0,
                        },
                        last_stamp: 0,
                    },
                );
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
                handle,
                sketch_words,
                mut delta_items,
            } = entry.state
            else {
                unreachable!("spilled key restored above");
            };
            let cap = self.arena.class_words(handle.class);
            let base = sketch_words as usize + delta_items as usize * ew;
            let space = (cap - base) / ew;
            let take = space.min(rest.len());
            if take > 0 {
                let slot = self.arena.slot_mut(handle);
                for (i, item) in rest[..take].iter().enumerate() {
                    let at = base + i * ew;
                    slot[at] = item.label;
                    if V::WORDS == 1 {
                        slot[at + 1] = item.payload.to_word();
                    }
                }
                delta_items += take as u32;
                entry.state = KeyState::Resident {
                    handle,
                    sketch_words,
                    delta_items,
                };
                rest = &rest[take..];
            }
            if rest.is_empty() {
                break;
            }
            // Slot full: fold the delta in, which re-sizes the slot with
            // fresh delta headroom.
            self.fold_resident(key, true);
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
            KeyState::Resident { .. } => self.fold_resident(key, false),
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
        let min_words = 2 * trials + 6;
        let budget = (options.byte_budget / shard_count).max(1);
        let shards = (0..shard_count)
            .map(|i| {
                let spill = SpillLog::create(&spill_dir.join(format!("shard-{i:03}.spill")))?;
                Ok(CachePadded::new(Mutex::new(ShardState {
                    index: HashMap::new(),
                    arena: SlotArena::new(min_words, max_words),
                    scratch: scratch.clone(),
                    run_buf: Vec::new(),
                    spill,
                    spill_buf: Vec::new(),
                    spill_body: SortedTrials::default(),
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
                guard.maybe_evict();
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
    /// such a batch ingests nothing. Otherwise, spill-log I/O or decode
    /// errors surfaced while restoring a spilled key touched by this
    /// batch; items staged before the failing run are ingested, the rest
    /// of the batch is dropped.
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
        let out = guard.estimate(key);
        guard.maybe_evict();
        out
    }

    /// Exact items observed for `key`, or `None` for an unknown key.
    ///
    /// # Errors
    /// As [`SketchStore::estimate`].
    pub fn items_observed(&self, key: u64) -> Result<Option<u64>> {
        let mut guard = self.shards[self.shard_of(key)].lock();
        let out = guard.items_observed(key);
        guard.maybe_evict();
        out
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
        let out = guard.canonical_bytes(key);
        guard.maybe_evict();
        out
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
            snap.arena_bytes += g.arena.allocated_bytes() as u64;
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
        assert!(snap.arena_bytes > 0);
        assert_eq!(snap.keys, 900);
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

    /// Spill records are bytes from outside the process. With bytes
    /// flipped or spliced inside the on-disk records, every query returns
    /// `Ok` or a typed error and never panics; a key that restores reports
    /// exactly its record's bytes, and only a record the codec accepts
    /// restores.
    #[test]
    fn corrupt_spill_records_fail_typed_or_restore_exactly() {
        use crate::StoreError;
        let config = tiny_cfg();
        let mut dir = std::env::temp_dir();
        dir.push(format!("gt-store-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let options = opts(1 << 10).with_spill_dir(&dir);
        let store = DistinctStore::new(&config, 3, options).unwrap();
        // Even keys stay under capacity (exact form, every trial at level
        // 0); odd keys overflow it.
        let items: Vec<(u64, u64)> = (0..240u64)
            .flat_map(|k| (0..6 + k % 2 * 54).map(move |j| (k, fold61(k * 1_000 + j))))
            .collect();
        store.extend(&items).unwrap();

        // Every spilled key's record, mutated and written back to the log
        // file.
        let mut records = Vec::new();
        for shard in &store.shards {
            let guard = shard.lock();
            for (&key, entry) in &guard.index {
                if let KeyState::Spilled { offset, len } = entry.state {
                    records.push((key, guard.spill.path().to_path_buf(), offset, len));
                }
            }
        }
        records.sort_unstable_by_key(|r| r.0);
        assert!(records.len() > 120, "only {} keys spilled", records.len());
        let mut rng = 0u64;
        let mut next = || {
            rng += 1;
            mix64(rng)
        };
        let mut logs: HashMap<_, _> = records
            .iter()
            .map(|r| (r.1.clone(), std::fs::read(&r.1).unwrap()))
            .collect();
        // A quarter of the records stay intact, an eighth are spliced (a
        // record's bytes up to a random cut, then another record's bytes
        // from the same offset), and the rest take byte flips.
        let span = |offset: u64, len: u32| offset as usize..(offset + u64::from(len)) as usize;
        let originals: Vec<Vec<u8>> = records
            .iter()
            .map(|(_, path, offset, len)| logs[path][span(*offset, *len)].to_vec())
            .collect();
        let mut flipped = HashMap::new();
        for (i, (key, path, offset, len)) in records.iter().enumerate() {
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
            logs.get_mut(path).unwrap()[span(*offset, *len)].copy_from_slice(&record);
            flipped.insert(*key, Bytes::from(record));
        }
        for (path, log) in &logs {
            std::fs::write(path, log).unwrap();
        }

        let disagree = CodecError::Malformed("spill record's level-0 trials disagree");
        let (mut restored, mut refused, mut disagreeing) = (0, 0, 0);
        for (key, ..) in &records {
            let record = &flipped[key];
            let decodes = gt_streams::decode_sketch::<()>(record.clone())
                .is_ok_and(|d| d.master_seed() == 3 && *d.config() == config);
            // Query twice: a refused key stays spilled and refuses again.
            for _ in 0..2 {
                match store.canonical_bytes(*key) {
                    Ok(bytes) => {
                        assert!(decodes, "key {key}: a record the codec refuses restored");
                        assert_eq!(bytes.as_ref(), Some(record), "key {key}");
                        restored += 1;
                    }
                    Err(StoreError::Codec(e)) if decodes => {
                        assert_eq!(e, disagree, "key {key}");
                        disagreeing += 1;
                    }
                    Err(StoreError::Codec(_)) => refused += 1,
                    Err(e) => panic!("key {key}: {e}"),
                }
            }
            // The other queries take the same restore.
            assert_eq!(
                store.estimate(*key).is_ok(),
                store.items_observed(*key).is_ok()
            );
        }
        assert!(restored > 0 && refused > 0, "{restored} {refused}");
        assert!(
            disagreeing > 0,
            "no flip made an exact record's trials disagree"
        );
        drop(store);
        std::fs::remove_dir(&dir).ok();
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
        let store = DistinctStore::new(&config, 3, opts(1 << 10).with_spill_dir(&dir)).unwrap();
        let items: Vec<(u64, u64)> = (0..240u64)
            .flat_map(|k| (0..6 + k % 2 * 54).map(move |j| (k, fold61(k * 1_000 + j))))
            .collect();
        store.extend(&items).unwrap();
        // Shard 0's spilled keys as `(offset, len, key)`, in log order.
        let spilled = || {
            let guard = store.shards[0].lock();
            let mut spilled: Vec<(u64, u32, u64)> = guard
                .index
                .iter()
                .filter_map(|(&key, entry)| match entry.state {
                    KeyState::Spilled { offset, len } => Some((offset, len, key)),
                    KeyState::Resident { .. } => None,
                })
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
        let mut records = Vec::new();
        for (offset, len, key) in spilled() {
            let mut record = Vec::new();
            let mut guard = store.shards[0].lock();
            guard.spill.read(offset, len, &mut record).unwrap();
            records.push((offset, len, key, Bytes::from(record)));
        }
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
        for (offset, len, key, record) in &records {
            let intact = offset + u64::from(*len) <= cut;
            for _ in 0..2 {
                match store.canonical_bytes(*key) {
                    Ok(bytes) => {
                        assert!(intact, "key {key}: a record the cut reaches restored");
                        assert_eq!(bytes.as_ref(), Some(record), "key {key}");
                        restored += 1;
                    }
                    Err(StoreError::Io(_) | StoreError::Codec(_)) if !intact => {
                        let state = store.shards[0].lock().index[key].state;
                        assert!(matches!(state, KeyState::Spilled { .. }), "key {key}");
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
