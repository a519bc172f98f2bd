//! Fixed-capacity open-addressing map from labels to small payloads — the
//! per-trial sample store.
//!
//! The hot loop of the sketch is `insert(label)` on a set that is
//! *guaranteed* never to exceed a capacity fixed at construction time
//! (overflow triggers level promotion in the caller, never growth here).
//! That guarantee lets the store be a single flat allocation with
//! power-of-two sizing, load < ⅔ (see [`FixedCapMap::table_len`]), linear
//! probing and **no tombstones**: the only deletion operation is bulk
//! [`FixedCapMap::retain`], which rebuilds the probe sequences in place.
//! Only labels that pass the sketch's level screen probe the table, so the
//! longer miss chains of ⅔ load cost little next to the memory they save.
//! `std::collections::HashMap` would
//! carry SipHash, growth amortization and per-entry overhead the sketch
//! neither needs nor wants (see the Rust Performance Book's guidance on
//! replacing general-purpose containers on hot paths).
//!
//! Keys are labels in `[0, 2^61 − 1)`, so `u64::MAX` is free to serve as
//! the empty-slot sentinel. Probe positions are derived from `mix64(key)`
//! — a fixed bijective scrambler — so probe clustering is independent of
//! label structure *and* of the sketch's own seeded hash functions.

use gt_hash::mix64;

/// Outcome of [`FixedCapMap::try_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was new and has been stored.
    Inserted,
    /// The key was already present; the stored payload is untouched.
    AlreadyPresent,
    /// The map is at capacity and the key is not present; nothing changed.
    /// The caller must make room (the sketch promotes its level) and retry.
    Full,
}

/// Empty-slot sentinel (not a valid label; labels live below `2^61 − 1`).
const EMPTY: u64 = u64::MAX;

/// A fixed-capacity open-addressing hash map `u64 → V`.
///
/// `V` is expected to be a small `Copy` payload (`()` for plain distinct
/// counting, a `u64` value for SumDistinct).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FixedCapMap<V> {
    keys: Vec<u64>,
    values: Vec<V>,
    /// Number of occupied slots.
    len: usize,
    /// Maximum number of entries this map will ever hold.
    capacity: usize,
    /// `keys.len() - 1`; table length is a power of two.
    mask: usize,
}

impl<V> FixedCapMap<V> {
    /// Slots in the backing table of a map holding at most `capacity`
    /// entries: `⌊3c/2⌋ + 1` rounded up to a power of two.
    ///
    /// The result always exceeds `capacity`, so a full map keeps at least
    /// one empty slot — the stop condition of every probe loop — and the
    /// load factor stays below ⅔.
    pub fn table_len(capacity: usize) -> usize {
        (capacity * 3 / 2 + 1).next_power_of_two()
    }
}

impl<V: Copy + Default> FixedCapMap<V> {
    /// Create a map that holds at most `capacity ≥ 1` entries, in a table
    /// of [`FixedCapMap::table_len`] slots (load factor < ⅔).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        let table_len = Self::table_len(capacity);
        FixedCapMap {
            keys: vec![EMPTY; table_len],
            values: vec![V::default(); table_len],
            len: 0,
            capacity,
            mask: table_len - 1,
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed entry capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the map is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Bytes of backing storage (space-accounting experiments).
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>() + self.values.len() * std::mem::size_of::<V>()
    }

    #[inline(always)]
    fn slot_of(&self, key: u64) -> usize {
        (mix64(key) as usize) & self.mask
    }

    /// Insert `key ↦ value` if there is room.
    ///
    /// Duplicate keys are detected and reported without modifying the
    /// stored payload — re-insertion of a label a party has already seen is
    /// the common case in duplicate-heavy streams and must be cheap.
    #[inline]
    pub fn try_insert(&mut self, key: u64, value: V) -> InsertOutcome {
        debug_assert!(
            key != EMPTY,
            "u64::MAX is the empty sentinel, not a valid label"
        );
        let mut idx = self.slot_of(key);
        loop {
            let k = self.keys[idx];
            if k == key {
                return InsertOutcome::AlreadyPresent;
            }
            if k == EMPTY {
                if self.len == self.capacity {
                    return InsertOutcome::Full;
                }
                self.keys[idx] = key;
                self.values[idx] = value;
                self.len += 1;
                return InsertOutcome::Inserted;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Payload stored for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        let mut idx = self.slot_of(key);
        loop {
            let k = self.keys[idx];
            if k == key {
                return Some(self.values[idx]);
            }
            if k == EMPTY {
                return None;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Apply `f` to the payload stored for `key`, if present. Returns
    /// whether the key was found. Cost: one probe chain.
    pub fn update(&mut self, key: u64, f: impl FnOnce(&mut V)) -> bool {
        let mut idx = self.slot_of(key);
        loop {
            let k = self.keys[idx];
            if k == key {
                f(&mut self.values[idx]);
                return true;
            }
            if k == EMPTY {
                return false;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Keep only entries for which `pred` returns true, rebuilding probe
    /// sequences (this is the sub-sampling step of level promotion).
    ///
    /// Cost is `O(table)`; it runs at most `O(log F₀)` times over a trial's
    /// lifetime, so the amortized per-item cost stays constant.
    pub fn retain(&mut self, mut pred: impl FnMut(u64, &V) -> bool) {
        let table_len = self.keys.len();
        let mut survivors: Vec<(u64, V)> = Vec::with_capacity(self.len);
        for idx in 0..table_len {
            let k = self.keys[idx];
            if k != EMPTY && pred(k, &self.values[idx]) {
                survivors.push((k, self.values[idx]));
            }
        }
        self.keys.fill(EMPTY);
        self.len = 0;
        for (k, v) in survivors {
            let outcome = self.try_insert(k, v);
            debug_assert_eq!(outcome, InsertOutcome::Inserted);
        }
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Iterate over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    /// Iterate over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Collect the entries into a `Vec` sorted by key.
    ///
    /// Iteration order of the open-addressed table depends on probe
    /// history, so callers that need a canonical order (the wire codec,
    /// the expression engine's per-trial views) sort once here instead of
    /// each imposing its own.
    pub fn sorted_entries(&self) -> Vec<(u64, V)> {
        let mut entries: Vec<(u64, V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }
}

/// A fixed-capacity set of labels: a [`FixedCapMap`] with unit payloads.
pub type FixedCapSet = FixedCapMap<()>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut m = FixedCapMap::<u64>::with_capacity(8);
        assert_eq!(m.try_insert(5, 50), InsertOutcome::Inserted);
        assert_eq!(m.try_insert(6, 60), InsertOutcome::Inserted);
        assert!(m.contains(5));
        assert!(!m.contains(7));
        assert_eq!(m.get(6), Some(60));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_reported_and_keeps_first_payload() {
        let mut m = FixedCapMap::<u64>::with_capacity(4);
        assert_eq!(m.try_insert(9, 1), InsertOutcome::Inserted);
        assert_eq!(m.try_insert(9, 2), InsertOutcome::AlreadyPresent);
        assert_eq!(m.get(9), Some(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn full_map_rejects_new_keys_but_accepts_duplicates() {
        let mut m = FixedCapSet::with_capacity(2);
        assert_eq!(m.try_insert(1, ()), InsertOutcome::Inserted);
        assert_eq!(m.try_insert(2, ()), InsertOutcome::Inserted);
        assert!(m.is_full());
        assert_eq!(m.try_insert(3, ()), InsertOutcome::Full);
        assert_eq!(m.try_insert(1, ()), InsertOutcome::AlreadyPresent);
        assert_eq!(m.len(), 2);
        assert!(!m.contains(3));
    }

    #[test]
    fn capacity_one_works() {
        let mut m = FixedCapSet::with_capacity(1);
        assert_eq!(m.try_insert(7, ()), InsertOutcome::Inserted);
        assert_eq!(m.try_insert(8, ()), InsertOutcome::Full);
        m.retain(|_, _| false);
        assert_eq!(m.try_insert(8, ()), InsertOutcome::Inserted);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        FixedCapSet::with_capacity(0);
    }

    #[test]
    fn retain_keeps_matching_entries_reachable() {
        let mut m = FixedCapMap::<u64>::with_capacity(64);
        for k in 0..64u64 {
            assert_eq!(m.try_insert(k, k * 10), InsertOutcome::Inserted);
        }
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 32);
        for k in 0..64u64 {
            if k % 2 == 0 {
                assert_eq!(m.get(k), Some(k * 10), "lost key {k}");
            } else {
                assert!(!m.contains(k), "kept key {k}");
            }
        }
    }

    #[test]
    fn retain_fixes_probe_chains_across_removals() {
        // Force a dense cluster, remove the middle of chains, and verify
        // lookups still find everything (the tombstone-free rebuild).
        let mut m = FixedCapSet::with_capacity(128);
        let keys: Vec<u64> = (0..128).map(|i| i * 1_000_003).collect();
        for &k in &keys {
            assert_eq!(m.try_insert(k, ()), InsertOutcome::Inserted);
        }
        m.retain(|k, _| k % 3 != 1);
        for &k in &keys {
            assert_eq!(m.contains(k), k % 3 != 1, "key {k}");
        }
        // And new inserts go to the right place afterwards.
        assert_eq!(m.try_insert(u64::MAX - 1, ()), InsertOutcome::Inserted);
        assert!(m.contains(u64::MAX - 1));
    }

    #[test]
    fn clear_empties_everything() {
        let mut m = FixedCapMap::<u64>::with_capacity(16);
        for k in 0..16 {
            m.try_insert(k, k).unwrap_outcome();
        }
        m.clear();
        assert!(m.is_empty());
        for k in 0..16 {
            assert!(!m.contains(k));
        }
        // Reusable after clear.
        assert_eq!(m.try_insert(3, 33), InsertOutcome::Inserted);
    }

    #[test]
    fn iter_yields_exactly_the_entries() {
        let mut m = FixedCapMap::<u64>::with_capacity(32);
        for k in 100..120u64 {
            m.try_insert(k, k + 1);
        }
        let mut got: Vec<(u64, u64)> = m.iter().collect();
        got.sort_unstable();
        let expect: Vec<(u64, u64)> = (100..120u64).map(|k| (k, k + 1)).collect();
        assert_eq!(got, expect);
        assert_eq!(m.keys().count(), 20);
    }

    #[test]
    fn table_keeps_an_empty_slot_below_two_thirds_load() {
        for cap in (1usize..=4096).chain([4800]) {
            let len = FixedCapSet::table_len(cap);
            assert!(len.is_power_of_two(), "cap {cap}: table {len}");
            assert!(len > cap, "cap {cap}: table {len} has no empty slot");
            assert!(3 * cap < 2 * len, "cap {cap}: table {len} over ⅔ load");
        }
        assert_eq!(FixedCapSet::table_len(1), 2);
        assert_eq!(FixedCapSet::with_capacity(4800).keys.len(), 8192);
    }

    #[test]
    fn misses_on_a_full_map_terminate() {
        // Every probe loop stops at an empty slot; a full map must still
        // have one, or these calls would spin forever.
        for cap in [1usize, 2, 3, 4800] {
            let mut m = FixedCapMap::<u64>::with_capacity(cap);
            for k in 0..cap as u64 {
                assert_eq!(m.try_insert(k, k), InsertOutcome::Inserted);
            }
            assert!(m.is_full());
            let missing = cap as u64;
            assert_eq!(m.get(missing), None, "cap {cap}");
            assert!(!m.contains(missing), "cap {cap}");
            assert!(!m.update(missing, |v| *v += 1), "cap {cap}");
            assert_eq!(m.try_insert(missing, 0), InsertOutcome::Full, "cap {cap}");
        }
    }

    #[test]
    fn heap_bytes_counts_both_arrays() {
        let m = FixedCapMap::<u64>::with_capacity(100);
        // Table = 256 slots; 8 bytes keys + 8 bytes values each.
        assert_eq!(m.heap_bytes(), 256 * 16);
        let s = FixedCapSet::with_capacity(100);
        assert_eq!(s.heap_bytes(), 256 * 8);
    }

    #[test]
    fn adversarial_probe_collisions_still_resolve() {
        // Keys chosen to collide in low bits pre-mix; mix64 must spread them.
        let mut m = FixedCapSet::with_capacity(256);
        for i in 0..256u64 {
            let k = i << 32; // identical low 32 bits
            assert_eq!(m.try_insert(k, ()), InsertOutcome::Inserted);
        }
        for i in 0..256u64 {
            assert!(m.contains(i << 32));
        }
    }

    trait UnwrapOutcome {
        fn unwrap_outcome(self);
    }
    impl UnwrapOutcome for InsertOutcome {
        fn unwrap_outcome(self) {
            assert_eq!(self, InsertOutcome::Inserted);
        }
    }
}
