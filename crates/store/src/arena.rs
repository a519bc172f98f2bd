//! Slab arenas for packed per-key sketch state.
//!
//! A store shard keeps the state of every resident key inside a handful
//! of large `Vec<u64>` slabs instead of one heap allocation per key.
//! Slots come in power-of-two size classes: class `c` holds `base << c`
//! words. Allocation is a free-list pop (or a slab extension when the
//! free list is empty) and freeing is a free-list push — no allocator
//! traffic on the steady-state path, which is the point: with millions
//! of small sketches the per-`Vec` malloc/free overhead and heap
//! fragmentation would dominate the resident footprint.
//!
//! A [`SketchHandle`] names a slot as `(class, index)`; the slot's byte
//! offset is `index * class_words(class) * 8`, so handles stay valid across
//! slab growth (growth appends, it never moves existing slots relative to
//! the slab start — and slot access re-derives the offset each time, so
//! even a `Vec` reallocation is invisible). Keys that outgrow their slot
//! class are promoted by allocating a slot from a bigger class, rewriting
//! the packed state there, and freeing the old slot — the same
//! copy-forward shape as `compact.rs`.

/// Name of one arena slot: the size class plus the slot index within that
/// class's slab. `Copy` and 5 bytes of payload — cheap to store in the
/// per-key index entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchHandle {
    /// Size class; the slot spans `base_words << class` words.
    pub class: u8,
    /// Slot index within the class slab.
    pub slot: u32,
}

/// One power-of-two size class: a slab of `words`-sized slots plus the
/// free list of previously released slot indices.
#[derive(Debug, Default)]
struct SlotClass {
    /// Words per slot in this class.
    words: usize,
    /// Backing slab; length is always `slots * words`.
    storage: Vec<u64>,
    /// Indices of freed slots available for reuse.
    free: Vec<u32>,
    /// Total slots ever carved out of `storage`.
    slots: u32,
}

/// Per-shard slab arena: a ladder of power-of-two slot classes.
#[derive(Debug)]
pub struct SlotArena {
    /// Words in the smallest (class 0) slot.
    base_words: usize,
    classes: Vec<SlotClass>,
}

impl SlotArena {
    /// Build an arena whose smallest slot holds `min_words` (rounded up to
    /// a power of two) and whose largest class is the first one that can
    /// hold `max_words`. `max_words` is the worst-case packed size of one
    /// key (full sample in every trial plus delta headroom), so every
    /// promotion request is satisfiable.
    pub fn new(min_words: usize, max_words: usize) -> Self {
        let base_words = min_words.max(4).next_power_of_two();
        let mut classes = Vec::new();
        let mut words = base_words;
        loop {
            classes.push(SlotClass {
                words,
                ..SlotClass::default()
            });
            if words >= max_words {
                break;
            }
            words *= 2;
        }
        Self {
            base_words,
            classes,
        }
    }

    /// Smallest class whose slots hold at least `words` words, clamped to
    /// the largest class.
    pub fn class_for(&self, words: usize) -> u8 {
        let top = (self.classes.len() - 1) as u8;
        if words <= self.base_words {
            return 0;
        }
        let ratio = words.div_ceil(self.base_words).next_power_of_two();
        (ratio.trailing_zeros() as u8).min(top)
    }

    /// Words per slot in `class`.
    pub fn class_words(&self, class: u8) -> usize {
        self.classes[class as usize].words
    }

    /// Bytes per slot in `class` — what a resident key of this class
    /// contributes to the shard's byte budget.
    pub fn class_bytes(&self, class: u8) -> usize {
        self.class_words(class) * 8
    }

    /// Allocate a zeroed slot from `class`: pop the free list, or extend
    /// the slab by one slot.
    pub fn alloc(&mut self, class: u8) -> SketchHandle {
        let c = &mut self.classes[class as usize];
        let slot = if let Some(slot) = c.free.pop() {
            let start = slot as usize * c.words;
            c.storage[start..start + c.words].fill(0);
            slot
        } else {
            let slot = c.slots;
            c.slots += 1;
            c.storage.resize(c.slots as usize * c.words, 0);
            slot
        };
        SketchHandle { class, slot }
    }

    /// Return a slot to its class free list. The words are not scrubbed
    /// here; [`SlotArena::alloc`] zeroes on reuse.
    pub fn free(&mut self, handle: SketchHandle) {
        let c = &mut self.classes[handle.class as usize];
        debug_assert!(
            handle.slot < c.slots,
            "freeing a slot that was never allocated"
        );
        debug_assert!(!c.free.contains(&handle.slot), "double free of arena slot");
        c.free.push(handle.slot);
    }

    /// The words of `handle`'s slot.
    pub fn slot(&self, handle: SketchHandle) -> &[u64] {
        let c = &self.classes[handle.class as usize];
        let start = handle.slot as usize * c.words;
        &c.storage[start..start + c.words]
    }

    /// The words of `handle`'s slot, mutably.
    pub fn slot_mut(&mut self, handle: SketchHandle) -> &mut [u64] {
        let c = &mut self.classes[handle.class as usize];
        let start = handle.slot as usize * c.words;
        &mut c.storage[start..start + c.words]
    }

    /// Total bytes backing all slabs (live + free-listed slots). This is
    /// the arena's actual memory footprint; the shard's *budgeted*
    /// resident bytes count only live slots.
    pub fn allocated_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.storage.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_for_picks_smallest_fitting_class() {
        let arena = SlotArena::new(16, 1 << 12);
        assert_eq!(arena.class_for(0), 0);
        assert_eq!(arena.class_for(16), 0);
        assert_eq!(arena.class_for(17), 1);
        assert_eq!(arena.class_for(32), 1);
        assert_eq!(arena.class_for(33), 2);
        // Clamped to the top class even for oversized asks.
        let top = arena.class_for(1 << 12);
        assert_eq!(arena.class_words(top), 1 << 12);
        assert_eq!(arena.class_for(usize::MAX >> 8), top);
    }

    #[test]
    fn min_words_rounds_up_to_a_power_of_two() {
        let arena = SlotArena::new(9, 100);
        assert_eq!(arena.class_words(0), 16);
        assert!(arena.class_words(arena.class_for(100)) >= 100);
    }

    #[test]
    fn alloc_free_reuses_slots_and_zeroes_them() {
        let mut arena = SlotArena::new(8, 64);
        let a = arena.alloc(0);
        let b = arena.alloc(0);
        assert_ne!(a.slot, b.slot);
        arena.slot_mut(a).fill(0xDEAD_BEEF);
        let bytes_before = arena.allocated_bytes();
        arena.free(a);
        let c = arena.alloc(0);
        // Freed slot is reused, and handed back zeroed.
        assert_eq!(c, a);
        assert!(arena.slot(c).iter().all(|&w| w == 0));
        // Reuse did not grow the slab.
        assert_eq!(arena.allocated_bytes(), bytes_before);
    }

    #[test]
    fn slots_are_isolated() {
        let mut arena = SlotArena::new(4, 16);
        let a = arena.alloc(0);
        let b = arena.alloc(0);
        let c = arena.alloc(1);
        arena.slot_mut(a).fill(1);
        arena.slot_mut(b).fill(2);
        arena.slot_mut(c).fill(3);
        assert!(arena.slot(a).iter().all(|&w| w == 1));
        assert!(arena.slot(b).iter().all(|&w| w == 2));
        assert!(arena.slot(c).iter().all(|&w| w == 3));
        assert_eq!(arena.slot(c).len(), 8);
    }

    #[test]
    fn allocated_bytes_tracks_slab_growth() {
        let mut arena = SlotArena::new(8, 8);
        assert_eq!(arena.allocated_bytes(), 0);
        let _ = arena.alloc(0);
        assert_eq!(arena.allocated_bytes(), 64);
        let h = arena.alloc(0);
        assert_eq!(arena.allocated_bytes(), 128);
        // Freeing keeps the slab (bytes are reusable, not returned).
        arena.free(h);
        assert_eq!(arena.allocated_bytes(), 128);
    }
}
