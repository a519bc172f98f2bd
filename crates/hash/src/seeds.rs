//! Seed material and a deterministic seed RNG.
//!
//! Coordinated sampling only works if every party builds *bit-identical*
//! hash functions. Relying on an external RNG implementation for that would
//! tie the on-the-wire compatibility of sketches to a third-party crate's
//! stream stability, so seed expansion is implemented here from scratch:
//! [`SeedRng`] is a SplitMix64 generator with rejection-sampled bounded
//! draws, and [`SeedSequence`] derives independent per-trial seeds from one
//! user-supplied master seed. The `rand` crate is used elsewhere only for
//! *workload* synthesis, never for sketch-defining randomness.

use crate::mix::mix64;

/// Deterministic seed-expansion RNG (SplitMix64).
///
/// Not a general-purpose RNG: it exists to expand master seeds into hash
/// coefficients identically on every party, forever. The output stream for
/// a given seed is part of this crate's compatibility contract.
#[derive(Clone, Debug)]
pub struct SeedRng {
    state: u64,
}

impl SeedRng {
    /// Create a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        SeedRng { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state.wrapping_sub(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform draw in `[0, bound)` by rejection sampling (exact, no modulo
    /// bias — hash coefficients must be uniform for the 2-universality
    /// proof to apply).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Largest multiple of `bound` that fits in u64.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let raw = self.next_u64();
            if raw < zone {
                return raw % bound;
            }
        }
    }
}

/// A per-family seed: everything needed to reconstruct one hash function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct FamilySeed(pub u64);

/// Derives independent [`FamilySeed`]s for each trial of a multi-trial
/// sketch from a single master seed.
///
/// Two `SeedSequence`s built from the same master seed yield the same
/// per-trial seeds in the same order — this is what lets physically
/// separated parties coordinate by exchanging just one `u64` up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Create a sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Seed for trial `t` (stable under changes to the trial count, so a
    /// sketch with 5 trials shares its first 5 hash functions with one built
    /// from the same master seed and 9 trials — which is what makes their
    /// common prefix mergeable).
    pub fn trial_seed(&self, t: usize) -> FamilySeed {
        // Domain-separate trials with a distinct stream per index.
        FamilySeed(mix64(self.master ^ mix64(0xC0DE_0000_0000_0000 ^ t as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_rng_is_deterministic() {
        let mut a = SeedRng::from_seed(99);
        let mut b = SeedRng::from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range_and_exhaustive_for_small_bounds() {
        let mut rng = SeedRng::from_seed(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SeedRng::from_seed(0).below(0);
    }

    #[test]
    fn below_unbiased_for_awkward_bound() {
        // bound just above u64::MAX/2 maximizes rejection; check mean.
        let bound = (u64::MAX / 2) + 3;
        let mut rng = SeedRng::from_seed(5);
        let mut acc = 0f64;
        let n = 4000;
        for _ in 0..n {
            acc += rng.below(bound) as f64 / bound as f64;
        }
        let mean = acc / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let s = SeedSequence::new(0xABCD);
        let seeds: Vec<_> = (0..64).map(|t| s.trial_seed(t)).collect();
        let uniq: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(uniq.len(), seeds.len());
        // Stability: same master, same seeds.
        let s2 = SeedSequence::new(0xABCD);
        assert_eq!(s2.trial_seed(17), seeds[17]);
    }

    #[test]
    fn different_masters_diverge() {
        let a = SeedSequence::new(1);
        let b = SeedSequence::new(2);
        assert_ne!(a.trial_seed(0), b.trial_seed(0));
    }
}
