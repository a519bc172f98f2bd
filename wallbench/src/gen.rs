//! Seeded input generation.
//!
//! Everything a workload feeds the system is a pure function of the
//! `--seed` and the round index, so the same seed replays the same
//! inputs and a different seed draws different ones. Generation runs
//! before each round's clock starts and is never timed.

use gt_hash::mix64;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const MASK61: u64 = (1 << 61) - 1;

/// The sketch label universe is `[0, 2^61 − 1)`.
const P61: u64 = MASK61;

/// Map `id` to a label in `[0, 2^61 − 1)`, keyed by `key`.
///
/// For a fixed key this is a bijection on ids below `2^61 − 1` (odd
/// multiplies and right xorshifts are bijections on 61-bit words, and
/// cycle-walking skips the one out-of-universe value), so distinct ids give
/// distinct labels and every exact distinct count follows from the ids a
/// workload draws.
pub fn label(key: u64, id: u64) -> u64 {
    let mut x = (id ^ key) & MASK61;
    loop {
        x = x.wrapping_mul(0x1E37_79B9_7F4A_7C15) & MASK61;
        x ^= x >> 29;
        x = x.wrapping_mul(0x0F58_476D_1CE4_E5B9) & MASK61;
        x ^= x >> 32;
        if x != P61 {
            return x;
        }
    }
}

/// Independent 64-bit key for stream `tag` of round `round` under `seed`.
pub fn key(seed: u64, tag: u64, round: u64) -> u64 {
    mix64(seed ^ mix64(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix64(round)))
}

/// A generator for stream `tag` of round `round` under `seed`.
pub fn rng(seed: u64, tag: u64, round: u64) -> SmallRng {
    SmallRng::seed_from_u64(key(seed, tag, round))
}

/// Running digest of generated inputs (determinism checks only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// Fold one word into the digest.
    pub fn add(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x).rotate_left(17) ^ x;
    }

    /// Fold every word of a slice into the digest.
    pub fn add_all(&mut self, xs: &[u64]) {
        for &x in xs {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn labels_are_distinct_and_in_universe() {
        let k = key(7, 1, 0);
        let labels: HashSet<u64> = (0..200_000).map(|id| label(k, id)).collect();
        assert_eq!(labels.len(), 200_000);
        assert!(labels.iter().all(|&l| l < P61));
    }

    #[test]
    fn keys_separate_streams() {
        assert_ne!(key(1, 0, 0), key(2, 0, 0));
        assert_ne!(key(1, 0, 0), key(1, 1, 0));
        assert_ne!(key(1, 0, 0), key(1, 0, 1));
    }
}
