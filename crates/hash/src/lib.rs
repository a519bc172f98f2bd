//! # gt-hash — hashing substrate for coordinated sampling
//!
//! The Gibbons–Tirthapura sketch requires a hash family with *provable*
//! pairwise independence: the analysis of the level assignment (an item is
//! sampled at level `l` with probability `2^-l`) and of the variance of the
//! resulting estimator both rely on `Pr[h(x)=u ∧ h(y)=v] = 1/R²` for any two
//! distinct labels `x ≠ y`. This crate provides:
//!
//! * [`field61`] — fast arithmetic over the Mersenne prime `p = 2^61 − 1`,
//!   the standard field for pairwise-independent hashing of 64-bit labels.
//! * [`pairwise`] — the affine family `h(x) = (a·x + b) mod p` (strongly
//!   2-universal) and the degree-`k` polynomial family (k-wise independent).
//! * [`multiply_shift`] — Dietzfelbinger's multiply–shift family: 2-universal
//!   (not pairwise uniform) but ~3× faster; included for the E11 ablation.
//! * [`tabulation`] — simple tabulation hashing (3-independent, and known to
//!   behave like full randomness for many sketching applications).
//! * [`lanes`] — lane-oriented (SIMD-shaped) kernels behind every bulk
//!   `eval_into` path: portable fixed-width blocks with a compile-time
//!   AVX2 widening, no `unsafe`, scalar fallbacks always compiled and
//!   proven bitwise-identical.
//! * [`level`] — the geometric level map `lvl(x) = trailing_zeros(h(x))`
//!   that drives coordinated sampling, behind the [`LevelHasher`] trait and
//!   the devirtualized [`HashFamily`] enum used on hot paths.
//! * [`sabotage`] — deliberately broken hashes used by the ablation
//!   experiment (E11) to demonstrate *why* pairwise independence matters.
//! * [`quality`] — statistical test harness (collision rate, bit bias,
//!   level-distribution calibration, chi-square) shared by unit tests and
//!   the ablation experiment.
//! * [`seeds`] — serializable seed material so that independent parties can
//!   construct *identical* hash functions, the heart of coordination.
//! * [`mix`] — a fixed 64-bit finalizer for folding arbitrary labels into
//!   the `[0, 2^61 − 1)` universe.
//! * [`crc32c`](mod@crc32c) — a table-driven CRC32C for checksummed bytes that leave
//!   the process and come back (spill records).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32c;
pub mod field61;
pub mod lanes;
pub mod level;
pub mod mix;
pub mod multiply_shift;
pub mod pairwise;
pub mod quality;
pub mod sabotage;
pub mod seeds;
pub mod tabulation;

pub use crc32c::{crc32c, crc32c_append};
pub use field61::{Field61, P61};
pub use lanes::LANES;
pub use level::{
    level_of_hash, survival_mask, survival_screen, HashFamily, HashFamilyKind, LevelHasher,
    MAX_LEVEL,
};
pub use mix::{fold61, mix64};
pub use multiply_shift::MultiplyShift;
pub use pairwise::{Pairwise61, Polynomial61};
pub use sabotage::Sabotaged;
pub use seeds::{FamilySeed, SeedRng, SeedSequence};
pub use tabulation::Tabulation;
