//! Sketch compaction: shrinking a sketch's shape after the fact, and
//! harmonizing heterogeneously configured parties so they can union.
//!
//! In a real deployment not every observer runs the same budget: an edge
//! device might afford `capacity 256 × 5 trials` while a datacenter
//! collector runs `4800 × 29`. Coordinated sampling makes *downward*
//! conversion lossless-in-distribution:
//!
//! * **Fewer trials** — trial seeds depend only on `(master seed, trial
//!   index)` (see `gt_hash::SeedSequence`), so the first `r'` trials of a
//!   big sketch *are* the `r'` trials of a small one. Dropping the rest
//!   is exact.
//! * **Smaller capacity** — promoting a trial's level until its sample
//!   fits reproduces exactly the state a smaller-capacity party would
//!   have reached on the same label set
//!   ([`CoordinatedTrial::shrunk_to_capacity`]).
//!
//! The inverse direction is impossible (discarded labels are gone), which
//! is why [`harmonize`] always converges on the *weakest* shape — the
//! same rule Theta-sketch unions use for mismatched `k`.
//!
//! [`CoordinatedTrial::shrunk_to_capacity`]: crate::trial::CoordinatedTrial::shrunk_to_capacity

use std::borrow::Cow;

use crate::error::{Result, SketchError};
use crate::params::SketchConfig;
use crate::sketch::GtSketch;
use crate::trial::{CoordinatedTrial, Payload};

impl<V: Payload> GtSketch<V> {
    /// A copy of this sketch with only its first `trials` trials.
    ///
    /// The result is exactly the sketch a party configured with `trials`
    /// trials (and the same everything else) would hold, so it merges
    /// with such parties. The nominal `δ` of the result is the *stated*
    /// `δ` of the original — re-derive your failure probability if you
    /// shrink aggressively.
    ///
    /// # Errors
    /// Rejects `trials` of 0 or more than the current count.
    pub fn with_trials(&self, trials: usize) -> Result<GtSketch<V>> {
        if trials == 0 || trials > self.config().trials() {
            return Err(SketchError::InvalidConfig {
                parameter: "trials",
                reason: format!(
                    "shrink target {trials} must be in [1, {}]",
                    self.config().trials()
                ),
            });
        }
        let cfg = SketchConfig::from_shape(
            self.config().epsilon(),
            self.config().delta(),
            self.config().capacity(),
            trials,
            self.config().hash_kind(),
        )?;
        rebuilt(
            &cfg,
            self.master_seed(),
            self.trials().iter().take(trials).map(Cow::Borrowed),
        )
    }

    /// A copy of this sketch shrunk to a smaller per-trial capacity, by
    /// promoting levels until every trial fits.
    ///
    /// Exactly reproduces the state of a party that ran with
    /// `capacity` from the start (see module docs), so the result merges
    /// with such parties. The effective `ε` weakens to roughly
    /// `ε·√(old/new)`.
    ///
    /// # Errors
    /// Rejects capacities of 0 or more than the current capacity.
    pub fn with_capacity(&self, capacity: usize) -> Result<GtSketch<V>> {
        if capacity < 2 || capacity > self.config().capacity() {
            return Err(SketchError::InvalidConfig {
                parameter: "capacity",
                reason: format!(
                    "shrink target {capacity} must be in [2, {}]",
                    self.config().capacity()
                ),
            });
        }
        let cfg = SketchConfig::from_shape(
            self.config().epsilon(),
            self.config().delta(),
            capacity,
            self.config().trials(),
            self.config().hash_kind(),
        )?;
        rebuilt(
            &cfg,
            self.master_seed(),
            self.trials()
                .iter()
                .map(|t| Cow::Owned(t.shrunk_to_capacity(capacity))),
        )
    }
}

/// A sketch of shape `cfg` whose trial `i` holds the state of the `i`-th
/// of `trials`, built the way the wire codec builds one:
/// [`GtSketch::new`], then [`GtSketch::reload_trial`] per trial.
fn rebuilt<'a, V: Payload + 'a>(
    cfg: &SketchConfig,
    master_seed: u64,
    trials: impl Iterator<Item = Cow<'a, CoordinatedTrial<V>>>,
) -> Result<GtSketch<V>> {
    let mut out = GtSketch::new(cfg, master_seed);
    for (i, t) in trials.enumerate() {
        out.reload_trial(i, t.level(), t.items_observed(), t.sample_iter())?;
    }
    Ok(out)
}

/// Convert two heterogeneously shaped sketches to their common (weakest)
/// shape — `min` capacity and `min` trials — so they can be unioned.
///
/// ```
/// use gt_core::{compact::harmonize, DistinctSketch, SketchConfig};
/// use gt_hash::HashFamilyKind;
/// let edge_cfg = SketchConfig::from_shape(0.2, 0.1, 64, 3, HashFamilyKind::Pairwise).unwrap();
/// let dc_cfg = SketchConfig::from_shape(0.05, 0.01, 4096, 9, HashFamilyKind::Pairwise).unwrap();
/// let mut edge = DistinctSketch::new(&edge_cfg, 7);
/// let mut dc = DistinctSketch::new(&dc_cfg, 7);
/// edge.extend_labels(0..40);
/// dc.extend_labels(20..60);
/// assert!(edge.merged(&dc).is_err()); // shapes differ
/// let (e, d) = harmonize(&edge, &dc).unwrap();
/// assert_eq!(e.merged(&d).unwrap().estimate_distinct().value, 60.0);
/// ```
///
/// Requires the same master seed and hash family; `(ε, δ)` of the outputs
/// are taken from the weaker input dimension-wise (larger ε, larger δ),
/// mirroring that accuracy is bounded by the weakest party.
///
/// # Errors
/// [`SketchError::SeedMismatch`] on different seeds,
/// [`SketchError::ConfigMismatch`] on different hash families.
pub fn harmonize<V: Payload>(
    a: &GtSketch<V>,
    b: &GtSketch<V>,
) -> Result<(GtSketch<V>, GtSketch<V>)> {
    if a.master_seed() != b.master_seed() {
        return Err(SketchError::SeedMismatch);
    }
    if a.config().hash_kind() != b.config().hash_kind() {
        return Err(SketchError::ConfigMismatch {
            detail: format!(
                "hash families {:?} vs {:?}",
                a.config().hash_kind(),
                b.config().hash_kind()
            ),
        });
    }
    let capacity = a.config().capacity().min(b.config().capacity());
    let trials = a.config().trials().min(b.config().trials());
    let epsilon = a.config().epsilon().max(b.config().epsilon());
    let delta = a.config().delta().max(b.config().delta());
    let target =
        SketchConfig::from_shape(epsilon, delta, capacity, trials, a.config().hash_kind())?;

    let to_shape = |s: &GtSketch<V>| -> Result<GtSketch<V>> {
        let shaped = s.trials().iter().take(trials).map(|t| {
            if t.capacity() > capacity {
                Cow::Owned(t.shrunk_to_capacity(capacity))
            } else {
                Cow::Borrowed(t)
            }
        });
        rebuilt(&target, s.master_seed(), shaped)
    };
    Ok((to_shape(a)?, to_shape(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::DistinctSketch;
    use gt_hash::HashFamilyKind;

    fn labels(n: u64, salt: u64) -> Vec<u64> {
        (0..n).map(|i| gt_hash::fold61(i ^ (salt << 33))).collect()
    }

    fn cfg(capacity: usize, trials: usize) -> SketchConfig {
        SketchConfig::from_shape(0.1, 0.1, capacity, trials, HashFamilyKind::Pairwise).unwrap()
    }

    fn state(s: &DistinctSketch) -> Vec<(u8, Vec<u64>)> {
        s.trials()
            .iter()
            .map(|t| {
                let mut v: Vec<u64> = t.sample_iter().map(|(k, _)| k).collect();
                v.sort_unstable();
                (t.level(), v)
            })
            .collect()
    }

    #[test]
    fn shrunk_capacity_equals_native_small_build() {
        let data = labels(20_000, 1);
        let mut big = DistinctSketch::new(&cfg(1024, 7), 5);
        let mut small = DistinctSketch::new(&cfg(128, 7), 5);
        big.extend_labels(data.iter().copied());
        small.extend_labels(data.iter().copied());
        let shrunk = big.with_capacity(128).unwrap();
        assert_eq!(state(&shrunk), state(&small));
        assert_eq!(shrunk.config(), small.config());
    }

    #[test]
    fn shrunk_trials_equals_native_small_build() {
        let data = labels(10_000, 2);
        let mut big = DistinctSketch::new(&cfg(256, 9), 6);
        let mut small = DistinctSketch::new(&cfg(256, 3), 6);
        big.extend_labels(data.iter().copied());
        small.extend_labels(data.iter().copied());
        let shrunk = big.with_trials(3).unwrap();
        assert_eq!(state(&shrunk), state(&small));
    }

    #[test]
    fn shrunk_sketch_merges_with_native_parties() {
        let config_small = cfg(128, 5);
        let mut big = DistinctSketch::new(&cfg(1024, 5), 7);
        big.extend_labels(labels(8_000, 3).iter().copied());
        let mut native = DistinctSketch::new(&config_small, 7);
        native.extend_labels(labels(8_000, 4).iter().copied());
        let shrunk = big.with_capacity(128).unwrap();
        let union = shrunk.merged(&native).unwrap();
        let est = union.estimate_distinct().value;
        let rel = (est - 16_000.0).abs() / 16_000.0;
        assert!(rel < 0.4, "est {est}"); // capacity 128: coarse but sane
    }

    #[test]
    fn harmonize_heterogeneous_parties() {
        let data_a = labels(12_000, 5);
        let data_b = labels(12_000, 6);
        let mut edge = DistinctSketch::new(
            &SketchConfig::from_shape(0.2, 0.2, 256, 5, HashFamilyKind::Pairwise).unwrap(),
            8,
        );
        let mut dc = DistinctSketch::new(
            &SketchConfig::from_shape(0.05, 0.05, 4800, 29, HashFamilyKind::Pairwise).unwrap(),
            8,
        );
        edge.extend_labels(data_a.iter().copied());
        dc.extend_labels(data_b.iter().copied());
        assert!(edge.merged(&dc).is_err(), "raw shapes must not merge");

        let (e2, d2) = harmonize(&edge, &dc).unwrap();
        assert_eq!(e2.config(), d2.config());
        assert_eq!(e2.config().capacity(), 256);
        assert_eq!(e2.config().trials(), 5);
        assert_eq!(e2.config().epsilon(), 0.2);
        let union = e2.merged(&d2).unwrap();
        let est = union.estimate_distinct().value;
        let rel = (est - 24_000.0).abs() / 24_000.0;
        assert!(rel < 0.3, "est {est}");
    }

    #[test]
    fn harmonize_rejects_uncoordinated_inputs() {
        let a = DistinctSketch::new(&cfg(64, 3), 1);
        let b = DistinctSketch::new(&cfg(64, 3), 2);
        assert_eq!(harmonize(&a, &b).unwrap_err(), SketchError::SeedMismatch);
        let c = DistinctSketch::new(&cfg(64, 3).with_hash_kind(HashFamilyKind::Tabulation), 1);
        assert!(matches!(
            harmonize(&a, &c).unwrap_err(),
            SketchError::ConfigMismatch { .. }
        ));
    }

    #[test]
    fn shrink_rejects_growth_and_zero() {
        let mut s = DistinctSketch::new(&cfg(64, 3), 1);
        s.extend_labels(labels(100, 7).iter().copied());
        assert!(s.with_capacity(128).is_err());
        assert!(s.with_capacity(1).is_err());
        assert!(s.with_trials(4).is_err());
        assert!(s.with_trials(0).is_err());
    }

    #[test]
    fn shrink_preserves_items_observed() {
        let mut s = DistinctSketch::new(&cfg(64, 3), 1);
        s.extend_labels(labels(500, 8).iter().copied());
        assert_eq!(s.with_capacity(16).unwrap().items_observed(), 500);
        assert_eq!(s.with_trials(1).unwrap().items_observed(), 500);
    }

    #[test]
    fn idempotent_shrink() {
        let mut s = DistinctSketch::new(&cfg(64, 3), 9);
        s.extend_labels(labels(5_000, 9).iter().copied());
        let once = s.with_capacity(32).unwrap();
        let twice = once.with_capacity(32).unwrap();
        assert_eq!(state(&once), state(&twice));
    }
}
