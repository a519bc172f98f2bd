//! `store_zipf` — the keyed store: a coverage sweep creates every key
//! (set-up; it already overflows the byte budget, so cold keys spill),
//! then each timed step ingests 4096 items whose keys follow Zipf(1.1)
//! and asks 16 Zipf-drawn point queries, so writes and reads interleave.
//! Only gt-store works here (arena, hot tier, eviction, spill, restore);
//! there is no wire codec or referee, so it is the control case for the
//! other three workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gt_core::{DistinctSketch, SketchConfig};
use gt_hash::HashFamilyKind;
use gt_store::{DistinctStore, StoreMetricsSnapshot, StoreOptions};
use gt_streams::encode_sketch;
use gt_streams::workload::ZipfSampler;
use rand::Rng;

use super::{master_seed, Ops, RoundFacts, Summary, Workload};
use crate::gen::{self, Digest};
use crate::trace::Recorder;

/// Streams: ids to labels, per-step Zipf draws, and the checked keys.
const TAG_LABELS: u64 = 5;
const TAG_DRAWS: u64 = 6;
const TAG_CHECK: u64 = 7;
const THETA: f64 = 1.1;
const QUERIES_PER_STEP: usize = 16;
/// Keys whose canonical bytes are checked against a standalone sketch:
/// half drawn by popularity (hot, resident), half uniformly (mostly cold
/// and spilled).
const CHECKED_KEYS: usize = 64;

/// Step inputs. Every label is globally distinct (item `i` of step `r`
/// is id `keys + r·step + i`; the sweep uses ids `0..keys`), so a key's
/// exact distinct count is its item count.
pub struct Inputs {
    seed: u64,
    key: u64,
    keys: u64,
    step: u64,
    zipf: ZipfSampler,
}

impl Inputs {
    /// Inputs for `seed`; `quick` has a tenth of the keys and steps.
    pub fn new(seed: u64, quick: bool) -> Self {
        let keys = if quick { 40_000 } else { 400_000 };
        Inputs {
            seed,
            key: gen::key(seed, TAG_LABELS, 0),
            keys,
            step: if quick { 1024 } else { 4096 },
            zipf: ZipfSampler::new(keys, THETA),
        }
    }

    /// Spread popularity ranks over the key space so hot keys land on
    /// every shard.
    fn key_of(&self, rank: u64) -> u64 {
        rank.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.keys
    }

    /// The coverage sweep: one item for every key.
    pub fn sweep(&self) -> Vec<(u64, u64)> {
        (0..self.keys)
            .map(|k| (k, gen::label(self.key, k)))
            .collect()
    }

    /// Fill step `round`'s items and query keys.
    pub fn fill(&self, round: u64, items: &mut Vec<(u64, u64)>, queries: &mut Vec<u64>) {
        let mut rng = gen::rng(self.seed, TAG_DRAWS, round);
        let first = self.keys + round * self.step;
        items.clear();
        for id in first..first + self.step {
            let key = self.key_of(self.zipf.sample(&mut rng));
            items.push((key, gen::label(self.key, id)));
        }
        queries.clear();
        queries.extend((0..QUERIES_PER_STEP).map(|_| self.key_of(self.zipf.sample(&mut rng))));
    }

    /// The keys whose state is checked.
    fn checked_keys(&self) -> Vec<u64> {
        let mut rng = gen::rng(self.seed, TAG_CHECK, 0);
        let mut keys: Vec<u64> = (0..CHECKED_KEYS)
            .map(|i| {
                if i % 2 == 0 {
                    self.key_of(self.zipf.sample(&mut rng))
                } else {
                    rng.gen_range(0..self.keys)
                }
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Digest of the sweep and the first `rounds` steps.
    pub fn digest(&self, rounds: u64) -> u64 {
        let mut d = Digest::default();
        for (k, l) in self.sweep() {
            d.add(k);
            d.add(l);
        }
        let (mut items, mut queries) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            self.fill(round, &mut items, &mut queries);
            for &(k, l) in &items {
                d.add(k);
                d.add(l);
            }
            d.add_all(&queries);
        }
        d.0
    }
}

/// The `store_zipf` workload.
pub struct StoreZipf {
    inputs: Inputs,
    config: SketchConfig,
    master: u64,
    /// `Option` only so `Drop` can close the store before removing its
    /// spill directory.
    store: Option<DistinctStore>,
    spill_dir: PathBuf,
    items: Vec<(u64, u64)>,
    queries: Vec<u64>,
    /// For each checked key: a standalone sketch fed the key's labels in
    /// arrival order, and how many labels that was (the exact distinct
    /// count, since labels are globally distinct).
    tracked: BTreeMap<u64, (DistinctSketch, u64)>,
    snapshot: StoreMetricsSnapshot,
    ops: Ops,
}

impl StoreZipf {
    /// Build the store and run the coverage sweep. Returns the workload
    /// and the set-up seconds (store construction plus the sweep's
    /// ingest; generating the sweep is not timed).
    pub fn new(seed: u64, quick: bool, spill_dir: &Path) -> Result<(Self, f64), String> {
        let inputs = Inputs::new(seed, quick);
        let config = SketchConfig::from_shape(0.3, 0.3, 16, 5, HashFamilyKind::Pairwise)
            .expect("static shape");
        let master = master_seed(seed);
        // Below the all-resident footprint, so the sweep must evict.
        let budget = if quick { 12 << 18 } else { 24 << 20 };
        let sweep = inputs.sweep();
        let mut tracked = inputs
            .checked_keys()
            .into_iter()
            .map(|k| (k, (DistinctSketch::new(&config, master), 0)))
            .collect();
        track(&mut tracked, &sweep);

        let start = Instant::now();
        let options = StoreOptions::default()
            .with_byte_budget(budget)
            .with_spill_dir(spill_dir);
        let store = DistinctStore::new(&config, master, options)
            .map_err(|e| format!("store_zipf: store construction: {e}"))?;
        for chunk in sweep.chunks(inputs.step as usize) {
            store
                .extend(chunk)
                .map_err(|e| format!("store_zipf: coverage sweep: {e}"))?;
        }
        let secs = start.elapsed().as_secs_f64();

        let snapshot = store.metrics_snapshot();
        let w = StoreZipf {
            inputs,
            config,
            master,
            store: Some(store),
            spill_dir: spill_dir.to_path_buf(),
            items: Vec::new(),
            queries: Vec::new(),
            tracked,
            snapshot,
            ops: Ops::default(),
        };
        Ok((w, secs))
    }

    fn store(&self) -> &DistinctStore {
        self.store.as_ref().expect("store lives until drop")
    }

    /// Each checked key's canonical bytes must equal a standalone sketch
    /// fed that key's labels. Returns the mean relative error of the
    /// store's point estimates over those keys.
    fn check_keys(&self) -> Result<f64, String> {
        let mut rel_error = 0.0;
        for (&key, (oracle, labels)) in &self.tracked {
            let bytes = self
                .store()
                .canonical_bytes(key)
                .map_err(|e| format!("store_zipf: canonical_bytes({key}): {e}"))?;
            if bytes != Some(encode_sketch(oracle)) {
                return Err(format!(
                    "store_zipf: key {key} differs from a standalone sketch of its {labels} labels"
                ));
            }
            let estimate = self
                .store()
                .estimate(key)
                .map_err(|e| format!("store_zipf: estimate({key}): {e}"))?
                .ok_or_else(|| format!("store_zipf: key {key} unknown to the store"))?;
            let exact = *labels as f64;
            rel_error += (estimate.value - exact).abs() / exact;
        }
        Ok(rel_error / self.tracked.len() as f64)
    }
}

/// Feed the checked keys' items to their standalone sketches.
fn track(tracked: &mut BTreeMap<u64, (DistinctSketch, u64)>, items: &[(u64, u64)]) {
    for &(key, label) in items {
        if let Some((oracle, labels)) = tracked.get_mut(&key) {
            oracle.insert(label);
            *labels += 1;
        }
    }
}

impl Workload for StoreZipf {
    fn prepare(&mut self, round: u64) {
        self.inputs.fill(round, &mut self.items, &mut self.queries);
        track(&mut self.tracked, &self.items);
    }

    fn round(&mut self, rec: &mut Recorder) -> u64 {
        let store = self.store.as_ref().expect("store lives until drop");
        let extended = rec.call("store.extend", || store.extend(&self.items));
        self.ops.record(extended.is_ok());
        for &key in &self.queries {
            let estimate = rec.query("store.estimate", || store.estimate(key));
            self.ops.record(matches!(estimate, Ok(Some(_))));
        }
        self.items.len() as u64
    }

    fn after_round(&mut self) -> Result<RoundFacts, String> {
        let snap = self.store().metrics_snapshot();
        let moved = |s: &StoreMetricsSnapshot| s.spilled_bytes + s.restored_bytes;
        let bytes = moved(&snap) - moved(&self.snapshot);
        self.snapshot = snap;
        Ok(RoundFacts {
            bytes,
            ..RoundFacts::default()
        })
    }

    fn finish(&mut self) -> Result<Summary, String> {
        let s = self.store().metrics_snapshot();
        let rel_error = self.check_keys()?;
        Ok(Summary {
            rel_error,
            epsilon: self.config.epsilon(),
            layer: [
                ("store.evictions", s.evictions as f64),
                ("store.restores", s.restores as f64),
                ("store.spilled_bytes", s.spilled_bytes as f64),
                ("store.restored_bytes", s.restored_bytes as f64),
                ("store.compactions", s.compactions as f64),
                (
                    "store.resident_frac",
                    s.resident_keys as f64 / s.keys as f64,
                ),
                (
                    "store.front_hit_frac",
                    s.front_hits as f64 / s.queries as f64,
                ),
            ]
            .into(),
        })
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    fn calibration(&self) -> (SketchConfig, u64, Vec<u64>) {
        let labels = self.items.iter().map(|&(_, l)| l).collect();
        (self.config, self.master, labels)
    }

    fn input_bytes(&self) -> u64 {
        let tracked: usize = self.tracked.values().map(|(s, _)| s.heap_bytes()).sum();
        (16 * self.items.capacity() + 8 * self.queries.capacity() + tracked) as u64
    }
}

impl Drop for StoreZipf {
    fn drop(&mut self) {
        drop(self.store.take());
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}
