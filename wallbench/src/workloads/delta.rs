//! `monitor_delta` — the monitoring job of `monitor_fullship` through the
//! delta-frame plane: 32 `DeltaParty`s each observe 2000 Zipf(1.05)
//! labels per round and emit a frame; the referee applies every frame to
//! its live union, each party gets its ack, and the round ends with a
//! distinct count. Skewed labels change the sample little per round, so
//! frames are mostly deltas: this uses the codec and merge layers the
//! other way round from `monitor_fullship` (deltas, `apply_delta`, refresh
//! merges, re-encoding for fingerprints).

use gt_core::{MetricsSnapshot, SketchConfig};
use gt_streams::workload::ZipfSampler;
use gt_streams::{encode_sketch, DeltaParty, PartyMessage, Receipt, Referee};

use super::{master_seed, Ops, RoundFacts, Summary, Workload};
use crate::gen::{self, Digest};
use crate::trace::Recorder;

/// Streams: ids to labels, and the per-round Zipf draws.
const TAG_LABELS: u64 = 3;
const TAG_DRAWS: u64 = 4;
const PARTIES: usize = 32;
const THETA: f64 = 1.05;

/// Round inputs: party `p` draws Zipf ranks over its own universe of
/// `u` ids starting at `p·u/2`, so neighbouring universes overlap by half.
pub struct Inputs {
    seed: u64,
    key: u64,
    per_round: usize,
    universe: u64,
    zipf: ZipfSampler,
}

impl Inputs {
    /// Inputs for `seed`; `quick` rounds are a tenth as large.
    pub fn new(seed: u64, quick: bool) -> Self {
        let universe = if quick { 1 << 16 } else { 1 << 20 };
        Inputs {
            seed,
            key: gen::key(seed, TAG_LABELS, 0),
            per_round: if quick { 200 } else { 2000 },
            universe,
            zipf: ZipfSampler::new(universe, THETA),
        }
    }

    /// Ids any party can draw: `[0, ids())`.
    pub fn ids(&self) -> u64 {
        (PARTIES as u64 + 1) * self.universe / 2
    }

    /// Fill `labels` (one vector per party) with round `round`'s labels,
    /// marking every drawn id in `seen`.
    pub fn fill(&self, round: u64, labels: &mut [Vec<u64>], seen: &mut [u64]) {
        let mut rng = gen::rng(self.seed, TAG_DRAWS, round);
        for (p, out) in labels.iter_mut().enumerate() {
            let first = p as u64 * self.universe / 2;
            out.clear();
            for _ in 0..self.per_round {
                let id = first + self.zipf.sample(&mut rng);
                seen[(id / 64) as usize] |= 1 << (id % 64);
                out.push(gen::label(self.key, id));
            }
        }
    }

    /// Digest of the first `rounds` rounds.
    pub fn digest(&self, rounds: u64) -> u64 {
        let mut labels = vec![Vec::new(); PARTIES];
        let mut seen = vec![0u64; self.ids().div_ceil(64) as usize];
        let mut d = Digest::default();
        for round in 0..rounds {
            self.fill(round, &mut labels, &mut seen);
            labels.iter().for_each(|l| d.add_all(l));
        }
        d.0
    }
}

/// The `monitor_delta` workload.
pub struct MonitorDelta {
    inputs: Inputs,
    config: SketchConfig,
    parties: Vec<DeltaParty<()>>,
    referee: Referee,
    labels: Vec<Vec<u64>>,
    /// Bitmap of every id drawn so far: the exact distinct count.
    seen: Vec<u64>,
    frames: Vec<PartyMessage>,
    estimate: f64,
    decode_secs: f64,
    merge_secs: f64,
    ops: Ops,
}

impl MonitorDelta {
    /// Build 32 delta parties and a referee.
    pub fn new(seed: u64, quick: bool) -> Self {
        let config = SketchConfig::new(0.1, 0.05).expect("static config");
        let master = master_seed(seed);
        let inputs = Inputs::new(seed, quick);
        let seen = vec![0u64; inputs.ids().div_ceil(64) as usize];
        MonitorDelta {
            inputs,
            config,
            parties: (0..PARTIES)
                .map(|p| DeltaParty::new(p, &config, master))
                .collect(),
            referee: Referee::new(&config, master),
            labels: vec![Vec::new(); PARTIES],
            seen,
            frames: Vec::new(),
            estimate: 0.0,
            decode_secs: 0.0,
            merge_secs: 0.0,
            ops: Ops::default(),
        }
    }

    /// The live union must equal a fresh full-ship union of every party's
    /// current snapshot, bit for bit.
    fn check_live_union(&self) -> Result<(), String> {
        let master = self.referee.union_sketch().master_seed();
        let mut fresh = Referee::new(&self.config, master);
        for party in &self.parties {
            let msg = PartyMessage {
                party_id: party.id(),
                payload: encode_sketch(party.sketch()),
                items_observed: party.sketch().items_observed(),
            };
            fresh
                .receive(&msg)
                .map_err(|e| format!("monitor_delta: full ship of party {}: {e}", party.id()))?;
        }
        if encode_sketch(fresh.union_sketch()) != encode_sketch(self.referee.union_sketch()) {
            return Err("monitor_delta: live union differs from a fresh full-ship union".into());
        }
        Ok(())
    }
}

impl Workload for MonitorDelta {
    fn prepare(&mut self, round: u64) {
        self.inputs.fill(round, &mut self.labels, &mut self.seen);
    }

    fn round(&mut self, rec: &mut Recorder) -> u64 {
        for (party, labels) in self.parties.iter_mut().zip(&self.labels) {
            rec.call("sketch.ingest", || {
                for &label in labels {
                    party.observe_with(label, ());
                }
            });
        }
        self.frames.clear();
        for party in &mut self.parties {
            let frame = rec.call("party.emit_frame", || party.emit_frame());
            self.frames.push(frame);
        }
        for (party, frame) in self.parties.iter_mut().zip(&self.frames) {
            let receipt = rec.call("referee.receive_frame", || {
                self.referee.receive_frame(frame)
            });
            self.ops.record(matches!(receipt, Ok(Receipt::Merged)));
            if matches!(receipt, Ok(Receipt::NeedResync)) {
                party.handle_resync();
            }
            if let Some(generation) = self.referee.acked_generation(party.id()) {
                rec.call("party.handle_ack", || party.handle_ack(generation));
            }
        }
        let distinct = rec.query("referee.query_distinct", || {
            self.referee.estimate_distinct()
        });
        self.ops.record(true);
        self.estimate = distinct.value;
        self.labels.iter().map(|l| l.len() as u64).sum()
    }

    fn after_round(&mut self) -> Result<RoundFacts, String> {
        let t = self.referee.telemetry();
        let (decode, merge) = (t.decode_time.as_secs_f64(), t.merge_time.as_secs_f64());
        let facts = RoundFacts {
            bytes: self.frames.iter().map(|f| f.bytes() as u64).sum(),
            decode_secs: decode - self.decode_secs,
            merge_secs: merge - self.merge_secs,
        };
        (self.decode_secs, self.merge_secs) = (decode, merge);
        Ok(facts)
    }

    fn finish(&mut self) -> Result<Summary, String> {
        self.check_live_union()?;
        let mut m = MetricsSnapshot::default();
        let (mut delta_frames, mut frames, mut bytes) = (0, 0, 0);
        for party in &self.parties {
            m.absorb(&party.sketch().metrics_snapshot());
            let s = party.stats();
            delta_frames += s.delta_frames;
            frames += s.delta_frames + s.full_frames;
            bytes += s.total_bytes();
        }
        let sampled = m.inserts_sampled + m.inserts_sampled_after_promotion;
        let exact = self
            .seen
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum::<u64>() as f64;
        Ok(Summary {
            rel_error: (self.estimate - exact).abs() / exact,
            epsilon: self.config.epsilon(),
            layer: [
                (
                    "sketch.sampled_frac",
                    sampled as f64 / m.trial_inserts() as f64,
                ),
                ("sketch.level_promotions", m.level_promotions as f64),
                ("codec.bytes_out", bytes as f64),
                (
                    "party.delta_frame_frac",
                    delta_frames as f64 / frames as f64,
                ),
                (
                    "referee.resyncs",
                    self.referee.delta_telemetry().resyncs_requested as f64,
                ),
            ]
            .into(),
        })
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    fn calibration(&self) -> (SketchConfig, u64, Vec<u64>) {
        let labels = self.labels.concat();
        (
            self.config,
            self.referee.union_sketch().master_seed(),
            labels,
        )
    }

    fn input_bytes(&self) -> u64 {
        let labels: u64 = self.labels.iter().map(|l| 8 * l.capacity() as u64).sum();
        labels + 8 * self.seen.len() as u64
    }
}
