//! `oneshot_fanin` — the paper's model: 16 parties each ingest their own
//! stream in one pass and ship one message; one referee merges the
//! messages and answers queries about the union. Every round builds fresh
//! parties and a fresh referee. Ingest (hash + trial insert) is most of
//! the wall time, so this workload shows ingest and hash-kernel gains and
//! barely uses the referee, codec or query layers.

use gt_core::{merge_all, DistinctSketch, MetricsSnapshot, SetExpr, SketchConfig};
use gt_streams::{decode_sketch, encode_sketch, Party, PartyMessage, Receipt, Referee};

use super::{master_seed, Ops, RoundFacts, Summary, Workload};
use crate::gen::{self, Digest};
use crate::trace::{median, Recorder};

const TAG: u64 = 1;
const PARTIES: usize = 16;
/// Labels handed to `observe_stream` per call.
const CHUNK: usize = 4096;

/// Round inputs: party `p` takes ids `[p·h, p·h + 2h)`, `h` = half the
/// per-party length, so neighbouring parties overlap by 50%. Ids map to
/// labels under a fresh key every round.
pub struct Inputs {
    seed: u64,
    per_party: u64,
}

impl Inputs {
    /// Inputs for `seed`; `quick` streams are a tenth as long.
    pub fn new(seed: u64, quick: bool) -> Self {
        Inputs {
            seed,
            per_party: if quick { 25_000 } else { 250_000 },
        }
    }

    /// Fill `streams` (one per party) with round `round`'s labels.
    pub fn fill(&self, round: u64, streams: &mut [Vec<u64>]) {
        let key = gen::key(self.seed, TAG, round);
        let half = self.per_party / 2;
        for (p, stream) in streams.iter_mut().enumerate() {
            let first = p as u64 * half;
            stream.clear();
            stream.extend((first..first + self.per_party).map(|id| gen::label(key, id)));
        }
    }

    /// Exact distinct labels in one round's union.
    pub fn union_distinct(&self) -> u64 {
        (PARTIES as u64 + 1) * (self.per_party / 2)
    }

    /// Digest of the first `rounds` rounds.
    pub fn digest(&self, rounds: u64) -> u64 {
        let mut streams = vec![Vec::new(); PARTIES];
        let mut d = Digest::default();
        for round in 0..rounds {
            self.fill(round, &mut streams);
            streams.iter().for_each(|s| d.add_all(s));
        }
        d.0
    }
}

/// The `oneshot_fanin` workload.
pub struct OneshotFanin {
    inputs: Inputs,
    config: SketchConfig,
    master: u64,
    expr: SetExpr,
    streams: Vec<Vec<u64>>,
    /// The last round's messages and referee, checked after the round.
    messages: Vec<PartyMessage>,
    referee: Option<Referee>,
    estimate: f64,
    rel_errors: Vec<f64>,
    sketch_metrics: MetricsSnapshot,
    bytes_out: u64,
    ops: Ops,
}

impl OneshotFanin {
    /// Build the workload (no parties yet: every round makes its own).
    pub fn new(seed: u64, quick: bool) -> Self {
        OneshotFanin {
            inputs: Inputs::new(seed, quick),
            config: SketchConfig::new(0.05, 0.01).expect("static config"),
            master: master_seed(seed),
            expr: SetExpr::leaf(0).intersect(SetExpr::leaf(1)),
            streams: vec![Vec::new(); PARTIES],
            messages: Vec::new(),
            referee: None,
            estimate: 0.0,
            rel_errors: Vec::new(),
            sketch_metrics: MetricsSnapshot::default(),
            bytes_out: 0,
            ops: Ops::default(),
        }
    }
}

impl Workload for OneshotFanin {
    fn prepare(&mut self, round: u64) {
        self.inputs.fill(round, &mut self.streams);
    }

    fn round(&mut self, rec: &mut Recorder) -> u64 {
        let (config, master) = (self.config, self.master);
        let (mut parties, mut referee) = rec.call("sketch.new", || {
            let parties: Vec<Party> = (0..PARTIES)
                .map(|p| Party::new(p, &config, master))
                .collect();
            (parties, Referee::new(&config, master))
        });
        for (party, stream) in parties.iter_mut().zip(&self.streams) {
            for chunk in stream.chunks(CHUNK) {
                rec.call("sketch.ingest", || party.observe_stream(chunk));
            }
        }
        for party in &parties {
            self.sketch_metrics
                .absorb(&party.sketch().metrics_snapshot());
        }
        let messages: Vec<PartyMessage> = parties
            .into_iter()
            .map(|party| rec.call("codec.encode", || party.finish()))
            .collect();
        let receipts = rec.call("referee.receive", || referee.receive_batch(&messages));
        let distinct = rec.query("referee.query_distinct", || referee.estimate_distinct());
        let expr = rec.query("referee.query_expr", || referee.query(&self.expr));

        for receipt in &receipts {
            self.ops.record(matches!(receipt, Ok(Receipt::Merged)));
        }
        self.ops.record(true);
        self.ops.record(expr.is_ok());
        self.estimate = distinct.value;
        self.messages = messages;
        self.referee = Some(referee);
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    fn after_round(&mut self) -> Result<RoundFacts, String> {
        let referee = self.referee.take().expect("after_round follows round");
        let decoded = self
            .messages
            .iter()
            .map(|m| decode_sketch::<()>(m.payload.clone()))
            .collect::<Result<Vec<DistinctSketch>, _>>()
            .map_err(|e| format!("oneshot_fanin: shipped message does not decode: {e}"))?;
        let oracle = merge_all(&decoded).map_err(|e| format!("oneshot_fanin: merge_all: {e}"))?;
        if encode_sketch(&oracle) != encode_sketch(referee.union_sketch()) {
            return Err(
                "oneshot_fanin: referee union differs from merge_all of the decoded messages"
                    .into(),
            );
        }
        let exact = self.inputs.union_distinct() as f64;
        self.rel_errors.push((self.estimate - exact).abs() / exact);
        let bytes: u64 = self.messages.iter().map(|m| m.bytes() as u64).sum();
        self.bytes_out += bytes;
        let t = referee.telemetry();
        Ok(RoundFacts {
            bytes,
            decode_secs: t.decode_time.as_secs_f64(),
            merge_secs: t.merge_time.as_secs_f64(),
        })
    }

    fn finish(&mut self) -> Result<Summary, String> {
        let m = &self.sketch_metrics;
        let sampled = m.inserts_sampled + m.inserts_sampled_after_promotion;
        Ok(Summary {
            rel_error: median(&self.rel_errors),
            epsilon: self.config.epsilon(),
            layer: [
                (
                    "sketch.sampled_frac",
                    sampled as f64 / m.trial_inserts() as f64,
                ),
                ("sketch.level_promotions", m.level_promotions as f64),
                ("codec.bytes_out", self.bytes_out as f64),
            ]
            .into(),
        })
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    fn calibration(&self) -> (SketchConfig, u64, Vec<u64>) {
        (self.config, self.master, self.streams[0].clone())
    }

    fn input_bytes(&self) -> u64 {
        self.streams.iter().map(|s| 8 * s.capacity() as u64).sum()
    }
}
