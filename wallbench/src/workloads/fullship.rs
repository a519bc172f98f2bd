//! `monitor_fullship` — continuous monitoring by cumulative full
//! re-ship: 32 parties each ingest 2000 new labels per round and ship
//! their whole sketch; the referee merges the batch and answers a
//! distinct count, a depth-2 expression and a Jaccard query every round.
//! Referee decode + merge and encoding dominate, so this is the
//! codec/merge/referee workload.

use gt_core::{DistinctSketch, MetricsSnapshot, SetExpr, SketchConfig};
use gt_streams::{decode_sketch, encode_sketch, Party, PartyMessage, Receipt, Referee};

use super::{master_seed, Ops, RoundFacts, Summary, Workload};
use crate::gen::{self, Digest};
use crate::trace::Recorder;

const TAG: u64 = 2;
const PARTIES: usize = 32;

/// Round inputs: round `r` owns a fresh block of `(PARTIES + 1)·h` ids,
/// `h` = half the per-round length, and party `p` takes
/// `[block + p·h, block + p·h + 2h)` — all new to the party, half shared
/// with each neighbour.
pub struct Inputs {
    key: u64,
    per_round: u64,
}

impl Inputs {
    /// Inputs for `seed`; `quick` rounds are a tenth as large.
    pub fn new(seed: u64, quick: bool) -> Self {
        Inputs {
            key: gen::key(seed, TAG, 0),
            per_round: if quick { 200 } else { 2000 },
        }
    }

    fn block(&self) -> u64 {
        (PARTIES as u64 + 1) * (self.per_round / 2)
    }

    /// Fill `labels` (one vector per party) with round `round`'s labels.
    pub fn fill(&self, round: u64, labels: &mut [Vec<u64>]) {
        let half = self.per_round / 2;
        for (p, out) in labels.iter_mut().enumerate() {
            let first = round * self.block() + p as u64 * half;
            out.clear();
            out.extend((first..first + self.per_round).map(|id| gen::label(self.key, id)));
        }
    }

    /// Exact distinct labels in the union of rounds `0..rounds`.
    pub fn union_distinct(&self, rounds: u64) -> u64 {
        rounds * self.block()
    }

    /// Digest of the first `rounds` rounds.
    pub fn digest(&self, rounds: u64) -> u64 {
        let mut labels = vec![Vec::new(); PARTIES];
        let mut d = Digest::default();
        for round in 0..rounds {
            self.fill(round, &mut labels);
            labels.iter().for_each(|l| d.add_all(l));
        }
        d.0
    }
}

/// The `monitor_fullship` workload.
pub struct MonitorFullship {
    inputs: Inputs,
    config: SketchConfig,
    parties: Vec<Party>,
    referee: Referee,
    /// Left fold of every decoded message ever shipped: what the referee's
    /// union must equal bit for bit.
    oracle: DistinctSketch,
    expr: SetExpr,
    jaccard: (SetExpr, SetExpr),
    labels: Vec<Vec<u64>>,
    round: u64,
    messages: Vec<PartyMessage>,
    estimate: f64,
    decode_secs: f64,
    merge_secs: f64,
    bytes_out: u64,
    ops: Ops,
}

impl MonitorFullship {
    /// Build 32 parties and a referee.
    pub fn new(seed: u64, quick: bool) -> Self {
        let config = SketchConfig::new(0.1, 0.05).expect("static config");
        let master = master_seed(seed);
        MonitorFullship {
            inputs: Inputs::new(seed, quick),
            config,
            parties: (0..PARTIES)
                .map(|p| Party::new(p, &config, master))
                .collect(),
            referee: Referee::new(&config, master),
            oracle: DistinctSketch::new(&config, master),
            expr: SetExpr::leaf(0).intersect(SetExpr::leaf(1)),
            jaccard: (SetExpr::leaf(1), SetExpr::leaf(2)),
            labels: vec![Vec::new(); PARTIES],
            round: 0,
            messages: Vec::new(),
            estimate: 0.0,
            decode_secs: 0.0,
            merge_secs: 0.0,
            bytes_out: 0,
            ops: Ops::default(),
        }
    }
}

impl Workload for MonitorFullship {
    fn prepare(&mut self, round: u64) {
        self.round = round;
        self.inputs.fill(round, &mut self.labels);
    }

    fn round(&mut self, rec: &mut Recorder) -> u64 {
        for (party, labels) in self.parties.iter_mut().zip(&self.labels) {
            rec.call("sketch.ingest", || party.observe_stream(labels));
        }
        let messages: Vec<PartyMessage> = self
            .parties
            .iter()
            .map(|party| {
                rec.call("codec.encode", || PartyMessage {
                    party_id: party.id(),
                    payload: encode_sketch(party.sketch()),
                    items_observed: party.sketch().items_observed(),
                })
            })
            .collect();
        let receipts = rec.call("referee.receive", || self.referee.receive_batch(&messages));
        let distinct = rec.query("referee.query_distinct", || {
            self.referee.estimate_distinct_partial(PARTIES)
        });
        let expr = rec.query("referee.query_expr", || self.referee.query(&self.expr));
        let (a, b) = &self.jaccard;
        let jaccard = rec.query("referee.query_jaccard", || self.referee.query_jaccard(a, b));

        for receipt in &receipts {
            self.ops.record(matches!(
                receipt,
                Ok(Receipt::Merged | Receipt::MergedVariant)
            ));
        }
        self.ops.record(distinct.is_complete());
        self.ops.record(expr.is_ok());
        self.ops.record(jaccard.is_ok());
        self.estimate = distinct.estimate.value;
        self.messages = messages;
        self.labels.iter().map(|l| l.len() as u64).sum()
    }

    fn after_round(&mut self) -> Result<RoundFacts, String> {
        for m in &self.messages {
            let sketch = decode_sketch::<()>(m.payload.clone())
                .map_err(|e| format!("monitor_fullship: shipped message does not decode: {e}"))?;
            self.oracle
                .merge_from(&sketch)
                .map_err(|e| format!("monitor_fullship: oracle merge: {e}"))?;
        }
        if encode_sketch(&self.oracle) != encode_sketch(self.referee.union_sketch()) {
            return Err(format!(
                "monitor_fullship: round {}: referee union differs from merge_all of the decoded messages",
                self.round
            ));
        }
        let bytes: u64 = self.messages.iter().map(|m| m.bytes() as u64).sum();
        self.bytes_out += bytes;
        let t = self.referee.telemetry();
        let (decode, merge) = (t.decode_time.as_secs_f64(), t.merge_time.as_secs_f64());
        let facts = RoundFacts {
            bytes,
            decode_secs: decode - self.decode_secs,
            merge_secs: merge - self.merge_secs,
        };
        (self.decode_secs, self.merge_secs) = (decode, merge);
        Ok(facts)
    }

    fn finish(&mut self) -> Result<Summary, String> {
        let mut m = MetricsSnapshot::default();
        for party in &self.parties {
            m.absorb(&party.sketch().metrics_snapshot());
        }
        let sampled = m.inserts_sampled + m.inserts_sampled_after_promotion;
        let exact = self.inputs.union_distinct(self.round + 1) as f64;
        Ok(Summary {
            rel_error: (self.estimate - exact).abs() / exact,
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
        let labels = self.labels.concat();
        (
            self.config,
            self.referee.union_sketch().master_seed(),
            labels,
        )
    }

    fn input_bytes(&self) -> u64 {
        self.labels.iter().map(|l| 8 * l.capacity() as u64).sum()
    }
}
