//! The four workloads. Each drives the system only through public
//! functions, one closed loop on one thread; the only other threads are
//! the program's own (`merge_tree` inside `receive_batch`).
//!
//! A workload is a sequence of rounds. [`Workload::prepare`] generates a
//! round's inputs (never timed), [`Workload::round`] runs them through the
//! system under the round clock, and [`Workload::after_round`] checks the
//! outputs outside timing.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gt_core::SketchConfig;

use crate::trace::{QuerySample, Recorder};

pub mod delta;
pub mod fullship;
pub mod oneshot;
pub mod store;

/// Fallible operations (receipts, queries, store calls) and their failures.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// `Err` receipts, `NeedResync`, store errors and query errors.
    pub failed: u64,
}

impl Ops {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another tally's counts.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a round shipped or moved, read outside timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundFacts {
    /// Wire bytes shipped (referee workloads) or spill bytes written and
    /// read back (store).
    pub bytes: u64,
    /// The referee's own decode timer over the round.
    pub decode_secs: f64,
    /// The referee's own merge timer over the round.
    pub merge_secs: f64,
}

/// Accuracy and per-layer counts read after the last round: for a given
/// seed and `--seconds`, the same on every run.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Relative error of the estimate against the exact distinct count.
    pub rel_error: f64,
    /// The configuration's ε (`rel_error` above it is flagged).
    pub epsilon: f64,
    /// Per-layer counts from the program's own snapshots.
    pub layer: BTreeMap<&'static str, f64>,
}

/// One workload's system state plus the inputs of its current round.
pub trait Workload {
    /// Generate round `round`'s inputs (untimed).
    fn prepare(&mut self, round: u64);
    /// Run the prepared round through the system; returns items ingested.
    fn round(&mut self, rec: &mut Recorder) -> u64;
    /// Check the round's outputs and read its facts (untimed).
    fn after_round(&mut self) -> Result<RoundFacts, String>;
    /// Final correctness checks, accuracy and per-layer counts.
    fn finish(&mut self) -> Result<Summary, String>;
    /// Operations attempted and failed so far.
    fn ops(&self) -> Ops;
    /// Config, master seed and labels of the workload's own inputs, for
    /// the hash calibration pass.
    fn calibration(&self) -> (SketchConfig, u64, Vec<u64>);
    /// Bytes of input the benchmark itself holds.
    fn input_bytes(&self) -> u64;
}

/// How a workload's run is laid out.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed rounds inside set-up (absolute rounds `0..warmup_rounds`).
    pub warmup_rounds: u64,
    /// Timed rounds per `--seconds`: about one second of work per unit
    /// on the reference host (see README.md), so every run of a given
    /// `--seconds` does the same work whatever the host's speed.
    pub rounds_per_second: f64,
    /// How query latency samples are cut.
    pub sampling: QuerySample,
}

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 16 parties, one message each, one referee: the paper's model.
    OneshotFanin,
    /// 32 parties re-shipping their whole sketch every round.
    MonitorFullship,
    /// The same monitoring job through the delta-frame plane.
    MonitorDelta,
    /// The keyed store under Zipf keys and a byte budget.
    StoreZipf,
}

impl Kind {
    /// Every workload, in suite order.
    pub const ALL: [Kind; 4] = [
        Kind::OneshotFanin,
        Kind::MonitorFullship,
        Kind::MonitorDelta,
        Kind::StoreZipf,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OneshotFanin => "oneshot_fanin",
            Kind::MonitorFullship => "monitor_fullship",
            Kind::MonitorDelta => "monitor_delta",
            Kind::StoreZipf => "store_zipf",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Round layout; `quick` rounds do about a tenth of the work.
    pub fn plan(self, quick: bool) -> Plan {
        let (warmup_rounds, rounds_per_second, sampling) = match self {
            Kind::OneshotFanin => (1, 1.0, QuerySample::PerRound),
            Kind::MonitorFullship => (10, 12.0, QuerySample::PerRound),
            Kind::MonitorDelta => (10, 6.0, QuerySample::PerRound),
            Kind::StoreZipf => (0, 235.0, QuerySample::PerCall),
        };
        let warmup_rounds = if quick {
            warmup_rounds.min(2)
        } else {
            warmup_rounds
        };
        Plan {
            warmup_rounds,
            rounds_per_second,
            sampling,
        }
    }

    /// Build the workload from nothing up to its first timed round.
    /// Returns it with the set-up's wall seconds (input generation
    /// excluded). `scratch` is a directory the workload may own (the
    /// store's spill logs).
    pub fn setup(
        self,
        seed: u64,
        quick: bool,
        scratch: &Path,
    ) -> Result<(Box<dyn Workload>, f64), String> {
        let warmup = self.plan(quick).warmup_rounds;
        let start = Instant::now();
        let mut w: Box<dyn Workload> = match self {
            Kind::OneshotFanin => Box::new(oneshot::OneshotFanin::new(seed, quick)),
            Kind::MonitorFullship => Box::new(fullship::MonitorFullship::new(seed, quick)),
            Kind::MonitorDelta => Box::new(delta::MonitorDelta::new(seed, quick)),
            Kind::StoreZipf => {
                let (w, secs) = store::StoreZipf::new(seed, quick, scratch)?;
                return Ok((Box::new(w), secs));
            }
        };
        let mut secs = start.elapsed().as_secs_f64();
        let mut rec = Recorder::new(QuerySample::PerRound);
        for round in 0..warmup {
            w.prepare(round);
            rec.begin_round(round, false);
            let items = w.round(&mut rec);
            secs += rec.end_round(items);
            w.after_round()?;
        }
        Ok((w, secs))
    }

    /// Digest of the inputs of the first `rounds` rounds (plus the store's
    /// coverage sweep), without running the system.
    pub fn input_digest(self, seed: u64, quick: bool, rounds: u64) -> u64 {
        match self {
            Kind::OneshotFanin => oneshot::Inputs::new(seed, quick).digest(rounds),
            Kind::MonitorFullship => fullship::Inputs::new(seed, quick).digest(rounds),
            Kind::MonitorDelta => delta::Inputs::new(seed, quick).digest(rounds),
            Kind::StoreZipf => store::Inputs::new(seed, quick).digest(rounds),
        }
    }
}

/// Master seed the sketches share, derived from the workload seed.
pub(crate) fn master_seed(seed: u64) -> u64 {
    crate::gen::key(seed, 0x5eed, 0)
}
