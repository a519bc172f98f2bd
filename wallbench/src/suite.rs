//! Results files: one run's record, and a suite's records gathered from
//! every workload's runs, with the host facts the numbers belong to.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::trace::median;
use crate::workloads::Kind;

/// What a results file was measured with. `check` compares only files
/// whose settings agree.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Timed seconds per run.
    pub seconds: f64,
    /// Per-layer metrics (spans) instead of end-to-end ones.
    pub trace: bool,
    /// About a tenth of the work per round.
    pub quick: bool,
}

/// First line of a command's output, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").to_owned())
}

/// Facts about the host and build the numbers belong to. With `repo`,
/// also the commit checked out there and the compiler version, which take
/// a process each.
pub fn host_facts(repo: Option<&Path>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "dev"
    } else {
        "release"
    };
    let mut facts = vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "effective_workers",
            Json::Num(gt_core::effective_workers() as f64),
        ),
        ("lanes", Json::Num(gt_hash::LANES as f64)),
        ("profile", Json::Str(profile.into())),
    ];
    if let Some(repo) = repo {
        let repo = repo.to_string_lossy();
        let commit = command_line("git", &["-C", &repo, "rev-parse", "--short", "HEAD"]);
        let rustc = command_line("rustc", &["-V"]);
        for (k, v) in [("commit", commit), ("rustc", rustc)] {
            facts.push((k, Json::Str(v.unwrap_or_else(|| "unknown".into()))));
        }
    }
    Json::obj(facts)
}

/// A results document: settings, host facts, and one record per workload.
pub fn results_doc(s: &Settings, runs: usize, host: Json, workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("host", host),
        ("seed", Json::Num(s.seed as f64)),
        ("seconds", Json::Num(s.seconds)),
        ("quick", Json::Bool(s.quick)),
        ("trace", Json::Bool(s.trace)),
        ("runs", Json::Num(runs as f64)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// One workload's results across a suite's runs.
struct Tally {
    kind: Kind,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(metric, unit, one value per run)`.
    metrics: Vec<(String, String, Vec<f64>)>,
}

impl Tally {
    /// Add one run's record (a workload entry of its results file).
    fn absorb(&mut self, record: &Json) {
        let num = |k: &str| record.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        self.correct &= record.get("correct") == Some(&Json::Bool(true));
        self.attempted += num("attempted");
        self.failed += num("failed");
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, m) in metrics {
            let values = m.get("values").and_then(Json::as_array).unwrap_or(&[]);
            let values = values.iter().map(|v| v.as_f64().unwrap_or(f64::NAN));
            match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, all)) => all.extend(values),
                None => {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    self.metrics
                        .push((name.clone(), unit.to_owned(), values.collect()));
                }
            }
        }
    }

    fn into_record(self) -> (String, Json) {
        let metrics = self.metrics.into_iter().map(|(name, unit, values)| {
            let m = Json::obj([
                ("unit", Json::Str(unit)),
                ("median", Json::Num(median(&values))),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]);
            (name, m)
        });
        let record = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("metrics", Json::obj(metrics)),
        ]);
        (self.kind.name().to_owned(), record)
    }
}

/// A suite's results.
pub struct Suite {
    /// Every run of every workload finished and passed its checks.
    pub ok: bool,
    /// The results document: per metric, every run's value and their median.
    pub doc: Json,
}

impl Suite {
    /// Run every workload `runs` times, in suite order, through `worker`,
    /// which gets the run's index and returns the workload's record from
    /// that run's results file, or `None` if the run failed.
    pub fn collect(
        settings: &Settings,
        runs: usize,
        host: Json,
        mut worker: impl FnMut(usize, Kind) -> Option<Json>,
    ) -> Suite {
        let mut ok = true;
        let mut tallies: Vec<Tally> = Kind::ALL
            .iter()
            .map(|&kind| Tally {
                kind,
                correct: true,
                attempted: 0.0,
                failed: 0.0,
                metrics: Vec::new(),
            })
            .collect();
        for rep in 0..runs {
            for tally in &mut tallies {
                match worker(rep, tally.kind) {
                    Some(record) => tally.absorb(&record),
                    None => tally.correct = false,
                }
                ok &= tally.correct;
            }
        }
        let workloads = tallies.into_iter().map(Tally::into_record).collect();
        Suite {
            ok,
            doc: results_doc(settings, runs, host, workloads),
        }
    }

    /// Write the document to `path` as the committed baseline, but only if
    /// every run passed: a failed suite leaves the old baseline in place.
    /// Returns whether it wrote.
    pub fn save_baseline(&self, path: &Path) -> Result<bool, String> {
        if !self.ok {
            return Ok(false);
        }
        std::fs::write(path, format!("{}\n", self.doc))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(true)
    }
}
