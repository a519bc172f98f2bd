//! `wallbench` command line: `run`, `baseline` and `check` (see README.md).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use wallbench::check::{self, Verdict};
use wallbench::json::Json;
use wallbench::run::{run, RunConfig};
use wallbench::suite::{host_facts, results_doc, Settings, Suite};
use wallbench::workloads::Kind;

const USAGE: &str = "usage:
  wallbench run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
  wallbench baseline
  wallbench check BEFORE.json AFTER.json
workloads: oneshot_fanin, monitor_fullship, monitor_delta, store_zipf";

/// The seed the committed baseline is measured at.
const BASELINE_SEED: u64 = 1;
/// Timed seconds per workload run (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;
/// Suite runs the committed baseline takes the median of.
const BASELINE_RUNS: usize = 3;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_run_args(args: &[String]) -> Result<(Option<Kind>, Settings), String> {
    let mut workload = None;
    let mut s = Settings {
        seed: BASELINE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                s.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                s.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.seconds >= 0.0 && s.seconds <= 3600.0) {
                    return Err("--seconds must be in [0, 3600]".into());
                }
            }
            "--trace" => {
                s.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => s.quick = true,
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok((workload, s))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|(workload, s)| match workload {
            Some(kind) => run_one(kind, &s),
            None => run_suite(&s, 1, false),
        }),
        Some("baseline") if args.len() == 1 => {
            let s = Settings {
                seed: BASELINE_SEED,
                seconds: DEFAULT_SECONDS,
                trace: false,
                quick: false,
            };
            run_suite(&s, BASELINE_RUNS, true)
        }
        Some("check") if args.len() == 3 => run_check(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A fresh directory under `out/` for one invocation.
fn out_dir(label: &str, seed: u64) -> Result<PathBuf, String> {
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let dir = bench_dir().join("out").join(format!(
        "{label}-seed{seed}-{millis}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", path.display())))
}

/// Printed before the path of a run's results file.
const RESULTS_LINE: &str = "  results: ";

/// One workload in this process. The last line of stdout is the result
/// object that tools read.
fn run_one(kind: Kind, s: &Settings) -> Result<bool, String> {
    let dir = out_dir(kind.name(), s.seed)?;
    let cfg = RunConfig {
        kind,
        seed: s.seed,
        seconds: s.seconds,
        trace: s.trace,
        quick: s.quick,
        scratch: dir.clone(),
    };
    let r = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wallbench: {}: run failed: {e}", kind.name());
            return Ok(false);
        }
    };
    println!(
        "{} seed={} trace={} rounds={} timed_s={:.3}",
        kind.name(),
        s.seed,
        u8::from(s.trace),
        r.rounds,
        r.timed_s
    );
    for &(name, unit, value) in &r.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for flag in &r.flags {
        println!("  note: {flag}");
    }
    if let Some(spans) = &r.spans {
        let path = dir.join(format!("trace-{}.json", kind.name()));
        write(&path, &format!("{spans}\n"))?;
    }
    // The results file also carries the gates, which traced runs already
    // list among their per-layer metrics.
    let mut recorded = r.metrics.clone();
    if !s.trace {
        recorded.extend(&r.gates);
    }
    let metrics = |listed: &[(&str, &str, f64)], one: bool| {
        Json::obj(listed.iter().map(|&(name, unit, value)| {
            let v = if one {
                ("value", Json::Num(value))
            } else {
                ("values", Json::Arr(vec![Json::Num(value)]))
            };
            (name, Json::obj([v, ("unit", Json::Str(unit.into()))]))
        }))
    };
    let record = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(r.ops.attempted as f64)),
        ("failed", Json::Num(r.ops.failed as f64)),
        ("rounds", Json::Num(r.rounds as f64)),
        ("timed_s", Json::Num(r.timed_s)),
        (
            "flags",
            Json::Arr(r.flags.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("metrics", metrics(&recorded, false)),
    ]);
    let doc = results_doc(s, 1, host_facts(None), vec![(kind.name().into(), record)]);
    let results = dir.join("results.json");
    write(&results, &format!("{doc}\n"))?;
    println!("{RESULTS_LINE}{}", results.display());
    let line = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(r.ops.attempted as f64)),
        ("failed", Json::Num(r.ops.failed as f64)),
        ("metrics", metrics(&r.metrics, true)),
    ]);
    println!("{line}");
    Ok(true)
}

/// Run `kind` in a child process with settings `s`; its record from the
/// results file it wrote, or `None` if it failed.
fn run_child(exe: &Path, kind: Kind, s: &Settings) -> Option<Json> {
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", kind.name()])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if s.trace { "1" } else { "0" }]);
    if s.quick {
        cmd.arg("--quick");
    }
    let out = match cmd.stderr(Stdio::inherit()).output() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("wallbench: spawning {}: {e}", exe.display());
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RESULTS_LINE))
        .filter(|_| out.status.success())
        .and_then(|path| load(Path::new(path)).ok())
        .and_then(|doc| doc.get("workloads")?.get(kind.name()).cloned());
    if record.is_none() {
        eprintln!("wallbench: {} failed ({})", kind.name(), out.status);
    }
    record
}

/// Every workload, `runs` times each, each run in its own process (so
/// peak RSS and set-up are per workload). Writes every value and the
/// medians to `out/<run>/results.json`, and with `baseline` also to the
/// committed `baseline.json` if every run passed.
fn run_suite(s: &Settings, runs: usize, baseline: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let dir = out_dir(if baseline { "baseline" } else { "suite" }, s.seed)?;
    let suite = Suite::collect(s, runs, host_facts(Some(&bench_dir())), |rep, kind| {
        eprintln!("wallbench: {} run {}/{runs}", kind.name(), rep + 1);
        run_child(&exe, kind, s)
    });
    let results = dir.join("results.json");
    write(&results, &format!("{}\n", suite.doc))?;
    eprintln!("wallbench: results in {}", results.display());
    if baseline {
        let path = bench_dir().join("baseline.json");
        if suite.save_baseline(&path)? {
            eprintln!("wallbench: baseline written to {}", path.display());
        } else {
            eprintln!("wallbench: a run failed; {} left as it was", path.display());
        }
    }
    Ok(suite.ok)
}

/// Compare two results files; false (non-zero exit) if anything regressed
/// or went missing.
fn run_check(before: &Path, after: &Path) -> Result<bool, String> {
    let spec = load(&bench_dir().join("../BENCHMARK.json"))?;
    let rows = check::compare(&check::rules(&spec)?, &load(before)?, &load(after)?)?;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9}  {:<10} unit (base = before median)",
        "workload", "metric", "before", "after", "ratio", "verdict"
    );
    for r in &rows {
        let (after, ratio) = if r.verdict == Verdict::Missing {
            ("-".to_owned(), f64::NAN)
        } else {
            let after = wallbench::trace::median(&r.after);
            (format!("{after:.4}"), r.ratio())
        };
        // No ratio without an after value or to a zero base (no failures).
        let ratio = if ratio.is_finite() {
            format!("{ratio:.4}")
        } else {
            "-".to_owned()
        };
        println!(
            "{:<18} {:<16} {:>14.4} {:>14} {:>9}  {:<10} {}",
            r.workload,
            r.metric,
            r.base(),
            after,
            ratio,
            r.verdict.label(),
            r.unit
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
        .count();
    println!("{} rows, {bad} regressed or missing", rows.len());
    Ok(bad == 0)
}
