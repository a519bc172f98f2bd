//! A `--quick` run of every workload, untraced and traced: the run passes
//! every correctness check and prints every metric `BENCHMARK.json` lists,
//! with its unit, as the last line of its output; its results file also
//! carries the gates `check` holds to an exact repeat.

use std::process::Command;

use wallbench::json::Json;
use wallbench::metrics::{END_TO_END, GATES, PER_LAYER};
use wallbench::run::MAX_UNATTRIBUTED;
use wallbench::workloads::Kind;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The last line of a run's output, and the results file it names.
fn run(workload: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.5",
        ])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("some output");
    let line = Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("  results: "))
        .expect("a results line");
    let results = Json::parse(&std::fs::read_to_string(path).expect("results file"))
        .expect("results file is JSON");
    (line, results)
}

#[test]
fn dictionary_matches_benchmark_json() {
    let spec = spec();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(names_and_units(&spec, "end_to_end"), owned(END_TO_END));
    assert_eq!(names_and_units(&spec, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    let ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let spec = spec();
    for kind in Kind::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let w = kind.name();
            let (r, results) = run(w, trace);
            let recorded = results
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|r| r.get("metrics"))
                .unwrap();
            for (gate, _) in GATES {
                assert!(
                    recorded.get(gate).is_some(),
                    "{w} --trace {trace}: no {gate}"
                );
            }
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = r.get("metrics").and_then(Json::as_object).unwrap();
            let listed = names_and_units(&spec, list);
            assert_eq!(metrics.len(), listed.len(), "{w} --trace {trace}");
            for (name, unit) in listed {
                let m = r
                    .get("metrics")
                    .and_then(|m| m.get(&name))
                    .unwrap_or_else(|| panic!("{w} --trace {trace}: no {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{w}: {name} = {value:?}");
                if list == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{w}: {name} is 0");
                }
            }
            if trace == "1" {
                let unattributed = r
                    .get("metrics")
                    .and_then(|m| m.get("trace.unattributed_frac"))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap();
                assert!(unattributed <= MAX_UNATTRIBUTED, "{w}: {unattributed}");
            }
        }
    }
}
