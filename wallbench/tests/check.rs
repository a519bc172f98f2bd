//! `check` on synthetic result pairs: within bound, regressed, improved,
//! unresolved and missing, in both directions; the gates and correctness;
//! refused settings; plus the exit code.

use std::process::Command;

use wallbench::check::{bounds, compare, rules, Bound, Verdict};
use wallbench::json::Json;

/// A results file of one workload `w` of a passing run at seed 1.
fn results(metrics: &[(&str, &[f64])]) -> Json {
    with_settings(metrics, true, 1)
}

fn with_settings(metrics: &[(&str, &[f64])], correct: bool, seed: u64) -> Json {
    let metrics = metrics.iter().map(|&(name, values)| {
        let values = Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        (name, Json::obj([("values", values)]))
    });
    let record = Json::obj([
        ("correct", Json::Bool(correct)),
        ("metrics", Json::obj(metrics)),
    ]);
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(12.0)),
        ("quick", Json::Bool(false)),
        ("trace", Json::Bool(false)),
        ("workloads", Json::obj([("w", record)])),
    ])
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The verdict on `metric` under every rule `check` applies.
fn gate(metric: &str, before: &[f64], after: &[f64]) -> Verdict {
    let rows = compare(
        &rules(&spec()).unwrap(),
        &results(&[(metric, before)]),
        &results(&[(metric, after)]),
    )
    .unwrap();
    assert_eq!(rows.len(), 1, "{rows:?}");
    rows[0].verdict
}

fn rule(name: &str, lower_is_better: bool) -> Bound {
    Bound {
        name: name.into(),
        unit: "u".into(),
        lower_is_better,
        bound: 0.10,
    }
}

fn verdict(lower_is_better: bool, before: &[f64], after: &[f64]) -> Verdict {
    let rows = compare(
        &[rule("m", lower_is_better)],
        &results(&[("m", before)]),
        &results(&[("m", after)]),
    )
    .unwrap();
    assert_eq!(rows.len(), 1);
    rows[0].verdict
}

#[test]
fn verdicts_follow_bounds_and_spread() {
    let steady = [100.0, 101.0, 99.0];
    // Higher is better.
    assert_eq!(
        verdict(false, &steady, &[97.0, 96.5, 97.5]),
        Verdict::Unchanged
    );
    assert_eq!(
        verdict(false, &steady, &[80.0, 81.0, 79.0]),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(false, &steady, &[120.0, 121.0, 119.0]),
        Verdict::Improved
    );
    // Spread wider than the bound: the runs cannot tell...
    assert_eq!(
        verdict(false, &[100.0, 130.0, 80.0], &[95.0, 96.0, 94.0]),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(false, &steady, &[70.0, 100.0, 90.0]),
        Verdict::Unresolved
    );
    // ...unless every later run beats every earlier one.
    assert_eq!(
        verdict(false, &[100.0, 130.0, 80.0], &[140.0, 150.0, 160.0]),
        Verdict::Improved
    );
    // Lower is better.
    assert_eq!(verdict(true, &[10.0], &[12.0]), Verdict::Regressed);
    assert_eq!(verdict(true, &[10.0], &[8.0]), Verdict::Improved);
    assert_eq!(verdict(true, &[10.0], &[10.5]), Verdict::Unchanged);
}

#[test]
fn a_vanished_metric_is_missing_and_unlisted_metrics_are_ignored() {
    let before = results(&[("m", &[1.0]), ("extra", &[5.0])]);
    let after = results(&[("other", &[1.0])]);
    let rows = compare(&[rule("m", false)], &before, &after).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].verdict, Verdict::Missing);
}

#[test]
fn benchmark_json_bounds_parse() {
    let b = bounds(&spec()).unwrap();
    assert!(!b.is_empty());
    assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    assert!(b.iter().any(|b| b.name == "setup_s" && b.lower_is_better));
}

#[test]
fn gates_must_repeat_exactly() {
    // A failed operation where there was none, at any rate.
    assert_eq!(
        gate("ops.failed_frac", &[0.0, 0.0, 0.0], &[0.0]),
        Verdict::Unchanged
    );
    assert_eq!(
        gate("ops.failed_frac", &[0.0, 0.0, 0.0], &[1e-6]),
        Verdict::Regressed
    );
    // Accuracy is deterministic for a seed: any rise regresses.
    let err = [0.0123, 0.0123, 0.0123];
    assert_eq!(gate("rel_error", &err, &[0.0123]), Verdict::Unchanged);
    assert_eq!(gate("rel_error", &err, &[0.01231]), Verdict::Regressed);
    assert_eq!(gate("rel_error", &err, &[0.0122]), Verdict::Improved);
}

#[test]
fn a_failed_run_is_a_regressed_row() {
    let m: &[(&str, &[f64])] = &[("rel_error", &[0.01])];
    let rows = |before_ok, after_ok| {
        compare(
            &rules(&spec()).unwrap(),
            &with_settings(m, before_ok, 1),
            &with_settings(m, after_ok, 1),
        )
        .unwrap()
        .into_iter()
        .filter(|r| r.metric == "correct")
        .map(|r| r.verdict)
        .collect::<Vec<_>>()
    };
    assert_eq!(rows(true, true), []);
    assert_eq!(rows(true, false), [Verdict::Regressed]);
    assert_eq!(rows(false, true), [Verdict::Improved]);
}

#[test]
fn results_of_other_settings_are_refused() {
    let m: &[(&str, &[f64])] = &[("setup_s", &[1.0])];
    let b = rules(&spec()).unwrap();
    let err = compare(&b, &with_settings(m, true, 1), &with_settings(m, true, 2)).unwrap_err();
    assert!(err.contains("seed"), "{err}");
    let Json::Obj(mut quick) = with_settings(m, true, 1) else {
        unreachable!()
    };
    for (key, value) in &mut quick {
        if key == "quick" {
            *value = Json::Bool(true);
        }
    }
    let err = compare(&b, &with_settings(m, true, 1), &Json::Obj(quick)).unwrap_err();
    assert!(err.contains("quick"), "{err}");
}

#[test]
fn check_exits_non_zero_only_on_regression() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("check-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, v: f64| {
        let path = dir.join(name);
        std::fs::write(&path, results(&[("peak_rss_mib", &[v])]).to_string()).unwrap();
        path
    };
    let base = write("base.json", 100.0);
    let same = write("same.json", 101.0);
    let fat = write("fat.json", 150.0);
    let check = |after: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_wallbench"))
            .arg("check")
            .args([&base, after])
            .output()
            .unwrap()
            .status
    };
    assert!(check(&same).success());
    assert_eq!(check(&fat).code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}
