//! A suite in which any run fails never replaces the committed baseline.

use wallbench::json::Json;
use wallbench::suite::{host_facts, Settings, Suite};
use wallbench::workloads::Kind;

fn record(setup_s: f64) -> Json {
    let m = Json::obj([
        ("values", Json::Arr(vec![Json::Num(setup_s)])),
        ("unit", Json::Str("s".into())),
    ]);
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(10.0)),
        ("failed", Json::Num(0.0)),
        ("metrics", Json::obj([("setup_s", m)])),
    ])
}

#[test]
fn only_a_passing_suite_is_saved_as_baseline() {
    let settings = Settings {
        seed: 1,
        seconds: 12.0,
        trace: false,
        quick: false,
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("baseline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");
    std::fs::write(&path, "old\n").unwrap();

    // The last workload's second run fails.
    let failing = Suite::collect(&settings, 2, host_facts(None), |rep, kind| {
        (rep == 0 || kind != Kind::StoreZipf).then(|| record(1.0 + rep as f64))
    });
    assert!(!failing.ok);
    assert_eq!(failing.save_baseline(&path), Ok(false));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "old\n");

    let passing = Suite::collect(&settings, 2, host_facts(None), |rep, _| {
        Some(record(1.0 + rep as f64))
    });
    assert!(passing.ok);
    assert_eq!(passing.save_baseline(&path), Ok(true));
    let saved = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let setup = saved
        .get("workloads")
        .and_then(|w| w.get("store_zipf"))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get("setup_s"))
        .unwrap();
    assert_eq!(setup.get("median"), Some(&Json::Num(1.5)));
    std::fs::remove_dir_all(&dir).unwrap();
}
