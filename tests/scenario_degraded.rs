//! Degraded-mode queries under mid-run party churn: coverage is
//! monotone in parties heard, partial queries never panic on
//! zero-coverage windows, and a churned-out party's last acked summary
//! counts exactly once no matter how often it is redelivered.

use gt_sketch::streams::{
    run_sustained, Party, Receipt, Referee, RetryPolicy, ScenarioSpec, TransportSpec,
};
use gt_sketch::{SetExpr, SketchConfig};

fn config() -> SketchConfig {
    SketchConfig::new(0.1, 0.1).unwrap()
}

#[test]
fn coverage_is_monotone_in_parties_heard() {
    let config = config();
    let t = 6;
    let mut referee = Referee::new(&config, 9);
    let expr = SetExpr::leaf(0)
        .union(SetExpr::leaf(1))
        .union(SetExpr::leaf(5));

    // Zero parties heard: every partial query must answer, not panic.
    let none = referee.estimate_distinct_partial(t);
    assert_eq!(none.parties_heard, 0);
    assert_eq!(none.coverage(), 0.0);
    assert!(!none.is_complete());
    assert_eq!(none.estimate.value, 0.0, "empty union estimates zero");
    let q = referee
        .query_partial(&expr)
        .expect("partial expr at zero coverage");
    assert_eq!(q.coverage(), 0.0);
    let j = referee
        .query_jaccard_partial(&SetExpr::leaf(0), &SetExpr::leaf(1))
        .expect("partial jaccard at zero coverage");
    assert_eq!(j.coverage(), 0.0);

    // Hearing parties one at a time: coverage strictly climbs, the
    // distinct estimate never decreases (unions only grow), and the
    // expression query's coverage tracks its referenced leaves.
    let mut last_cov = 0.0;
    let mut last_est = 0.0;
    for id in 0..t {
        let mut party = Party::new(id, &config, 9);
        let stream: Vec<u64> = (0..2_000u64).map(|i| i * (t as u64) + id as u64).collect();
        party.observe_stream(&stream);
        referee.receive(&party.finish()).expect("clean delivery");

        let partial = referee.estimate_distinct_partial(t);
        assert_eq!(partial.parties_heard, id + 1);
        assert!(partial.coverage() > last_cov, "coverage must climb");
        assert!(partial.estimate.value >= last_est, "union only grows");
        last_cov = partial.coverage();
        last_est = partial.estimate.value;

        let q = referee.query_partial(&expr).expect("partial expr");
        let heard_leaves = [0usize, 1, 5].iter().filter(|&&l| l <= id).count();
        assert_eq!(q.parties_heard, heard_leaves);
        assert_eq!(q.parties_referenced, 3);
    }
    assert_eq!(last_cov, 1.0);
    assert!(referee.estimate_distinct_partial(t).is_complete());
}

#[test]
fn churned_out_partys_last_summary_counts_exactly_once() {
    let config = config();
    let mut referee = Referee::new(&config, 21);

    // Party 0 ships its summary, then "churns out" — but the collection
    // plane keeps redelivering the same payload (ack-loss retransmits,
    // stragglers). Every redelivery must be deduplicated.
    let mut party = Party::new(0, &config, 21);
    let stream: Vec<u64> = (0..3_000u64).collect();
    party.observe_stream(&stream);
    let msg = party.finish();

    assert_eq!(referee.receive(&msg).unwrap(), Receipt::Merged);
    let canonical = gt_sketch::streams::encode_sketch(referee.union_sketch());
    let estimate = referee.estimate_distinct().value;
    for _ in 0..5 {
        assert_eq!(referee.receive(&msg).unwrap(), Receipt::Duplicate);
    }
    assert_eq!(
        gt_sketch::streams::encode_sketch(referee.union_sketch()),
        canonical,
        "redelivery must not perturb the union"
    );
    assert_eq!(
        referee.estimate_distinct().value.to_bits(),
        estimate.to_bits()
    );
    assert_eq!(referee.telemetry().accepted, 1);
    assert_eq!(referee.telemetry().duplicates(), 5);
}

#[test]
fn sustained_churn_coverage_tracks_active_parties() {
    // Mid-run churn in the sustained engine: the degraded-mode distinct
    // samples must report coverage against the parties active at query
    // time, staying in [0, 1] throughout, and reach full coverage once
    // every active party has been heard.
    let spec = ScenarioSpec::builder("churny")
        .parties(4)
        .distinct_per_party(600)
        .workload_seed(31)
        .sustained(2, 60, 10)
        .crash(1, 25)
        .graceful_leave(2, 35)
        .join(3, 30)
        .query_every(5)
        .query_distinct()
        .build();
    let report = run_sustained(&config(), 3, &spec);
    assert!(!report.distinct_samples.is_empty());
    for s in &report.distinct_samples {
        assert!(s.coverage >= 0.0 && s.coverage <= 1.0, "{s:?}");
        assert!(s.parties_heard <= s.parties_expected, "{s:?}");
        assert!(s.estimate >= 0.0);
    }
    // Crashed and departed parties were heard before leaving, the
    // joiner after joining: the final sample covers everyone.
    let last = report.distinct_samples.last().unwrap();
    assert_eq!(last.parties_expected, 4);
    assert_eq!(last.coverage, 1.0);
    assert_eq!(report.party_coverage, 1.0);
    // The crash loses its unflushed tail and nothing else.
    assert!(report.item_coverage < 1.0);
    assert!(report.item_coverage > 0.9);
    assert_eq!(
        report.referee.accepted, 4,
        "each party counted exactly once"
    );
}

#[test]
fn zero_coverage_window_under_total_loss_never_panics() {
    // A channel that drops everything with a one-shot policy: no party
    // is ever heard, every query window has zero coverage, and the
    // report must still be well-formed (0/0 conventions, no panics).
    // Windowed answers come only from what reached the referee, so they
    // are 0 in both reporting modes.
    let spec = ScenarioSpec::builder("blackout")
        .parties(3)
        .distinct_per_party(400)
        .workload_seed(41)
        .sustained(2, 40, 10)
        .transport(TransportSpec {
            jitter: 0,
            straggle_probability: 0.0,
            ..TransportSpec::lossy(1.0, 7)
        })
        .retry(RetryPolicy::one_shot())
        .query_every(10)
        .query_distinct()
        .query_window(15);
    for spec in [spec.clone().build(), spec.delta_plane().build()] {
        let report = run_sustained(&config(), 5, &spec);
        let mode = spec.reporting;
        assert!(report.total_items > 0);
        assert_eq!(report.items_acked, 0);
        assert_eq!(report.item_coverage, 0.0);
        assert_eq!(report.party_coverage, 0.0, "senders existed, none heard");
        assert_eq!(report.latency.count(), 0);
        assert_eq!(report.latency.p999(), 0, "empty histogram quantiles are 0");
        for s in &report.distinct_samples {
            assert_eq!(s.parties_heard, 0);
            assert_eq!(s.coverage, 0.0);
            assert_eq!(s.estimate, 0.0);
        }
        assert_eq!(report.window_samples.len(), 4);
        for s in &report.window_samples {
            assert!(s.truth > 0);
            assert_eq!(s.estimate, 0.0, "{mode:?}: window at {}", s.at);
        }
        assert_eq!(report.final_estimate, 0.0);
        assert!(report.transport.dropped > 0);
    }
}
