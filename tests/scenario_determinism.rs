//! Deterministic-replay property of the scenario harness: any
//! `ScenarioSpec` run twice with the same master seed must produce
//! bitwise-identical referee canonical bytes, telemetry counters, and
//! latency histograms — all folded into `E2eReport::determinism_key`.
//!
//! The specs here are drawn small (a few parties, tens of ticks) so the
//! whole property sweep stays CI-fast; the determinism contract does not
//! depend on scale.

use proptest::prelude::*;

use gt_sketch::streams::{run_sustained, Distribution, RetryPolicy, ScenarioSpec, TransportSpec};
use gt_sketch::SketchConfig;

/// Build a small sustained spec from raw drawn integers. Every stochastic
/// aspect of the run (workload draws, channel fates, ack loss) derives
/// from `workload_seed` and the transport seed, both fixed by the draw —
/// so the spec itself is a pure value. `plane_pick` chooses full re-ship
/// (even) or the delta plane (odd), and an ack-loss probability (which
/// only the delta plane's return path consults).
#[allow(clippy::too_many_arguments)]
fn spec_of(
    parties: u64,
    rate: u64,
    duration: u64,
    report_every: u64,
    seed: u64,
    dist_pick: u64,
    fault_pick: u64,
    churn_pick: u64,
    plane_pick: u64,
) -> ScenarioSpec {
    let parties = 1 + (parties % 4) as usize;
    let duration = 20 + duration % 60;
    let mut b = ScenarioSpec::builder("prop")
        .parties(parties)
        .distinct_per_party(200 + seed % 400)
        .overlap(0.25)
        .distribution(match dist_pick % 3 {
            0 => Distribution::Uniform,
            1 => Distribution::Zipf(1.1),
            _ => Distribution::EachOnce,
        })
        .workload_seed(seed)
        .sustained(1 + rate % 3, duration, 3 + report_every % 12)
        .query_every(7)
        .query_distinct();
    let mut retry = RetryPolicy::one_shot();
    match fault_pick % 3 {
        0 => {}
        1 => {
            b = b.transport(TransportSpec {
                jitter: 2,
                straggle_probability: 0.0,
                ..TransportSpec::lossy(0.2, seed ^ 0xFA17)
            });
            retry = RetryPolicy::with_budget(4);
        }
        _ => {
            b = b.transport(TransportSpec::reliable(seed ^ 0x0C1A));
        }
    }
    retry.ack_drop_probability = [0.0, 0.1, 0.3][(plane_pick / 2 % 3) as usize];
    b = b.retry(retry);
    if plane_pick % 2 == 1 {
        b = b.delta_plane();
    }
    if parties >= 2 {
        match churn_pick % 4 {
            0 => {}
            1 => b = b.crash(1, duration / 2),
            2 => b = b.graceful_leave(1, duration / 2 + 1),
            _ => b = b.join(0, duration / 3),
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_replay_is_bitwise_identical(
        parties in 0u64..100,
        rate in 0u64..100,
        duration in 0u64..100,
        report_every in 0u64..100,
        seed in 0u64..1 << 32,
        dist_pick in 0u64..100,
        fault_pick in 0u64..100,
        churn_pick in 0u64..100,
        plane_pick in 0u64..100,
        master_seed in 0u64..1 << 32,
    ) {
        let spec = spec_of(
            parties, rate, duration, report_every, seed, dist_pick, fault_pick, churn_pick,
            plane_pick,
        );
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let a = run_sustained(&config, master_seed, &spec);
        let b = run_sustained(&config, master_seed, &spec);
        // One Eq over everything deterministic: canonical union bytes,
        // the full latency histogram, exactly-once counters, transport
        // and referee counts, and every query sample's IEEE bits.
        prop_assert_eq!(a.determinism_key(), b.determinism_key());
        // The delta plane's whole report replays too (staleness, acked
        // generations, oracle counts), and its live union never diverged
        // from a fresh full ship.
        prop_assert_eq!(&a.delta, &b.delta);
        prop_assert_eq!(a.delta.is_some(), plane_pick % 2 == 1);
        if let Some(d) = &a.delta {
            prop_assert_eq!(d.oracle_failures, 0);
        }
        // The witness is not vacuous: the run did real work.
        prop_assert!(a.total_items > 0);
        prop_assert!(!a.union_canonical.is_empty());
    }

    #[test]
    fn master_seed_perturbs_the_union(
        seed in 0u64..1 << 32,
        master_seed in 0u64..1 << 31,
    ) {
        // Complement of the replay property: determinism is not the
        // degenerate "always the same answer" — a different master seed
        // re-keys the sketch hashes and must change the canonical bytes.
        let spec = spec_of(2, 1, 40, 5, seed, 0, 0, 0, 0);
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let a = run_sustained(&config, master_seed, &spec);
        let b = run_sustained(&config, master_seed ^ 0x5EED_0001, &spec);
        prop_assert_ne!(a.union_canonical, b.union_canonical);
        // The virtual-clock accounting is seed-independent on a clean
        // channel: same items, same latency histogram.
        prop_assert_eq!(a.total_items, b.total_items);
        prop_assert_eq!(a.latency, b.latency);
    }
}
