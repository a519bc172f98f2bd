//! One module per experiment in EXPERIMENTS.md, plus a registry so the
//! binary can dispatch by id.

pub mod common;
pub mod e01_accuracy_vs_epsilon;
pub mod e02_median_boosting;
pub mod e03_space;
pub mod e04_ingest_throughput;
pub mod e05_union_overlap;
pub mod e06_frontier;
pub mod e07_sumdistinct;
pub mod e08_skew;
pub mod e09_communication;
pub mod e11_ablation;
pub mod e12_similarity;
pub mod e13_predicate;
pub mod e14_parallel_scaling;
pub mod e15_heterogeneous;
pub mod e16_window;
pub mod e17_transport;
pub mod e18_concurrent;
pub mod e19_union;
pub mod e20_hash_kernel;
pub mod e21_keyed_store;
pub mod e22_expression;
pub mod e23_e2e;
pub mod e24_delta;

use crate::table::Table;

/// An experiment the binary can run.
pub struct Experiment {
    /// Short id, e.g. "e1".
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Produce the tables. `quick` shrinks sweeps/seeds for CI-speed runs.
    pub run: fn(quick: bool) -> Vec<Table>,
}

/// All runnable experiments. E4 and E14 are time-domain but still run
/// here (their claims are checked in-binary with `Table::check`, with
/// Criterion counterparts in `benches/` for fine-grained numbers); only
/// E10 remains Criterion-only. See EXPERIMENTS.md.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "e1",
        description:
            "accuracy vs epsilon: observed error quantiles against the (eps, delta) contract",
        run: e01_accuracy_vs_epsilon::run,
    },
    Experiment {
        id: "e2",
        description: "median boosting: failure probability decay with trial count",
        run: e02_median_boosting::run,
    },
    Experiment {
        id: "e3",
        description: "space usage vs the O(eps^-2 log(1/delta) log n) bound and vs exact sets",
        run: e03_space::run,
    },
    Experiment {
        id: "e4",
        description: "ingest throughput: per-item vs batched vs kernel across hash families",
        run: e04_ingest_throughput::run,
    },
    Experiment {
        id: "e5",
        description:
            "HEADLINE: union estimation vs parties and overlap; naive baselines for contrast",
        run: e05_union_overlap::run,
    },
    Experiment {
        id: "e6",
        description:
            "equal-space accuracy frontier vs PCSA, LogLog, linear counting, KMV, reservoir",
        run: e06_frontier::run,
    },
    Experiment {
        id: "e7",
        description: "SumDistinct: duplicate insensitivity vs a plain sum under duplication sweeps",
        run: e07_sumdistinct::run,
    },
    Experiment {
        id: "e8",
        description: "distribution robustness: error vs zipf skew",
        run: e08_skew::run,
    },
    Experiment {
        id: "e9",
        description: "communication: bytes per party vs t, eps, and stream length",
        run: e09_communication::run,
    },
    Experiment {
        id: "e11",
        description: "ablations: hash family soundness and the capacity constant",
        run: e11_ablation::run,
    },
    Experiment {
        id: "e12",
        description: "similarity: intersection and Jaccard accuracy vs overlap",
        run: e12_similarity::run,
    },
    Experiment {
        id: "e13",
        description: "predicate-restricted counts: additive error across selectivities",
        run: e13_predicate::run,
    },
    Experiment {
        id: "e14",
        description: "parallel scaling: thread sweep with bitwise-identity assertion",
        run: e14_parallel_scaling::run,
    },
    Experiment {
        id: "e15",
        description: "EXTENSION: heterogeneous-fleet unions via shrink/harmonize",
        run: e15_heterogeneous::run,
    },
    Experiment {
        id: "e16",
        description: "EXTENSION: sliding-window vs landmark recency queries",
        run: e16_window::run,
    },
    Experiment {
        id: "e17",
        description: "collection plane under loss: retry budget vs union completeness",
        run: e17_transport::run,
    },
    Experiment {
        id: "e18",
        description: "concurrent serving: multi-writer scaling + live snapshot validity",
        run: e18_concurrent::run,
    },
    Experiment {
        id: "e19",
        description: "referee union pipeline: per-entry reference fold vs kernel fold",
        run: e19_union::run,
    },
    Experiment {
        id: "e20",
        description: "hash kernels: lane vs scalar bulk hashing + survival screen",
        run: e20_hash_kernel::run,
    },
    Experiment {
        id: "e21",
        description: "keyed multi-tenant store: Zipf keys under a byte budget, evict/restore",
        run: e21_keyed_store::run,
    },
    Experiment {
        id: "e22",
        description: "set-expression queries at the referee: error vs depth and overlap",
        run: e22_expression::run,
    },
    Experiment {
        id: "e23",
        description: "end-to-end scenario suite: sustained load, latency, coverage under faults",
        run: e23_e2e::run,
    },
    Experiment {
        id: "e24",
        description: "delta plane: steady-state bytes vs staleness against full re-ship",
        run: e24_delta::run,
    },
];

/// Find an experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static Experiment> {
    let id = id.to_lowercase();
    REGISTRY.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup() {
        assert!(find("e1").is_some());
        assert!(find("E5").is_some());
        assert!(find("e99").is_none());
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = REGISTRY.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len());
    }
}
