//! Synthetic flow-record workload — the paper's motivating domain, in
//! enough detail for realistic examples and experiments.
//!
//! "Current network monitoring products" (the abstract's deployment) see
//! NetFlow-style records: 5-tuples with byte counts, where a *flow* may
//! cross several monitored links and each link sees many packets per
//! flow. This module synthesizes such traffic with the knobs that matter
//! to distinct-flow estimation — how many flows exist, how they are
//! shared across monitors, and how skewed packet counts are — while
//! keeping exact ground truth computable (the substitution for real
//! traces documented in DESIGN.md §6).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::workload::ZipfSampler;

/// One observed flow record (a packet sample attributed to a flow).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct FlowRecord {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Bytes in this record.
    pub bytes: u32,
}

impl FlowRecord {
    /// The flow's sketch label: a deterministic fold of the 5-tuple into
    /// the `[0, 2^61 − 1)` universe. Distinct 5-tuples collide with
    /// probability ≈ 2⁻⁶¹ per pair (birthday-bounded; same arrangement as
    /// pre-hashing keys in production sketch libraries).
    pub fn label(&self) -> u64 {
        let w1 = ((self.src_ip as u64) << 32) | self.dst_ip as u64;
        let w2 =
            ((self.src_port as u64) << 32) | ((self.dst_port as u64) << 16) | self.protocol as u64;
        gt_hash::fold61(gt_hash::mix64(w1) ^ gt_hash::mix64(w2 ^ 0x5EED_F10E))
    }
}

/// Parameters of a synthetic multi-monitor flow workload.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct FlowWorkload {
    /// Number of link monitors.
    pub monitors: usize,
    /// Flows visible on each link.
    pub flows_per_monitor: u64,
    /// Fraction of each link's flows that transit **every** link
    /// (backbone traffic), in `[0, 1]`.
    pub transit_fraction: f64,
    /// Records (packet samples) each monitor observes.
    pub records_per_monitor: u64,
    /// Zipf exponent of flow popularity (elephants and mice); 0 = uniform.
    pub skew: f64,
    /// Workload seed.
    pub seed: u64,
}

impl FlowWorkload {
    /// A typical backbone-ish default: 8 monitors, 50k flows each, 20%
    /// transit, 400k records, heavy-tailed flow sizes.
    pub fn example() -> Self {
        FlowWorkload {
            monitors: 8,
            flows_per_monitor: 50_000,
            transit_fraction: 0.2,
            records_per_monitor: 400_000,
            skew: 1.1,
            seed: 0xF10E,
        }
    }

    /// Exact number of distinct flows across all monitors.
    pub fn true_distinct_flows(&self) -> u64 {
        let transit =
            (self.transit_fraction.clamp(0.0, 1.0) * self.flows_per_monitor as f64).round() as u64;
        let local = self.flows_per_monitor - transit;
        transit + local * self.monitors as u64
    }

    /// The flow table (5-tuples) visible to monitor `m`. Index `< transit
    /// count` ⇒ a backbone flow shared by every monitor.
    fn flow_of(&self, monitor: usize, index: u64) -> FlowRecord {
        let transit =
            (self.transit_fraction.clamp(0.0, 1.0) * self.flows_per_monitor as f64).round() as u64;
        // Domain-separate: block 0 = transit flows, block m+1 = local.
        let block = if index < transit {
            0u64
        } else {
            monitor as u64 + 1
        };
        let id = gt_hash::mix64(self.seed ^ (block << 40) ^ index);
        // Derive plausible-looking header fields from the id.
        FlowRecord {
            src_ip: (id >> 32) as u32,
            dst_ip: id as u32,
            src_port: 1024 + ((id >> 17) % 60_000) as u16,
            dst_port: [80u16, 443, 53, 8080, 22][(id % 5) as usize],
            protocol: if id % 10 < 7 { 6 } else { 17 },
            bytes: 0, // filled per record
        }
    }

    /// Generate monitor `m`'s record stream.
    pub fn monitor_stream(&self, monitor: usize) -> Vec<FlowRecord> {
        assert!(monitor < self.monitors, "monitor index out of range");
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ gt_hash::mix64(0xF10E_0000 + monitor as u64));
        let zipf = (self.skew > 0.0).then(|| ZipfSampler::new(self.flows_per_monitor, self.skew));
        (0..self.records_per_monitor)
            .map(|_| {
                let index = match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(0..self.flows_per_monitor),
                };
                let mut rec = self.flow_of(monitor, index);
                rec.bytes = 40 + rng.gen_range(0..1460u32);
                rec
            })
            .collect()
    }

    /// All monitors' record streams.
    pub fn generate(&self) -> Vec<Vec<FlowRecord>> {
        (0..self.monitors).map(|m| self.monitor_stream(m)).collect()
    }

    /// All monitors' streams reduced to sketch labels.
    pub fn label_streams(&self) -> crate::workload::StreamSet {
        let streams = self
            .generate()
            .into_iter()
            .map(|recs| recs.iter().map(FlowRecord::label).collect())
            .collect();
        // Wrap in a StreamSet so the scenario runner accepts it; the spec
        // recorded is a synthetic equivalent (distinct structure only).
        crate::workload::StreamSet {
            streams,
            spec: crate::workload::WorkloadSpec {
                parties: self.monitors,
                distinct_per_party: self.flows_per_monitor,
                overlap: self.transit_fraction,
                items_per_party: self.records_per_monitor,
                distribution: if self.skew > 0.0 {
                    crate::workload::Distribution::Zipf(self.skew)
                } else {
                    crate::workload::Distribution::Uniform
                },
                seed: self.seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> FlowWorkload {
        FlowWorkload {
            monitors: 4,
            flows_per_monitor: 2_000,
            transit_fraction: 0.25,
            records_per_monitor: 10_000,
            skew: 1.0,
            seed: 42,
        }
    }

    #[test]
    fn labels_are_distinct_per_five_tuple() {
        let w = small();
        let mut labels = HashSet::new();
        let mut tuples = HashSet::new();
        for m in 0..w.monitors {
            for i in 0..w.flows_per_monitor {
                let f = w.flow_of(m, i);
                let key = (f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.protocol);
                if tuples.insert(key) {
                    assert!(labels.insert(f.label()), "label collision for {key:?}");
                }
            }
        }
    }

    #[test]
    fn transit_flows_are_shared_local_flows_are_not() {
        let w = small();
        let transit = (0.25 * 2_000f64) as u64;
        for m in 1..w.monitors {
            for i in 0..transit {
                assert_eq!(
                    w.flow_of(0, i).label(),
                    w.flow_of(m, i).label(),
                    "transit flow {i}"
                );
            }
            assert_ne!(w.flow_of(0, transit).label(), w.flow_of(m, transit).label());
        }
    }

    #[test]
    fn ground_truth_matches_brute_force() {
        let w = small();
        let mut all = HashSet::new();
        for m in 0..w.monitors {
            for i in 0..w.flows_per_monitor {
                all.insert(w.flow_of(m, i).label());
            }
        }
        assert_eq!(all.len() as u64, w.true_distinct_flows());
    }

    #[test]
    fn streams_are_deterministic_and_in_table() {
        let w = small();
        assert_eq!(w.monitor_stream(1), w.monitor_stream(1));
        let table: HashSet<u64> = (0..w.flows_per_monitor)
            .map(|i| w.flow_of(2, i).label())
            .collect();
        for rec in w.monitor_stream(2) {
            assert!(table.contains(&rec.label()));
            assert!(rec.bytes >= 40);
        }
    }

    #[test]
    fn skew_produces_elephants() {
        let w = small();
        let stream = w.monitor_stream(0);
        let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for r in &stream {
            *counts.entry(r.label()).or_insert(0) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let mean = stream.len() as f64 / counts.len() as f64;
        assert!(max as f64 > 10.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn label_streams_glue_works_with_runner() {
        let w = small();
        let set = w.label_streams();
        assert_eq!(set.streams.len(), 4);
        let config = gt_core::SketchConfig::new(0.1, 0.05).unwrap();
        let report = crate::runner::run_batch(&config, 7, &set, &[], &[]);
        let rel = (report.estimate - report.truth as f64).abs() / report.truth as f64;
        assert!(rel < 0.1, "est {} truth {}", report.estimate, report.truth);
        // Truth from the runner's oracle must be ≤ the table size (not
        // every flow need be touched).
        assert!(report.truth <= w.true_distinct_flows());
    }
}
