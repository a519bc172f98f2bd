//! E4 — per-item ingest cost and throughput.
//!
//! Claims: amortized O(1) hash evaluations per trial per item (promotions
//! are rare and amortize away), so throughput is flat in stream length and
//! scales as `1/trials`. Duplicate-heavy streams are no slower than
//! distinct-heavy ones (dedup is one probe).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gt_core::{DistinctSketch, SketchConfig};
use std::hint::black_box;

fn labels(n: u64, salt: u64) -> Vec<u64> {
    (0..n).map(|i| gt_hash::fold61(i ^ (salt << 40))).collect()
}

/// Throughput vs epsilon (capacity): distinct-heavy stream.
fn ingest_vs_epsilon(c: &mut Criterion) {
    let data = labels(100_000, 1);
    let mut group = c.benchmark_group("e4_ingest_vs_epsilon");
    group.throughput(Throughput::Elements(data.len() as u64));
    for eps in [0.05, 0.1, 0.2] {
        let config = SketchConfig::new(eps, 0.05).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(eps), &config, |b, cfg| {
            b.iter(|| {
                let mut s = DistinctSketch::new(cfg, 7);
                s.extend_labels(data.iter().copied());
                black_box(s.estimate_distinct().value)
            });
        });
    }
    group.finish();
}

/// Throughput vs trial count at fixed capacity: cost must be ~linear in
/// trials (each item hashes once per trial).
fn ingest_vs_trials(c: &mut Criterion) {
    let data = labels(100_000, 2);
    let mut group = c.benchmark_group("e4_ingest_vs_trials");
    group.throughput(Throughput::Elements(data.len() as u64));
    for trials in [1usize, 5, 15, 29] {
        let config =
            SketchConfig::from_shape(0.1, 0.05, 1200, trials, gt_hash::HashFamilyKind::Pairwise)
                .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(trials), &config, |b, cfg| {
            b.iter(|| {
                let mut s = DistinctSketch::new(cfg, 7);
                s.extend_labels(data.iter().copied());
                black_box(s.sample_entries())
            });
        });
    }
    group.finish();
}

/// Duplicate-heavy vs distinct-heavy streams of the same length.
fn ingest_duplication(c: &mut Criterion) {
    let n = 100_000u64;
    let distinct_heavy = labels(n, 3);
    let duplicate_heavy: Vec<u64> = {
        let uni = labels(n / 100, 4);
        (0..n).map(|i| uni[(i % (n / 100)) as usize]).collect()
    };
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let mut group = c.benchmark_group("e4_ingest_duplication");
    group.throughput(Throughput::Elements(n));
    for (name, data) in [
        ("distinct_heavy", &distinct_heavy),
        ("duplicate_heavy", &duplicate_heavy),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), data, |b, data| {
            b.iter(|| {
                let mut s = DistinctSketch::new(&config, 7);
                s.extend_labels(data.iter().copied());
                black_box(s.max_level())
            });
        });
    }
    group.finish();
}

/// Stream length scaling at fixed distinct count: per-item cost must be
/// flat (amortized O(1) promotions).
fn ingest_vs_length(c: &mut Criterion) {
    let distinct = labels(20_000, 5);
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let mut group = c.benchmark_group("e4_ingest_vs_length");
    for mult in [1u64, 4, 16] {
        let items = 20_000 * mult;
        let data: Vec<u64> = (0..items)
            .map(|i| distinct[(i % 20_000) as usize])
            .collect();
        group.throughput(Throughput::Elements(items));
        group.bench_with_input(BenchmarkId::from_parameter(items), &data, |b, data| {
            b.iter(|| {
                let mut s = DistinctSketch::new(&config, 7);
                s.extend_labels(data.iter().copied());
                black_box(s.items_observed())
            });
        });
    }
    group.finish();
}

/// Item-major (per-item) vs trial-major reference vs the
/// batch-monomorphic kernel on the same data. `extend_labels` now feeds
/// the kernel through a stack buffer, so the per-item contender is an
/// explicit `insert` loop. Summary numbers (and the checked claim) come
/// from `experiments e4`; this group gives the Criterion-grade confidence
/// intervals.
fn ingest_batched(c: &mut Criterion) {
    let data = labels(100_000, 6);
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let mut group = c.benchmark_group("e4_ingest_batched");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("item_major", |b| {
        b.iter(|| {
            let mut s = DistinctSketch::new(&config, 7);
            for &l in &data {
                s.insert(l);
            }
            black_box(s.sample_entries())
        });
    });
    group.bench_function("trial_major_reference", |b| {
        b.iter(|| {
            let mut s = DistinctSketch::new(&config, 7);
            s.extend_slice_reference(&data);
            black_box(s.sample_entries())
        });
    });
    group.bench_function("trial_major_kernel", |b| {
        b.iter(|| {
            let mut s = DistinctSketch::new(&config, 7);
            s.extend_slice(&data);
            black_box(s.sample_entries())
        });
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ingest_vs_epsilon, ingest_vs_trials, ingest_duplication, ingest_vs_length, ingest_batched
);
criterion_main!(benches);
