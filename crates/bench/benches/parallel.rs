//! E14 — parallel ingest: fan-out/merge vs sequential.
//!
//! Claim: a batch build as scoped `ConcurrentSketch` writers, one per
//! balanced chunk, produces bit-identical state (verified in tests) at
//! `~1/threads` the wall time on a multicore host. On a
//! single-core host (like CI containers) this bench instead quantifies the
//! fan-out overhead; EXPERIMENTS.md records which regime the numbers came
//! from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gt_core::{balanced_chunks, effective_workers, ConcurrentSketch, SketchConfig};
use std::hint::black_box;

fn data(n: u64) -> Vec<u64> {
    (0..n).map(|i| gt_hash::fold61(i % (n / 2))).collect()
}

fn batch_build(c: &mut Criterion) {
    let labels = data(400_000);
    let config = SketchConfig::new(0.1, 0.05).unwrap();
    let mut group = c.benchmark_group("e14_batch_build");
    group.throughput(Throughput::Elements(labels.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let sketch = ConcurrentSketch::new(&config, 7);
                crossbeam::scope(|scope| {
                    for chunk in balanced_chunks(&labels, t.min(effective_workers())) {
                        let sketch = &sketch;
                        scope.spawn(move |_| {
                            sketch.writer_with_threshold(u64::MAX).extend_slice(chunk)
                        });
                    }
                })
                .unwrap();
                black_box(sketch.snapshot().sketch().sample_entries())
            });
        });
    }
    group.finish();
}

/// The online job: each writer buffers thread-locally and propagates into
/// one shared `ConcurrentSketch`, at a large and a small ε (r·c below and
/// far above `WRITER_BUF`, so both sides of the default threshold run).
fn concurrent_online(c: &mut Criterion) {
    let labels = data(400_000);
    let mut group = c.benchmark_group("e14_concurrent_online");
    group.throughput(Throughput::Elements(labels.len() as u64));
    for eps in [0.1, 0.02] {
        let config = SketchConfig::new(eps, 0.05).unwrap();
        for writers in [1usize, 2, 4] {
            let id = BenchmarkId::new(format!("eps{eps}"), writers);
            group.bench_with_input(id, &writers, |b, &w| {
                b.iter(|| {
                    let sketch = ConcurrentSketch::new(&config, 7);
                    crossbeam::scope(|scope| {
                        for chunk in labels.chunks(labels.len().div_ceil(w)) {
                            let sketch = &sketch;
                            scope.spawn(move |_| {
                                let mut writer = sketch.writer();
                                for &l in chunk {
                                    writer.insert(l);
                                }
                            });
                        }
                    })
                    .unwrap();
                    black_box(sketch.items_observed())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = batch_build, concurrent_online
);
criterion_main!(benches);
