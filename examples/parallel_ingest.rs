//! Multicore ingestion: the distributed-streams model as a parallelism
//! pattern on one machine.
//!
//! Coordinated sketches merge losslessly, so "split the input across
//! threads, sketch locally, merge" produces *bit-identical* state to a
//! sequential pass — parallel speedup with zero accuracy cost. Both ways
//! below are scoped [`gt_sketch::ConcurrentSketch`] writers, one per
//! balanced chunk of the input:
//!
//! * batch: each writer takes its whole chunk in one `extend_slice` call
//!   and a threshold that never fills, so it propagates once, on drop;
//! * online: default writers insert item by item, each buffering locally
//!   and propagating into the shared sketch as its buffer fills.
//!
//! Run with: `cargo run --release --example parallel_ingest`

use std::time::Instant;

use gt_core::{balanced_chunks, effective_workers};
use gt_sketch::{ConcurrentSketch, DistinctSketch, SketchConfig};

fn main() {
    let cores = effective_workers();
    println!("available parallelism: {cores} core(s)");
    if cores == 1 {
        println!("(single-core host: expect NO speedup — the demonstration is that");
        println!(" parallel chunk+merge is BIT-IDENTICAL to sequential, at any thread count)\n");
    }

    let config = SketchConfig::new(0.02, 0.01).expect("valid config");
    let master_seed = 0x9A7A;
    let n_items = 8_000_000u64;
    let n_distinct = 2_000_000u64;

    println!("generating {n_items} items over {n_distinct} distinct labels...");
    let labels: Vec<u64> = (0..n_items)
        .map(|i| gt_sketch::fold61(i % n_distinct))
        .collect();

    // --- batch: sequential reference vs scoped writers ------------------
    let t0 = Instant::now();
    let mut sequential = DistinctSketch::new(&config, master_seed);
    sequential.extend_slice(&labels);
    let t_seq = t0.elapsed();

    println!("\nthreads  time      speedup  estimate (truth {n_distinct})");
    println!(
        "{:>7}  {:>8.1?}  {:>6.2}x  {:.0}",
        1,
        t_seq,
        1.0,
        sequential.estimate_distinct().value
    );

    for threads in [2, 4, 8] {
        let t0 = Instant::now();
        let batch = ConcurrentSketch::new(&config, master_seed);
        crossbeam::scope(|scope| {
            // More writers than cores only time-slice, so clamp.
            for chunk in balanced_chunks(&labels, threads.min(cores)) {
                let batch = &batch;
                scope.spawn(move |_| batch.writer_with_threshold(u64::MAX).extend_slice(chunk));
            }
        })
        .unwrap();
        let dt = t0.elapsed();
        // Accuracy cost of parallelism: none. Same samples, same estimate.
        assert_eq!(
            batch.estimate_distinct().value,
            sequential.estimate_distinct().value,
            "parallel build must be bit-identical"
        );
        println!(
            "{:>7}  {:>8.1?}  {:>6.2}x  {:.0}  (identical state: verified)",
            threads,
            dt,
            t_seq.as_secs_f64() / dt.as_secs_f64(),
            batch.estimate_distinct().value
        );
    }

    // --- online: concurrent writers into one shared sketch -------------
    println!("\nonline concurrent ingest (8 writers):");
    let concurrent = ConcurrentSketch::new(&config, master_seed);
    let t0 = Instant::now();
    crossbeam::scope(|scope| {
        for chunk in balanced_chunks(&labels, 8) {
            let concurrent = &concurrent;
            scope.spawn(move |_| {
                let mut writer = concurrent.writer();
                for &l in chunk {
                    writer.insert(l);
                }
            }); // drop flushes the writer's buffer
        }
    })
    .unwrap();
    let dt = t0.elapsed();
    let snap = concurrent.snapshot();
    // Every writer flushed, so the shared sketch is the sequential one.
    assert_eq!(
        snap.estimate_distinct().value,
        sequential.estimate_distinct().value,
        "flushed concurrent sketch must be bit-identical"
    );
    println!(
        "  {:.1?}  estimate {:.0}  ({:.1} M items/s)",
        dt,
        snap.estimate_distinct().value,
        n_items as f64 / dt.as_secs_f64() / 1e6
    );

    // The concurrent result is also mergeable with the batch-built sketch —
    // they are all parties in the same coordinated universe.
    let combined = snap.sketch().merged(&sequential).unwrap();
    let rel = (combined.estimate_distinct().value - n_distinct as f64).abs() / n_distinct as f64;
    println!(
        "\nconcurrent ∪ batch estimate: {:.0} (rel err {:.2}%)",
        combined.estimate_distinct().value,
        rel * 100.0
    );
    assert!(rel < 0.02, "outside contract: {rel}");
}
