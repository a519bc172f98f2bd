//! Experiment runner: regenerates the tables in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p gt-bench --release --bin experiments -- all          # every experiment
//! cargo run -p gt-bench --release --bin experiments -- e1 e5       # a subset
//! cargo run -p gt-bench --release --bin experiments -- --quick all # smaller sweeps
//! cargo run -p gt-bench --release --bin experiments -- --list
//! ```
//!
//! Tables print to stdout and are mirrored as CSV under `results/`. Each
//! table's checked claims print as `PASS:`/`FAIL:` lines under it; every
//! selected experiment runs, then the failed checks are listed and the
//! process exits 1 if there are any.

use std::path::PathBuf;
use std::time::Instant;

use gt_bench::experiments::{find, REGISTRY};
use gt_core::metrics::{to_json, to_text, Exposition};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let list = args.iter().any(|a| a == "--list" || a == "-l");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();

    if list || ids.is_empty() {
        print_usage();
        return;
    }

    let selected: Vec<&'static gt_bench::experiments::Experiment> =
        if ids.iter().any(|s| s.as_str() == "all") {
            REGISTRY.iter().collect()
        } else {
            let mut out = Vec::new();
            for id in &ids {
                match find(id) {
                    Some(e) => out.push(e),
                    None => {
                        eprintln!("unknown experiment '{id}' — use --list to see available ids");
                        std::process::exit(2);
                    }
                }
            }
            out
        };
    if selected.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    let results_dir = PathBuf::from("results");
    println!(
        "running {} experiment(s){}...\n",
        selected.len(),
        if quick { " in --quick mode" } else { "" }
    );
    let (mut checks, mut failures) = (0, Vec::new());
    for exp in selected {
        let t0 = Instant::now();
        let tables = (exp.run)(quick);
        for table in &tables {
            println!("{}", table.render());
            checks += table.checks.len();
            failures.extend(table.failures());
            match table.write_csv(&results_dir) {
                Ok(path) => println!("  csv: {}\n", path.display()),
                Err(e) => eprintln!("  csv write failed: {e}\n"),
            }
        }
        println!("[{} finished in {:.1?}]\n", exp.id, t0.elapsed());
    }

    // Always close with the sketch-ops observability report so every run
    // (including CI smoke) exercises the metrics layer end to end.
    let blocks: [(&str, &dyn Exposition); 3] = [
        ("sketch-ops stats", &gt_bench::stats::demo_scenario()),
        ("delta-plane stats", &gt_bench::stats::demo_delta_scenario()),
        ("keyed-store stats", &gt_bench::stats::demo_store()),
    ];
    for (header, block) in blocks {
        print!("{header}\n{}", to_text(block));
        println!("json: {}", to_json(block));
    }

    if failures.is_empty() {
        println!("\n{checks} check(s), all passed");
    } else {
        println!("\n{} of {checks} check(s) failed:", failures.len());
        for failure in &failures {
            println!("  FAIL: {failure}");
        }
        std::process::exit(1);
    }
}

fn print_usage() {
    println!("usage: experiments [--quick] <ids...|all>\n");
    println!("available experiments:");
    for e in REGISTRY {
        println!("  {:>4}  {}", e.id, e.description);
    }
    println!("\nCriterion benches for fine-grained time-domain numbers:");
    println!("  e4    cargo bench -p gt-bench --bench ingest     (per-item cost, throughput)");
    println!("  e10   cargo bench -p gt-bench --bench merge      (referee cost vs parties)");
    println!("  e14   cargo bench -p gt-bench --bench parallel   (fan-out/merge ingest)");
    println!("        cargo bench -p gt-bench --bench hashing    (hash family micro-costs)");
    println!("        cargo bench -p gt-bench --bench baselines  (update cost vs baselines)");
}
