//! `gtsketch` — command-line coordinated sketching.
//!
//! Build sketches from label streams on stdin, persist them in the wire
//! format, merge sketch files from independent observers, and query the
//! union — the paper's party/referee pipeline as shell plumbing:
//!
//! ```text
//! # on each monitoring host (same --seed everywhere!)
//! zcat flows_a.gz | gtsketch build --eps 0.05 --delta 0.01 --seed 7 --out a.gts
//! zcat flows_b.gz | gtsketch build --eps 0.05 --delta 0.01 --seed 7 --out b.gts
//!
//! # at the collector
//! gtsketch estimate a.gts b.gts
//! gtsketch merge --out union.gts a.gts b.gts
//! gtsketch info union.gts
//! ```
//!
//! Input lines that parse as decimal `u64` below `2^61 − 1` are used as
//! raw labels; anything else (or everything, with `--hashed`) is folded
//! through the fixed label mixer, so arbitrary strings work.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use gt_sketch::streams::{decode_sketch, encode_sketch};
use gt_sketch::{DistinctSketch, SketchConfig};

const USAGE: &str = "\
usage:
  gtsketch build --eps <f> --delta <f> --seed <u64> --out <file> [--hashed]   (labels on stdin)
  gtsketch merge --out <file> <sketch files...>
  gtsketch estimate <sketch files...>
  gtsketch info <sketch file>
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gtsketch: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parse one input line into a sketch label (see module docs).
fn parse_label(line: &str, force_hash: bool) -> Option<u64> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    if !force_hash {
        if let Ok(v) = line.parse::<u64>() {
            if v < gt_sketch::hash::P61 {
                return Some(v);
            }
            return Some(gt_sketch::fold61(v));
        }
    }
    Some(gt_sketch::hash::mix::fold_label(&line))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn positional(args: &[String]) -> Vec<&String> {
    // Everything that is not a flag or a flag's value.
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = a != "--hashed"; // the only boolean flag
            continue;
        }
        out.push(a);
    }
    out
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let eps: f64 = flag_value(args, "--eps")
        .ok_or("build requires --eps")?
        .parse()
        .map_err(|e| format!("--eps: {e}"))?;
    let delta: f64 = flag_value(args, "--delta")
        .ok_or("build requires --delta")?
        .parse()
        .map_err(|e| format!("--delta: {e}"))?;
    let seed: u64 = flag_value(args, "--seed")
        .ok_or("build requires --seed (the coordination token)")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let out = flag_value(args, "--out").ok_or("build requires --out")?;
    let hashed = args.iter().any(|a| a == "--hashed");

    let config = SketchConfig::new(eps, delta).map_err(|e| e.to_string())?;
    let mut sketch = DistinctSketch::new(&config, seed);

    let stdin = std::io::stdin();
    let mut lines = 0u64;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if let Some(label) = parse_label(&line, hashed) {
            sketch.insert(label);
            lines += 1;
        }
    }
    write_sketch(out, &sketch)?;
    eprintln!(
        "gtsketch: {lines} items -> {} ({} bytes), estimate {}",
        out,
        encode_sketch(&sketch).len(),
        sketch.estimate_distinct()
    );
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").ok_or("merge requires --out")?;
    let files = positional(args);
    if files.is_empty() {
        return Err("merge requires at least one input sketch".into());
    }
    let union = read_and_merge(&files)?;
    write_sketch(out, &union)?;
    eprintln!(
        "gtsketch: merged {} sketches -> {out}, estimate {}",
        files.len(),
        union.estimate_distinct()
    );
    Ok(())
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    if files.is_empty() {
        return Err("estimate requires at least one sketch file".into());
    }
    let union = read_and_merge(&files)?;
    let est = union.estimate_distinct();
    println!("{}", est.rounded());
    eprintln!(
        "gtsketch: {} (interval [{:.0}, {:.0}] at {:.0}% confidence)",
        est,
        est.lower_bound(),
        est.upper_bound(),
        (1.0 - est.delta) * 100.0
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let files = positional(args);
    let [file] = files.as_slice() else {
        return Err("info takes exactly one sketch file".into());
    };
    let sketch = read_sketch(file)?;
    let cfg = sketch.config();
    println!("file:           {file}");
    println!("epsilon:        {}", cfg.epsilon());
    println!("delta:          {}", cfg.delta());
    println!("trials:         {}", cfg.trials());
    println!("capacity:       {}", cfg.capacity());
    println!("hash family:    {:?}", cfg.hash_kind());
    println!("master seed:    {:#x}", sketch.master_seed());
    println!("items observed: {}", sketch.items_observed());
    println!("sample entries: {}", sketch.sample_entries());
    println!("max level:      {}", sketch.max_level());
    println!("estimate:       {}", sketch.estimate_distinct());
    Ok(())
}

fn read_sketch(path: &str) -> Result<DistinctSketch, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    decode_sketch(bytes::Bytes::from(raw)).map_err(|e| format!("{path}: {e}"))
}

fn read_and_merge(files: &[&String]) -> Result<DistinctSketch, String> {
    let mut union: Option<DistinctSketch> = None;
    for f in files {
        let sketch = read_sketch(f)?;
        union = Some(match union {
            None => sketch,
            Some(mut acc) => {
                acc.merge_from(&sketch)
                    .map_err(|e| format!("{f}: cannot union: {e}"))?;
                acc
            }
        });
    }
    Ok(union.expect("files is non-empty"))
}

fn write_sketch(path: &str, sketch: &DistinctSketch) -> Result<(), String> {
    let payload = encode_sketch(sketch);
    let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    f.write_all(&payload).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_label_modes() {
        // Decimal in range: used raw.
        assert_eq!(parse_label("42", false), Some(42));
        // Decimal out of field range: folded (still deterministic).
        let big = u64::MAX.to_string();
        let folded = parse_label(&big, false).unwrap();
        assert!(folded < gt_sketch::hash::P61);
        // Strings: hashed.
        let a = parse_label("10.0.0.1:443", false).unwrap();
        assert_eq!(parse_label("10.0.0.1:443", false), Some(a));
        assert_ne!(parse_label("10.0.0.2:443", false), Some(a));
        // --hashed forces hashing even for decimals.
        assert_ne!(parse_label("42", true), Some(42));
        // Blank lines skipped.
        assert_eq!(parse_label("   ", false), None);
    }

    #[test]
    fn flag_and_positional_parsing() {
        let args: Vec<String> = [
            "--eps", "0.1", "a.gts", "--hashed", "b.gts", "--out", "u.gts",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(flag_value(&args, "--eps"), Some("0.1"));
        assert_eq!(flag_value(&args, "--out"), Some("u.gts"));
        assert_eq!(flag_value(&args, "--nope"), None);
        let pos = positional(&args);
        assert_eq!(pos, vec!["a.gts", "b.gts"]);
    }

    #[test]
    fn file_roundtrip_and_merge() {
        let dir = std::env::temp_dir().join("gtsketch_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.gts");
        let pb = dir.join("b.gts");
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        let mut a = DistinctSketch::new(&config, 9);
        let mut b = DistinctSketch::new(&config, 9);
        a.extend_labels((0..500).map(gt_sketch::fold61));
        b.extend_labels((250..750).map(gt_sketch::fold61));
        write_sketch(pa.to_str().unwrap(), &a).unwrap();
        write_sketch(pb.to_str().unwrap(), &b).unwrap();

        let fa = pa.to_str().unwrap().to_string();
        let fb = pb.to_str().unwrap().to_string();
        let union = read_and_merge(&[&fa, &fb]).unwrap();
        assert_eq!(union.estimate_distinct().value, 750.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_of_uncoordinated_files_reports_error() {
        let dir = std::env::temp_dir().join("gtsketch_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.gts");
        let pb = dir.join("b.gts");
        let config = SketchConfig::new(0.1, 0.1).unwrap();
        write_sketch(pa.to_str().unwrap(), &DistinctSketch::new(&config, 1)).unwrap();
        write_sketch(pb.to_str().unwrap(), &DistinctSketch::new(&config, 2)).unwrap();
        let fa = pa.to_str().unwrap().to_string();
        let fb = pb.to_str().unwrap().to_string();
        let err = read_and_merge(&[&fa, &fb]).unwrap_err();
        assert!(err.contains("cannot union"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sketch files and input lines come from outside the process.
    /// Truncated, flipped and spliced sketch files read as an error or as
    /// a sketch that re-encodes to the file's bytes, alone and merged
    /// after an intact file; random byte lines parse to `None` exactly
    /// when blank, and otherwise to a label in the field. Nothing panics.
    #[test]
    fn mutated_files_and_random_lines_fail_or_read_validly() {
        let dir = std::env::temp_dir().join(format!("gtsketch_cli_fuzz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = SketchConfig::new(0.2, 0.2).unwrap();
        let mut a = DistinctSketch::new(&config, 4);
        let mut b = DistinctSketch::new(&config, 4);
        a.extend_labels((0..3_000).map(gt_sketch::fold61));
        b.extend_labels((2_000..2_050).map(gt_sketch::fold61));
        let (a_bytes, b_bytes) = (encode_sketch(&a), encode_sketch(&b));
        let intact = dir.join("a.gts").to_str().unwrap().to_string();
        write_sketch(&intact, &a).unwrap();
        let mutant = dir.join("m.gts").to_str().unwrap().to_string();

        let mut rng = 0u64;
        let mut next = || {
            rng += 1;
            gt_sketch::hash::mix64(rng ^ 0x0C11)
        };
        let (mut read, mut refused) = (0, 0);
        for case in 0..900u64 {
            let (src, other) = if case % 2 == 0 {
                (&a_bytes, &b_bytes)
            } else {
                (&b_bytes, &a_bytes)
            };
            let mut bytes = src.to_vec();
            match case % 3 {
                0 => bytes.truncate((next() % bytes.len() as u64) as usize),
                1 => {
                    for _ in 0..1 + next() % 3 {
                        let at = (next() % bytes.len() as u64) as usize;
                        bytes[at] ^= (next() % 255 + 1) as u8;
                    }
                }
                _ => {
                    let cut = (next() % bytes.len() as u64) as usize;
                    bytes.truncate(cut);
                    bytes.extend_from_slice(&other[cut.min(other.len())..]);
                }
            }
            std::fs::write(&mutant, &bytes).unwrap();
            match read_sketch(&mutant) {
                Ok(sketch) => {
                    assert_eq!(encode_sketch(&sketch).as_ref(), &bytes[..], "case {case}");
                    let union = read_and_merge(&[&intact, &mutant]);
                    match a.merged(&sketch) {
                        Ok(expect) => assert_eq!(
                            encode_sketch(&union.unwrap()),
                            encode_sketch(&expect),
                            "case {case}"
                        ),
                        Err(_) => assert!(union.is_err(), "case {case}"),
                    }
                    read += 1;
                }
                Err(msg) => {
                    assert!(msg.starts_with(&mutant), "case {case}: {msg}");
                    assert!(read_and_merge(&[&intact, &mutant]).is_err(), "case {case}");
                    refused += 1;
                }
            }
        }
        assert!(read > 0 && refused > 0, "{read} {refused}");

        for case in 0..2_000u64 {
            let len = (next() % 24) as usize;
            let raw: Vec<u8> = (0..len)
                .map(|_| match next() % 4 {
                    0 => b"0123456789"[(next() % 10) as usize],
                    1 => b" \t-+"[(next() % 4) as usize],
                    _ => next() as u8,
                })
                .collect();
            let line = String::from_utf8_lossy(&raw);
            for force_hash in [false, true] {
                match parse_label(&line, force_hash) {
                    None => assert!(line.trim().is_empty(), "case {case}: {line:?}"),
                    Some(label) => assert!(label < gt_sketch::hash::P61, "case {case}: {line:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
