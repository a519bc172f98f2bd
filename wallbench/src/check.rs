//! `check`: compare a results file against an earlier one under the
//! per-metric bounds of `BENCHMARK.json`, and hold the gates (accuracy,
//! failures, correctness) to an exact repeat.

use crate::json::Json;
use crate::metrics::GATES;
use crate::trace::median;

/// One end-to-end metric's regression rule.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the earlier median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            let text = |k: &str| {
                field(k)?
                    .as_str()
                    .map(str::to_owned)
                    .ok_or(format!("end_to_end {k} is not a string"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: field("bound")?
                    .as_f64()
                    .ok_or("end_to_end bound is not a number")?,
            })
        })
        .collect()
}

/// Every rule `check` applies: the `end_to_end` bounds of a parsed
/// `BENCHMARK.json`, then each of [`GATES`] with bound 0 — deterministic
/// for a seed and run length, so any rise is a regression.
pub fn rules(spec: &Json) -> Result<Vec<Bound>, String> {
    let mut rules = bounds(spec)?;
    rules.extend(GATES.iter().map(|&(name, unit)| Bound {
        name: name.into(),
        unit: unit.into(),
        lower_is_better: true,
        bound: 0.0,
    }));
    Ok(rules)
}

/// Settings two results files must share to be compared: the metrics of
/// another seed, run length or mode describe other work.
const SETTINGS: [&str; 4] = ["seed", "seconds", "quick", "trace"];

/// How a metric moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// tell (unless every later run is better than every earlier one).
    Unresolved,
    /// Present earlier, absent now.
    Missing,
}

impl Verdict {
    /// Lower-case label for the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Earlier runs' values.
    pub before: Vec<f64>,
    /// Later runs' values.
    pub after: Vec<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// Median of the earlier runs (the base of the ratio).
    pub fn base(&self) -> f64 {
        median(&self.before)
    }

    /// Later median over earlier median.
    pub fn ratio(&self) -> f64 {
        median(&self.after) / self.base()
    }
}

/// The values of `metric` on `workload` in a results file.
fn values(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let values: Vec<f64> = m
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Run-to-run spread of one side: range over median.
fn spread(v: &[f64]) -> f64 {
    let (lo, hi) = v
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / median(v).abs()
}

fn verdict(b: &Bound, before: &[f64], after: &[f64]) -> Verdict {
    let (base, now) = (median(before), median(after));
    // Positive when the later runs are worse.
    let worse = if base == now {
        0.0
    } else if b.lower_is_better {
        (now - base) / base.abs()
    } else {
        (base - now) / base.abs()
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let all_better = if b.lower_is_better {
        max(after) < min(before)
    } else {
        min(after) > max(before)
    };
    if spread(before).max(spread(after)) > b.bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > b.bound {
        Verdict::Regressed
    } else if worse < -b.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compare every bounded metric on every workload of `before`. A workload
/// whose run failed on either side adds a `correct` row (regressed when
/// the later run failed). Files measured with other settings are refused.
pub fn compare(bounds: &[Bound], before: &Json, after: &Json) -> Result<Vec<Row>, String> {
    for key in SETTINGS {
        let (b, a) = (before.get(key), after.get(key));
        if b != a {
            return Err(format!(
                "results differ in {key} (before {}, after {}); compare runs of one setting",
                b.map_or("none".into(), Json::to_string),
                a.map_or("none".into(), Json::to_string)
            ));
        }
    }
    let workloads = before
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("earlier results have no workloads")?;
    let correct = |results: &Json, workload: &str| {
        let record = results.get("workloads").and_then(|w| w.get(workload));
        record.map(|r| r.get("correct") == Some(&Json::Bool(true)))
    };
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        let was = correct(before, workload) == Some(true);
        if let Some(is) = correct(after, workload).filter(|&is| !(was && is)) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "correct".into(),
                unit: "bool".into(),
                before: vec![f64::from(u8::from(was))],
                after: vec![f64::from(u8::from(is))],
                verdict: if is {
                    Verdict::Improved
                } else {
                    Verdict::Regressed
                },
            });
        }
        for b in bounds {
            let Some(earlier) = values(before, workload, &b.name) else {
                continue;
            };
            let later = values(after, workload, &b.name).unwrap_or_default();
            let verdict = if later.is_empty() {
                Verdict::Missing
            } else {
                verdict(b, &earlier, &later)
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: b.name.clone(),
                unit: b.unit.clone(),
                before: earlier,
                after: later,
                verdict,
            });
        }
    }
    Ok(rows)
}
