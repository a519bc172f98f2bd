//! Set-expression evaluation over coordinated samples: estimate the
//! cardinality of **arbitrary** union / intersection / difference
//! expressions over many streams, from their sketches alone.
//!
//! ## Why coordination makes this possible
//!
//! Every sketch built from the same `(config, master_seed)` assigns every
//! label the same per-trial hash level. Aligning the trials of all
//! operands to a common level `l*` therefore yields Bernoulli samples of
//! rate `2^{-l*}` drawn with the **same** coin flips across operands —
//! so the sampled sets compose under ∪/∩/∖ exactly like the underlying
//! label sets do, and `|expr(S_1, …, S_k)| · 2^{l*}` is an unbiased
//! estimate of `|expr(A_1, …, A_k)|` for any set expression. This is the
//! framework of Dasgupta–Lang–Rhodes–Thaler ("A Framework for Estimating
//! Stream Expression Cardinalities") applied to the Gibbons–Tirthapura
//! coordinated sample; pairwise similarity (`crate::similarity`) is its
//! depth-1 special case.
//!
//! ## The alignment rule
//!
//! Each trial of each operand carries its own level. For one expression
//! evaluation, trial `t` is aligned to
//! `l* = max { level_t(operand) : operand referenced by the expression }`
//! — the smallest level at which every referenced operand's sample is a
//! valid Bernoulli sample. Using the per-expression max (rather than the
//! max over *all* operands in the context) keeps every pairwise query
//! value-identical to [`crate::similarity::similarity`] and wastes no
//! sampling rate on operands the expression never mentions.
//!
//! [`ExprContext`] evaluates over [`LeveledTrials`] views: per trial the
//! label-sorted sample with each entry's hash level. Because the sample
//! invariant is `S = {x : lvl(x) ≥ level}`, filtering a view by
//! `hash level ≥ l*` reproduces `subsample_to_level(l*)` exactly, for any
//! `l*`, with no cloning — one context supports any number of queries at
//! any mix of alignment levels. A context over sketches
//! ([`ExprContext::new`]) builds each operand's view once, hashing each
//! sampled label once; a referee keeps its parties' summaries as views
//! already, and a context over them ([`ExprContext::over`]) borrows them
//! and computes nothing before the first query.
//!
//! ## Error contract
//!
//! The `(ε, δ)` guarantee of the underlying sketch is **relative to the
//! union of the referenced operands**: with probability `1 − δ` per
//! trial-median, the estimate of `|expr|` is within `ε · |A_1 ∪ … ∪ A_k|`
//! (additive), not within `ε · |expr|` (relative). An intersection much
//! smaller than the union is estimated with correspondingly larger
//! relative error — experiment E22 measures exactly this. On top of the
//! distribution-free bound, [`ExpressionEstimate`] reports the empirical
//! per-trial variance and a ±2·SE confidence interval around the
//! per-trial mean.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

use crate::error::{Result, SketchError};
use crate::estimate::{median_f64, Estimate};
use crate::params::SketchConfig;
use crate::sketch::GtSketch;
use crate::trial::Payload;
use crate::view::LeveledTrials;

/// A set expression over stream operands, identified by index into the
/// operand slice an [`ExprContext`] was built from.
///
/// Build leaves with [`SetExpr::leaf`] and compose with the consuming
/// combinators:
///
/// ```
/// use gt_core::SetExpr;
/// // (A ∪ B) ∩ C, with A = operand 0, B = 1, C = 2.
/// let e = SetExpr::leaf(0).union(SetExpr::leaf(1)).intersect(SetExpr::leaf(2));
/// assert_eq!(e.depth(), 3);
/// assert_eq!(format!("{e}"), "((s0 ∪ s1) ∩ s2)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetExpr {
    /// The distinct-label set of operand `i`.
    Leaf(usize),
    /// Set union of the two sub-expressions.
    Union(Box<SetExpr>, Box<SetExpr>),
    /// Set intersection of the two sub-expressions.
    Intersect(Box<SetExpr>, Box<SetExpr>),
    /// Set difference: left minus right.
    Difference(Box<SetExpr>, Box<SetExpr>),
}

impl SetExpr {
    /// The distinct-label set of operand `i` (index into the context's
    /// operand slice).
    pub fn leaf(i: usize) -> Self {
        SetExpr::Leaf(i)
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(self, other: SetExpr) -> Self {
        SetExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn intersect(self, other: SetExpr) -> Self {
        SetExpr::Intersect(Box::new(self), Box::new(other))
    }

    /// `self ∖ other`.
    #[must_use]
    pub fn difference(self, other: SetExpr) -> Self {
        SetExpr::Difference(Box::new(self), Box::new(other))
    }

    /// Nesting depth: 1 for a leaf, 1 + max child depth otherwise.
    pub fn depth(&self) -> usize {
        match self {
            SetExpr::Leaf(_) => 1,
            SetExpr::Union(a, b) | SetExpr::Intersect(a, b) | SetExpr::Difference(a, b) => {
                1 + a.depth().max(b.depth())
            }
        }
    }

    /// Invoke `f` on every leaf operand index (with repetition, in
    /// left-to-right order).
    pub fn for_each_leaf(&self, f: &mut impl FnMut(usize)) {
        match self {
            SetExpr::Leaf(i) => f(*i),
            SetExpr::Union(a, b) | SetExpr::Intersect(a, b) | SetExpr::Difference(a, b) => {
                a.for_each_leaf(f);
                b.for_each_leaf(f);
            }
        }
    }

    /// Evaluate the expression exactly over materialized label sets — the
    /// ground-truth oracle the sketch estimates are validated against in
    /// tests and experiment E22.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] when a leaf index is out of range.
    pub fn eval_exact(&self, sets: &[HashSet<u64>]) -> Result<HashSet<u64>> {
        match self {
            SetExpr::Leaf(i) => sets.get(*i).cloned().ok_or(SketchError::InvalidConfig {
                parameter: "expr",
                reason: format!("leaf s{i} out of range for {} operands", sets.len()),
            }),
            SetExpr::Union(a, b) => {
                let mut out = a.eval_exact(sets)?;
                out.extend(b.eval_exact(sets)?);
                Ok(out)
            }
            SetExpr::Intersect(a, b) => {
                let rb = b.eval_exact(sets)?;
                let mut out = a.eval_exact(sets)?;
                out.retain(|x| rb.contains(x));
                Ok(out)
            }
            SetExpr::Difference(a, b) => {
                let rb = b.eval_exact(sets)?;
                let mut out = a.eval_exact(sets)?;
                out.retain(|x| !rb.contains(x));
                Ok(out)
            }
        }
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Leaf(i) => write!(f, "s{i}"),
            SetExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            SetExpr::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            SetExpr::Difference(a, b) => write!(f, "({a} ∖ {b})"),
        }
    }
}

/// Point estimate of `|expr|` with trial-level dispersion.
///
/// `estimate.value` is the median of the per-trial estimates — the
/// estimator the paper's `(ε, δ)` analysis covers, with `ε`/`δ` copied
/// from the operands' configuration and the **additive** error contract
/// described in the [module docs](self). `mean`/`variance` describe the
/// same per-trial estimates empirically and drive the ±2·SE confidence
/// interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpressionEstimate {
    /// Median of the per-trial estimates, tagged with the operands'
    /// `(ε, δ)`.
    pub estimate: Estimate,
    /// Mean of the per-trial estimates.
    pub mean: f64,
    /// Unbiased sample variance of the per-trial estimates (0 when only
    /// one trial is configured).
    pub variance: f64,
    /// Number of trials the estimates were computed over.
    pub trials: usize,
}

impl ExpressionEstimate {
    /// Standard error of the per-trial mean: `sqrt(variance / trials)`.
    pub fn std_error(&self) -> f64 {
        (self.variance / self.trials as f64).sqrt()
    }

    /// Lower edge of the ±2·SE interval around the mean, clamped at 0
    /// (cardinalities are non-negative).
    pub fn ci_lower(&self) -> f64 {
        (self.mean - 2.0 * self.std_error()).max(0.0)
    }

    /// Upper edge of the ±2·SE interval around the mean.
    pub fn ci_upper(&self) -> f64 {
        self.mean + 2.0 * self.std_error()
    }
}

/// Jaccard similarity between two set expressions, estimated per trial
/// and median'd.
///
/// Convention (shared with [`crate::similarity::similarity`]): a trial
/// whose aligned union is empty contributes `0.0` to the median rather
/// than being dropped — every trial gets a vote, so the median's `δ`
/// analysis keeps its full trial count and the estimate cannot be biased
/// toward the populated trials. `populated_trials` reports how many
/// trials actually had witnesses, so callers can judge how much signal
/// the figure carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JaccardEstimate {
    /// Median over all trials of `|e1 ∩ e2| / |e1 ∪ e2|` (0.0 for
    /// empty-union trials).
    pub jaccard: f64,
    /// Total trials the median was taken over.
    pub trials: usize,
    /// Trials whose aligned union sample was non-empty.
    pub populated_trials: usize,
}

/// Evaluation context over a fixed slice of coordinated operands, each a
/// [`LeveledTrials`] view: built from operand sketches
/// ([`ExprContext::new`]), or borrowed from a caller that keeps views
/// ([`ExprContext::over`]). Each [`ExprContext::eval`] /
/// [`ExprContext::eval_jaccard`] call runs on the shared views.
///
/// ```
/// use gt_core::{DistinctSketch, ExprContext, SetExpr, SketchConfig};
/// let cfg = SketchConfig::new(0.1, 0.1).unwrap();
/// let mut a = DistinctSketch::new(&cfg, 7);
/// let mut b = DistinctSketch::new(&cfg, 7);
/// let mut c = DistinctSketch::new(&cfg, 7);
/// a.extend_labels(0..300);
/// b.extend_labels(200..500);
/// c.extend_labels(250..350);
/// let ctx = ExprContext::new(&[&a, &b, &c]).unwrap();
/// // |(A ∪ B) ∩ C| = |[250, 350)| = 100, exact below capacity.
/// let e = SetExpr::leaf(0).union(SetExpr::leaf(1)).intersect(SetExpr::leaf(2));
/// let est = ctx.eval(&e).unwrap();
/// assert_eq!(est.estimate.value, 100.0);
/// assert!(est.ci_lower() <= 100.0 && 100.0 <= est.ci_upper());
/// ```
#[derive(Clone, Debug)]
pub struct ExprContext<'a, V: Payload> {
    /// One view per operand, built by the context or borrowed.
    views: Vec<Cow<'a, LeveledTrials<V>>>,
    /// The operands' shared configuration.
    config: SketchConfig,
}

impl<'a, V: Payload> ExprContext<'a, V> {
    /// Build a context over `operands`, validating coordination, with
    /// each operand's view built once ([`LeveledTrials::of`]).
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] for an empty operand slice;
    /// [`SketchError::SeedMismatch`] / [`SketchError::ConfigMismatch`]
    /// when any operand disagrees with the first on seed or shape (the
    /// same rejections [`crate::similarity::similarity`] performs).
    pub fn new(operands: &[&'a GtSketch<V>]) -> Result<Self> {
        let first = operands.first().ok_or_else(no_operands)?;
        for s in &operands[1..] {
            first.check_coordinated(s)?;
        }
        let views = operands.iter().map(|s| Cow::Owned(LeveledTrials::of(s)));
        Ok(ExprContext {
            views: views.collect(),
            config: *first.config(),
        })
    }

    /// A context over views the caller keeps, borrowed as they are: the
    /// states of sketches under `config` and one master seed, such as a
    /// referee's party summaries, which were checked against its union
    /// when they were decoded.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] for an empty view slice;
    /// [`SketchError::ConfigMismatch`] for a view whose trial count is not
    /// `config`'s.
    pub fn over(config: &SketchConfig, views: &[&'a LeveledTrials<V>]) -> Result<Self> {
        if views.is_empty() {
            return Err(no_operands());
        }
        if let Some(v) = views
            .iter()
            .find(|v| v.sorted().trials() != config.trials())
        {
            return Err(SketchError::ConfigMismatch {
                detail: format!(
                    "view of {} trials for {} configured",
                    v.sorted().trials(),
                    config.trials()
                ),
            });
        }
        Ok(ExprContext {
            views: views.iter().map(|&v| Cow::Borrowed(v)).collect(),
            config: *config,
        })
    }

    /// Number of trials every query is computed over.
    pub fn trials(&self) -> usize {
        self.config.trials()
    }

    /// Which operands `expr` references, as a mask over the operand
    /// slice; errors on out-of-range leaves.
    fn referenced(&self, expr: &SetExpr) -> Result<Vec<bool>> {
        let mut mask = vec![false; self.views.len()];
        let mut bad = None;
        expr.for_each_leaf(&mut |i| match mask.get_mut(i) {
            Some(slot) => *slot = true,
            None => bad = bad.or(Some(i)),
        });
        match bad {
            Some(i) => Err(SketchError::InvalidConfig {
                parameter: "expr",
                reason: format!("leaf s{i} out of range for {} operands", self.views.len()),
            }),
            None => Ok(mask),
        }
    }

    /// The per-trial alignment level for a set of referenced operands:
    /// `max` of their trial-`t` levels.
    fn alignment_level(&self, mask: &[bool], trial: usize) -> u8 {
        mask.iter()
            .zip(&self.views)
            .filter(|&(&referenced, _)| referenced)
            .map(|(_, view)| view.trial(trial).0)
            .max()
            .unwrap_or(0)
    }

    /// Evaluate `expr` on trial `trial` at alignment level `level`,
    /// returning the surviving labels sorted ascending.
    fn eval_node(&self, expr: &SetExpr, trial: usize, level: u8) -> Vec<u64> {
        match expr {
            SetExpr::Leaf(i) => {
                let (_, (entries, levels)) = self.views[*i].trial(trial);
                // Branch-free: every label is written, and the cursor
                // advances past the ones that qualify.
                let mut out = vec![0; entries.len()];
                let mut n = 0;
                for (&(label, _), &lvl) in entries.iter().zip(levels) {
                    out[n] = label;
                    n += usize::from(lvl >= level);
                }
                out.truncate(n);
                out
            }
            SetExpr::Union(a, b) => union_sorted(
                &self.eval_node(a, trial, level),
                &self.eval_node(b, trial, level),
            ),
            SetExpr::Intersect(a, b) => intersect_sorted(
                &self.eval_node(a, trial, level),
                &self.eval_node(b, trial, level),
            ),
            SetExpr::Difference(a, b) => difference_sorted(
                &self.eval_node(a, trial, level),
                &self.eval_node(b, trial, level),
            ),
        }
    }

    /// The per-trial scaled estimates of `|expr|` — the values whose
    /// median [`ExprContext::eval`] reports. Exposed so multi-quantity
    /// callers (e.g. [`crate::similarity::similarity`]) can combine
    /// several expressions' trials without re-deriving the views.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] on out-of-range leaves.
    pub fn per_trial_estimates(&self, expr: &SetExpr) -> Result<Vec<f64>> {
        let mask = self.referenced(expr)?;
        let mut out = Vec::with_capacity(self.trials());
        for t in 0..self.trials() {
            let l = self.alignment_level(&mask, t);
            let count = self.eval_node(expr, t, l).len();
            out.push(count as f64 * 2f64.powi(i32::from(l)));
        }
        Ok(out)
    }

    /// Estimate `|expr|`: median of the per-trial estimates, with
    /// empirical mean/variance and the operands' `(ε, δ)` attached.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] on out-of-range leaves.
    pub fn eval(&self, expr: &SetExpr) -> Result<ExpressionEstimate> {
        let mut per_trial = self.per_trial_estimates(expr)?;
        let n = per_trial.len();
        let mean = per_trial.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            per_trial.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Ok(ExpressionEstimate {
            estimate: Estimate {
                value: median_f64(&mut per_trial),
                epsilon: self.config.epsilon(),
                delta: self.config.delta(),
            },
            mean,
            variance,
            trials: n,
        })
    }

    /// Estimate the Jaccard similarity `|e1 ∩ e2| / |e1 ∪ e2|` as a
    /// per-trial ratio estimator, median'd over all trials.
    ///
    /// Both expressions are aligned to the **same** level per trial (the
    /// max over the operands either references), so the two sampled sets
    /// compose coordinately. A trial with an empty aligned union
    /// contributes `0.0` — see [`JaccardEstimate`] for the convention.
    ///
    /// # Errors
    /// [`SketchError::InvalidConfig`] on out-of-range leaves.
    pub fn eval_jaccard(&self, e1: &SetExpr, e2: &SetExpr) -> Result<JaccardEstimate> {
        let m1 = self.referenced(e1)?;
        let m2 = self.referenced(e2)?;
        let mask: Vec<bool> = m1.iter().zip(&m2).map(|(&a, &b)| a || b).collect();
        let mut per_trial = Vec::with_capacity(self.trials());
        let mut populated = 0usize;
        for t in 0..self.trials() {
            let l = self.alignment_level(&mask, t);
            let s1 = self.eval_node(e1, t, l);
            let s2 = self.eval_node(e2, t, l);
            let inter = count_intersect_sorted(&s1, &s2);
            let union = s1.len() + s2.len() - inter;
            if union > 0 {
                populated += 1;
                per_trial.push(inter as f64 / union as f64);
            } else {
                per_trial.push(0.0);
            }
        }
        Ok(JaccardEstimate {
            jaccard: median_f64(&mut per_trial),
            trials: self.trials(),
            populated_trials: populated,
        })
    }
}

/// One-shot convenience: build a context over `operands` and evaluate
/// `expr`.
///
/// # Errors
/// Propagates [`ExprContext::new`] / [`ExprContext::eval`] errors.
pub fn eval_expr<V: Payload>(
    expr: &SetExpr,
    operands: &[&GtSketch<V>],
) -> Result<ExpressionEstimate> {
    ExprContext::new(operands)?.eval(expr)
}

/// The error for a context with no operands.
fn no_operands() -> SketchError {
    SketchError::InvalidConfig {
        parameter: "expr",
        reason: "at least one operand sketch is required".to_string(),
    }
}

// The sorted-set kernels below take one step per compared pair and no
// data-dependent branch: each writes its candidate and advances the
// output and input cursors by comparison results.

/// Merge two ascending dedup'd slices into their ascending union.
fn union_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0; a.len() + b.len()];
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = x.min(y);
        n += 1;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(n);
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Intersect two ascending dedup'd slices.
fn intersect_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0; a.len().min(b.len())];
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = x;
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(n);
    out
}

/// `a ∖ b` over two ascending dedup'd slices.
fn difference_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0; a.len()];
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[n] = x;
        n += usize::from(x < y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(n);
    out.extend_from_slice(&a[i..]);
    out
}

/// `|a ∩ b|` over two ascending dedup'd slices, allocation-free.
fn count_intersect_sorted(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SketchConfig;
    use crate::sketch::DistinctSketch;

    fn cfg() -> SketchConfig {
        SketchConfig::new(0.1, 0.1).unwrap()
    }

    fn sketch_of(range: std::ops::Range<u64>, seed: u64) -> DistinctSketch {
        let mut s = DistinctSketch::new(&cfg(), seed);
        s.extend_labels(range.map(gt_hash::fold61));
        s
    }

    #[test]
    fn small_expressions_are_exact_below_capacity() {
        let a = sketch_of(0..300, 11);
        let b = sketch_of(200..500, 11);
        let c = sketch_of(250..350, 11);
        let ctx = ExprContext::new(&[&a, &b, &c]).unwrap();
        let (la, lb, lc) = (SetExpr::leaf(0), SetExpr::leaf(1), SetExpr::leaf(2));
        // |A ∪ B| = 500, |A ∩ B| = 100, |A ∖ B| = 200, |(A ∪ B) ∩ C| = 100,
        // |((A ∪ B) ∩ C) ∖ A| = |[300, 350)| = 50.
        let cases = [
            (la.clone().union(lb.clone()), 500.0),
            (la.clone().intersect(lb.clone()), 100.0),
            (la.clone().difference(lb.clone()), 200.0),
            (la.clone().union(lb.clone()).intersect(lc.clone()), 100.0),
            (
                la.clone()
                    .union(lb.clone())
                    .intersect(lc.clone())
                    .difference(la.clone()),
                50.0,
            ),
        ];
        for (e, want) in cases {
            let est = ctx.eval(&e).unwrap();
            assert_eq!(est.estimate.value, want, "{e}");
            assert_eq!(est.mean, want, "{e}");
            assert_eq!(est.variance, 0.0, "{e}");
            assert!(est.ci_lower() <= want && want <= est.ci_upper(), "{e}");
        }
        // Jaccard of A, B is 100/500 exactly.
        let j = ctx.eval_jaccard(&la, &lb).unwrap();
        assert_eq!(j.jaccard, 0.2);
        assert_eq!(j.populated_trials, j.trials);
    }

    #[test]
    fn repeated_leaves_behave_like_set_algebra() {
        let a = sketch_of(0..40_000, 12);
        let ctx = ExprContext::new(&[&a]).unwrap();
        let la = SetExpr::leaf(0);
        let self_inter = ctx.eval(&la.clone().intersect(la.clone())).unwrap();
        let plain = ctx.eval(&la.clone()).unwrap();
        assert_eq!(self_inter.estimate.value, plain.estimate.value);
        let self_diff = ctx.eval(&la.clone().difference(la.clone())).unwrap();
        assert_eq!(self_diff.estimate.value, 0.0);
        assert_eq!(self_diff.variance, 0.0);
    }

    #[test]
    fn deep_expression_tracks_exact_truth_at_scale() {
        let a = sketch_of(0..60_000, 13);
        let b = sketch_of(30_000..90_000, 13);
        let c = sketch_of(45_000..75_000, 13);
        let ctx = ExprContext::new(&[&a, &b, &c]).unwrap();
        // ((A ∪ B) ∩ C) ∖ A = [60k, 75k): 15k labels.
        let e = SetExpr::leaf(0)
            .union(SetExpr::leaf(1))
            .intersect(SetExpr::leaf(2))
            .difference(SetExpr::leaf(0));
        assert!(e.depth() >= 3);
        let est = ctx.eval(&e).unwrap();
        // Additive contract: error within ε·|A ∪ B ∪ C| = 0.1 · 90k, with
        // slack for the trial count of the test config.
        assert!(
            (est.estimate.value - 15_000.0).abs() < 2.0 * 0.1 * 90_000.0,
            "estimate {}",
            est.estimate.value
        );
        assert!(est.variance > 0.0, "sampling noise must show in variance");
        assert!(est.std_error() > 0.0);
    }

    #[test]
    fn exact_oracle_matches_engine_below_capacity() {
        let sets: Vec<HashSet<u64>> = [(0u64..300), (200..500), (250..350)]
            .into_iter()
            .map(|r| r.map(gt_hash::fold61).collect())
            .collect();
        let a = sketch_of(0..300, 14);
        let b = sketch_of(200..500, 14);
        let c = sketch_of(250..350, 14);
        let ctx = ExprContext::new(&[&a, &b, &c]).unwrap();
        let e = SetExpr::leaf(0)
            .difference(SetExpr::leaf(1))
            .union(SetExpr::leaf(2).intersect(SetExpr::leaf(1)));
        let want = e.eval_exact(&sets).unwrap().len() as f64;
        assert_eq!(ctx.eval(&e).unwrap().estimate.value, want);
    }

    #[test]
    fn empty_operands_and_bad_leaves_are_rejected() {
        let none: [&DistinctSketch; 0] = [];
        assert!(matches!(
            ExprContext::new(&none).unwrap_err(),
            SketchError::InvalidConfig {
                parameter: "expr",
                ..
            }
        ));
        let a = sketch_of(0..10, 1);
        let ctx = ExprContext::new(&[&a]).unwrap();
        assert!(matches!(
            ctx.eval(&SetExpr::leaf(1)).unwrap_err(),
            SketchError::InvalidConfig {
                parameter: "expr",
                ..
            }
        ));
        assert!(SetExpr::leaf(3).eval_exact(&[HashSet::new()]).is_err());
    }

    #[test]
    fn uncoordinated_operands_are_rejected() {
        let a = sketch_of(0..100, 1);
        let b = sketch_of(0..100, 2);
        assert_eq!(
            ExprContext::new(&[&a, &b]).unwrap_err(),
            SketchError::SeedMismatch
        );
        let mut c = DistinctSketch::new(&SketchConfig::new(0.2, 0.1).unwrap(), 1);
        c.extend_labels(0..10);
        assert!(matches!(
            ExprContext::new(&[&a, &c]).unwrap_err(),
            SketchError::ConfigMismatch { .. }
        ));
    }

    #[test]
    fn empty_expression_estimates_zero_with_zero_variance() {
        let a = DistinctSketch::new(&cfg(), 5);
        let b = DistinctSketch::new(&cfg(), 5);
        let ctx = ExprContext::new(&[&a, &b]).unwrap();
        let e = SetExpr::leaf(0).union(SetExpr::leaf(1));
        let est = ctx.eval(&e).unwrap();
        assert_eq!(est.estimate.value, 0.0);
        assert_eq!(est.mean, 0.0);
        assert_eq!(est.variance, 0.0);
        assert_eq!((est.ci_lower(), est.ci_upper()), (0.0, 0.0));
        let j = ctx
            .eval_jaccard(&SetExpr::leaf(0), &SetExpr::leaf(1))
            .unwrap();
        assert_eq!(j.jaccard, 0.0);
        assert_eq!(j.populated_trials, 0);
    }

    #[test]
    fn alignment_uses_only_referenced_operands() {
        // c is huge (high trial levels); an expression over a and b alone
        // must not be degraded to c's levels — its estimate stays exact.
        let a = sketch_of(0..200, 21);
        let b = sketch_of(100..300, 21);
        let c = sketch_of(0..80_000, 21);
        assert!(c.max_level() > 0);
        let ctx = ExprContext::new(&[&a, &b, &c]).unwrap();
        let e = SetExpr::leaf(0).intersect(SetExpr::leaf(1));
        assert_eq!(ctx.eval(&e).unwrap().estimate.value, 100.0);
        assert_eq!(ctx.eval(&e).unwrap().variance, 0.0);
    }

    #[test]
    fn sorted_set_ops_are_correct() {
        let a = [1u64, 3, 5, 7];
        let b = [3u64, 4, 7, 9];
        assert_eq!(union_sorted(&a, &b), vec![1, 3, 4, 5, 7, 9]);
        assert_eq!(intersect_sorted(&a, &b), vec![3, 7]);
        assert_eq!(difference_sorted(&a, &b), vec![1, 5]);
        assert_eq!(count_intersect_sorted(&a, &b), 2);
        assert_eq!(union_sorted(&[], &b), b.to_vec());
        assert_eq!(intersect_sorted(&a, &[]), Vec::<u64>::new());
        assert_eq!(difference_sorted(&a, &[]), a.to_vec());
    }
}
