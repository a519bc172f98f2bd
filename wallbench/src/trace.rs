//! Outside-in timing: round clocks, query latencies, and per-call spans.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Recorder::call`] (or [`Recorder::query`]). In a traced round
//! each call becomes a span — name, start, end, round — whose parent is the
//! round's own span; in an untraced round only the round clock and the
//! query latencies are taken, so end-to-end numbers carry no per-call cost.
//! Spans are recorded per chunk or batch, never per item, and stay in
//! memory until the run writes them out.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// `"round"` for a round span, otherwise `<layer>.<call>`.
    pub name: &'static str,
    /// The round the span belongs to (its parent, for layer spans).
    pub round: u64,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// Wall time and work of one timed round.
#[derive(Clone, Copy, Debug)]
pub struct RoundLog {
    /// Absolute round index.
    pub round: u64,
    /// Items the round ingested.
    pub items: u64,
    /// Wall seconds from the round's start to its last answer.
    pub secs: f64,
    /// Whether the round recorded spans.
    pub traced: bool,
}

/// How query latency samples are cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuerySample {
    /// Every query call is one sample (point queries).
    PerCall,
    /// The round's queries together are one sample (the time to answer
    /// everything the round asks once its data is in).
    PerRound,
}

/// Round clock, query latencies and spans of one run.
pub struct Recorder {
    origin: Instant,
    sampling: QuerySample,
    tracing: bool,
    round: u64,
    round_start: Option<Instant>,
    round_query_secs: f64,
    /// Spans of traced rounds, in recording order.
    pub spans: Vec<Span>,
    /// One entry per finished round.
    pub rounds: Vec<RoundLog>,
    /// Query latency samples (seconds) from untraced rounds.
    pub queries: Vec<f64>,
}

impl Recorder {
    /// A recorder cutting query samples per `sampling`.
    pub fn new(sampling: QuerySample) -> Self {
        Recorder {
            origin: Instant::now(),
            sampling,
            tracing: false,
            round: 0,
            round_start: None,
            round_query_secs: 0.0,
            spans: Vec::new(),
            rounds: Vec::new(),
            queries: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Start round `round`'s clock; `traced` rounds record spans.
    pub fn begin_round(&mut self, round: u64, traced: bool) {
        self.round = round;
        self.tracing = traced;
        self.round_query_secs = 0.0;
        self.round_start = Some(Instant::now());
    }

    /// Stop the round clock and log the round; returns its wall seconds.
    pub fn end_round(&mut self, items: u64) -> f64 {
        let end = Instant::now();
        let start = self
            .round_start
            .take()
            .expect("end_round follows begin_round");
        let secs = end.duration_since(start).as_secs_f64();
        if self.tracing {
            self.spans.push(Span {
                name: "round",
                round: self.round,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        } else if self.sampling == QuerySample::PerRound {
            self.queries.push(self.round_query_secs);
        }
        self.rounds.push(RoundLog {
            round: self.round,
            items,
            secs,
            traced: self.tracing,
        });
        self.tracing = false;
        secs
    }

    /// Run one call into a layer; a span in traced rounds.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push_span(name, start, end);
        out
    }

    /// Run one query; always timed for the latency metrics, and a span in
    /// traced rounds.
    pub fn query<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        if self.tracing {
            self.push_span(name, start, end);
        } else if self.sampling == QuerySample::PerCall {
            self.queries.push(secs);
        } else {
            self.round_query_secs += secs;
        }
        out
    }

    fn push_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            round: self.round,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Busy seconds per layer-call name over the traced rounds.
    pub fn busy(&self) -> BTreeMap<&'static str, f64> {
        let mut busy = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name != "round") {
            *busy.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        busy
    }

    /// The spans as a JSON document (written to `trace-<workload>.json`).
    pub fn spans_json(&self, workload: &str) -> Json {
        let spans = self.spans.iter().map(|s| {
            let parent = if s.name == "round" {
                Json::Null
            } else {
                Json::Str("round".into())
            };
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("round", Json::Num(s.round as f64)),
                ("parent", parent),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        });
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Most windows throughput is split into.
const MAX_WINDOWS: usize = 20;

/// Throughput the fastest quarter of the run sustained: the run's rounds
/// are cut into up to [`MAX_WINDOWS`] contiguous windows (sizes differ by
/// at most one round) and this is the 75th percentile of their
/// throughputs. Interference from other tenants of a shared host comes in
/// phases of seconds and only ever slows a window down, so this estimate
/// holds still while a quarter of the run is undisturbed (a median needs
/// half).
pub fn windowed_rate(rounds: &[RoundLog]) -> f64 {
    assert!(!rounds.is_empty(), "throughput of no rounds");
    let windows = rounds.len().min(MAX_WINDOWS);
    let (base, extra) = (rounds.len() / windows, rounds.len() % windows);
    let mut rates = Vec::with_capacity(windows);
    let mut at = 0;
    for w in 0..windows {
        let len = base + usize::from(w < extra);
        let window = &rounds[at..at + len];
        let items: u64 = window.iter().map(|r| r.items).sum();
        let secs: f64 = window.iter().map(|r| r.secs).sum();
        rates.push(items as f64 / secs);
        at += len;
    }
    percentile(&rates, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 0.9), 18.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(median(&v), 10.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_rate_ignores_slow_phases_up_to_three_quarters() {
        let mut rounds: Vec<RoundLog> = (0..40)
            .map(|round| RoundLog {
                round,
                items: 100,
                secs: 1.0,
                traced: false,
            })
            .collect();
        for r in &mut rounds[5..30] {
            r.secs = 1.5;
        }
        assert_eq!(windowed_rate(&rounds), 100.0);
    }
}
