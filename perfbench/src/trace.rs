//! In-memory span recorder used by the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: name, start, end and the span that caused
//! it. They stay in memory and are written out once, when the run ends.
//! Per-event spans of the follow workload would number in the millions,
//! so those are aggregated into duration samples per name instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder. When disabled, [`Tracer::enter`] and [`Tracer::exit`]
/// record nothing, so the untraced run pays only a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregated: BTreeMap<&'static str, Vec<u64>>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregated: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between operations (the traced run
    /// alternates, so it can report its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            self.open.retain(|&o| o != id);
        }
    }

    /// Record one duration under an aggregated span name.
    pub fn sample(&mut self, name: &'static str, ns: u64) {
        if self.enabled {
            self.aggregated.entry(name).or_default().push(ns);
        }
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Aggregated samples (nanoseconds) recorded under `name`.
    pub fn samples(&self, name: &str) -> &[u64] {
        self.aggregated.get(name).map_or(&[], Vec::as_slice)
    }

    /// The whole trace as JSON: every span, then each aggregated name's
    /// count, total and percentiles.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\"aggregated\":{");
        for (i, (name, ns)) in self.aggregated.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            let total: u64 = sorted.iter().sum();
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{total},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                sorted.len(),
                percentile(&sorted, 50.0),
                percentile(&sorted, 99.0),
                sorted.last().copied().unwrap_or(0)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}
