//! In-memory spans and counters for the traced run.
//!
//! A span covers one call into a layer's public API, made from this
//! benchmark; it records its name, the phase it ran in (a set-up
//! repetition or a timed pass), its start and end, and the span that
//! enclosed it. Counters record what a layer reports about the work it
//! did in the same phase (events, flits, epochs). Nothing is written
//! until the run ends; with tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Where a span or count was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The n-th repetition of the workload's set-up.
    Setup(u32),
    /// The n-th timed pass over the op list.
    Pass(u32),
    /// After the last pass (stand-alone layer probes).
    End,
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    phase: Phase,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span and counter store.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, Phase, f64)>,
}

impl Tracer {
    /// A store that records only while switched on.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            phase: Phase::Setup(0),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (the traced run alternates traced
    /// and untraced passes to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new phase.
    pub fn enter(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Opens a span, nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            phase: self.phase,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`] and returns its length.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let Some(i) = id.0 else { return Duration::ZERO };
        let end = self.origin.elapsed();
        self.spans[i].end = end;
        // Closing a span also closes any span left open inside it (an
        // op that failed half way).
        if let Some(pos) = self.open.iter().rposition(|&x| x == i) {
            self.open.truncate(pos);
        }
        end - self.spans[i].start
    }

    /// Adds `value` to a counter of the current phase.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, self.phase, value));
        }
    }

    /// Per phase, the summed length of every span called `name`, in
    /// seconds, and the sum of every counter called `name`.
    pub fn per_phase(&self, name: &str) -> BTreeMap<Phase, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.phase).or_insert(0.0) += (s.end - s.start).as_secs_f64();
        }
        for &(_, phase, v) in self.counts.iter().filter(|c| c.0 == name) {
            *out.entry(phase).or_insert(0.0) += v;
        }
        out
    }

    /// Every value recorded for the counter `name`, in order.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Spans recorded.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// Every span and counter as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let phase = |p: Phase| match p {
            Phase::Setup(n) => format!("\"setup\", \"rep\": {n}"),
            Phase::Pass(n) => format!("\"pass\", \"rep\": {n}"),
            Phase::End => "\"end\", \"rep\": 0".to_string(),
        };
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"phase\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                phase(s.phase),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        for &(name, p, v) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"count\": \"{name}\", \"phase\": {}, \"value\": {v}}}",
                phase(p)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_phase() {
        let mut t = Tracer::new(true);
        t.enter(Phase::Pass(0));
        let op = t.open("op");
        let inner = t.open("layer");
        t.close(inner);
        t.count("events", 3.0);
        t.close(op);
        t.enter(Phase::Pass(1));
        t.count("events", 4.0);
        let sums = t.per_phase("events");
        assert_eq!(sums[&Phase::Pass(0)], 3.0);
        assert_eq!(sums[&Phase::Pass(1)], 4.0);
        assert_eq!(t.values("events"), [3.0, 4.0]);
        assert!(t.per_phase("op")[&Phase::Pass(0)] >= t.per_phase("layer")[&Phase::Pass(0)]);
        let jsonl = t.to_jsonl();
        assert!(
            jsonl.contains("\"name\": \"layer\", \"phase\": \"pass\", \"rep\": 0, \"parent\": 0")
        );
        assert_eq!(jsonl.lines().count(), 4);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("op");
        t.count("events", 1.0);
        assert_eq!(t.close(s), Duration::ZERO);
        assert_eq!(t.spans(), 0);
        assert!(t.per_phase("events").is_empty());
    }
}
