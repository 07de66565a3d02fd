//! Static bundled-data timing: longest data-path delay versus
//! shortest strobe-path delay from each registered launch point
//! ([`NetBundle`](sal_des::NetBundle)) to each capture cell
//! ([`NetCapture`](sal_des::NetCapture)).
//!
//! A *launch* is a transition of the bundle's origin signal (the
//! acknowledge that advances the serializer's slice token, the
//! ring-oscillator tap that paces the I3 burst). Two cones fan out:
//!
//! * the **data cone**, traced backwards from the capture's data pin,
//!   *maximizing* delay. Gates, wires and routing are transparent; a
//!   latch passes its `d` pin; a flip-flop launches from its clock
//!   pin (as in any STA); C-elements and David cells carry control
//!   and end the cone. It is a longest path over (signal, data/clock)
//!   states, memoized once per bundle and shared by all captures:
//!   O(V + E). A cycle the origin can feed into a capture (a loop of
//!   transparent latches) has no longest path and is an error naming
//!   a signal on it; a cycle the origin cannot reach is harmless.
//! * the **strobe cone**, traced backwards from the capture's trigger
//!   pin, *minimizing* delay through gates, wires and the trigger
//!   pins of state-holding cells. It is Dijkstra from the trigger
//!   until the origin settles: delays are non-negative, so feedback
//!   (token rings, handshake loops) never shortens a path.
//!
//! The static margin of a capture is `data_lead + strobe_min −
//! data_max`: the time the data settles before the strobe closes the
//! capture window. A non-positive margin is an error (the matched
//! delay does not cover the data path); positive margins are info —
//! the static counterpart of `BENCH_robustness.json`'s skew margins.

use std::{cmp::Reverse, collections::BinaryHeap};

use sal_des::{BundleParams, CellClass, NetComponent, NetGraph, SignalId};

use crate::report::{LintReport, Severity};

/// Pass name used in findings.
pub const PASS: &str = "timing";

/// One evaluated capture: which bundle it paired with and the static
/// delays/margin in picoseconds.
#[derive(Debug, Clone)]
pub struct TimingMargin {
    /// Label of the bundle the capture paired with (nearest launch
    /// point by data delay).
    pub bundle: String,
    /// Path of the captured data signal.
    pub capture_data: String,
    /// Path of the capturing trigger signal.
    pub capture_trigger: String,
    /// Longest data-path delay from the origin, ps.
    pub data_max_ps: f64,
    /// Shortest strobe-path delay from the origin, ps.
    pub strobe_min_ps: f64,
    /// Data head start at the origin, ps.
    pub data_lead_ps: f64,
    /// Static margin: `data_lead + strobe_min − data_max`, ps.
    pub margin_ps: f64,
    /// Generator parameters of the paired bundle, when it came from a
    /// width/ratio-parameterized generator (the `LinkSpec` machinery).
    pub params: Option<BundleParams>,
}

/// Computes the static margin of every registered capture that is
/// reachable from a registered bundle. Captures whose data cone
/// reaches no bundle origin are unconstrained (e.g. synchronous
/// captures timed by the clock) and are skipped.
pub fn timing_margins(graph: &NetGraph) -> Vec<TimingMargin> {
    analyze(graph, &mut LintReport::new())
}

/// [`timing_margins`], reporting each cyclic data cone into `report`.
fn analyze(graph: &NetGraph, report: &mut LintReport) -> Vec<TimingMargin> {
    let mut cones: Vec<DataCone> = graph
        .bundles
        .iter()
        .map(|b| DataCone {
            origin: b.origin,
            memo: vec![[Memo::Unvisited; 2]; graph.signals.len()],
            cycle: None,
        })
        .collect();
    let mut out = Vec::new();
    for cap in &graph.captures {
        // Pair with the nearest launch point: the bundle with the
        // smallest maximal data delay into this capture.
        let best = cones
            .iter_mut()
            .enumerate()
            .filter_map(|(bi, cone)| Some((bi, cone.longest(graph, cap.data, Mode::DataMax)?)))
            .min_by_key(|&(_, d)| d);
        let Some((bi, data_max)) = best else { continue };
        let bundle = &graph.bundles[bi];
        let strobe_min = strobe_min(graph, cap.trigger, bundle.origin);
        let lead = bundle.data_lead.as_fs() as i64;
        let margin_fs = strobe_min.map(|s| lead + s - data_max);
        out.push(TimingMargin {
            bundle: bundle.label.clone(),
            capture_data: graph.signal(cap.data).path.clone(),
            capture_trigger: graph.signal(cap.trigger).path.clone(),
            data_max_ps: data_max as f64 / 1000.0,
            strobe_min_ps: strobe_min.unwrap_or(0) as f64 / 1000.0,
            data_lead_ps: lead as f64 / 1000.0,
            // An unreachable strobe is reported as a zero-margin
            // defect by `check`; encode it as a hard failure here.
            margin_ps: margin_fs.map_or(f64::NEG_INFINITY, |m| m as f64 / 1000.0),
            params: bundle.params,
        });
    }
    out.sort_by(|a, b| {
        a.bundle
            .cmp(&b.bundle)
            .then_with(|| a.capture_data.cmp(&b.capture_data))
            .then_with(|| a.capture_trigger.cmp(&b.capture_trigger))
    });
    for (bundle, cone) in graph.bundles.iter().zip(&cones) {
        if let Some(sig) = cone.cycle {
            let msg = format!(
                "data cone of bundle '{}' runs through a cycle at this signal: the data can \
                 circle it indefinitely, so its captures have no longest data path",
                bundle.label
            );
            report.push(Severity::Error, PASS, &graph.signal(sig).path, msg);
        }
    }
    out
}

/// Runs the static-timing lint over `graph`, appending to `report`.
pub fn check(graph: &NetGraph, report: &mut LintReport) {
    for m in analyze(graph, report) {
        let (severity, path, message) = if m.margin_ps == f64::NEG_INFINITY {
            let msg = format!(
                "capture trigger is unreachable from bundle '{}' although the data \
                 pin is (data {:.1} ps): the strobe cannot close this capture",
                m.bundle, m.data_max_ps
            );
            (Severity::Error, &m.capture_trigger, msg)
        } else if m.margin_ps <= 0.0 {
            let msg = format!(
                "bundled-data violation against '{}': data {:.1} ps, strobe {:.1} ps \
                 (+{:.1} ps lead) — margin {:.1} ps; the strobe can overtake its data",
                m.bundle, m.data_max_ps, m.strobe_min_ps, m.data_lead_ps, m.margin_ps
            );
            (Severity::Error, &m.capture_data, msg)
        } else {
            let msg = format!(
                "static bundled margin +{:.1} ps against '{}' (data {:.1} ps, strobe \
                 {:.1} ps, lead {:.1} ps)",
                m.margin_ps, m.bundle, m.data_max_ps, m.strobe_min_ps, m.data_lead_ps
            );
            (Severity::Info, &m.capture_data, msg)
        };
        report.push(severity, PASS, path, message);
    }
}

#[derive(Clone, Copy)]
enum Mode {
    DataMax,
    /// Behind the launch register: a timing path has exactly ONE
    /// launching flip-flop, and the rest of the path back to the
    /// origin is its clock network — combinational cells only. A
    /// second register on the way would make it a multi-cycle path
    /// (the upstream word changing between handshakes), which the
    /// protocol, not the matched delay, keeps safe.
    ClockMax,
}

/// Which of a cell's input pins the data cone continues through, and
/// the mode it continues in past that cell.
fn pins(comp: &NetComponent, mode: Mode) -> (&[SignalId], Mode) {
    match (comp.class, mode) {
        (CellClass::Comb | CellClass::Wire | CellClass::Route, _) => (&comp.inputs, mode),
        (CellClass::Latch, Mode::DataMax) => (&comp.data_pins, mode),
        (CellClass::Dff, Mode::DataMax) => (&comp.trigger_pins, Mode::ClockMax),
        _ => (&[], mode),
    }
}

/// Which of a cell's input pins the strobe cone continues through.
fn strobe_pins(comp: &NetComponent) -> &[SignalId] {
    match comp.class {
        CellClass::Comb | CellClass::Wire | CellClass::Route => &comp.inputs,
        CellClass::Latch | CellClass::Dff | CellClass::CElement | CellClass::DavidCell => {
            &comp.trigger_pins
        }
        CellClass::Source | CellClass::Env | CellClass::Monitor | CellClass::Unknown => &[],
    }
}

/// Shortest delay in femtoseconds from a transition of `origin` to
/// `trigger` through the strobe cone (Dijkstra backwards through the
/// drivers), or `None` if no path connects them.
fn strobe_min(graph: &NetGraph, trigger: SignalId, origin: SignalId) -> Option<i64> {
    let mut dist = vec![i64::MAX; graph.signals.len()];
    dist[trigger.index()] = 0;
    let mut heap = BinaryHeap::from([Reverse((0, trigger.index()))]);
    while let Some(Reverse((d, s))) = heap.pop() {
        if s == origin.index() {
            return Some(d);
        }
        if d > dist[s] {
            continue;
        }
        for &driver in &graph.signals[s].drivers {
            let comp = graph.component(driver);
            let next = d + comp.delay.map_or(0, |t| t.as_fs() as i64);
            for &pin in strobe_pins(comp) {
                if next < dist[pin.index()] {
                    dist[pin.index()] = next;
                    heap.push(Reverse((next, pin.index())));
                }
            }
        }
    }
    None
}

#[derive(Clone, Copy)]
enum Memo {
    Unvisited,
    /// On the DFS stack; `true` once a walk re-entered it.
    OnStack(bool),
    Done(Option<i64>),
}

/// One bundle's data cone: the longest delay in femtoseconds from its
/// origin to each (signal, mode) state, filled on demand and shared
/// by every capture.
struct DataCone {
    origin: SignalId,
    memo: Vec<[Memo; 2]>,
    /// A signal on a cycle that reaches the origin: the data can
    /// circle it, so the longest path is unbounded.
    cycle: Option<SignalId>,
}

impl DataCone {
    /// Longest delay from a transition of the origin to `sig` in
    /// `mode`, or `None` if no allowed path connects them. A state
    /// re-entered on the stack counts as pathless there: exact unless
    /// it reaches the origin after all, and the first-entered state of
    /// any such cycle does, so `cycle` is set whenever a delay may be
    /// short.
    fn longest(&mut self, graph: &NetGraph, sig: SignalId, mode: Mode) -> Option<i64> {
        if sig == self.origin {
            return Some(0);
        }
        let entry = &mut self.memo[sig.index()][mode as usize];
        match *entry {
            Memo::Done(v) => return v,
            Memo::OnStack(_) => {
                *entry = Memo::OnStack(true);
                return None;
            }
            Memo::Unvisited => *entry = Memo::OnStack(false),
        }
        let mut best = None;
        for &driver in &graph.signal(sig).drivers {
            let comp = graph.component(driver);
            let (pins, next_mode) = pins(comp, mode);
            for &pin in pins {
                if let Some(d) = self.longest(graph, pin, next_mode) {
                    best = best.max(Some(d + comp.delay.map_or(0, |t| t.as_fs() as i64)));
                }
            }
        }
        let entry = &mut self.memo[sig.index()][mode as usize];
        if best.is_some() && matches!(*entry, Memo::OnStack(true)) {
            self.cycle.get_or_insert(sig);
        }
        *entry = Memo::Done(best);
        best
    }
}
