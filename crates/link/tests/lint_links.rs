//! Clean-netlist guarantees: every link the repo can build, across
//! the configuration corners the sweeps exercise, must lint with zero
//! error-severity findings — the static bundled-data margins the
//! timing pass computes must agree with the *simulated* skew margins
//! recorded in the committed `crates/bench/fixtures/BENCH_robustness.json`,
//! and with independent shortest/longest-path oracles over the same
//! netlists.

use sal_cells::CircuitBuilder;
use sal_des::{CellClass, NetComponent, NetGraph, SignalId, Simulator};
use sal_link::testbench::lint_corners;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec, ProtectionMode, RetryConfig};
use sal_lint::{run_all, timing_margins, TimingMargin};
use sal_tech::St012Library;

fn netgraph(spec: &LinkSpec, cfg: &LinkConfig) -> NetGraph {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    generate(&mut b, spec, "link", cfg).expect("link builds cleanly");
    b.finish();
    sim.netgraph()
}

fn lint_of(family: LinkFamily, cfg: &LinkConfig) -> (sal_lint::LintReport, Vec<TimingMargin>) {
    let spec = LinkSpec::from_config(family, cfg).expect("corner configs are valid specs");
    let graph = netgraph(&spec, cfg);
    (run_all(&graph), timing_margins(&graph))
}

#[test]
fn clean_links_have_zero_lint_errors_across_corners() {
    for kind in [LinkFamily::Sync, LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, cfg) in lint_corners() {
            let (report, _) = lint_of(kind, &cfg);
            assert!(
                !report.has_errors(),
                "{} @ {label}: expected zero lint errors, got:\n{}",
                kind.label(),
                report.to_text()
            );
        }
    }
}

#[test]
fn async_links_have_positive_static_margins() {
    for kind in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, cfg) in lint_corners() {
            let (_, margins) = lint_of(kind, &cfg);
            assert!(
                !margins.is_empty(),
                "{} @ {label}: bundled links must have constrained captures",
                kind.label()
            );
            for m in &margins {
                assert!(
                    m.margin_ps > 0.0,
                    "{} @ {label}: non-positive margin at {} ({:+.1} ps)",
                    kind.label(),
                    m.capture_data,
                    m.margin_ps
                );
            }
        }
    }
}

/// Generated netlists must carry the spec's design point on their
/// bundled-data launch points: every constrained capture of an async
/// link reports the word width and serialization ratio it was
/// generated under, across the corner configurations.
#[test]
fn async_link_margins_carry_generator_params() {
    for kind in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, cfg) in lint_corners() {
            let spec = LinkSpec::from_config(kind, &cfg).expect("corner configs are valid specs");
            let (_, margins) = lint_of(kind, &cfg);
            for m in &margins {
                let p = m.params.unwrap_or_else(|| {
                    panic!(
                        "{} @ {label}: generated bundle at {} lost its params",
                        kind.label(),
                        m.capture_data
                    )
                });
                assert_eq!(p.word_width, u16::from(spec.word_width()));
                assert_eq!(p.serial_ratio, u16::from(spec.serial_ratio()));
            }
        }
    }
}

#[test]
fn sync_link_is_statically_unconstrained() {
    // I1 has no bundled-data launch points: every capture is clocked.
    let (_, margins) = lint_of(LinkFamily::Sync, &LinkConfig::default());
    assert!(
        margins.is_empty(),
        "I1 must have no bundled captures, got {}",
        margins.len()
    );
}

/// Pulls `"first_failure": {"I1": ..., "I2": ..., "I3": ...}` out of
/// the named section of `BENCH_robustness.json` without a JSON
/// dependency (the vendored serde is a no-op stand-in).
fn first_failures(json: &str, section: &str) -> Option<[Option<f64>; 3]> {
    let sec = json.find(&format!("\"{section}\""))?;
    let ff = json[sec..].find("\"first_failure\"")? + sec;
    let open = json[ff..].find('{')? + ff;
    let close = json[open..].find('}')? + open;
    let body = &json[open + 1..close];
    let mut out = [None, None, None];
    for (i, kind) in ["I1", "I2", "I3"].iter().enumerate() {
        let k = body.find(&format!("\"{kind}\""))?;
        let rest = body[k..].split(':').nth(1)?;
        let val = rest.split([',', '}']).next()?.trim();
        out[i] = val.parse::<f64>().ok();
    }
    Some(out)
}

/// The static margins must tell the same story as the simulated skew
/// sweep: the async serialized links fail within a gate delay or two
/// of injected data-vs-strobe skew (their static margins are small
/// and positive), while the parallel synchronous link tolerates two
/// orders of magnitude more (it is statically unconstrained — its
/// failure mode is the clock period, not a matched delay).
#[test]
fn static_margins_reconcile_with_simulated_robustness() {
    let json = include_str!("../../bench/fixtures/BENCH_robustness.json");
    let ff = first_failures(json, "data_skew_ps")
        .expect("data_skew_ps.first_failure parses");
    let [i1, i2, i3] = ff;

    let cfg = LinkConfig::default();
    let (_, m2) = lint_of(LinkFamily::PerTransfer, &cfg);
    let (_, m3) = lint_of(LinkFamily::PerWord, &cfg);
    let (_, m1) = lint_of(LinkFamily::Sync, &cfg);

    // Sign agreement: simulated-clean links have positive static
    // margins; the simulated first failure is a *positive* amount of
    // injected skew.
    for (label, margins, fail) in [("I2", &m2, i2), ("I3", &m3, i3)] {
        let fail = fail.expect("async links have a finite simulated first failure");
        assert!(fail > 0.0, "{label}: simulated first failure must be positive");
        let min = margins.iter().map(|m| m.margin_ps).fold(f64::INFINITY, f64::min);
        assert!(min > 0.0, "{label}: static margin must be positive (got {min:+.1} ps)");
        // A bundled link cannot statically guarantee more margin than
        // the skew the simulation showed it absorbing. The simulated
        // first failure is the coarse upper bound of the sweep grid.
        assert!(
            min <= 10.0 * fail,
            "{label}: static margin {min:.1} ps wildly exceeds the simulated \
             failure skew {fail:.1} ps — the static model is unsound"
        );
    }

    // Ordering agreement: the sync link's simulated tolerance dwarfs
    // the async links' (it has no bundled captures at all statically).
    let i1 = i1.expect("I1 has a finite simulated first failure");
    let worst_async = i2.unwrap().max(i3.unwrap());
    assert!(
        i1 > 10.0 * worst_async,
        "robustness ordering changed: I1 fails at {i1} ps vs async {worst_async} ps"
    );
    assert!(m1.is_empty(), "I1 grew bundled captures; update this reconciliation");
}

// ---------------------------------------------------------------
// exactness against independent path oracles
// ---------------------------------------------------------------

/// The Pareto quick grid (`sal_bench::pareto::quick_grid`, rebuilt
/// here because `sal-bench` depends on this crate) followed by the
/// five `link_stream` benchmark points.
fn grid_and_stream_specs() -> Vec<LinkSpec> {
    let mut out = Vec::new();
    for family in LinkFamily::ALL {
        for width in [16u8, 32] {
            for ratio in [2u8, 8, 16] {
                if family == LinkFamily::Sync && ratio != 2 {
                    continue;
                }
                for protection in [ProtectionMode::Off, ProtectionMode::Parity] {
                    let spec = LinkSpec::builder()
                        .family(family)
                        .word_width(width)
                        .serial_ratio(ratio)
                        .buffer_depth(4)
                        .protection(protection)
                        .build();
                    out.extend(spec.ok());
                }
            }
        }
    }
    assert_eq!(out.len(), 26, "the quick grid has 26 design points");
    let crc = LinkSpec::builder()
        .family(LinkFamily::PerTransfer)
        .protection(ProtectionMode::Crc8)
        .retry(RetryConfig::default())
        .build()
        .expect("I2 with CRC-8 and default retry is a valid spec");
    let i3_8 = LinkSpec::builder()
        .family(LinkFamily::PerWord)
        .serial_ratio(8)
        .build()
        .expect("I3 at 8:1 is a valid spec");
    out.extend([
        LinkSpec::paper(LinkFamily::Sync),
        LinkSpec::paper(LinkFamily::PerTransfer),
        LinkSpec::paper(LinkFamily::PerWord),
        crc,
        i3_8,
    ]);
    out
}

/// Which cone a transition travels in, for the oracles.
#[derive(Clone, Copy, PartialEq)]
enum Cone {
    Data,
    /// Data cone behind its single launch register.
    Clock,
    Strobe,
}

/// The bundled-data crossing rules, restated: the input pins a
/// transition of `comp`'s output came through, and the cone it was
/// in there.
fn crossing(comp: &NetComponent, cone: Cone) -> (&[SignalId], Cone) {
    use CellClass::*;
    match (comp.class, cone) {
        (Comb | Wire | Route, _) => (&comp.inputs, cone),
        (Latch, Cone::Data) => (&comp.data_pins, cone),
        (Dff, Cone::Data) => (&comp.trigger_pins, Cone::Clock),
        (Latch | Dff | CElement | DavidCell, Cone::Strobe) => (&comp.trigger_pins, cone),
        _ => (&[], cone),
    }
}

/// Forward edges `(from, to, delay_fs)` of the transition graph over
/// `signal * 3 + cone` states. Edges into the origin are left out: a
/// cone ends where it meets its launch point.
fn forward_edges(graph: &NetGraph, origin: SignalId) -> Vec<(usize, usize, i64)> {
    let state = |s: SignalId, cone: Cone| s.index() * 3 + cone as usize;
    let mut edges = Vec::new();
    for sig in graph.signals.iter().filter(|s| s.id != origin) {
        for &driver in &sig.drivers {
            let comp = graph.component(driver);
            let delay = comp.delay.map_or(0, |d| d.as_fs() as i64);
            for cone in [Cone::Data, Cone::Clock, Cone::Strobe] {
                let (pins, from) = crossing(comp, cone);
                for &pin in pins {
                    edges.push((state(pin, from), state(sig.id, cone), delay));
                }
            }
        }
    }
    edges
}

/// Shortest delay from `origin` to every state, by Bellman–Ford
/// relaxation until nothing changes (`i64::MAX` = unreachable).
fn bellman_ford_min(graph: &NetGraph, origin: SignalId) -> Vec<i64> {
    let edges = forward_edges(graph, origin);
    let mut dist = vec![i64::MAX; graph.signals.len() * 3];
    dist[origin.index() * 3 + Cone::Strobe as usize] = 0;
    for round in 0.. {
        assert!(
            round <= dist.len(),
            "Bellman–Ford must settle within |V| rounds"
        );
        let mut changed = false;
        for &(from, to, delay) in &edges {
            if dist[from] != i64::MAX && dist[from] + delay < dist[to] {
                dist[to] = dist[from] + delay;
                changed = true;
            }
        }
        if !changed {
            return dist;
        }
    }
    unreachable!()
}

/// States reachable from `starts` over `adjacency`.
fn reachable(adjacency: &[Vec<usize>], starts: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; adjacency.len()];
    let mut stack = starts.to_vec();
    while let Some(u) = stack.pop() {
        if !std::mem::replace(&mut seen[u], true) {
            stack.extend(&adjacency[u]);
        }
    }
    seen
}

/// Longest delay from `origin` (in either data mode) to every state
/// on a path into one of the `captured` data signals, by Kahn's
/// topological order; panics if those states hold a cycle.
fn topological_max(graph: &NetGraph, origin: SignalId, captured: &[SignalId]) -> Vec<Option<i64>> {
    let n = graph.signals.len() * 3;
    let edges = forward_edges(graph, origin);
    let (mut succ, mut pred) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for &(from, to, _) in &edges {
        succ[from].push(to);
        pred[to].push(from);
    }
    let sources = [Cone::Data, Cone::Clock].map(|c| origin.index() * 3 + c as usize);
    let targets: Vec<usize> = captured.iter().map(|s| s.index() * 3).collect();
    let (from_origin, to_capture) = (reachable(&succ, &sources), reachable(&pred, &targets));
    let on_path: Vec<bool> = (0..n).map(|u| from_origin[u] && to_capture[u]).collect();
    let mut out_edges = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (from, to, delay) in edges {
        if on_path[from] && on_path[to] {
            out_edges[from].push((to, delay));
            indegree[to] += 1;
        }
    }
    let mut best = vec![None; n];
    let mut ready: Vec<usize> = sources.into_iter().filter(|&s| on_path[s]).collect();
    for &s in &ready {
        best[s] = Some(0);
    }
    let mut ordered = 0;
    while let Some(u) = ready.pop() {
        ordered += 1;
        let here = best[u].expect("a state on an origin path has a delay");
        for &(to, delay) in &out_edges[u] {
            best[to] = best[to].max(Some(here + delay));
            indegree[to] -= 1;
            if indegree[to] == 0 {
                ready.push(to);
            }
        }
    }
    let states = on_path.iter().filter(|&&p| p).count();
    assert_eq!(ordered, states, "data cones into captures must be acyclic");
    best
}

/// Every margin of every quick-grid and `link_stream` netlist equals
/// what a Bellman–Ford strobe minimum and a topological data maximum
/// give, and every capture the oracles constrain is reported.
#[test]
fn timing_margins_match_independent_oracles() {
    let cfg = LinkConfig::default();
    for spec in grid_and_stream_specs() {
        let graph = netgraph(&spec, &cfg);
        let margins = timing_margins(&graph);
        let captured: Vec<_> = graph.captures.iter().map(|c| c.data).collect();
        let oracles: Vec<_> = graph
            .bundles
            .iter()
            .map(|b| {
                let data = topological_max(&graph, b.origin, &captured);
                (data, bellman_ford_min(&graph, b.origin))
            })
            .collect();
        let mut constrained = 0;
        for cap in &graph.captures {
            // The nearest bundle by data delay, first on ties.
            let paired = oracles
                .iter()
                .enumerate()
                .filter_map(|(bi, (data, _))| Some((bi, data[cap.data.index() * 3]?)))
                .min_by_key(|&(_, d)| d);
            let Some((bi, data_max)) = paired else {
                continue;
            };
            constrained += 1;
            let strobe_min = oracles[bi].1[cap.trigger.index() * 3 + Cone::Strobe as usize];
            assert_ne!(
                strobe_min,
                i64::MAX,
                "{spec:?}: shipped strobes are reachable"
            );
            let bundle = &graph.bundles[bi];
            let (data, trigger) = (
                &graph.signal(cap.data).path,
                &graph.signal(cap.trigger).path,
            );
            let m = margins
                .iter()
                .find(|m| {
                    m.bundle == bundle.label
                        && &m.capture_data == data
                        && &m.capture_trigger == trigger
                })
                .unwrap_or_else(|| panic!("{spec:?}: no margin for {data} <- {trigger}"));
            let lead = bundle.data_lead.as_fs() as i64;
            let ctx = format!("{spec:?}: {data} <- {trigger}");
            assert_eq!(m.data_max_ps, data_max as f64 / 1000.0, "{ctx}: data max");
            assert_eq!(
                m.strobe_min_ps,
                strobe_min as f64 / 1000.0,
                "{ctx}: strobe min"
            );
            assert_eq!(
                m.margin_ps,
                (lead + strobe_min - data_max) as f64 / 1000.0,
                "{ctx}"
            );
        }
        assert_eq!(
            margins.len(),
            constrained,
            "{spec:?}: one margin per constrained capture"
        );
    }
}

/// The r2 parity checker's output is captured by every receive-side
/// slice cell. Its strobe cone is cyclic (the cells' handshake
/// feedback); a path walk that gave up part-way reported 574.2 ps of
/// strobe and +298.1 ps of margin here, 12.1 ps more than the exact
/// values.
#[test]
fn r2_parity_capture_has_the_exact_strobe_minimum() {
    for width in [16u8, 32] {
        let spec = LinkSpec::builder()
            .family(LinkFamily::PerTransfer)
            .word_width(width)
            .serial_ratio(2)
            .buffer_depth(4)
            .protection(ProtectionMode::Parity)
            .build()
            .expect("I2 r2 parity is a valid spec");
        let margins = timing_margins(&netgraph(&spec, &LinkConfig::default()));
        let m = margins
            .iter()
            .find(|m| {
                m.capture_data == "link.chk.dout" && m.capture_trigger == "link.rx_if.cell0.le"
            })
            .expect("the parity checker output is a constrained capture");
        assert_eq!(m.strobe_min_ps, 562.14, "w{width}: strobe minimum");
        assert_eq!(m.margin_ps, 286.0, "w{width}: margin");
    }
}
