//! Fault-tolerant-routing chaos campaign (`campaign reroute`).
//!
//! The reconfiguration layer's claim is falsifiable: when links die
//! permanently, adaptive routing must recompute around them and the
//! flows must still complete with exactly-once delivery, while static
//! XY on the *same* failure schedule livelocks and the watchdog names
//! the starved flows. This module runs that claim as a campaign over
//! {failure scenario} × {flow layout} × {routing mode} × {seed}:
//!
//! * `single` — one scheduled physical-link kill mid-run, placed on a
//!   link the layout's XY routes depend on.
//! * `multi`  — three staggered kills cutting three of the four
//!   column-1/2 row crossings (the mesh stays connected).
//! * `storm`  — the flow campaign's four link-killer cells verbatim
//!   (bursty 10 % storm, CRC-8, permanent failure after two resyncs):
//!   the cells that livelock under XY must complete under rerouting.
//!   A storm can sever part of the fabric outright (e.g. kill both
//!   inbound channels of a node); those cells exercise the
//!   last-resort deep retrain, reported per cell as
//!   `retrained_links`.
//!
//! The headline is the goodput-vs-failed-links curve per routing mode,
//! plus the reconfiguration story per cell: epochs, injection-freeze
//! cycles, stranded/salvaged packet counts. Everything is seeded and
//! the JSON is bytewise deterministic — CI runs the `--quick` subset
//! and diffs `BENCH_reroute.json` against a committed fixture.

use sal_noc::{
    ChannelFaults, ChannelProtection, Direction, FlowConfig, FlowNetReport, LinkKill, LinkModel,
    Mesh, Network, NetworkConfig, NodeId, RoutingMode, WatchdogConfig,
};

use crate::flows::{cell_process, layout_flows, FLOW_PACKETS, LAYOUTS, MAX_CYCLES, SEEDS};
use crate::sweep;

/// Failure scenarios (see the module docs).
pub const SCENARIOS: [&str; 3] = ["single", "multi", "storm"];

/// Routing modes compared on every scenario.
pub const MODES: [&str; 2] = ["xy", "adaptive"];

/// One campaign cell's coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Failure scenario (see [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Flow layout name (shared with the flow campaign).
    pub layout: &'static str,
    /// Routing mode label (see [`MODES`]).
    pub mode: &'static str,
    /// Network seed.
    pub seed: u64,
}

/// One finished campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RerouteCell {
    /// Coordinates.
    pub spec: CellSpec,
    /// The full flow-mode run report.
    pub report: FlowNetReport,
}

impl RerouteCell {
    /// Outcome tag: `completed`, `livelocked`, or
    /// `progressing_at_cutoff`.
    pub fn outcome(&self) -> &'static str {
        if self.report.completed {
            "completed"
        } else if self.report.livelocked {
            "livelocked"
        } else {
            "progressing_at_cutoff"
        }
    }

    /// Aggregate goodput, payload packets per cycle summed over flows.
    pub fn agg_goodput(&self) -> f64 {
        self.report.flows.iter().map(|f| f.goodput_ppc).sum()
    }

    /// Fraction of offered payloads delivered in order.
    pub fn delivered_frac(&self) -> f64 {
        let delivered: u64 = self.report.flows.iter().map(|f| f.delivered).sum();
        let offered: u64 = self.report.flows.iter().map(|f| f.spec.packets).sum();
        delivered as f64 / offered as f64
    }

    /// Corrupted payloads accepted — must stay zero.
    pub fn accepted_corrupt(&self) -> u64 {
        self.report.flows.iter().map(|f| f.counts.accepted_corrupt).sum()
    }

    /// Payloads delivered twice — must stay zero.
    pub fn dup_delivered(&self) -> u64 {
        self.report.flows.iter().map(|f| f.counts.dup_delivered).sum()
    }

    /// A hard livelock whose final report names no starved flow.
    pub fn unnamed_livelock(&self) -> bool {
        self.report.livelocked
            && !self.report.stalls.last().is_some_and(|s| s.hard && !s.starved.is_empty())
    }

    /// Cycles injection spent frozen across reconfiguration epochs.
    pub fn frozen_cycles(&self) -> u64 {
        match mode_of(self.spec.mode) {
            RoutingMode::Adaptive { reconfig_pause } => {
                self.report.net.reconfig_epochs * u64::from(reconfig_pause)
            }
            RoutingMode::XyStatic => 0,
        }
    }
}

/// The routing mode behind a label.
pub fn mode_of(mode: &str) -> RoutingMode {
    match mode {
        "xy" => RoutingMode::XyStatic,
        "adaptive" => RoutingMode::adaptive(),
        other => panic!("unknown mode {other}"),
    }
}

/// The scheduled kills of a scenario. `single` targets the one link
/// the layout's XY routes funnel through; `multi` cuts three of the
/// four east–west crossings between columns 1 and 2 in waves.
pub fn scenario_kills(scenario: &str, layout: &str) -> Vec<LinkKill> {
    let mesh = Mesh::new(4, 4);
    match scenario {
        // Clean corner flows finish near cycle 955; kills must land
        // well inside the run.
        "single" => match layout {
            // Row-0 link 1<->2: XY paths of flows 0->15 and 3->12.
            "corners" => LinkKill::both_ways(&mesh, 200, NodeId(1), Direction::East).to_vec(),
            // Column link 1<->5: the last XY hop of flows 0->5, 3->5.
            "hotspot" => LinkKill::both_ways(&mesh, 200, NodeId(1), Direction::South).to_vec(),
            other => panic!("unknown layout {other}"),
        },
        "multi" => {
            let mut kills = Vec::new();
            for (cycle, row_node) in [(150, 1u16), (300, 5), (450, 9)] {
                kills.extend(LinkKill::both_ways(&mesh, cycle, NodeId(row_node), Direction::East));
            }
            kills
        }
        "storm" => Vec::new(),
        other => panic!("unknown scenario {other}"),
    }
}

fn cell_config(spec: CellSpec) -> (NetworkConfig, FlowConfig) {
    // `storm` reproduces the flow campaign's link-killer cells
    // exactly (bursty 10 % + CRC-8 + permanent failure after two
    // resyncs); the scheduled scenarios run clean links so the kill
    // placement is the only failure variable.
    let faults = (spec.scenario == "storm").then(|| {
        ChannelFaults::new(cell_process("bursty", 0.10), ChannelProtection::Crc8)
            .with_permanent_failure(2)
    });
    let cfg = NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults,
        routing: mode_of(spec.mode),
        link_kills: scenario_kills(spec.scenario, spec.layout),
    };
    let mut flows = FlowConfig::new(layout_flows(spec.layout));
    flows.watchdog = WatchdogConfig { interval: 4_096, hard_stall_checks: 8 };
    (cfg, flows)
}

/// Runs one cell.
pub fn run_cell(spec: CellSpec) -> RerouteCell {
    let (cfg, flows) = cell_config(spec);
    let mut net = Network::with_flows(cfg, &flows, spec.seed);
    RerouteCell { spec, report: net.run_flows(MAX_CYCLES) }
}

/// The full campaign grid: scenario × layout × mode × seed.
pub fn full_grid() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for scenario in SCENARIOS {
        for layout in LAYOUTS {
            for mode in MODES {
                for seed in SEEDS {
                    specs.push(CellSpec { scenario, layout, mode, seed });
                }
            }
        }
    }
    specs
}

/// The CI subset: every storm cell (the four link-killer cells of the
/// flow campaign under both modes — the PR's acceptance surface) plus
/// the first-seed single-kill cells.
pub fn quick_grid() -> Vec<CellSpec> {
    full_grid()
        .into_iter()
        .filter(|s| s.scenario == "storm" || (s.scenario == "single" && s.seed == SEEDS[0]))
        .collect()
}

/// Everything `campaign reroute` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RerouteReport {
    /// All cells, in grid order.
    pub cells: Vec<RerouteCell>,
}

/// Runs a grid. Deterministic: all randomness flows from the cell
/// seeds through per-channel derived streams.
pub fn campaign(grid: Vec<CellSpec>) -> RerouteReport {
    let cells = sweep::parallel_map(grid, run_cell).expect("a reroute cell panicked");
    RerouteReport { cells }
}

/// One point of the goodput-vs-failed-links curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveRow {
    /// Directed channels dead at the end of the run.
    pub failed_links: u64,
    /// Aggregate goodput averaged over the bucket's cells.
    pub goodput: f64,
    /// Delivered-payload fraction averaged over the bucket.
    pub delivered_frac: f64,
    /// Fraction of the bucket's cells that completed.
    pub completed_frac: f64,
    /// Cells in the bucket.
    pub cells: usize,
}

/// The goodput-vs-failed-links curve of one routing mode: cells
/// bucketed by how many directed channels ended up dead.
pub fn curve(cells: &[RerouteCell], mode: &str) -> Vec<CurveRow> {
    let mut buckets: Vec<u64> = cells
        .iter()
        .filter(|c| c.spec.mode == mode)
        .map(|c| c.report.net.recovery.failed_links)
        .collect();
    buckets.sort_unstable();
    buckets.dedup();
    buckets
        .into_iter()
        .map(|failed| {
            let slice: Vec<&RerouteCell> = cells
                .iter()
                .filter(|c| c.spec.mode == mode && c.report.net.recovery.failed_links == failed)
                .collect();
            let n = slice.len().max(1) as f64;
            CurveRow {
                failed_links: failed,
                goodput: slice.iter().map(|c| c.agg_goodput()).sum::<f64>() / n,
                delivered_frac: slice.iter().map(|c| c.delivered_frac()).sum::<f64>() / n,
                completed_frac: slice.iter().filter(|c| c.report.completed).count() as f64 / n,
                cells: slice.len(),
            }
        })
        .collect()
}

/// Prints the per-cell reconfiguration story and the goodput vs
/// failed-links curve of each routing mode.
pub fn print(report: &RerouteReport) {
    println!("== per-cell reconfiguration story ==");
    println!(
        "{:<7} {:<8} {:<9} {:>4} {:<22} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8}",
        "scen", "layout", "mode", "seed", "outcome", "cycles", "failed", "epochs", "retrain",
        "stranded", "salvaged", "goodput"
    );
    for c in &report.cells {
        println!(
            "{:<7} {:<8} {:<9} {:>4} {:<22} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8.5}",
            c.spec.scenario,
            c.spec.layout,
            c.spec.mode,
            c.spec.seed,
            c.outcome(),
            c.report.cycles,
            c.report.net.recovery.failed_links,
            c.report.net.reconfig_epochs,
            c.report.net.retrained_links,
            c.report.net.stranded_packets,
            c.report.net.salvaged_packets,
            c.agg_goodput(),
        );
    }

    println!("\n== goodput vs failed links ==");
    for mode in MODES {
        println!("-- {mode} --");
        println!("{:>6} {:>10} {:>10} {:>10} {:>6}", "failed", "goodput", "delivered", "completed", "cells");
        for row in curve(&report.cells, mode) {
            println!(
                "{:>6} {:>10.6} {:>9.0}% {:>9.0}% {:>6}",
                row.failed_links,
                row.goodput,
                row.delivered_frac * 100.0,
                row.completed_frac * 100.0,
                row.cells
            );
        }
    }
}

/// Checks the campaign's acceptance surface; returns human-readable
/// violations instead of panicking so the caller can print them all.
pub fn violations(report: &RerouteReport) -> Vec<String> {
    let mut v = Vec::new();
    for c in &report.cells {
        let tag = format!(
            "{}/{}/{} seed {}",
            c.spec.scenario, c.spec.layout, c.spec.mode, c.spec.seed
        );
        if c.accepted_corrupt() > 0 {
            v.push(format!("{tag}: accepted corrupted payload"));
        }
        if c.dup_delivered() > 0 {
            v.push(format!("{tag}: duplicate delivery"));
        }
        if c.unnamed_livelock() {
            v.push(format!("{tag}: livelock without named victims"));
        }
        match c.spec.mode {
            // The tentpole claim: rerouting completes every scenario,
            // including the storm cells that livelock under XY.
            "adaptive" => {
                if !c.report.completed {
                    v.push(format!("{tag}: adaptive run did not complete ({})", c.outcome()));
                }
                if c.report.net.recovery.failed_links > 0 && c.report.net.reconfig_epochs == 0 {
                    v.push(format!("{tag}: links died but no reconfiguration epoch ran"));
                }
            }
            // The pinned baseline: scheduled kills starve XY flows and
            // the watchdog names them; the storm cells reproduce the
            // flow campaign's named livelocks.
            "xy" => {
                if !c.report.livelocked {
                    v.push(format!("{tag}: XY baseline should livelock, got {}", c.outcome()));
                }
                if c.report.net.reconfig_epochs != 0 {
                    v.push(format!("{tag}: XY must never reconfigure"));
                }
                if c.report.net.retrained_links != 0 {
                    v.push(format!("{tag}: XY must never retrain a link"));
                }
            }
            other => v.push(format!("{tag}: unknown mode {other}")),
        }
    }
    v
}

fn cell_json(c: &RerouteCell) -> String {
    let net = &c.report.net;
    let starved = c.report.stalls.last().map_or(0, |s| s.starved.len());
    format!(
        "{{\"scenario\": \"{}\", \"layout\": \"{}\", \"mode\": \"{}\", \"seed\": {}, \
         \"outcome\": \"{}\", \"cycles\": {}, \"agg_goodput\": {:.6}, \
         \"delivered_frac\": {:.4}, \"jain\": {:.4}, \"failed_links\": {}, \
         \"reconfig_epochs\": {}, \"retrained_links\": {}, \"frozen_cycles\": {}, \
         \"stranded_flits\": {}, \
         \"stranded_packets\": {}, \"salvaged_packets\": {}, \"residual_flits\": {}, \
         \"dup_delivered\": {}, \"accepted_corrupt\": {}, \"starved_named\": {}}}",
        c.spec.scenario,
        c.spec.layout,
        c.spec.mode,
        c.spec.seed,
        c.outcome(),
        c.report.cycles,
        c.agg_goodput(),
        c.delivered_frac(),
        c.report.jain,
        net.recovery.failed_links,
        net.reconfig_epochs,
        net.retrained_links,
        c.frozen_cycles(),
        net.stranded_flits,
        net.stranded_packets,
        net.salvaged_packets,
        net.residual_flits,
        c.dup_delivered(),
        c.accepted_corrupt(),
        starved,
    )
}

/// Serialises the report as the `BENCH_reroute.json` artifact
/// (hand-rolled: the vendored serde is a no-op stub).
pub fn to_json(r: &RerouteReport, quick: bool) -> String {
    let dup: u64 = r.cells.iter().map(RerouteCell::dup_delivered).sum();
    let corrupt: u64 = r.cells.iter().map(RerouteCell::accepted_corrupt).sum();
    let unnamed = r.cells.iter().filter(|c| c.unnamed_livelock()).count();
    let mut curves = Vec::new();
    for mode in MODES {
        let rows: Vec<String> = curve(&r.cells, mode)
            .iter()
            .map(|p| {
                format!(
                    "[{}, {:.6}, {:.4}, {:.2}, {}]",
                    p.failed_links, p.goodput, p.delivered_frac, p.completed_frac, p.cells
                )
            })
            .collect();
        curves.push(format!(
            "    {{\"mode\": \"{mode}\", \
             \"curve_failed_goodput_delivered_completed_cells\": [{}]}}",
            rows.join(", ")
        ));
    }
    let cells: Vec<String> = r.cells.iter().map(cell_json).collect();
    let seeds: Vec<String> = SEEDS.iter().map(u64::to_string).collect();
    format!(
        "{{\n  \"experiment\": \"reroute\",\n  \"grid\": \"{}\",\n  \
         \"flow_packets\": {},\n  \"max_cycles\": {},\n  \"seeds\": [{}],\n  \
         \"invariants\": {{\"accepted_corrupt\": {corrupt}, \"dup_delivered\": {dup}, \
         \"unnamed_livelocks\": {unnamed}, \"violations\": {}}},\n  \
         \"curves\": [\n{}\n  ],\n  \"cells\": [\n    {}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        FLOW_PACKETS,
        MAX_CYCLES,
        seeds.join(", "),
        violations(r).len(),
        curves.join(",\n"),
        cells.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_cell(mode: &'static str) -> RerouteCell {
        run_cell(CellSpec { scenario: "single", layout: "corners", mode, seed: SEEDS[0] })
    }

    #[test]
    fn single_kill_completes_under_adaptive_and_livelocks_under_xy() {
        let adaptive = single_cell("adaptive");
        assert_eq!(adaptive.outcome(), "completed");
        assert!(adaptive.report.net.reconfig_epochs >= 1);
        assert_eq!(adaptive.report.net.recovery.failed_links, 2);
        assert_eq!(adaptive.dup_delivered(), 0);
        assert_eq!(adaptive.accepted_corrupt(), 0);

        let xy = single_cell("xy");
        assert_eq!(xy.outcome(), "livelocked");
        assert!(!xy.unnamed_livelock(), "livelock must name its victims");
        assert_eq!(xy.report.net.reconfig_epochs, 0);
        assert!(violations(&RerouteReport { cells: vec![adaptive, xy] }).is_empty());
    }

    #[test]
    fn doctored_cells_are_violations() {
        let mut adaptive = single_cell("adaptive");
        adaptive.report.completed = false;
        adaptive.report.net.reconfig_epochs = 0;
        let mut xy = single_cell("xy");
        xy.report.net.reconfig_epochs = 1;
        let v = violations(&RerouteReport { cells: vec![adaptive, xy] });
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("did not complete"), "{v:?}");
        assert!(v[1].contains("no reconfiguration epoch"), "{v:?}");
        assert!(v[2].contains("XY must never reconfigure"), "{v:?}");
    }

    #[test]
    fn cells_are_deterministic() {
        let a = single_cell("adaptive");
        let b = single_cell("adaptive");
        assert_eq!(a, b);
        assert_eq!(cell_json(&a), cell_json(&b));
    }

    #[test]
    fn quick_grid_covers_the_acceptance_cells() {
        let quick = quick_grid();
        // All four storm cells per mode (the PR's acceptance surface).
        let storms =
            quick.iter().filter(|s| s.scenario == "storm" && s.mode == "adaptive").count();
        assert_eq!(storms, 4, "2 layouts x 2 seeds under adaptive");
        let xy_storms = quick.iter().filter(|s| s.scenario == "storm" && s.mode == "xy").count();
        assert_eq!(xy_storms, 4, "and their pinned XY baselines");
        assert!(quick.len() < full_grid().len());
    }

    #[test]
    fn json_shape_is_stable() {
        let cell = single_cell("adaptive");
        let r = RerouteReport { cells: vec![cell] };
        let j = to_json(&r, true);
        assert!(j.contains("\"experiment\": \"reroute\""), "{j}");
        assert!(j.contains("\"grid\": \"quick\""), "{j}");
        assert!(j.contains("\"outcome\": \"completed\""), "{j}");
        assert!(j.contains("\"curve_failed_goodput_delivered_completed_cells\""), "{j}");
    }
}
