//! Network chaos campaign for end-to-end flows (`campaign flows`).
//!
//! The flow layer's claim is falsifiable: windowed senders with AIMD
//! backoff over lossy channels must deliver every payload exactly
//! once — no silent corruption, no duplicates — or the progress
//! watchdog must *name* what starved. This module runs that claim as
//! a campaign over
//! {flow layout} × {error process} × {protection} × {error rate} ×
//! {seed} through [`sweep::parallel_map`], plus a set of
//! link-killer cells where channels fail permanently and the
//! watchdog's livelock diagnosis is the artifact under test.
//!
//! The headline is the goodput-collapse / fairness curve: per
//! `(layout, process, protection)` the aggregate goodput and Jain
//! index across error rates, with the integrity invariants
//! (`accepted_corrupt == 0`, `dup_delivered == 0`, zero unflagged
//! livelocks) checked over *every* cell by [`violations`]. Everything
//! is seeded and the JSON is bytewise deterministic — CI diffs
//! `BENCH_flows.json` against a committed fixture.

use sal_noc::{
    ChannelFaults, ChannelProtection, ErrorProcess, FlowConfig, FlowNetReport, FlowSpec,
    LinkModel, Mesh, Network, NetworkConfig, NodeId, WatchdogConfig,
};

use crate::sweep;

/// Flow layouts on the 4×4 mesh.
pub const LAYOUTS: [&str; 2] = ["corners", "hotspot"];

/// Error-process shapes (same mean rate, different clustering).
pub const PROCESSES: [&str; 2] = ["iid", "bursty"];

/// Link protections under test: CRC-8 detects-and-replays everything;
/// `off` delivers silent corruption that only the end-to-end check
/// can catch.
pub const PROTECTIONS: [ChannelProtection; 2] =
    [ChannelProtection::Crc8, ChannelProtection::Off];

/// Mean per-flit error rates swept (the goodput-collapse axis).
pub const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

/// Network seeds per cell (determinism is part of the contract).
pub const SEEDS: [u64; 2] = [29, 61];

/// Payload packets per flow.
pub const FLOW_PACKETS: u64 = 150;

/// Hard cycle budget per cell; a cell that neither completes nor
/// livelocks by then is reported as `progressing_at_cutoff`.
pub const MAX_CYCLES: u64 = 400_000;

/// One campaign cell's coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Flow layout name (see [`LAYOUTS`]).
    pub layout: &'static str,
    /// Error-process shape (see [`PROCESSES`]).
    pub process: &'static str,
    /// Link protection.
    pub protection: ChannelProtection,
    /// Mean per-flit error rate.
    pub rate: f64,
    /// Network seed.
    pub seed: u64,
    /// Link-killer variant: channels fail permanently after two
    /// resyncs on one flit (exercises the watchdog's naming).
    pub kill_links: bool,
}

/// One finished campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCell {
    /// Coordinates.
    pub spec: CellSpec,
    /// The full flow-mode run report.
    pub report: FlowNetReport,
}

impl FlowCell {
    /// Outcome tag for tables and JSON: `completed`, `livelocked`, or
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

    /// Aggregate goodput: payload packets delivered in order per
    /// cycle, summed over flows.
    pub fn agg_goodput(&self) -> f64 {
        self.report.flows.iter().map(|f| f.goodput_ppc).sum()
    }

    /// Corrupted payloads the receivers *accepted* — the campaign's
    /// most load-bearing zero.
    pub fn accepted_corrupt(&self) -> u64 {
        self.report.flows.iter().map(|f| f.counts.accepted_corrupt).sum()
    }

    /// Payloads delivered to an application more than once — the
    /// second load-bearing zero.
    pub fn dup_delivered(&self) -> u64 {
        self.report.flows.iter().map(|f| f.counts.dup_delivered).sum()
    }

    /// A stall the watchdog flagged but could not attribute: a hard
    /// livelock whose final report names no starved flow. Must never
    /// happen.
    pub fn unnamed_livelock(&self) -> bool {
        self.report.livelocked
            && !self.report.stalls.last().is_some_and(|s| s.hard && !s.starved.is_empty())
    }
}

/// The flow layout of a cell: `corners` is four disjoint long-haul
/// flows (fairness should stay near 1); `hotspot` aims four flows at
/// one core so the AIMD windows compete for the same ejection port.
pub fn layout_flows(layout: &str) -> Vec<FlowSpec> {
    let f = |src: u16, dst: u16| FlowSpec {
        src: NodeId(src),
        dst: NodeId(dst),
        packets: FLOW_PACKETS,
    };
    match layout {
        "corners" => vec![f(0, 15), f(3, 12), f(12, 3), f(15, 0)],
        "hotspot" => vec![f(0, 5), f(3, 5), f(12, 5), f(15, 5)],
        other => panic!("unknown layout {other}"),
    }
}

/// The error process of a cell: i.i.d. at the mean rate, or a
/// Gilbert–Elliott burst process with the same stationary mean whose
/// bad state errors at 60 % and persists ~20 flits.
pub fn cell_process(process: &str, rate: f64) -> ErrorProcess {
    match process {
        "iid" => ErrorProcess::Iid { p: rate },
        "bursty" if rate == 0.0 => ErrorProcess::Iid { p: 0.0 },
        "bursty" => ErrorProcess::bursty(rate, 0.6, 0.05),
        other => panic!("unknown process {other}"),
    }
}

fn cell_config(spec: CellSpec) -> (NetworkConfig, FlowConfig) {
    let mut faults = ChannelFaults::new(cell_process(spec.process, spec.rate), spec.protection);
    if spec.kill_links {
        faults = faults.with_permanent_failure(2);
    }
    let cfg = NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: Some(faults),
        routing: sal_noc::RoutingMode::XyStatic,
        link_kills: Vec::new(),
    };
    let mut flows = FlowConfig::new(layout_flows(spec.layout));
    // The livelock horizon must exceed the worst legitimate silence
    // (a fully backed-off RTO plus a round trip), or a patient sender
    // gets misdiagnosed as livelocked.
    flows.watchdog = WatchdogConfig { interval: 4_096, hard_stall_checks: 8 };
    (cfg, flows)
}

/// Runs one cell.
pub fn run_cell(spec: CellSpec) -> FlowCell {
    let (cfg, flows) = cell_config(spec);
    let mut net = Network::with_flows(cfg, &flows, spec.seed);
    FlowCell { spec, report: net.run_flows(MAX_CYCLES) }
}

/// Everything `campaign flows` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowsReport {
    /// All cells: the full sweep first, then the link-killer cells.
    pub cells: Vec<FlowCell>,
}

/// Runs the full campaign. Deterministic: all randomness flows from
/// [`SEEDS`] through per-channel derived streams.
pub fn campaign() -> FlowsReport {
    let mut specs: Vec<CellSpec> = Vec::new();
    for layout in LAYOUTS {
        for process in PROCESSES {
            for protection in PROTECTIONS {
                for rate in RATES {
                    for seed in SEEDS {
                        specs.push(CellSpec {
                            layout,
                            process,
                            protection,
                            rate,
                            seed,
                            kill_links: false,
                        });
                    }
                }
            }
        }
    }
    // Link-killer cells: the harshest bursty storm with permanent
    // failure enabled — the watchdog's diagnosis is the artifact.
    for layout in LAYOUTS {
        for seed in SEEDS {
            specs.push(CellSpec {
                layout,
                process: "bursty",
                protection: ChannelProtection::Crc8,
                rate: 0.10,
                seed,
                kill_links: true,
            });
        }
    }
    let cells = sweep::parallel_map(specs, run_cell).expect("a flow cell panicked");
    FlowsReport { cells }
}

/// One point of the goodput-collapse curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveRow {
    /// Mean per-flit error rate.
    pub rate: f64,
    /// Aggregate goodput averaged over seeds, packets/cycle.
    pub goodput: f64,
    /// Jain fairness index averaged over seeds.
    pub jain: f64,
    /// Fraction of seeds whose cell completed.
    pub completed_frac: f64,
}

/// The goodput-collapse curve of one `(layout, process, protection)`
/// slice of the sweep (link-killer cells excluded).
pub fn curve(
    cells: &[FlowCell],
    layout: &str,
    process: &str,
    protection: ChannelProtection,
) -> Vec<CurveRow> {
    RATES
        .iter()
        .map(|&rate| {
            let slice: Vec<&FlowCell> = cells
                .iter()
                .filter(|c| {
                    !c.spec.kill_links
                        && c.spec.layout == layout
                        && c.spec.process == process
                        && c.spec.protection == protection
                        && c.spec.rate == rate
                })
                .collect();
            let n = slice.len().max(1) as f64;
            CurveRow {
                rate,
                goodput: slice.iter().map(|c| c.agg_goodput()).sum::<f64>() / n,
                jain: slice.iter().map(|c| c.report.jain).sum::<f64>() / n,
                completed_frac: slice.iter().filter(|c| c.report.completed).count() as f64 / n,
            }
        })
        .collect()
}

/// Prints the goodput-collapse / fairness curves, the link-killer
/// cells and the integrity totals.
pub fn print(report: &FlowsReport) {
    println!("== flow chaos campaign: {} seeds per cell ==", SEEDS.len());
    for layout in LAYOUTS {
        for process in PROCESSES {
            for protection in PROTECTIONS {
                println!("\n-- {layout} / {process} / {} --", protection.label());
                println!("{:>6} {:>12} {:>8} {:>10}", "rate", "goodput", "jain", "completed");
                for row in curve(&report.cells, layout, process, protection) {
                    println!(
                        "{:>6.3} {:>12.6} {:>8.4} {:>9.0}%",
                        row.rate,
                        row.goodput,
                        row.jain,
                        row.completed_frac * 100.0
                    );
                }
            }
        }
    }

    println!("\n== link-killer cells (watchdog under test) ==");
    for cell in report.cells.iter().filter(|c| c.spec.kill_links) {
        let named = cell.report.stalls.last().map_or(0, |s| s.starved.len());
        println!(
            "{:<8} seed {:>3}: {:<22} cycles {:>8}  failed_links {:>2}  starved_named {}",
            cell.spec.layout,
            cell.spec.seed,
            cell.outcome(),
            cell.report.cycles,
            cell.report.net.recovery.failed_links,
            named
        );
    }
}

/// The integrity invariants over every cell: no receiver accepted a
/// corrupted payload, none was delivered twice, and every livelock
/// named its victims.
pub fn violations(report: &FlowsReport) -> Vec<String> {
    let mut v = Vec::new();
    for c in &report.cells {
        let tag = format!(
            "{}/{}/{}/rate {:.3} seed {}{}",
            c.spec.layout,
            c.spec.process,
            c.spec.protection.label(),
            c.spec.rate,
            c.spec.seed,
            if c.spec.kill_links { " (link killer)" } else { "" }
        );
        if c.accepted_corrupt() > 0 {
            v.push(format!("{tag}: a receiver accepted corrupted payload"));
        }
        if c.dup_delivered() > 0 {
            v.push(format!("{tag}: a payload was delivered twice"));
        }
        if c.unnamed_livelock() {
            v.push(format!("{tag}: a livelock went unnamed"));
        }
    }
    v
}

fn flow_json(f: &sal_noc::FlowStats) -> String {
    format!(
        "{{\"flow\": {}, \"src\": {}, \"dst\": {}, \"delivered\": {}, \"acked\": {}, \
         \"completed_at\": {}, \"goodput_ppc\": {:.6}, \"sent\": {}, \"retx\": {}, \
         \"timeouts\": {}, \"dup_rx\": {}, \"dup_delivered\": {}, \"corrupt_payloads\": {}, \
         \"corrupt_acks\": {}, \"accepted_corrupt\": {}}}",
        f.flow.0,
        f.spec.src.0,
        f.spec.dst.0,
        f.delivered,
        f.acked,
        f.completed_at.map_or_else(|| "null".to_string(), |c| c.to_string()),
        f.goodput_ppc,
        f.counts.sent,
        f.counts.retx,
        f.counts.timeouts,
        f.counts.dup_rx,
        f.counts.dup_delivered,
        f.counts.corrupt_payloads,
        f.counts.corrupt_acks,
        f.counts.accepted_corrupt,
    )
}

fn stalls_json(report: &FlowNetReport) -> String {
    let last = report.stalls.last().map_or_else(
        || "null".to_string(),
        |s| {
            let starved: Vec<String> = s
                .starved
                .iter()
                .map(|f| {
                    format!(
                        "{{\"flow\": {}, \"src\": {}, \"dst\": {}, \"cum_acked\": {}, \
                         \"packets\": {}, \"backoff\": {}, \"retx\": {}}}",
                        f.flow.0, f.src.0, f.dst.0, f.cum_acked, f.packets, f.backoff, f.retx
                    )
                })
                .collect();
            let channels: Vec<String> = s
                .stalled_channels
                .iter()
                .map(|c| {
                    format!(
                        "{{\"node\": {}, \"dir\": \"{:?}\", \"state\": \"{}\", \"queued\": {}}}",
                        c.from.0, c.dir, c.state, c.queued
                    )
                })
                .collect();
            format!(
                "{{\"cycle\": {}, \"hard\": {}, \"starved\": [{}], \"stalled_channels\": [{}]}}",
                s.cycle,
                s.hard,
                starved.join(", "),
                channels.join(", ")
            )
        },
    );
    format!("{{\"reports\": {}, \"last\": {last}}}", report.stalls.len())
}

fn cell_json(c: &FlowCell) -> String {
    let rec = &c.report.net.recovery;
    let flows: Vec<String> = c.report.flows.iter().map(flow_json).collect();
    format!(
        "{{\"layout\": \"{}\", \"process\": \"{}\", \"protection\": \"{}\", \"rate\": {:.3}, \
         \"seed\": {}, \"kill_links\": {}, \"outcome\": \"{}\", \"cycles\": {}, \
         \"agg_goodput\": {:.6}, \"jain\": {:.4}, \
         \"recovery\": {{\"errors\": {}, \"nacks\": {}, \"timeouts\": {}, \"replays\": {}, \
         \"resyncs\": {}, \"degrades\": {}, \"undetected\": {}, \"failed_links\": {}}}, \
         \"stalls\": {}, \"flows\": [{}]}}",
        c.spec.layout,
        c.spec.process,
        c.spec.protection.label(),
        c.spec.rate,
        c.spec.seed,
        c.spec.kill_links,
        c.outcome(),
        c.report.cycles,
        c.agg_goodput(),
        c.report.jain,
        rec.counts.errors,
        rec.counts.nacks,
        rec.counts.timeouts,
        rec.counts.replays,
        rec.counts.resyncs,
        rec.counts.degrades,
        rec.counts.undetected,
        rec.failed_links,
        stalls_json(&c.report),
        flows.join(", ")
    )
}

/// Serialises the report as the `BENCH_flows.json` artifact
/// (hand-rolled: the vendored serde is a no-op stub).
pub fn to_json(r: &FlowsReport) -> String {
    let accepted_corrupt: u64 = r.cells.iter().map(FlowCell::accepted_corrupt).sum();
    let dup_delivered: u64 = r.cells.iter().map(FlowCell::dup_delivered).sum();
    let unnamed = r.cells.iter().filter(|c| c.unnamed_livelock()).count();
    let mut curves = Vec::new();
    for layout in LAYOUTS {
        for process in PROCESSES {
            for protection in PROTECTIONS {
                let rows: Vec<String> = curve(&r.cells, layout, process, protection)
                    .iter()
                    .map(|p| {
                        format!(
                            "[{:.3}, {:.6}, {:.4}, {:.2}]",
                            p.rate, p.goodput, p.jain, p.completed_frac
                        )
                    })
                    .collect();
                curves.push(format!(
                    "    {{\"layout\": \"{layout}\", \"process\": \"{process}\", \
                     \"protection\": \"{}\", \"curve_rate_goodput_jain_completed\": [{}]}}",
                    protection.label(),
                    rows.join(", ")
                ));
            }
        }
    }
    let cells: Vec<String> = r.cells.iter().map(cell_json).collect();
    let seeds: Vec<String> = SEEDS.iter().map(u64::to_string).collect();
    format!(
        "{{\n  \"experiment\": \"flows\",\n  \"flow_packets\": {},\n  \"max_cycles\": {},\n  \
         \"seeds\": [{}],\n  \"invariants\": {{\"accepted_corrupt\": {accepted_corrupt}, \
         \"dup_delivered\": {dup_delivered}, \"unnamed_livelocks\": {unnamed}}},\n  \
         \"curves\": [\n{}\n  ],\n  \"cells\": [\n    {}\n  ]\n}}\n",
        FLOW_PACKETS,
        MAX_CYCLES,
        seeds.join(", "),
        curves.join(",\n"),
        cells.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell(protection: ChannelProtection, rate: f64) -> FlowCell {
        // A single small cell keeps the debug-profile test fast.
        run_cell(CellSpec {
            layout: "corners",
            process: "iid",
            protection,
            rate,
            seed: SEEDS[0],
            kill_links: false,
        })
    }

    #[test]
    fn clean_cell_completes_fairly() {
        let cell = tiny_cell(ChannelProtection::Crc8, 0.0);
        assert_eq!(cell.outcome(), "completed");
        assert!(cell.report.jain > 0.9, "jain {}", cell.report.jain);
        assert_eq!(cell.accepted_corrupt(), 0);
        assert_eq!(cell.dup_delivered(), 0);
        assert_eq!(cell.report.net.recovery.counts.errors, 0);
    }

    #[test]
    fn lossy_cell_holds_the_integrity_invariants() {
        let cell = tiny_cell(ChannelProtection::Off, 0.05);
        // Unprotected at 5 %: corruption must actually reach the
        // end-to-end check for the invariants to mean anything.
        assert!(cell.report.net.recovery.counts.undetected > 0);
        let caught: u64 =
            cell.report.flows.iter().map(|f| f.counts.corrupt_payloads).sum();
        assert!(caught > 0, "the e2e check never fired");
        assert_eq!(cell.accepted_corrupt(), 0, "corruption was accepted");
        assert_eq!(cell.dup_delivered(), 0, "duplicate delivery");
        assert!(!cell.unnamed_livelock());
    }

    #[test]
    fn cells_are_deterministic() {
        let a = tiny_cell(ChannelProtection::Crc8, 0.05);
        let b = tiny_cell(ChannelProtection::Crc8, 0.05);
        assert_eq!(a, b);
        assert_eq!(cell_json(&a), cell_json(&b));
    }

    #[test]
    fn link_killer_cell_is_named_not_hung() {
        let cell = run_cell(CellSpec {
            layout: "corners",
            process: "bursty",
            protection: ChannelProtection::Crc8,
            rate: 0.10,
            seed: SEEDS[0],
            kill_links: true,
        });
        if cell.outcome() == "livelocked" {
            assert!(!cell.unnamed_livelock(), "livelock must name its victims");
            let last = cell.report.stalls.last().unwrap();
            assert!(!last.starved.is_empty());
        }
        assert_eq!(cell.accepted_corrupt(), 0);
        assert_eq!(cell.dup_delivered(), 0);
    }

    #[test]
    fn doctored_cells_are_violations() {
        let mut cell = tiny_cell(ChannelProtection::Crc8, 0.0);
        let mut r = FlowsReport { cells: vec![cell.clone()] };
        assert!(violations(&r).is_empty());
        cell.report.flows[0].counts.accepted_corrupt = 1;
        cell.report.flows[1].counts.dup_delivered = 1;
        cell.report.livelocked = true;
        cell.report.stalls.clear();
        r.cells.push(cell);
        let v = violations(&r);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("accepted corrupted") && v[0].starts_with("corners/iid/crc"), "{v:?}");
        assert!(v[1].contains("delivered twice") && v[2].contains("unnamed"), "{v:?}");
    }

    #[test]
    fn json_shape_is_stable() {
        let cell = tiny_cell(ChannelProtection::Crc8, 0.0);
        let r = FlowsReport { cells: vec![cell] };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"flows\""), "{j}");
        assert!(j.contains("\"invariants\": {\"accepted_corrupt\": 0"), "{j}");
        assert!(j.contains("\"outcome\": \"completed\""), "{j}");
        assert!(j.contains("\"curve_rate_goodput_jain_completed\""), "{j}");
    }
}
