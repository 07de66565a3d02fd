//! The four workloads: the inputs each derives from the workload seed,
//! its set-up, and its op.
//!
//! Each workload only ever sees its generated inputs: the seed is
//! turned into words, network seeds and cell seeds here, by
//! [`link_stream_inputs`], [`design_sweep_inputs`],
//! [`mesh_uniform_inputs`] and [`flow_chaos_inputs`], and the
//! workload is built from those alone.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use sal_cells::CircuitBuilder;
use sal_des::Simulator;
use sal_link::{
    generate, run_spec, LinkConfig, LinkFamily, LinkSpec, MeasureOptions, ProtectionMode,
    RetryConfig,
};
use sal_lint::LintReport;
use sal_noc::{
    ChannelFaults, ChannelProtection, Direction, FlowConfig, LinkModel, Mesh, Network,
    NetworkConfig, NodeId, RouteTable, RoutingMode, TrafficPattern, WatchdogConfig,
};
use sal_tech::St012Library;

use crate::stats::Digest;
use crate::trace::Tracer;

/// What one op did: its useful work in the workload's unit, the digest
/// of its simulated outputs, and the factor that turns its wall time
/// into a comparable op-time sample (1 except for `flow_chaos`).
#[derive(Debug, Clone)]
pub struct Op {
    /// Useful simulated work (words, design points or router-cycles).
    pub work: u64,
    /// Digest of every deterministic simulated output of the op.
    pub digest: u64,
    /// Multiplier from the op's wall time to its op-time sample.
    pub time_scale: f64,
}

/// A closed-loop workload: one client issuing one op at a time.
pub trait Workload {
    /// Everything before the first timed op. Runs several times, each
    /// time from scratch; the last run's products serve the ops.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Ops in one pass over the op list.
    fn ops_per_pass(&self) -> usize;
    /// Whether every pass replays the same ops (then every replay
    /// must reproduce the first pass's outputs exactly); otherwise
    /// each pass continues where the previous one stopped.
    fn replays(&self) -> bool;
    /// Runs op `index` of pass `pass`. A failed op is an `Err` naming
    /// what went wrong.
    fn op(&mut self, pass: u32, index: usize, tr: &mut Tracer) -> Result<Op, String>;
    /// Stand-alone layer probes, run once after the last pass of a
    /// traced run.
    fn probe(&mut self, _tr: &mut Tracer) {}
}

/// SplitMix64: the seed expander behind every generated input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `n`-th value of the stream a seed expands to under `tag`.
fn draw(seed: u64, tag: u64, n: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(tag)).wrapping_add(n))
}

/// `n` words of `width` bits drawn from the stream `(seed, tag)`.
fn words(seed: u64, tag: u64, n: usize, width: u8) -> Vec<u64> {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    (0..n as u64).map(|i| draw(seed, tag, i) & mask).collect()
}

// ---------------------------------------------------------------
// Gate-level links: link_stream and design_sweep
// ---------------------------------------------------------------

/// Words per `link_stream` op.
pub const STREAM_WORDS: usize = 256;

/// The span around the extra calls a traced link op makes to time
/// what `run_spec` does inside; not part of the op itself.
pub const DECOMPOSE_SPAN: &str = "link.decompose";

/// Words per `design_sweep` op: the paper's 4-flit protocol.
pub const SWEEP_WORDS: usize = 4;

/// The inputs of a gate-level link workload: design points, each with
/// the word stream its op sends.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkInputs {
    /// `(spec, words)` per op of a pass.
    pub points: Vec<(LinkSpec, Vec<u64>)>,
}

/// The five `link_stream` design points: the paper's I1/I2/I3, I2
/// with CRC-8 and the default retry policy, and I3 at 8:1.
fn stream_specs() -> Vec<LinkSpec> {
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
    vec![
        LinkSpec::paper(LinkFamily::Sync),
        LinkSpec::paper(LinkFamily::PerTransfer),
        LinkSpec::paper(LinkFamily::PerWord),
        crc,
        i3_8,
    ]
}

/// `link_stream` inputs: a seeded stream of `n_words` words per design
/// point.
pub fn link_stream_inputs(seed: u64, n_words: usize) -> LinkInputs {
    let points = stream_specs()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let w = words(seed, i as u64, n_words, spec.word_width());
            (spec, w)
        })
        .collect();
    LinkInputs { points }
}

/// `design_sweep` inputs: every spec of the Pareto quick grid with its
/// own seeded 4-word transfer.
pub fn design_sweep_inputs(seed: u64) -> LinkInputs {
    let points = sal_bench::pareto::quick_grid()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let w = words(seed, 0x5eed_0000 + i as u64, SWEEP_WORDS, spec.word_width());
            (spec, w)
        })
        .collect();
    LinkInputs { points }
}

/// A gate-level link workload: `link_stream` when `stream` is set (its
/// set-up also compiles each point, and its work is words), else
/// `design_sweep` (work is design points).
pub struct LinkWorkload {
    inputs: LinkInputs,
    stream: bool,
    base: LinkConfig,
    opts: MeasureOptions,
}

impl LinkWorkload {
    /// `link_stream` over `inputs`.
    pub fn stream(inputs: LinkInputs) -> Self {
        Self::new(inputs, true)
    }

    /// `design_sweep` over `inputs`.
    pub fn sweep(inputs: LinkInputs) -> Self {
        Self::new(inputs, false)
    }

    fn new(inputs: LinkInputs, stream: bool) -> Self {
        LinkWorkload {
            inputs,
            stream,
            base: LinkConfig::default(),
            opts: MeasureOptions::default(),
        }
    }

    /// Generates the bare link netlist of `spec` and snapshots its
    /// graph, each in its own span.
    fn elaborate(
        &self,
        spec: &LinkSpec,
        tr: &mut Tracer,
    ) -> Result<(Simulator, sal_des::NetGraph), String> {
        let s = tr.open("link.generate");
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        generate(&mut b, spec, "link", &self.base).map_err(|e| format!("{spec:?}: {e}"))?;
        b.finish();
        tr.close(s);
        let s = tr.open("des.netgraph");
        let graph = sim.netgraph();
        tr.close(s);
        Ok((sim, graph))
    }
}

/// Runs each `sal-lint` pass's public `check` in its own span and
/// returns the error count.
fn lint(graph: &sal_des::NetGraph, tr: &mut Tracer) -> usize {
    let mut report = LintReport::new();
    type Pass = fn(&sal_des::NetGraph, &mut LintReport);
    let passes: [(&'static str, Pass); 4] = [
        ("lint.connectivity", sal_lint::connectivity::check),
        ("lint.loops", sal_lint::loops::check),
        ("lint.timing", sal_lint::timing::check),
        ("lint.handshake", sal_lint::handshake::check),
    ];
    for (name, check) in passes {
        let s = tr.open(name);
        check(graph, &mut report);
        tr.close(s);
    }
    report.errors().count()
}

impl Workload for LinkWorkload {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for (spec, _) in &self.inputs.points {
            let (mut sim, graph) = self.elaborate(spec, tr)?;
            let errors = lint(&graph, tr);
            tr.count("lint.errors", errors as f64);
            if errors > 0 {
                return Err(format!("lint reports {errors} errors on {spec:?}"));
            }
            if self.stream {
                let s = tr.open("des.compile");
                black_box(sim.compile());
                tr.close(s);
            }
        }
        Ok(())
    }

    fn ops_per_pass(&self) -> usize {
        self.inputs.points.len()
    }

    fn replays(&self) -> bool {
        true
    }

    fn op(&mut self, _pass: u32, index: usize, tr: &mut Tracer) -> Result<Op, String> {
        let (spec, words) = &self.inputs.points[index];
        if tr.on() {
            // Time the elaboration and compilation that `run_spec`
            // performs inside, as separate calls. The enclosing span
            // lets the tracing overhead leave their cost out.
            let outer = tr.open(DECOMPOSE_SPAN);
            let (mut sim, graph) = self.elaborate(spec, tr)?;
            tr.count("link.cells", graph.components.len() as f64);
            let s = tr.open("des.compile");
            black_box(sim.compile());
            tr.close(s);
            drop((sim, graph));
            tr.close(outer);
        }
        let s = tr.open("link.run_spec");
        let run = run_spec(spec, &self.base, words, &self.opts);
        tr.close(s);
        let run = run.map_err(|e| format!("{}: {e}", spec.family().label()))?;
        if !run.integrity.is_clean() {
            return Err(format!("{spec:?}: unclean integrity {:?}", run.integrity));
        }
        if run.received_words() != *words {
            return Err(format!("{spec:?}: received words differ from those sent"));
        }
        let p = &run.profile;
        if tr.on() {
            tr.count("des.event_loop", p.wall.as_secs_f64());
            tr.count("des.events", p.events as f64);
            tr.count("des.commits", p.commits as f64);
            tr.count("des.wakes", p.wakes as f64);
            tr.count("des.deltas", p.deltas as f64);
            tr.count("des.cone_evals", p.cone_evals as f64);
            tr.count("des.events_avoided", p.events_avoided as f64);
            tr.count("des.cones_built", p.cones_built as f64);
        }
        let mut d = Digest::default();
        for &(t, w) in &run.received {
            d.u64(t.as_fs()).u64(w);
        }
        d.u64(run.in_use.as_fs())
            .u64(p.events)
            .u64(p.commits)
            .debug(&run.integrity)
            .debug(&run.recovery);
        let work = if self.stream { words.len() as u64 } else { 1 };
        Ok(Op {
            work,
            digest: d.value(),
            time_scale: 1.0,
        })
    }
}

// ---------------------------------------------------------------
// Flit-level mesh: mesh_uniform
// ---------------------------------------------------------------

/// The inputs of `mesh_uniform`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshInputs {
    /// The network's traffic seed.
    pub net_seed: u64,
    /// Mesh side (routers per row and column).
    pub side: u16,
    /// Offered load, flits per node per cycle.
    pub load: f64,
    /// Discarded warm-up cycles run in set-up.
    pub warmup: u64,
    /// Cycles per op.
    pub chunk: u64,
    /// Ops per pass.
    pub chunks_per_pass: usize,
    /// Largest backlog, in flits, a chunk may end with; more means
    /// the offered load exceeds what the mesh drains.
    pub backlog_limit: u64,
}

/// `mesh_uniform` inputs: an 8x8 mesh at 0.2 flits/node/cycle, below
/// saturation (the backlog holds near 400 flits).
pub fn mesh_uniform_inputs(seed: u64) -> MeshInputs {
    MeshInputs {
        net_seed: draw(seed, 0x3e5, 0),
        side: 8,
        load: 0.2,
        warmup: 2_000,
        chunk: 1_000,
        chunks_per_pass: 10,
        backlog_limit: 1_600,
    }
}

/// The busy mesh: uniform random traffic over I3 channels with
/// adaptive routing.
pub struct MeshWorkload {
    inputs: MeshInputs,
    net: Option<Network>,
    /// Flits injected and delivered since construction (conservation).
    injected: u64,
    delivered: u64,
}

impl MeshWorkload {
    /// `mesh_uniform` over `inputs`.
    pub fn new(inputs: MeshInputs) -> Self {
        MeshWorkload {
            inputs,
            net: None,
            injected: 0,
            delivered: 0,
        }
    }

    fn config(&self) -> NetworkConfig {
        let spec = LinkSpec::paper(LinkFamily::PerWord);
        NetworkConfig {
            mesh: Mesh::new(self.inputs.side, self.inputs.side),
            link: LinkModel::from_spec(&spec, &LinkConfig::default()),
            input_queue_flits: 8,
            packet_len_flits: 4,
            faults: None,
            routing: RoutingMode::adaptive(),
            link_kills: Vec::new(),
        }
    }

    fn routers(&self) -> u64 {
        u64::from(self.inputs.side) * u64::from(self.inputs.side)
    }
}

impl Workload for MeshWorkload {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let cfg = self.config();
        let s = tr.open("noc.build");
        let mut net = Network::new(
            cfg,
            TrafficPattern::UniformRandom,
            self.inputs.load,
            self.inputs.net_seed,
        );
        tr.close(s);
        let s = tr.open("noc.warmup");
        let stats = net.run(self.inputs.warmup, 0);
        tr.close(s);
        self.injected = stats.injected_flits;
        self.delivered = stats.delivered_flits;
        self.net = Some(net);
        Ok(())
    }

    fn ops_per_pass(&self) -> usize {
        self.inputs.chunks_per_pass
    }

    fn replays(&self) -> bool {
        false
    }

    fn op(&mut self, _pass: u32, index: usize, tr: &mut Tracer) -> Result<Op, String> {
        let net = self.net.as_mut().expect("set-up builds the network");
        let s = tr.open("noc.run");
        let stats = net.run(self.inputs.chunk, 0);
        let dt = tr.close(s);
        self.injected += stats.injected_flits;
        self.delivered += stats.delivered_flits;
        if self.injected != self.delivered + stats.residual_flits + stats.stranded_flits {
            return Err(format!(
                "flit conservation: {} injected, {} delivered, {} queued, {} stranded",
                self.injected, self.delivered, stats.residual_flits, stats.stranded_flits
            ));
        }
        if stats.residual_flits > self.inputs.backlog_limit {
            return Err(format!(
                "backlog of {} flits exceeds {}: the load is past saturation",
                stats.residual_flits, self.inputs.backlog_limit
            ));
        }
        if tr.on() {
            tr.count("noc.run_s", dt.as_secs_f64());
            tr.count("noc.delivered_flits", stats.delivered_flits as f64);
            tr.count("noc.latency_p50_cycles", stats.latency_quantile(0.5) as f64);
            tr.count(
                "noc.latency_p99_cycles",
                stats.latency_quantile(0.99) as f64,
            );
            if index + 1 == self.inputs.chunks_per_pass {
                tr.count("noc.residual_flits", stats.residual_flits as f64);
            }
        }
        let digest = Digest::default().debug(&stats).value();
        Ok(Op {
            work: self.inputs.chunk * self.routers(),
            digest,
            time_scale: 1.0,
        })
    }

    /// Times `RouteTable::permitted` over every `(src, at, dst)` of
    /// the whole-mesh table, five times.
    fn probe(&mut self, tr: &mut Tracer) {
        let mesh = Mesh::new(self.inputs.side, self.inputs.side);
        let table = RouteTable::new(mesh);
        let n = mesh.nodes() as u16;
        for _ in 0..5 {
            let t = Instant::now();
            let mut outs = 0usize;
            for src in 0..n {
                for at in 0..n {
                    for dst in 0..n {
                        let p =
                            table.permitted(NodeId(src), NodeId(at), Direction::Local, NodeId(dst));
                        outs += black_box(p).len();
                    }
                }
            }
            black_box(outs);
            let calls = f64::from(n) * f64::from(n) * f64::from(n);
            tr.count(
                "routing.permitted_ns",
                t.elapsed().as_secs_f64() * 1e9 / calls,
            );
        }
    }
}

// ---------------------------------------------------------------
// Flows under chaos: flow_chaos
// ---------------------------------------------------------------

/// Simulated cycles an op's time is normalized to (see [`FlowWorkload`]).
pub const FLOW_OP_CYCLES: f64 = 10_000.0;

/// The inputs of `flow_chaos`: the cell-seed stream and the cell shape.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowInputs {
    /// Root of the cell-seed stream; cell `k` runs at seed
    /// [`FlowInputs::cell`]`(k).1`.
    pub cell_root: u64,
    /// Cells per pass (alternating layouts).
    pub cells_per_pass: usize,
}

/// `flow_chaos` inputs: storm cells of the reroute campaign, a corners
/// and a hotspot cell per pass.
pub fn flow_chaos_inputs(seed: u64) -> FlowInputs {
    FlowInputs {
        cell_root: draw(seed, 0xf10, 0),
        cells_per_pass: 2,
    }
}

impl FlowInputs {
    /// Layout and network seed of cell `k`.
    pub fn cell(&self, k: u64) -> (&'static str, u64) {
        let layouts = sal_bench::flows::LAYOUTS;
        (
            layouts[(k % layouts.len() as u64) as usize],
            splitmix64(self.cell_root.wrapping_add(k)),
        )
    }
}

/// The storm cell of the reroute campaign (`sal_bench::reroute`,
/// scenario `storm`, mode `adaptive`): a bursty 10 % error process,
/// CRC-8, permanent failure after two resyncs, adaptive routing, on a
/// 4x4 mesh, with the flow campaign's layouts of
/// `sal_bench::flows::FLOW_PACKETS` packets per flow. The campaign
/// keeps its builder private, so a test pins this copy to
/// `reroute::run_cell`.
pub fn storm_config(layout: &str) -> (NetworkConfig, FlowConfig) {
    let faults = ChannelFaults::new(
        sal_bench::flows::cell_process("bursty", 0.10),
        ChannelProtection::Crc8,
    )
    .with_permanent_failure(2);
    let cfg = NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: Some(faults),
        routing: RoutingMode::adaptive(),
        link_kills: Vec::new(),
    };
    let mut flows = FlowConfig::new(sal_bench::flows::layout_flows(layout));
    flows.watchdog = WatchdogConfig {
        interval: 4_096,
        hard_stall_checks: 8,
    };
    (cfg, flows)
}

/// Sparse flows under a link-killer storm. Every op builds and runs a
/// fresh cell to completion; passes continue the cell-seed stream.
///
/// Cells run 20k-220k simulated cycles depending on their seed, so the
/// op-time sample is the cell's wall time per [`FLOW_OP_CYCLES`]
/// simulated cycles, and the work is router-cycles.
pub struct FlowWorkload {
    inputs: FlowInputs,
}

impl FlowWorkload {
    /// `flow_chaos` over `inputs`.
    pub fn new(inputs: FlowInputs) -> Self {
        FlowWorkload { inputs }
    }

    /// Builds and runs cell `(layout, seed)`, checking the storm
    /// cell's invariants: every payload acked exactly once, nothing
    /// corrupt accepted.
    fn cell(layout: &str, seed: u64, tr: &mut Tracer) -> Result<Op, String> {
        let (cfg, flows) = storm_config(layout);
        let mesh = cfg.mesh;
        let s = tr.open("noc.build");
        let mut net = Network::with_flows(cfg, &flows, seed);
        tr.close(s);
        let s = tr.open("noc.run");
        let rep = net.run_flows(sal_bench::flows::MAX_CYCLES);
        let dt = tr.close(s);
        let acked: u64 = rep.flows.iter().map(|f| f.acked).sum();
        let dup: u64 = rep.flows.iter().map(|f| f.counts.dup_delivered).sum();
        let corrupt: u64 = rep.flows.iter().map(|f| f.counts.accepted_corrupt).sum();
        let offered: u64 = flows.flows.iter().map(|f| f.packets).sum();
        // Adaptive rerouting must carry every storm cell to completion;
        // a cell the watchdog stops (a livelock) is a failed op.
        if dup > 0 || corrupt > 0 || !rep.completed || acked != offered {
            return Err(format!(
                "adaptive {layout} storm cell {seed:#x}: completed={} livelocked={} at cycle {}, \
                 acked {acked}/{offered}, dup_delivered={dup} accepted_corrupt={corrupt}",
                rep.completed, rep.livelocked, rep.cycles
            ));
        }
        if tr.on() {
            let failed: BTreeSet<(u16, u8)> = rep
                .net
                .link_recovery
                .iter()
                .filter(|r| r.counts.failed)
                .map(|r| (r.node.0, r.dir.index() as u8))
                .collect();
            let mut table = RouteTable::new(mesh);
            let t = Instant::now();
            table.rebuild(black_box(failed));
            tr.count("routing.rebuild_us", t.elapsed().as_secs_f64() * 1e6);
            let n = &rep.net;
            tr.count("noc.run_s", dt.as_secs_f64());
            tr.count("noc.delivered_flits", n.delivered_flits as f64);
            tr.count("noc.residual_flits", n.residual_flits as f64);
            tr.count("noc.latency_p50_cycles", n.latency_quantile(0.5) as f64);
            tr.count("noc.latency_p99_cycles", n.latency_quantile(0.99) as f64);
            tr.count("routing.reconfig_epochs", n.reconfig_epochs as f64);
            tr.count("routing.retrained_links", n.retrained_links as f64);
            tr.count("routing.stranded_flits", n.stranded_flits as f64);
            tr.count("routing.salvaged_packets", n.salvaged_packets as f64);
            let sum =
                |f: fn(&sal_noc::FlowStats) -> u64| rep.flows.iter().map(f).sum::<u64>() as f64;
            tr.count("flow.acked", acked as f64);
            tr.count("flow.retx", sum(|f| f.counts.retx));
            tr.count("flow.timeouts", sum(|f| f.counts.timeouts));
            tr.count("flow.sim_cycles", rep.cycles as f64);
            tr.count("flow.dup_delivered", dup as f64);
            tr.count("flow.accepted_corrupt", corrupt as f64);
            let r = &n.recovery;
            tr.count("fault.errors", r.counts.errors as f64);
            tr.count("fault.replays", r.counts.replays as f64);
            tr.count("fault.resyncs", r.counts.resyncs as f64);
            tr.count("fault.failed_links", r.failed_links as f64);
        }
        Ok(Op {
            work: rep.cycles * mesh.nodes() as u64,
            digest: Digest::default().debug(&rep).value(),
            time_scale: FLOW_OP_CYCLES / rep.cycles.max(1) as f64,
        })
    }
}

impl Workload for FlowWorkload {
    /// Each op builds its own cell, so set-up is a discarded warm-up:
    /// one cell per layout at fixed seeds (independent of the
    /// workload seed), checked like any op.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let warm = FlowInputs {
            cell_root: 0x0005_e70b,
            ..self.inputs.clone()
        };
        for k in 0..2 {
            let (layout, seed) = warm.cell(k);
            Self::cell(layout, seed, tr).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(())
    }

    fn ops_per_pass(&self) -> usize {
        self.inputs.cells_per_pass
    }

    fn replays(&self) -> bool {
        false
    }

    fn op(&mut self, pass: u32, index: usize, tr: &mut Tracer) -> Result<Op, String> {
        let k = u64::from(pass) * self.inputs.cells_per_pass as u64 + index as u64;
        let (layout, seed) = self.inputs.cell(k);
        Self::cell(layout, seed, tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digests of one pass, from a fresh set-up.
    fn pass(mut w: impl Workload) -> Vec<u64> {
        let mut tr = Tracer::new(false);
        w.setup(&mut tr).expect("set-up succeeds");
        (0..w.ops_per_pass())
            .map(|i| w.op(0, i, &mut tr).expect("op succeeds").digest)
            .collect()
    }

    fn tiny_link(seed: u64) -> LinkInputs {
        let mut inputs = link_stream_inputs(seed, 6);
        inputs
            .points
            .retain(|(s, _)| s.family() != LinkFamily::PerTransfer);
        inputs
    }

    fn tiny_mesh(seed: u64) -> MeshInputs {
        MeshInputs {
            side: 3,
            load: 0.1,
            warmup: 50,
            chunk: 100,
            chunks_per_pass: 2,
            ..mesh_uniform_inputs(seed)
        }
    }

    #[test]
    fn the_seed_reaches_only_the_generated_inputs() {
        let (a, b) = (link_stream_inputs(1, 8), link_stream_inputs(2, 8));
        assert_eq!(a, link_stream_inputs(1, 8));
        for ((sa, wa), (sb, wb)) in a.points.iter().zip(&b.points) {
            assert_eq!(sa, sb, "design points do not depend on the seed");
            assert_ne!(wa, wb, "word streams do");
            assert!(
                wa.iter().all(|&w| w >> sa.word_width() == 0),
                "words fit the link"
            );
        }
        let (a, b) = (design_sweep_inputs(1), design_sweep_inputs(2));
        assert_eq!(a.points.len(), 26);
        assert!(a
            .points
            .iter()
            .zip(&b.points)
            .all(|(x, y)| x.0 == y.0 && x.1 != y.1));
        let (a, b) = (mesh_uniform_inputs(1), mesh_uniform_inputs(2));
        assert_ne!(a.net_seed, b.net_seed);
        assert_eq!(
            MeshInputs { net_seed: 0, ..a },
            MeshInputs { net_seed: 0, ..b }
        );
        let (a, b) = (flow_chaos_inputs(1), flow_chaos_inputs(2));
        assert_ne!(a.cell(0).1, b.cell(0).1);
        assert_eq!(
            FlowInputs { cell_root: 0, ..a },
            FlowInputs { cell_root: 0, ..b }
        );
        assert_eq!((a.cell(0).0, a.cell(1).0), ("corners", "hotspot"));
    }

    #[test]
    fn link_digest_is_stable_at_a_seed_and_changes_with_it() {
        let first = pass(LinkWorkload::stream(tiny_link(7)));
        assert_eq!(first, pass(LinkWorkload::stream(tiny_link(7))));
        assert_ne!(first, pass(LinkWorkload::stream(tiny_link(8))));
    }

    #[test]
    fn mesh_digest_is_stable_at_a_seed_and_changes_with_it() {
        let first = pass(MeshWorkload::new(tiny_mesh(7)));
        assert_eq!(first, pass(MeshWorkload::new(tiny_mesh(7))));
        assert_ne!(first, pass(MeshWorkload::new(tiny_mesh(8))));
    }

    #[test]
    fn flow_digest_is_stable_at_a_seed_and_changes_with_it() {
        let first = pass(FlowWorkload::new(flow_chaos_inputs(7)));
        assert_eq!(first, pass(FlowWorkload::new(flow_chaos_inputs(7))));
        assert_ne!(first, pass(FlowWorkload::new(flow_chaos_inputs(8))));
    }

    #[test]
    fn the_storm_cell_is_the_reroute_campaigns() {
        use sal_bench::reroute::{run_cell, CellSpec};
        let (layout, seed) = ("hotspot", sal_bench::flows::SEEDS[0]);
        let (cfg, flows) = storm_config(layout);
        let ours = Network::with_flows(cfg, &flows, seed).run_flows(sal_bench::flows::MAX_CYCLES);
        let spec = CellSpec {
            scenario: "storm",
            layout,
            mode: "adaptive",
            seed,
        };
        assert_eq!(ours, run_cell(spec).report);
    }

    #[test]
    fn a_growing_backlog_fails_the_op() {
        let inputs = MeshInputs {
            load: 0.9,
            backlog_limit: 100,
            ..tiny_mesh(3)
        };
        let mut w = MeshWorkload::new(inputs);
        let mut tr = Tracer::new(false);
        w.setup(&mut tr).expect("set-up succeeds");
        let err = w.op(0, 0, &mut tr).expect_err("overload must fail");
        assert!(err.contains("past saturation"), "{err}");
    }
}
