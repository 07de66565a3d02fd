//! The cycle-driven network simulator.

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{ChannelFaults, ChannelState, FaultDice, RecoveryCounts, Upset};
use crate::flow::{FlowConfig, FlowEngine, FlowStats, FlowTag, StallReport, StalledChannel, jain_index};
use crate::routing::{LinkHealth, LinkKill, RouteTable, RoutingMode};
use crate::stats::LinkRecovery;
use crate::{
    Direction, Flit, LinkModel, Mesh, NetworkStats, NodeId, Packet, PacketId, Router,
    TrafficPattern,
};

/// Index of the channel leaving `node` toward `dir` in
/// [`Network`]'s channel table: `node * 4 + dir`.
fn chan_index(node: NodeId, dir: Direction) -> usize {
    debug_assert!(dir != Direction::Local, "the local port has no channel");
    usize::from(node.0) * 4 + dir.index()
}

/// Static configuration of a network instance.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Topology.
    pub mesh: Mesh,
    /// Channel model used for every inter-router link.
    pub link: LinkModel,
    /// Router input FIFO depth, flits.
    pub input_queue_flits: usize,
    /// Packet length, flits.
    pub packet_len_flits: u32,
    /// Dynamic per-channel fault process (`None`: perfect channels).
    /// When set, every channel runs its own seeded error process and
    /// the NACK/timeout/resync/degrade/fail escalation ladder; the
    /// protection mode's bandwidth tax is applied to the link model.
    pub faults: Option<ChannelFaults>,
    /// Routing policy: static XY or fault-tolerant adaptive with
    /// online reconfiguration (see [`RoutingMode`]).
    pub routing: RoutingMode,
    /// Scheduled permanent channel deaths (directed failure
    /// scenarios; composes with `faults`-driven escalation).
    pub link_kills: Vec<LinkKill>,
}

/// Dynamic lossy-channel state: the seeded dice plus the escalation
/// ladder position (mirrors the gate-level `sal-link` controller).
#[derive(Debug)]
struct Lossy {
    dice: FaultDice,
    /// Consecutive failed delivery attempts of the current head flit.
    consec: u32,
    /// Resyncs burned on the current head flit (escalation driver).
    head_resyncs: u32,
    counts: RecoveryCounts,
}

/// One unidirectional inter-router channel instance.
#[derive(Debug)]
struct Channel {
    /// Upstream router.
    from: NodeId,
    /// Direction the channel leaves `from` in.
    dir: Direction,
    /// Downstream router (it receives on `dir.opposite()`).
    to: NodeId,
    model: LinkModel,
    /// Flits in flight: `(deliver_at_cycle, flit)`.
    in_flight: VecDeque<(u64, Flit)>,
    /// Bandwidth accumulator (≥ 1 permits a send).
    rate_credit: f64,
    /// Downstream buffer credits.
    buffer_credits: usize,
    /// Last cycle anything was delivered (watchdog diagnosis).
    last_delivery: u64,
    /// Health state: escalation-driven on lossy channels, or set
    /// directly by scheduled [`LinkKill`]s — which is why it lives on
    /// the channel, not inside the fault machinery.
    state: ChannelState,
    /// Sticky record that the channel entered `Failed` at least once —
    /// a last-resort retrain can revive the *state*, but the failure
    /// must stay visible in the recovery rows.
    ever_failed: bool,
    /// Fault machinery, when the network is lossy.
    lossy: Option<Lossy>,
}

impl Channel {
    /// Availability: a failed channel never accepts, a resyncing one
    /// is draining and refuses new work.
    fn is_open(&self) -> bool {
        !matches!(self.state, ChannelState::Failed | ChannelState::Resyncing { .. })
    }

    fn can_accept(&self) -> bool {
        self.is_open() && self.rate_credit >= 1.0 && self.buffer_credits > self.in_flight.len()
    }

    /// The health class the route table's bias sees.
    fn health(&self) -> LinkHealth {
        match self.state {
            ChannelState::Up => LinkHealth::Up,
            ChannelState::Degraded { .. } => LinkHealth::Degraded,
            ChannelState::Resyncing { .. } => LinkHealth::Resyncing,
            ChannelState::Failed => LinkHealth::Failed,
        }
    }

    fn send(&mut self, now: u64, flit: Flit) {
        debug_assert!(self.can_accept());
        self.rate_credit -= 1.0;
        self.in_flight.push_back((now + self.model.latency_cycles as u64, flit));
    }

    fn tick(&mut self, now: u64) {
        let mut rate = self.model.flits_per_cycle;
        match self.state {
            ChannelState::Failed => rate = 0.0,
            ChannelState::Degraded { until } if now < until => {
                // Transient degrade: half bandwidth.
                rate /= 2.0;
                if let Some(l) = &mut self.lossy {
                    l.counts.degraded_cycles += 1;
                }
            }
            _ => {}
        }
        self.rate_credit = (self.rate_credit + rate).min(2.0);
    }
}

/// Outcome of a flow-mode run: the transport-level story on top of
/// the usual [`NetworkStats`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FlowNetReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Every flow fully acknowledged.
    pub completed: bool,
    /// The progress watchdog declared livelock and aborted the run.
    pub livelocked: bool,
    /// Jain fairness index over per-flow goodput.
    pub jain: f64,
    /// Per-flow statistics.
    pub flows: Vec<FlowStats>,
    /// Watchdog stall reports (who starved, which channels wedged).
    pub stalls: Vec<StallReport>,
    /// The underlying network statistics (incl. recovery counters).
    pub net: NetworkStats,
}

/// A cycle-level network simulation over a wormhole-routed mesh of
/// [`LinkModel`] channels, in one of two modes:
///
/// * **Open loop** ([`Network::new`] + [`Network::run`]): cores
///   inject packets per a [`TrafficPattern`] at a configured rate.
/// * **Flows** ([`Network::with_flows`] + [`Network::run_flows`]):
///   a [`FlowEngine`] drives windowed end-to-end senders whose acks
///   ride the mesh as ordinary return packets.
///
/// With [`NetworkConfig::faults`] set, every channel runs a seeded
/// dynamic fault process with the NACK/timeout/resync/degrade/fail
/// escalation ladder; per-channel [`RecoveryCounts`] surface in
/// [`NetworkStats::link_recovery`].
pub struct Network {
    cfg: NetworkConfig,
    pattern: TrafficPattern,
    /// Offered load, flits per node per cycle.
    inject_rate: f64,
    rng: StdRng,
    routers: Vec<Router>,
    /// Outgoing channel per `(node, direction)`, at
    /// [`chan_index`]; `None` where the direction leaves the mesh.
    channels: Vec<Option<Channel>>,
    inject_q: Vec<VecDeque<Flit>>,
    packets: Packets,
    /// The routers' move buffer, reused every step.
    moves: Vec<(Direction, Flit)>,
    /// The transport engine (flow mode only).
    flows: Option<FlowEngine>,
    /// The live routing function (used in adaptive mode; rebuilt on
    /// every reconfiguration epoch).
    routes: RouteTable,
    /// Scheduled channel deaths, sorted by cycle; `kill_idx` is the
    /// next one due.
    kills: Vec<LinkKill>,
    kill_idx: usize,
    /// Injection is paused until this cycle (reconfiguration epoch).
    inject_frozen_until: u64,
    cycle: u64,
}

/// What the network tracks about one packet between its creation and
/// its tail's ejection.
#[derive(Debug)]
struct LivePacket {
    dst: NodeId,
    inject_cycle: u64,
    /// Accumulated undetected-corruption bit-flip mask.
    corrupt_xor: u64,
    /// Flow-level content (flow mode).
    tag: Option<FlowTag>,
}

/// The live packets: one record per packet in a slot, freed slots
/// reused. A [`PacketId`] packs `generation << 32 | slot`, and freeing
/// a slot bumps its generation, so the id a stale flit still carries
/// (static XY leaves a stranded packet's fragments wedged in place)
/// never names the slot's next packet.
#[derive(Debug, Default)]
struct Packets {
    slots: Vec<(u32, Option<LivePacket>)>,
    free: Vec<u32>,
}

impl Packets {
    fn insert(&mut self, p: LivePacket) -> PacketId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let (generation, rec) = &mut self.slots[slot as usize];
        *rec = Some(p);
        PacketId(u64::from(*generation) << 32 | u64::from(slot))
    }

    fn get_mut(&mut self, id: PacketId) -> Option<&mut LivePacket> {
        let (generation, rec) = &mut self.slots[(id.0 as u32) as usize];
        (u64::from(*generation) == id.0 >> 32).then_some(rec.as_mut()).flatten()
    }

    /// Retires `id`; `None` if it was already retired.
    fn remove(&mut self, id: PacketId) -> Option<LivePacket> {
        let slot = id.0 as u32;
        let (generation, rec) = &mut self.slots[slot as usize];
        if u64::from(*generation) != id.0 >> 32 {
            return None;
        }
        *generation = generation.wrapping_add(1);
        self.free.push(slot);
        rec.take()
    }
}

impl Network {
    /// Builds an open-loop network.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration (zero-length packets, zero
    /// queues, negative rate).
    pub fn new(cfg: NetworkConfig, pattern: TrafficPattern, inject_rate: f64, seed: u64) -> Self {
        assert!(cfg.packet_len_flits >= 1, "packets need at least one flit");
        assert!(cfg.input_queue_flits >= 1, "routers need input buffering");
        assert!(inject_rate >= 0.0, "negative injection rate");
        let mesh = cfg.mesh;
        let routers: Vec<Router> =
            mesh.node_ids().map(|n| Router::new(n, cfg.input_queue_flits)).collect();
        // The protection mode taxes the link: CRC check bytes ride the
        // serial wire, parity rides an extra physical wire.
        let model = match cfg.faults {
            Some(fc) => LinkModel {
                flits_per_cycle: cfg.link.flits_per_cycle * fc.protection.bandwidth_factor(),
                wires: cfg.link.wires + fc.protection.extra_wires(),
                ..cfg.link
            },
            None => cfg.link,
        };
        let mut channels: Vec<Option<Channel>> = (0..mesh.nodes() * 4).map(|_| None).collect();
        for (n, dir) in mesh.directed_channels() {
            let lossy = cfg.faults.map(|fc| Lossy {
                dice: FaultDice::new(fc, seed, n.0, dir.index()),
                consec: 0,
                head_resyncs: 0,
                counts: RecoveryCounts::default(),
            });
            let to = mesh.neighbor(n, dir).expect("directed channels stay on the mesh");
            channels[chan_index(n, dir)] = Some(Channel {
                from: n,
                dir,
                to,
                model,
                in_flight: VecDeque::new(),
                rate_credit: 1.0,
                buffer_credits: cfg.input_queue_flits,
                last_delivery: 0,
                state: ChannelState::Up,
                ever_failed: false,
                lossy,
            });
        }
        let mut kills = cfg.link_kills.clone();
        kills.sort_by_key(|k| (k.cycle, k.node.0, k.dir.index()));
        for k in &kills {
            assert!(
                k.dir != Direction::Local
                    && channels.get(chan_index(k.node, k.dir)).is_some_and(Option::is_some),
                "scheduled kill of a channel that does not exist: {} {:?}",
                k.node,
                k.dir
            );
        }
        let nodes = mesh.nodes();
        Network {
            cfg,
            pattern,
            inject_rate,
            rng: StdRng::seed_from_u64(seed),
            routers,
            channels,
            inject_q: vec![VecDeque::new(); nodes],
            packets: Packets::default(),
            moves: Vec::with_capacity(5),
            flows: None,
            routes: RouteTable::new(mesh),
            kills,
            kill_idx: 0,
            inject_frozen_until: 0,
            cycle: 0,
        }
    }

    /// Builds a flow-mode network: no open-loop injection; the given
    /// flows drive all traffic.
    ///
    /// # Panics
    ///
    /// Panics if a flow endpoint is outside the mesh.
    pub fn with_flows(cfg: NetworkConfig, flows: &FlowConfig, seed: u64) -> Self {
        let nodes = cfg.mesh.nodes() as u16;
        for f in &flows.flows {
            assert!(f.src.0 < nodes && f.dst.0 < nodes, "flow endpoint outside the mesh");
        }
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.0, seed);
        net.flows = Some(FlowEngine::new(flows));
        net
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs open loop for `total_cycles`, measuring after
    /// `warmup_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_cycles >= total_cycles`.
    pub fn run(&mut self, total_cycles: u64, warmup_cycles: u64) -> NetworkStats {
        assert!(warmup_cycles < total_cycles, "warmup must leave measurement cycles");
        let mut stats = NetworkStats {
            nodes: self.cfg.mesh.nodes(),
            ..NetworkStats::default()
        };
        let mut created_total: u64 = 0;
        let mut delivered_total: u64 = 0;
        for _ in 0..total_cycles {
            let measuring = self.cycle >= warmup_cycles;
            let created = self.step_cycle(&mut stats, measuring);
            created_total += created;
            delivered_total = stats.delivered_packets;
        }
        stats.cycles = total_cycles - warmup_cycles;
        stats.in_flight =
            created_total.saturating_sub(delivered_total + stats.stranded_packets);
        self.finalize(&mut stats);
        stats
    }

    /// Runs flow mode until every flow completes, the watchdog
    /// declares livelock, or `max_cycles` elapse.
    ///
    /// # Panics
    ///
    /// Panics if the network was not built with
    /// [`Network::with_flows`].
    pub fn run_flows(&mut self, max_cycles: u64) -> FlowNetReport {
        assert!(self.flows.is_some(), "run_flows needs a flow-mode network");
        let mut stats = NetworkStats {
            nodes: self.cfg.mesh.nodes(),
            ..NetworkStats::default()
        };
        let interval = self.flows.as_ref().expect("flow mode").watchdog_interval();
        let mut created_total: u64 = 0;
        let mut cycles: u64 = 0;
        while cycles < max_cycles {
            created_total += self.step_cycle(&mut stats, true);
            cycles += 1;
            if self.flows.as_ref().expect("flow mode").all_complete() {
                break;
            }
            if self.cycle.is_multiple_of(interval) {
                let stalled = self.stalled_channels(interval);
                let engine = self.flows.as_mut().expect("flow mode");
                engine.watchdog_check(self.cycle, stalled);
                if engine.livelocked() {
                    break;
                }
            }
        }
        stats.cycles = cycles;
        stats.in_flight =
            created_total.saturating_sub(stats.delivered_packets + stats.stranded_packets);
        self.finalize(&mut stats);
        // Flow mode measures from cycle 0, so the flit conservation
        // law is exact: every injected flit was delivered, stranded
        // by a channel death, or is still queued somewhere.
        assert_eq!(
            stats.injected_flits,
            stats.delivered_flits + stats.stranded_flits + stats.residual_flits,
            "flit conservation violated"
        );
        let engine = self.flows.as_ref().expect("flow mode");
        let flows = engine.stats(cycles);
        let goodputs: Vec<f64> = flows.iter().map(|f| f.goodput_ppc).collect();
        FlowNetReport {
            cycles,
            completed: engine.all_complete(),
            livelocked: engine.livelocked(),
            jain: jain_index(&goodputs),
            flows,
            stalls: engine.stalls().to_vec(),
            net: stats,
        }
    }

    /// End-of-run bookkeeping: sort latencies once (quantiles index
    /// directly afterwards) and collect the per-channel recovery rows,
    /// in `(node, direction)` order as the channel table holds them —
    /// rows exist for every channel, all-zero when nothing happened,
    /// so loss-free and `p = 0` runs compare equal field-for-field.
    fn finalize(&self, stats: &mut NetworkStats) {
        stats.finalize_latencies();
        // Flits still queued anywhere in the fabric (conservation).
        stats.residual_flits = self
            .routers
            .iter()
            .map(|r| r.occupancy() as u64)
            .sum::<u64>()
            + self.channels.iter().flatten().map(|c| c.in_flight.len() as u64).sum::<u64>()
            + self.inject_q.iter().map(|q| q.len() as u64).sum::<u64>();
        stats.link_recovery = self
            .channels
            .iter()
            .flatten()
            .map(|ch| {
                let mut counts = ch.lossy.as_ref().map(|l| l.counts).unwrap_or_default();
                // Scheduled kills fail channels without fault
                // machinery, and a retrained channel no longer *is*
                // Failed — the sticky bit surfaces both in the
                // recovery rows.
                counts.failed = counts.failed || ch.ever_failed;
                LinkRecovery { node: ch.from, dir: ch.dir, counts }
            })
            .collect();
        stats.finalize_recovery();
    }

    /// Channels that look wedged: permanently failed, or holding
    /// flits without delivering for a whole watchdog interval; in
    /// `(node, direction)` order.
    fn stalled_channels(&self, interval: u64) -> Vec<StalledChannel> {
        let now = self.cycle;
        self.channels
            .iter()
            .flatten()
            .filter_map(|ch| {
                let state = ch.state.label();
                let queued = ch.in_flight.len();
                let wedged = state == "failed"
                    || (queued > 0 && now.saturating_sub(ch.last_delivery) >= interval);
                wedged.then_some(StalledChannel {
                    from: ch.from,
                    dir: ch.dir,
                    state,
                    queued,
                    last_delivery: ch.last_delivery,
                })
            })
            .collect()
    }

    /// Creates a packet at `from` bound for `to` and feeds its flits
    /// into the source queue.
    fn spawn_packet(&mut self, from: NodeId, to: NodeId, len_flits: u32, tag: Option<FlowTag>) {
        let id = self.packets.insert(LivePacket {
            dst: to,
            inject_cycle: self.cycle,
            corrupt_xor: 0,
            tag,
        });
        let pkt = Packet { id, src: from, dst: to, len_flits, inject_cycle: self.cycle };
        self.inject_q[from.0 as usize].extend((0..len_flits).map(|i| pkt.flit(i)));
    }

    /// Retires the stranded packets, counting each once: static XY
    /// leaves a severed packet's fragments wedged in place, and a
    /// later failure can doom the same packet again.
    fn strand(&mut self, doomed: &BTreeSet<PacketId>, stats: &mut NetworkStats) {
        for &pid in doomed {
            if self.packets.remove(pid).is_some() {
                stats.stranded_packets += 1;
            }
        }
    }

    /// One reconfiguration epoch around the channels that entered
    /// `Failed` this cycle.
    ///
    /// In both routing modes the dead wires are drained: flits caught
    /// mid-flight are gone, and their packets counted stranded (they
    /// used to sit in the dead queue silently — the stranding the
    /// `stranded_flits` counter makes visible).
    ///
    /// In adaptive mode the network additionally performs surgery so
    /// the survivors keep flowing deadlock-free: *every* wormhole lock
    /// is released — a packet whose head had not yet crossed its
    /// locked output is *salvaged* (it simply re-arbitrates on the
    /// rebuilt table), one whose head already crossed is severed and
    /// purged everywhere, because a worm straddling routers drags
    /// pre-epoch channel dependencies that can deadlock against the
    /// rebuilt relation (the transport layer retransmits it over the
    /// new routes). The route table is rebuilt against the full failed
    /// set, heads the new relation cannot route from where they stand
    /// are severed too, and injection pauses for the configured
    /// reconfiguration window. See DESIGN.md §5h.
    /// When even reconfiguration cannot keep every pair routable, the
    /// minimal set of failed channels is *revived* through a deep
    /// retrain instead (counted in `retrained_links`) — a retrained
    /// link stays dark for this many cycles before re-entering
    /// service.
    const RETRAIN_DRAIN: u64 = 256;

    fn handle_failures(&mut self, newly: &[usize], stats: &mut NetworkStats) {
        // Drain the dead wires.
        let mut doomed: BTreeSet<PacketId> = BTreeSet::new();
        for &ci in newly {
            let ch = self.channels[ci].as_mut().expect("failed channel exists");
            for (_, f) in ch.in_flight.drain(..) {
                stats.stranded_flits += 1;
                doomed.insert(f.packet);
            }
        }
        if !self.cfg.routing.is_adaptive() {
            // Static XY: no reconfiguration. Upstream fragments stay
            // wedged (the pre-reroute livelock behaviour, preserved
            // and pinned by test); only the accounting is new.
            self.strand(&doomed, stats);
            return;
        }
        // Every wormhole lock held at the epoch boundary was granted
        // under the pre-failure routing relation, and a worm whose
        // head already crossed the locked output keeps dragging
        // old-relation channel dependencies through the fabric — mixed
        // with the rebuilt relation those can close a deadlock cycle,
        // so such worms are severed. A worm whose head is still queued
        // at the owning input is salvaged: the lock is released and
        // the head re-arbitrates on the rebuilt table, so its entire
        // remaining path obeys the new relation.
        let mut salvage: BTreeSet<PacketId> = BTreeSet::new();
        for r in &mut self.routers {
            for out in Direction::ALL {
                if let Some((pid, head_still_queued)) = r.disown_output(out) {
                    if head_still_queued {
                        salvage.insert(pid);
                    } else {
                        doomed.insert(pid);
                    }
                }
            }
        }
        // Rebuild the table against the full failed set, then doom
        // every head the new relation cannot route from where it
        // stands: a packet's inbound channel may now be classified
        // "down" while its remaining journey needs an "up" move, and
        // such a head would otherwise wait forever.
        let mut failed: BTreeSet<(u16, u8)> = self
            .channels
            .iter()
            .flatten()
            .filter(|ch| matches!(ch.state, ChannelState::Failed))
            .map(|ch| (ch.from.0, ch.dir.index() as u8))
            .collect();
        // Last-resort retrain: up*/down* routes every pair only while
        // the surviving directed graph keeps a legal path between all
        // of them. When the failure pattern severs part of the fabric
        // (e.g. both inbound channels of a node die), no route table
        // can save the severed traffic — so rather than abandon a
        // node, the fabric manager revives failed channels one at a
        // time (each greedily chosen to close the most unroutable
        // pairs) and puts them back through a deep resync. A retrained
        // link re-enters service with its escalation ladder reset; XY
        // mode never reaches this code, so its livelock is preserved.
        let mut revived: Vec<(u16, u8)> = Vec::new();
        loop {
            self.routes.rebuild(failed.clone());
            if self.routes.unroutable_pairs() == 0 || failed.is_empty() {
                break;
            }
            let mut probe = self.routes.clone();
            let mut best: Option<((u16, u8), u32)> = None;
            for &c in &failed {
                let mut f = failed.clone();
                f.remove(&c);
                probe.rebuild(f);
                let gaps = probe.unroutable_pairs();
                if best.is_none_or(|(_, g)| gaps < g) {
                    best = Some((c, gaps));
                }
            }
            let (c, _) = best.expect("failed set is non-empty");
            failed.remove(&c);
            revived.push(c);
        }
        for &(node, diri) in &revived {
            let ch = self.channels[chan_index(NodeId(node), Direction::ALL[usize::from(diri)])]
                .as_mut()
                .expect("revived channel exists");
            ch.state = ChannelState::Resyncing { until: self.cycle + Self::RETRAIN_DRAIN };
            if let Some(l) = &mut ch.lossy {
                l.consec = 0;
                l.head_resyncs = 0;
            }
            stats.retrained_links += 1;
        }
        for (idx, r) in self.routers.iter().enumerate() {
            let at = NodeId(idx as u16);
            for (in_port, f) in r.queued_heads() {
                if self.routes.permitted(f.src, at, in_port, f.dst).is_empty() {
                    doomed.insert(f.packet);
                }
            }
        }
        for ch in self.channels.iter().flatten() {
            for (_, f) in &ch.in_flight {
                if f.is_head()
                    && self.routes.permitted(f.src, ch.to, ch.dir.opposite(), f.dst).is_empty()
                {
                    doomed.insert(f.packet);
                }
            }
        }
        for (idx, q) in self.inject_q.iter().enumerate() {
            let at = NodeId(idx as u16);
            for f in q {
                if f.is_head()
                    && self.routes.permitted(f.src, at, Direction::Local, f.dst).is_empty()
                {
                    doomed.insert(f.packet);
                }
            }
        }
        for pid in &doomed {
            salvage.remove(pid);
        }
        stats.salvaged_packets += salvage.len() as u64;
        // Purge every trace of the severed packets: router FIFOs and
        // locks, surviving channel queues, source queues, bookkeeping.
        for r in &mut self.routers {
            stats.stranded_flits += r.purge(&doomed);
        }
        for ch in self.channels.iter_mut().flatten() {
            let before = ch.in_flight.len();
            ch.in_flight.retain(|(_, f)| !doomed.contains(&f.packet));
            stats.stranded_flits += (before - ch.in_flight.len()) as u64;
        }
        for q in &mut self.inject_q {
            let before = q.len();
            q.retain(|f| !doomed.contains(&f.packet));
            stats.stranded_flits += (before - q.len()) as u64;
        }
        self.strand(&doomed, stats);
        // Open the reconfiguration window (the table itself was
        // rebuilt above, before the routability sweep).
        stats.reconfig_epochs += 1;
        if let RoutingMode::Adaptive { reconfig_pause } = self.cfg.routing {
            self.inject_frozen_until = self.cycle + u64::from(reconfig_pause);
        }
    }

    /// Advances one cycle; returns packets created this cycle.
    #[allow(clippy::too_many_lines)]
    fn step_cycle(&mut self, stats: &mut NetworkStats, measuring: bool) -> u64 {
        let mesh = self.cfg.mesh;
        let now = self.cycle;

        // 0. Scheduled channel deaths due this cycle.
        let mut newly_failed: Vec<usize> = Vec::new();
        while self.kill_idx < self.kills.len() && self.kills[self.kill_idx].cycle <= now {
            let k = self.kills[self.kill_idx];
            self.kill_idx += 1;
            let ci = chan_index(k.node, k.dir);
            let ch = self.channels[ci].as_mut().expect("kills validated at construction");
            if !matches!(ch.state, ChannelState::Failed) {
                ch.state = ChannelState::Failed;
                ch.ever_failed = true;
                newly_failed.push(ci);
            }
        }

        // 1. Channel delivery (in-order, blocked by downstream space),
        //    with the fault process rolled per delivery attempt.
        for ch in self.channels.iter_mut().flatten() {
            let to = ch.to.0 as usize;
            let in_port = ch.dir.opposite();
            // Expire transient states.
            let mut open = true;
            match ch.state {
                ChannelState::Failed => open = false,
                ChannelState::Resyncing { until } => {
                    if now >= until {
                        ch.state = ChannelState::Up;
                    } else {
                        open = false;
                    }
                }
                ChannelState::Degraded { until } => {
                    if now >= until {
                        ch.state = ChannelState::Up;
                    }
                }
                ChannelState::Up => {}
            }
            while open {
                let Some(&(at, flit)) = ch.in_flight.front() else { break };
                if at > now || self.routers[to].free_slots(in_port) == 0 {
                    break;
                }
                let upset = match &mut ch.lossy {
                    Some(l) => l.dice.roll(),
                    None => Upset::Clean,
                };
                match upset {
                    Upset::Clean | Upset::Corrupted(_) => {
                        if let Upset::Corrupted(mask) = upset {
                            // Protection missed the upset: the flit is
                            // delivered with payload bits flipped; only
                            // an end-to-end check can catch it now.
                            let l = ch.lossy.as_mut().expect("corruption needs fault state");
                            l.counts.errors += 1;
                            l.counts.undetected += 1;
                            // A stranded packet's wedged fragments
                            // outlive its record; their corruption
                            // can reach no one.
                            if let Some(p) = self.packets.get_mut(flit.packet) {
                                p.corrupt_xor ^= mask;
                            }
                        }
                        ch.in_flight.pop_front();
                        self.routers[to].accept(in_port, flit);
                        ch.last_delivery = now;
                        if let Some(l) = &mut ch.lossy {
                            l.consec = 0;
                            l.head_resyncs = 0;
                        }
                    }
                    Upset::Nacked | Upset::TimedOut => {
                        // Detected upset: head-of-line replay after the
                        // discovery delay (NACK flight or timeout
                        // horizon with exponential backoff) plus the
                        // forward flight of the replayed flit.
                        let l = ch.lossy.as_mut().expect("detected upset needs fault state");
                        let cfg = *l.dice.cfg();
                        l.counts.errors += 1;
                        let delay = if upset == Upset::Nacked {
                            l.counts.nacks += 1;
                            u64::from(cfg.nack_latency)
                        } else {
                            l.counts.timeouts += 1;
                            l.dice.timeout_horizon(l.consec)
                        };
                        l.counts.replays += 1;
                        l.consec += 1;
                        ch.in_flight[0].0 = now + delay + u64::from(ch.model.latency_cycles);
                        if l.consec >= cfg.resync_after {
                            // Watchdog resync: drain the link and climb
                            // the escalation ladder.
                            l.consec = 0;
                            l.head_resyncs += 1;
                            l.counts.resyncs += 1;
                            let drain_end = now + u64::from(cfg.resync_penalty);
                            if cfg.fail_after_resyncs.is_some_and(|n| l.head_resyncs >= n) {
                                ch.state = ChannelState::Failed;
                                ch.ever_failed = true;
                                l.counts.failed = true;
                                newly_failed.push(chan_index(ch.from, ch.dir));
                            } else if l.head_resyncs >= cfg.degrade_after {
                                l.counts.degrades += 1;
                                ch.state = ChannelState::Degraded {
                                    until: drain_end + u64::from(cfg.degrade_cycles),
                                };
                            } else {
                                ch.state = ChannelState::Resyncing { until: drain_end };
                            }
                        }
                        open = false;
                    }
                }
            }
            ch.tick(now);
        }

        // 1b. Reconfiguration epoch: strand/salvage around every
        //     channel that died this cycle, then (adaptive mode)
        //     rebuild the route table and pause injection.
        if !newly_failed.is_empty() {
            self.handle_failures(&newly_failed, stats);
        }

        // 2. Injection: flow senders or the open-loop pattern.
        let mut created = 0;
        if self.flows.is_some() {
            let sends = self.flows.as_mut().expect("flow mode").poll(now);
            for s in sends {
                let len = match s.tag {
                    FlowTag::Payload { .. } => self.cfg.packet_len_flits,
                    FlowTag::Ack { .. } => 1,
                };
                self.spawn_packet(s.from, s.to, len, Some(s.tag));
                created += 1;
                if measuring {
                    stats.offered_packets += 1;
                    stats.injected_flits += u64::from(len);
                }
            }
        } else {
            let p_packet = self.inject_rate / self.cfg.packet_len_flits as f64;
            for n in mesh.node_ids() {
                if mesh.nodes() > 1 && self.rng.gen_bool(p_packet.min(1.0)) {
                    let dst = self.pattern.destination(&mesh, n, &mut self.rng);
                    self.spawn_packet(n, dst, self.cfg.packet_len_flits, None);
                    created += 1;
                    if measuring {
                        stats.offered_packets += 1;
                        stats.injected_flits += u64::from(self.cfg.packet_len_flits);
                    }
                }
            }
        }
        // Move source-queue flits into the routers' Local inputs —
        // unless a reconfiguration epoch has injection paused (senders
        // keep queueing; the fabric interface holds them back).
        if now >= self.inject_frozen_until {
            for n in mesh.node_ids() {
                let r = &mut self.routers[n.0 as usize];
                while r.free_slots(Direction::Local) > 0 {
                    match self.inject_q[n.0 as usize].pop_front() {
                        Some(f) => r.accept(Direction::Local, f),
                        None => break,
                    }
                }
            }
        }

        // 3. Switch allocation and traversal. The route closure is
        //    the single routing decision point: static XY, or the
        //    adaptive table biased by per-channel health and queue
        //    depth (the link monitors' view).
        let adaptive = self.cfg.routing.is_adaptive();
        let mut moves = std::mem::take(&mut self.moves);
        for n in mesh.node_ids() {
            let idx = n.0 as usize;
            // Split borrows: collect sendability and health first.
            let mut can = [true; 5];
            let mut score = [0u32; 5];
            for (d, ch) in self.channels[idx * 4..idx * 4 + 4].iter().enumerate() {
                can[d] = ch.as_ref().is_some_and(Channel::can_accept);
                score[d] = ch.as_ref().map_or(LinkHealth::Failed.penalty(), |c| {
                    c.health().penalty() + c.in_flight.len() as u32
                });
            }
            let routes = &self.routes;
            self.routers[idx].step(
                |in_port, flit| {
                    if adaptive {
                        routes.choose(flit.src, n, in_port, flit.dst, |d| score[d.index()])
                    } else {
                        Some(mesh.route_xy(n, flit.dst))
                    }
                },
                |d| can[d.index()],
                &mut moves,
            );
            for &(out, flit) in &moves {
                if out == Direction::Local {
                    // Ejected at the destination core.
                    if flit.is_tail() {
                        let pkt = self.packets.remove(flit.packet).expect("tail of unknown packet");
                        debug_assert_eq!(pkt.dst, n, "packet ejected at wrong node");
                        let xor = pkt.corrupt_xor;
                        if measuring {
                            let lat = now + 1 - pkt.inject_cycle;
                            stats.delivered_packets += 1;
                            stats.latency_sum += lat;
                            stats.latency_max = stats.latency_max.max(lat);
                            stats.latencies.push(lat);
                            if xor != 0 {
                                stats.corrupt_packets += 1;
                            }
                        }
                        if let Some(tag) = pkt.tag {
                            let engine = self.flows.as_mut().expect("tagged packet needs flows");
                            if let Some(ack) = engine.on_delivery(n, tag, xor, now) {
                                self.spawn_packet(ack.from, ack.to, 1, Some(ack.tag));
                                created += 1;
                                if measuring {
                                    stats.offered_packets += 1;
                                    stats.injected_flits += 1;
                                }
                            }
                        }
                    }
                    if measuring {
                        stats.delivered_flits += 1;
                    }
                } else {
                    self.channels[chan_index(n, out)]
                        .as_mut()
                        .expect("send over missing channel")
                        .send(now, flit);
                }
            }
        }
        self.moves = moves;

        // 4. Return buffer credits for flits the routers consumed: the
        //    credit view is refreshed from actual occupancy (simpler
        //    and equivalent to credit return signalling at this
        //    abstraction level).
        for ch in self.channels.iter_mut().flatten() {
            ch.buffer_credits = self.routers[ch.to.0 as usize].free_slots(ch.dir.opposite());
        }

        self.cycle += 1;
        created
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChannelProtection, ErrorProcess};
    use crate::flow::FlowSpec;

    fn base_cfg(link: LinkModel) -> NetworkConfig {
        NetworkConfig {
            mesh: Mesh::new(4, 4),
            link,
            input_queue_flits: 8,
            packet_len_flits: 4,
            faults: None,
            routing: RoutingMode::XyStatic,
            link_kills: Vec::new(),
        }
    }

    fn lossy_cfg(process: ErrorProcess, protection: ChannelProtection) -> NetworkConfig {
        NetworkConfig {
            faults: Some(ChannelFaults::new(process, protection)),
            ..base_cfg(LinkModel::ideal())
        }
    }

    #[test]
    fn light_load_delivers_everything_quickly() {
        let mut net = Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, 0.05, 7);
        let stats = net.run(4_000, 1_000);
        assert!(stats.delivered_packets > 100, "only {} delivered", stats.delivered_packets);
        // At 5% load a 4x4 mesh is far from saturation: latency near
        // the zero-load bound (a few hops × (1+link latency) + serialization).
        assert!(stats.avg_latency() < 30.0, "latency {}", stats.avg_latency());
        // Delivered ≈ offered (no growing backlog).
        let ratio = stats.delivered_packets as f64 / stats.offered_packets as f64;
        assert!(ratio > 0.9, "backlog building at light load: {ratio}");
    }

    #[test]
    fn latency_grows_with_load() {
        let lat_at = |rate: f64| {
            let mut net =
                Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, rate, 11);
            net.run(6_000, 2_000).avg_latency()
        };
        let low = lat_at(0.05);
        let high = lat_at(0.55);
        assert!(
            high > low * 1.5,
            "latency did not grow with load: {low} -> {high}"
        );
    }

    #[test]
    fn slow_serial_channel_saturates_earlier() {
        // Serial link at 40% of router bandwidth: accepted throughput
        // must cap well below the parallel link's.
        let serial = LinkModel { latency_cycles: 5, flits_per_cycle: 0.4, wires: 10 };
        let rate = 0.6; // beyond the serial capacity
        let mut par =
            Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, rate, 13);
        let sp = par.run(6_000, 2_000).throughput_fpnc();
        let mut ser = Network::new(base_cfg(serial), TrafficPattern::UniformRandom, rate, 13);
        let ss = ser.run(6_000, 2_000).throughput_fpnc();
        assert!(
            ss < sp * 0.85,
            "serial {ss:.3} should saturate below parallel {sp:.3}"
        );
        assert!(ss > 0.1, "serial network moved almost nothing: {ss:.3}");
    }

    #[test]
    fn transpose_and_hotspot_patterns_deliver() {
        for pat in [
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Hotspot { node: NodeId(0), permille: 300 },
        ] {
            let mut net = Network::new(base_cfg(LinkModel::ideal()), pat, 0.05, 23);
            let stats = net.run(4_000, 1_000);
            assert!(stats.delivered_packets > 50, "{pat:?} delivered {}", stats.delivered_packets);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut net = Network::new(
                base_cfg(LinkModel::ideal()),
                TrafficPattern::UniformRandom,
                0.2,
                99,
            );
            let s = net.run(3_000, 1_000);
            (s.delivered_packets, s.latency_sum, s.delivered_flits)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rate_idles() {
        let mut net =
            Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, 0.0, 1);
        let stats = net.run(1_000, 100);
        assert_eq!(stats.delivered_packets, 0);
        assert_eq!(stats.offered_packets, 0);
    }

    #[test]
    fn error_free_lossy_network_matches_loss_free_exactly() {
        // p = 0 with no bandwidth tax: the lossy path must be
        // cycle-identical to faults = None, down to every counter.
        let run = |cfg: NetworkConfig| {
            let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.2, 99);
            net.run(3_000, 1_000)
        };
        let clean = run(base_cfg(LinkModel::ideal()));
        let lossless =
            run(lossy_cfg(ErrorProcess::Iid { p: 0.0 }, ChannelProtection::Off));
        assert_eq!(clean, lossless);
        assert!(clean.recovery.counts.is_quiet());
        assert_eq!(clean.link_recovery.len(), 48, "4x4 mesh has 48 directed channels");
    }

    #[test]
    fn lossy_channels_replay_and_still_deliver() {
        let mut net = Network::new(
            lossy_cfg(ErrorProcess::Iid { p: 0.05 }, ChannelProtection::Crc8),
            TrafficPattern::UniformRandom,
            0.05,
            17,
        );
        let stats = net.run(6_000, 1_000);
        assert!(stats.delivered_packets > 100, "delivered {}", stats.delivered_packets);
        assert!(stats.recovery.counts.errors > 50, "errors {}", stats.recovery.counts.errors);
        assert_eq!(
            stats.recovery.counts.replays,
            stats.recovery.counts.nacks + stats.recovery.counts.timeouts
        );
        assert_eq!(stats.recovery.counts.undetected, 0, "CRC-8 detects everything");
        assert_eq!(stats.corrupt_packets, 0);
        assert_eq!(stats.recovery.failed_links, 0);
    }

    #[test]
    fn unprotected_channels_deliver_silent_corruption() {
        let mut net = Network::new(
            lossy_cfg(ErrorProcess::Iid { p: 0.05 }, ChannelProtection::Off),
            TrafficPattern::UniformRandom,
            0.05,
            17,
        );
        let stats = net.run(6_000, 1_000);
        assert!(stats.delivered_packets > 100);
        assert!(stats.recovery.counts.undetected > 50);
        assert_eq!(stats.recovery.counts.replays, 0, "nothing detected, nothing replayed");
        assert!(stats.corrupt_packets > 0, "corruption must surface at ejection");
    }

    #[test]
    fn bursty_errors_escalate_to_resync_and_degrade() {
        // A vicious burst process: long bad states erroring always.
        let process = ErrorProcess::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.95,
            good_to_bad: 0.02,
            bad_to_good: 0.02,
        };
        let mut net = Network::new(
            lossy_cfg(process, ChannelProtection::Crc8),
            TrafficPattern::UniformRandom,
            0.1,
            23,
        );
        let stats = net.run(20_000, 1_000);
        assert!(stats.recovery.counts.resyncs > 0, "bursts must trigger resyncs");
        assert!(stats.recovery.counts.degrades > 0, "stuck heads must degrade");
        assert!(stats.recovery.counts.degraded_cycles > 0);
        assert!(stats.delivered_packets > 50, "the network must still make progress");
    }

    #[test]
    fn permanent_failure_kills_the_channel_but_not_the_run() {
        let faults = ChannelFaults::new(
            ErrorProcess::GilbertElliott {
                p_good: 0.0,
                p_bad: 1.0,
                good_to_bad: 0.01,
                bad_to_good: 0.001,
            },
            ChannelProtection::Crc8,
        )
        .with_permanent_failure(2);
        let cfg = NetworkConfig { faults: Some(faults), ..base_cfg(LinkModel::ideal()) };
        // Measure from cycle 0: the interesting claim is that traffic
        // moved *before* the storm killed the links and the rest of
        // the mesh kept routing after.
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.1, 31);
        let stats = net.run(30_000, 0);
        assert!(stats.recovery.failed_links > 0, "the storm must kill at least one link");
        assert!(stats.recovery.counts.failed);
        // Failed links strand in-flight packets but the rest routes
        // on; the stranding is no longer silent — flits caught on the
        // dead wires are counted.
        assert!(stats.delivered_packets > 0);
        assert!(
            stats.in_flight + stats.stranded_packets > 0,
            "packets behind a dead link stay stranded"
        );
        assert!(stats.stranded_flits > 0, "the dead wires held flits");
    }

    #[test]
    fn flows_complete_on_a_clean_network() {
        let flows = FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 50 },
            FlowSpec { src: NodeId(3), dst: NodeId(12), packets: 50 },
        ]);
        let mut net = Network::with_flows(base_cfg(LinkModel::ideal()), &flows, 5);
        let report = net.run_flows(200_000);
        assert!(report.completed, "clean flows must finish");
        assert!(!report.livelocked);
        for f in &report.flows {
            assert_eq!(f.delivered, 50);
            assert_eq!(f.acked, 50);
            assert_eq!(f.counts.dup_delivered, 0);
            assert_eq!(f.counts.accepted_corrupt, 0);
            assert_eq!(f.counts.corrupt_payloads, 0);
        }
        assert!(report.jain > 0.9, "symmetric flows should share fairly: {}", report.jain);
        assert!(report.stalls.is_empty(), "no stalls on a clean network");
    }

    #[test]
    fn flows_survive_a_lossy_network_exactly_once() {
        let flows = FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 40 },
            FlowSpec { src: NodeId(12), dst: NodeId(3), packets: 40 },
        ]);
        let cfg = lossy_cfg(ErrorProcess::bursty(0.05, 0.6, 0.05), ChannelProtection::Parity);
        let mut net = Network::with_flows(cfg, &flows, 77);
        let report = net.run_flows(500_000);
        assert!(report.completed, "flows must heal through the storm");
        for f in &report.flows {
            assert_eq!(f.delivered, 40, "flow {:?}", f.flow);
            assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
            assert_eq!(f.counts.accepted_corrupt, 0, "corruption accepted");
        }
        // Parity misses ~10% of upsets: the end-to-end check must have
        // actually caught some corrupted payloads for this test to
        // mean anything.
        let e2e_catches: u64 = report.flows.iter().map(|f| f.counts.corrupt_payloads).sum();
        let retx: u64 = report.flows.iter().map(|f| f.counts.retx).sum();
        assert!(retx > 0, "a lossy run without retransmissions proves nothing");
        assert!(
            e2e_catches > 0 || report.net.recovery.counts.undetected == 0,
            "undetected upsets on payloads must be caught end-to-end"
        );
    }

    #[test]
    fn watchdog_names_flows_starved_by_a_dead_link() {
        // Kill channels fast and certainly: every flit errors, so the
        // first heads hit the resync ladder and the links die. The
        // flows can never complete; the watchdog must name them and
        // abort instead of hanging until max_cycles.
        let faults = ChannelFaults::new(ErrorProcess::Iid { p: 1.0 }, ChannelProtection::Crc8)
            .with_permanent_failure(1);
        let cfg = NetworkConfig { faults: Some(faults), ..base_cfg(LinkModel::ideal()) };
        let flows = FlowConfig::new(vec![FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 10 }]);
        let mut net = Network::with_flows(cfg, &flows, 3);
        let report = net.run_flows(2_000_000);
        assert!(!report.completed);
        assert!(report.livelocked, "the watchdog must declare livelock");
        assert!(report.cycles < 2_000_000, "and abort early");
        let last = report.stalls.last().expect("livelock must come with a report");
        assert!(last.hard);
        assert_eq!(last.starved.len(), 1);
        assert_eq!(last.starved[0].src, NodeId(0));
        assert!(
            last.stalled_channels.iter().any(|c| c.state == "failed"),
            "the dead channel must be named: {:?}",
            last.stalled_channels
        );
        assert!(report.net.recovery.failed_links > 0);
    }

    /// Flows whose XY paths cross row 0 between columns 1 and 2, in
    /// both directions — a single dead physical link starves both.
    fn row0_flows() -> FlowConfig {
        FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 30 },
            FlowSpec { src: NodeId(3), dst: NodeId(12), packets: 30 },
        ])
    }

    fn kill_row0(cycle: u64) -> Vec<LinkKill> {
        LinkKill::both_ways(&Mesh::new(4, 4), cycle, NodeId(1), Direction::East).to_vec()
    }

    #[test]
    fn adaptive_routing_survives_a_scheduled_link_kill() {
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kill_row0(100),
            ..base_cfg(LinkModel::ideal())
        };
        let mut net = Network::with_flows(cfg, &row0_flows(), 9);
        let report = net.run_flows(300_000);
        assert!(report.completed, "rerouting must carry the flows around the dead link");
        assert!(!report.livelocked);
        for f in &report.flows {
            assert_eq!(f.delivered, 30, "flow {:?}", f.flow);
            assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
            assert_eq!(f.counts.accepted_corrupt, 0);
        }
        assert!(report.net.reconfig_epochs >= 1, "the kill must trigger an epoch");
        assert_eq!(report.net.recovery.failed_links, 2, "both directions died");
    }

    #[test]
    fn xy_static_livelocks_at_the_same_scheduled_kill() {
        // The twin of the test above with rerouting disabled: the old
        // behaviour — flows starve behind the dead row-0 link and the
        // watchdog names them — is pinned, not silently changed.
        let cfg = NetworkConfig { link_kills: kill_row0(100), ..base_cfg(LinkModel::ideal()) };
        let mut net = Network::with_flows(cfg, &row0_flows(), 9);
        let report = net.run_flows(300_000);
        assert!(!report.completed, "static XY has no way around the dead row");
        assert!(report.livelocked, "the watchdog must declare livelock");
        let last = report.stalls.last().expect("livelock must come with a report");
        assert!(last.hard);
        assert!(!last.starved.is_empty(), "the starved flows must be named");
        assert!(
            last.stalled_channels.iter().any(|c| c.state == "failed"),
            "the dead channel must be named: {:?}",
            last.stalled_channels
        );
        assert_eq!(report.net.reconfig_epochs, 0, "XY never reconfigures");
        assert!(report.net.residual_flits > 0, "wedged flits stay in the fabric");
    }

    #[test]
    fn recovery_and_stall_rows_come_out_in_node_direction_order() {
        // Kills scheduled out of (node, direction) order: the rows
        // still follow the channel table's layout, with no sort.
        let mesh = Mesh::new(4, 4);
        let mut kills = LinkKill::both_ways(&mesh, 100, NodeId(9), Direction::South).to_vec();
        kills.extend(kill_row0(100));
        kills.push(LinkKill { cycle: 100, node: NodeId(6), dir: Direction::West });
        let cfg = NetworkConfig { link_kills: kills, ..base_cfg(LinkModel::ideal()) };
        let mut net = Network::with_flows(cfg, &row0_flows(), 9);
        let report = net.run_flows(300_000);
        let key = |node: NodeId, dir: Direction| (node, dir.index());
        let rows = &report.net.link_recovery;
        assert_eq!(rows.len(), 48);
        assert!(rows.windows(2).all(|w| key(w[0].node, w[0].dir) < key(w[1].node, w[1].dir)));
        assert!(report.livelocked, "XY starves behind the dead row-0 link");
        for stall in &report.stalls {
            let chans = &stall.stalled_channels;
            assert!(chans.windows(2).all(|w| key(w[0].from, w[0].dir) < key(w[1].from, w[1].dir)));
        }
        let last = report.stalls.last().expect("livelock must come with a report");
        assert!(
            last.stalled_channels.iter().filter(|c| c.state == "failed").count() == 5,
            "all five dead channels named: {:?}",
            last.stalled_channels
        );
    }

    #[test]
    fn stranded_packets_leave_the_slab_in_both_routing_modes() {
        // Static XY never purges a severed packet's wedged fragments,
        // but its record is retired all the same: the slab holds
        // exactly the packets still in flight. A storm that kills
        // channels under a stuck head always strands flits.
        let faults = ChannelFaults::new(
            ErrorProcess::GilbertElliott {
                p_good: 0.0,
                p_bad: 1.0,
                good_to_bad: 0.01,
                bad_to_good: 0.001,
            },
            ChannelProtection::Crc8,
        )
        .with_permanent_failure(2);
        for routing in [RoutingMode::XyStatic, RoutingMode::adaptive()] {
            let cfg =
                NetworkConfig { faults: Some(faults), routing, ..base_cfg(LinkModel::ideal()) };
            let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.1, 31);
            let stats = net.run(10_000, 0);
            assert!(stats.stranded_packets > 0, "{routing:?}: the storm must strand packets");
            let live = net.packets.slots.iter().filter(|(_, p)| p.is_some()).count() as u64;
            assert_eq!(live, stats.in_flight, "{routing:?}");
            assert_eq!(net.packets.slots.len() - net.packets.free.len(), live as usize);
        }
    }

    #[test]
    fn packet_ids_of_retired_slots_go_stale() {
        let rec = || LivePacket { dst: NodeId(0), inject_cycle: 0, corrupt_xor: 0, tag: None };
        let mut slab = Packets::default();
        let a = slab.insert(rec());
        assert!(slab.remove(a).is_some());
        let b = slab.insert(rec());
        assert_ne!(a, b, "a reused slot gets a fresh id");
        assert_eq!(slab.slots.len(), 1, "the freed slot was reused");
        assert!(slab.get_mut(a).is_none(), "a stale id resolves to nothing");
        assert!(slab.remove(a).is_none());
        assert!(slab.get_mut(b).is_some());
    }

    #[test]
    fn adaptive_salvage_and_strand_counters_are_consistent() {
        // Open-loop traffic with a mid-run kill: every stranded flit
        // and packet is accounted, and the table rebuilt exactly once.
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kill_row0(1_000),
            ..base_cfg(LinkModel::ideal())
        };
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.2, 31);
        let stats = net.run(6_000, 0);
        assert_eq!(stats.reconfig_epochs, 1);
        assert_eq!(stats.recovery.failed_links, 2);
        assert!(stats.delivered_packets > 100, "the mesh keeps routing after the kill");
        assert_eq!(
            stats.injected_flits,
            stats.delivered_flits + stats.stranded_flits + stats.residual_flits,
            "flit conservation violated"
        );
    }

    #[test]
    fn severing_a_node_triggers_the_last_resort_retrain() {
        // Kill BOTH links adjacent to corner node 0: no failure-set
        // subset keeps it reachable, so reconfiguration alone cannot
        // route around the hole. The fabric manager must revive
        // channels through the deep retrain and the flows must still
        // complete exactly once.
        let mesh = Mesh::new(4, 4);
        let mut kills = LinkKill::both_ways(&mesh, 150, NodeId(0), Direction::East).to_vec();
        kills.extend(LinkKill::both_ways(&mesh, 150, NodeId(0), Direction::South));
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kills,
            ..base_cfg(LinkModel::ideal())
        };
        let flows = FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 30 },
            FlowSpec { src: NodeId(15), dst: NodeId(0), packets: 30 },
        ]);
        let mut net = Network::with_flows(cfg, &flows, 9);
        let report = net.run_flows(300_000);
        assert!(report.completed, "retrained links must keep the severed corner alive");
        for f in &report.flows {
            assert_eq!(f.delivered, 30, "flow {:?}", f.flow);
            assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
        }
        assert!(
            report.net.retrained_links >= 2,
            "isolating a corner needs at least one revived link per direction, got {}",
            report.net.retrained_links
        );
        assert_eq!(report.net.recovery.failed_links, 4, "all four kills are recorded");
    }

    #[test]
    fn flow_runs_are_deterministic_given_seed() {
        let run = || {
            let flows = FlowConfig::new(vec![
                FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 30 },
                FlowSpec { src: NodeId(5), dst: NodeId(10), packets: 30 },
            ]);
            let cfg = lossy_cfg(ErrorProcess::Iid { p: 0.03 }, ChannelProtection::Crc8);
            let mut net = Network::with_flows(cfg, &flows, 41);
            net.run_flows(500_000)
        };
        assert_eq!(run(), run());
    }
}
