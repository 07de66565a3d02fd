//! The 5-port input-buffered wormhole switch.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::{Direction, Flit, PacketId};

/// One router of the mesh: five input FIFOs (N/S/E/W/Local), a route
/// decision per head flit (delegated to the network's route table —
/// the router itself holds no routing policy), round-robin output
/// arbitration, and wormhole locking (an output granted to a packet
/// stays granted until its tail passes).
#[derive(Debug, Clone)]
pub struct Router {
    node: crate::NodeId,
    inputs: [VecDeque<Flit>; 5],
    capacity: usize,
    /// Which input and packet currently own each output (wormhole
    /// lock). Tracking the packet id (not just the input) lets the
    /// lock survive interleaved arrivals and lets reconfiguration
    /// salvage or sever it precisely.
    output_owner: [Option<(usize, PacketId)>; 5],
    /// Round-robin arbitration pointer per output.
    rr: [usize; 5],
}

impl Router {
    /// Creates a router with the given per-input FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(node: crate::NodeId, capacity: usize) -> Self {
        assert!(capacity >= 1, "input queue needs capacity");
        Router {
            node,
            inputs: Default::default(),
            capacity,
            output_owner: [None; 5],
            rr: [0; 5],
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> crate::NodeId {
        self.node
    }

    /// Free slots in the input FIFO of `port`.
    pub fn free_slots(&self, port: Direction) -> usize {
        self.capacity - self.inputs[port.index()].len()
    }

    /// Total buffered flits across all inputs.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(|q| q.len()).sum()
    }

    /// Enqueues an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics if the input FIFO is full (callers must check
    /// [`Router::free_slots`] — the channel models backpressure).
    pub fn accept(&mut self, port: Direction, flit: Flit) {
        let q = &mut self.inputs[port.index()];
        assert!(q.len() < self.capacity, "input overrun at {} {:?}", self.node, port);
        q.push_back(flit);
    }

    /// Arbitration + switch traversal for one cycle: writes up to one
    /// flit per output port into `moves` as `(output, flit)` (the
    /// buffer is cleared first, so callers can reuse it).
    ///
    /// `route(in_port, head)` is the single routing decision point: it
    /// names the output the head flit (which arrived on `in_port`)
    /// must take, or `None` if the destination is currently
    /// unroutable (the head waits; the flow watchdog names persistent
    /// cases). It must not change its answer within one call to
    /// `step`: each queued head is routed at most once per step, and
    /// the answer is reused for every output the head is weighed
    /// against. `can_send(output)` tells the router whether the
    /// downstream channel can accept a flit this cycle (`Local`
    /// ejection is always possible).
    pub fn step<R, F>(
        &mut self,
        mut route: R,
        mut can_send: F,
        moves: &mut Vec<(Direction, Flit)>,
    ) where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        moves.clear();
        // The route of the flit now at the front of each input, once
        // asked; cleared when that flit leaves, since a head queued
        // behind it may reach the front within the same step.
        let mut routed: [Option<Option<Direction>>; 5] = [None; 5];
        for out in Direction::ALL {
            let oi = out.index();
            // Grant the output if free: round-robin over inputs whose
            // head flit routes to this output.
            if self.output_owner[oi].is_none() {
                for k in 0..5 {
                    let ii = (self.rr[oi] + k) % 5;
                    if ii == oi && out != Direction::Local {
                        continue; // no U-turns
                    }
                    let Some(head) = self.inputs[ii].front() else { continue };
                    // An adaptive route may prefer a different output
                    // each cycle as queue depths shift; a packet that
                    // already owns an output must not be granted a
                    // second one, or the worm splits across outputs
                    // and the abandoned lock is orphaned forever.
                    let already_owns =
                        self.output_owner.iter().any(|o| o.is_some_and(|(_, p)| p == head.packet));
                    if head.is_head()
                        && !already_owns
                        && *routed[ii].get_or_insert_with(|| route(Direction::ALL[ii], head))
                            == Some(out)
                    {
                        self.output_owner[oi] = Some((ii, head.packet));
                        self.rr[oi] = (ii + 1) % 5;
                        break;
                    }
                }
            }
            // Traverse: forward one flit from the owning input.
            if let Some((ii, pid)) = self.output_owner[oi] {
                if !can_send(out) {
                    continue;
                }
                // The owning input's front flit may not have arrived yet.
                let Some(front) = self.inputs[ii].front() else { continue };
                // Only forward flits of the owning packet — the head
                // established the claim; body/tail follow in FIFO
                // order, so a different packet at the front means the
                // owner's next flit is still in flight upstream.
                if front.packet != pid {
                    continue;
                }
                let flit = *front;
                self.inputs[ii].pop_front();
                routed[ii] = None;
                if flit.is_tail() {
                    self.output_owner[oi] = None;
                }
                moves.push((out, flit));
            }
        }
    }

    /// Reconfiguration surgery: removes every queued flit of the
    /// `doomed` packets and releases any wormhole lock they own.
    /// Returns the number of flits removed.
    pub(crate) fn purge(&mut self, doomed: &BTreeSet<PacketId>) -> u64 {
        let mut removed = 0u64;
        for q in &mut self.inputs {
            let before = q.len();
            q.retain(|f| !doomed.contains(&f.packet));
            removed += (before - q.len()) as u64;
        }
        for owner in &mut self.output_owner {
            if owner.is_some_and(|(_, pid)| doomed.contains(&pid)) {
                *owner = None;
            }
        }
        removed
    }

    /// Reconfiguration surgery: releases the wormhole lock on `out`
    /// (whose downstream channel just died) and reports the owning
    /// packet. The second element is `true` if the packet is
    /// *salvageable* — its head flit is still queued here, so after a
    /// route-table rebuild it simply re-routes; `false` means the
    /// head already crossed the dead wire and the packet is severed.
    pub(crate) fn disown_output(&mut self, out: Direction) -> Option<(PacketId, bool)> {
        let (ii, pid) = self.output_owner[out.index()].take()?;
        let head_still_here = self.inputs[ii]
            .front()
            .is_some_and(|f| f.packet == pid && f.is_head());
        Some((pid, head_still_here))
    }

    /// Every queued head flit with the input port it arrived on (the
    /// reconfiguration sweep checks each against the rebuilt table).
    pub(crate) fn queued_heads(&self) -> impl Iterator<Item = (Direction, &Flit)> {
        Direction::ALL.into_iter().flat_map(move |d| {
            self.inputs[d.index()].iter().filter(|f| f.is_head()).map(move |f| (d, f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlitKind, Mesh, NodeId, Packet};

    fn flits_of(id: u64, dst: NodeId, len: u32) -> Vec<Flit> {
        Packet { id: PacketId(id), src: NodeId(0), dst, len_flits: len, inject_cycle: 0 }.flits()
    }

    /// One step into a fresh buffer.
    fn step<R, F>(r: &mut Router, route: R, can_send: F) -> Vec<(Direction, Flit)>
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        let mut moves = Vec::new();
        r.step(route, can_send, &mut moves);
        moves
    }

    /// The pre-reroute behaviour: static XY from the mesh.
    fn xy(mesh: Mesh, node: NodeId) -> impl FnMut(Direction, &Flit) -> Option<Direction> {
        move |_in, f| Some(mesh.route_xy(node, f.dst))
    }

    #[test]
    fn routes_local_injection_east() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(node, 4);
        for f in flits_of(1, mesh.node(2, 0), 3) {
            r.accept(Direction::Local, f);
        }
        let mut all = Vec::new();
        for _ in 0..3 {
            all.extend(step(&mut r, xy(mesh, node), |_| true));
        }
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(d, _)| *d == Direction::East));
        assert_eq!(all.last().unwrap().1.kind, FlitKind::Tail);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn wormhole_lock_excludes_interleaving() {
        // Two packets from different inputs both want East; flits must
        // not interleave.
        let mesh = Mesh::new(3, 3);
        let mid = mesh.node(1, 1);
        let mut r = Router::new(mid, 8);
        let dst = mesh.node(2, 1);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::West, f);
        }
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            for (d, f) in step(&mut r, xy(mesh, mid), |_| true) {
                assert_eq!(d, Direction::East);
                order.push(f.packet.0);
            }
        }
        assert_eq!(order.len(), 6);
        // All of one packet, then all of the other.
        assert!(order == [1, 1, 1, 2, 2, 2] || order == [2, 2, 2, 1, 1, 1], "{order:?}");
    }

    #[test]
    fn backpressure_holds_flits() {
        let mesh = Mesh::new(2, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(node, 4);
        for f in flits_of(1, mesh.node(1, 0), 2) {
            r.accept(Direction::Local, f);
        }
        let moves = step(&mut r, xy(mesh, node), |_| false); // channel refuses
        assert!(moves.is_empty());
        assert_eq!(r.occupancy(), 2);
        let moves = step(&mut r, xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn ejects_at_destination() {
        let mesh = Mesh::new(2, 2);
        let n = mesh.node(1, 1);
        let mut r = Router::new(n, 4);
        for f in flits_of(9, n, 1) {
            r.accept(Direction::North, f);
        }
        let moves = step(&mut r, xy(mesh, n), |_| true);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, Direction::Local);
    }

    #[test]
    fn unroutable_head_waits() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(node, 4);
        for f in flits_of(1, mesh.node(2, 0), 2) {
            r.accept(Direction::Local, f);
        }
        let moves = step(&mut r, |_, _| None, |_| true);
        assert!(moves.is_empty(), "unroutable head must wait, not misroute");
        assert_eq!(r.occupancy(), 2);
        // Routability restored (reconfiguration): traffic resumes.
        let moves = step(&mut r, xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn a_flapping_route_cannot_split_a_worm_across_outputs() {
        let mesh = Mesh::new(3, 3);
        let mid = mesh.node(1, 1);
        let dst = mesh.node(2, 2);
        let mut r = Router::new(mid, 8);
        for f in flits_of(7, dst, 3) {
            r.accept(Direction::Local, f);
        }
        // Cycle 1: the adaptive route prefers East; East is granted
        // but its channel refuses.
        assert!(step(&mut r, |_, _| Some(Direction::East), |d| d != Direction::East).is_empty());
        // Cycle 2: queue-depth bias now prefers South. The packet
        // already owns East, so South must not be granted too —
        // otherwise the worm splits across outputs and East's lock is
        // orphaned forever once the tail leaves through South.
        assert!(step(&mut r, |_, _| Some(Direction::South), |d| d != Direction::East).is_empty());
        // East reopens: the whole worm leaves through it, whatever
        // the route closure says now.
        let mut outs = Vec::new();
        for _ in 0..4 {
            for (d, f) in step(&mut r, |_, _| Some(Direction::South), |_| true) {
                outs.push((d, f.packet.0));
            }
        }
        assert_eq!(outs, vec![(Direction::East, 7); 3]);
        // The tail released the lock: a new packet can claim East.
        for f in flits_of(8, dst, 1) {
            r.accept(Direction::West, f);
        }
        assert_eq!(step(&mut r, |_, _| Some(Direction::East), |_| true).len(), 1);
    }

    #[test]
    fn purge_removes_flits_and_releases_locks() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(node, 8);
        let dst = mesh.node(2, 0);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::West, f);
        }
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        // Grant the East output to packet 1 (West input wins the round
        // robin) and move its head out.
        let moves = step(&mut r, xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
        let removed = r.purge(&BTreeSet::from([PacketId(1)]));
        assert_eq!(removed, 2, "two queued flits of packet 1 removed");
        // The lock was released: packet 2 wins East immediately.
        let moves = step(&mut r, xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].1.packet, PacketId(2));
    }

    #[test]
    fn disown_reports_salvage_only_before_the_head_crossed() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let dst = mesh.node(2, 0);
        // Case 1: lock granted, head forwarded — severed.
        let mut r = Router::new(node, 8);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::Local, f);
        }
        assert_eq!(step(&mut r, xy(mesh, node), |_| true).len(), 1);
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(1), false)));
        // Case 2: lock granted but channel refused — head still here,
        // salvageable.
        let mut r = Router::new(node, 8);
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        assert!(step(&mut r, xy(mesh, node), |_| false).is_empty());
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(2), true)));
        // Unlocked outputs report nothing.
        assert_eq!(r.disown_output(Direction::West), None);
    }

    /// The arbiter as it was before route decisions were cached: every
    /// free output re-asks `route` for every eligible head.
    fn per_output_step<R, F>(r: &mut Router, mut route: R, mut can: F) -> Vec<(Direction, Flit)>
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        let mut moves = Vec::new();
        for out in Direction::ALL {
            let oi = out.index();
            if r.output_owner[oi].is_none() {
                for k in 0..5 {
                    let ii = (r.rr[oi] + k) % 5;
                    if ii == oi && out != Direction::Local {
                        continue;
                    }
                    if let Some(head) = r.inputs[ii].front() {
                        let already_owns =
                            r.output_owner.iter().any(|o| o.is_some_and(|(_, p)| p == head.packet));
                        if head.is_head()
                            && !already_owns
                            && route(Direction::ALL[ii], head) == Some(out)
                        {
                            r.output_owner[oi] = Some((ii, head.packet));
                            r.rr[oi] = (ii + 1) % 5;
                            break;
                        }
                    }
                }
            }
            if let Some((ii, pid)) = r.output_owner[oi] {
                if !can(out) {
                    continue;
                }
                let Some(front) = r.inputs[ii].front() else { continue };
                if front.packet != pid {
                    continue;
                }
                let flit = *front;
                r.inputs[ii].pop_front();
                if flit.is_tail() {
                    r.output_owner[oi] = None;
                }
                moves.push((out, flit));
            }
        }
        moves
    }

    /// Steps `r` with a route closure that counts its calls per packet,
    /// asserting that no head is routed twice in the step.
    fn step_counting<R, F>(r: &mut Router, mut route: R, can_send: F) -> Vec<(Direction, Flit)>
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        let mut calls: Vec<PacketId> = Vec::new();
        step(
            r,
            |in_port, f| {
                assert!(f.is_head(), "routed a non-head flit");
                assert!(!calls.contains(&f.packet), "{:?} routed twice in one step", f.packet);
                calls.push(f.packet);
                route(in_port, f)
            },
            can_send,
        )
    }

    #[test]
    fn a_head_reaching_the_front_mid_step_is_routed_once() {
        // Packet 1 owns North from the East input; its tail is the
        // last flit there, and packet 2's head waits behind it, bound
        // for this node. North is served first and the tail leaves;
        // packet 2's head then reaches the front in the same step and
        // is weighed against South, West and Local — routed once,
        // granted Local.
        let mesh = Mesh::new(3, 3);
        let mid = mesh.node(1, 1);
        let mut r = Router::new(mid, 8);
        for f in flits_of(1, mesh.node(1, 0), 2) {
            r.accept(Direction::East, f);
        }
        let route = |_: Direction, f: &Flit| Some(mesh.route_xy(mid, f.dst));
        let head = flits_of(1, mesh.node(1, 0), 2)[0];
        assert_eq!(step_counting(&mut r, route, |_| true), vec![(Direction::North, head)]);
        for f in flits_of(2, mid, 2) {
            r.accept(Direction::East, f);
        }
        let mut old = r.clone();
        let mut calls = 0;
        let moves = step_counting(
            &mut r,
            |i, f| {
                calls += 1;
                route(i, f)
            },
            |_| true,
        );
        let mut old_calls = 0;
        let expected = per_output_step(
            &mut old,
            |i, f| {
                old_calls += 1;
                route(i, f)
            },
            |_| true,
        );
        assert_eq!(moves, expected);
        assert_eq!(
            moves.iter().map(|(d, f)| (*d, f.packet.0, f.kind)).collect::<Vec<_>>(),
            vec![(Direction::North, 1, FlitKind::Tail), (Direction::Local, 2, FlitKind::Head)]
        );
        assert_eq!(calls, 1, "one route call for packet 2's head");
        assert_eq!(old_calls, 3, "the per-output arbiter asked at South, West and Local");
    }

    #[test]
    fn route_once_arbitration_matches_per_output_arbitration() {
        // Random worms stream into all five inputs while routes and
        // channel readiness change from step to step (fixed within a
        // step, as the network's are). The cached arbiter must move
        // exactly the flits the per-output arbiter moves, every step.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mesh = Mesh::new(3, 3);
        let mid = mesh.node(1, 1);
        for trial in 0..20 {
            let mut new = Router::new(mid, 4);
            let mut old = Router::new(mid, 4);
            let mut next_id = 0u64;
            // Per input: the flits of the worm being fed in.
            let mut feed: [Vec<Flit>; 5] = Default::default();
            for cycle in 0..300u64 {
                for port in Direction::ALL {
                    let q = &mut feed[port.index()];
                    if q.is_empty() && rand() % 3 == 0 {
                        next_id += 1;
                        *q = flits_of(next_id, NodeId(0), 1 + (rand() % 3) as u32);
                        q.reverse();
                    }
                    if new.free_slots(port) > 0 && rand() % 2 == 0 {
                        if let Some(f) = q.pop() {
                            new.accept(port, f);
                            old.accept(port, f);
                        }
                    }
                }
                let salt = rand();
                let route = move |i: Direction, f: &Flit| {
                    let h = (f.packet.0 ^ salt).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40;
                    match (h + i.index() as u64) % 6 {
                        5 => None,
                        k => Some(Direction::ALL[k as usize]),
                    }
                };
                let ready = rand();
                let can = move |d: Direction| ready >> d.index() & 1 == 1;
                let moves = step_counting(&mut new, route, can);
                let expected = per_output_step(&mut old, route, can);
                assert_eq!(moves, expected, "trial {trial} cycle {cycle}");
                assert_eq!(new.output_owner, old.output_owner);
                assert_eq!(new.rr, old.rr);
            }
        }
    }
}
