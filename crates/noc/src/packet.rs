//! Packets and flits.

use crate::NodeId;

/// Packet identifier, unique among the packets in flight. A network
/// packs a slot and a generation into it, so the id of a retired
/// packet never names a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct PacketId(pub u64);

/// A network packet, segmented into flits for wormhole switching.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Packet {
    /// Identifier.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits (including head and tail).
    pub len_flits: u32,
    /// Cycle the packet was created at the source core.
    pub inject_cycle: u64,
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FlitKind {
    /// First flit: carries the route.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the wormhole path.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

/// One flow-control unit.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Kind within the packet.
    pub kind: FlitKind,
    /// Source node (odd-even routing may turn freely only in the
    /// source column, so the route function needs it; replicated like
    /// `dst` so routers need no packet table).
    pub src: NodeId,
    /// Destination (replicated so routers need no packet table).
    pub dst: NodeId,
    /// Sequence number within the packet (0 = head).
    pub seq: u32,
}

impl Packet {
    /// Segments the packet into its flit sequence.
    ///
    /// # Panics
    ///
    /// Panics if the packet has zero length.
    pub fn flits(&self) -> Vec<Flit> {
        assert!(self.len_flits >= 1, "packet must have at least one flit");
        (0..self.len_flits).map(|i| self.flit(i)).collect()
    }

    /// Flit `seq` of the packet (0 = head).
    pub(crate) fn flit(&self, seq: u32) -> Flit {
        let kind = match (seq, self.len_flits) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (i, n) if i + 1 == n => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit { packet: self.id, kind, src: self.src, dst: self.dst, seq }
    }
}

impl Flit {
    /// True if this flit ends its packet.
    pub fn is_tail(&self) -> bool {
        matches!(self.kind, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// True if this flit starts its packet.
    pub fn is_head(&self) -> bool {
        matches!(self.kind, FlitKind::Head | FlitKind::HeadTail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: u32) -> Packet {
        Packet {
            id: PacketId(7),
            src: NodeId(0),
            dst: NodeId(5),
            len_flits: len,
            inject_cycle: 0,
        }
    }

    #[test]
    fn segmentation_kinds() {
        let f = pkt(4).flits();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].kind, FlitKind::Head);
        assert_eq!(f[1].kind, FlitKind::Body);
        assert_eq!(f[2].kind, FlitKind::Body);
        assert_eq!(f[3].kind, FlitKind::Tail);
        assert!(f[0].is_head() && !f[0].is_tail());
        assert!(f[3].is_tail() && !f[3].is_head());
        assert_eq!(f.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let f = pkt(1).flits();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FlitKind::HeadTail);
        assert!(f[0].is_head() && f[0].is_tail());
    }
}
