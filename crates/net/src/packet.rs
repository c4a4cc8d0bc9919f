//! Packets and their scheduling headers.
//!
//! The paper's formal model fixes, for every packet `p`, its arrival time
//! `i(p)`, its `path(p)`, and (for replay) the target output time `o(p)`.
//! We mirror that exactly: packets are **source-routed** — each carries an
//! immutable, shared [`Path`] — and carry a small scheduling header with
//! the dynamic slack state used by LSTF plus a static priority field used
//! by the other schedulers.

use std::sync::Arc;
use ups_sim::{Bandwidth, Dur, Time};

/// Dense node identifier (index into `Network::nodes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense unidirectional-link identifier (index into `Network::links`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Flow identifier; unique per five-tuple-equivalent in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Globally unique packet identifier, assigned at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// The fixed route of a packet: the ordered list of unidirectional links
/// from its source host to its destination host, plus the per-hop static
/// link properties needed to evaluate `tmin` suffixes (allowed UPS state:
/// "static information about the network topology, link bandwidths, and
/// propagation delays", §2.1 constraint 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Links in forwarding order; `links[k]` is taken at hop `k`.
    pub links: Box<[LinkId]>,
    /// Bandwidth of each link in `links`.
    pub bw: Box<[Bandwidth]>,
    /// Propagation delay of each link in `links`.
    pub prop: Box<[Dur]>,
}

impl Path {
    /// Number of hops (links) on the path.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// `tmin` from the *input of hop `k`* to full arrival at the
    /// destination, for a packet of `size` bytes: the sum over the
    /// remaining links of (transmission time + propagation delay).
    ///
    /// This matches the paper's store-and-forward `tmin(p, α, dest)` —
    /// it includes the transmission time at hop `k` itself.
    pub fn tmin_from(&self, k: usize, size: u32) -> Dur {
        let mut total = Dur::ZERO;
        for i in k..self.links.len() {
            total += self.bw[i].tx_time(size) + self.prop[i];
        }
        total
    }

    /// `tmin` over the whole path (ingress to egress), i.e. the
    /// uncongested network transit time for a packet of `size` bytes.
    pub fn tmin(&self, size: u32) -> Dur {
        self.tmin_from(0, size)
    }
}

/// Transport-level payload classification, one 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Application data; `bytes` is the payload length (≤ wire size).
    Data { bytes: u32 },
    /// Cumulative TCP acknowledgement: the next expected segment number.
    Ack { cum_ack: u32 },
}

/// The 16-byte scheduling header a packet carries through the network.
///
/// Only one of these fields is meaningful for a given scheduler, but a
/// plain struct keeps the hot path free of enum matching:
/// * `slack` — LSTF dynamic packet state, signed picoseconds. Initialized
///   at the ingress, decremented by each router by the queueing delay the
///   packet experienced there (§2.1).
/// * `prio` — static priority for Priority/SJF/SRPT/EDF (lower = better).
///
/// The omniscient UPS of Appendix B keys on a per-hop vector instead,
/// which the packet does not carry (`ups_core::omniscient`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedHeader {
    /// Remaining slack in picoseconds; may go negative when overdue.
    pub slack: i64,
    /// Static priority value; lower is served first.
    pub prio: i64,
}

/// A packet in the simulated network: 104 bytes, one 112-byte malloc chunk.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id, assigned by the network at injection.
    pub id: PacketId,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Zero-based sequence number within the flow.
    pub seq: u64,
    /// Wire size in bytes (headers + payload).
    pub size: u32,
    /// Remaining serialization time at the current hop, set only while a
    /// *preempted* transmission is suspended (fluid model used for the
    /// preemptive-LSTF ablation, §2.3(5)); zero = not started here (a
    /// port suspends only a transmission with time left). Exact time, not
    /// bytes, so preemption never loses or fabricates link capacity.
    pub tx_left: Dur,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Injection time at the source, `i(p)`.
    pub created: Time,
    /// Fixed route.
    pub path: Arc<Path>,
    /// Hops already fully traversed; indexes into `path.links`.
    pub hops_done: u16,
    /// Scheduling header.
    pub hdr: SchedHeader,
    /// Transport classification.
    pub kind: PacketKind,
    /// Total queueing delay accumulated so far (diagnostics + FIFO+).
    pub qdelay: Dur,
    /// Transient per-hop bookkeeping: first transmission start at the
    /// current hop — the paper's scheduling time `o(p, α)`.
    pub hop_first_tx: Time,
}

/// Offsets into a `size`-byte object that hit every 64-byte cache line it
/// occupies, wherever it starts: one every 64 bytes, then its last byte
/// (the line a misaligned object spills into). A fixed count, so the
/// hints compile to straight-line code with no branch on the address.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn line_offsets(size: usize) -> impl Iterator<Item = usize> {
    (0..size).step_by(64).chain([size - 1])
}

/// Hint the CPU to pull every cache line of `pkt` into cache. Issued by
/// the event loop for the *next* event's packet while the current one is
/// processed; a `Packet` spans two or three lines, by its alignment, and
/// a hop touches most of them. No-op on non-x86 targets.
#[inline]
pub(crate) fn prefetch_packet(pkt: &Packet) {
    #[cfg(target_arch = "x86_64")]
    {
        let base = (pkt as *const Packet).cast::<u8>();
        line_offsets(core::mem::size_of::<Packet>()).for_each(|off| {
            // SAFETY: `base + off` stays within the Packet borrowed by
            // `pkt`; `_mm_prefetch` is a pure cache hint that never
            // dereferences, so even a dangling address is sound.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    base.add(off).cast(),
                );
            }
        });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = pkt;
}

impl Packet {
    /// The link this packet takes next, or `None` if it has arrived.
    pub fn next_link(&self) -> Option<LinkId> {
        self.path.links.get(self.hops_done as usize).copied()
    }

    /// True once the packet has traversed its full path.
    pub fn at_destination(&self) -> bool {
        self.hops_done as usize >= self.path.hops()
    }

    /// `tmin` from the current hop to the destination for this packet.
    pub fn remaining_tmin(&self) -> Dur {
        self.path.tmin_from(self.hops_done as usize, self.size)
    }

    /// Mark one hop fully traversed: bump the hop counter and clear the
    /// per-hop suspended-transmission state (a resumed transmission that
    /// completed must not carry `tx_left` to the next port).
    pub fn advance_hop(&mut self) {
        self.hops_done += 1;
        self.tx_left = Dur::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Path {
        Path {
            links: vec![LinkId(0), LinkId(1), LinkId(2)].into(),
            bw: vec![Bandwidth::gbps(10), Bandwidth::gbps(1), Bandwidth::gbps(10)].into(),
            prop: vec![
                Dur::from_micros(10),
                Dur::from_micros(20),
                Dur::from_micros(10),
            ]
            .into(),
        }
    }

    #[test]
    fn tmin_sums_tx_and_prop() {
        let p = path3();
        // 1500B: 1.2us + 12us + 1.2us tx, 40us prop.
        let want = Dur::from_nanos(1200 + 12000 + 1200) + Dur::from_micros(40);
        assert_eq!(p.tmin(1500), want);
    }

    #[test]
    fn tmin_from_is_a_suffix() {
        let p = path3();
        let full = p.tmin(1500);
        let hop0 = Bandwidth::gbps(10).tx_time(1500) + Dur::from_micros(10);
        assert_eq!(p.tmin_from(1, 1500), full - hop0);
        assert_eq!(p.tmin_from(3, 1500), Dur::ZERO);
    }

    #[test]
    fn prefetch_reaches_every_line_at_each_sixteen_byte_alignment() {
        // A 104-byte packet spans two lines when it starts in a line's
        // first half and three when it starts 32 or 48 bytes in.
        assert_eq!(line_offsets(104).collect::<Vec<_>>(), [0, 64, 103]);
        for size in [104, core::mem::size_of::<Packet>()] {
            for misalign in (0..64).step_by(16) {
                let addr = 0x1000 + misalign;
                let hit: std::collections::BTreeSet<usize> =
                    line_offsets(size).map(|off| (addr + off) / 64).collect();
                let occupied: std::collections::BTreeSet<usize> =
                    (addr / 64..=(addr + size - 1) / 64).collect();
                assert_eq!(hit, occupied, "{size} bytes at +{misalign}");
            }
        }
    }

    #[test]
    fn packet_hop_progression() {
        let mut pkt = Packet {
            id: PacketId(0),
            flow: FlowId(0),
            seq: 0,
            size: 1500,
            tx_left: Dur::ZERO,
            src: NodeId(0),
            dst: NodeId(3),
            created: Time::ZERO,
            path: Arc::new(path3()),
            hops_done: 0,
            hdr: SchedHeader::default(),
            kind: PacketKind::Data { bytes: 1460 },
            qdelay: Dur::ZERO,
            hop_first_tx: Time::ZERO,
        };
        assert_eq!(pkt.next_link(), Some(LinkId(0)));
        pkt.hops_done = 2;
        assert_eq!(pkt.next_link(), Some(LinkId(2)));
        assert!(!pkt.at_destination());
        pkt.hops_done = 3;
        assert_eq!(pkt.next_link(), None);
        assert!(pkt.at_destination());
        assert_eq!(pkt.remaining_tmin(), Dur::ZERO);
    }
}
