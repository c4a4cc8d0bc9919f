//! Per-packet telemetry: the packet table.
//!
//! The replay engine needs, for every packet of the *original* run: its
//! injection time `i(p)`, exit time `o(p)`, path, and — for congestion-point
//! analysis and the omniscient UPS — the per-hop transmission times. The
//! table is one row per packet ([`Telemetry::packets`]) plus, at
//! [`TraceLevel::Hops`], one flat arena of hops the rows index
//! ([`Telemetry::hops`], 16 bytes × hops × packets; arrivals are derived).

use crate::packet::{FlowId, NodeId, Packet, Path};
use crate::source::InjectSource;
use std::sync::Arc;
use ups_sim::{Dur, Time};

/// How much to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Counters only.
    Off,
    /// Per-packet injection/delivery times, without hops: what a replay
    /// leg's scoring, §3.2's per-packet delays
    /// (`ups_core::run_tail_delays`) and a table fold such as
    /// `ups_metrics::throughput_fairness_series` read. The
    /// closed-loop objectives (FCT, fairness, goodput) record nothing
    /// per packet and run at `Off`.
    #[default]
    Delivery,
    /// Additionally record per-hop times: what a record leg needs for
    /// the schedule it yields (congestion points, the original's
    /// queueing delays, omniscient initialization). A replay leg runs
    /// at `Delivery`, scoring from each packet's exit time alone.
    Hops,
}

/// One hop in the arena. `tx_end` is stored because a preempted
/// transmission ends later than `tx_start` plus the transmission time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopTx {
    /// Transmission start, the paper's "scheduling time" `o(p, α)`.
    pub tx_start: Time,
    /// Transmission end (last bit on the wire).
    pub tx_end: Time,
}

/// Times for one hop of one packet, by value ([`PacketRecord::hops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopTimes {
    /// Full arrival at the transmitting node of this hop, `i(p, α)`.
    pub arrive: Time,
    /// Transmission start, the paper's "scheduling time" `o(p, α)`.
    pub tx_start: Time,
    /// Transmission end (last bit on the wire).
    pub tx_end: Time,
}

impl HopTimes {
    /// Queueing delay at this hop (wait before service).
    pub fn qdelay(&self) -> Dur {
        self.tx_start - self.arrive
    }

    /// Whether the packet was "forced to wait" here — the paper's
    /// congestion-point condition (§2.2).
    pub fn waited(&self) -> bool {
        self.tx_start > self.arrive
    }
}

/// Lifetime record of one packet.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Flow the packet belonged to.
    pub flow: FlowId,
    /// Sequence within the flow.
    pub seq: u64,
    /// Wire size in bytes.
    pub size: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Injection time `i(p)`.
    pub created: Time,
    /// Exit time `o(p)` (full arrival at destination), if delivered.
    pub delivered: Option<Time>,
    /// True if dropped: by a buffer, a down or jammed link, or wire
    /// loss. At [`TraceLevel::Hops`] the dropping port is
    /// `path.links[hops_done]`, the link of the first unfinished hop.
    pub dropped: bool,
    /// Hops completed (counted only at [`TraceLevel::Hops`]).
    pub hops_done: u16,
    /// Arena index of hop 0; hop `k`, over `path.links[k]`, is `hop_offset + k`.
    pub hop_offset: usize,
    /// The route.
    pub path: Arc<Path>,
}

impl PacketRecord {
    /// The record of a packet that is registered but not yet sent:
    /// undelivered, no hops.
    pub fn pending(
        flow: FlowId,
        seq: u64,
        size: u32,
        src: NodeId,
        dst: NodeId,
        created: Time,
        path: Arc<Path>,
    ) -> PacketRecord {
        PacketRecord {
            flow,
            seq,
            size,
            src,
            dst,
            created,
            delivered: None,
            dropped: false,
            hops_done: 0,
            hop_offset: 0,
            path,
        }
    }

    /// Arrival at hop `k ≤ hops_done`, derived from `arena` (the
    /// table's [`Telemetry::hops`]): `created` at hop 0, the previous
    /// hop's `tx_end` plus its link's propagation delay after.
    pub fn arrival(&self, arena: &[HopTx], k: usize) -> Time {
        match k.checked_sub(1) {
            None => self.created,
            Some(j) => arena[self.hop_offset + j].tx_end + self.path.prop[j],
        }
    }

    /// This packet's completed hops in `arena`, arrivals derived.
    pub fn hops<'a>(&'a self, arena: &'a [HopTx]) -> impl Iterator<Item = HopTimes> + 'a {
        (0..self.hops_done as usize).map(move |k| HopTimes {
            arrive: self.arrival(arena, k),
            tx_start: arena[self.hop_offset + k].tx_start,
            tx_end: arena[self.hop_offset + k].tx_end,
        })
    }

    /// Total queueing delay across hops (requires hop tracing).
    pub fn total_qdelay(&self, arena: &[HopTx]) -> Dur {
        self.hops(arena).fold(Dur::ZERO, |acc, h| acc + h.qdelay())
    }

    /// Number of congestion points this packet saw (requires hop tracing).
    pub fn congestion_points(&self, arena: &[HopTx]) -> usize {
        self.hops(arena).filter(|h| h.waited()).count()
    }
}

/// Aggregate counters.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
    /// Events processed by the main loop.
    pub events: u64,
    /// Most packets ever in the network at once (see
    /// [`Counters::in_flight`]).
    pub peak_in_flight: u64,
}

impl Counters {
    /// Packets in the network now: sent and neither delivered nor
    /// dropped yet — queued, being serialized, or propagating.
    pub fn in_flight(&self) -> u64 {
        self.injected - self.delivered - self.dropped
    }
}

/// Telemetry sink owned by the network.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Recording level.
    pub level: TraceLevel,
    /// Aggregate counters (always on).
    pub counters: Counters,
    /// Per-packet records, indexed by `PacketId` (dense).
    pub packets: Vec<PacketRecord>,
    /// The hop arena the records index; empty below [`TraceLevel::Hops`].
    pub hops: Vec<HopTx>,
}

impl Telemetry {
    /// Create telemetry at the given level.
    pub fn new(level: TraceLevel) -> Telemetry {
        Telemetry {
            level,
            ..Default::default()
        }
    }

    /// Registration half of an injection: append the packet's pending
    /// record, so `packets[id]` exists before the packet is sent. Ids
    /// must be dense and sequential. Sources register in bulk through
    /// [`Telemetry::register_source`]; the packet is counted as
    /// injected only when it is sent ([`Telemetry::on_inject`]).
    pub fn on_register(&mut self, pkt: &Packet) {
        if self.level == TraceLevel::Off {
            return;
        }
        debug_assert_eq!(pkt.id.0 as usize, self.packets.len());
        self.packets.push(PacketRecord::pending(
            pkt.flow,
            pkt.seq,
            pkt.size,
            pkt.src,
            pkt.dst,
            pkt.created,
            Arc::clone(&pkt.path),
        ));
        self.lay_out_hops(pkt.id.0 as usize);
    }

    /// Register every packet of `src` at once, in source-index order,
    /// starting at id `base`.
    pub fn register_source(&mut self, src: &dyn InjectSource, base: u64) {
        if self.level == TraceLevel::Off {
            return;
        }
        assert_eq!(base as usize, self.packets.len(), "packet ids not dense");
        src.records(&mut self.packets);
        assert_eq!(
            self.packets.len() as u64,
            base + src.packets(),
            "source registered a different number of records than packets"
        );
        self.lay_out_hops(base as usize);
    }

    /// Give each record from `from` on its arena range, one entry per
    /// link of its path (unwritten until the hop completes), with one
    /// growth of the arena.
    fn lay_out_hops(&mut self, from: usize) {
        if self.level != TraceLevel::Hops {
            return;
        }
        let mut next = self.hops.len();
        for r in &mut self.packets[from..] {
            r.hop_offset = next;
            next += r.path.hops();
        }
        self.hops.resize(next, HopTx::default());
    }

    /// Fire half of an injection: the packet enters the network now.
    pub fn on_inject(&mut self) {
        self.counters.injected += 1;
        self.counters.peak_in_flight = self.counters.peak_in_flight.max(self.counters.in_flight());
    }

    /// Record that `pkt` finished its last hop at `now` (its hop
    /// counter already advanced past it).
    pub fn on_hop(&mut self, pkt: &Packet, now: Time) {
        if self.level != TraceLevel::Hops {
            return;
        }
        let k = pkt.hops_done as usize - 1;
        let r = &mut self.packets[pkt.id.0 as usize];
        debug_assert!(
            now >= r.arrival(&self.hops, k) + pkt.path.bw[k].tx_time(pkt.size),
            "packet {:?} left hop {k} before arrival + transmission time",
            pkt.id
        );
        self.hops[r.hop_offset + k] = HopTx {
            tx_start: pkt.hop_first_tx,
            tx_end: now,
        };
        r.hops_done += 1;
    }

    /// Record final delivery.
    pub fn on_deliver(&mut self, pkt: &Packet, now: Time) {
        self.counters.delivered += 1;
        self.counters.bytes_delivered += pkt.size as u64;
        if self.level != TraceLevel::Off {
            self.packets[pkt.id.0 as usize].delivered = Some(now);
        }
    }

    /// Record a drop (see [`PacketRecord::dropped`] for where).
    pub fn on_drop(&mut self, pkt: &Packet) {
        self.counters.dropped += 1;
        if self.level != TraceLevel::Off {
            self.packets[pkt.id.0 as usize].dropped = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::LinkId;
    use ups_sim::Bandwidth;

    /// A two-hop record and its arena: hop 0 waits 20 µs at the
    /// source, hop 1 arrives 8 µs after hop 0 ends and starts at once.
    fn rec() -> (PacketRecord, Vec<HopTx>) {
        let r = PacketRecord {
            hops_done: 2,
            ..PacketRecord::pending(
                FlowId(0),
                0,
                1500,
                NodeId(0),
                NodeId(1),
                Time::from_micros(10),
                Arc::new(Path {
                    links: vec![LinkId(0), LinkId(1)].into(),
                    bw: vec![Bandwidth::gbps(1); 2].into(),
                    prop: vec![Dur::from_micros(8); 2].into(),
                }),
            )
        };
        let tx = |start, end| HopTx {
            tx_start: Time::from_micros(start),
            tx_end: Time::from_micros(end),
        };
        (r, vec![tx(30, 42), tx(50, 62)])
    }

    #[test]
    fn arrivals_are_derived_from_the_previous_hop() {
        let (r, arena) = rec();
        let arrive: Vec<Time> = r.hops(&arena).map(|h| h.arrive).collect();
        assert_eq!(arrive, [Time::from_micros(10), Time::from_micros(50)]);
    }

    #[test]
    fn congestion_points_counts_waits_only() {
        let (r, arena) = rec();
        assert_eq!(r.congestion_points(&arena), 1);
        assert_eq!(r.total_qdelay(&arena), Dur::from_micros(20));
    }
}
