//! Per-packet telemetry.
//!
//! The replay engine needs, for every packet of the *original* run: its
//! injection time `i(p)`, exit time `o(p)`, path, and — for congestion-point
//! analysis and the omniscient UPS — the per-hop arrival/transmission
//! times. Recording everything for every packet is memory-heavy
//! (24 bytes × hops × packets), so the level is configurable.

use crate::packet::{FlowId, NodeId, Packet, PacketId, Path};
use crate::source::InjectSource;
use std::sync::Arc;
use ups_sim::{Dur, Time};

/// How much to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Counters only.
    Off,
    /// Per-packet injection/delivery times (FCT, delay, fairness metrics).
    #[default]
    Delivery,
    /// Additionally record per-hop times (replay, congestion points,
    /// omniscient initialization, queueing-delay ratios).
    Hops,
}

/// Times for one hop of one packet.
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
    /// `path.links[hops.len()]`, the link of the first unfinished hop.
    pub dropped: bool,
    /// The route; hop `k`'s times are `hops[k]`, over link `path.links[k]`.
    pub path: Arc<Path>,
    /// Per-hop times (only at [`TraceLevel::Hops`]).
    pub hops: Vec<HopTimes>,
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
            path,
            hops: Vec::new(),
        }
    }

    /// Uncongested transit time for this packet over its path.
    pub fn tmin(&self) -> Dur {
        self.path.tmin(self.size)
    }

    /// Total queueing delay across hops (requires hop tracing).
    pub fn total_qdelay(&self) -> Dur {
        self.hops.iter().fold(Dur::ZERO, |acc, h| acc + h.qdelay())
    }

    /// Number of congestion points this packet saw (requires hop tracing).
    pub fn congestion_points(&self) -> usize {
        self.hops.iter().filter(|h| h.waited()).count()
    }

    /// End-to-end delay, if delivered.
    pub fn delay(&self) -> Option<Dur> {
        self.delivered.map(|d| d - self.created)
    }

    /// Slack this packet would be assigned for a replay:
    /// `o(p) − i(p) − tmin(p, src, dest)` (§2.1). `None` if not delivered.
    pub fn replay_slack(&self) -> Option<i64> {
        let o = self.delivered?;
        Some(o.signed_since(self.created) - self.tmin().as_i64())
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
    }

    /// Fire half of an injection: the packet enters the network now.
    pub fn on_inject(&mut self, pkt: &Packet) {
        self.counters.injected += 1;
        self.counters.peak_in_flight = self.counters.peak_in_flight.max(self.counters.in_flight());
        // At `Hops` level every hop will push one entry; sizing the vec
        // to the (known, fixed) path length up front means the per-hop
        // record append never reallocates.
        if self.level == TraceLevel::Hops {
            self.packets[pkt.id.0 as usize]
                .hops
                .reserve_exact(pkt.path.hops());
        }
    }

    /// Record a completed hop.
    pub fn on_hop(&mut self, id: PacketId, times: HopTimes) {
        if self.level != TraceLevel::Hops {
            return;
        }
        self.packets[id.0 as usize].hops.push(times);
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

    /// Records of delivered packets.
    pub fn delivered(&self) -> impl Iterator<Item = &PacketRecord> {
        self.packets.iter().filter(|r| r.delivered.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::LinkId;
    use ups_sim::Bandwidth;

    fn rec() -> PacketRecord {
        PacketRecord {
            flow: FlowId(0),
            seq: 0,
            size: 1500,
            src: NodeId(0),
            dst: NodeId(1),
            created: Time::from_micros(10),
            delivered: Some(Time::from_micros(100)),
            dropped: false,
            path: Arc::new(Path {
                links: vec![LinkId(0)].into(),
                bw: vec![Bandwidth::gbps(1)].into(),
                prop: vec![Dur::from_micros(8)].into(),
            }),
            hops: vec![
                HopTimes {
                    arrive: Time::from_micros(10),
                    tx_start: Time::from_micros(30),
                    tx_end: Time::from_micros(42),
                },
                HopTimes {
                    arrive: Time::from_micros(50),
                    tx_start: Time::from_micros(50),
                    tx_end: Time::from_micros(62),
                },
            ],
        }
    }

    #[test]
    fn congestion_points_counts_waits_only() {
        let r = rec();
        assert_eq!(r.congestion_points(), 1);
        assert_eq!(r.total_qdelay(), Dur::from_micros(20));
    }

    #[test]
    fn replay_slack_formula() {
        let r = rec();
        // tmin = 12us tx + 8us prop = 20us; o - i = 90us; slack = 70us.
        assert_eq!(r.replay_slack(), Some(Dur::from_micros(70).as_i64()));
        assert_eq!(r.delay(), Some(Dur::from_micros(90)));
    }

    #[test]
    fn undelivered_has_no_slack() {
        let mut r = rec();
        r.delivered = None;
        assert_eq!(r.replay_slack(), None);
        assert_eq!(r.delay(), None);
    }
}
