//! Recorded schedules — the formal object of §2.1.
//!
//! A schedule is the set `{(path(p), i(p), o(p))}` produced by running a
//! collection of scheduling algorithms over an input load. We extract it
//! from the network's hop-level telemetry after an *original* run,
//! keeping the per-hop scheduling times `o(p, α)` (for the omniscient UPS
//! and congestion-point analysis) and the per-hop queueing delays (for
//! Figure 1's delay-ratio CDF).

use std::sync::Arc;
use ups_net::{
    FlowId, InjectSource, Injection, NodeId, PacketKind, PacketRecord, Path, SchedHeader, Telemetry,
};
use ups_sim::{Dur, Time};

/// One packet of a recorded schedule.
#[derive(Debug, Clone)]
pub struct RecordedPacket {
    /// Flow identity (as injected in the original run).
    pub flow: FlowId,
    /// Sequence within the flow.
    pub seq: u64,
    /// Wire size in bytes.
    pub size: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// The path taken (fixed input in the formal model).
    pub path: Arc<Path>,
    /// Ingress arrival `i(p)`.
    pub i: Time,
    /// Network exit `o(p)` (full arrival at the destination host).
    pub o: Time,
    /// Per-hop scheduling times `o(p, α_k)` (transmission starts).
    pub hop_tx_start: Vec<Time>,
    /// Total queueing delay in the original schedule.
    pub qdelay: Dur,
    /// Number of hops at which the packet was forced to wait.
    pub congestion_points: usize,
}

impl RecordedPacket {
    /// Uncongested transit time over the recorded path.
    pub fn tmin(&self) -> Dur {
        self.path.tmin(self.size)
    }

    /// The replay slack `o(p) − i(p) − tmin(p, src, dest)` (§2.1).
    ///
    /// Non-negative for any viable schedule; an assertion in
    /// [`RecordedSchedule::from_telemetry`] enforces that invariant.
    pub fn slack(&self) -> i64 {
        self.o.signed_since(self.i) - self.tmin().as_i64()
    }
}

/// A complete recorded schedule.
#[derive(Debug, Clone)]
pub struct RecordedSchedule {
    /// All delivered packets, in injection (packet-id) order.
    pub packets: Vec<RecordedPacket>,
}

impl RecordedSchedule {
    /// Extract the schedule from an original run's telemetry.
    ///
    /// Requires hop-level tracing and a drop-free run (the formal model
    /// assumes no losses; replay experiments use unbounded buffers).
    pub fn from_telemetry(tel: &Telemetry) -> RecordedSchedule {
        assert_eq!(
            tel.counters.dropped, 0,
            "replay requires a drop-free original schedule"
        );
        assert_eq!(
            tel.counters.delivered, tel.counters.injected,
            "original run still has packets in flight"
        );
        let packets = tel
            .packets
            .iter()
            .map(|r| {
                let delivered = r.delivered.expect("undelivered packet in drop-free run");
                assert_eq!(
                    r.hops.len(),
                    r.path.hops(),
                    "hop tracing incomplete; build the network with TraceLevel::Hops"
                );
                let rec = RecordedPacket {
                    flow: r.flow,
                    seq: r.seq,
                    size: r.size,
                    src: r.src,
                    dst: r.dst,
                    path: Arc::clone(&r.path),
                    i: r.created,
                    o: delivered,
                    hop_tx_start: r.hops.iter().map(|h| h.tx_start).collect(),
                    qdelay: r.total_qdelay(),
                    congestion_points: r.congestion_points(),
                };
                debug_assert!(
                    rec.slack() >= 0,
                    "negative slack {} for packet {:?}/{} — o/i/tmin inconsistent",
                    rec.slack(),
                    rec.flow,
                    rec.seq
                );
                rec
            })
            .collect();
        RecordedSchedule { packets }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if no packets were recorded.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Histogram of congestion points per packet: `hist[k]` = packets
    /// that waited at exactly `k` hops (the quantity the replay theorems
    /// are stated in).
    pub fn congestion_point_histogram(&self) -> Vec<usize> {
        let max = self
            .packets
            .iter()
            .map(|p| p.congestion_points)
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for p in &self.packets {
            hist[p.congestion_points] += 1;
        }
        hist
    }

    /// Largest number of congestion points any packet saw.
    pub fn max_congestion_points(&self) -> usize {
        self.packets
            .iter()
            .map(|p| p.congestion_points)
            .max()
            .unwrap_or(0)
    }

    /// Mean slack across packets (diagnostic: the paper explains the
    /// utilization trend through growing average slack).
    pub fn mean_slack(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        self.packets.iter().map(|p| p.slack() as f64).sum::<f64>() / self.packets.len() as f64
    }
}

/// A recorded schedule as replay input: the identical packets, ingress
/// times `i(p)` and paths, with headers from `header(k, packet k)`,
/// called when packet `k` is sent. Source order is recorded order, so
/// a replay's `telemetry.packets` lines up with the schedule.
///
/// Borrows the schedule for the length of the run
/// ([`Network::run_source`](ups_net::Network::run_source)); its own
/// state is the send order, four bytes per packet.
pub(crate) struct ScheduleSource<'a, H> {
    packets: &'a [RecordedPacket],
    /// Packet indices sorted by `(i(p), index)`.
    order: Vec<u32>,
    /// Position in `order` of the next packet to send.
    next: usize,
    header: H,
}

impl<'a, H> ScheduleSource<'a, H>
where
    H: FnMut(usize, &RecordedPacket) -> SchedHeader,
{
    pub(crate) fn new(schedule: &'a RecordedSchedule, header: H) -> Self {
        let packets = &schedule.packets[..];
        let n = u32::try_from(packets.len()).expect("schedule of more than u32::MAX packets");
        let mut order: Vec<u32> = (0..n).collect();
        // Stable: recorded order breaks ties. Recorded order is a
        // concatenation of per-flow ascending runs, which the merge
        // sort exploits.
        order.sort_by_key(|&k| packets[k as usize].i);
        ScheduleSource {
            packets,
            order,
            next: 0,
            header,
        }
    }
}

impl<H> std::fmt::Debug for ScheduleSource<'_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleSource")
            .field("packets", &self.packets.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl<H> InjectSource for ScheduleSource<'_, H>
where
    H: FnMut(usize, &RecordedPacket) -> SchedHeader,
{
    fn packets(&self) -> u64 {
        self.packets.len() as u64
    }

    fn records(&self, out: &mut Vec<PacketRecord>) {
        out.extend(self.packets.iter().map(|p| {
            PacketRecord::pending(
                p.flow,
                p.seq,
                p.size,
                p.src,
                p.dst,
                p.i,
                Arc::clone(&p.path),
            )
        }));
    }

    fn next_at(&self) -> Option<Time> {
        let &k = self.order.get(self.next)?;
        Some(self.packets[k as usize].i)
    }

    fn pull_due(&mut self, now: Time) -> Option<Injection> {
        let k = *self.order.get(self.next)? as usize;
        let p = &self.packets[k];
        if p.i != now {
            return None;
        }
        self.next += 1;
        Some(Injection {
            index: k as u64,
            flow: p.flow,
            seq: p.seq,
            size: p.size,
            src: p.src,
            dst: p.dst,
            path: Arc::clone(&p.path),
            hdr: (self.header)(k, p),
            kind: PacketKind::Data {
                bytes: p.size.saturating_sub(40),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::TraceLevel;
    use ups_sim::Bandwidth;
    use ups_topo::simple::line;

    fn run_line() -> RecordedSchedule {
        let mut topo = line(2, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops);
        let (h0, h1) = (topo.hosts[0], topo.hosts[1]);
        let routes = std::sync::Arc::clone(&topo.routes);
        for s in 0..4 {
            topo.net.inject(
                &routes,
                Time::ZERO,
                FlowId(0),
                s,
                1500,
                h0,
                h1,
                SchedHeader::default(),
                PacketKind::Data { bytes: 1460 },
            );
        }
        topo.net.run_to_completion();
        RecordedSchedule::from_telemetry(&topo.net.telemetry)
    }

    #[test]
    fn slack_equals_queueing_delay_on_a_line() {
        // On a single path with no cross traffic, a packet's end-to-end
        // delay is tmin + queueing, so slack == total queueing delay.
        let sched = run_line();
        for p in &sched.packets {
            assert_eq!(p.slack(), p.qdelay.as_i64(), "packet {}", p.seq);
        }
        // First packet never waits; later ones wait at the source NIC.
        assert_eq!(sched.packets[0].slack(), 0);
        assert!(sched.packets[3].slack() > 0);
    }

    #[test]
    fn congestion_histogram_counts_waits() {
        let sched = run_line();
        let hist = sched.congestion_point_histogram();
        // Packet 0 has 0 congestion points; packets 1-3 exactly one (the
        // host NIC); none have two.
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 3);
        assert_eq!(sched.max_congestion_points(), 1);
    }

    #[test]
    fn hop_tx_starts_are_recorded_in_order() {
        let sched = run_line();
        for p in &sched.packets {
            assert_eq!(p.hop_tx_start.len(), p.path.hops());
            assert!(p.hop_tx_start.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
