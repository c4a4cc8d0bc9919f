//! Recorded schedules — the formal object of §2.1.
//!
//! A schedule is the set `{(path(p), i(p), o(p))}` produced by running a
//! collection of scheduling algorithms over an input load, together with
//! each packet's per-hop scheduling times `o(p, α)` (for the omniscient
//! UPS and congestion-point analysis). It is the original run's packet
//! table ([`ups_net::trace`]), moved out of the network's telemetry
//! rather than copied; queueing delays (for Figure 1's delay-ratio CDF),
//! slack and congestion points are derived from it on demand.

use std::sync::Arc;
use ups_net::{HopTx, InjectSource, Injection, PacketKind, PacketRecord, SchedHeader, Telemetry};
use ups_sim::{Dur, Time};

/// One packet of a recorded schedule: a borrowed view of its row and
/// the table's hop arena.
#[derive(Debug, Clone, Copy)]
pub struct RecordedPacket<'a> {
    /// The packet's row: flow, sequence, size, endpoints, path.
    pub rec: &'a PacketRecord,
    hops: &'a [HopTx],
}

impl<'a> RecordedPacket<'a> {
    /// Ingress arrival `i(p)`.
    pub fn i(&self) -> Time {
        self.rec.created
    }

    /// Network exit `o(p)` (full arrival at the destination host).
    pub fn o(&self) -> Time {
        self.rec
            .delivered
            .expect("a recorded schedule holds delivered packets only")
    }

    /// Uncongested transit time over the recorded path.
    pub fn tmin(&self) -> Dur {
        self.rec.path.tmin(self.rec.size)
    }

    /// The replay slack `o(p) − i(p) − tmin(p, src, dest)` (§2.1).
    ///
    /// Non-negative for any viable schedule; an assertion in
    /// [`RecordedSchedule::from_telemetry`] enforces that invariant.
    pub fn slack(&self) -> i64 {
        self.o().signed_since(self.i()) - self.tmin().as_i64()
    }

    /// Total queueing delay in the original schedule.
    pub fn qdelay(&self) -> Dur {
        self.rec.total_qdelay(self.hops)
    }

    /// Number of hops at which the packet waited
    /// ([`HopTimes::waited`](ups_net::HopTimes::waited)).
    pub fn congestion_points(&self) -> usize {
        self.rec.congestion_points(self.hops)
    }
}

/// A complete recorded schedule: one delivered, fully traced row per
/// packet, in injection (packet-id) order, and the hop arena the rows
/// index. Its congestion points are the hops where a packet waited
/// ([`HopTimes::waited`](ups_net::HopTimes::waited)), whether the table
/// was recorded or built by hand ([`crate::theory::realize`]).
#[derive(Debug, Clone)]
pub struct RecordedSchedule {
    pub(crate) packets: Vec<PacketRecord>,
    pub(crate) hops: Vec<HopTx>,
}

impl RecordedSchedule {
    /// Take the schedule out of an original run's telemetry: its rows
    /// and hop arena move here, its counters stay.
    ///
    /// Requires hop-level tracing and a drop-free run (the formal model
    /// assumes no losses; replay experiments use unbounded buffers).
    pub fn from_telemetry(tel: &mut Telemetry) -> RecordedSchedule {
        assert_eq!(
            tel.counters.dropped, 0,
            "replay requires a drop-free original schedule"
        );
        assert_eq!(
            tel.counters.delivered, tel.counters.injected,
            "original run still has packets in flight"
        );
        let schedule = RecordedSchedule {
            packets: std::mem::take(&mut tel.packets),
            hops: std::mem::take(&mut tel.hops),
        };
        for p in schedule.iter() {
            assert!(
                p.rec.delivered.is_some(),
                "undelivered packet in drop-free run"
            );
            assert_eq!(
                p.rec.hops_done as usize,
                p.rec.path.hops(),
                "hop tracing incomplete; build the network with TraceLevel::Hops"
            );
            debug_assert!(
                p.slack() >= 0,
                "negative slack {} for packet {:?}/{} — o/i/tmin inconsistent",
                p.slack(),
                p.rec.flow,
                p.rec.seq
            );
        }
        schedule
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if no packets were recorded.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packet `k` in recorded order.
    pub fn packet(&self, k: usize) -> RecordedPacket<'_> {
        RecordedPacket {
            rec: &self.packets[k],
            hops: &self.hops,
        }
    }

    /// Every packet, in recorded order.
    pub fn iter(&self) -> impl Iterator<Item = RecordedPacket<'_>> {
        (0..self.len()).map(|k| self.packet(k))
    }

    /// Histogram of congestion points per packet: `hist[k]` = packets
    /// that waited at exactly `k` hops (the quantity the replay theorems
    /// are stated in).
    pub fn congestion_point_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_congestion_points() + 1];
        for p in self.iter() {
            hist[p.congestion_points()] += 1;
        }
        hist
    }

    /// Largest number of congestion points any packet saw.
    pub fn max_congestion_points(&self) -> usize {
        self.iter()
            .map(|p| p.congestion_points())
            .max()
            .unwrap_or(0)
    }

    /// Mean slack across packets (diagnostic: the paper explains the
    /// utilization trend through growing average slack).
    pub fn mean_slack(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.iter().map(|p| p.slack() as f64).sum::<f64>() / self.len() as f64
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
    schedule: &'a RecordedSchedule,
    /// Packet indices sorted by `(i(p), index)`.
    order: Vec<u32>,
    /// Position in `order` of the next packet to send.
    next: usize,
    header: H,
}

impl<'a, H> ScheduleSource<'a, H>
where
    H: FnMut(usize, RecordedPacket<'_>) -> SchedHeader,
{
    pub(crate) fn new(schedule: &'a RecordedSchedule, header: H) -> Self {
        let n = u32::try_from(schedule.len()).expect("schedule of more than u32::MAX packets");
        let mut order: Vec<u32> = (0..n).collect();
        // Stable: recorded order breaks ties. Recorded order is a
        // concatenation of per-flow ascending runs, which the merge
        // sort exploits.
        order.sort_by_key(|&k| schedule.packets[k as usize].created);
        ScheduleSource {
            schedule,
            order,
            next: 0,
            header,
        }
    }
}

impl<H> std::fmt::Debug for ScheduleSource<'_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleSource")
            .field("packets", &self.schedule.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl<H> InjectSource for ScheduleSource<'_, H>
where
    H: FnMut(usize, RecordedPacket<'_>) -> SchedHeader,
{
    fn packets(&self) -> u64 {
        self.schedule.len() as u64
    }

    fn records(&self, out: &mut Vec<PacketRecord>) {
        out.extend(self.schedule.packets.iter().map(|p| PacketRecord {
            delivered: None,
            hops_done: 0,
            hop_offset: 0,
            ..p.clone()
        }));
    }

    fn next_at(&self) -> Option<Time> {
        let &k = self.order.get(self.next)?;
        Some(self.schedule.packets[k as usize].created)
    }

    fn pull_due(&mut self, now: Time) -> Option<Injection> {
        let k = *self.order.get(self.next)? as usize;
        let packet = self.schedule.packet(k);
        let p = packet.rec;
        if p.created != now {
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
            hdr: (self.header)(k, packet),
            kind: PacketKind::Data {
                bytes: p.size.saturating_sub(40),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::{FlowId, TraceLevel};
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
        RecordedSchedule::from_telemetry(&mut topo.net.telemetry)
    }

    #[test]
    fn slack_equals_queueing_delay_on_a_line() {
        // On a single path with no cross traffic, a packet's end-to-end
        // delay is tmin + queueing, so slack == total queueing delay.
        let sched = run_line();
        for p in sched.iter() {
            assert_eq!(p.slack(), p.qdelay().as_i64(), "packet {}", p.rec.seq);
        }
        // First packet never waits; later ones wait at the source NIC.
        assert_eq!(sched.packet(0).slack(), 0);
        assert!(sched.packet(3).slack() > 0);
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
        for p in sched.iter() {
            let starts: Vec<Time> = p.rec.hops(&sched.hops).map(|h| h.tx_start).collect();
            assert_eq!(starts.len(), p.rec.path.hops());
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
