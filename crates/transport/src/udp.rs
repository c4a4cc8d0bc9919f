//! Open-loop UDP injection.
//!
//! The replay experiments (§2.3) use UDP flows so the offered load is
//! identical between the original run and the replay. A host transmits a
//! flow's packets back-to-back at its NIC line rate, so packet `k`
//! reaches the wire one serialization time after packet `k−1` — this is
//! the endhost pacing the paper leans on ("packets are paced by the
//! endhost link"), and it makes `i(p)` reflect the paced send time
//! rather than a single burst instant, so replay slacks measure genuine
//! cross-traffic queueing.
//!
//! The input is a pull source ([`PacedFlows`]): the network asks it for
//! the packets due at each instant, so a flow list costs O(flows) of
//! memory however many packets it stands for.

use crate::flow::FlowDesc;
use crate::header::HeaderStamper;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use ups_net::{
    InjectSource, Injection, Network, PacketKind, PacketRecord, Path, RoutingTable, SchedHeader,
};
use ups_sim::{Dur, Time};

/// Send every packet of every flow, paced at the flow's first-hop
/// (host NIC) line rate, stamping headers with `stamper`. Paths resolve
/// through the `routes` handle from `compute_routes()`. `wire_bytes` is
/// the on-the-wire packet size (MTU).
///
/// Flows carrying a [`FlowDesc::deadline`] override the stamper's slack
/// policy: packet `k` (paced `k` serialization times after the flow
/// start) gets `slack = max(0, deadline − k·pace − tmin(path))` — the
/// true time budget EDF/LSTF can spend queueing it.
///
/// Nothing is sent yet: the flows become the network's injection source
/// ([`Network::attach_source`]), ids and telemetry records are reserved
/// flow by flow, and each packet is stamped when the clock reaches its
/// send instant. The stamper's state therefore moves into the source;
/// `*stamper` is left holding the same policies with no per-flow state.
/// Flow ids must be distinct for per-flow stamper state to see the
/// packets of a flow in sequence. Panics if an earlier source on this
/// network still has packets to send.
pub fn inject_udp_flows(
    net: &mut Network,
    routes: &RoutingTable,
    flows: &[FlowDesc],
    wire_bytes: u32,
    stamper: &mut HeaderStamper,
) {
    let fresh = HeaderStamper::new(stamper.slack.clone(), stamper.prio);
    let mut stamper = std::mem::replace(stamper, fresh);
    let stamp = move |f: &FlowDesc, seq: u64, at: Time, tmin: Dur| {
        let mut hdr = stamper.stamp_data(f.id, f.pkts, f.pkts - seq, wire_bytes, at);
        if let Some(deadline) = f.deadline {
            hdr.slack = (deadline.as_i64() - (at - f.start).as_i64() - tmin.as_i64()).max(0);
        }
        hdr
    };
    net.attach_source(Box::new(PacedFlows::new(routes, flows, wire_bytes, stamp)));
}

/// One flow of a [`PacedFlows`] source.
#[derive(Debug)]
struct PacedFlow {
    desc: FlowDesc,
    path: Arc<Path>,
    /// Serialization time of one packet on the host NIC.
    pace: Dur,
    /// Uncongested transit time of one packet over `path`.
    tmin: Dur,
    /// Source index of the flow's packet 0 (flows are laid out one
    /// after another).
    first_index: u64,
    /// Next packet to send.
    next_seq: u64,
}

impl PacedFlow {
    fn send_time(&self, seq: u64) -> Time {
        self.desc.start + self.pace * seq
    }
}

/// The open-loop source over a flow list: packet `seq` of flow `f` is
/// sent at `f.start + seq · pace(f)`, source order is flow-major (flow
/// list order, then sequence), and the header comes from `stamp(flow,
/// seq, send instant, tmin(path))`, called when the packet is sent.
///
/// Sending order is a merge of the per-flow sequences through a heap of
/// one `(next send instant, flow index)` key per unfinished flow.
pub struct PacedFlows<S> {
    flows: Vec<PacedFlow>,
    due: BinaryHeap<Reverse<(Time, u32)>>,
    wire_bytes: u32,
    total: u64,
    stamp: S,
}

impl<S> PacedFlows<S>
where
    S: FnMut(&FlowDesc, u64, Time, Dur) -> SchedHeader,
{
    /// Resolve each flow's path and pace; nothing is stamped yet.
    pub fn new(routes: &RoutingTable, flows: &[FlowDesc], wire_bytes: u32, stamp: S) -> Self {
        let mut total = 0u64;
        let flows: Vec<PacedFlow> = flows
            .iter()
            .map(|f| {
                let path = routes.resolve_path(f.src, f.dst, f.id);
                let first_index = total;
                total += f.pkts;
                PacedFlow {
                    desc: f.clone(),
                    pace: path.bw[0].tx_time(wire_bytes),
                    tmin: path.tmin(wire_bytes),
                    path,
                    first_index,
                    next_seq: 0,
                }
            })
            .collect();
        let due = flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.desc.pkts > 0)
            .map(|(k, f)| {
                let k = u32::try_from(k).expect("more than u32::MAX flows");
                Reverse((f.desc.start, k))
            })
            .collect();
        PacedFlows {
            flows,
            due,
            wire_bytes,
            total,
            stamp,
        }
    }

    /// Visit every packet in source order with the arguments `stamp`
    /// will see for it — `(flow, seq, send instant, tmin)` — without
    /// stamping.
    pub fn for_each_packet(&self, mut visit: impl FnMut(&FlowDesc, u64, Time, Dur)) {
        for f in &self.flows {
            for seq in 0..f.desc.pkts {
                visit(&f.desc, seq, f.send_time(seq), f.tmin);
            }
        }
    }
}

impl<S> std::fmt::Debug for PacedFlows<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacedFlows")
            .field("flows", &self.flows.len())
            .field("unfinished", &self.due.len())
            .field("packets", &self.total)
            .finish_non_exhaustive()
    }
}

impl<S> InjectSource for PacedFlows<S>
where
    S: FnMut(&FlowDesc, u64, Time, Dur) -> SchedHeader,
{
    fn packets(&self) -> u64 {
        self.total
    }

    fn records(&self, out: &mut Vec<PacketRecord>) {
        out.reserve(self.total as usize);
        for f in &self.flows {
            for seq in 0..f.desc.pkts {
                out.push(PacketRecord::pending(
                    f.desc.id,
                    seq,
                    self.wire_bytes,
                    f.desc.src,
                    f.desc.dst,
                    f.send_time(seq),
                    Arc::clone(&f.path),
                ));
            }
        }
    }

    fn next_at(&self) -> Option<Time> {
        self.due.peek().map(|&Reverse((at, _))| at)
    }

    fn pull_due(&mut self, now: Time) -> Option<Injection> {
        let mut head = self.due.peek_mut()?;
        let Reverse((at, k)) = *head;
        if at != now {
            return None;
        }
        let f = &mut self.flows[k as usize];
        let seq = f.next_seq;
        f.next_seq += 1;
        if f.next_seq < f.desc.pkts {
            *head = Reverse((f.send_time(f.next_seq), k));
        } else {
            std::collections::binary_heap::PeekMut::pop(head);
        }
        Some(Injection {
            index: f.first_index + seq,
            flow: f.desc.id,
            seq,
            size: self.wire_bytes,
            src: f.desc.src,
            dst: f.desc.dst,
            path: Arc::clone(&f.path),
            hdr: (self.stamp)(&f.desc, seq, at, f.tmin),
            kind: PacketKind::Data {
                bytes: self.wire_bytes.saturating_sub(40),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{PrioPolicy, SlackPolicy};
    use ups_net::{FlowId, TraceLevel};
    use ups_sim::Bandwidth;
    use ups_topo::simple::dumbbell;

    #[test]
    fn udp_flow_is_paced_by_the_host_nic() {
        let mut topo = dumbbell(
            1,
            Bandwidth::gbps(1),
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            TraceLevel::Hops,
        );
        let flows = [FlowDesc {
            id: FlowId(0),
            src: topo.hosts[0],
            dst: topo.hosts[1],
            pkts: 5,
            start: Time::ZERO,
            deadline: None,
        }];
        let mut st = HeaderStamper::new(SlackPolicy::None, PrioPolicy::None);
        let routes = topo.routes.clone();
        inject_udp_flows(&mut topo.net, &routes, &flows, 1500, &mut st);
        topo.net.run_to_completion();
        assert_eq!(topo.net.telemetry.counters.delivered, 5);
        // Deliveries spaced exactly one transmission time apart.
        let times: Vec<u64> = topo
            .net
            .telemetry
            .packets
            .iter()
            .map(|r| r.delivered.unwrap().as_ps())
            .collect();
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], Dur::from_micros(12).as_ps());
        }
    }
}
