//! A compact TCP Reno for the closed-loop experiments (§3.1 FCT, §3.3
//! fairness).
//!
//! The paper runs ns-2 TCP; the FCT and fairness results only need a
//! loss-reactive AIMD loop, so this implements the Reno core and nothing
//! more: slow start, congestion avoidance, triple-duplicate-ACK fast
//! retransmit, go-back-N retransmission timeout with exponential backoff,
//! Jacobson/Karn RTT estimation, per-packet cumulative ACKs. Sequence
//! numbers are in whole MSS packets (every data packet is one MSS).
//!
//! One [`TcpHost`] app per host multiplexes all its sender and receiver
//! connections. Flow starts are armed as timers at install time.

use crate::flow::{ack_flow, data_flow, is_ack_flow, FlowDesc, FlowResult};
use crate::header::HeaderStamper;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use ups_net::{App, FlowId, Network, NodeId, Packet, PacketKind, Path};
use ups_sim::{Dur, Time};

/// TCP parameters.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Payload bytes per packet.
    pub mss: u32,
    /// Header bytes added to payload on the wire (TCP/IP).
    pub header_bytes: u32,
    /// ACK wire size.
    pub ack_bytes: u32,
    /// Initial congestion window (packets).
    pub init_cwnd: f64,
    /// Initial slow-start threshold (packets).
    pub init_ssthresh: f64,
    /// Retransmission timeout floor.
    pub min_rto: Dur,
    /// RTO before the first RTT sample.
    pub init_rto: Dur,
    /// Maximum congestion window (packets); stands in for the receiver
    /// window.
    pub max_cwnd: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            header_bytes: 40,
            ack_bytes: 40,
            init_cwnd: 10.0,
            init_ssthresh: 1e9,
            min_rto: Dur::from_millis(1),
            init_rto: Dur::from_millis(10),
            max_cwnd: 10_000.0,
        }
    }
}

impl TcpConfig {
    /// Wire size of a full data packet.
    pub fn wire_bytes(&self) -> u32 {
        self.mss + self.header_bytes
    }
}

/// Shared per-flow results, indexed by flow id: completions, and the
/// data bytes delivered so far, which a caller may read between
/// [`Network::run_until`] steps.
pub type SharedResults = Arc<Mutex<Vec<FlowResult>>>;

#[derive(Debug)]
struct Sender {
    desc: FlowDesc,
    path: Arc<Path>,
    snd_una: u64,
    next_seq: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover_point: u64,
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    rto_deadline: Option<Time>,
    timed: Option<(u64, Time)>,
    retransmits: u64,
    completed: bool,
}

#[derive(Debug)]
struct Receiver {
    src: NodeId,
    reverse_path: Arc<Path>,
    next_expected: u64,
    out_of_order: BTreeSet<u64>,
    acks_sent: u64,
}

/// Per-host TCP endpoint multiplexing all connections of that host.
#[derive(Debug)]
pub struct TcpHost {
    cfg: TcpConfig,
    stamper: HeaderStamper,
    /// Flows sourced here, indexed by their start-timer id.
    outgoing: BTreeMap<u64, FlowDesc>,
    senders: BTreeMap<FlowId, Sender>,
    receivers: BTreeMap<FlowId, Receiver>,
    results: SharedResults,
}

/// Timer id layout: `flow*2` = flow start, `flow*2+1` = RTO.
fn start_timer_id(f: FlowId) -> u64 {
    f.0 * 2
}
fn rto_timer_id(f: FlowId) -> u64 {
    f.0 * 2 + 1
}

impl TcpHost {
    fn open(&mut self, net: &mut Network, desc: FlowDesc) {
        let path = net.routing().resolve_path(desc.src, desc.dst, desc.id);
        let s = Sender {
            path,
            snd_una: 0,
            next_seq: 0,
            cwnd: self.cfg.init_cwnd,
            ssthresh: self.cfg.init_ssthresh,
            dupacks: 0,
            in_recovery: false,
            recover_point: 0,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: self.cfg.init_rto,
            rto_deadline: None,
            timed: None,
            retransmits: 0,
            completed: false,
            desc,
        };
        let id = s.desc.id;
        self.senders.insert(id, s);
        self.pump(net, id);
    }

    /// Transmit one data packet of `flow` with sequence `seq`.
    fn send_data(&mut self, net: &mut Network, flow: FlowId, seq: u64, retransmit: bool) {
        let now = net.now();
        let cfg_wire = self.cfg.wire_bytes();
        let mss = self.cfg.mss;
        let s = self.senders.get_mut(&flow).expect("send on closed flow");
        let remaining = s.desc.pkts - seq;
        let hdr = self
            .stamper
            .stamp_data(flow, s.desc.pkts, remaining, cfg_wire, now);
        let s = self.senders.get_mut(&flow).expect("send on closed flow");
        if retransmit {
            s.retransmits += 1;
        } else if s.timed.is_none() {
            // Karn: only time fresh transmissions, one at a time.
            s.timed = Some((seq, now));
        }
        let (src, dst, path) = (s.desc.src, s.desc.dst, Arc::clone(&s.path));
        net.inject_on_path(
            now,
            flow,
            seq,
            cfg_wire,
            src,
            dst,
            path,
            hdr,
            PacketKind::Data { bytes: mss },
        );
    }

    /// Send as much new data as the window allows; keep the RTO armed.
    fn pump(&mut self, net: &mut Network, flow: FlowId) {
        let now = net.now();
        loop {
            let s = self.senders.get_mut(&flow).expect("pump on closed flow");
            if s.completed {
                return;
            }
            let window = s.cwnd.min(self.cfg.max_cwnd) as u64;
            let inflight = s.next_seq.saturating_sub(s.snd_una);
            if s.next_seq >= s.desc.pkts || inflight >= window.max(1) {
                break;
            }
            let seq = s.next_seq;
            s.next_seq += 1;
            self.send_data(net, flow, seq, false);
        }
        // (Re)arm the RTO for the oldest outstanding data.
        let rto = {
            let s = self.senders.get_mut(&flow).expect("pump on closed flow");
            if s.snd_una >= s.next_seq {
                s.rto_deadline = None;
                return;
            }
            s.rto
        };
        let deadline = now + rto;
        let s = self.senders.get_mut(&flow).expect("pump on closed flow");
        s.rto_deadline = Some(deadline);
        let node = s.desc.src;
        net.set_timer(node, deadline, rto_timer_id(flow));
    }

    fn on_ack(&mut self, net: &mut Network, flow: FlowId, cum: u64) {
        let now = net.now();
        let min_rto = self.cfg.min_rto;
        let Some(s) = self.senders.get_mut(&flow) else {
            return;
        };
        if s.completed {
            return;
        }
        if cum > s.snd_una {
            // New data acknowledged.
            if let Some((seq, sent)) = s.timed {
                if cum > seq {
                    let sample = now - sent;
                    // Jacobson/Karels.
                    match s.srtt {
                        None => {
                            s.srtt = Some(sample);
                            s.rttvar = sample / 2;
                        }
                        Some(srtt) => {
                            let err = srtt.as_i64() - sample.as_i64();
                            let abs = Dur(err.unsigned_abs());
                            s.rttvar = Dur((3 * s.rttvar.as_ps() + abs.as_ps()) / 4);
                            s.srtt = Some(Dur((7 * srtt.as_ps() + sample.as_ps()) / 8));
                        }
                    }
                    s.rto = (s.srtt.unwrap() + s.rttvar * 4).max(min_rto);
                    s.timed = None;
                }
            }
            let newly = cum - s.snd_una;
            s.snd_una = cum;
            // A late ACK may outrun a go-back-N rollback of next_seq.
            s.next_seq = s.next_seq.max(cum);
            s.dupacks = 0;
            if s.in_recovery && cum >= s.recover_point {
                s.in_recovery = false;
            }
            if !s.in_recovery {
                if s.cwnd < s.ssthresh {
                    s.cwnd += newly as f64; // slow start
                } else {
                    s.cwnd += newly as f64 / s.cwnd; // congestion avoidance
                }
            }
            if s.snd_una >= s.desc.pkts {
                s.completed = true;
                s.rto_deadline = None;
                let mut res = self.results.lock().expect("results poisoned");
                let slot = &mut res[flow.0 as usize];
                slot.completed = Some(now);
                slot.retransmits = s.retransmits;
                return;
            }
            self.pump(net, flow);
        } else {
            // Duplicate ACK.
            s.dupacks += 1;
            if s.dupacks == 3 && !s.in_recovery {
                s.ssthresh = (s.cwnd / 2.0).max(2.0);
                s.cwnd = s.ssthresh;
                s.in_recovery = true;
                s.recover_point = s.next_seq;
                let seq = s.snd_una;
                self.send_data(net, flow, seq, true);
                self.pump(net, flow);
            }
        }
    }

    fn on_rto(&mut self, net: &mut Network, flow: FlowId, now: Time) {
        let Some(s) = self.senders.get_mut(&flow) else {
            return;
        };
        if s.completed {
            return;
        }
        // Ignore stale timers: only the currently armed deadline counts.
        if s.rto_deadline != Some(now) {
            return;
        }
        // Timeout: multiplicative backoff, go-back-N from snd_una.
        s.ssthresh = (s.cwnd / 2.0).max(2.0);
        s.cwnd = 1.0;
        s.dupacks = 0;
        s.in_recovery = false;
        s.next_seq = s.snd_una;
        s.rto = (s.rto * 2).min(Dur::from_secs(2));
        s.timed = None; // Karn: no samples across retransmission
        s.retransmits += 1;
        self.pump(net, flow);
    }

    fn on_data(&mut self, net: &mut Network, node: NodeId, pkt: &Packet) {
        let flow = pkt.flow;
        let now = net.now();
        let ack_hdr = self.stamper.stamp_ack();
        let ack_bytes = self.cfg.ack_bytes;
        let r = self.receivers.entry(flow).or_insert_with(|| Receiver {
            src: pkt.src,
            reverse_path: net.routing().resolve_path(node, pkt.src, flow),
            next_expected: 0,
            out_of_order: BTreeSet::new(),
            acks_sent: 0,
        });
        // In order: advance without touching the (usually empty)
        // reorder set, so the common case allocates nothing.
        if pkt.seq == r.next_expected {
            r.next_expected += 1;
            while r.out_of_order.remove(&r.next_expected) {
                r.next_expected += 1;
            }
        } else if pkt.seq > r.next_expected {
            r.out_of_order.insert(pkt.seq);
        }
        self.results.lock().expect("results poisoned")[flow.0 as usize].delivered_bytes +=
            u64::from(pkt.size);
        // The ACK carries the segment count in one 32-bit word.
        let cum = u32::try_from(r.next_expected).expect("a flow of more than u32::MAX segments");
        let seq = r.acks_sent;
        r.acks_sent += 1;
        let (src, path) = (r.src, Arc::clone(&r.reverse_path));
        net.inject_on_path(
            now,
            ack_flow(flow),
            seq,
            ack_bytes,
            node,
            src,
            path,
            ack_hdr,
            PacketKind::Ack { cum_ack: cum },
        );
    }
}

impl App for TcpHost {
    fn on_deliver(&mut self, net: &mut Network, node: NodeId, pkt: &Packet) {
        match pkt.kind {
            PacketKind::Data { .. } => self.on_data(net, node, pkt),
            PacketKind::Ack { cum_ack } => {
                debug_assert!(is_ack_flow(pkt.flow));
                self.on_ack(net, data_flow(pkt.flow), u64::from(cum_ack));
            }
        }
    }

    fn on_timer(&mut self, net: &mut Network, _node: NodeId, id: u64) {
        if id % 2 == 0 {
            if let Some(desc) = self.outgoing.remove(&id) {
                self.open(net, desc);
            }
        } else {
            let flow = FlowId(id / 2);
            self.on_rto(net, flow, net.now());
        }
    }
}

/// Install a [`TcpHost`] on every host, arm flow-start timers, and return
/// the shared results vector (indexed by flow id).
///
/// `make_stamper` builds one header stamper per host (virtual-clock state
/// is per-flow and each flow sends from one host, so per-host stampers
/// are equivalent to a global one).
pub fn install_tcp(
    net: &mut Network,
    flows: &[FlowDesc],
    cfg: &TcpConfig,
    mut make_stamper: impl FnMut() -> HeaderStamper,
) -> SharedResults {
    let results: SharedResults = Arc::new(Mutex::new(
        flows
            .iter()
            .map(|f| FlowResult {
                desc: f.clone(),
                completed: None,
                retransmits: 0,
                delivered_bytes: 0,
            })
            .collect(),
    ));
    // Flow ids must be dense for the results vector.
    for (i, f) in flows.iter().enumerate() {
        assert_eq!(f.id.0, i as u64, "flow ids must be dense from 0");
    }
    let hosts = net.hosts();
    for host in hosts {
        let mut outgoing = BTreeMap::new();
        for f in flows.iter().filter(|f| f.src == host) {
            outgoing.insert(start_timer_id(f.id), f.clone());
            net.set_timer(host, f.start, start_timer_id(f.id));
        }
        let app = TcpHost {
            cfg: cfg.clone(),
            stamper: make_stamper(),
            outgoing,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            results: Arc::clone(&results),
        };
        net.attach_app(host, Box::new(app));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{PrioPolicy, SlackPolicy};
    use ups_net::TraceLevel;
    use ups_sim::Bandwidth;
    use ups_topo::simple::dumbbell;

    /// Build a 4-pair dumbbell (hosts 0..4 on the left, 4..8 on the
    /// right), run `make_flows(&topo)` over it, and return results.
    fn run_flows(
        make_flows: impl FnOnce(&ups_topo::Topology) -> Vec<FlowDesc>,
        buffer: Option<u64>,
        horizon: Time,
    ) -> (Vec<FlowResult>, u64 /* drops */) {
        let mut topo = dumbbell(
            4,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            TraceLevel::Delivery,
        );
        let flows = make_flows(&topo);
        topo.net
            .configure_links(|_| ups_net::LinkPolicy::keep().buffer(buffer));
        let results = install_tcp(&mut topo.net, &flows, &TcpConfig::default(), || {
            HeaderStamper::new(SlackPolicy::None, PrioPolicy::None)
        });
        topo.net.run_until(horizon);
        let drops = topo.net.telemetry.counters.dropped;
        let out = results.lock().unwrap().clone();
        (out, drops)
    }

    fn desc(id: u64, src: NodeId, dst: NodeId, pkts: u64, start: Time) -> FlowDesc {
        FlowDesc {
            id: FlowId(id),
            src,
            dst,
            pkts,
            start,
            deadline: None,
        }
    }

    #[test]
    fn single_flow_completes_without_loss() {
        let (res, drops) = run_flows(
            |t| vec![desc(0, t.hosts[0], t.hosts[4], 100, Time::ZERO)],
            None,
            Time::from_secs(5),
        );
        assert_eq!(drops, 0);
        let fct = res[0].fct().expect("flow did not complete");
        assert_eq!(res[0].retransmits, 0);
        // 100 packets over a 1Gbps bottleneck take >= 1.2ms + RTT.
        assert!(fct >= Dur::from_micros(1200), "fct {fct}");
        assert!(fct < Dur::from_millis(50), "fct {fct}");
    }

    #[test]
    fn many_flows_all_complete_despite_finite_buffers() {
        // Small buffer (30KB) forces losses; Reno must still finish.
        let (res, drops) = run_flows(
            |t| {
                (0..4)
                    .map(|i| {
                        desc(
                            i,
                            t.hosts[i as usize],
                            t.hosts[4 + i as usize],
                            400,
                            Time::from_micros(i * 10),
                        )
                    })
                    .collect()
            },
            Some(30_000),
            Time::from_secs(10),
        );
        assert!(drops > 0, "expected drops with a 30KB buffer");
        for r in &res {
            assert!(
                r.completed.is_some(),
                "flow {:?} incomplete ({} retransmits)",
                r.desc.id,
                r.retransmits
            );
        }
        assert!(res.iter().any(|r| r.retransmits > 0));
    }

    #[test]
    fn fct_grows_with_flow_size() {
        let (res, _) = run_flows(
            |t| {
                vec![
                    desc(0, t.hosts[0], t.hosts[4], 10, Time::ZERO),
                    desc(1, t.hosts[1], t.hosts[5], 1000, Time::ZERO),
                ]
            },
            None,
            Time::from_secs(10),
        );
        let f0 = res[0].fct().unwrap();
        let f1 = res[1].fct().unwrap();
        assert!(f1 > f0 * 5, "fcts: {f0} vs {f1}");
    }

    #[test]
    fn sharing_flows_split_bottleneck_bandwidth() {
        // Two equal flows, same start: each should get ~500Mbps, so a
        // 2000-packet flow takes ~2 * 2000 * 12us = 48ms plus overheads.
        let (res, _) = run_flows(
            |t| {
                vec![
                    desc(0, t.hosts[0], t.hosts[4], 2000, Time::ZERO),
                    desc(1, t.hosts[1], t.hosts[5], 2000, Time::ZERO),
                ]
            },
            Some(5_000_000),
            Time::from_secs(10),
        );
        let f0 = res[0].fct().unwrap().as_secs_f64();
        let f1 = res[1].fct().unwrap().as_secs_f64();
        let solo = 2000.0 * 12e-6;
        assert!(f0 > solo * 1.5 && f1 > solo * 1.5, "{f0} {f1}");
        // And they finish within 40% of each other (rough fairness).
        assert!((f0 - f1).abs() / f0.max(f1) < 0.4, "{f0} vs {f1}");
    }
}
