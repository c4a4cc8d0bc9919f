//! Link-down edge cases of the chaos layer: an in-service packet killed
//! by a failure must be fully accounted (LinkStats, telemetry counters,
//! no packet leak), a down link must refuse arrivals, failures must
//! drain every scheduler's queue consistently, and jamming must kill
//! only the in-service packet while the queue survives. Every case runs
//! at hop level and checks that each drop is located at the port that
//! counted it.

use std::sync::Arc;
use ups::net::{ChaosPolicy, FlowId, JamSpec, LinkPolicy, Network, TraceLevel};
use ups::sched::SchedKind;
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::simple::{dumbbell, line};
use ups::topo::Topology;
use ups::transport::{inject_udp_flows, FlowDesc, HeaderStamper, PrioPolicy, SlackPolicy};

fn inject(topo: &mut Topology, flows: &[FlowDesc]) {
    inject_stamped(topo, flows, HeaderStamper::zero());
}

fn inject_stamped(topo: &mut Topology, flows: &[FlowDesc], mut stamper: HeaderStamper) {
    let routes = Arc::clone(&topo.routes);
    inject_udp_flows(&mut topo.net, &routes, flows, 1500, &mut stamper);
}

/// A dropped packet's record locates its drop: the port of its first
/// unfinished hop, `path.links[hops_done]`. Tallied per link, those
/// ports must match every link's own `LinkStats::dropped`.
fn assert_drops_located(net: &Network) {
    assert_eq!(net.telemetry.level, TraceLevel::Hops);
    let mut located = vec![0u64; net.links.len()];
    for r in net.telemetry.packets.iter().filter(|r| r.dropped) {
        assert!(r.delivered.is_none(), "a dropped packet was delivered");
        located[r.path.links[r.hops_done as usize].0 as usize] += 1;
    }
    let counted: Vec<u64> = net.links.iter().map(|l| l.stats.dropped).collect();
    assert_eq!(
        located, counted,
        "drop locations per link vs LinkStats::dropped"
    );
    assert_eq!(located.iter().sum::<u64>(), net.telemetry.counters.dropped);
}

/// One packet, one link, one failure window opening mid-serialization:
/// the in-service packet must surface as a drop in both the link stats
/// and the network counters, and must not leak a packet.
#[test]
fn failure_mid_transmission_drops_the_in_service_packet_cleanly() {
    let mut topo = line(1, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops);
    let (src, dst) = (topo.hosts[0], topo.hosts[1]);
    inject(
        &mut topo,
        &[FlowDesc {
            id: FlowId(0),
            src,
            dst,
            pkts: 1,
            start: Time::ZERO,
            deadline: None,
        }],
    );
    // 1500 B at 1 Gbps serializes for 12 µs; fail the NIC at 5 µs.
    topo.net.install_chaos(Time::from_millis(1), |l| {
        (l.from == src)
            .then(|| ChaosPolicy::new(3).fail(Time::from_micros(5), Time::from_micros(8)))
    });
    topo.net.run_to_completion();

    assert_eq!(
        topo.net.packets_in_flight(),
        0,
        "chaos kill leaked a packet"
    );
    let c = &topo.net.telemetry.counters;
    assert_eq!(c.injected, 1);
    assert_eq!(c.delivered, 0, "the killed packet must not be delivered");
    assert_eq!(c.dropped, 1, "the kill must surface in the drop counter");

    let link = topo.net.links.iter().find(|l| l.from == src).unwrap();
    assert_eq!(link.stats.enqueued, 1);
    assert_eq!(link.stats.tx_done, 0);
    assert_eq!(link.stats.dropped, 1);
    assert_eq!(link.stats.chaos_drops, 1);
    assert_eq!(link.stats.chaos_downs, 1);
    assert_eq!(link.stats.chaos_outage, Dur::from_micros(3));
    assert_eq!(link.queue_len(), 0);
    assert_eq!(topo.net.chaos_totals().drops, 1);
    assert_drops_located(&topo.net);
}

/// While down, a link refuses arrivals outright; every refusal and the
/// initial in-service kill are chaos drops, and service resumes exactly
/// at recovery — nothing else in the run is lost.
#[test]
fn a_down_link_refuses_arrivals_and_accounts_every_loss() {
    let mut topo = line(1, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops);
    let (src, dst) = (topo.hosts[0], topo.hosts[1]);
    // 100 packets paced back-to-back at the NIC rate (12 µs apart).
    inject(
        &mut topo,
        &[FlowDesc {
            id: FlowId(0),
            src,
            dst,
            pkts: 100,
            start: Time::ZERO,
            deadline: None,
        }],
    );
    topo.net.install_chaos(Time::from_millis(10), |l| {
        (l.from == src)
            .then(|| ChaosPolicy::new(9).fail(Time::from_micros(100), Time::from_micros(220)))
    });
    topo.net.run_to_completion();

    assert_eq!(topo.net.packets_in_flight(), 0);
    let link = topo.net.links.iter().find(|l| l.from == src).unwrap();
    // Unbounded buffers: chaos is the only loss source on this link.
    assert_eq!(link.stats.dropped, link.stats.chaos_drops);
    assert_eq!(link.stats.chaos_downs, 1);
    assert_eq!(link.stats.chaos_outage, Dur::from_micros(120));
    // One in-service kill plus ~10 refused arrivals over the 120 µs window.
    assert!(
        (9..=12).contains(&link.stats.chaos_drops),
        "unexpected chaos drops: {}",
        link.stats.chaos_drops
    );
    let c = &topo.net.telemetry.counters;
    assert_eq!(c.injected, 100);
    assert_eq!(c.delivered + c.dropped, c.injected, "packet conservation");
    assert_eq!(c.dropped, link.stats.chaos_drops as u64);
    // Every survivor of the failed hop reaches the destination.
    assert_eq!(c.delivered, link.stats.tx_done);
    assert_drops_located(&topo.net);
}

/// A failure drains the whole scheduler queue through the scheduler's
/// own dequeue for every registered kind: stats stay consistent, the
/// queue ends empty, no packet leaks, and post-recovery service still works.
#[test]
fn failure_drains_the_queue_consistently_under_every_scheduler() {
    for kind in SchedKind::ALL {
        let mut topo = dumbbell(
            2,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Hops,
        );
        topo.net
            .configure_links(|l| LinkPolicy::keep().scheduler(kind.build(l.id, 7)));
        let flows: Vec<FlowDesc> = (0..2)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: topo.hosts[i as usize],
                dst: topo.hosts[2 + i as usize],
                pkts: 60,
                start: Time::ZERO,
                deadline: None,
            })
            .collect();
        inject(&mut topo, &flows);
        // 2×10 Gbps offered into 1 Gbps: a deep bottleneck queue by 200 µs.
        topo.net.install_chaos(Time::from_millis(20), |l| {
            (l.bw == Bandwidth::gbps(1))
                .then(|| ChaosPolicy::new(5).fail(Time::from_micros(200), Time::from_micros(260)))
        });
        topo.net.run_to_completion();

        let label = kind.label();
        assert_eq!(topo.net.packets_in_flight(), 0, "{label}: packet leak");
        let c = &topo.net.telemetry.counters;
        assert_eq!(c.injected, 120, "{label}: injection count");
        assert_eq!(c.delivered + c.dropped, c.injected, "{label}: conservation");
        assert!(c.delivered > 0, "{label}: service never resumed");
        let bottleneck = topo
            .net
            .links
            .iter()
            .find(|l| l.bw == Bandwidth::gbps(1) && l.stats.enqueued > 0)
            .expect("loaded bottleneck link");
        assert!(
            bottleneck.stats.chaos_drops > 1,
            "{label}: failure should have drained a queue, dropped {}",
            bottleneck.stats.chaos_drops
        );
        assert_eq!(
            bottleneck.stats.dropped, bottleneck.stats.chaos_drops,
            "{label}: chaos must be the only loss source"
        );
        assert_eq!(bottleneck.queue_len(), 0, "{label}: queue not drained");
        assert_eq!(bottleneck.stats.chaos_downs, 1, "{label}: down windows");
        assert_drops_located(&topo.net);
    }
}

/// Jamming is gentler than failure: the in-service packet dies, but the
/// queue keeps its packets and accepts arrivals, so exactly one packet
/// is lost and everything else is delivered after the window closes.
#[test]
fn jamming_kills_only_the_in_service_packet_and_keeps_the_queue() {
    let mut topo = dumbbell(
        2,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(5),
        TraceLevel::Hops,
    );
    let flows: Vec<FlowDesc> = (0..2)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: topo.hosts[i as usize],
            dst: topo.hosts[2 + i as usize],
            pkts: 60,
            start: Time::ZERO,
            deadline: None,
        })
        .collect();
    inject(&mut topo, &flows);
    topo.net.install_chaos(Time::from_millis(20), |l| {
        (l.bw == Bandwidth::gbps(1)).then(|| {
            ChaosPolicy::new(4).jam(JamSpec::Periodic {
                start: Time::from_micros(200),
                period: Dur::from_millis(50),
                burst: Dur::from_micros(60),
            })
        })
    });
    topo.net.run_to_completion();

    assert_eq!(topo.net.packets_in_flight(), 0);
    let bottleneck = topo
        .net
        .links
        .iter()
        .find(|l| l.bw == Bandwidth::gbps(1) && l.stats.enqueued > 0)
        .expect("loaded bottleneck link");
    assert_eq!(bottleneck.stats.chaos_jams, 1);
    assert_eq!(
        bottleneck.stats.chaos_drops, 1,
        "a jam kills the in-service packet and nothing else"
    );
    assert_eq!(bottleneck.stats.chaos_outage, Dur::from_micros(60));
    assert_eq!(
        bottleneck.queue_len(),
        0,
        "queue must drain after the window"
    );
    let c = &topo.net.telemetry.counters;
    assert_eq!(c.injected, 120);
    assert_eq!(c.dropped, 1);
    assert_eq!(c.delivered, 119, "the surviving queue must be delivered");
    assert_drops_located(&topo.net);
}

/// A full buffer drops at its own port, whichever packet goes: the
/// arrival under drop-tail (FIFO, and SJF when the arrival is no more
/// urgent than the queue's worst), or the queued packet of the longer
/// flow when SJF's drop-worst eviction makes room for the shorter one.
/// Wire loss on the senders' access links drops a packet after its
/// serialization, before that hop is recorded.
#[test]
fn buffer_overflow_and_wire_loss_are_located_at_their_ports() {
    for kind in [SchedKind::Fifo, SchedKind::Sjf] {
        let mut topo = dumbbell(
            2,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Hops,
        );
        topo.net.configure_links(|l| {
            let p = LinkPolicy::keep();
            if l.bw == Bandwidth::gbps(1) {
                p.scheduler(kind.build(l.id, 7)).buffer(Some(8 * 1500))
            } else {
                p
            }
        });
        let h = topo.hosts.clone();
        // A 60-packet flow fills the 8-packet bottleneck buffer; a
        // 10-packet flow (SJF: more urgent) arrives into it at 50 µs.
        let flows =
            [(0, 60, Time::ZERO), (1, 10, Time::from_micros(50))].map(|(i, pkts, start)| {
                FlowDesc {
                    id: FlowId(i),
                    src: h[i as usize],
                    dst: h[2 + i as usize],
                    pkts,
                    start,
                    deadline: None,
                }
            });
        let stamper = HeaderStamper::new(SlackPolicy::None, PrioPolicy::FlowSize);
        inject_stamped(&mut topo, &flows, stamper);
        topo.net.install_chaos(Time::from_millis(20), |l| {
            (l.from == h[0] || l.from == h[1]).then(|| ChaosPolicy::new(13).drop_prob(0.1))
        });
        topo.net.run_to_completion();

        let label = kind.label();
        assert_eq!(topo.net.packets_in_flight(), 0, "{label}: packet leak");
        let c = &topo.net.telemetry.counters;
        assert_eq!(c.delivered + c.dropped, 70, "{label}: conservation");
        let bottleneck = topo
            .net
            .links
            .iter()
            .find(|l| l.bw == Bandwidth::gbps(1) && l.stats.enqueued > 0)
            .expect("loaded bottleneck link");
        // Evicted packets were enqueued and never sent; the rest of the
        // bottleneck's drops are refused arrivals.
        let evicted = bottleneck.stats.enqueued - bottleneck.stats.tx_done;
        let refused = bottleneck.stats.dropped - evicted;
        assert!(refused > 0, "{label}: no drop-tail arrival");
        assert_eq!(
            evicted > 0,
            kind == SchedKind::Sjf,
            "{label}: evictions {evicted}"
        );
        let wire: u64 = topo
            .net
            .links
            .iter()
            .filter(|l| l.from == h[0] || l.from == h[1])
            .map(|l| l.stats.chaos_drops)
            .sum();
        assert!(wire > 0, "{label}: no wire loss drawn");
        assert_drops_located(&topo.net);
    }
}
