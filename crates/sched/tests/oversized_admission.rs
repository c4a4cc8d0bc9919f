//! Regression test for the buffer-admission eviction loop: an arriving
//! packet bigger than the whole buffer can never fit, so `Link::admit`
//! must drop it and terminate — for **every** scheduler, including the
//! evicting ones (LSTF and friends), which previously could only stop
//! the loop by how they happened to answer `evict_for` on an empty
//! queue.

use std::sync::Arc;
use ups_net::{FlowId, Link, LinkId, NodeId, Packet, PacketId, PacketKind, Path, SchedHeader};
use ups_sched::SchedKind;
use ups_sim::{Bandwidth, Dur, Time};

fn mk_link(kind: SchedKind, buffer: u64) -> Link {
    let mut l = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        Bandwidth::gbps(1),
        Dur::from_micros(5),
    );
    l.buffer = Some(buffer);
    l.set_scheduler(kind.build(LinkId(0), 7));
    l
}

fn mk_pkt(id: u64, size: u32, slack: i64) -> Box<Packet> {
    let path = Arc::new(Path {
        links: vec![LinkId(0)].into(),
        bw: vec![Bandwidth::gbps(1)].into(),
        prop: vec![Dur::from_micros(5)].into(),
    });
    Box::new(Packet {
        id: PacketId(id),
        flow: FlowId(id),
        seq: 0,
        size,
        tx_left: Dur::ZERO,
        src: NodeId(0),
        dst: NodeId(1),
        created: Time::ZERO,
        path,
        hops_done: 0,
        hdr: SchedHeader { slack, prio: slack },
        kind: PacketKind::Data { bytes: size },
        qdelay: Dur::ZERO,
        hop_first_tx: Time::ZERO,
    })
}

/// Arrival alone exceeds the buffer, queue empty: must drop the arrival
/// (and not loop or panic) under every scheduler.
#[test]
fn oversized_arrival_into_empty_queue_is_dropped() {
    for kind in SchedKind::ALL {
        let mut l = mk_link(kind, 1000);
        let act = l.admit(mk_pkt(0, 1500, 0), Time::ZERO);
        let name = l.scheduler_name();
        assert_eq!(act.dropped.len(), 1, "{name}: arrival must be dropped");
        assert_eq!(act.dropped[0].id, PacketId(0), "{name}: wrong victim");
        assert_eq!(l.stats.dropped, 1, "{name}");
        assert_eq!(l.queue_len(), 0, "{name}: queue must stay empty");
    }
}

/// Arrival alone exceeds the buffer while smaller (and, for the keyed
/// schedulers, strictly worse-keyed) packets are queued: eviction may
/// clear the queue, but the loop must still terminate by dropping the
/// oversized arrival once nothing is left to evict.
#[test]
fn oversized_arrival_terminates_even_after_evicting_everything() {
    for kind in SchedKind::ALL {
        let mut l = mk_link(kind, 1000);
        // Occupy the transmitter so admitted packets stay queued.
        l.admit(mk_pkt(100, 400, 1), Time::ZERO);
        l.try_start(Time::ZERO).expect("starts transmitting");
        // Two small queued packets with huge slack/prio (evict-worst
        // schedulers will happily sacrifice them).
        l.admit(mk_pkt(101, 400, 1_000_000_000), Time::ZERO);
        l.admit(mk_pkt(102, 400, 2_000_000_000), Time::ZERO);
        let queued_before = l.queue_len();
        assert_eq!(queued_before, 2);

        let act = l.admit(mk_pkt(0, 1200, 0), Time::ZERO);
        let name = l.scheduler_name();
        // However many victims were evicted first, the arrival itself
        // must end up in the dropped set and the call must return.
        assert!(
            act.dropped.iter().any(|p| p.id == PacketId(0)),
            "{name}: oversized arrival not dropped (dropped: {:?})",
            act.dropped.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert!(
            l.queue_len() <= queued_before,
            "{name}: queue grew on a failed admission"
        );
    }
}
