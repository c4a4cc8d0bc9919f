//! Test support: compact constructors for packets and queue entries.
//!
//! Public (not `cfg(test)`-gated) because the scheduler implementations in
//! `ups-sched` and the replay engine in `ups-core` reuse these builders in
//! their own unit tests. Not intended for production simulation code.

use crate::packet::{FlowId, LinkId, NodeId, Packet, PacketId, PacketKind, Path, SchedHeader};
use crate::scheduler::Queued;
use std::sync::Arc;
use ups_sim::{Bandwidth, Dur, Time};

/// Build a 1500-byte data packet with the given identity and header, on
/// a one-hop, 1 Gbps, zero-propagation path.
pub fn packet(id: u64, flow: u64, seq: u64, hdr: SchedHeader) -> Packet {
    Packet {
        id: PacketId(id),
        flow: FlowId(flow),
        seq,
        size: 1500,
        tx_left: Dur::ZERO,
        src: NodeId(0),
        dst: NodeId(1),
        created: Time::ZERO,
        path: Arc::new(Path {
            links: vec![LinkId(0)].into(),
            bw: vec![Bandwidth::gbps(1)].into(),
            prop: vec![Dur::ZERO].into(),
        }),
        hops_done: 0,
        hdr,
        kind: PacketKind::Data { bytes: 1460 },
        qdelay: Dur::ZERO,
        hop_first_tx: Time::ZERO,
    }
}

/// Build a queue entry: packet `seq` of `flow`, enqueued at `enq_ns`
/// nanoseconds with the given slack and priority header values.
pub fn queued_full(flow: u64, seq: u64, slack: i64, prio: i64, enq_ns: u64) -> Queued {
    let hdr = SchedHeader { slack, prio };
    Queued {
        pkt: Box::new(packet(seq, flow, seq, hdr)),
        enq_time: Time::from_nanos(enq_ns),
        tx_dur: Dur::from_micros(12),
        arrival_seq: seq,
    }
}

/// Queue entry with only a slack header (LSTF-style tests).
pub fn queued_slack(slack: i64, enq_ns: u64, seq: u64) -> Queued {
    queued_full(0, seq, slack, 0, enq_ns)
}

/// Queue entry with only a priority header (Priority/SJF-style tests).
pub fn queued_prio(prio: i64, enq_ns: u64, seq: u64) -> Queued {
    queued_full(0, seq, 0, prio, enq_ns)
}

/// Queue entry for a given flow with a priority (FQ/SRPT-style tests).
pub fn queued_flow(flow: u64, prio: i64, enq_ns: u64, seq: u64) -> Queued {
    queued_full(flow, seq, 0, prio, enq_ns)
}
