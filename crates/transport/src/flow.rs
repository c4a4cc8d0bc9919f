//! Transport-level flow descriptors and completion results.

use ups_net::{FlowId, NodeId};
use ups_sim::{Dur, Time};

/// Flag bit distinguishing ACK "flows" from data flows in telemetry:
/// acknowledgements share the flow's identity but travel the reverse
/// path, and metrics must not count their bytes as goodput.
pub const ACK_FLOW_BIT: u64 = 1 << 63;

/// True if a flow id denotes an ACK stream.
pub fn is_ack_flow(f: FlowId) -> bool {
    f.0 & ACK_FLOW_BIT != 0
}

/// The ACK stream id for a data flow.
pub fn ack_flow(f: FlowId) -> FlowId {
    FlowId(f.0 | ACK_FLOW_BIT)
}

/// The data flow behind an ACK stream id.
pub fn data_flow(f: FlowId) -> FlowId {
    FlowId(f.0 & !ACK_FLOW_BIT)
}

/// A flow to run over a transport.
#[derive(Debug, Clone)]
pub struct FlowDesc {
    /// Flow id (dense, without the ACK bit).
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Flow length in MSS-sized packets.
    pub pkts: u64,
    /// Time the application opens the flow.
    pub start: Time,
    /// Completion deadline relative to `start`, for deadline-tagged
    /// traffic classes. When present, open-loop injection initializes
    /// each packet's header slack from the time budget actually left
    /// (deadline minus pacing offset minus minimum remaining transit),
    /// so EDF/LSTF see the real deadline instead of a heuristic stamp.
    pub deadline: Option<Dur>,
}

/// Completion record and delivery count for one flow.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The flow.
    pub desc: FlowDesc,
    /// When the sender saw the final cumulative ACK (sender-side FCT
    /// endpoint; constant half-RTT offset versus receiver-side, identical
    /// across compared schedulers).
    pub completed: Option<Time>,
    /// Packets retransmitted (loss diagnostics).
    pub retransmits: u64,
    /// Data bytes delivered to the receiver so far, at wire size,
    /// duplicates included.
    pub delivered_bytes: u64,
}

impl FlowResult {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<ups_sim::Dur> {
        self.completed.map(|t| t - self.desc.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_bit_roundtrip() {
        let f = FlowId(12345);
        let a = ack_flow(f);
        assert!(is_ack_flow(a));
        assert!(!is_ack_flow(f));
        assert_eq!(data_flow(a), f);
        assert_eq!(data_flow(f), f);
    }
}
