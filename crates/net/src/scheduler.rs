//! The pluggable per-port scheduler interface.
//!
//! Every output port (unidirectional [`Link`](crate::link::Link)) owns one
//! `Box<dyn Scheduler>`. The paper's model allows each router to run
//! *different* scheduling logic (§2.1), which this maps to directly:
//! schedulers are assigned per link.
//!
//! The port, not the scheduler, is responsible for byte accounting, the
//! slack-header update on forward, and the transmission state machine; the
//! scheduler only orders packets, picks drop victims when the buffer is
//! full, and (optionally) exposes an urgency key used for preemption.

use crate::packet::Packet;
use ups_sim::{Dur, Time};

/// A packet waiting in an output queue, together with the per-queue state
/// the scheduler may key on.
#[derive(Debug)]
pub struct Queued {
    /// The packet itself, boxed so queue reorders and hand-offs move a
    /// pointer instead of the full packet.
    pub pkt: Box<Packet>,
    /// When it entered this queue.
    pub enq_time: Time,
    /// Its transmission time on this link (for the remaining bytes).
    pub tx_dur: Dur,
    /// Arrival order at this queue; used for deterministic FCFS
    /// tie-breaking (paper footnote 14).
    pub arrival_seq: u64,
}

impl Queued {
    /// The instant at which this packet's remaining slack reaches zero,
    /// measured for its *last bit* at this port (Appendix D): the packet's
    /// header slack is the slack of its last bit net of local transmission,
    /// so the formal last-bit slack at enqueue is `hdr.slack + tx_dur` and
    /// it decreases at unit rate while the packet waits.
    ///
    /// Ordering by this deadline is exactly "least remaining slack first"
    /// at every instant, and equals the EDF priority of Appendix E.
    pub fn slack_deadline(&self) -> i64 {
        self.enq_time.as_ps() as i64 + self.pkt.hdr.slack + self.tx_dur.as_i64()
    }
}

/// Result of asking a scheduler for a drop victim on buffer overflow.
#[derive(Debug)]
pub enum EvictOutcome {
    /// No queued packet is worse than the incoming one: drop the arrival.
    DropIncoming,
    /// This queued packet was removed and should be dropped instead.
    Evicted(Queued),
}

/// A packet scheduler for one output port.
///
/// Invariants every implementation must uphold:
/// * `dequeue` returns `None` iff `len() == 0`;
/// * packets are neither duplicated nor silently discarded — everything
///   enqueued is eventually returned by `dequeue` or `evict_for`;
/// * ties are broken deterministically (usually FCFS via `arrival_seq`).
pub trait Scheduler: std::fmt::Debug + Send {
    /// Human-readable algorithm name (reports and traces).
    fn name(&self) -> &'static str;

    /// Admit a packet to the queue.
    fn enqueue(&mut self, q: Queued);

    /// Remove and return the next packet to transmit.
    fn dequeue(&mut self) -> Option<Queued>;

    /// Number of queued packets.
    fn len(&self) -> usize;

    /// True if no packets are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer overflow policy: if some queued packet should be dropped in
    /// preference to `incoming`, remove and return it; otherwise report
    /// that the incoming packet is the victim. The default is drop-tail.
    ///
    /// The objective experiments (§3) rely on this: under LSTF "packets
    /// with the highest slack are dropped when the buffer is full".
    fn evict_for(&mut self, _incoming: &Queued) -> EvictOutcome {
        EvictOutcome::DropIncoming
    }

    /// Comparable urgency key (lower = more urgent), used by preemptive
    /// ports to decide whether an arrival should interrupt the packet
    /// currently being transmitted. `None` disables preemption for this
    /// scheduler regardless of the port setting.
    fn urgency(&self, _q: &Queued) -> Option<i64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::queued_slack as queued;

    #[test]
    fn slack_deadline_formula() {
        let q = queued(5_000, 10, 0);
        // enq(10ns=10_000ps) + slack(5_000ps) + tx(12us).
        assert_eq!(q.slack_deadline(), 10_000 + 5_000 + 12_000_000);
    }

    #[test]
    fn slack_deadline_can_be_negative_dominated() {
        let q = queued(-50_000_000, 0, 0);
        assert!(q.slack_deadline() < 0);
    }
}
