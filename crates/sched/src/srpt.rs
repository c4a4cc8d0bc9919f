//! Shortest Remaining Processing Time with starvation prevention, as in
//! pFabric \[3\] and used by the paper's mean-FCT comparison (§3.1).
//!
//! The sender stamps every packet's `prio` with the flow's *remaining*
//! size in bytes at send time (SRPT) — or the total flow size (SJF). The
//! starvation-prevention rule (paper footnote 8): "the router always
//! schedules the earliest arriving packet of the flow which contains the
//! highest priority packet". So priority selects the flow, but service
//! within the flow is FCFS, which avoids starving a flow's earlier
//! packets that were stamped with larger remaining sizes.
//!
//! On overflow, the victim is the newest packet of the flow holding the
//! *worst* best-priority (pFabric drops from the lowest-priority flow).

// `flows` is only indexed by FlowId; flow selection always goes through
// the ordered `index` BTreeSet, so hash iteration order never influences
// service order. Clippy's hash-type ban is relaxed file-wide.
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeSet, HashMap, VecDeque};
use ups_net::scheduler::{EvictOutcome, Queued, Scheduler};
use ups_net::FlowId;

/// SRPT scheduler with pFabric-style starvation prevention.
#[derive(Debug, Default)]
pub struct Srpt {
    /// Per-flow FCFS queues.
    flows: HashMap<FlowId, VecDeque<Queued>>,
    /// Every queued packet as (prio, arrival_seq, flow) for global
    /// min/max priority lookups.
    index: BTreeSet<(i64, u64, FlowId)>,
    len: usize,
}

impl Srpt {
    /// Create an empty SRPT scheduler.
    pub fn new() -> Srpt {
        Srpt::default()
    }

    fn remove_from_index(&mut self, q: &Queued) {
        let removed = self
            .index
            .remove(&(q.pkt.hdr.prio, q.arrival_seq, q.pkt.flow));
        debug_assert!(removed, "index out of sync");
    }
}

impl Scheduler for Srpt {
    fn name(&self) -> &'static str {
        "SRPT"
    }

    fn enqueue(&mut self, q: Queued) {
        self.index
            .insert((q.pkt.hdr.prio, q.arrival_seq, q.pkt.flow));
        self.flows.entry(q.pkt.flow).or_default().push_back(q);
        self.len += 1;
    }

    fn dequeue(&mut self) -> Option<Queued> {
        // Flow containing the globally highest-priority packet...
        let &(_, _, flow) = self.index.first()?;
        // ...serves its earliest-arrived packet.
        let fq = self.flows.get_mut(&flow).expect("indexed flow missing");
        let q = fq.pop_front().expect("indexed flow empty");
        if fq.is_empty() {
            self.flows.remove(&flow);
        }
        self.len -= 1;
        self.remove_from_index(&q);
        Some(q)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn evict_for(&mut self, incoming: &Queued) -> EvictOutcome {
        let Some(&(worst_prio, _, flow)) = self.index.last() else {
            return EvictOutcome::DropIncoming;
        };
        if worst_prio <= incoming.pkt.hdr.prio {
            return EvictOutcome::DropIncoming;
        }
        let fq = self.flows.get_mut(&flow).expect("indexed flow missing");
        let victim = fq.pop_back().expect("indexed flow empty");
        if fq.is_empty() {
            self.flows.remove(&flow);
        }
        self.len -= 1;
        self.remove_from_index(&victim);
        EvictOutcome::Evicted(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::testutil::queued_flow;

    #[test]
    fn serves_flow_with_best_priority() {
        let mut s = Srpt::new();
        s.enqueue(queued_flow(0, 9_000, 0, 0));
        s.enqueue(queued_flow(1, 1_000, 1, 1)); // short flow
        assert_eq!(s.dequeue().unwrap().pkt.flow.0, 1);
        assert_eq!(s.dequeue().unwrap().pkt.flow.0, 0);
    }

    #[test]
    fn starvation_prevention_serves_flow_head_first() {
        let mut s = Srpt::new();
        // Flow 5's first packet was stamped with remaining=3000, its last
        // with remaining=1500 (closer to completion => higher priority).
        s.enqueue(queued_flow(5, 3_000, 0, 0));
        s.enqueue(queued_flow(5, 1_500, 1, 1));
        // A competitor with priority between the two.
        s.enqueue(queued_flow(6, 2_000, 2, 2));
        // Flow 5 holds the global best (1500) so its EARLIEST packet
        // (seq 0, prio 3000) is served first — not the 1500 one, and not
        // flow 6's 2000.
        let first = s.dequeue().unwrap();
        assert_eq!((first.pkt.flow.0, first.pkt.seq), (5, 0));
        let second = s.dequeue().unwrap();
        assert_eq!((second.pkt.flow.0, second.pkt.seq), (5, 1));
        assert_eq!(s.dequeue().unwrap().pkt.flow.0, 6);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn eviction_hits_lowest_priority_flow_tail() {
        let mut s = Srpt::new();
        s.enqueue(queued_flow(0, 100, 0, 0));
        s.enqueue(queued_flow(1, 9_000, 1, 1));
        s.enqueue(queued_flow(1, 8_000, 2, 2));
        let incoming = queued_flow(2, 500, 3, 3);
        match s.evict_for(&incoming) {
            // Flow 1 holds the worst priority (9000 best... its best is
            // 8000, still worst flow); victim is its newest packet.
            EvictOutcome::Evicted(v) => {
                assert_eq!(v.pkt.flow.0, 1);
                assert_eq!(v.pkt.seq, 2);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn conserves_packets() {
        let mut s = Srpt::new();
        for i in 0..50u64 {
            s.enqueue(queued_flow(i % 7, (50 - i) as i64, i, i));
        }
        let mut seqs: Vec<u64> = std::iter::from_fn(|| s.dequeue())
            .map(|q| q.pkt.seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    }
}
