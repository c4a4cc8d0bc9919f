//! A generic comparator-ordered scheduler.
//!
//! Most algorithms in the paper — LSTF, EDF, static Priority, SJF, FIFO+,
//! LIFO — are "serve the queued packet with the smallest key, break ties
//! FCFS". [`Keyed`] implements that once over an [`OrderedQueue`] keyed by
//! `(key, arrival_seq)`, which stores compare keys struct-of-arrays style
//! in one dense sorted deque (see [`crate::soa`]): the minimum to serve
//! and the drop-worst maximum are the two ends, both O(1) to peek and to
//! pop, and an enqueue tries the ends before it searches — most keys
//! here are deadlines, so the latest arrival is usually the new maximum.

use crate::soa::OrderedQueue;
use ups_net::scheduler::{EvictOutcome, Queued, Scheduler};
use ups_net::Packet;

/// How a [`Keyed`] scheduler orders packets.
pub trait KeyPolicy: std::fmt::Debug + Send {
    /// Scheduler name for traces and reports.
    fn name(&self) -> &'static str;
    /// Comparable key; the smallest key is served first.
    fn key(&self, q: &Queued) -> i64;
    /// Whether buffer overflow should evict the worst-key packet rather
    /// than the arrival (drop-tail).
    fn evict_worst(&self) -> bool {
        true
    }
    /// Whether to expose keys as preemption urgency.
    fn preemptible(&self) -> bool {
        false
    }
}

/// Comparator-ordered scheduler; see [`KeyPolicy`].
#[derive(Debug)]
pub struct Keyed<P: KeyPolicy> {
    policy: P,
    q: OrderedQueue<i64>,
}

impl<P: KeyPolicy> Keyed<P> {
    /// Create an empty queue under `policy`.
    pub fn new(policy: P) -> Keyed<P> {
        Keyed {
            policy,
            q: OrderedQueue::new(),
        }
    }

    /// Peek at the next packet to be served.
    pub fn peek(&self) -> Option<&Packet> {
        self.q.peek_min().map(|e| &*e.pkt)
    }
}

impl<P: KeyPolicy> Scheduler for Keyed<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn enqueue(&mut self, q: Queued) {
        let key = self.policy.key(&q);
        self.q.insert(key, q);
    }

    fn dequeue(&mut self) -> Option<Queued> {
        self.q.pop_min().map(|(_, v)| v)
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn evict_for(&mut self, incoming: &Queued) -> EvictOutcome {
        if !self.policy.evict_worst() {
            return EvictOutcome::DropIncoming;
        }
        let incoming_key = self.policy.key(incoming);
        match self.q.max_key() {
            Some(worst_key) if worst_key > incoming_key => {
                let (_, victim) = self.q.pop_max().expect("non-empty");
                EvictOutcome::Evicted(victim)
            }
            _ => EvictOutcome::DropIncoming,
        }
    }

    fn urgency(&self, q: &Queued) -> Option<i64> {
        self.policy.preemptible().then(|| self.policy.key(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::testutil::queued_prio;

    #[derive(Debug)]
    struct ByPrio;
    impl KeyPolicy for ByPrio {
        fn name(&self) -> &'static str {
            "test-prio"
        }
        fn key(&self, q: &Queued) -> i64 {
            q.pkt.hdr.prio
        }
        fn preemptible(&self) -> bool {
            true
        }
    }

    #[test]
    fn serves_smallest_key_first() {
        let mut s = Keyed::new(ByPrio);
        s.enqueue(queued_prio(30, 0, 0));
        s.enqueue(queued_prio(10, 1, 1));
        s.enqueue(queued_prio(20, 2, 2));
        assert_eq!(s.dequeue().unwrap().pkt.hdr.prio, 10);
        assert_eq!(s.dequeue().unwrap().pkt.hdr.prio, 20);
        assert_eq!(s.dequeue().unwrap().pkt.hdr.prio, 30);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn equal_keys_break_fcfs() {
        let mut s = Keyed::new(ByPrio);
        for seq in 0..10 {
            s.enqueue(queued_prio(7, seq, seq));
        }
        for seq in 0..10 {
            assert_eq!(s.dequeue().unwrap().arrival_seq, seq);
        }
    }

    #[test]
    fn evicts_worst_when_strictly_worse() {
        let mut s = Keyed::new(ByPrio);
        s.enqueue(queued_prio(10, 0, 0));
        s.enqueue(queued_prio(99, 1, 1));
        let incoming = queued_prio(50, 2, 2);
        match s.evict_for(&incoming) {
            EvictOutcome::Evicted(v) => assert_eq!(v.pkt.hdr.prio, 99),
            other => panic!("expected eviction, got {other:?}"),
        }
        // Now the worst queued (10) is better than incoming (50).
        assert!(matches!(s.evict_for(&incoming), EvictOutcome::DropIncoming));
    }

    #[test]
    fn urgency_exposed_when_preemptible() {
        let s = Keyed::new(ByPrio);
        assert_eq!(s.urgency(&queued_prio(42, 0, 0)), Some(42));
    }
}
