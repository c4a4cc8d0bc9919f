//! Struct-of-arrays storage for key-ordered schedulers.
//!
//! [`Keyed`](crate::Keyed) and [`Fq`](crate::Fq) used to keep their
//! packets in a `BTreeMap<(key, arrival_seq), Queued>`: every node a
//! separate allocation, compare keys interleaved with ~50-byte payloads,
//! so a pop or an ordered insert chased pointers through cold lines.
//! [`OrderedQueue`] splits the state struct-of-arrays style:
//!
//! * `order` — one `VecDeque` of `(key, arrival_seq, slot)` triples kept
//!   sorted *descending*: the packet to serve next sits at the back
//!   (a pop is `pop_back`, a peek is `back()`), the drop-worst victim at
//!   the front (`pop_front`), and an insert shifts whichever side of
//!   its position is shorter.
//! * `slots` — the fat [`Queued`] payloads in a slot-reusing arena,
//!   untouched until a packet is actually served or evicted.
//!
//! Inserts are admitted *ends first*: the new `(key, arrival_seq)` is
//! compared with the front and the back before any search; a new maximum
//! is a `push_front`, a new minimum a `push_back`, and only what falls
//! strictly between is binary-searched. That follows the measured
//! traffic (benchmark workloads, seed 1). Open-loop ports are shallow:
//! mean depth 9–13 and never above 640 on the three sweep workloads,
//! where 75–90% of inserts are already a new maximum. The closed-loop
//! Figure 4 cell is not: its LSTF queues pass 4,000 entries, and there
//! every insert made above depth 640 lands exactly at an end — 70% carry
//! the latest slack deadline yet (late keys go to the cheap end), 30%
//! the earliest. In a descending `Vec` the first kind paid a whole-queue
//! memmove: 94% of the 697 M entries shifted per pass, against 70 k
//! shifted here.
//!
//! The comparison key is exactly the old map key, `(key, arrival_seq)`,
//! so service order — smallest key first, FCFS among equals — and the
//! drop-worst victim are identical to the `BTreeMap` implementation.

use std::collections::VecDeque;
use ups_net::scheduler::Queued;

/// A min-queue of [`Queued`] packets ordered by `(key, arrival_seq)`,
/// stored struct-of-arrays; see the module docs.
#[derive(Debug)]
pub struct OrderedQueue<K> {
    /// `(key, arrival_seq, slot)`, sorted descending: maximum at the
    /// front, minimum at the back.
    order: VecDeque<(K, u64, u32)>,
    /// Packet payloads, indexed by the `slot` field of `order` entries.
    slots: Vec<Option<Queued>>,
    /// Reusable empty slots.
    free: Vec<u32>,
}

impl<K: Copy + Ord> OrderedQueue<K> {
    /// An empty queue.
    pub fn new() -> OrderedQueue<K> {
        OrderedQueue {
            order: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Insert `q` under `key`, keeping FCFS order among equal keys.
    pub fn insert(&mut self, key: K, q: Queued) {
        let seq = q.arrival_seq;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free-listed live slot");
                self.slots[slot as usize] = Some(q);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("OrderedQueue overflow");
                self.slots.push(Some(q));
                slot
            }
        };
        // Ends first (see the module docs), then the search. arrival_seq
        // is unique, so ties are impossible.
        let (new, entry) = ((key, seq), (key, seq, slot));
        let at = if self.order.front().map_or(true, |&(k, s, _)| new > (k, s)) {
            self.order.push_front(entry);
            0
        } else if self.order.back().is_some_and(|&(k, s, _)| new < (k, s)) {
            self.order.push_back(entry);
            self.order.len() - 1
        } else {
            let at = self.order.partition_point(|&(k, s, _)| (k, s) > new);
            self.order.insert(at, entry);
            at
        };
        let rank = |i: usize| (self.order[i].0, self.order[i].1);
        debug_assert!(
            (at == 0 || rank(at - 1) > new) && (at + 1 == self.order.len() || new > rank(at + 1)),
            "insert broke the strictly descending (key, arrival_seq) order"
        );
    }

    /// Remove and return the smallest-`(key, arrival_seq)` packet.
    pub fn pop_min(&mut self) -> Option<(K, Queued)> {
        let (key, _, slot) = self.order.pop_back()?;
        Some((key, self.take(slot)))
    }

    /// Remove and return the largest-`(key, arrival_seq)` packet (the
    /// drop-worst eviction victim).
    pub fn pop_max(&mut self) -> Option<(K, Queued)> {
        let (key, _, slot) = self.order.pop_front()?;
        Some((key, self.take(slot)))
    }

    /// The smallest queued packet, if any.
    pub fn peek_min(&self) -> Option<&Queued> {
        let &(_, _, slot) = self.order.back()?;
        self.slots[slot as usize].as_ref()
    }

    /// The largest key currently queued.
    pub fn max_key(&self) -> Option<K> {
        self.order.front().map(|&(key, _, _)| key)
    }

    fn take(&mut self, slot: u32) -> Queued {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("order entry names an empty slot")
    }
}

impl<K: Copy + Ord> Default for OrderedQueue<K> {
    fn default() -> Self {
        OrderedQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::testutil::queued_prio;

    #[test]
    fn pops_in_key_then_fcfs_order() {
        let mut q = OrderedQueue::new();
        q.insert(3i64, queued_prio(3, 0, 0));
        q.insert(1, queued_prio(1, 1, 1));
        q.insert(2, queued_prio(2, 2, 2));
        q.insert(1, queued_prio(1, 3, 3));
        let order: Vec<(i64, u64)> = std::iter::from_fn(|| q.pop_min())
            .map(|(k, e)| (k, e.arrival_seq))
            .collect();
        assert_eq!(order, vec![(1, 1), (1, 3), (2, 2), (3, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_max_is_drop_worst_victim() {
        let mut q = OrderedQueue::new();
        for (key, seq) in [(5i64, 0u64), (9, 1), (9, 2), (1, 3)] {
            q.insert(key, queued_prio(key, seq, seq));
        }
        assert_eq!(q.max_key(), Some(9));
        // Worst = largest (key, seq): the *later* of the two key-9 packets.
        let (key, victim) = q.pop_max().unwrap();
        assert_eq!((key, victim.arrival_seq), (9, 2));
        assert_eq!(q.pop_max().unwrap().1.arrival_seq, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slots_are_reused() {
        let mut q = OrderedQueue::new();
        for round in 0..100u64 {
            q.insert(0i64, queued_prio(0, round, round));
            q.pop_min().unwrap();
        }
        assert!(q.slots.len() <= 1, "arena grew on a steady-state queue");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = OrderedQueue::new();
        q.insert(7i64, queued_prio(7, 0, 0));
        q.insert(4, queued_prio(4, 1, 1));
        assert_eq!(q.peek_min().unwrap().arrival_seq, 1);
        assert_eq!(q.pop_min().unwrap().1.arrival_seq, 1);
    }
}
