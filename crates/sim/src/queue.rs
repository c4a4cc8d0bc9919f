//! Deterministic future-event list: a hierarchical indexed event wheel.
//!
//! Events pop in ascending `(time, class, sequence)` order:
//!
//! * events at the same instant pop in ascending **class** — the network
//!   layer uses this to settle all packet arrivals (and cascaded
//!   zero-time forwarding) before any transmission-start decision at
//!   that instant, matching the formal model where a scheduler choosing
//!   at time `t` sees every packet that has arrived by `t`;
//! * within a class, insertion order (FIFO) breaks ties, which makes the
//!   whole simulation deterministic regardless of queue internals.
//!
//! # Structure
//!
//! The queue is a three-tier hierarchy indexed by time slot
//! (`time / 2^SLOT_BITS ps`), replacing the former single global
//! `BinaryHeap`:
//!
//! 1. **Current slot** (`cur`) — every pending event of the slot being
//!    drained, kept in a small min-heap so both popping and same-slot
//!    pushes are O(log n) with a handful of 32-byte sifts. (An earlier
//!    design kept this tier as a sorted `Vec` with binary-search inserts;
//!    profiling the fat-tree k=8 bench showed those inserts memmoving
//!    ~90 entries on average, hundreds of thousands of times per run —
//!    the single largest cost in the event core.)
//! 2. **Wheel** (`buckets`) — `NUM_SLOTS` unsorted buckets for events
//!    within the wheel horizon ([`WHEEL_HORIZON`], ~17 ms), indexed by
//!    `slot % NUM_SLOTS` with a word-packed occupancy bitmap for
//!    O(words) next-slot scans.
//!    Push is O(1); each bucket is heapified once (O(n)), when its slot
//!    becomes current.
//! 3. **Far heap** (`far`) — a `BinaryHeap` fallback for events beyond
//!    the horizon (long TCP retransmission timers, flow arrivals). As the
//!    wheel advances, far events whose slot becomes current are merged
//!    into the drain heap.
//!
//! Storage follows the pending set. The drain heap keeps one allocation
//! for the whole run, grown to its high-water mark. Entering a slot moves
//! the bucket's entries into the drain heap's storage; the bucket index
//! keeps only its 64-entry first-use reservation between slots, and
//! anything it grew past that is freed — one bucket allocation per
//! occupied slot at most, none per event. (An earlier design swapped the
//! two storages instead, parking each spent drain heap at the index it
//! had just drained; on the Figure 4 TCP row, whose runs never outlive
//! the wheel, that pinned 62–93 MiB of bucket capacity against 2–3 MiB
//! of pending events.)
//!
//! # Batch-slot API
//!
//! [`EventQueue::pop_if`] exposes the head of the queue to a caller-side
//! predicate, so the simulation loop can drain a run of same-instant
//! events destined for the same component as one batch without giving up
//! pop-order determinism (the network layer batches same-instant arrivals
//! per link this way).
//!
//! # Determinism invariant
//!
//! Pop order is **identical** to a min-`BinaryHeap` over the full key
//! `(time, class, seq)`: slots partition the time axis monotonically, the
//! drain heap holds the complete pending set of the current slot, keys
//! are unique (the sequence number), and a binary heap over unique keys
//! pops them in exact ascending order. `tests/wheel_properties.rs` checks
//! this equivalence against a reference heap model under random
//! interleaved push/pop.

// Hot path, and free of panicking unwraps: keep it that way.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::time::{Dur, Time};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// log2 of the wheel slot width in picoseconds (2^23 ps ≈ 8.4 µs — a
/// handful of 1500 B transmission times at 1 Gbps, so events of the same
/// queueing burst usually share a slot and the per-slot heap stays
/// cache-resident).
const SLOT_BITS: u32 = 23;
/// Number of wheel buckets; must be a power of two. Together with
/// [`SLOT_BITS`] this puts the wheel horizon at ~17 ms of simulated
/// time, past which events overflow to the far heap.
const NUM_SLOTS: usize = 2048;
const SLOT_MASK: u64 = NUM_SLOTS as u64 - 1;
const OCC_WORDS: usize = NUM_SLOTS / 64;

/// How far past the last popped event the wheel tiers reach; events
/// scheduled beyond this take the far-heap path. Exposed for benches and
/// property tests that want to exercise every tier.
pub const WHEEL_HORIZON: Dur = Dur((NUM_SLOTS as u64) << SLOT_BITS);

/// Ordering key, packed to 16 bytes: `tag` holds the same-instant class
/// in its top bits and the insertion sequence below, so deriving `Ord`
/// on `(time, tag)` is exactly the documented ascending
/// `(time, class, seq)` order. 2^56 events before sequence overflow is
/// ~20 000 years of the busiest simulation we have run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: Time,
    tag: u64,
}

const CLASS_SHIFT: u32 = 56;

impl Key {
    fn new(time: Time, class: u8, seq: u64) -> Key {
        debug_assert!(seq < 1 << CLASS_SHIFT, "event sequence overflow");
        Key {
            time,
            tag: (class as u64) << CLASS_SHIFT | seq,
        }
    }
}

#[derive(Debug)]
struct Entry<E> {
    key: Key,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A future-event list with class-then-FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events of `cur_slot`, as a min-heap (unique keys make heap
    /// order exact total order).
    cur: BinaryHeap<Reverse<Entry<E>>>,
    /// Absolute slot number (`time >> SLOT_BITS`) being drained.
    cur_slot: u64,
    /// Unsorted buckets for slots in `(cur_slot, cur_slot + NUM_SLOTS)`.
    buckets: Vec<Vec<Reverse<Entry<E>>>>,
    /// One bit per bucket: does it hold any events?
    occ: [u64; OCC_WORDS],
    /// Total events across all buckets.
    wheel_len: usize,
    /// Events at slots at or beyond the wheel horizon.
    far: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    /// Time of the most recently popped event; pushes earlier than this
    /// are a logic error (events may not be scheduled in the past).
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at t = 0.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            cur: BinaryHeap::new(),
            cur_slot: 0,
            buckets: std::iter::repeat_with(Vec::new).take(NUM_SLOTS).collect(),
            occ: [0; OCC_WORDS],
            wheel_len: 0,
            far: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// Schedule `event` at `time` in ordering class `class` (lower pops
    /// first among same-time events). Panics if `time` is in the past.
    pub fn push(&mut self, time: Time, class: u8, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {}",
            self.now
        );
        let key = Key::new(time, class, self.seq);
        self.seq += 1;
        let slot = time.as_ps() >> SLOT_BITS;
        // At the current slot (pushes are never earlier: `time >= now`
        // and `now` lives in `cur_slot`): join the drain heap, keeping
        // the invariant that it holds every pending event of the slot.
        if slot <= self.cur_slot {
            self.cur.push(Reverse(Entry { key, event }));
        } else if slot - self.cur_slot < NUM_SLOTS as u64 {
            let idx = (slot & SLOT_MASK) as usize;
            let bucket = &mut self.buckets[idx];
            if bucket.capacity() == 0 {
                // First use of this index, or its last slot outgrew the
                // reservation `advance` keeps: skip the doubling ladder —
                // busy simulations put tens to hundreds of events in
                // every active slot.
                bucket.reserve(64);
            }
            bucket.push(Reverse(Entry { key, event }));
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.wheel_len += 1;
        } else {
            self.far.push(Reverse(Entry { key, event }));
        }
    }

    /// Pop the earliest event, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.cur.is_empty() {
            self.advance();
        }
        let Reverse(e) = self.cur.pop()?;
        self.now = e.key.time;
        Some((e.key.time, e.event))
    }

    /// Pop the earliest event only if the caller's predicate accepts it.
    ///
    /// This is the batch-drain primitive: the simulation loop peeks the
    /// head, decides whether it belongs to the batch being assembled
    /// (same instant, same target component), and either consumes it or
    /// leaves the queue untouched. Accepting an event advances "now"
    /// exactly as [`EventQueue::pop`] would.
    ///
    /// Only the drain heap is consulted — deliberately. Batches extend
    /// same-instant runs, and every event at the current instant is in
    /// the drain heap by construction (`push` routes anything at or
    /// before `cur_slot` there, and entering a slot merges its bucket
    /// and far events). Rejected probes therefore never advance the
    /// wheel; eagerly advancing here would heapify future slots early
    /// and redirect their pushes into the drain heap, degrading the
    /// wheel to a single binary heap.
    pub fn pop_if(&mut self, pred: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
        let head = self.cur.peek_mut()?;
        if !pred(head.0.key.time, &head.0.event) {
            return None;
        }
        let Reverse(e) = PeekMut::pop(head);
        self.now = e.key.time;
        Some((e.key.time, e.event))
    }

    /// Move `cur_slot` to the next slot holding events and load them into
    /// the (empty) drain heap, merging wheel and far-heap sources. Leaves
    /// the drain heap empty when no events are pending anywhere.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty());
        let next_wheel = (self.wheel_len > 0).then(|| self.next_occupied_slot());
        let next_far = self.far.peek().map(|Reverse(e)| slot_of(e.key.time));
        let Some(slot) = next_wheel.into_iter().chain(next_far).min() else {
            return;
        };
        self.cur_slot = slot;
        let idx = (slot & SLOT_MASK) as usize;
        if self.occ[idx >> 6] & (1 << (idx & 63)) != 0 {
            // Move the entries into the drain heap's own storage (one O(n)
            // rebuild, as a heapify would be). The index keeps its
            // 64-entry first-use reservation (see `push`) for its next
            // slot; storage grown past it is freed.
            let bucket = &mut self.buckets[idx];
            self.cur.extend(bucket.drain(..));
            if bucket.capacity() > 64 {
                *bucket = Vec::new();
            }
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            self.wheel_len -= self.cur.len();
        }
        // Far events whose slot has come into range join the same drain
        // heap; later far slots stay put until a later advance.
        while let Some(top) = self.far.peek_mut() {
            if slot_of(top.0.key.time) != slot {
                break;
            }
            self.cur.push(PeekMut::pop(top));
        }
        debug_assert!(!self.cur.is_empty(), "advanced to an empty slot");
    }

    /// The smallest occupied slot strictly after `cur_slot`. Scans the
    /// occupancy bitmap circularly starting at `cur_slot + 1`; bucket
    /// indices map back to absolute slots by their circular distance from
    /// the scan origin. Caller guarantees `wheel_len > 0`.
    fn next_occupied_slot(&self) -> u64 {
        let start = ((self.cur_slot + 1) & SLOT_MASK) as usize;
        for step in 0..=OCC_WORDS {
            // Word containing the scan position, masked to bits >= the
            // in-word offset on the first pass (and on the wrap pass).
            let word_idx = ((start >> 6) + step) % OCC_WORDS;
            let mut word = self.occ[word_idx];
            if step == 0 {
                word &= !0u64 << (start & 63);
            }
            if word != 0 {
                let idx = (word_idx << 6) | word.trailing_zeros() as usize;
                let delta = (idx + NUM_SLOTS - start) & SLOT_MASK as usize;
                return self.cur_slot + 1 + delta as u64;
            }
        }
        unreachable!("next_occupied_slot called on an empty wheel")
    }

    /// Peek the head of the current drain heap without touching the
    /// wheel. `None` means no event is pending at or before the current
    /// slot — in particular, no event at the current instant (every
    /// same-instant event is in the drain heap by construction).
    pub fn peek_cur(&self) -> Option<(Time, &E)> {
        self.cur.peek().map(|Reverse(e)| (e.key.time, &e.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(Reverse(e)) = self.cur.peek() {
            return Some(e.key.time);
        }
        let wheel_min = (self.wheel_len > 0)
            .then(|| self.next_occupied_slot())
            .and_then(|slot| {
                let bucket = &self.buckets[(slot & SLOT_MASK) as usize];
                bucket.iter().map(|Reverse(e)| e.key.time).min()
            });
        let far_min = self.far.peek().map(|Reverse(e)| e.key.time);
        // Earlier slots hold strictly earlier times, so a plain min over
        // the two tier heads is the global minimum.
        wheel_min.into_iter().chain(far_min).min()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cur.len() + self.wheel_len + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every pending event, in no particular order, passing each
    /// to `f`. For teardown: an owner whose events hold resources frees
    /// them here without paying for ordered pops.
    pub fn drain_unordered(&mut self, mut f: impl FnMut(E)) {
        let buckets = self.buckets.iter_mut().flat_map(|b| b.drain(..));
        let all = self.cur.drain().chain(buckets).chain(self.far.drain());
        all.for_each(|Reverse(e)| f(e.event));
        self.wheel_len = 0;
        self.occ = [0; OCC_WORDS];
    }
}

/// Wheel slot of an instant.
fn slot_of(t: Time) -> u64 {
    t.as_ps() >> SLOT_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), 0, "c");
        q.push(Time::from_nanos(10), 0, "a");
        q.push(Time::from_nanos(20), 0, "b");
        assert_eq!(q.pop(), Some((Time::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo_within_class() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(1);
        for i in 0..100 {
            q.push(t, 0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn class_orders_same_time_events() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(5);
        q.push(t, 3, "start-tx");
        q.push(t, 0, "arrive-1");
        q.push(t, 2, "tx-done");
        q.push(t, 0, "arrive-2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["arrive-1", "arrive-2", "tx-done", "start-tx"]);
    }

    #[test]
    fn late_push_of_lower_class_still_pops_first() {
        // A zero-duration transmission pushes its completion event in a
        // lower class than the start-of-transmission events already
        // pending at the same instant: the completion must still pop
        // first.
        let mut q = EventQueue::new();
        let t = Time::from_micros(1);
        q.push(t, 3, "start-a");
        q.push(t, 3, "start-b");
        assert_eq!(q.pop(), Some((t, "start-a")));
        q.push(t, 2, "done-a");
        assert_eq!(q.pop(), Some((t, "done-a")));
        assert_eq!(q.pop(), Some((t, "start-b")));
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(5), 0, ());
        q.push(Time::from_nanos(9), 0, ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_nanos(5));
        // Scheduling at exactly "now" is allowed.
        q.push(q.now(), 0, ());
        assert_eq!(q.pop().unwrap().0, Time::from_nanos(5));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), 0, ());
        q.pop();
        q.push(Time::from_micros(10) - Dur::from_nanos(1), 0, ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(1), 0, 1u32);
        q.push(Time::from_nanos(100), 0, 100);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_nanos(50), 0, 50);
        q.push(Time::from_nanos(75), 0, 75);
        assert_eq!(q.pop().unwrap().1, 50);
        assert_eq!(q.pop().unwrap().1, 75);
        assert_eq!(q.pop().unwrap().1, 100);
    }

    #[test]
    fn drain_unordered_yields_every_tier_and_leaves_a_working_empty_queue() {
        let mut q = EventQueue::new();
        // Current slot, a wheel bucket, and past the wheel horizon.
        let times = [1, 20_000, 40_000_000];
        for t in times {
            q.push(Time::from_nanos(t), 0, t);
        }
        let mut drained = Vec::new();
        q.drain_unordered(|t| drained.push(t));
        drained.sort_unstable();
        assert_eq!(drained, times);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_micros(30), 0, 7);
        assert_eq!(q.pop(), Some((Time::from_micros(30), 7)));
    }

    #[test]
    fn pop_if_consumes_only_accepted_events() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(1);
        q.push(t, 0, "a");
        q.push(t, 0, "b");
        q.push(Time::from_micros(2), 0, "later");
        // Accept same-instant events tagged 'a'/'b', refuse the rest.
        assert_eq!(q.pop_if(|pt, e| pt == t && *e == "a"), Some((t, "a")));
        // Head is "b": a predicate expecting "a" must leave it in place.
        assert_eq!(q.pop_if(|pt, e| pt == t && *e == "a"), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, "b")));
        // Cross-instant refusal: head is at 2us, batch instant was 1us.
        assert_eq!(q.pop_if(|pt, _| pt == t), None);
        assert_eq!(q.pop(), Some((Time::from_micros(2), "later")));
        // Empty queue: pop_if is None without calling the predicate.
        assert_eq!(q.pop_if(|_, _| true), None);
    }

    #[test]
    fn pop_if_never_advances_the_wheel() {
        // pop_if probes the drain heap only: with the pending event still
        // sitting in a future wheel slot, a probe returns None and leaves
        // the queue untouched, and pop still finds the event afterwards.
        // (Same-instant events are always in the drain heap, so a batch
        // probe has nothing to look for beyond it; advancing here would
        // pull future slots into the drain heap prematurely.)
        let mut q = EventQueue::new();
        let t = Time::from_millis(1);
        q.push(t, 0, 7u32);
        assert_eq!(q.pop_if(|_, _| true), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t, 7)));
        assert_eq!(q.now(), t);
        // Once the slot is current, a probe at the head succeeds.
        q.push(t, 1, 8u32);
        assert_eq!(q.pop_if(|_, _| true), Some((t, 8)));
    }

    /// Far-future events (beyond the wheel horizon) overflow to the
    /// heap tier and still pop in exact key order.
    #[test]
    fn far_future_events_round_trip_through_the_heap_tier() {
        let mut q = EventQueue::new();
        let horizon = WHEEL_HORIZON;
        let far_a = Time::ZERO + horizon + Dur::from_millis(7);
        let far_b = Time::ZERO + horizon.times(3);
        q.push(far_b, 1, "far-b");
        q.push(far_a, 0, "far-a");
        q.push(Time::from_micros(3), 0, "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_micros(3)));
        assert_eq!(q.pop(), Some((Time::from_micros(3), "near")));
        assert_eq!(q.peek_time(), Some(far_a));
        assert_eq!(q.pop(), Some((far_a, "far-a")));
        assert_eq!(q.pop(), Some((far_b, "far-b")));
        assert_eq!(q.pop(), None);
    }

    /// A far event and a wheel event landing in the same slot after the
    /// wheel advances merge into one correctly ordered drain.
    #[test]
    fn far_and_wheel_events_merge_in_the_same_slot() {
        let mut q = EventQueue::new();
        let horizon = WHEEL_HORIZON;
        let t = Time::ZERO + horizon + Dur::from_micros(1);
        q.push(t, 1, "was-far"); // beyond horizon: lands in the far heap
        q.push(Time::from_micros(1), 0, "near");
        assert_eq!(q.pop(), Some((Time::from_micros(1), "near")));
        // Now the wheel window covers t: this push goes to a bucket.
        q.push(t, 0, "now-near");
        assert_eq!(q.pop(), Some((t, "now-near")));
        assert_eq!(q.pop(), Some((t, "was-far")));
    }

    #[test]
    fn peek_time_sees_all_tiers() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_secs(1), 0, 0); // far tier
        assert_eq!(q.peek_time(), Some(Time::from_secs(1)));
        q.push(Time::from_micros(100), 0, 1); // wheel tier
        assert_eq!(q.peek_time(), Some(Time::from_micros(100)));
        q.pop();
        q.push(q.now(), 0, 2); // current-slot tier
        assert_eq!(q.peek_time(), Some(Time::from_micros(100)));
    }

    /// Exhaustive cross-check against a sorted reference on a dense
    /// pattern spanning slot boundaries.
    #[test]
    fn matches_reference_order_across_slot_boundaries() {
        let slot = 1u64 << SLOT_BITS;
        let mut q = EventQueue::new();
        // (time, class, seq) triples in deliberately scrambled push order.
        let mut keyed: Vec<(u64, u8, u64)> = Vec::new();
        for k in 0..6u64 {
            for &off in &[0, 1, slot - 1, slot / 2] {
                for class in [3u8, 0, 2] {
                    let seq = keyed.len() as u64;
                    q.push(Time(k * slot + off), class, seq);
                    keyed.push((k * slot + off, class, seq));
                }
            }
        }
        keyed.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expect: Vec<u64> = keyed.iter().map(|&(_, _, s)| s).collect();
        assert_eq!(got, expect);
    }

    /// Storage follows the pending set across a wrap of the bucket
    /// indices: a drained slot keeps no storage beyond the 64-entry
    /// first-use reservation, and the drain heap stays at its own
    /// high-water mark instead of trading allocations with the buckets.
    /// Odd slots outgrow the reservation, even slots fit in it.
    #[test]
    fn bucket_storage_follows_the_pending_set() {
        const BIG: u64 = 256; // bucket pushes per odd slot
        const SMALL: u64 = 32; // bucket pushes per even slot
        const CASCADE: usize = 64; // same-slot pushes while the slot drains
        const AHEAD: u64 = 100; // slots filled ahead of the drain
        let last_slot = NUM_SLOTS as u64 + 500;
        let width = 1u64 << SLOT_BITS;
        let fill = |q: &mut EventQueue<()>, slot: u64| {
            let n = if slot % 2 == 1 { BIG } else { SMALL };
            for i in 0..n {
                let off = i.wrapping_mul(0x9E37_79B9) % width;
                q.push(Time(slot * width + off), (i % 3) as u8, ());
            }
        };
        let cur_cap_bound = (BIG as usize + CASCADE).next_power_of_two();

        let mut q = EventQueue::new();
        for slot in 1..=AHEAD {
            fill(&mut q, slot);
        }
        let (mut slot, mut last) = (0, Time::ZERO);
        while let Some((t, ())) = q.pop() {
            assert!(t >= last, "popped {t} after {last}");
            last = t;
            if q.cur_slot != slot {
                slot = q.cur_slot;
                let kept = q.buckets[(slot & SLOT_MASK) as usize].capacity();
                assert!(kept <= 64, "drained slot {slot} kept {kept} entries");
                if slot + AHEAD <= last_slot {
                    fill(&mut q, slot + AHEAD);
                }
                for _ in 0..CASCADE {
                    q.push(t, 0, ());
                }
            }
            let grown = q.cur.capacity();
            assert!(grown <= cur_cap_bound, "drain heap grew to {grown} entries");
        }
        assert_eq!(slot, last_slot);
        let parked: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert!(parked <= NUM_SLOTS * 64, "{parked} entries parked");
    }
}
