//! Property test: the hierarchical event wheel pops in *exactly* the
//! order a reference min-heap over `(time, class, seq)` would, under
//! random interleaved push/pop — including same-instant class ties,
//! same-slot bursts, and far-future events that overflow the wheel
//! horizon into the heap tier. This is the determinism invariant every
//! replay artifact rests on: swap the queue implementation, keep the
//! event order bit-for-bit.
//!
//! The script also drives the batch primitives the network's event loop
//! relies on: `pop_if` (every batch is drained through it), `peek_time`
//! (what `run_until` steers on) and `peek_cur`, whose contract is that
//! every event at the last popped instant is already in the drain heap.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ups_sim::{EventQueue, Time, WHEEL_HORIZON};

/// Reference model: the old implementation — one global min-heap keyed
/// by `(time, class, insertion seq)`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u8, u64)>>,
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, time_ps: u64, class: u8) -> u64 {
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((time_ps, class, id)));
        id
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((t, _, id))| (t, id))
    }

    fn peek(&self) -> Option<(u64, u8, u64)> {
        self.heap.peek().map(|&Reverse(head)| head)
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Push,
    Pop,
    /// Pop only a head at the last popped instant in the drawn class —
    /// the shape of the network's batch drain.
    PopIf,
}

/// One scripted operation: its kind, the push offset `dt` from the last
/// popped instant, and the class pushed or accepted.
type Op = (Kind, u64, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let horizon = WHEEL_HORIZON.as_ps();
    let dt = prop_oneof![
        Just(0u64),            // same instant (class ties)
        0u64..8_000_000,       // same wheel slot
        0u64..50_000_000,      // nearby wheel buckets
        0u64..horizon * 5,     // spans the whole wheel + far heap
        horizon..horizon * 10, // strictly past the horizon
    ];
    prop::collection::vec(
        (
            prop_oneof![
                Just(Kind::Pop),
                Just(Kind::PopIf),
                Just(Kind::Push),
                Just(Kind::Push)
            ],
            dt,
            0u8..5,
        ),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn wheel_pops_in_reference_heap_order(script in ops()) {
        let mut wheel: EventQueue<(u64, u8)> = EventQueue::new();
        let mut model = HeapModel::default();
        let mut now = 0u64;

        for &(kind, dt, class) in &script {
            match kind {
                Kind::Push => {
                    let t = now.saturating_add(dt);
                    let id = model.push(t, class);
                    wheel.push(Time(t), class, (id, class));
                }
                Kind::Pop => {
                    let got = wheel.pop().map(|(t, (id, _))| (t.as_ps(), id));
                    prop_assert_eq!(got, model.pop(), "mid-script pop diverged at now={now}");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                Kind::PopIf => {
                    let got = wheel
                        .pop_if(|t, &(_, c)| t.as_ps() == now && c == class)
                        .map(|(t, (id, _))| (t.as_ps(), id));
                    let want = match model.peek() {
                        Some((t, c, _)) if t == now && c == class => model.pop(),
                        _ => None,
                    };
                    prop_assert_eq!(got, want, "pop_if diverged at now={now}");
                }
            }
            prop_assert_eq!(wheel.len(), model.heap.len());

            let head = model.peek();
            prop_assert_eq!(wheel.peek_time().map(|t| t.as_ps()), head.map(|(t, _, _)| t));
            let cur = wheel.peek_cur().map(|(t, &(id, _))| (t.as_ps(), id));
            prop_assert!(
                cur.is_none() || cur == head.map(|(t, _, id)| (t, id)),
                "peek_cur {cur:?} is not the head {head:?}"
            );
            if head.is_some_and(|(t, _, _)| t == now) {
                prop_assert!(cur.is_some(), "an event at now={now} is outside the drain heap");
            }
        }

        // Drain both to the end: every remaining event must agree too.
        loop {
            let got = wheel.pop().map(|(t, (id, _))| (t.as_ps(), id));
            let want = model.pop();
            prop_assert_eq!(got, want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}
