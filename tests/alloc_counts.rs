//! Heap allocations of the event core and the packet table, counted.
//!
//! A counting global allocator (one counter per thread, so tests
//! running side by side do not see each other's allocations) checks
//! three claims on a small Internet2 UDP workload:
//!
//! * hop tracing costs no allocation per packet: a FIFO leg at
//!   [`TraceLevel::Hops`] allocates at most a constant more than the
//!   same leg at [`TraceLevel::Delivery`] (the hop arena grows once per
//!   registered source);
//! * turning a finished leg into a [`RecordedSchedule`] moves its packet
//!   table and allocates nothing per packet;
//! * an Omniscient replay allocates at most one block per packet more
//!   than an LSTF replay of the same schedule: the `Arc<[Time]>` of
//!   per-hop scheduling times in its header.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use ups::core::replay::{record_original, replay_schedule, ReplayMode};
use ups::core::workload::default_udp_workload;
use ups::core::RecordedSchedule;
use ups::net::{LinkPolicy, TraceLevel};
use ups::sched::SchedKind;
use ups::sim::Dur;
use ups::topo::internet2::{build, I2Config};
use ups::topo::Topology;
use ups::transport::flow::FlowDesc;
use ups::transport::header::{HeaderStamper, PrioPolicy, SlackPolicy};
use ups::transport::udp::inject_udp_flows;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: the allocator also serves threads whose locals are
    // being torn down; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A bound that does not grow with the packet count: growing the hop
/// arena, the one `Vec` a traced leg has beyond an untraced one, and
/// scheduler bookkeeping that differs per discipline, not per packet.
const CONSTANT: u64 = 8;

fn i2(level: TraceLevel) -> Topology {
    build(
        &I2Config {
            edges_per_core: 4,
            ..Default::default()
        },
        level,
    )
}

fn workload() -> Vec<FlowDesc> {
    default_udp_workload(&i2(TraceLevel::Off), 0.6, Dur::from_millis(5), 2)
}

/// A FIFO record leg of `flows` at `level`, run to completion on an
/// unbounded-buffer build; returns the finished topology and the
/// allocations the leg made (the build is not counted).
fn fifo_leg(level: TraceLevel, flows: &[FlowDesc]) -> (Topology, u64) {
    let mut topo = i2(level);
    let routes = Arc::clone(&topo.routes);
    let ((), allocs) = counted(|| {
        topo.net.configure_links(|l| {
            LinkPolicy::keep()
                .buffer(None)
                .scheduler(SchedKind::Fifo.build(l.id, 0))
        });
        let mut stamper = HeaderStamper::new(SlackPolicy::None, PrioPolicy::None);
        inject_udp_flows(&mut topo.net, &routes, flows, 1500, &mut stamper);
        topo.net.run_to_completion();
    });
    (topo, allocs)
}

#[test]
fn hop_tracing_allocates_a_constant_not_per_packet() {
    let flows = workload();
    let (delivery, untraced) = fifo_leg(TraceLevel::Delivery, &flows);
    let (hops, traced) = fifo_leg(TraceLevel::Hops, &flows);
    let packets = hops.net.telemetry.packets.len() as u64;
    assert_eq!(packets, delivery.net.telemetry.packets.len() as u64);
    assert!(
        packets > 1_000,
        "workload too small to tell: {packets} packets"
    );
    assert!(
        traced <= untraced + CONSTANT,
        "a traced leg made {traced} allocations, an untraced one {untraced}, \
         for {packets} packets"
    );
}

#[test]
fn recording_a_schedule_moves_the_table() {
    let (mut topo, _) = fifo_leg(TraceLevel::Hops, &workload());
    let packets = topo.net.telemetry.packets.len();
    let (schedule, allocs) = counted(|| RecordedSchedule::from_telemetry(&mut topo.net.telemetry));
    assert_eq!(schedule.len(), packets);
    assert!(
        allocs <= CONSTANT,
        "{allocs} allocations to record {packets} packets"
    );
}

#[test]
fn omniscient_headers_cost_one_allocation_per_packet() {
    let flows = workload();
    let mut orig = i2(TraceLevel::Hops);
    let schedule = record_original(&mut orig, &flows, SchedKind::Random, 2, 1500);
    drop(orig);
    let replay = |mode: ReplayMode| {
        let mut topo = i2(TraceLevel::Hops);
        let (_, allocs) = counted(|| replay_schedule(&mut topo, &schedule, mode));
        allocs
    };
    let lstf = replay(ReplayMode::lstf());
    let omniscient = replay(ReplayMode::Omniscient);
    let packets = schedule.len() as u64;
    assert!(
        omniscient <= lstf + packets + CONSTANT,
        "Omniscient replay made {omniscient} allocations, LSTF {lstf}, for {packets} packets"
    );
}
