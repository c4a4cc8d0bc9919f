//! Heap allocations of the event core, the packet table and the routing
//! table, counted.
//!
//! A counting global allocator (one counter per thread, so tests
//! running side by side do not see each other's allocations) checks
//! claims on a small Internet2 UDP workload, on a closed TCP loop and on
//! the routing pass of the full RocketFuel map:
//!
//! * hop tracing costs no allocation per packet: a FIFO leg at
//!   [`TraceLevel::Hops`] allocates at most a constant more than the
//!   same leg at [`TraceLevel::Delivery`] (the hop arena grows once per
//!   registered source);
//! * turning a finished leg into a [`RecordedSchedule`] moves its packet
//!   table and allocates nothing per packet;
//! * an Omniscient replay allocates at most a constant more than an
//!   LSTF replay of the same schedule: its per-hop scheduling times live
//!   in one table that every port shares, not in the packets;
//! * a replay leg, classic or deadline, keeps no hop arena: its heap
//!   high-water mark on a hop-traced build is no higher than on a
//!   delivery-traced one;
//! * the fairness leg's heap high-water mark follows the packets in
//!   flight, not the packets delivered: it keeps no packet table;
//! * a network stopped mid-run frees every packet it still holds;
//! * the routing table of the full RocketFuel map stores the rows its
//!   83 Dijkstra runs compute, not a dense `n × n` table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use ups::core::objectives::Scheme;
use ups::core::replay::{record_original, replay_schedule, ReplayMode, ReplayReport};
use ups::core::workload::WorkloadKind;
use ups::core::{
    record_deadline_original, replay_deadline, run_fairness, DeadlineMode, RecordedSchedule,
};
use ups::net::{FlowId, LinkPolicy, TraceLevel};
use ups::sched::SchedKind;
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::internet2::{build, I2Config};
use ups::topo::rocketfuel::{self, RocketFuelConfig};
use ups::topo::simple::dumbbell;
use ups::topo::Topology;
use ups::transport::flow::FlowDesc;
use ups::transport::header::{HeaderStamper, PrioPolicy, SlackPolicy};
use ups::transport::udp::inject_udp_flows;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes requested by every `alloc`, `alloc_zeroed` and `realloc`.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread, and the
    // high-water mark of that balance.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread, the bytes they request, and the
/// live bytes they leave.
struct Counting;

fn count_one(size: usize) {
    // `try_with`: the allocator also serves threads whose locals are
    // being torn down; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

fn count_bytes(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        count_bytes(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        count_bytes(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        count_bytes(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
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

/// Run `f` and return its result with the bytes its allocations
/// requested, in total.
fn requested_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Run `f` and return its result with the most bytes it held live at
/// once, on top of what was live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
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
    WorkloadKind::Web.build(&i2(TraceLevel::Off), 0.6, Dur::from_millis(5), 2)
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
fn an_omniscient_replay_allocates_a_constant_more_than_lstf() {
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
        omniscient <= lstf + CONSTANT,
        "Omniscient replay made {omniscient} allocations, LSTF {lstf}, for {packets} packets"
    );
}

/// The heap high-water mark of `replay` on a fresh Internet2 build at
/// `level`, after checking that the leg kept one row per packet of
/// `schedule` and no hop arena.
fn replay_leg_peak(
    level: TraceLevel,
    schedule: &RecordedSchedule,
    replay: impl FnOnce(&mut Topology) -> ReplayReport,
) -> i64 {
    let mut topo = i2(level);
    let (report, peak) = peak_bytes(|| replay(&mut topo));
    let tel = &topo.net.telemetry;
    assert_eq!(
        (report.total, tel.packets.len()),
        (schedule.len(), schedule.len())
    );
    assert!(
        tel.hops.is_empty() && tel.hops.capacity() == 0,
        "a replay leg laid out a hop arena of {} entries",
        tel.hops.capacity()
    );
    peak
}

/// Scoring reads each packet's delivery time only, so a replay leg
/// traces deliveries whatever level its build was made at: on a
/// hop-traced build it peaks no higher than on a delivery-traced one.
/// A hop arena would add 16 bytes per hop (~220 kB here).
#[test]
fn a_replay_leg_keeps_no_hop_arena() {
    let mut orig = i2(TraceLevel::Hops);
    let schedule = record_original(&mut orig, &workload(), SchedKind::Random, 2, 1500);
    drop(orig);
    let mut orig = i2(TraceLevel::Hops);
    let deadline_flows = WorkloadKind::DeadlineMix.build(&orig, 0.6, Dur::from_millis(5), 2);
    let tagged = record_deadline_original(&mut orig, &deadline_flows, 1500);
    drop(orig);
    let check = |label: &str,
                 schedule: &RecordedSchedule,
                 replay: &dyn Fn(&mut Topology) -> ReplayReport| {
        let traced = replay_leg_peak(TraceLevel::Hops, schedule, replay);
        let untraced = replay_leg_peak(TraceLevel::Delivery, schedule, replay);
        let hops: usize = schedule.iter().map(|p| p.rec.path.hops()).sum();
        assert!(
            traced <= untraced,
            "{label}: peak heap {traced} B on a hop-traced build, {untraced} B on a \
             delivery-traced one ({hops} hops, {} B of arena)",
            16 * hops
        );
    };
    check("LSTF replay", &schedule, &|t| {
        replay_schedule(t, &schedule, ReplayMode::lstf())
    });
    check("deadline LSTF replay", &tagged.schedule, &|t| {
        replay_deadline(t, &tagged, DeadlineMode::Lstf)
    });
}

/// An arrival event holds its packet without dropping it (see
/// `ups_net::network`), so a network dropped mid-run frees the packets
/// of its pending arrivals itself: a leg stopped with packets on the
/// wire gives back every byte it allocated.
#[test]
fn a_network_stopped_mid_run_frees_its_packets() {
    let flows = workload();
    let base = LIVE.with(Cell::get);
    let mut topo = i2(TraceLevel::Off);
    let routes = Arc::clone(&topo.routes);
    let mut stamper = HeaderStamper::new(SlackPolicy::None, PrioPolicy::None);
    inject_udp_flows(&mut topo.net, &routes, &flows, 1500, &mut stamper);
    topo.net.run_until(Time::from_micros(2_500));
    let in_flight = topo.net.packets_in_flight();
    assert!(in_flight > 100, "only {in_flight} packets in flight");
    drop((topo, routes, stamper));
    let leaked = LIVE.with(Cell::get) - base;
    assert_eq!(
        leaked, 0,
        "{leaked} bytes outlived a network stopped with {in_flight} packets in flight"
    );
}

/// The heap high-water mark of a FIFO fairness leg over `horizon`: four
/// long-lived flows across a 1 Gbps dumbbell bottleneck, 1 ms windows,
/// 50 kB port buffers, so Reno keeps the packets in flight bounded. The
/// build is at [`TraceLevel::Delivery`], as Figure 4's is.
fn fairness_leg_peak(horizon: Time) -> i64 {
    let topo = dumbbell(
        4,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(20),
        TraceLevel::Delivery,
    );
    let flows: Vec<FlowDesc> = (0..4)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: topo.hosts[i as usize],
            dst: topo.hosts[4 + i as usize],
            pkts: u64::MAX / 2,
            start: Time::from_micros(11 * i),
            deadline: None,
        })
        .collect();
    let (points, peak) = peak_bytes(|| {
        run_fairness(
            topo,
            &flows,
            &Scheme::Fifo,
            Dur::from_millis(1),
            horizon,
            Some(50_000),
        )
    });
    let delivered: u64 = points.iter().map(|p| p.total_bytes).sum();
    assert!(
        delivered > 50_000 * horizon.as_ps() / Time::from_millis(1).as_ps(),
        "the bottleneck carried only {delivered} bytes in {horizon}"
    );
    peak
}

#[test]
fn fairness_leg_memory_tracks_packets_in_flight_not_delivered() {
    // Over 400 ms the bottleneck delivers ~33k data packets and as
    // many ACKs: a packet table would hold ~4.7 MB, more than the
    // ~4.2 MB of bucket storage the event wheel keeps. In flight are a
    // few dozen packets.
    let h = fairness_leg_peak(Time::from_millis(400));
    let h2 = fairness_leg_peak(Time::from_millis(800));
    assert!(h > 0);
    assert!(
        h2 * 4 <= h * 5,
        "peak heap {h2} B over 2H vs {h} B over H: the leg keeps state per delivered packet"
    );
}

/// Routing the full RocketFuel map (1,743 nodes) runs 83 Dijkstras, one
/// per core router, over the 83 core routers only, and keeps 83 rows of
/// 83 entries: ~80 KB of offsets, next hops and pop orders. The rest is
/// the per-node and per-link arrays and the link graph the pass builds
/// and drops (~0.5 MB requested in all). One row per root over all 1,743
/// nodes requested 1.6 MB; a dense table over every `(node,
/// destination)` pair would need ~24 MB.
#[test]
fn routing_the_full_rocketfuel_map_allocates_under_half_a_mib() {
    let mut topo = rocketfuel::build(&RocketFuelConfig::full(), TraceLevel::Off);
    assert_eq!(topo.net.nodes.len(), 1743);
    let (_routes, bytes) = requested_bytes(|| topo.net.compute_routes());
    assert!(
        bytes <= 512 << 10,
        "compute_routes requested {bytes} bytes on RocketFuel-full"
    );
}
