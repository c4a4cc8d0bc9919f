//! Layer probes: single layers timed in isolation, after the traced
//! pass, on the workload's own inputs and at the sizes the pass
//! observed.

use crate::workloads::{fairness_topo, Plan, FAIRNESS_HORIZON};
use std::hint::black_box;
use std::time::Instant;
use ups_core::WorkloadKind;
use ups_net::testutil::queued_full;
use ups_net::{LinkId, Telemetry, TraceLevel};
use ups_sched::SchedKind;
use ups_sim::queue::EventQueue;
use ups_sim::rng::DetRng;
use ups_sim::{Dur, Time};
use ups_sweep::SimScale;
use ups_topo::Topology;
use ups_transport::{inject_udp_flows, FlowDesc, HeaderStamper};

/// The scheduler kinds the four workloads install, each with the
/// per-layer metric its probe reports.
pub const SCHED_KINDS: [(&str, SchedKind); 5] = [
    ("sched.fifo_ns_per_op", SchedKind::Fifo),
    ("sched.random_ns_per_op", SchedKind::Random),
    ("sched.lstf_ns_per_op", SchedKind::Lstf),
    ("sched.edf_ns_per_op", SchedKind::Edf),
    ("sched.prio_ns_per_op", SchedKind::Priority),
];

/// A fresh build of the workload's topology, and open-loop flows to
/// inject on it: the first cell's own flows, or — for the closed-loop
/// workload, whose flows have no size — web flows at 70% over its
/// horizon.
fn topo_and_flows(plan: &Plan, sim: &SimScale) -> (Topology, Vec<FlowDesc>) {
    match plan {
        Plan::Sweep { scenario, spec } => {
            let coord = &spec.cells[0];
            let topo = coord.topo.build(sim);
            let flows = scenario
                .workload
                .build(&topo, coord.util, sim.horizon, spec.base_seed);
            (topo, flows)
        }
        Plan::Fairness { spec } => {
            let topo = fairness_topo(sim, TraceLevel::Hops);
            let horizon = Dur(FAIRNESS_HORIZON.as_ps());
            let flows = WorkloadKind::Web.build(&topo, 0.7, horizon, spec.base_seed);
            (topo, flows)
        }
    }
}

/// What the forwarding-only leg measured.
pub struct Forwarding {
    pub compute_routes_s: f64,
    pub inject_s: f64,
    /// Events pending once every packet is injected: open-loop legs
    /// start with their whole input on the event wheel.
    pub pending_events: u64,
    pub run_s: f64,
    pub events: u64,
}

/// One more route freeze on the built topology, then a forwarding-only
/// leg: tracing off, FIFO everywhere, inject, run to completion — the
/// event loop with no recording, no scheduler and no scoring on it.
pub fn forwarding(plan: &Plan, sim: &SimScale) -> Forwarding {
    let (mut topo, flows) = topo_and_flows(plan, sim);
    let t = Instant::now();
    black_box(topo.net.compute_routes());
    let compute_routes_s = t.elapsed().as_secs_f64();

    topo.net.telemetry = Telemetry::new(TraceLevel::Off);
    let routes = std::sync::Arc::clone(&topo.routes);
    let t = Instant::now();
    inject_udp_flows(
        &mut topo.net,
        &routes,
        &flows,
        1500,
        &mut HeaderStamper::zero(),
    );
    let inject_s = t.elapsed().as_secs_f64();
    let pending_events = topo.net.pending_events() as u64;
    let t = Instant::now();
    topo.net.run_to_completion();
    let run_s = t.elapsed().as_secs_f64();
    Forwarding {
        compute_routes_s,
        inject_s,
        pending_events,
        run_s,
        events: topo.net.telemetry.counters.events,
    }
}

/// Hold-model cost of the event wheel, in ns per pop+push pair, at a
/// steady population of `population` events spread over `span`: pop
/// the earliest event, push one a few transmission times later.
pub fn wheel_ns_per_event(population: u64, span: Dur, seed: u64) -> f64 {
    const HOLDS: u64 = 2_000_000;
    /// Up to two 1500 B transmissions at 1 Gbps.
    const MAX_STEP_PS: u64 = 24_000_000;
    let mut rng = DetRng::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..population.max(1) {
        queue.push(Time(rng.gen_range(span.as_ps().max(1))), 0, i);
    }
    let t = Instant::now();
    for _ in 0..HOLDS {
        let (at, ev) = queue.pop().expect("the population is held constant");
        queue.push(at + Dur(rng.gen_range(MAX_STEP_PS)), 0, ev);
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(queue.len());
    ns / HOLDS as f64
}

/// Cost of one scheduler operation (an enqueue or a dequeue), in ns,
/// at a steady queue depth of `depth` packets with random slack and
/// priority headers. Entries are recycled, so the loop allocates
/// nothing.
pub fn sched_ns_per_op(kind: SchedKind, depth: u64, seed: u64) -> f64 {
    const PAIRS: u64 = 400_000;
    const KEY_RANGE: u64 = 1_000_000_000;
    let mut rng = DetRng::new(seed);
    let mut sched = kind.build(LinkId(0), seed);
    let mut seq = 0;
    let mut fresh = |rng: &mut DetRng| {
        seq += 1;
        let key = rng.gen_range(KEY_RANGE) as i64;
        queued_full(seq % 64, seq, key, key, seq)
    };
    for _ in 0..depth.max(1) {
        sched.enqueue(fresh(&mut rng));
    }
    let mut arrival = depth.max(1);
    let t = Instant::now();
    for _ in 0..PAIRS {
        let mut q = sched.dequeue().expect("the depth is held constant");
        arrival += 1;
        let key = rng.gen_range(KEY_RANGE) as i64;
        q.pkt.hdr.slack = key;
        q.pkt.hdr.prio = key;
        q.enq_time = Time::from_nanos(arrival);
        q.arrival_seq = arrival;
        sched.enqueue(q);
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(sched.len());
    ns / (2 * PAIRS) as f64
}
