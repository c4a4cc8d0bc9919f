//! `Topology::rewired()` is what the replay leg of a cell-run takes in
//! place of a second `TopoKind::build`: it must equal that second build
//! in everything a run can observe, share the source's routing table,
//! and carry none of the state the record leg left behind.

use std::sync::Arc;
use ups::core::replay::{record_original, replay_schedule, ReplayMode};
use ups::core::workload::WorkloadKind;
use ups::net::{ChaosPolicy, LinkStats, Network};
use ups::sched::SchedKind;
use ups::sim::{Dur, Time};
use ups::sweep::{SimScale, TopoKind};
use ups::topo::internet2::I2Variant;
use ups::topo::Topology;

fn tiny() -> SimScale {
    SimScale {
        edges_per_core: 2,
        horizon: Dur::from_millis(1),
        fattree_k: 4,
        label: "tiny",
    }
}

const KINDS: [TopoKind; 5] = [
    TopoKind::I2(I2Variant::Default1g10g),
    TopoKind::RocketFuel,
    TopoKind::FatTree,
    TopoKind::FatTreeK(4),
    TopoKind::RocketFuelFull,
];

fn assert_same_wiring(copy: &Topology, fresh: &Topology) {
    assert_eq!(copy.name, fresh.name);
    assert_eq!(copy.hosts, fresh.hosts);
    assert_eq!(copy.core_links, fresh.core_links);
    assert_eq!(copy.access_links, fresh.access_links);
    assert_eq!(copy.host_links, fresh.host_links);
    assert_eq!(copy.net.hosts(), fresh.net.hosts());
    assert_eq!(copy.net.nodes.len(), fresh.net.nodes.len());
    for (a, b) in copy.net.nodes.iter().zip(&fresh.net.nodes) {
        assert_eq!(
            (a.id, &a.name, a.kind, &a.out_links),
            (b.id, &b.name, b.kind, &b.out_links)
        );
    }
    assert_eq!(copy.net.links.len(), fresh.net.links.len());
    for (a, b) in copy.net.links.iter().zip(&fresh.net.links) {
        assert_eq!(
            (a.id, a.from, a.to, a.bw, a.prop, a.buffer, a.preemptive),
            (b.id, b.from, b.to, b.bw, b.prop, b.buffer, b.preemptive)
        );
        assert_eq!(a.scheduler_name(), b.scheduler_name());
        assert_eq!(a.scheduler_name(), "FIFO");
    }
    assert_eq!(copy.net.telemetry.level, fresh.net.telemetry.level);
}

fn assert_pristine(net: &Network) {
    assert_eq!(net.pending_events(), 0);
    assert_eq!(net.packets_in_flight(), 0);
    assert_eq!(net.peak_packets_in_flight(), 0);
    assert_eq!(net.now(), Time::ZERO);
    let zero = format!("{:?}", LinkStats::default());
    for l in &net.links {
        assert_eq!(format!("{:?}", l.stats), zero, "link {:?}", l.id);
        assert!(!l.chaos_installed() && !l.is_busy() && l.queue_len() == 0);
    }
    let tel = &net.telemetry;
    assert!(tel.packets.is_empty());
    let c = &tel.counters;
    assert_eq!(
        (
            c.injected,
            c.delivered,
            c.dropped,
            c.bytes_delivered,
            c.events
        ),
        (0, 0, 0, 0, 0)
    );
}

#[test]
fn rewired_equals_a_second_build_after_a_record_leg() {
    let sim = tiny();
    for kind in KINDS {
        let mut source = kind.build(&sim);
        let flows = WorkloadKind::Web.build(&source, 0.7, sim.horizon, 3);
        let schedule = record_original(&mut source, &flows, SchedKind::Random, 3, 1500);
        // The source really was used: schedulers swapped, ports busy.
        assert!(source.net.telemetry.counters.injected > 0, "{kind:?}");
        assert!(source.net.links.iter().any(|l| l.stats.enqueued > 0));
        assert!(source
            .net
            .links
            .iter()
            .all(|l| l.scheduler_name() != "FIFO"));

        let mut copy = source.rewired();
        let mut fresh = kind.build(&sim);
        assert_same_wiring(&copy, &fresh);
        assert_pristine(&copy.net);
        assert!(Arc::ptr_eq(&copy.routes, &source.routes));
        assert!(Arc::ptr_eq(copy.net.routing(), &source.routes));
        drop(source);

        // And it behaves as the second build does, event for event.
        let on_copy = replay_schedule(&mut copy, &schedule, ReplayMode::lstf());
        let on_fresh = replay_schedule(&mut fresh, &schedule, ReplayMode::lstf());
        assert_eq!(on_copy.lateness, on_fresh.lateness, "{kind:?}");
        assert_eq!(
            copy.net.telemetry.counters.events,
            fresh.net.telemetry.counters.events
        );
    }
}

#[test]
fn chaos_on_the_source_does_not_leak_into_the_copy() {
    let sim = tiny();
    let kind = KINDS[0];
    let mut source = kind.build(&sim);
    let policy = ChaosPolicy::new(9)
        .drop_prob(0.5)
        .fail_periodic(Dur::from_micros(100), Dur::from_micros(40));
    source
        .net
        .install_chaos(Time::from_micros(2_000), |_| Some(policy.clone()));
    assert!(
        source.net.pending_events() > 0,
        "failure windows are queued"
    );
    assert!(source.net.links.iter().all(|l| l.chaos_installed()));

    let mut copy = source.rewired();
    assert_same_wiring(&copy, &kind.build(&sim));
    assert_pristine(&copy.net);

    // A run on the copy loses nothing, and pops exactly the events a
    // fresh build pops.
    let mut fresh = kind.build(&sim);
    let flows = WorkloadKind::Web.build(&fresh, 0.7, sim.horizon, 5);
    let a = record_original(&mut copy, &flows, SchedKind::Fifo, 5, 1500);
    let b = record_original(&mut fresh, &flows, SchedKind::Fifo, 5, 1500);
    let outs = |s: &ups::core::RecordedSchedule| s.iter().map(|p| p.o()).collect::<Vec<_>>();
    assert_eq!(outs(&a), outs(&b));
    assert_eq!(copy.net.telemetry.counters.dropped, 0);
    assert_eq!(copy.net.chaos_totals().drops, 0);
    assert_eq!(
        copy.net.telemetry.counters.events,
        fresh.net.telemetry.counters.events
    );
}
