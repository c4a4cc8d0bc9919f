//! Cross-crate integration tests of the full replay pipeline:
//! topology → workload → original schedule → candidate-UPS replay.

use std::sync::Arc;
use ups::core::replay::{record_original, replay_schedule, replay_schedule_lossy, ReplayMode};
use ups::core::workload::WorkloadKind;
use ups::net::{ChaosPolicy, LinkPolicy, PacketRecord, Telemetry, TraceLevel};
use ups::sched::SchedKind;
use ups::sim::{Dur, Time};
use ups::topo::internet2::{build, I2Config, I2Variant};
use ups::topo::Topology;
use ups::transport::flow::FlowDesc;
use ups::transport::header::{HeaderStamper, PrioPolicy, SlackPolicy};
use ups::transport::udp::inject_udp_flows;

fn i2(edges: usize) -> impl Fn() -> Topology {
    move || {
        build(
            &I2Config {
                variant: I2Variant::Default1g10g,
                edges_per_core: edges,
                ..Default::default()
            },
            TraceLevel::Hops,
        )
    }
}

#[test]
fn lstf_replays_every_original_well_on_internet2() {
    let factory = i2(4);
    let topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.6, Dur::from_millis(5), 2);
    drop(topo);
    for original in [
        SchedKind::Fifo,
        SchedKind::Lifo,
        SchedKind::Random,
        SchedKind::Fq,
        SchedKind::Sjf,
        SchedKind::FifoPlus,
        SchedKind::FqFifoPlusMix,
    ] {
        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, original, 2, 1500);
        drop(orig);
        let mut rep_topo = factory();
        let report = replay_schedule(&mut rep_topo, &schedule, ReplayMode::lstf());
        assert_eq!(report.total, schedule.len());
        assert!(
            report.frac_overdue() < 0.10,
            "{}: {:.3} overdue",
            original.label(),
            report.frac_overdue()
        );
        assert!(
            report.frac_overdue_gt_t() <= report.frac_overdue(),
            "inconsistent fractions"
        );
    }
}

#[test]
fn omniscient_replay_is_always_perfect() {
    // Appendix B, end to end: every original scheduler, zero overdue.
    let factory = i2(3);
    let topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.8, Dur::from_millis(5), 5);
    drop(topo);
    for original in [SchedKind::Random, SchedKind::Lifo, SchedKind::Sjf] {
        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, original, 5, 1500);
        drop(orig);
        let mut rep_topo = factory();
        let report = replay_schedule(&mut rep_topo, &schedule, ReplayMode::Omniscient);
        assert!(
            report.perfect(),
            "{}: omniscient missed {} packets (worst {}ps late)",
            original.label(),
            report.overdue,
            report.max_lateness()
        );
    }
}

#[test]
fn edf_and_lstf_are_equivalent_network_wide() {
    // Appendix E at integration scale: identical per-packet lateness.
    let factory = i2(3);
    let topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.7, Dur::from_millis(5), 9);
    drop(topo);
    let mut orig = factory();
    let schedule = record_original(&mut orig, &flows, SchedKind::Random, 9, 1500);
    drop(orig);
    let mut t_lstf = factory();
    let lstf = replay_schedule(&mut t_lstf, &schedule, ReplayMode::lstf());
    let mut t_edf = factory();
    let edf = replay_schedule(&mut t_edf, &schedule, ReplayMode::Edf);
    assert_eq!(lstf.lateness, edf.lateness);
}

#[test]
fn replay_is_deterministic() {
    let factory = i2(3);
    let run = || {
        let topo = factory();
        let flows = WorkloadKind::Web.build(&topo, 0.7, Dur::from_millis(4), 4);
        drop(topo);
        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, SchedKind::Random, 4, 1500);
        drop(orig);
        let mut rep = factory();
        replay_schedule(&mut rep, &schedule, ReplayMode::lstf()).lateness
    };
    assert_eq!(run(), run());
}

#[test]
fn priority_replay_loses_to_lstf_at_scale() {
    // §2.3(7): the most intuitive static priority (o(p)) is much worse.
    let factory = i2(4);
    let topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.7, Dur::from_millis(5), 7);
    drop(topo);
    let mut orig = factory();
    let schedule = record_original(&mut orig, &flows, SchedKind::Random, 7, 1500);
    drop(orig);
    let mut t1 = factory();
    let lstf = replay_schedule(&mut t1, &schedule, ReplayMode::lstf());
    let mut t2 = factory();
    let prio = replay_schedule(&mut t2, &schedule, ReplayMode::Priority);
    assert!(
        prio.frac_overdue() > 3.0 * lstf.frac_overdue(),
        "priority {:.4} vs lstf {:.4}",
        prio.frac_overdue(),
        lstf.frac_overdue()
    );
}

#[test]
fn slacks_are_nonnegative_and_bounded_by_delay() {
    let factory = i2(3);
    let mut topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.7, Dur::from_millis(4), 3);
    let schedule = record_original(&mut topo, &flows, SchedKind::Random, 3, 1500);
    for p in schedule.iter() {
        let slack = p.slack();
        assert!(
            slack >= 0,
            "negative slack for {:?}/{}",
            p.rec.flow,
            p.rec.seq
        );
        let delay = p.o().signed_since(p.i());
        assert!(slack <= delay, "slack exceeds end-to-end delay");
        // On a drop-free run slack equals total queueing delay.
        assert_eq!(slack, p.qdelay().as_i64(), "slack != queueing delay");
    }
}

#[test]
fn lossy_replay_fidelity_degrades_monotonically_with_drop_rate() {
    // The ISSUE 8 degradation curve at unit-test scale: record once,
    // replay the same schedule over increasingly unreliable networks.
    let factory = i2(3);
    let topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.7, Dur::from_millis(4), 4);
    drop(topo);
    let mut orig = factory();
    let schedule = record_original(&mut orig, &flows, SchedKind::Random, 4, 1500);
    drop(orig);

    let mut strict_topo = factory();
    let strict = replay_schedule(&mut strict_topo, &schedule, ReplayMode::lstf());
    drop(strict_topo);

    let lossy = |p: f64| {
        let mut t = factory();
        if p > 0.0 {
            t.net.install_chaos(Time::from_millis(40), |_| {
                Some(ChaosPolicy::new(0xC11A05).drop_prob(p))
            });
        }
        let r = replay_schedule_lossy(&mut t, &schedule, ReplayMode::lstf());
        assert_eq!(t.net.packets_in_flight(), 0, "packet leak at p={p}");
        r
    };

    // 0% loss: the lossy scorer is exactly the strict path.
    let r0 = lossy(0.0);
    assert_eq!(r0.lost, 0);
    assert_eq!(r0.overdue, strict.overdue);
    assert_eq!(r0.lateness, strict.lateness);
    assert_eq!(r0.fidelity(), 1.0 - strict.frac_overdue());

    // An installed-but-inert policy (drop rate 0, no windows) must not
    // change a single delivery either — chaos off means byte-identical,
    // not merely similar.
    let mut inert_topo = factory();
    inert_topo
        .net
        .install_chaos(Time::from_millis(40), |_| Some(ChaosPolicy::new(1)));
    let inert = replay_schedule_lossy(&mut inert_topo, &schedule, ReplayMode::lstf());
    assert_eq!(inert.lost, 0);
    assert_eq!(
        inert.lateness, strict.lateness,
        "inert chaos changed the replay"
    );

    // 0.1% and 1%: losses appear, scale with the rate, and fidelity
    // degrades monotonically while the packet population stays fixed.
    let r1 = lossy(0.001);
    let r2 = lossy(0.01);
    assert_eq!(r1.total, strict.total);
    assert_eq!(r2.total, strict.total);
    assert!(r1.lost > 0, "0.1% drew no losses");
    assert!(r2.lost > r1.lost, "losses must grow with the drop rate");
    assert!(
        r0.fidelity() >= r1.fidelity() && r1.fidelity() > r2.fidelity(),
        "fidelity not monotone: {} / {} / {}",
        r0.fidelity(),
        r1.fidelity(),
        r2.fidelity()
    );
    // Lost packets are excluded from the lateness distribution.
    assert_eq!(r2.lateness.len(), r2.total - r2.lost);
}

#[test]
fn utilization_trend_has_more_slack_at_higher_load() {
    // The paper's explanation of the utilization effect: higher load =>
    // more queueing in the original => more slack room.
    let factory = i2(4);
    let mut slacks = Vec::new();
    for util in [0.2, 0.5, 0.8] {
        let topo = factory();
        let flows = WorkloadKind::Web.build(&topo, util, Dur::from_millis(5), 1);
        drop(topo);
        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, SchedKind::Random, 1, 1500);
        slacks.push(schedule.mean_slack());
    }
    // At small scale individual elephants add variance, so assert the
    // trend loosely: low-load slack is a small fraction of high-load.
    assert!(
        slacks[0] * 2.0 < slacks[2],
        "mean slack not growing with load: {slacks:?}"
    );
}

/// A hop-traced leg of `flows` on `topo`: `kind` on every unbounded
/// port, preemptive ports when asked, headers from `slack` (and the
/// flow-size priority stamp where `kind` needs one, as
/// [`record_original`] stamps it), `chaos` on every link when given.
fn hops_leg(
    mut topo: Topology,
    flows: &[FlowDesc],
    kind: SchedKind,
    slack: SlackPolicy,
    preemptive: bool,
    chaos: Option<ChaosPolicy>,
) -> Topology {
    assert_eq!(topo.net.telemetry.level, TraceLevel::Hops);
    topo.net.configure_links(|l| {
        LinkPolicy::keep()
            .buffer(None)
            .scheduler(kind.build(l.id, 3))
            .preemptive(preemptive)
    });
    if let Some(policy) = chaos {
        topo.net
            .install_chaos(Time::from_millis(40), |_| Some(policy.clone()));
    }
    let prio = if kind.needs_priority_stamp() {
        PrioPolicy::FlowSize
    } else {
        PrioPolicy::None
    };
    let mut stamper = HeaderStamper::new(slack, prio);
    let routes = Arc::clone(&topo.routes);
    inject_udp_flows(&mut topo.net, &routes, flows, 1500, &mut stamper);
    topo.net.run_to_completion();
    topo
}

/// `delivered − created − tmin(size)`: the queueing delay the replay
/// scorer takes from a packet's row alone, in ps.
fn row_delay(r: &PacketRecord, delivered: Time) -> i64 {
    delivered.signed_since(r.created) - r.path.tmin(r.size).as_i64()
}

/// `(row delay, summed hop waits)` of every delivered packet of a
/// hop-traced leg.
fn delays(tel: &Telemetry) -> Vec<(i64, i64)> {
    let rows = tel.packets.iter();
    rows.filter_map(|r| {
        let waits = r.total_qdelay(&tel.hops).as_i64();
        Some((row_delay(r, r.delivered?), waits))
    })
    .collect()
}

/// The replay scorer's queueing delay, `o′(p) − i(p) − tmin(p)`, is the
/// sum of per-hop waits to the picosecond on non-preemptive ports:
/// every original scheduler on contended Internet2 web traffic at 90%
/// load, and the delivered packets of a lossy leg. One picosecond more
/// on the tmin side breaks every packet.
#[test]
fn exit_minus_ingress_minus_tmin_is_the_summed_hop_waits() {
    let factory = i2(4);
    let flows = WorkloadKind::Web.build(&factory(), 0.9, Dur::from_millis(5), 2);
    let check = |label: &str, topo: &Topology| {
        let delays = delays(&topo.net.telemetry);
        // Packets whose row delay, with `bias` ps more on the tmin side,
        // is not their summed hop waits.
        let off = |bias: i64| delays.iter().filter(|&&(row, w)| row - bias != w).count();
        assert_eq!(off(0), 0, "{label}: of {} packets", delays.len());
        assert_eq!(off(1), delays.len(), "{label}");
        let waited = delays.iter().filter(|&&(_, w)| w > 0).count();
        assert!(waited * 4 > delays.len(), "{label}: too little contention");
    };
    for kind in SchedKind::ALL {
        let topo = hops_leg(factory(), &flows, kind, SlackPolicy::None, false, None);
        assert_eq!(topo.net.telemetry.counters.dropped, 0);
        check(kind.label(), &topo);
    }
    let lossy = Some(ChaosPolicy::new(0xC11A05).drop_prob(0.01));
    let topo = hops_leg(
        factory(),
        &flows,
        SchedKind::Random,
        SlackPolicy::None,
        false,
        lossy,
    );
    assert!(topo.net.telemetry.counters.dropped > 0, "no loss drawn");
    check("Random, 1% loss", &topo);
}

/// On a preemptive port a hop trace counts only the wait before a
/// packet's first start; `o′(p) − i(p) − tmin(p)` also counts the time a
/// suspended transmission waits to resume (`Packet::qdelay`'s
/// definition), which is each hop's `tx_end − tx_start − tx_time`.
#[test]
fn on_preemptive_ports_the_row_delay_also_counts_waits_after_a_resume() {
    let factory = i2(4);
    let flows = WorkloadKind::Web.build(&factory(), 0.9, Dur::from_millis(5), 2);
    let slack = SlackPolicy::FlowSizeTimesD {
        d: Dur::from_micros(1),
    };
    let topo = hops_leg(factory(), &flows, SchedKind::Lstf, slack, true, None);
    let preemptions: u64 = topo.net.links.iter().map(|l| l.stats.preemptions).sum();
    assert!(preemptions > 0, "the leg never preempted");
    let tel = &topo.net.telemetry;
    let mut resumed = 0;
    for r in &tel.packets {
        let at = r.delivered.expect("a loss-free leg delivers every packet");
        let suspended: i64 = r
            .hops(&tel.hops)
            .zip(r.path.bw.iter())
            .map(|(h, bw)| (h.tx_end - h.tx_start).as_i64() - bw.tx_time(r.size).as_i64())
            .sum();
        let waits = r.total_qdelay(&tel.hops).as_i64();
        assert_eq!(
            row_delay(r, at),
            waits + suspended,
            "{:?}/{}",
            r.flow,
            r.seq
        );
        resumed += usize::from(suspended > 0);
    }
    assert!(resumed > 0, "no delivered packet was ever suspended");
}
