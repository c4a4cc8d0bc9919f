//! Cross-crate integration tests of the full replay pipeline:
//! topology → workload → original schedule → candidate-UPS replay.

use ups::core::replay::{record_original, replay_schedule, replay_schedule_lossy, ReplayMode};
use ups::core::workload::WorkloadKind;
use ups::net::{ChaosPolicy, TraceLevel};
use ups::sched::SchedKind;
use ups::sim::{Dur, Time};
use ups::topo::internet2::{build, I2Config, I2Variant};
use ups::topo::Topology;

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
