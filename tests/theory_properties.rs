//! Property-based tests of the paper's theorems on randomized inputs.
//!
//! * Appendix B — the omniscient per-hop-vector UPS replays *any* viable
//!   schedule perfectly;
//! * §2.2 key result 2 — schedules with at most two congestion points
//!   per packet replay perfectly under (preemptive) LSTF; star
//!   topologies guarantee the structural bound, because a packet can
//!   only wait at its source NIC and at the hub egress. The
//!   non-preemptive variant is additionally checked to miss by at most
//!   the blocking slop (one transmission per congestion point);
//! * Appendix E — EDF and LSTF produce identical replays;
//! * determinism — identical seeds give identical schedules.

use proptest::prelude::*;
use ups::core::replay::{record_original, replay_schedule, ReplayMode};
use ups::flowgen::{poisson_workload, PoissonConfig, SizeDist};
use ups::net::TraceLevel;
use ups::sched::SchedKind;
use ups::sim::{Bandwidth, Dur};
use ups::topo::simple::{dumbbell, star};
use ups::topo::Topology;
use ups::transport::FlowDesc;

/// A randomized star workload: every host sends a paced burst to a
/// random other host.
fn star_workload(topo: &Topology, seed: u64, util: f64) -> Vec<FlowDesc> {
    poisson_workload(
        topo,
        &PoissonConfig {
            utilization: util,
            horizon: Dur::from_millis(2),
            seed,
            sizes: SizeDist::BoundedPareto {
                alpha: 1.3,
                min_pkts: 1,
                max_pkts: 60,
            },
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs four simulations
        ..ProptestConfig::default()
    })]

    #[test]
    fn star_schedules_replay_perfectly_under_lstf(
        seed in 0u64..5000,
        n_hosts in 3usize..8,
        util in 0.3f64..0.9,
        original in prop_oneof![
            Just(SchedKind::Fifo),
            Just(SchedKind::Lifo),
            Just(SchedKind::Random),
            Just(SchedKind::Fq),
        ],
    ) {
        let factory = move || star(
            n_hosts,
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Hops,
        );
        let topo = factory();
        let flows = star_workload(&topo, seed, util);
        prop_assume!(!flows.is_empty());
        drop(topo);

        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, original, seed, 1500);
        drop(orig);
        // Structural guarantee of the star: at most 2 congestion points.
        prop_assert!(schedule.max_congestion_points() <= 2);

        // The theorem's UPS is allowed preemption (§2.1 footnote 3):
        // preemptive LSTF must replay ≤2-congestion-point schedules
        // perfectly.
        let mut rep = factory();
        let report = replay_schedule(&mut rep, &schedule, ReplayMode::lstf_preemptive());
        prop_assert!(
            report.perfect(),
            "{} original, seed {}: {} overdue (worst {}ps)",
            original.label(), seed, report.overdue, report.max_lateness()
        );
        // The practical non-preemptive version may miss, but only by the
        // blocking slop: one in-flight packet per congestion point.
        let mut rep_np = factory();
        let report_np = replay_schedule(&mut rep_np, &schedule, ReplayMode::lstf());
        let t = report_np.t.as_i64();
        prop_assert!(
            report_np.max_lateness() <= 2 * t,
            "non-preemptive lateness {}ps exceeds 2T", report_np.max_lateness()
        );
    }

    #[test]
    fn omniscient_replays_any_schedule_perfectly(
        seed in 0u64..5000,
        util in 0.3f64..0.95,
        original in prop_oneof![
            Just(SchedKind::Random),
            Just(SchedKind::Lifo),
            Just(SchedKind::Sjf),
        ],
    ) {
        // Dumbbell cross-traffic can produce 3+ congestion points when
        // receivers are shared; omniscient must still be exact.
        let factory = move || dumbbell(
            4,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(10),
            TraceLevel::Hops,
        );
        let topo = factory();
        let flows = star_workload(&topo, seed, util);
        prop_assume!(!flows.is_empty());
        drop(topo);

        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, original, seed, 1500);
        drop(orig);
        let mut rep = factory();
        let report = replay_schedule(&mut rep, &schedule, ReplayMode::Omniscient);
        prop_assert!(
            report.perfect(),
            "omniscient missed {} packets (worst {}ps late)",
            report.overdue,
            report.max_lateness()
        );
    }

    #[test]
    fn edf_equals_lstf_on_random_schedules(
        seed in 0u64..5000,
        util in 0.3f64..0.9,
    ) {
        let factory = move || star(
            5,
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Hops,
        );
        let topo = factory();
        let flows = star_workload(&topo, seed, util);
        prop_assume!(!flows.is_empty());
        drop(topo);

        let mut orig = factory();
        let schedule = record_original(&mut orig, &flows, SchedKind::Random, seed, 1500);
        drop(orig);
        let mut t1 = factory();
        let lstf = replay_schedule(&mut t1, &schedule, ReplayMode::lstf());
        let mut t2 = factory();
        let edf = replay_schedule(&mut t2, &schedule, ReplayMode::Edf);
        prop_assert_eq!(lstf.lateness, edf.lateness);
    }

    #[test]
    fn recording_is_deterministic_per_seed(seed in 0u64..5000) {
        let factory = move || star(
            4,
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Hops,
        );
        let once = || {
            let topo = factory();
            let flows = star_workload(&topo, seed, 0.6);
            drop(topo);
            let mut orig = factory();
            let schedule =
                record_original(&mut orig, &flows, SchedKind::Random, seed, 1500);
            schedule
                .iter()
                .map(|p| (p.i().as_ps(), p.o().as_ps()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(once(), once());
    }
}
