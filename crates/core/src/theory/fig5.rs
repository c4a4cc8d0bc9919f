//! Figure 5 / Appendix C — no UPS exists under black-box initialization.
//!
//! Two viable schedules (Case 1, Case 2) over the same network give the
//! critical packets `a` and `x` *identical* inputs `(i(·), o(·), path(·))`,
//! yet Case 1 is only replayable if `a` is served before `x` at their
//! shared first congestion point α0, and Case 2 only if `x` precedes `a`.
//! A deterministic scheduler restricted to black-box information makes
//! the same α0 decision in both cases, so it must fail at least one.
//!
//! The flows (all congestion points have unit transmission time):
//!
//! ```text
//! a: α0 → α1 → α2              x: α0 → α3 → α4
//! b1..b3: α1 (B's last hop)    y1,y2: α3 (Y's last hop)
//! c1,c2:  α2                   z:     α4
//! ```
//!
//! Published tables (arrival, service) at each node:
//!
//! ```text
//!        Case 1                        Case 2
//! α0: a(0,0), x(0,1)            α0: x(0,0), a(0,1)
//! α1: a(1,1), b1(2,2), b2(3,3), α1: a(2,2), b1(2,3), b2(3,4),
//!     b3(4,4)                       b3(4,5)
//! α2: c1(2,2), c2(3,3), a(2,4)  α2: c1(2,2), c2(3,3), a(3,4)
//! α3: x(2,2), y1(2,3), y2(3,4)  α3: x(1,1), y1(2,2), y2(3,3)
//! α4: z(2,2), x(3,3)            α4: z(2,2), x(2,3)
//! ```
//!
//! In both cases `i(a) = i(x) = 0`, `o(a) = 5`, `o(x) = 4`.

use super::{realize, PacketPlan, UnitNet};
#[cfg(test)]
use super::{EPS, UNIT};
use crate::replay::{replay_schedule, ReplayMode, ReplayReport};
use crate::schedule::RecordedSchedule;
use ups_net::FlowId;
use ups_sim::Time;

/// Which published case to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Requires `a` before `x` at α0.
    One,
    /// Requires `x` before `a` at α0.
    Two,
}

/// Index of packet `a` in the schedule; `x` is at [`X`].
pub const A: usize = 0;
/// Index of packet `x`.
pub const X: usize = 1;

/// Build the network and the recorded schedule for `case`.
pub fn build(case: Case) -> (UnitNet, RecordedSchedule) {
    let mut un = UnitNet::new();
    let a0 = un.cp("a0", 100);
    let a1 = un.cp("a1", 100);
    let a2 = un.cp("a2", 100);
    let a3 = un.cp("a3", 100);
    let a4 = un.cp("a4", 100);

    let fp_a = un.flow_path("A", &[a0, a1, a2], &[0, 0, 0]);
    let fp_x = un.flow_path("X", &[a0, a3, a4], &[0, 0, 0]);
    let fp_b = un.flow_path("B", &[a1], &[0]);
    let fp_c = un.flow_path("C", &[a2], &[0]);
    let fp_y = un.flow_path("Y", &[a3], &[0]);
    let fp_z = un.flow_path("Z", &[a4], &[0]);

    let plan = |flow: u64, seq: u64, fp: &super::FlowPath, arr: i64, scheds: Vec<i64>| PacketPlan {
        flow: FlowId(flow),
        seq,
        size: 1500,
        fp: fp.clone(),
        arrival_x100: arr * 100,
        cp_sched_x100: scheds.into_iter().map(|t| t * 100).collect(),
    };

    // Per-case service times straight from the published tables.
    let (a_scheds, x_scheds, b_scheds, y_scheds) = match case {
        Case::One => (vec![0, 1, 4], vec![1, 2, 3], [2, 3, 4], [3, 4]),
        Case::Two => (vec![1, 2, 4], vec![0, 1, 3], [3, 4, 5], [2, 3]),
    };

    let mut plans = vec![
        plan(0, 0, &fp_a, 0, a_scheds),
        plan(1, 0, &fp_x, 0, x_scheds),
    ];
    for (k, &t) in b_scheds.iter().enumerate() {
        plans.push(plan(2, k as u64, &fp_b, 2 + k as i64, vec![t]));
    }
    for (k, arr) in [(0i64, 2i64), (1, 3)] {
        plans.push(plan(3, k as u64, &fp_c, arr, vec![arr]));
    }
    for (k, &t) in y_scheds.iter().enumerate() {
        plans.push(plan(4, k as u64, &fp_y, 2 + k as i64, vec![t]));
    }
    plans.push(plan(5, 0, &fp_z, 2, vec![2]));

    let sched = realize(&un, &plans);
    (un, sched)
}

/// LSTF replay of one case.
pub fn lstf_replay(case: Case) -> (RecordedSchedule, ReplayReport) {
    let (un, sched) = build(case);
    let mut topo = un.into_topology("fig5");
    let report = replay_schedule(&mut topo, &sched, ReplayMode::lstf());
    (sched, report)
}

/// The nonexistence demonstration: `a` and `x` carry identical black-box
/// inputs in both cases, and the deterministic LSTF replay fails at
/// least one case. Returns `(o(a), o(x), case-1 report, case-2 report)`.
pub fn demonstrate() -> (Time, Time, ReplayReport, ReplayReport) {
    let (s1, r1) = lstf_replay(Case::One);
    let (s2, r2) = lstf_replay(Case::Two);
    assert_eq!(s1.packet(A).i(), s2.packet(A).i());
    assert_eq!(s1.packet(A).o(), s2.packet(A).o());
    assert_eq!(s1.packet(X).i(), s2.packet(X).i());
    assert_eq!(s1.packet(X).o(), s2.packet(X).o());
    (s1.packet(A).o(), s1.packet(X).o(), r1, r2)
}

#[cfg(test)]
mod tests {
    use super::super::BASE;
    use super::*;

    #[test]
    fn a_and_x_have_identical_blackbox_inputs_across_cases() {
        let (sa, _) = build(Case::One);
        let (sb, _) = build(Case::Two);
        drop((sa, sb));
        let (s1, _) = lstf_replay(Case::One);
        let (s2, _) = lstf_replay(Case::Two);
        for idx in [A, X] {
            assert_eq!(s1.packet(idx).i(), s2.packet(idx).i(), "i differs");
            assert_eq!(s1.packet(idx).o(), s2.packet(idx).o(), "o differs");
            assert_eq!(
                s1.packet(idx).rec.path.links,
                s2.packet(idx).rec.path.links,
                "path differs"
            );
        }
        // And they match the published values exactly: i = 0, o(a) = 5,
        // o(x) = 4 units.
        assert_eq!(s1.packet(A).i(), BASE);
        assert_eq!(s1.packet(A).o(), BASE + UNIT * 5);
        assert_eq!(s1.packet(X).o(), BASE + UNIT * 4);
    }

    #[test]
    fn deterministic_lstf_fails_at_least_one_case() {
        let (_, _, r1, r2) = demonstrate();
        let failed = [&r1, &r2]
            .iter()
            .filter(|r| r.max_lateness() > UNIT.as_i64() / 3)
            .count();
        assert!(
            failed >= 1,
            "LSTF replayed both Figure 5 cases (lateness: case1 {:?}, case2 {:?})",
            super::super::lateness_units(&r1),
            super::super::lateness_units(&r2)
        );
    }

    #[test]
    fn lstf_slack_order_prefers_x_so_case_one_fails() {
        // slack(a) = 5 − 0 − 3 = 2 units; slack(x) = 4 − 0 − 3 = 1 unit:
        // LSTF serves x first at α0 in *both* cases, which is exactly
        // what Case 1 cannot tolerate.
        let (s1, r1) = lstf_replay(Case::One);
        assert_eq!(s1.packet(A).slack(), 2 * UNIT.as_i64());
        assert_eq!(s1.packet(X).slack(), UNIT.as_i64());
        assert!(
            r1.max_lateness() > UNIT.as_i64() / 3,
            "case 1 should fail: {:?}",
            super::super::lateness_units(&r1)
        );
    }

    #[test]
    fn the_matching_case_replays_cleanly() {
        // Case 2 wants x first — which LSTF does — so it replays within
        // epsilon.
        let (_, r2) = lstf_replay(Case::Two);
        assert!(
            r2.max_lateness() <= EPS,
            "case 2 lateness: {:?}",
            super::super::lateness_units(&r2)
        );
    }

    #[test]
    fn omniscient_initialization_replays_both_cases() {
        // Appendix B: with per-hop vectors (not black-box!), both cases
        // replay — locating the impossibility squarely in the
        // information model.
        for case in [Case::One, Case::Two] {
            let (un, sched) = build(case);
            let mut topo = un.into_topology("fig5");
            let report = replay_schedule(&mut topo, &sched, ReplayMode::Omniscient);
            assert!(
                report.max_lateness() <= EPS,
                "omniscient case {case:?}: {:?}",
                super::super::lateness_units(&report)
            );
        }
    }

    #[test]
    fn schedules_are_viable() {
        for case in [Case::One, Case::Two] {
            let (_, sched) = build(case);
            for p in sched.iter() {
                assert!(p.slack() >= 0, "negative slack in {case:?}");
            }
            assert_eq!(sched.len(), 10);
        }
    }
}
