//! Figure 7 / Appendix G.3 — LSTF replay failure with three congestion
//! points per packet.
//!
//! Flow A's packet `a` crosses three unit-time congestion points α0, α1,
//! α2; competitor packets `b` (α0 only), `c1, c2` (α1), `d1, d2` (α2)
//! give it exactly the slack interactions of the published table:
//!
//! ```text
//! α0: a(0,0), b(0,1)
//! α1: a(1,1), c1(2,2), c2(3,3)
//! α2: d1(2,2), d2(3,3), a(2,4)
//! ```
//!
//! LSTF assigns `a` slack 2 (it waits two units at α2 in the original)
//! and `b` slack 1, so the replay schedules `b` first at α0; `a` then
//! reaches α1 with too little slack to coexist with the zero-slack `c`
//! packets, and — whichever way the c2/a tie is resolved — some packet
//! misses its target by about one unit.

use super::{realize, PacketPlan, UnitNet};
#[cfg(test)]
use super::{EPS, UNIT};
use crate::replay::{replay_schedule, ReplayMode, ReplayReport};
use crate::schedule::RecordedSchedule;
use ups_net::FlowId;

/// The Figure 7 network and its packets' intended schedules, in the
/// table's order (`a`, `b`, `c1`, `c2`, `d1`, `d2`).
fn plans() -> (UnitNet, Vec<PacketPlan>) {
    let mut un = UnitNet::new();
    let a0 = un.cp("a0", 100);
    let a1 = un.cp("a1", 100);
    let a2 = un.cp("a2", 100);

    let fp_a = un.flow_path("A", &[a0, a1, a2], &[0, 0, 0]);
    let fp_b = un.flow_path("B", &[a0], &[0]);
    let fp_c = un.flow_path("C", &[a1], &[0]);
    let fp_d = un.flow_path("D", &[a2], &[0]);

    let plan = |flow: u64, seq: u64, fp: &super::FlowPath, arr: i64, scheds: Vec<i64>| PacketPlan {
        flow: FlowId(flow),
        seq,
        size: 1500,
        fp: fp.clone(),
        arrival_x100: arr * 100,
        cp_sched_x100: scheds.into_iter().map(|t| t * 100).collect(),
    };

    let plans = vec![
        plan(0, 0, &fp_a, 0, vec![0, 1, 4]), // a
        plan(1, 0, &fp_b, 0, vec![1]),       // b
        plan(2, 0, &fp_c, 2, vec![2]),       // c1
        plan(2, 1, &fp_c, 3, vec![3]),       // c2
        plan(3, 0, &fp_d, 2, vec![2]),       // d1
        plan(3, 1, &fp_d, 3, vec![3]),       // d2
    ];
    (un, plans)
}

/// Build the Figure 7 network and its recorded schedule.
pub fn build() -> (UnitNet, RecordedSchedule) {
    let (un, plans) = plans();
    let sched = realize(&un, &plans);
    (un, sched)
}

/// Run the LSTF replay of the Figure 7 schedule.
pub fn lstf_replay() -> (RecordedSchedule, ReplayReport) {
    let (un, sched) = build();
    let mut topo = un.into_topology("fig7");
    let report = replay_schedule(&mut topo, &sched, ReplayMode::lstf());
    (sched, report)
}

/// Sanity marker used by the table-of-contents tests.
pub const CP_OF_A: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_schedule;

    #[test]
    fn schedule_matches_published_table() {
        let (_, sched) = build();
        // Slacks (in units): a = o−i−tmin = 5−0−3 = 2; b = 2−0−1 = 1;
        // c/d packets are tight (0).
        let units = |ps: i64| ps as f64 / UNIT.as_ps() as f64;
        let slacks: Vec<f64> = sched.iter().map(|p| units(p.slack())).collect();
        assert!((slacks[0] - 2.0).abs() < 0.01, "slack(a) {}", slacks[0]);
        assert!((slacks[1] - 1.0).abs() < 0.01, "slack(b) {}", slacks[1]);
        for (k, &s) in slacks[2..].iter().enumerate() {
            assert!(s.abs() < 0.01, "slack of tight packet {k} = {s}");
        }
        // `a` crosses three servers but, realized, waits only at α2
        // (it arrives there at 2 and is served at 4): congestion points
        // count waits, not servers.
        assert_eq!(plans().1[0].fp.cp_hops.len(), CP_OF_A);
        assert_eq!(sched.packet(0).congestion_points(), 1);
    }

    #[test]
    fn lstf_fails_with_three_congestion_points() {
        let (_, report) = lstf_replay();
        assert!(
            report.overdue >= 1,
            "LSTF unexpectedly replayed Figure 7 perfectly"
        );
        // The failure is structural: about one full unit late, not an
        // epsilon artifact.
        assert!(
            report.max_lateness() > UNIT.as_i64() / 2,
            "max lateness {}ps is not a real miss",
            report.max_lateness()
        );
    }

    #[test]
    fn b_overtakes_a_in_the_replay() {
        // The paper's narrative: slack(b) < slack(a) at α0, so the replay
        // schedules b first — visible as b finishing a unit earlier than
        // its original target allows for a.
        let (sched, report) = lstf_replay();
        // b (index 1) finishes on time; it was never the victim.
        assert!(report.lateness[1] <= EPS);
        // The victim is one of a, c2 (indices 0, 3).
        assert!(
            report.lateness[0] > UNIT.as_i64() / 2 || report.lateness[3] > UNIT.as_i64() / 2,
            "expected a or c2 overdue, lateness: {:?}",
            super::super::lateness_units(&report)
        );
        drop(sched);
    }

    #[test]
    fn omniscient_replays_fig7_perfectly() {
        // Appendix B: with per-hop times even this schedule replays.
        let (un, sched) = build();
        let mut topo = un.into_topology("fig7");
        let report = replay_schedule(&mut topo, &sched, ReplayMode::Omniscient);
        assert!(
            report.perfect(),
            "omniscient overdue: {:?}",
            super::super::lateness_units(&report)
        );
    }

    #[test]
    fn preemptive_lstf_still_fails_fig7() {
        // Preemption does not rescue the three-congestion-point bound —
        // the impossibility is informational, not mechanical.
        let (un, sched) = build();
        let mut topo = un.into_topology("fig7");
        let report = replay_schedule(&mut topo, &sched, ReplayMode::lstf_preemptive());
        assert!(report.overdue >= 1);
    }
}
