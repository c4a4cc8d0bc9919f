//! Figure 6 / Appendix F — simple priorities fail with two congestion
//! points per packet, for *any* static priority assignment.
//!
//! Three flows, three congestion points with transmission times 1, 0.5,
//! and 0.2 units; packet `a` additionally crosses a 2-unit propagation
//! link L between α1 and α3:
//!
//! ```text
//! α1 (T=1):   a(0,0),   b(0,1)
//! α2 (T=0.5): b(2,2),   c(2,2.5)
//! α3 (T=0.2): c(3,3),   a(3,3.2)
//! ```
//!
//! Replaying needs `prio(a) < prio(b)` at α1, `prio(b) < prio(c)` at α2
//! and `prio(c) < prio(a)` at α3 — a cycle no static assignment
//! satisfies. LSTF, by contrast, replays this schedule (every packet has
//! at most two congestion points).

use super::{realize, PacketPlan, UnitNet};
use crate::replay::{replay_schedule, replay_with, ReplayMode, ReplayReport};
use crate::schedule::{RecordedPacket, RecordedSchedule};
use ups_net::{FlowId, SchedHeader, Scheduler};
use ups_sched::priority;

/// Build the Figure 6 network and schedule.
pub fn build() -> (UnitNet, RecordedSchedule) {
    let mut un = UnitNet::new();
    let a1 = un.cp("a1", 100); // T = 1
    let a2 = un.cp("a2", 50); // T = 0.5
    let a3 = un.cp("a3", 20); // T = 0.2

    // a: α1 → (L: 2 units propagation) → α3.
    let fp_a = un.flow_path("A", &[a1, a3], &[0, 200]);
    // b: α1 → α2 (no extra delay).
    let fp_b = un.flow_path("B", &[a1, a2], &[0, 0]);
    // c: α2 → α3.
    let fp_c = un.flow_path("C", &[a2, a3], &[0, 0]);

    let plan = |flow: u64, fp: &super::FlowPath, arr: i64, scheds: Vec<i64>| PacketPlan {
        flow: FlowId(flow),
        seq: 0,
        size: 1500,
        fp: fp.clone(),
        arrival_x100: arr,
        cp_sched_x100: scheds,
    };

    let plans = vec![
        plan(0, &fp_a, 0, vec![0, 320]),     // a: α1@0, α3@3.2
        plan(1, &fp_b, 0, vec![100, 200]),   // b: α1@1, α2@2
        plan(2, &fp_c, 200, vec![250, 300]), // c: α2@2.5, α3@3
    ];
    let sched = realize(&un, &plans);
    (un, sched)
}

/// Replay Figure 6 with the given static priorities for (a, b, c);
/// returns the report. Lower value = higher priority.
pub fn priority_replay(prios: [i64; 3]) -> ReplayReport {
    let (un, sched) = build();
    let mut topo = un.into_topology("fig6");
    let header = |k: usize, _: RecordedPacket<'_>| SchedHeader {
        slack: 0,
        prio: prios[k],
    };
    let scheduler = || -> Box<dyn Scheduler> { Box::new(priority()) };
    replay_with(
        &mut topo,
        &sched,
        ReplayMode::Priority,
        scheduler,
        false,
        header,
        false,
    )
}

/// LSTF replay of the same schedule.
pub fn lstf_replay() -> ReplayReport {
    let (un, sched) = build();
    let mut topo = un.into_topology("fig6");
    replay_schedule(&mut topo, &sched, ReplayMode::lstf())
}

#[cfg(test)]
mod tests {
    use super::super::{EPS, UNIT};
    use super::*;

    #[test]
    fn schedule_realizes_published_exits() {
        let (_, sched) = build();
        let base = super::super::BASE;
        let u = UNIT.as_ps() as i64;
        // o(a) = 3.4 units, o(b) = 2.5, o(c) = 3.2 (±eps of fast hops).
        let close = |t: ups_sim::Time, units_x10: i64| {
            (t.signed_since(base) - units_x10 * u / 10).abs() < 10 * EPS
        };
        assert!(
            close(sched.packet(0).o(), 34),
            "o(a) = {}",
            sched.packet(0).o()
        );
        assert!(
            close(sched.packet(1).o(), 25),
            "o(b) = {}",
            sched.packet(1).o()
        );
        assert!(
            close(sched.packet(2).o(), 32),
            "o(c) = {}",
            sched.packet(2).o()
        );
    }

    #[test]
    fn every_static_priority_assignment_fails() {
        // All six strict orderings of {a, b, c}: the priority cycle
        // guarantees at least one overdue packet each time.
        let orders: [[i64; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for prios in orders {
            let rep = priority_replay(prios);
            assert!(
                rep.overdue >= 1,
                "priorities {prios:?} unexpectedly replayed Figure 6 \
                 (lateness {:?})",
                super::super::lateness_units(&rep)
            );
        }
    }

    #[test]
    fn lstf_replays_two_congestion_points() {
        // Every packet here has ≤ 2 congestion points, so LSTF succeeds
        // (§2.2 key result 2), up to the fast-hop epsilon.
        let rep = lstf_replay();
        assert!(
            rep.max_lateness() <= EPS,
            "LSTF lateness {:?} units",
            super::super::lateness_units(&rep)
        );
    }

    #[test]
    fn omniscient_also_replays_fig6() {
        let (un, sched) = build();
        let mut topo = un.into_topology("fig6");
        let rep = replay_schedule(&mut topo, &sched, ReplayMode::Omniscient);
        assert!(rep.perfect());
    }
}
