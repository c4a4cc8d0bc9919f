//! `ups-core` — the Universal Packet Scheduling engine (NSDI 2016).
//!
//! This crate holds the paper's actual contribution, built on the
//! substrate crates (`ups-sim`, `ups-net`, `ups-sched`, `ups-topo`,
//! `ups-flowgen`, `ups-transport`, `ups-metrics`):
//!
//! * [`schedule`] — recorded schedules `{(path(p), i(p), o(p))}` with
//!   per-hop times and congestion-point analysis (§2.1, §2.2);
//! * [`replay`] — the replay engine: record an original schedule under
//!   any scheduler mix, re-run the identical input under LSTF /
//!   Priority / EDF / the omniscient UPS, score overdue fractions and
//!   queueing-delay ratios (§2.3, Table 1, Figure 1);
//! * [`deadline`] — the deadline replay objective: record EDF on
//!   per-packet virtual deadlines, replay with LSTF-using-deadline-slack
//!   (or EDF / static priority), score fidelity and per-flow lateness;
//! * [`omniscient`](mod@omniscient) — the Appendix B per-hop-vector UPS;
//! * [`objectives`] — the §3 slack-initialization heuristics (mean FCT,
//!   tail delay, fairness) and their experiment drivers (Figures 2–4);
//! * [`theory`] — executable versions of the appendix counterexamples
//!   (Figures 5, 6, 7): nonexistence of a black-box UPS, the priority
//!   cycle, and LSTF's three-congestion-point failure.
//!
//! # Quick start
//!
//! ```
//! use ups_core::replay::{replay_experiment, ReplayMode};
//! use ups_sched::SchedKind;
//! use ups_net::{FlowId, TraceLevel};
//! use ups_sim::{Bandwidth, Dur, Time};
//! use ups_topo::simple::star;
//! use ups_transport::FlowDesc;
//!
//! let factory = || star(4, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops);
//! let topo = factory();
//! let flows: Vec<FlowDesc> = (0..4)
//!     .map(|i| FlowDesc {
//!         id: FlowId(i),
//!         src: topo.hosts[i as usize],
//!         dst: topo.hosts[(i as usize + 1) % 4],
//!         pkts: 10,
//!         start: Time::ZERO,
//!         deadline: None,
//!     })
//!     .collect();
//! let (schedule, report) =
//!     replay_experiment(factory, &flows, SchedKind::Random, ReplayMode::lstf(), 1, 1500);
//! assert_eq!(report.total, 40);
//! assert!(report.frac_overdue() <= 1.0);
//! assert!(schedule.max_congestion_points() <= 2); // star topology
//! ```

#![forbid(unsafe_code)]

pub mod deadline;
pub mod objectives;
pub mod omniscient;
pub mod replay;
pub mod schedule;
pub mod theory;
pub mod workload;

pub use deadline::{
    deadline_flow_stats, record_deadline_original, replay_deadline, replay_deadline_lossy,
    DeadlineMode, DeadlineSchedule, DeadlineTag,
};
pub use objectives::{run_fairness, run_fct, run_goodput, run_tail_delays, Scheme};
pub use omniscient::{omniscient, HopTable, Omniscient};
pub use replay::{
    record_original, replay_experiment, replay_schedule, replay_schedule_lossy, ReplayMode,
    ReplayReport,
};
pub use schedule::{RecordedPacket, RecordedSchedule};
pub use workload::{to_flow_descs, WorkloadKind};
