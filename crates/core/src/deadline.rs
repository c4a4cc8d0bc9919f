//! The deadline replay objective: can LSTF replay EDF?
//!
//! The paper's central claim is that LSTF can replay any viable
//! schedule; the deadline regime is where that claim bites hardest.
//! This module asks it end-to-end: record an **EDF** schedule on a
//! deadline-mix workload (every packet carries a virtual deadline
//! `D(p)`), then replay the identical input under a candidate UPS that
//! only knows `D(p)` — LSTF with *deadline* slack (`D − i − tmin`,
//! Appendix E's equivalence), EDF itself (the control), or a static
//! two-level priority (the strawman). The replay is scored two ways:
//!
//! * **fidelity** against the recorded EDF output times, through the
//!   same [`ReplayReport`] the `o(p)`-target replays use — this is the
//!   replay question proper;
//! * **per-flow lateness** against the real [`FlowDesc::deadline`]
//!   budgets, through [`ups_metrics::DeadlineLedger`]
//!   ([`deadline_flow_stats`]) — this is the miss-rate-vs-utilization
//!   curve the deadline scenarios plot.
//!
//! The EDF ≡ LSTF identity the property tests pin down: EDF here keys
//! on `prio − remaining_tmin + tx`, LSTF's LastBit key is
//! `enq + slack_remaining + tx` with slack charged against queueing
//! waits. Stamping `prio = D` and `slack = D − i − tmin` **unclamped**
//! makes both keys equal `D − remaining_tmin + tx` at every hop, so the
//! two replays are packet-for-packet identical — feasible or not. (The
//! open-loop stamper in `ups-transport` clamps deadline slack at zero,
//! which is right for scheduling real traffic but would break the
//! identity exactly where it matters, on infeasible deadlines; hence
//! this module hand-builds its headers.)

use crate::replay::{replay_with, ReplayMode, ReplayReport};
use crate::schedule::{RecordedPacket, RecordedSchedule};
use std::collections::BTreeMap;
use ups_metrics::{DeadlineLedger, DeadlineStats};
use ups_net::{LinkPolicy, SchedHeader, Scheduler, Telemetry, TraceLevel};
use ups_sched::{edf, lstf_with, priority, LstfKeyMode, SchedKind};
use ups_sim::{Dur, Time};
use ups_topo::Topology;
use ups_transport::{FlowDesc, PacedFlows};

/// Virtual-deadline budget for packets of flows that carry no real
/// deadline: `D = i + tmin + BEST_EFFORT_BUDGET`. Far above any budget
/// the deadline-mix workload hands out, so best-effort traffic ranks
/// strictly behind every urgent packet under all three candidates
/// (after EDF's own key, behind tagged deadlines; under Prio, class 7).
pub const BEST_EFFORT_BUDGET: Dur = Dur::from_millis(100);

/// The candidate UPS of a deadline replay — the scheduler that re-runs
/// the recorded EDF input knowing only each packet's virtual deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineMode {
    /// EDF again (the control: must reproduce the record bit-for-bit).
    Edf,
    /// LSTF with deadline slack `D − i − tmin` (the paper's candidate).
    Lstf,
    /// Static two-level priority: tagged flows class 0, best effort
    /// class 7 — deadline *values* are invisible, only the tag is.
    Prio,
}

impl DeadlineMode {
    /// Map a scenario's `sched` coordinate to the replay candidate. In
    /// deadline-replay scenarios the coordinate names the *replay*
    /// scheduler (the original is always EDF); anything outside the
    /// candidate set is `None`.
    pub fn from_sched(kind: SchedKind) -> Option<DeadlineMode> {
        match kind {
            SchedKind::Edf => Some(DeadlineMode::Edf),
            SchedKind::Lstf => Some(DeadlineMode::Lstf),
            SchedKind::Priority => Some(DeadlineMode::Prio),
            _ => None,
        }
    }

    /// Display label (matches the corresponding [`SchedKind`] label so
    /// artifacts key cells by the familiar scheduler names).
    pub fn label(self) -> &'static str {
        match self {
            DeadlineMode::Edf => "EDF",
            DeadlineMode::Lstf => "LSTF",
            DeadlineMode::Prio => "Priority",
        }
    }

    /// The [`ReplayMode`] recorded in the report (for its `mode` field;
    /// header construction here is deadline-specific).
    fn replay_mode(self) -> ReplayMode {
        match self {
            DeadlineMode::Edf => ReplayMode::Edf,
            DeadlineMode::Lstf => ReplayMode::lstf(),
            DeadlineMode::Prio => ReplayMode::Priority,
        }
    }
}

/// The virtual deadline attached to one recorded packet.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineTag {
    /// Absolute virtual deadline `D(p)`.
    pub d_abs: Time,
    /// Whether the flow carried a real [`FlowDesc::deadline`] (best-
    /// effort packets get the synthetic [`BEST_EFFORT_BUDGET`] instead).
    pub tagged: bool,
}

/// An EDF-recorded schedule plus the per-packet virtual deadlines that
/// produced it, in recorded-packet order — everything a deadline replay
/// needs to rebuild the input headers.
#[derive(Debug, Clone)]
pub struct DeadlineSchedule {
    /// The recorded schedule (`{(path, i(p), o(p))}`).
    pub schedule: RecordedSchedule,
    /// One tag per recorded packet, in recorded order.
    pub tags: Vec<DeadlineTag>,
}

impl From<DeadlineSchedule> for RecordedSchedule {
    fn from(ds: DeadlineSchedule) -> RecordedSchedule {
        ds.schedule
    }
}

/// Per-packet virtual deadline: a tagged flow's packets all share the
/// flow's completion deadline `start + budget` (the whole flow must be
/// done by then, so its last packet's constraint binds every packet);
/// best-effort packets get `i + tmin +` [`BEST_EFFORT_BUDGET`].
fn virtual_deadline(f: &FlowDesc, at: Time, tmin: Dur) -> DeadlineTag {
    match f.deadline {
        Some(budget) => DeadlineTag {
            d_abs: f.start + budget,
            tagged: true,
        },
        None => DeadlineTag {
            d_abs: at + tmin + BEST_EFFORT_BUDGET,
            tagged: false,
        },
    }
}

/// Record the original schedule under network-wide EDF on per-packet
/// virtual deadlines: install EDF on every port of `topo` (freshly
/// built with [`TraceLevel::Hops`]), inject the workload paced at the
/// host NIC exactly like the open-loop stamper would, with
/// `prio = D(p)` — and the *unclamped* deadline slack alongside, so the
/// recorded headers document both views — then run to completion.
pub fn record_deadline_original(
    topo: &mut Topology,
    flows: &[FlowDesc],
    mtu: u32,
) -> DeadlineSchedule {
    assert_eq!(
        topo.net.telemetry.level,
        TraceLevel::Hops,
        "recording requires hop-level tracing"
    );
    topo.net
        .configure_links(|_| LinkPolicy::keep().buffer(None).scheduler(Box::new(edf())));
    let mut source = PacedFlows::new(&topo.routes, flows, mtu, |f, _seq, at, tmin| {
        let tag = virtual_deadline(f, at, tmin);
        SchedHeader {
            slack: tag.d_abs.signed_since(at) - tmin.as_i64(),
            prio: tag.d_abs.as_ps() as i64,
            hop_times: None,
        }
    });
    let mut tags = Vec::new();
    source.for_each_packet(|f, _seq, at, tmin| tags.push(virtual_deadline(f, at, tmin)));
    topo.net.run_source(&mut source);
    let schedule = RecordedSchedule::from_telemetry(&mut topo.net.telemetry);
    assert_eq!(schedule.len(), tags.len(), "one tag per recorded packet");
    DeadlineSchedule { schedule, tags }
}

/// Replay a recorded EDF schedule on a *fresh* build of the same
/// topology under `mode`, scoring fidelity against the recorded output
/// times. Loss-free (asserts so); for a chaos-perturbed replay use
/// [`replay_deadline_lossy`].
pub fn replay_deadline(
    topo: &mut Topology,
    ds: &DeadlineSchedule,
    mode: DeadlineMode,
) -> ReplayReport {
    replay_tagged(topo, ds, mode, false)
}

/// Like [`replay_deadline`], but tolerant of packet loss: undelivered
/// packets count in [`ReplayReport::lost`] and against fidelity.
pub fn replay_deadline_lossy(
    topo: &mut Topology,
    ds: &DeadlineSchedule,
    mode: DeadlineMode,
) -> ReplayReport {
    replay_tagged(topo, ds, mode, true)
}

/// The deadline candidates: which scheduler each [`DeadlineMode`]
/// installs and how it stamps a packet from its [`DeadlineTag`].
fn replay_tagged(
    topo: &mut Topology,
    ds: &DeadlineSchedule,
    mode: DeadlineMode,
    allow_loss: bool,
) -> ReplayReport {
    let scheduler = || -> Box<dyn Scheduler> {
        match mode {
            DeadlineMode::Edf => Box::new(edf()),
            DeadlineMode::Lstf => Box::new(lstf_with(LstfKeyMode::LastBit)),
            DeadlineMode::Prio => Box::new(priority()),
        }
    };
    let header = |k: usize, rec: RecordedPacket<'_>| {
        let tag = &ds.tags[k];
        match mode {
            DeadlineMode::Edf => SchedHeader {
                slack: 0,
                prio: tag.d_abs.as_ps() as i64,
                hop_times: None,
            },
            DeadlineMode::Lstf => SchedHeader {
                // Deliberately unclamped: an infeasible budget must stay
                // comparable against EDF's absolute key (see module docs).
                slack: tag.d_abs.signed_since(rec.i()) - rec.tmin().as_i64(),
                prio: 0,
                hop_times: None,
            },
            DeadlineMode::Prio => SchedHeader {
                slack: 0,
                prio: if tag.tagged { 0 } else { 7 },
                hop_times: None,
            },
        }
    };
    replay_with(
        topo,
        &ds.schedule,
        mode.replay_mode(),
        scheduler,
        false,
        header,
        allow_loss,
    )
}

/// Reduce a run's delivery telemetry to per-flow deadline outcomes
/// through [`DeadlineLedger`]: a tagged flow completes when *all* its
/// packets were delivered, at the latest delivery time; it misses when
/// that time exceeds `start + deadline` or when any packet never
/// arrived. `None` when no flow is tagged.
pub fn deadline_flow_stats(flows: &[FlowDesc], telemetry: &Telemetry) -> Option<DeadlineStats> {
    if !flows.iter().any(|f| f.deadline.is_some()) {
        return None;
    }
    // Per tagged flow: latest delivery seen and how many packets made it
    // (BTreeMap: iteration-order-safe by construction, though only the
    // ordered `flows` loop below ever reads it).
    let mut done: BTreeMap<u64, (Time, u64)> = flows
        .iter()
        .filter(|f| f.deadline.is_some())
        .map(|f| (f.id.0, (Time::ZERO, 0)))
        .collect();
    for rec in &telemetry.packets {
        if let Some((latest, delivered)) = done.get_mut(&rec.flow.0) {
            if let Some(t) = rec.delivered {
                *latest = (*latest).max(t);
                *delivered += 1;
            }
        }
    }
    let mut ledger = DeadlineLedger::new();
    for f in flows {
        let Some(budget) = f.deadline else { continue };
        let completion = done
            .get(&f.id.0)
            .filter(|&&(_, delivered)| delivered == f.pkts)
            .map(|&(latest, _)| latest);
        ledger.observe(f.start + budget, completion);
    }
    Some(ledger.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::FlowId;
    use ups_sim::Bandwidth;
    use ups_topo::simple::star;

    fn star_factory() -> Topology {
        star(6, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops)
    }

    /// Contended deadline mix on the star: hosts 1–5 send toward host 0,
    /// odd senders tagged with `budget`, even senders best effort.
    fn star_flows(topo: &Topology, pkts: u64, budget: Dur) -> Vec<FlowDesc> {
        topo.hosts[1..]
            .iter()
            .enumerate()
            .map(|(i, &src)| FlowDesc {
                id: FlowId(i as u64),
                src,
                dst: topo.hosts[0],
                pkts,
                start: Time::ZERO,
                deadline: (i % 2 == 1).then_some(budget),
            })
            .collect()
    }

    fn record(flows: &[FlowDesc]) -> (Topology, DeadlineSchedule) {
        let mut topo = star_factory();
        let ds = record_deadline_original(&mut topo, flows, 1500);
        (topo, ds)
    }

    /// The topology of an EDF control replay of `flows`, whose packet
    /// table is the EDF original's, packet for packet (recording moves
    /// the original's table into the schedule).
    fn edf_replay(flows: &[FlowDesc]) -> Topology {
        let (_, ds) = record(flows);
        let mut topo = star_factory();
        assert!(replay_deadline(&mut topo, &ds, DeadlineMode::Edf).perfect());
        topo
    }

    #[test]
    fn edf_control_replay_is_bit_exact() {
        let flows = star_flows(&star_factory(), 6, Dur::from_millis(2));
        let (_, ds) = record(&flows);
        let mut t2 = star_factory();
        let rep = replay_deadline(&mut t2, &ds, DeadlineMode::Edf);
        assert_eq!(rep.max_lateness(), 0, "EDF must reproduce itself exactly");
        assert_eq!(rep.fidelity(), 1.0);
    }

    #[test]
    fn lstf_with_deadline_slack_replays_edf_exactly() {
        // Appendix E, deadline edition: identical keys at every hop ⇒
        // identical schedules, even with an infeasible (1 µs) budget.
        for budget in [Dur::from_millis(2), Dur::from_micros(1)] {
            let flows = star_flows(&star_factory(), 6, budget);
            let (_, ds) = record(&flows);
            let mut t2 = star_factory();
            let lstf = replay_deadline(&mut t2, &ds, DeadlineMode::Lstf);
            let mut t3 = star_factory();
            let edf = replay_deadline(&mut t3, &ds, DeadlineMode::Edf);
            assert_eq!(lstf.lateness, edf.lateness, "budget {budget:?}");
            assert!(lstf.perfect(), "budget {budget:?}");
        }
    }

    #[test]
    fn flow_stats_mark_generous_budgets_met_and_tight_budgets_missed() {
        let generous = star_flows(&star_factory(), 4, Dur::from_millis(5));
        let topo = edf_replay(&generous);
        let stats = deadline_flow_stats(&generous, &topo.net.telemetry).expect("tagged");
        assert_eq!(stats.tagged, 2);
        assert_eq!(stats.missed, 0);

        // 1 µs is below even the uncontended path tmin: every tagged
        // flow must miss.
        let tight = star_flows(&star_factory(), 4, Dur::from_micros(1));
        let topo = edf_replay(&tight);
        let stats = deadline_flow_stats(&tight, &topo.net.telemetry).expect("tagged");
        assert_eq!(stats.missed, stats.tagged);
        assert!(stats.mean_lateness_us > 0.0);
    }

    #[test]
    fn untagged_workloads_produce_no_stats() {
        let mut flows = star_flows(&star_factory(), 2, Dur::from_millis(1));
        for f in &mut flows {
            f.deadline = None;
        }
        let topo = edf_replay(&flows);
        assert!(deadline_flow_stats(&flows, &topo.net.telemetry).is_none());
    }

    #[test]
    fn mode_mapping_covers_exactly_the_candidate_set() {
        assert_eq!(
            DeadlineMode::from_sched(SchedKind::Edf),
            Some(DeadlineMode::Edf)
        );
        assert_eq!(
            DeadlineMode::from_sched(SchedKind::Lstf),
            Some(DeadlineMode::Lstf)
        );
        assert_eq!(
            DeadlineMode::from_sched(SchedKind::Priority),
            Some(DeadlineMode::Prio)
        );
        assert_eq!(DeadlineMode::from_sched(SchedKind::Fifo), None);
        assert_eq!(DeadlineMode::Prio.label(), "Priority");
    }

    #[test]
    fn lossy_lstf_deadline_replay_on_the_star_matches_recorded_values() {
        // The deadline twin of `replay`'s recorded-values test: what the
        // commit before the merge into `replay_with` printed.
        let flows = star_flows(&star_factory(), 6, Dur::from_micros(1));
        let (topo, ds) = record(&flows);
        let mut copy = topo.rewired();
        copy.net.install_chaos(Time::from_millis(1), |_| {
            Some(ups_net::ChaosPolicy::new(9).drop_prob(0.1))
        });
        let report = replay_deadline_lossy(&mut copy, &ds, DeadlineMode::Lstf);
        let us12: [i64; 23] = [
            -1, -1, -2, -3, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -3,
            -4,
        ];
        assert_eq!(report.lateness, us12.map(|k| k * 12_000_000));
        assert_eq!((report.lost, report.t), (7, Dur::from_micros(12)));
    }
}
