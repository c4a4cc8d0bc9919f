//! The replay engine (§2).
//!
//! Records an *original* schedule by running any mix of schedulers over
//! an open-loop UDP workload, then re-runs the identical input — same
//! packets, same ingress times `i(p)`, same paths — under a candidate
//! UPS, and scores the replay: the fraction of packets overdue
//! (`o'(p) > o(p)`), the fraction overdue by more than the bottleneck
//! transmission time `T`, and the per-packet queueing-delay ratios of
//! Figure 1.
//!
//! Candidate UPSes: LSTF (non-preemptive by default, preemptive for the
//! §2.3(5) ablation), simple Priority with `prio = o(p)` (§2.3(7)), EDF
//! (the Appendix E equivalent), and the omniscient per-hop-vector UPS
//! (Appendix B).

use crate::omniscient::{omniscient, HopTable};
use crate::schedule::{RecordedPacket, RecordedSchedule, ScheduleSource};
use std::cell::OnceCell;
use std::sync::Arc;
use ups_net::{LinkPolicy, SchedHeader, Scheduler, Telemetry, TraceLevel};
use ups_sched::{edf, lstf_with, priority, LstfKeyMode, SchedKind};
use ups_sim::Dur;
use ups_topo::Topology;
use ups_transport::{FlowDesc, HeaderStamper, PrioPolicy, SlackPolicy};

/// The candidate UPS used for a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Least Slack Time First with slack = `o − i − tmin`.
    Lstf {
        /// Allow arrivals to preempt the in-flight packet (fluid model).
        preemptive: bool,
        /// Deadline formula (see [`LstfKeyMode`]).
        key: LstfKeyMode,
    },
    /// Simple priorities with `prio = o(p)` — "the most intuitive
    /// priority assignment" of §2.3(7).
    Priority,
    /// Network-wide EDF on a static `o(p)` header (Appendix E).
    Edf,
    /// Omniscient per-hop output-time vector (Appendix B).
    Omniscient,
}

impl ReplayMode {
    /// Non-preemptive paper-default LSTF.
    pub fn lstf() -> ReplayMode {
        ReplayMode::Lstf {
            preemptive: false,
            key: LstfKeyMode::LastBit,
        }
    }

    /// Preemptive LSTF (ablation).
    pub fn lstf_preemptive() -> ReplayMode {
        ReplayMode::Lstf {
            preemptive: true,
            key: LstfKeyMode::LastBit,
        }
    }

    /// Display label, distinct for every mode and at most 14 characters
    /// (the ablation tables' Replay column). The pure-deadline LSTF keys
    /// are marked `deadline` / `dl`; the last-bit default is unmarked.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayMode::Lstf { preemptive, key } => match (preemptive, key) {
                (false, LstfKeyMode::LastBit) => "LSTF",
                (true, LstfKeyMode::LastBit) => "LSTF(preempt)",
                (false, LstfKeyMode::PureDeadline) => "LSTF(deadline)",
                (true, LstfKeyMode::PureDeadline) => "LSTF(pre,dl)",
            },
            ReplayMode::Priority => "Priority(o)",
            ReplayMode::Edf => "EDF",
            ReplayMode::Omniscient => "Omniscient",
        }
    }
}

/// Scoring tolerance: a packet counts as overdue only if it exits more
/// than this after its target. Replays are exact integer-picosecond
/// arithmetic, preemptive ones too, so it forgives genuine misses only:
/// over the quick-scale baseline runs of `table1`, `i2-web` and `fig1`
/// (320,871 replayed packets), 3 are late by (0, 1 ns], 327–607 ps, all
/// under non-preemptive LSTF in `table1`; the preemption ablation has
/// none. 1 ns is three orders of magnitude below the misses the paper
/// counts (the bottleneck transmission time is 12 µs).
pub const OVERDUE_TOLERANCE_PS: i64 = 1_000;

/// Outcome of one replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Which UPS was used.
    pub mode: ReplayMode,
    /// Packets replayed.
    pub total: usize,
    /// Packets with `o'(p) > o(p)`.
    pub overdue: usize,
    /// Packets with `o'(p) > o(p) + T`.
    pub overdue_gt_t: usize,
    /// Packets never delivered by the replay. Always 0 on the strict
    /// path ([`replay_schedule`]); nonzero only under a loss-inducing
    /// chaos policy scored via [`replay_schedule_lossy`].
    pub lost: usize,
    /// The threshold `T`: one MTU transmission on the slowest link.
    pub t: Dur,
    /// Per-packet lateness `o'(p) − o(p)` in picoseconds (≤ 0 = on time),
    /// in recorded-packet order.
    pub lateness: Vec<i64>,
    /// Queueing-delay ratios replay/original for packets with non-zero
    /// original queueing delay (Figure 1). The replay's delay is
    /// `o'(p) − i(p) − tmin(p)`; the original's is the sum of its
    /// recorded per-hop waits. On non-preemptive ports the two measures
    /// agree to the picosecond. On a preemptive port the replay's also
    /// counts every wait after a suspended transmission resumes
    /// ([`Packet::qdelay`](ups_net::Packet::qdelay)'s definition), where
    /// a hop trace counts only the wait before the first start.
    pub qdelay_ratios: Vec<f64>,
}

impl ReplayReport {
    /// Fraction of packets overdue.
    pub fn frac_overdue(&self) -> f64 {
        self.overdue as f64 / self.total.max(1) as f64
    }

    /// Fraction of packets overdue by more than `T`.
    pub fn frac_overdue_gt_t(&self) -> f64 {
        self.overdue_gt_t as f64 / self.total.max(1) as f64
    }

    /// Fraction of packets lost (never delivered) in the replay.
    pub fn frac_lost(&self) -> f64 {
        self.lost as f64 / self.total.max(1) as f64
    }

    /// Replay fidelity: the fraction of packets both delivered and on
    /// time (`o' ≤ o`). Equals `1 − frac_overdue` on the strict path;
    /// under chaos it additionally charges every lost packet.
    pub fn fidelity(&self) -> f64 {
        (self.total - self.overdue - self.lost) as f64 / self.total.max(1) as f64
    }

    /// Worst lateness observed (≤ 0 means a perfect replay).
    pub fn max_lateness(&self) -> i64 {
        self.lateness.iter().copied().max().unwrap_or(0)
    }

    /// True iff every packet met its target (`o' ≤ o`).
    pub fn perfect(&self) -> bool {
        self.overdue == 0
    }
}

/// Run the original schedule: install `original` schedulers on every
/// port of `topo` (which must be freshly built with
/// [`TraceLevel::Hops`] and unbounded buffers), inject the UDP workload,
/// run to completion, and extract the recorded schedule.
///
/// `seed` feeds the Random scheduler. SJF-style originals get their
/// priority stamp (`prio = flow size`) from the ingress, as the paper's
/// model requires.
pub fn record_original(
    topo: &mut Topology,
    flows: &[FlowDesc],
    original: SchedKind,
    seed: u64,
    mtu: u32,
) -> RecordedSchedule {
    assert_eq!(
        topo.net.telemetry.level,
        TraceLevel::Hops,
        "recording requires hop-level tracing"
    );
    topo.net.configure_links(|l| {
        LinkPolicy::keep()
            .buffer(None)
            .scheduler(original.build(l.id, seed))
    });
    let prio = if original.needs_priority_stamp() {
        PrioPolicy::FlowSize
    } else {
        PrioPolicy::None
    };
    let mut stamper = HeaderStamper::new(SlackPolicy::None, prio);
    let routes = Arc::clone(&topo.routes);
    ups_transport::inject_udp_flows(&mut topo.net, &routes, flows, mtu, &mut stamper);
    topo.net.run_to_completion();
    RecordedSchedule::from_telemetry(&mut topo.net.telemetry)
}

/// Replay `schedule` on a *fresh* build of the same topology under
/// `mode`, and score it. The build may trace at [`TraceLevel::Delivery`]
/// or [`TraceLevel::Hops`]; the leg records at `Delivery` either way (one
/// row per packet, no hop arena), since scoring reads only each packet's
/// replay exit time. The replay must be loss-free (it asserts so);
/// to score a replay on a chaos-perturbed network, use
/// [`replay_schedule_lossy`].
pub fn replay_schedule(
    topo: &mut Topology,
    schedule: &RecordedSchedule,
    mode: ReplayMode,
) -> ReplayReport {
    replay_classic(topo, schedule, mode, false)
}

/// Like [`replay_schedule`], but tolerant of packet loss: a packet the
/// replay never delivers (dropped by an installed
/// [`ChaosPolicy`](ups_net::ChaosPolicy), e.g.) counts in
/// [`ReplayReport::lost`] and against [`ReplayReport::fidelity`], and is
/// excluded from the lateness and queueing-delay-ratio distributions.
/// On a loss-free run the report is identical to the strict path's.
pub fn replay_schedule_lossy(
    topo: &mut Topology,
    schedule: &RecordedSchedule,
    mode: ReplayMode,
) -> ReplayReport {
    replay_classic(topo, schedule, mode, true)
}

/// The `o(p)`-target candidates: which scheduler each [`ReplayMode`]
/// installs and how it stamps a recorded packet's header.
fn replay_classic(
    topo: &mut Topology,
    schedule: &RecordedSchedule,
    mode: ReplayMode,
    allow_loss: bool,
) -> ReplayReport {
    let hop_table = OnceCell::new(); // built once, shared by every port
    let scheduler = || -> Box<dyn Scheduler> {
        match mode {
            ReplayMode::Lstf { key, .. } => Box::new(lstf_with(key)),
            ReplayMode::Priority => Box::new(priority()),
            ReplayMode::Edf => Box::new(edf()),
            ReplayMode::Omniscient => Box::new(omniscient(Arc::clone(
                hop_table.get_or_init(|| Arc::new(HopTable::of(schedule))),
            ))),
        }
    };
    let preemptive = matches!(
        mode,
        ReplayMode::Lstf {
            preemptive: true,
            ..
        }
    );
    let header = |_: usize, rec: RecordedPacket<'_>| match mode {
        ReplayMode::Lstf { .. } => SchedHeader {
            slack: rec.slack(),
            prio: 0,
        },
        ReplayMode::Priority | ReplayMode::Edf => SchedHeader {
            slack: 0,
            prio: rec.o().as_ps() as i64,
        },
        ReplayMode::Omniscient => SchedHeader::default(),
    };
    replay_with(
        topo, schedule, mode, scheduler, preemptive, header, allow_loss,
    )
}

/// The one replay leg, shared by the `o(p)`-target replays above and
/// the deadline-objective replays ([`crate::deadline`]): re-run the
/// identical recorded input on a fresh `topo` with `scheduler()` on
/// every port and `header` stamping each packet, then score it against
/// the recorded output times. `mode` only labels the report.
///
/// `topo` must trace at least [`TraceLevel::Delivery`]; the leg is set
/// to `Delivery` before the schedule registers, so it keeps one
/// [`PacketRecord`](ups_net::PacketRecord) per packet (which
/// [`deadline_flow_stats`](crate::deadline_flow_stats) also reads) and
/// no hop arena.
pub(crate) fn replay_with(
    topo: &mut Topology,
    schedule: &RecordedSchedule,
    mode: ReplayMode,
    scheduler: impl Fn() -> Box<dyn Scheduler>,
    preemptive: bool,
    header: impl FnMut(usize, RecordedPacket<'_>) -> SchedHeader,
    allow_loss: bool,
) -> ReplayReport {
    assert_ne!(
        topo.net.telemetry.level,
        TraceLevel::Off,
        "replay scoring requires per-packet delivery tracing"
    );
    assert_eq!(
        topo.net.telemetry.counters.injected, 0,
        "replay needs a fresh topology build"
    );
    // Scoring reads each packet's delivery time only: keep one row per
    // packet and no hop arena.
    topo.net.telemetry.level = TraceLevel::Delivery;
    topo.net.configure_links(|_| {
        LinkPolicy::keep()
            .buffer(None)
            .scheduler(scheduler())
            .preemptive(preemptive)
    });
    topo.net
        .run_source(&mut ScheduleSource::new(schedule, header));

    let tel = &topo.net.telemetry;
    if !allow_loss {
        assert_eq!(tel.counters.dropped, 0, "replay must be drop-free");
    }
    let max_size = schedule
        .packets
        .iter()
        .map(|r| r.size)
        .max()
        .unwrap_or(1500);
    let t = topo.net.bottleneck_bw().tx_time(max_size);
    score_replay(schedule, tel, mode, allow_loss, t)
}

/// Score a completed replay run against the recorded schedule: replay
/// packet ids follow the source's registration order, which is exactly
/// the recorded order (telemetry keeps one dense record per packet even
/// for packets that are later dropped). Only each row's delivery time
/// is read.
fn score_replay(
    schedule: &RecordedSchedule,
    tel: &Telemetry,
    mode: ReplayMode,
    allow_loss: bool,
    t: Dur,
) -> ReplayReport {
    assert_eq!(tel.packets.len(), schedule.len());
    let mut lateness = Vec::with_capacity(schedule.len());
    let mut ratios = Vec::new();
    let (mut overdue, mut overdue_gt_t, mut lost) = (0usize, 0usize, 0usize);
    for (rec, rep) in schedule.iter().zip(&tel.packets) {
        let o_replay = match rep.delivered {
            Some(t) => t,
            None if allow_loss => {
                lost += 1;
                continue;
            }
            None => panic!("replay packet undelivered"),
        };
        let late = o_replay.signed_since(rec.o());
        if late > OVERDUE_TOLERANCE_PS {
            overdue += 1;
            if late > t.as_i64() {
                overdue_gt_t += 1;
            }
        }
        lateness.push(late);
        let qdelay = rec.qdelay();
        if qdelay > Dur::ZERO {
            // o'(p) − i(p) − tmin(p): the replay's total queueing delay.
            let replay_qdelay = o_replay.signed_since(rec.i()) - rec.tmin().as_i64();
            ratios.push(replay_qdelay as f64 / qdelay.as_ps() as f64);
        }
    }

    ReplayReport {
        mode,
        total: schedule.len(),
        overdue,
        overdue_gt_t,
        lost,
        t,
        lateness,
        qdelay_ratios: ratios,
    }
}

/// Convenience wrapper: record under `original` on the topology
/// `factory` builds, and replay under `mode` on its
/// [`rewired`](Topology::rewired) copy.
pub fn replay_experiment(
    factory: impl FnOnce() -> Topology,
    flows: &[FlowDesc],
    original: SchedKind,
    mode: ReplayMode,
    seed: u64,
    mtu: u32,
) -> (RecordedSchedule, ReplayReport) {
    let mut orig_topo = factory();
    let schedule = record_original(&mut orig_topo, flows, original, seed, mtu);
    let mut replay_topo = orig_topo.rewired();
    drop(orig_topo);
    let report = replay_schedule(&mut replay_topo, &schedule, mode);
    (schedule, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::FlowId;
    use ups_sim::{Bandwidth, Time};
    use ups_topo::simple::{dumbbell, star};

    #[test]
    fn lstf_labels_are_distinct_and_fit_the_replay_column() {
        let lstf = [false, true].into_iter().flat_map(|preemptive| {
            [LstfKeyMode::LastBit, LstfKeyMode::PureDeadline]
                .map(|key| ReplayMode::Lstf { preemptive, key })
        });
        let labels: Vec<&str> = lstf.map(|m| m.label()).collect();
        let distinct: std::collections::BTreeSet<&str> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "{labels:?}");
        assert!(labels.iter().all(|l| l.chars().count() <= 14), "{labels:?}");
    }

    fn star_factory() -> Topology {
        star(6, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops)
    }

    /// A small contended workload on the star: every other host sends a
    /// paced burst toward host 0, so the hub's egress port to host 0 is
    /// a genuine congestion point.
    fn star_flows(topo: &Topology, pkts: u64) -> Vec<FlowDesc> {
        topo.hosts[1..]
            .iter()
            .enumerate()
            .map(|(i, &src)| FlowDesc {
                id: FlowId(i as u64),
                src,
                dst: topo.hosts[0],
                pkts,
                start: Time::ZERO,
                deadline: None,
            })
            .collect()
    }

    #[test]
    fn fifo_schedule_replays_perfectly_under_lstf_on_a_star() {
        // Star ⇒ at most two congestion points per packet (source NIC and
        // hub egress), so LSTF must replay FIFO perfectly (§2.2 theorem;
        // non-preemptive suffices here because packet sizes are uniform
        // and the workload is synchronized).
        let flows = star_flows(&star_factory(), 5);
        let (schedule, report) = replay_experiment(
            star_factory,
            &flows,
            SchedKind::Fifo,
            ReplayMode::lstf(),
            1,
            1500,
        );
        assert!(schedule.max_congestion_points() <= 2);
        assert!(
            report.perfect(),
            "overdue {}/{} (max lateness {}ps)",
            report.overdue,
            report.total,
            report.max_lateness()
        );
    }

    #[test]
    fn random_schedule_replays_perfectly_with_omniscient() {
        let flows = star_flows(&star_factory(), 8);
        let (_, report) = replay_experiment(
            star_factory,
            &flows,
            SchedKind::Random,
            ReplayMode::Omniscient,
            7,
            1500,
        );
        assert!(report.perfect(), "omniscient must be exact (Appendix B)");
    }

    #[test]
    fn edf_and_lstf_produce_identical_replays() {
        // Appendix E: EDF ≡ LSTF.
        let flows = star_flows(&star_factory(), 6);
        let mut t1 = star_factory();
        let schedule = record_original(&mut t1, &flows, SchedKind::Random, 3, 1500);
        let mut t2 = star_factory();
        let lstf_rep = replay_schedule(&mut t2, &schedule, ReplayMode::lstf());
        let mut t3 = star_factory();
        let edf_rep = replay_schedule(&mut t3, &schedule, ReplayMode::Edf);
        assert_eq!(lstf_rep.lateness, edf_rep.lateness);
    }

    #[test]
    fn replay_of_lifo_on_dumbbell_mostly_meets_targets() {
        let factory = || {
            dumbbell(
                4,
                Bandwidth::gbps(10),
                Bandwidth::gbps(1),
                Dur::from_micros(5),
                TraceLevel::Hops,
            )
        };
        let topo = factory();
        let flows: Vec<FlowDesc> = (0..4)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: topo.hosts[i as usize],
                dst: topo.hosts[4 + i as usize],
                pkts: 20,
                start: Time::from_micros(i * 3),
                deadline: None,
            })
            .collect();
        let (schedule, report) = replay_experiment(
            factory,
            &flows,
            SchedKind::Lifo,
            ReplayMode::lstf(),
            1,
            1500,
        );
        assert_eq!(report.total, 80);
        assert!(schedule.mean_slack() > 0.0);
        // LSTF replay of LIFO is approximate, but the overwhelming
        // majority of packets must meet their targets at this tiny scale.
        assert!(
            report.frac_overdue() < 0.2,
            "frac overdue {}",
            report.frac_overdue()
        );
    }

    #[test]
    fn priority_replay_is_worse_than_lstf_on_shared_paths() {
        // §2.3(7): simple priorities cannot compensate for early delays.
        let factory = || {
            dumbbell(
                6,
                Bandwidth::gbps(10),
                Bandwidth::gbps(1),
                Dur::from_micros(5),
                TraceLevel::Hops,
            )
        };
        let topo = factory();
        let flows: Vec<FlowDesc> = (0..6)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: topo.hosts[i as usize],
                dst: topo.hosts[6 + (i as usize + 1) % 6],
                pkts: 30,
                start: Time::from_micros(i),
                deadline: None,
            })
            .collect();
        let mut t1 = factory();
        let schedule = record_original(&mut t1, &flows, SchedKind::Random, 11, 1500);
        let mut t2 = factory();
        let lstf_rep = replay_schedule(&mut t2, &schedule, ReplayMode::lstf());
        let mut t3 = factory();
        let prio_rep = replay_schedule(&mut t3, &schedule, ReplayMode::Priority);
        assert!(
            prio_rep.overdue >= lstf_rep.overdue,
            "priority {} vs lstf {}",
            prio_rep.overdue,
            lstf_rep.overdue
        );
    }

    #[test]
    fn qdelay_ratios_are_collected() {
        let flows = star_flows(&star_factory(), 6);
        let (_, report) = replay_experiment(
            star_factory,
            &flows,
            SchedKind::Random,
            ReplayMode::lstf(),
            5,
            1500,
        );
        assert!(!report.qdelay_ratios.is_empty());
        assert!(report.qdelay_ratios.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn lossy_lstf_replay_on_the_star_matches_recorded_values() {
        // Lateness, losses and `T` as printed by the commit before the
        // classic and deadline replay legs were merged into `replay_with`.
        let flows = star_flows(&star_factory(), 6);
        let mut orig = star_factory();
        let schedule = record_original(&mut orig, &flows, SchedKind::Random, 3, 1500);
        let mut copy = orig.rewired();
        copy.net.install_chaos(Time::from_millis(1), |_| {
            Some(ups_net::ChaosPolicy::new(9).drop_prob(0.1))
        });
        let report = replay_schedule_lossy(&mut copy, &schedule, ReplayMode::lstf());
        let us12: [i64; 23] = [
            0, -4, -1, -4, -3, 0, 0, -4, -1, -3, -4, 0, -4, -4, -1, -1, -1, 0, 0, 0, -1, -4, -4,
        ];
        assert_eq!(report.lateness, us12.map(|k| k * 12_000_000));
        assert_eq!((report.lost, report.t), (7, Dur::from_micros(12)));
    }
}
