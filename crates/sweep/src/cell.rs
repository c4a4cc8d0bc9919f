//! Execution of a single sweep job: record the original schedule, replay
//! it under a candidate UPS, and report the cell's replayability metrics.
//! Two pipelines share this machinery ([`CellPipeline`]): the classic
//! record-under-`coord.sched` / replay-under-LSTF leg, and the deadline
//! leg that records EDF on virtual deadlines and replays under the
//! candidate named by `coord.sched`.

use crate::grid::{CellCoord, SimScale};
use ups_core::deadline::{
    deadline_flow_stats, record_deadline_original, replay_deadline, replay_deadline_lossy,
    DeadlineMode,
};
use ups_core::replay::{
    record_original, replay_schedule, replay_schedule_lossy, ReplayMode, ReplayReport,
};
use ups_core::workload::WorkloadKind;
use ups_core::RecordedSchedule;
use ups_net::Telemetry;
use ups_obs::NetSeries;
use ups_sim::{Dur, Time};
use ups_topo::Topology;
use ups_transport::FlowDesc;

/// Per-replicate measurements of one grid cell, and the row type of
/// `ups-bench`'s single-seed ablation tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Packets replayed.
    pub total: usize,
    /// Fraction overdue.
    pub frac_overdue: f64,
    /// Fraction overdue by more than `T`.
    pub frac_gt_t: f64,
    /// The threshold `T` in microseconds.
    pub t_us: f64,
    /// Largest congestion-point count in the original schedule.
    pub max_cp: usize,
    /// Mean slack (µs) in the original schedule.
    pub mean_slack_us: f64,
    /// Deadline outcomes of the replay, present only when the workload
    /// tagged at least one flow with a completion deadline (so cells of
    /// deadline-free workloads serialize exactly as before).
    pub deadline: Option<DeadlineCell>,
    /// Chaos outcomes of the replay, present only when the cell's
    /// [`crate::ChaosSpec`] is enabled (so clean cells serialize exactly
    /// as before the chaos layer existed).
    pub chaos: Option<ChaosCell>,
}

/// Chaos outcomes of one replicate's replay under the cell's
/// [`crate::ChaosSpec`]: how faithful the perturbed replay stayed, and
/// what the perturbation actually did to the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosCell {
    /// Fraction of recorded packets delivered no later than the
    /// original schedule ([`ReplayReport::fidelity`]).
    pub fidelity: f64,
    /// Fraction of recorded packets lost to the perturbation.
    pub frac_lost: f64,
    /// Packets the chaos layer destroyed (wire drops + failure and jam
    /// kills), summed over every link.
    pub chaos_drops: u64,
    /// Total time links spent down or jammed (µs), summed over links.
    pub outage_us: f64,
}

/// Deadline outcomes of one replicate's replay, computed through
/// [`ups_metrics::DeadlineLedger`] from the workload's `FlowClass`
/// deadlines and the replay's delivery telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineCell {
    /// Deadline-tagged flows in the workload.
    pub tagged: u64,
    /// Tagged flows that finished late or never finished.
    pub missed: u64,
    /// `missed / tagged` (0 when nothing was tagged).
    pub miss_rate: f64,
    /// Mean lateness (µs) over late completions.
    pub mean_lateness_us: f64,
    /// 99th-percentile lateness (µs, log2-bucket upper bound).
    pub p99_lateness_us: f64,
}

/// Per-replicate payload of a distribution-style (figure) cell: the
/// distribution evaluated on the grid's shared x-axis, plus named
/// scalar summaries.
///
/// A figure runner reduces whatever it measured — sorted delay-ratio
/// samples, FCT means per size bucket, tail-delay percentiles, Jain
/// indices per time window — to one `y` per [`crate::FigAxis`] x-point,
/// so replicates of the same series aggregate point-wise into mean ±
/// stddev ([`crate::Stat`]) regardless of how many raw samples each
/// replicate drew.
#[derive(Debug, Clone, PartialEq)]
pub struct DistMetrics {
    /// One value per [`crate::FigSpec::scalar_names`] entry.
    pub scalars: Vec<f64>,
    /// One value per [`crate::FigAxis::xs`] point.
    pub points: Vec<f64>,
}

/// Everything one observed replicate produced: the replay score, the
/// recorded schedule, deadline outcomes (when the workload tagged
/// flows), and — when the leg was given a sampling cadence — the time
/// series sampled during the *original* (record) run, where
/// `coord.sched` actually shapes the queues. The replay leg never
/// samples: it is always LSTF-family, so its series would not vary with
/// the cell's scheduler coordinate.
#[derive(Debug)]
pub struct ObservedRun {
    /// Replay score.
    pub report: ReplayReport,
    /// The recorded original schedule.
    pub schedule: RecordedSchedule,
    /// Deadline outcomes, when the workload tagged flows.
    pub deadline: Option<DeadlineCell>,
    /// Chaos outcomes, when the cell's spec enables perturbation.
    pub chaos: Option<ChaosCell>,
    /// Queue/utilization time series of the record run, when `sample`
    /// was given.
    pub series: Option<NetSeries>,
}

impl ObservedRun {
    /// The replicate's cell metrics, deadline and chaos outcomes included.
    pub fn metrics(&self) -> CellMetrics {
        CellMetrics {
            deadline: self.deadline,
            chaos: self.chaos,
            ..CellMetrics::of(&self.report, &self.schedule)
        }
    }
}

/// The record-and-replay pipeline shared by the sweep engine and
/// `ups-bench`'s runners: record `coord.sched`'s schedule on a fresh
/// topology (`workload` traffic, 1500-byte MTU), take its `rewired()`
/// copy, and replay on that under `mode`. With `sample`, the record run
/// is sampled at that cadence and its series is taken before the
/// topology drops. The replay's delivery telemetry is reduced to
/// deadline outcomes; observing is strictly read-only over both runs. Pure in its arguments — same inputs, same
/// outputs — which is what lets the pool run cells in any order.
pub fn record_and_replay_observed(
    coord: &CellCoord,
    sim: &SimScale,
    seed: u64,
    mode: ReplayMode,
    workload: WorkloadKind,
    sample: Option<Dur>,
) -> ObservedRun {
    observed_leg(
        coord,
        sim,
        seed,
        workload,
        sample,
        |topo, flows| record_original(topo, flows, coord.sched, seed, 1500),
        |topo, schedule, lossy| {
            let replay = if lossy {
                replay_schedule_lossy
            } else {
                replay_schedule
            };
            replay(topo, schedule, mode)
        },
    )
}

/// The one observed leg both pipelines run: build the cell's topology,
/// draw its flows, `record` the original (sampled every `sample`, when
/// given), harvest the sampler series, and `replay` on the
/// [`rewired`](Topology::rewired) copy — strict, or lossy under the
/// cell's chaos policy.
fn observed_leg<S: Into<RecordedSchedule>>(
    coord: &CellCoord,
    sim: &SimScale,
    seed: u64,
    workload: WorkloadKind,
    sample: Option<Dur>,
    record: impl FnOnce(&mut Topology, &[FlowDesc]) -> S,
    replay: impl FnOnce(&mut Topology, &S, bool) -> ReplayReport,
) -> ObservedRun {
    let mut orig_topo = coord.topo.build(sim);
    let flows = workload.build(&orig_topo, coord.util, sim.horizon, seed);
    if let Some(interval) = sample {
        orig_topo.net.enable_sampling(interval);
    }
    let recorded = record(&mut orig_topo, &flows);
    let series = orig_topo.net.take_series();
    // The record leg always runs clean — chaos perturbs the *replay*
    // only, so the degradation curve measures how the recorded schedule
    // survives an unreliable network, not a different schedule.
    let mut replay_topo = orig_topo.rewired();
    drop(orig_topo);
    let (report, chaos) = match coord.chaos.to_policy() {
        None => (replay(&mut replay_topo, &recorded, false), None),
        Some(policy) => {
            // Windows are precomputed to a horizon; replay drains past
            // the arrival horizon, so leave generous headroom.
            let chaos_horizon = Time::ZERO + sim.horizon * 8;
            replay_topo
                .net
                .install_chaos(chaos_horizon, |_| Some(policy.clone()));
            let report = replay(&mut replay_topo, &recorded, true);
            let totals = replay_topo.net.chaos_totals();
            let cell = ChaosCell {
                fidelity: report.fidelity(),
                frac_lost: report.frac_lost(),
                chaos_drops: totals.drops,
                outage_us: totals.outage.as_micros_f64(),
            };
            (report, Some(cell))
        }
    };
    let deadline = deadline_cell(&flows, &replay_topo.net.telemetry);
    ObservedRun {
        report,
        schedule: recorded.into(),
        deadline,
        chaos,
        series,
    }
}

/// Reduce a run's delivery telemetry to deadline outcomes. `None` when
/// the workload tagged no flows — which is what keeps deadline-free
/// artifacts (every committed baseline) byte-identical to before.
/// The flow-completion bookkeeping itself lives in
/// [`ups_core::deadline::deadline_flow_stats`].
fn deadline_cell(flows: &[FlowDesc], telemetry: &Telemetry) -> Option<DeadlineCell> {
    deadline_flow_stats(flows, telemetry).map(|stats| DeadlineCell {
        tagged: stats.tagged,
        missed: stats.missed,
        miss_rate: stats.miss_rate(),
        mean_lateness_us: stats.mean_lateness_us,
        p99_lateness_us: stats.p99_lateness_us,
    })
}

impl CellMetrics {
    /// The canonical reduction of a replay run to cell metrics — the
    /// single home of the unit conversions (T in µs, slack ps → µs),
    /// shared by the sweep engine and `ups-bench`'s row builders.
    pub fn of(report: &ReplayReport, schedule: &RecordedSchedule) -> CellMetrics {
        CellMetrics {
            total: report.total,
            frac_overdue: report.frac_overdue(),
            frac_gt_t: report.frac_overdue_gt_t(),
            t_us: report.t.as_micros_f64(),
            max_cp: schedule.max_congestion_points(),
            mean_slack_us: schedule.mean_slack() / 1e6,
            deadline: None,
            chaos: None,
        }
    }
}

/// Which record-and-replay leg a scenario's cells run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPipeline {
    /// The classic leg: record under the cell's `sched` coordinate (the
    /// original scheduler), replay under non-preemptive LSTF with
    /// `o(p)`-derived slack.
    Replay,
    /// The deadline leg: record under network-wide EDF on per-packet
    /// virtual deadlines, replay under the candidate the cell's `sched`
    /// coordinate names (EDF / LSTF-with-deadline-slack / Priority) —
    /// the coordinate is the *replay* scheduler here, and the artifact's
    /// `original` column carries its label.
    DeadlineReplay,
}

impl CellPipeline {
    /// Run one observed replicate through this pipeline, sampling the
    /// record leg every `sample` when given.
    pub fn observed(
        self,
        coord: &CellCoord,
        sim: &SimScale,
        seed: u64,
        workload: WorkloadKind,
        sample: Option<Dur>,
    ) -> ObservedRun {
        match self {
            CellPipeline::Replay => {
                record_and_replay_observed(coord, sim, seed, ReplayMode::lstf(), workload, sample)
            }
            // Record EDF on virtual deadlines, replay under the candidate
            // named by `coord.sched`.
            CellPipeline::DeadlineReplay => {
                let mode = DeadlineMode::from_sched(coord.sched).unwrap_or_else(|| {
                    panic!(
                        "deadline-replay cells take EDF/LSTF/Priority sched coordinates, got {}",
                        coord.sched.label()
                    )
                });
                observed_leg(
                    coord,
                    sim,
                    seed,
                    workload,
                    sample,
                    |topo, flows| record_deadline_original(topo, flows, 1500),
                    |topo, ds, lossy| {
                        let replay = if lossy {
                            replay_deadline_lossy
                        } else {
                            replay_deadline
                        };
                        replay(topo, ds, mode)
                    },
                )
            }
        }
    }

    /// Run one replicate and reduce it to the cell's metrics.
    pub fn cell(
        self,
        coord: &CellCoord,
        sim: &SimScale,
        seed: u64,
        workload: WorkloadKind,
    ) -> CellMetrics {
        self.observed(coord, sim, seed, workload, None).metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ChaosSpec, TopoKind};
    use ups_sched::SchedKind;
    use ups_topo::internet2::I2Variant;

    fn tiny() -> SimScale {
        SimScale {
            edges_per_core: 2,
            horizon: Dur::from_millis(2),
            fattree_k: 4,
            label: "tiny",
        }
    }

    fn web_cell(coord: &CellCoord, seed: u64) -> CellMetrics {
        CellPipeline::Replay.cell(coord, &tiny(), seed, WorkloadKind::Web)
    }

    #[test]
    fn run_cell_is_deterministic_in_seed() {
        let coord = CellCoord {
            topo: TopoKind::I2(I2Variant::Default1g10g),
            sched: SchedKind::Random,
            util: 0.5,
            chaos: ChaosSpec::OFF,
        };
        let a = web_cell(&coord, 7);
        let b = web_cell(&coord, 7);
        assert!(a.total > 0);
        assert_eq!(a.total, b.total);
        assert_eq!(a.frac_overdue, b.frac_overdue);
        assert_eq!(a.mean_slack_us, b.mean_slack_us);
        assert!(a.chaos.is_none());
        // A different seed draws a different workload.
        let c = web_cell(&coord, 8);
        assert_ne!(a.total, c.total);
    }

    #[test]
    fn sampling_is_an_argument_of_the_record_leg_only() {
        let coord = CellCoord {
            topo: TopoKind::I2(I2Variant::Default1g10g),
            sched: SchedKind::Random,
            util: 0.5,
            chaos: ChaosSpec::OFF,
        };
        let interval = Dur::from_micros(100);
        let run =
            |sample| CellPipeline::Replay.observed(&coord, &tiny(), 7, WorkloadKind::Web, sample);
        let (off, on) = (run(None), run(Some(interval)));
        assert!(off.series.is_none());
        let series = on.series.as_ref().expect("the record leg was sampled");
        assert_eq!(series.interval, interval);
        let links = coord.topo.build(&tiny()).net.links.len() as u64;
        assert_eq!(series.links, links);
        assert!(!series.samples.is_empty());
        assert_eq!(off.metrics(), on.metrics());
    }

    #[test]
    fn chaos_cell_reports_losses_and_leaves_clean_cells_alone() {
        let clean = CellCoord {
            topo: TopoKind::I2(I2Variant::Default1g10g),
            sched: SchedKind::Random,
            util: 0.5,
            chaos: ChaosSpec::OFF,
        };
        let lossy = CellCoord {
            chaos: ChaosSpec::drop(50_000), // 5% — heavy, so losses show
            ..clean
        };
        let a = web_cell(&clean, 7);
        let b = web_cell(&lossy, 7);
        // Chaos perturbs only the replay leg: the recorded schedule (and
        // thus the packet population) is identical across drop rates.
        assert_eq!(a.total, b.total);
        assert_eq!(a.mean_slack_us, b.mean_slack_us);
        let chaos = b.chaos.expect("lossy cell reports chaos outcomes");
        assert!(chaos.chaos_drops > 0);
        assert!(chaos.frac_lost > 0.0);
        assert!(chaos.fidelity < 1.0);
        // Deterministic for a fixed seed.
        let b2 = web_cell(&lossy, 7);
        assert_eq!(b.chaos, b2.chaos);
    }
}
