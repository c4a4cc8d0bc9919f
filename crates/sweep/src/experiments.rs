//! The paper's figures, ablations and diagnostics as one table.
//!
//! [`EXPERIMENTS`] is what `sweep --grid NAME` resolves after the named
//! grids and the scenario registry. Each entry's `report` runs it at a
//! [`Scale`]; the `sweep` binary prints the [`FigReport`] and writes it
//! as `<name>.json`/`.csv`, the same way for every entry, and
//! `sweep --grid paper` runs Table 1 (the `table1` named grid), then
//! every entry. The runners are public so the integration tests check
//! the same code at a tiny scale.

use crate::cell::{CellMetrics, CellPipeline, DistMetrics};
use crate::engine::{run_fig_with, FigReport};
use crate::grid::{CellCoord, ChaosSpec, FigAxis, FigSpec, TopoKind};
use crate::scale::Scale;
use std::collections::BTreeMap;
use ups_core::objectives::Scheme;
use ups_core::replay::{record_original, replay_schedule, ReplayMode};
use ups_core::workload::WorkloadKind;
use ups_metrics::{bucket_means, Cdf, FairnessPoint, SizeBuckets};
use ups_net::{FlowId, TraceLevel};
use ups_sched::{LstfKeyMode, SchedKind};
use ups_sim::{Bandwidth, Dur, Time};
use ups_topo::internet2::{self, I2Config, I2Variant};
use ups_transport::FlowDesc;

/// One runnable experiment of the paper.
pub struct Experiment {
    /// `--grid` key (kebab-case) and artifact file stem.
    pub name: &'static str,
    /// One-line summary for `scenarios list` and the run header.
    pub title: &'static str,
    /// How to read the report, printed after it (empty for none).
    pub note: &'static str,
    /// Run at the given scale and return the report.
    pub report: fn(&Scale) -> FigReport,
}

/// Every experiment, in the order `paper` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        title: "Figure 1 — CDF of queueing-delay ratio (LSTF replay : original), I2 at 70%",
        note: "Paper: most packets see a *smaller* queueing delay in the\n\
               LSTF replay than in the original (CDF > 0.5 at ratio 1.0).",
        report: fig1_report,
    },
    Experiment {
        name: "fig2",
        title: "Figure 2 — mean FCT by flow size, FIFO/SJF/SRPT/LSTF (TCP, 5 MB buffers)",
        note: "(bucket rows are mean FCT in seconds; a 0 mean marks a\n\
               bucket with no completed flows in a replicate)",
        report: fig2_report,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3 — tail packet delays, FIFO vs LSTF with constant slack (≡ FIFO+)",
        note: "(rows are packet delay in seconds at each percentile;\n\
               the paper's shape: LSTF trades a slightly higher mean for a\n\
               lower tail)",
        report: fig3_report,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 — Jain fairness over time, FIFO/FQ/LSTF@rest (long-lived TCP)",
        note: "",
        report: fig4_report,
    },
    Experiment {
        name: "ablation-preempt",
        title: "§2.3(5) — non-preemptive vs preemptive LSTF on SJF/LIFO/FIFO/Random",
        note: ROWS_NOTE,
        report: ablation_preempt,
    },
    Experiment {
        name: "ablation-priority",
        title: "§2.3(7) — one Random schedule under LSTF, Priority(o), EDF, omniscient",
        note: ROWS_NOTE,
        report: ablation_priority,
    },
    Experiment {
        name: "ablation-lstf-key",
        title: "LSTF key ablation — last-bit vs pure deadline (equal for uniform sizes)",
        note: ROWS_NOTE,
        report: ablation_lstf_key,
    },
    Experiment {
        name: "congestion-points",
        title: "§2.2 diagnostic — congestion points per packet, per topology",
        note: "(rows count the packets of a recorded Random schedule at 70%\n\
               that waited at k congestion points)",
        report: congestion_points,
    },
    Experiment {
        name: "ext-weighted-fairness",
        title: "§3.3 extension — weighted fairness 4:2:1:1 (fixed dumbbell, scale-independent)",
        note: "(rows are delivered bytes per flow by 30 ms; the weighted series\n\
               should split 4:2:1:1, the unweighted one evenly)",
        report: weighted_fairness,
    },
];

/// The ablations' note: what their series and scalars are.
const ROWS_NOTE: &str = "(one series per original / replay mode, each recorded once on\n\
                         I2 1G/10G at 70%; the scalars are the replay's Table-1 metrics)";

/// A report of single-seed series measured up front, aggregated by the
/// figure engine like every other (each stat has zero spread).
fn single_seed(spec: FigSpec, scale: &Scale, series: Vec<DistMetrics>) -> FigReport {
    let spec = spec.with_seed(scale.seed);
    run_fig_with(&spec, scale.sim.label, 1, |job| series[job.series].clone())
}

/// One ablation row: the recorded original, the replay mode, and the
/// replay's metrics.
type Row = (SchedKind, ReplayMode, CellMetrics);

/// An ablation's rows as a report: one series per `(original, mode)`
/// row, its six [`CellMetrics`] numbers as scalars named like the table
/// artifact's columns, on an empty axis.
fn rows_report(name: &str, title: &str, scale: &Scale, rows: Vec<Row>) -> FigReport {
    let (labels, series) = rows
        .into_iter()
        .map(|(original, mode, m)| {
            let scalars = vec![
                m.total as f64,
                m.frac_overdue,
                m.frac_gt_t,
                m.t_us,
                m.max_cp as f64,
                m.mean_slack_us,
            ];
            let label = format!("{} / {}", original.label(), mode.label());
            (
                label,
                DistMetrics {
                    scalars,
                    points: Vec::new(),
                },
            )
        })
        .unzip();
    let axis = FigAxis::numeric("none", Vec::new());
    let spec = FigSpec::new(name, title, labels, axis).with_scalars(&[
        "total_packets",
        "frac_overdue",
        "frac_overdue_gt_t",
        "t_us",
        "max_congestion_points",
        "mean_slack_us",
    ]);
    single_seed(spec, scale, series)
}

/// The topology every ablation records and replays on.
const ABLATION_TOPO: TopoKind = TopoKind::I2(I2Variant::Default1g10g);

/// The target core-link utilization of every ablation.
const ABLATION_UTIL: f64 = 0.7;

/// The one record leg of the ablations: record `original`'s schedule on
/// [`ABLATION_TOPO`] at [`ABLATION_UTIL`] (web workload and scheduler
/// seed `scale.seed`, 1,500-byte MTU), then replay it under each of
/// `modes` on a [`rewired`](ups_topo::Topology::rewired) copy. Returns
/// one `(original, mode, metrics)` row per mode.
fn record_once(scale: &Scale, original: SchedKind, modes: &[ReplayMode]) -> Vec<Row> {
    let mut orig_topo = ABLATION_TOPO.build(&scale.sim);
    let flows = WorkloadKind::Web.build(&orig_topo, ABLATION_UTIL, scale.sim.horizon, scale.seed);
    let schedule = record_original(&mut orig_topo, &flows, original, scale.seed, 1500);
    modes
        .iter()
        .map(|&mode| {
            let report = replay_schedule(&mut orig_topo.rewired(), &schedule, mode);
            (original, mode, CellMetrics::of(&report, &schedule))
        })
        .collect()
}

/// The six original schedulers Figure 1 replays.
pub fn fig1_originals() -> [SchedKind; 6] {
    [
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::Fq,
        SchedKind::Sjf,
        SchedKind::Lifo,
        SchedKind::FqFifoPlusMix,
    ]
}

/// The fixed ratio grid Figure 1's artifact samples the CDF on
/// (0.0 to 2.0 in steps of 0.1 — the paper's plotted range).
fn fig1_ratio_axis() -> Vec<f64> {
    // i/10 (not i*0.1): the division rounds to the double nearest the
    // decimal, so artifact x values print as `1.2`, not
    // `1.2000000000000002`.
    (0..=20).map(|i| i as f64 / 10.0).collect()
}

/// One Figure-1 cell: record `orig`'s schedule at `seed`, replay it
/// under LSTF, and return the queueing-delay ratio distribution.
pub fn fig1_cell(scale: &Scale, orig: SchedKind, seed: u64) -> Cdf {
    let coord = CellCoord {
        topo: TopoKind::I2(I2Variant::Default1g10g),
        sched: orig,
        util: 0.7,
        chaos: ChaosSpec::OFF,
    };
    let run = CellPipeline::Replay.observed(&coord, &scale.sim, seed, WorkloadKind::Web, None);
    Cdf::new(run.report.qdelay_ratios)
}

/// Figure 1 through the sweep engine: every original scheduler ×
/// `scale.replicates` seed replicates on `scale.jobs` workers, the CDF
/// evaluated on the fixed ratio axis with mean ± stddev per point.
pub fn fig1_report(scale: &Scale) -> FigReport {
    let originals = fig1_originals();
    let xs = fig1_ratio_axis();
    let spec = FigSpec::new(
        "fig1",
        "Figure 1 — CDF of queueing-delay ratio (LSTF replay : original)",
        originals.iter().map(|o| o.label().to_string()).collect(),
        FigAxis::numeric("ratio", xs.clone()),
    )
    .with_scalars(&["packets", "median", "p90"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.sim.label, scale.jobs, |job| {
        let cdf = fig1_cell(scale, originals[job.series], job.seed);
        if cdf.is_empty() {
            return DistMetrics {
                scalars: vec![0.0; 3],
                points: vec![0.0; xs.len()],
            };
        }
        DistMetrics {
            scalars: vec![cdf.len() as f64, cdf.quantile(0.5), cdf.quantile(0.9)],
            points: cdf.at_many(&xs),
        }
    })
}

/// One Figure-2 cell: TCP flows (seed-drawn workload, 5 MB buffers)
/// under `scheme`; scalars `[mean FCT (s), completed flows, total
/// flows]`, one point per size bucket (mean FCT in seconds, 0 for a
/// bucket with no completed flows).
fn fig2_cell(scale: &Scale, buckets: &SizeBuckets, scheme: &Scheme, seed: u64) -> DistMetrics {
    let topo = TopoKind::I2(I2Variant::Default1g10g).build(&scale.sim);
    let flows = WorkloadKind::Web.build(&topo, 0.7, scale.sim.horizon, seed);
    let horizon = Time::ZERO + scale.sim.horizon * 40 + Dur::from_secs(2);
    let buffer = 5_000_000; // 5 MB, as in §3.1
    let res = ups_core::run_fct(topo, &flows, scheme, buffer, horizon);
    let done: Vec<_> = res.iter().filter(|r| r.completed.is_some()).collect();
    let sizes: Vec<u64> = done.iter().map(|r| r.desc.pkts).collect();
    let fcts: Vec<f64> = done
        .iter()
        .map(|r| r.fct().expect("completed").as_secs_f64())
        .collect();
    let mean = if fcts.is_empty() {
        0.0
    } else {
        fcts.iter().sum::<f64>() / fcts.len() as f64
    };
    DistMetrics {
        scalars: vec![mean, done.len() as f64, res.len() as f64],
        points: bucket_means(buckets, &sizes, &fcts)
            .into_iter()
            .map(|(mean, _)| mean)
            .collect(),
    }
}

/// Figure 2 through the sweep engine: per-bucket mean FCT with mean ±
/// stddev over seed replicates. Buckets with no completed flows in a
/// replicate contribute 0 to that replicate's point (see the artifact
/// schema in the crate docs).
pub fn fig2_report(scale: &Scale) -> FigReport {
    let buckets = SizeBuckets::paper_fig2();
    // FIFO, SJF, SRPT, and LSTF with fs×D slack.
    let d = Dur::from_secs(1);
    let schemes = [
        Scheme::Fifo,
        Scheme::Sjf,
        Scheme::Srpt,
        Scheme::LstfFct { d },
    ];
    let labels = (0..buckets.count()).map(|b| buckets.label(b)).collect();
    let spec = FigSpec::new(
        "fig2",
        "Figure 2 — mean FCT by flow size (TCP, 5 MB buffers)",
        schemes.iter().map(|s| s.label()).collect(),
        FigAxis::categorical("bucket_pkts", labels),
    )
    .with_scalars(&["mean_fct_s", "completed_flows", "total_flows"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.sim.label, scale.jobs, |job| {
        fig2_cell(scale, &buckets, &schemes[job.series], job.seed)
    })
}

/// The two Figure-3 schemes: FIFO vs LSTF with constant slack (≡ FIFO+).
pub fn fig3_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Fifo,
        Scheme::LstfConst {
            slack: Dur::from_secs(1),
        },
    ]
}

/// The percentiles Figure 3's artifact reports tail delay at.
pub fn fig3_percentile_axis() -> Vec<f64> {
    vec![50.0, 90.0, 95.0, 99.0, 99.9, 100.0]
}

/// One Figure-3 cell: per-packet delays under `scheme` on a seed-drawn
/// open-loop UDP workload (identical load across schemes at one seed);
/// scalars `[mean delay (s), packets]`, one point per
/// [`fig3_percentile_axis`] percentile. An empty workload (e.g.
/// `--horizon-ms 0`) yields all zeros rather than a quantile panic.
pub fn fig3_cell(scale: &Scale, scheme: &Scheme, seed: u64) -> DistMetrics {
    let topo = TopoKind::I2(I2Variant::Default1g10g).build(&scale.sim);
    let flows = WorkloadKind::Web.build(&topo, 0.7, scale.sim.horizon, seed);
    let delays = ups_core::run_tail_delays(topo, &flows, scheme, 1500, None);
    let cdf = Cdf::new(delays);
    let ps: Vec<f64> = fig3_percentile_axis().iter().map(|&p| p / 100.0).collect();
    if cdf.is_empty() {
        return DistMetrics {
            scalars: vec![0.0; 2],
            points: vec![0.0; ps.len()],
        };
    }
    DistMetrics {
        scalars: vec![cdf.mean(), cdf.len() as f64],
        points: cdf.quantiles(&ps),
    }
}

/// Figure 3 through the sweep engine: delay at fixed percentiles with
/// mean ± stddev over seed replicates.
pub fn fig3_report(scale: &Scale) -> FigReport {
    let schemes = fig3_schemes();
    let spec = FigSpec::new(
        "fig3",
        "Figure 3 — tail packet delay percentiles, FIFO vs LSTF(const)",
        schemes.iter().map(|s| s.label()).collect(),
        FigAxis::numeric("percentile", fig3_percentile_axis()),
    )
    .with_scalars(&["mean_s", "packets"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.sim.label, scale.jobs, |job| {
        fig3_cell(scale, &schemes[job.series], job.seed)
    })
}

/// Figure 4's measurement windows: 1 ms windows over a 20 ms horizon
/// (fixed — convergence behavior, not workload volume, is the subject).
fn fig4_windows() -> (Dur, Time) {
    (Dur::from_millis(1), Time::from_millis(20))
}

/// One Figure-4 cell: the Jain-index time series for long-lived TCP
/// flows (jittered starts drawn from `seed`) under `scheme`.
///
/// Per the paper: Internet2 with 10 Gbps edges so all congestion is in
/// the core, shortened propagation delays, jittered flow starts, and
/// LSTF slack from the virtual-clock rule at several `rest` estimates.
fn fig4_cell(scale: &Scale, scheme: &Scheme, seed: u64) -> Vec<FairnessPoint> {
    let topo = internet2::build(
        &I2Config {
            variant: I2Variant::Access10g10g,
            core_bw: Bandwidth::gbps(10),
            edges_per_core: scale.sim.edges_per_core,
            core_prop_scale_percent: 10,
            ..Default::default()
        },
        TraceLevel::Delivery,
    );
    let n_flows = (topo.hosts.len() * 9 / 10).max(2);
    let flows = ups_flowgen::long_lived_flows(&topo, n_flows, Dur::from_millis(5), seed);
    let (window, horizon) = fig4_windows();
    ups_core::run_fairness(topo, &flows, scheme, window, horizon, None)
}

/// Figure 4 through the sweep engine: the per-window Jain index with
/// mean ± stddev over seed replicates.
pub fn fig4_report(scale: &Scale) -> FigReport {
    // FIFO, FQ, and LSTF with virtual-clock slack at five `rest` estimates.
    let vc = [1000, 500, 100, 50, 10].map(|mbps| Scheme::LstfVc {
        rest: Bandwidth::mbps(mbps),
    });
    let schemes: Vec<Scheme> = [Scheme::Fifo, Scheme::Fq].into_iter().chain(vc).collect();
    let (window, horizon) = fig4_windows();
    // div_ceil, matching ups_metrics::throughput_fairness_series — a
    // floor here would desync the axis from the payload length if the
    // horizon ever stops being a multiple of the window.
    let n_windows = horizon.as_ps().div_ceil(window.as_ps()) as usize;
    let xs: Vec<f64> = (1..=n_windows).map(|w| w as f64).collect();
    let spec = FigSpec::new(
        "fig4",
        "Figure 4 — Jain fairness index over time (long-lived TCP)",
        schemes.iter().map(|s| s.label()).collect(),
        FigAxis::numeric("t_ms", xs),
    )
    .with_scalars(&["jain_final", "jain_mean"])
    .with_replicates(scale.replicates)
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.sim.label, scale.jobs, |job| {
        let pts = fig4_cell(scale, &schemes[job.series], job.seed);
        let jains: Vec<f64> = pts.iter().map(|p| p.jain).collect();
        let mean = jains.iter().sum::<f64>() / jains.len() as f64;
        DistMetrics {
            scalars: vec![*jains.last().expect("windows"), mean],
            points: jains,
        }
    })
}

/// §2.3(5): non-preemptive vs preemptive LSTF on the hardest originals,
/// each original recorded once.
pub fn ablation_preempt(scale: &Scale) -> FigReport {
    let modes = [ReplayMode::lstf(), ReplayMode::lstf_preemptive()];
    let rows = [
        SchedKind::Sjf,
        SchedKind::Lifo,
        SchedKind::Fifo,
        SchedKind::Random,
    ]
    .into_iter()
    .flat_map(|original| record_once(scale, original, &modes));
    let title = "Non-preemptive vs preemptive LSTF";
    rows_report("ablation-preempt", title, scale, rows.collect())
}

/// §2.3(7) + appendices: same original schedule replayed under every
/// candidate UPS.
pub fn ablation_priority(scale: &Scale) -> FigReport {
    let modes = [
        ReplayMode::lstf(),
        ReplayMode::Priority,
        ReplayMode::Edf,
        ReplayMode::Omniscient,
    ];
    let rows = record_once(scale, SchedKind::Random, &modes);
    let title = "LSTF vs Priority(o) vs EDF vs Omniscient";
    rows_report("ablation-priority", title, scale, rows)
}

/// LSTF key ablation: the last-bit key `enq + slack + tx` (the slack
/// left when the last bit is sent, Appendix D; LSTF ≡ EDF under it) vs
/// the pure deadline `enq + slack`. They order same-size packets alike,
/// so on this uniform 1,500-byte workload the two rows must match.
pub fn ablation_lstf_key(scale: &Scale) -> FigReport {
    let modes = [LstfKeyMode::LastBit, LstfKeyMode::PureDeadline].map(|key| ReplayMode::Lstf {
        preemptive: false,
        key,
    });
    let rows = record_once(scale, SchedKind::Random, &modes);
    rows_report(
        "ablation-lstf-key",
        "Last-bit vs pure deadline",
        scale,
        rows,
    )
}

/// §2.2 diagnostic: one series per topology, counting the packets of
/// a recorded Random schedule at 70% by the number of congestion points
/// they waited at (`cp0`, `cp1`, …, zero-padded to the longest
/// histogram), with the schedule's mean slack as a scalar.
pub fn congestion_points(scale: &Scale) -> FigReport {
    let topos = [
        TopoKind::I2(I2Variant::Default1g10g),
        TopoKind::I2(I2Variant::Access1g1g),
        TopoKind::I2(I2Variant::Access10g10g),
        TopoKind::RocketFuel,
        TopoKind::FatTree,
    ];
    let recorded: Vec<_> = topos
        .iter()
        .map(|kind| {
            let mut topo = kind.build(&scale.sim);
            let flows = WorkloadKind::Web.build(&topo, 0.7, scale.sim.horizon, scale.seed);
            let schedule = record_original(&mut topo, &flows, SchedKind::Random, scale.seed, 1500);
            let slack_us = schedule.mean_slack() / 1e6;
            (schedule.congestion_point_histogram(), slack_us)
        })
        .collect();
    let k = recorded
        .iter()
        .map(|(hist, _)| hist.len())
        .max()
        .unwrap_or(0);
    let axis = FigAxis::categorical(
        "congestion_points",
        (0..k).map(|i| format!("cp{i}")).collect(),
    );
    let labels = topos.iter().map(|t| t.label()).collect();
    let title = "Congestion points per packet, per topology";
    let spec =
        FigSpec::new("congestion-points", title, labels, axis).with_scalars(&["mean_slack_us"]);
    let series = recorded.into_iter().map(|(hist, slack_us)| DistMetrics {
        scalars: vec![slack_us],
        points: (0..k)
            .map(|i| hist.get(i).map_or(0.0, |&n| n as f64))
            .collect(),
    });
    single_seed(spec, scale, series.collect())
}

/// §3.3: "we can also extend the slack assignment heuristic to achieve
/// weighted fairness by using different values of rest for different
/// flows, in proportion to the desired weights". Four long-lived flows
/// share a 1 Gbps bottleneck; under weights 4:2:1:1 their delivered
/// bytes by 30 ms should split proportionally, and under one `rest` for
/// all (the contrast series) evenly. The dumbbell and horizon are fixed,
/// so `scale` sets only the worker count and the report's labels.
pub fn weighted_fairness(scale: &Scale) -> FigReport {
    let base = Bandwidth::mbps(50);
    let weights: BTreeMap<FlowId, f64> = (0..).map(FlowId).zip([4.0, 2.0, 1.0, 1.0]).collect();
    let schemes = [
        Scheme::LstfVcWeighted { base, weights },
        Scheme::LstfVc { rest: base },
    ];
    let spec = FigSpec::new(
        "ext-weighted-fairness",
        "Weighted fairness — delivered bytes per flow, LSTF@50Mbps",
        vec!["weighted 4:2:1:1".to_string(), "unweighted".to_string()],
        FigAxis::numeric("flow", vec![0.0, 1.0, 2.0, 3.0]),
    )
    .with_seed(scale.seed);
    run_fig_with(&spec, scale.sim.label, scale.jobs, |job| {
        let topo = ups_topo::simple::dumbbell(
            4,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(20),
            TraceLevel::Delivery,
        );
        let flows: Vec<FlowDesc> = (0..4)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: topo.hosts[i as usize],
                dst: topo.hosts[4 + i as usize],
                pkts: u64::MAX / 2,
                start: Time::from_micros(i * 13),
                deadline: None,
            })
            .collect();
        let scheme = &schemes[job.series];
        let bytes = ups_core::run_goodput(topo, &flows, scheme, Time::from_millis(30), None);
        DistMetrics {
            scalars: Vec::new(),
            points: bytes.into_iter().map(|b| b as f64).collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SimScale;

    fn tiny() -> Scale {
        Scale {
            sim: SimScale {
                edges_per_core: 2,
                horizon: Dur::from_millis(2),
                fattree_k: 4,
                label: "tiny",
            },
            seed: 7,
            jobs: 1,
            replicates: 1,
        }
    }

    #[test]
    fn replay_row_has_sane_fields() {
        let rows = record_once(&tiny(), SchedKind::Random, &[ReplayMode::lstf()]);
        let [(original, mode, m)] = rows[..] else {
            panic!("one row per mode, got {}", rows.len())
        };
        assert_eq!((original, mode), (SchedKind::Random, ReplayMode::lstf()));
        assert!(m.total > 0);
        assert!(m.frac_overdue <= 1.0);
        assert!(m.frac_gt_t <= m.frac_overdue);
        assert!(
            (m.t_us - 12.0).abs() < 1e-9,
            "T must be 12us, got {}",
            m.t_us
        );
    }

    #[test]
    fn fig1_report_matches_single_run_at_one_replicate() {
        // With one replicate the sweep path must reproduce a direct
        // serial run exactly — same seed, same cells, same CDF values.
        let scale = tiny();
        let report = fig1_report(&scale);
        let direct = fig1_originals().map(|o| (o.label(), fig1_cell(&scale, o, scale.seed)));
        assert_eq!(report.results.len(), direct.len());
        let xs = fig1_ratio_axis();
        for (r, (label, cdf)) in report.results.iter().zip(&direct) {
            assert_eq!(&r.series, label);
            assert_eq!(r.replicates, 1);
            for (s, &x) in r.points.iter().zip(&xs) {
                assert_eq!(s.mean, cdf.at(x), "{label} at ratio {x}");
                assert_eq!(s.stddev, 0.0);
            }
        }
    }

    #[test]
    fn fig3_report_aggregates_replicates() {
        // fig3 is the cheapest multi-scheme figure (two open-loop UDP
        // runs per replicate), so it carries the multi-replicate wiring
        // check; fig4's 20 ms TCP sims would cost ~50s here.
        let mut scale = tiny();
        scale.replicates = 2;
        scale.jobs = 2;
        let report = fig3_report(&scale);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.axis.xs, fig3_percentile_axis());
        for r in &report.results {
            assert_eq!(r.replicates, 2);
            // Percentile curve is monotone in the mean.
            for w in r.points.windows(2) {
                assert!(w[0].mean <= w[1].mean, "{}: non-monotone", r.series);
            }
            // Two seeds draw different workloads → different packet
            // counts → nonzero spread on the count scalar.
            assert!(r.scalars[1].mean > 0.0, "{}: no packets", r.series);
            assert!(
                r.scalars[1].stddev > 0.0,
                "{}: replicates did not vary the seed",
                r.series
            );
        }
    }

    #[test]
    fn omniscient_is_perfect_on_i2() {
        let rows = record_once(&tiny(), SchedKind::Random, &[ReplayMode::Omniscient]);
        assert!(rows[0].2.total > 0);
        assert_eq!(rows[0].2.frac_overdue, 0.0, "Appendix B violated");
    }
}
