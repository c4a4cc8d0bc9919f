//! Experiment runners: each returns structured data. The
//! [`EXPERIMENTS`](crate::EXPERIMENTS) table pairs every runner with
//! its printer for `sweep --grid`, and the integration tests call the
//! same functions at a tiny scale.

use crate::scale::Scale;
use ups_core::objectives::Scheme;
use ups_core::replay::{record_original, replay_schedule, ReplayMode};
use ups_core::workload::{default_udp_workload, to_flow_descs, WorkloadKind};
use ups_metrics::{bucket_means, Cdf, FairnessPoint, SizeBuckets};
use ups_net::TraceLevel;
use ups_sched::{LstfKeyMode, SchedKind};
use ups_sim::{Bandwidth, Dur, Time};
use ups_sweep::{run_fig_with, CellMetrics, DistMetrics, FigAxis, FigReport, FigSpec, TopoKind};
use ups_topo::internet2::{self, I2Config, I2Variant};

/// The topology every ablation records and replays on.
pub(crate) const ABLATION_TOPO: TopoKind = TopoKind::I2(I2Variant::Default1g10g);

/// The target core-link utilization of every ablation.
pub(crate) const ABLATION_UTIL: f64 = 0.7;

/// The one record leg of the ablations: record `original`'s schedule on
/// [`ABLATION_TOPO`] at [`ABLATION_UTIL`] (web workload and scheduler
/// seed `scale.seed`, 1,500-byte MTU), then replay it under each of
/// `modes` on a [`rewired`](ups_topo::Topology::rewired) copy. Returns
/// one `(original, mode, metrics)` row per mode.
fn record_once(
    scale: &Scale,
    original: SchedKind,
    modes: &[ReplayMode],
) -> Vec<(SchedKind, ReplayMode, CellMetrics)> {
    let mut orig_topo = ABLATION_TOPO.build(&scale.sim());
    let flows = default_udp_workload(&orig_topo, ABLATION_UTIL, scale.horizon, scale.seed);
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
pub fn fig1_ratio_axis() -> Vec<f64> {
    // i/10 (not i*0.1): the division rounds to the double nearest the
    // decimal, so artifact x values print as `1.2`, not
    // `1.2000000000000002`.
    (0..=20).map(|i| i as f64 / 10.0).collect()
}

/// One Figure-1 cell: record `orig`'s schedule at `seed`, replay it
/// under LSTF, and return the queueing-delay ratio distribution.
pub fn fig1_cell(scale: &Scale, orig: SchedKind, seed: u64) -> Cdf {
    let coord = ups_sweep::CellCoord {
        topo: TopoKind::I2(I2Variant::Default1g10g),
        sched: orig,
        util: 0.7,
        chaos: ups_sweep::ChaosSpec::OFF,
    };
    let run = ups_sweep::record_and_replay_observed(
        &coord,
        &scale.sim(),
        seed,
        ReplayMode::lstf(),
        WorkloadKind::Web,
    );
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
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
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

/// The four Figure-2 schemes (FIFO, SJF, SRPT, LSTF with fs×D slack).
pub fn fig2_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Fifo,
        Scheme::Sjf,
        Scheme::Srpt,
        Scheme::LstfFct {
            d: Dur::from_secs(1),
        },
    ]
}

/// One Figure-2 cell: TCP flows (seed-drawn workload, 5 MB buffers)
/// under `scheme`; scalars `[mean FCT (s), completed flows, total
/// flows]`, one point per size bucket (mean FCT in seconds, 0 for a
/// bucket with no completed flows).
pub fn fig2_cell(scale: &Scale, buckets: &SizeBuckets, scheme: &Scheme, seed: u64) -> DistMetrics {
    let topo = TopoKind::I2(I2Variant::Default1g10g).build(&scale.sim());
    let flows = default_udp_workload(&topo, 0.7, scale.horizon, seed);
    let horizon = Time::ZERO + scale.horizon * 40 + Dur::from_secs(2);
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
/// schema in `ups-sweep`'s crate docs).
pub fn fig2_report(scale: &Scale) -> FigReport {
    let buckets = SizeBuckets::paper_fig2();
    let schemes = fig2_schemes();
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
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
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
    let topo = TopoKind::I2(I2Variant::Default1g10g).build(&scale.sim());
    let flows = default_udp_workload(&topo, 0.7, scale.horizon, seed);
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
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
        fig3_cell(scale, &schemes[job.series], job.seed)
    })
}

/// The seven Figure-4 schemes: FIFO, FQ, and LSTF with virtual-clock
/// slack at five `rest` estimates.
pub fn fig4_schemes() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Fifo, Scheme::Fq];
    for rest_mbps in [1000, 500, 100, 50, 10] {
        schemes.push(Scheme::LstfVc {
            rest: Bandwidth::mbps(rest_mbps),
        });
    }
    schemes
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
pub fn fig4_cell(scale: &Scale, scheme: &Scheme, seed: u64) -> Vec<FairnessPoint> {
    let topo = internet2::build(
        &I2Config {
            variant: I2Variant::Access10g10g,
            core_bw: Bandwidth::gbps(10),
            edges_per_core: scale.edges_per_core,
            core_prop_scale_percent: 10,
            ..Default::default()
        },
        TraceLevel::Delivery,
    );
    let n_flows = (topo.hosts.len() * 9 / 10).max(2);
    let flows = to_flow_descs(&ups_flowgen::long_lived_flows(
        &topo,
        n_flows,
        Dur::from_millis(5),
        seed,
    ));
    let (window, horizon) = fig4_windows();
    ups_core::run_fairness(topo, &flows, scheme, window, horizon, None)
}

/// Figure 4 through the sweep engine: the per-window Jain index with
/// mean ± stddev over seed replicates.
pub fn fig4_report(scale: &Scale) -> FigReport {
    let schemes = fig4_schemes();
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
    run_fig_with(&spec, scale.label, scale.jobs, |job| {
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
pub fn ablation_preempt(scale: &Scale) -> Vec<(SchedKind, ReplayMode, CellMetrics)> {
    [
        SchedKind::Sjf,
        SchedKind::Lifo,
        SchedKind::Fifo,
        SchedKind::Random,
    ]
    .into_iter()
    .flat_map(|original| {
        record_once(
            scale,
            original,
            &[ReplayMode::lstf(), ReplayMode::lstf_preemptive()],
        )
    })
    .collect()
}

/// §2.3(7) + appendices: same original schedule replayed under every
/// candidate UPS.
pub fn ablation_priority(scale: &Scale) -> Vec<(SchedKind, ReplayMode, CellMetrics)> {
    record_once(
        scale,
        SchedKind::Random,
        &[
            ReplayMode::lstf(),
            ReplayMode::Priority,
            ReplayMode::Edf,
            ReplayMode::Omniscient,
        ],
    )
}

/// LSTF key ablation: the last-bit key `enq + slack + tx` (the slack
/// left when the last bit is sent, Appendix D; LSTF ≡ EDF under it) vs
/// the pure deadline `enq + slack`. They order same-size packets alike,
/// so on this uniform 1,500-byte workload the two rows must match.
pub fn ablation_lstf_key(scale: &Scale) -> Vec<(SchedKind, ReplayMode, CellMetrics)> {
    let modes = [LstfKeyMode::LastBit, LstfKeyMode::PureDeadline].map(|key| ReplayMode::Lstf {
        preemptive: false,
        key,
    });
    record_once(scale, SchedKind::Random, &modes)
}

/// §2.2 diagnostic: congestion points per packet across topologies.
pub fn congestion_points(scale: &Scale) -> Vec<(String, Vec<usize>, f64)> {
    [
        TopoKind::I2(I2Variant::Default1g10g),
        TopoKind::I2(I2Variant::Access1g1g),
        TopoKind::I2(I2Variant::Access10g10g),
        TopoKind::RocketFuel,
        TopoKind::FatTree,
    ]
    .into_iter()
    .map(|kind| {
        let mut topo = kind.build(&scale.sim());
        let flows = default_udp_workload(&topo, 0.7, scale.horizon, scale.seed);
        let schedule = record_original(&mut topo, &flows, SchedKind::Random, scale.seed, 1500);
        (
            kind.label(),
            schedule.congestion_point_histogram(),
            schedule.mean_slack() / 1e6,
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            edges_per_core: 2,
            horizon: Dur::from_millis(2),
            fattree_k: 4,
            seed: 7,
            jobs: 1,
            replicates: 1,
            label: "tiny",
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
