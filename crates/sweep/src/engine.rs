//! The sweep engine: expand a spec into jobs, execute them on the
//! worker pool, and aggregate replicates into per-cell statistics —
//! scalar Table-1 cells ([`run_sweep_with`]) and distribution-payload
//! figure cells ([`run_fig_with`]) alike.

use crate::cell::{CellMetrics, CellPipeline, DistMetrics};
use crate::grid::{CellCoord, FigAxis, FigJob, FigSpec, Job, SimScale, SweepSpec};
use crate::pool::run_indexed;
use ups_core::workload::WorkloadKind;
use ups_metrics::Welford;

/// Mean ± spread of one metric over a cell's seed replicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replicate).
    pub stddev: f64,
    /// Standard error of the mean.
    pub stderr: f64,
}

impl Stat {
    /// Aggregate samples into mean/stddev/stderr (Welford).
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Stat {
        let mut w = Welford::new();
        for x in samples {
            w.push(x);
        }
        Stat {
            mean: w.mean(),
            stddev: w.stddev(),
            stderr: w.stderr(),
        }
    }
}

/// One grid cell's aggregate over its seed replicates.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The grid coordinate.
    pub coord: CellCoord,
    /// Number of seed replicates aggregated.
    pub replicates: usize,
    /// Packets replayed.
    pub total: Stat,
    /// Fraction overdue.
    pub frac_overdue: Stat,
    /// Fraction overdue by more than `T`.
    pub frac_gt_t: Stat,
    /// The threshold `T` in microseconds.
    pub t_us: Stat,
    /// Largest congestion-point count in the original schedule.
    pub max_cp: Stat,
    /// Mean slack (µs) in the original schedule.
    pub mean_slack_us: Stat,
    /// Deadline outcomes, aggregated when every replicate reported them
    /// (i.e. the workload tags flows with completion deadlines).
    pub deadline: Option<DeadlineAgg>,
    /// Chaos outcomes, aggregated when every replicate reported them
    /// (i.e. the cell's [`crate::ChaosSpec`] is enabled).
    pub chaos: Option<ChaosAgg>,
}

/// Per-cell aggregate of the replicates' deadline outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineAgg {
    /// Deadline-tagged flows.
    pub tagged: Stat,
    /// Fraction of tagged flows that finished late or never finished.
    pub miss_rate: Stat,
    /// Mean lateness (µs) over late completions.
    pub mean_lateness_us: Stat,
    /// 99th-percentile lateness (µs, log2-bucket upper bound).
    pub p99_lateness_us: Stat,
}

/// Per-cell aggregate of the replicates' chaos outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosAgg {
    /// Replay fidelity (delivered on time / recorded).
    pub fidelity: Stat,
    /// Fraction of recorded packets lost to the perturbation.
    pub frac_lost: Stat,
    /// Packets destroyed by the chaos layer, summed over links.
    pub chaos_drops: Stat,
    /// Total link down/jam time (µs), summed over links.
    pub outage_us: Stat,
}

/// A completed sweep: spec metadata plus one [`SweepResult`] per cell,
/// in the spec's cell order. Contains no timing or worker-count
/// information, so serializations are byte-identical across `--jobs N`.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Grid name (artifact file stem).
    pub name: String,
    /// Scale label the sweep ran at (`quick`, `full`, ...).
    pub scale: String,
    /// Seed of replicate 0.
    pub base_seed: u64,
    /// Replicates per cell.
    pub replicates: usize,
    /// Per-cell aggregates, in spec order.
    pub results: Vec<SweepResult>,
}

/// Run `spec` with a caller-supplied job runner on up to `jobs` worker
/// threads. The runner must be pure in the job (same job, same metrics)
/// for the determinism guarantee to hold.
pub fn run_sweep_with<F>(spec: &SweepSpec, scale: &str, jobs: usize, runner: F) -> SweepReport
where
    F: Fn(&Job) -> CellMetrics + Sync,
{
    // The field is pub, so guard against a hand-built spec with
    // replicates 0 (chunks() would panic opaquely below).
    let clamped;
    let spec = if spec.replicates == 0 {
        clamped = spec.clone().with_replicates(1);
        &clamped
    } else {
        spec
    };
    let expanded = spec.jobs();
    let measured = run_indexed(&expanded, jobs, |_, job| runner(job));
    aggregate_cells(spec, scale, &measured)
}

/// Aggregate per-replicate metrics (in job order: cell-major,
/// replicate-minor, `spec.replicates` per cell) into the per-cell
/// report. Shared by [`run_sweep_with`] and the telemetry sweep, which
/// measures series alongside the metrics.
pub(crate) fn aggregate_cells(
    spec: &SweepSpec,
    scale: &str,
    measured: &[CellMetrics],
) -> SweepReport {
    let results = spec
        .cells
        .iter()
        .zip(measured.chunks(spec.replicates.max(1)))
        .map(|(&coord, reps)| SweepResult {
            coord,
            replicates: reps.len(),
            total: Stat::of(reps.iter().map(|m| m.total as f64)),
            frac_overdue: Stat::of(reps.iter().map(|m| m.frac_overdue)),
            frac_gt_t: Stat::of(reps.iter().map(|m| m.frac_gt_t)),
            t_us: Stat::of(reps.iter().map(|m| m.t_us)),
            max_cp: Stat::of(reps.iter().map(|m| m.max_cp as f64)),
            mean_slack_us: Stat::of(reps.iter().map(|m| m.mean_slack_us)),
            deadline: reps
                .iter()
                .map(|m| m.deadline)
                .collect::<Option<Vec<_>>>()
                .map(|ds| DeadlineAgg {
                    tagged: Stat::of(ds.iter().map(|d| d.tagged as f64)),
                    miss_rate: Stat::of(ds.iter().map(|d| d.miss_rate)),
                    mean_lateness_us: Stat::of(ds.iter().map(|d| d.mean_lateness_us)),
                    p99_lateness_us: Stat::of(ds.iter().map(|d| d.p99_lateness_us)),
                }),
            chaos: reps
                .iter()
                .map(|m| m.chaos)
                .collect::<Option<Vec<_>>>()
                .map(|cs| ChaosAgg {
                    fidelity: Stat::of(cs.iter().map(|c| c.fidelity)),
                    frac_lost: Stat::of(cs.iter().map(|c| c.frac_lost)),
                    chaos_drops: Stat::of(cs.iter().map(|c| c.chaos_drops as f64)),
                    outage_us: Stat::of(cs.iter().map(|c| c.outage_us)),
                }),
        })
        .collect();
    SweepReport {
        name: spec.name.clone(),
        scale: scale.to_string(),
        base_seed: spec.base_seed,
        replicates: spec.replicates,
        results,
    }
}

/// Run `spec`'s cells through `pipeline` on `workload` traffic at `sim`
/// scale on up to `jobs` worker threads. The aggregate report is
/// byte-identical for any `jobs` value.
pub fn run_sweep(
    spec: &SweepSpec,
    sim: &SimScale,
    jobs: usize,
    workload: WorkloadKind,
    pipeline: CellPipeline,
) -> SweepReport {
    run_sweep_with(spec, sim.label, jobs, |job| {
        pipeline.cell(&job.coord, sim, job.seed, workload)
    })
}

/// One figure series' aggregate over its seed replicates: per-scalar
/// and per-x-point mean ± stddev/stderr.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Series label (the grid coordinate of a figure cell).
    pub series: String,
    /// Number of seed replicates aggregated.
    pub replicates: usize,
    /// Scalar summaries, parallel to [`FigReport::scalar_names`].
    pub scalars: Vec<Stat>,
    /// Plotted points, parallel to the axis' `xs`.
    pub points: Vec<Stat>,
}

/// A completed figure sweep: spec metadata, the shared x-axis, and one
/// [`DistResult`] per series, in spec order. Like [`SweepReport`], it
/// carries no timing or worker-count information, so serializations are
/// byte-identical across `--jobs N`.
#[derive(Debug, Clone)]
pub struct FigReport {
    /// Grid name (artifact file stem).
    pub name: String,
    /// Human title for report headers.
    pub title: String,
    /// Scale label the sweep ran at (`quick`, `full`, ...).
    pub scale: String,
    /// Seed of replicate 0.
    pub base_seed: u64,
    /// Replicates per series.
    pub replicates: usize,
    /// The shared x-axis.
    pub axis: FigAxis,
    /// Names of the scalar summaries.
    pub scalar_names: Vec<String>,
    /// Per-series aggregates, in spec order.
    pub results: Vec<DistResult>,
}

/// Run a figure grid with a caller-supplied job runner on up to `jobs`
/// worker threads, aggregating each series' replicates point-wise.
///
/// The runner must be pure in the job (same job, same payload) for the
/// determinism guarantee to hold, and every payload it returns must
/// have `spec.axis.xs.len()` points and `spec.scalar_names.len()`
/// scalars (checked — a mismatched payload is a programming error that
/// would silently misalign the artifact otherwise).
pub fn run_fig_with<F>(spec: &FigSpec, scale: &str, jobs: usize, runner: F) -> FigReport
where
    F: Fn(&FigJob) -> DistMetrics + Sync,
{
    let clamped;
    let spec = if spec.replicates == 0 {
        clamped = spec.clone().with_replicates(1);
        &clamped
    } else {
        spec
    };
    if let Some(labels) = &spec.axis.labels {
        assert_eq!(
            labels.len(),
            spec.axis.xs.len(),
            "axis labels must parallel xs"
        );
    }
    let expanded = spec.jobs();
    let measured = run_indexed(&expanded, jobs, |_, job| {
        let m = runner(job);
        assert_eq!(
            m.points.len(),
            spec.axis.xs.len(),
            "series `{}` replicate {}: payload has {} points for a {}-point axis",
            spec.series[job.series],
            job.replicate,
            m.points.len(),
            spec.axis.xs.len()
        );
        assert_eq!(
            m.scalars.len(),
            spec.scalar_names.len(),
            "series `{}` replicate {}: payload has {} scalars for {} names",
            spec.series[job.series],
            job.replicate,
            m.scalars.len(),
            spec.scalar_names.len()
        );
        m
    });
    let results = spec
        .series
        .iter()
        .zip(measured.chunks(spec.replicates))
        .map(|(series, reps)| DistResult {
            series: series.clone(),
            replicates: reps.len(),
            scalars: (0..spec.scalar_names.len())
                .map(|i| Stat::of(reps.iter().map(|m| m.scalars[i])))
                .collect(),
            points: (0..spec.axis.xs.len())
                .map(|i| Stat::of(reps.iter().map(|m| m.points[i])))
                .collect(),
        })
        .collect();
    FigReport {
        name: spec.name.clone(),
        title: spec.title.clone(),
        scale: scale.to_string(),
        base_seed: spec.base_seed,
        replicates: spec.replicates,
        axis: spec.axis.clone(),
        scalar_names: spec.scalar_names.clone(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast synthetic runner: metrics derived arithmetically from the
    /// grid coordinates, so engine behavior is testable without the
    /// simulator.
    fn synthetic(job: &Job) -> CellMetrics {
        CellMetrics {
            total: 100 + job.seed as usize,
            frac_overdue: job.coord.util / 2.0 + job.replicate as f64 * 0.01,
            frac_gt_t: job.coord.util / 4.0,
            t_us: 12.0,
            max_cp: job.cell,
            mean_slack_us: 1.0,
            deadline: None,
            chaos: None,
        }
    }

    #[test]
    fn aggregates_replicates_per_cell() {
        let spec = SweepSpec::smoke().with_replicates(3).with_seed(5);
        let report = run_sweep_with(&spec, "test", 2, synthetic);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.replicates, 3);
        let r = &report.results[0];
        assert_eq!(r.replicates, 3);
        // Seeds 5, 6, 7 → totals 105, 106, 107 → mean 106, stddev 1.
        assert_eq!(r.total.mean, 106.0);
        assert!((r.total.stddev - 1.0).abs() < 1e-12);
        // Constant across replicates → zero spread.
        assert_eq!(r.t_us.mean, 12.0);
        assert_eq!(r.t_us.stddev, 0.0);
    }

    #[test]
    fn report_is_identical_for_any_worker_count() {
        let spec = SweepSpec::table1().with_replicates(2);
        let a = run_sweep_with(&spec, "test", 1, synthetic);
        let b = run_sweep_with(&spec, "test", 8, synthetic);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.frac_overdue, y.frac_overdue);
            assert_eq!(x.total, y.total);
            assert_eq!(x.max_cp, y.max_cp);
        }
    }

    #[test]
    fn hand_built_zero_replicates_is_clamped() {
        let mut spec = SweepSpec::smoke();
        spec.replicates = 0; // bypasses the with_replicates clamp
        let report = run_sweep_with(&spec, "test", 1, synthetic);
        assert_eq!(report.replicates, 1);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].replicates, 1);
    }

    fn fig_spec() -> FigSpec {
        FigSpec::new(
            "figtest",
            "Fig test",
            vec!["a".into(), "b".into()],
            FigAxis::numeric("x", vec![0.0, 1.0, 2.0]),
        )
        .with_scalars(&["median"])
    }

    /// Synthetic figure runner: y = series + x·replicate-offset so both
    /// the per-point mean and the spread are predictable.
    fn synthetic_fig(job: &FigJob) -> DistMetrics {
        DistMetrics {
            scalars: vec![10.0 * job.series as f64 + job.seed as f64],
            points: (0..3)
                .map(|x| job.series as f64 + x as f64 * job.replicate as f64)
                .collect(),
        }
    }

    #[test]
    fn fig_engine_aggregates_points_per_series() {
        let spec = fig_spec().with_replicates(2).with_seed(5);
        let report = run_fig_with(&spec, "test", 2, synthetic_fig);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.axis.xs.len(), 3);
        let a = &report.results[0];
        assert_eq!(a.replicates, 2);
        // Series 0, x=2: replicates give 0 and 2 → mean 1, stddev √2.
        assert_eq!(a.points[2].mean, 1.0);
        assert!((a.points[2].stddev - 2f64.sqrt()).abs() < 1e-12);
        // Scalars: seeds 5, 6 → mean 5.5.
        assert_eq!(a.scalars[0].mean, 5.5);
        // x=0 is constant across replicates → zero spread.
        assert_eq!(a.points[0].stddev, 0.0);
    }

    #[test]
    fn fig_report_is_identical_for_any_worker_count() {
        let spec = fig_spec().with_replicates(3);
        let a = run_fig_with(&spec, "test", 1, synthetic_fig);
        let b = run_fig_with(&spec, "test", 8, synthetic_fig);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.series, y.series);
            assert_eq!(x.points, y.points);
            assert_eq!(x.scalars, y.scalars);
        }
    }

    #[test]
    #[should_panic(expected = "points")]
    fn fig_engine_rejects_misaligned_payload() {
        let spec = fig_spec();
        run_fig_with(&spec, "test", 1, |_| DistMetrics {
            scalars: vec![0.0],
            points: vec![1.0], // axis has 3 points
        });
    }

    #[test]
    fn single_replicate_has_zero_spread() {
        let spec = SweepSpec::smoke();
        let report = run_sweep_with(&spec, "test", 4, synthetic);
        for r in &report.results {
            assert_eq!(r.replicates, 1);
            assert_eq!(r.frac_overdue.stddev, 0.0);
            assert_eq!(r.frac_overdue.stderr, 0.0);
        }
    }
}
