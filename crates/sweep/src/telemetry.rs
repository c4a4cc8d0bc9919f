//! The `"kind": "telemetry"` sweep artifact: deterministic time series
//! of network state per grid cell.
//!
//! A telemetry sweep runs the same record-and-replay cells as a table
//! sweep, with event-wheel sampling enabled
//! ([`ups_obs::set_sample_interval`]) during the *record* leg — the run
//! where the cell's original scheduler actually shapes the queues. Each
//! replicate's [`NetSeries`] is resampled (last observation carried
//! forward) onto a fixed x-grid of `ceil(2 × horizon / interval)`
//! sample instants, so replicates aggregate point-wise into mean ±
//! stddev exactly like figure points, and the artifact is
//! byte-identical for every `--jobs N`.
//!
//! The artifact is `sweep diff`-compatible by construction: cells carry
//! the `topo`/`original`/`util` coordinate keys, series objects carry
//! `series`, and points carry their own `x` (µs).

// Debug output is not format-stable across toolchains, so no `{:?}` may
// reach an artifact: every `write!`/`writeln!` here goes through an
// explicit Display path. (`format!` is not covered by this lint.)
#![deny(clippy::use_debug)]

use crate::artifact::{csv_field, Json};
use crate::cell::{CellMetrics, CellPipeline};
use crate::engine::{aggregate_cells, Stat, SweepReport};
use crate::grid::{CellCoord, SimScale, SweepSpec};
use crate::pool::run_indexed;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use ups_core::WorkloadKind;
use ups_obs::NetSeries;
use ups_sim::{Dur, Time};

/// The sampled quantities, one series per cell: total queued packets,
/// deepest single queue, packets alive anywhere, and cumulative mean
/// link utilization. Names are the artifact's series keys.
const SERIES_NAMES: [&str; 4] = [
    "queue_pkts_total",
    "queue_pkts_max",
    "in_flight",
    "link_util_mean",
];

/// One sampled quantity of one cell, aggregated across replicates:
/// mean ± stddev per x-grid instant.
#[derive(Debug, Clone)]
pub struct TelemetrySeries {
    /// Series key (one of `queue_pkts_total`, `queue_pkts_max`,
    /// `in_flight`, `link_util_mean`).
    pub name: &'static str,
    /// Per-x aggregates, parallel to [`TelemetryReport::xs_us`].
    pub points: Vec<Stat>,
}

/// One grid cell's telemetry: the four series plus cell metadata.
#[derive(Debug, Clone)]
pub struct TelemetryCell {
    /// The grid coordinate.
    pub coord: CellCoord,
    /// Replicates that produced a series (0 when sampling was compiled
    /// out or disabled).
    pub replicates: usize,
    /// Links in the observed network.
    pub links: u64,
    /// The sampled quantities, in `SERIES_NAMES` order
    /// (`queue_pkts_total`, `queue_pkts_max`, `in_flight`,
    /// `link_util_mean`).
    pub series: Vec<TelemetrySeries>,
}

/// A completed telemetry sweep: the time-series artifact written next
/// to the table artifact as `<grid>_telemetry.json`/`.csv`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Artifact file stem (`<grid>_telemetry`).
    pub name: String,
    /// The grid this telemetry was sampled from.
    pub grid: String,
    /// Scale label the sweep ran at.
    pub scale: String,
    /// Seed of replicate 0.
    pub base_seed: u64,
    /// Seed replicates per cell.
    pub replicates: usize,
    /// Sampling cadence.
    pub interval: Dur,
    /// The fixed x-grid, in µs since simulation start.
    pub xs_us: Vec<f64>,
    /// Per-cell series, in spec order.
    pub cells: Vec<TelemetryCell>,
}

/// Run `spec`'s cells with event-wheel sampling enabled, producing both
/// the ordinary table report and the telemetry artifact.
///
/// Sets the process-wide sample interval for the duration of the sweep
/// and restores the previous value afterwards — callers that flip the
/// global concurrently (tests) must serialize with this.
pub fn run_telemetry_sweep(
    spec: &SweepSpec,
    sim: &SimScale,
    jobs: usize,
    workload: WorkloadKind,
    pipeline: CellPipeline,
    interval: Dur,
) -> (SweepReport, TelemetryReport) {
    assert!(interval > Dur::ZERO, "sampling interval must be positive");
    let clamped;
    let spec = if spec.replicates == 0 {
        clamped = spec.clone().with_replicates(1);
        &clamped
    } else {
        spec
    };
    let previous = ups_obs::sample_interval();
    ups_obs::set_sample_interval(Some(interval));
    let expanded = spec.jobs();
    let measured = run_indexed(&expanded, jobs, |_, job| {
        let run = pipeline.observed(&job.coord, sim, job.seed, workload);
        (run.metrics(), run.series)
    });
    ups_obs::set_sample_interval(previous);

    let (metrics, series): (Vec<CellMetrics>, Vec<Option<NetSeries>>) =
        measured.into_iter().unzip();
    let table = aggregate_cells(spec, sim.label, &metrics);

    // Fixed x-grid: the flow-arrival horizon plus an equal drain tail.
    let count = (2 * sim.horizon.as_ps()).div_ceil(interval.as_ps()).max(1);
    let xs_ps: Vec<u64> = (1..=count).map(|k| k * interval.as_ps()).collect();
    let xs_us: Vec<f64> = xs_ps.iter().map(|&ps| ps as f64 / 1e6).collect();

    let cells = spec
        .cells
        .iter()
        .zip(series.chunks(spec.replicates))
        .map(|(&coord, reps)| {
            let sampled: Vec<&NetSeries> = reps.iter().flatten().collect();
            let series = SERIES_NAMES
                .iter()
                .enumerate()
                .map(|(metric, &name)| TelemetrySeries {
                    name,
                    points: xs_ps
                        .iter()
                        .map(|&ps| Stat::of(sampled.iter().map(|s| eval(s, metric, Time(ps)))))
                        .collect(),
                })
                .collect();
            TelemetryCell {
                coord,
                replicates: sampled.len(),
                links: sampled.first().map_or(0, |s| s.links),
                series,
            }
        })
        .collect();

    let telemetry = TelemetryReport {
        name: format!("{}_telemetry", spec.name),
        grid: spec.name.clone(),
        scale: sim.label.to_string(),
        base_seed: spec.base_seed,
        replicates: spec.replicates,
        interval,
        xs_us,
        cells,
    };
    (table, telemetry)
}

/// Evaluate one sampled quantity at `t` (LOCF; 0 before the first
/// sample — the network starts idle).
fn eval(series: &NetSeries, metric: usize, t: Time) -> f64 {
    match metric {
        0 => series.at(t).map_or(0.0, |s| s.queued_pkts as f64),
        1 => series.at(t).map_or(0.0, |s| s.max_queue_pkts as f64),
        2 => series.at(t).map_or(0.0, |s| s.in_flight as f64),
        _ => series.mean_utilization(t),
    }
}

impl TelemetryReport {
    /// The artifact as a JSON document (ends with a newline).
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let series = c
                    .series
                    .iter()
                    .map(|s| {
                        let points = self
                            .xs_us
                            .iter()
                            .zip(&s.points)
                            .map(|(&x, p)| {
                                Json::obj(vec![
                                    ("x", Json::Num(x)),
                                    ("mean", Json::Num(p.mean)),
                                    ("stddev", Json::Num(p.stddev)),
                                    ("stderr", Json::Num(p.stderr)),
                                ])
                            })
                            .collect();
                        Json::obj(vec![
                            ("series", Json::Str(s.name.to_string())),
                            ("points", Json::Arr(points)),
                        ])
                    })
                    .collect();
                let mut members = vec![
                    ("topo", Json::Str(c.coord.topo.label())),
                    ("original", Json::Str(c.coord.sched.label().to_string())),
                    ("util", Json::Num(c.coord.util)),
                ];
                // The chaos coordinate keeps cells of a chaos grid
                // uniquely keyed for `sweep diff`; clean grids (every
                // committed baseline) keep the pre-chaos schema.
                if c.coord.chaos.enabled() {
                    members.push(("chaos_drop_ppm", Json::UInt(c.coord.chaos.drop_ppm as u64)));
                }
                members.extend([
                    ("replicates", Json::UInt(c.replicates as u64)),
                    ("links", Json::UInt(c.links)),
                    ("series", Json::Arr(series)),
                ]);
                Json::obj(members)
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::Str("telemetry".to_string())),
            ("name", Json::Str(self.name.clone())),
            ("grid", Json::Str(self.grid.clone())),
            ("scale", Json::Str(self.scale.clone())),
            ("base_seed", Json::UInt(self.base_seed)),
            ("replicates", Json::UInt(self.replicates as u64)),
            ("interval_us", Json::Num(self.interval.as_ps() as f64 / 1e6)),
            ("cells", Json::Arr(cells)),
        ])
        .render()
    }

    /// Long-format CSV: one row per (cell, series, x). The
    /// `chaos_drop_ppm` column appears only when some cell is perturbed,
    /// keeping clean-grid CSVs byte-identical to the pre-chaos schema.
    pub fn to_csv(&self) -> String {
        let has_chaos = self.cells.iter().any(|c| c.coord.chaos.enabled());
        let mut out = String::from("topo,original,util,");
        if has_chaos {
            out.push_str("chaos_drop_ppm,");
        }
        out.push_str("series,x_us,mean,stddev,stderr\n");
        for c in &self.cells {
            for s in &c.series {
                for (&x, p) in self.xs_us.iter().zip(&s.points) {
                    write!(
                        out,
                        "{},{},{}",
                        csv_field(&c.coord.topo.label()),
                        csv_field(c.coord.sched.label()),
                        c.coord.util,
                    )
                    .expect("write to String");
                    if has_chaos {
                        write!(out, ",{}", c.coord.chaos.drop_ppm).expect("write to String");
                    }
                    writeln!(
                        out,
                        ",{},{},{},{},{}",
                        s.name, x, p.mean, p.stddev, p.stderr
                    )
                    .expect("write to String");
                }
            }
        }
        out
    }

    /// Write `<dir>/<name>.json` and `<dir>/<name>.csv` (creating `dir`
    /// if needed); returns the two paths.
    pub fn write(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{}.json", self.name));
        let csv_path = dir.join(format!("{}.csv", self.name));
        std::fs::write(&json_path, self.to_json())?;
        std::fs::write(&csv_path, self.to_csv())?;
        Ok((json_path, csv_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_artifacts, DiffOptions};
    use crate::grid::TopoKind;
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

    fn tiny_spec() -> SweepSpec {
        SweepSpec::cartesian(
            "telemetry-test",
            &[TopoKind::I2(I2Variant::Default1g10g)],
            &[SchedKind::Random],
            &[0.5],
        )
        .with_replicates(2)
    }

    /// One end-to-end test owns every assertion that needs the
    /// process-wide sampling global, so nothing here races it.
    #[test]
    fn telemetry_sweep_samples_and_diffs_cleanly() {
        let interval = Dur::from_micros(100);
        let (table, telemetry) = run_telemetry_sweep(
            &tiny_spec(),
            &tiny(),
            2,
            WorkloadKind::Web,
            CellPipeline::Replay,
            interval,
        );
        // Sampling restored the global to its prior (off) state.
        assert_eq!(ups_obs::sample_interval(), None);
        assert_eq!(table.results.len(), 1);
        assert_eq!(telemetry.cells.len(), 1);
        assert_eq!(telemetry.name, "telemetry-test_telemetry");
        // 2 ms horizon, 100 µs cadence → 40 x-points ending at 4 ms.
        assert_eq!(telemetry.xs_us.len(), 40);
        assert_eq!(telemetry.xs_us[0], 100.0);
        assert_eq!(*telemetry.xs_us.last().unwrap(), 4000.0);
        let cell = &telemetry.cells[0];
        assert_eq!(cell.series.len(), 4);
        assert_eq!(cell.replicates, 2);
        assert!(cell.links > 0);
        // The network was busy at some point: some sample saw queued
        // packets or a positive utilization.
        let busy = cell
            .series
            .iter()
            .any(|s| s.points.iter().any(|p| p.mean > 0.0));
        assert!(busy, "every telemetry series is identically zero");
        // The artifact self-diffs clean and parses back.
        let json = telemetry.to_json();
        assert!(json.starts_with("{\n  \"kind\": \"telemetry\""));
        let report = diff_artifacts(&json, &json, &DiffOptions::default()).expect("parses");
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.compared > 0);
        // Worker-count independence: the same sweep on 1 worker
        // serializes byte-identically.
        let (_, again) = run_telemetry_sweep(
            &tiny_spec(),
            &tiny(),
            1,
            WorkloadKind::Web,
            CellPipeline::Replay,
            interval,
        );
        assert_eq!(again.to_json(), json);
        // CSV is aligned.
        let csv = telemetry.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4 * telemetry.xs_us.len());
        for line in &lines {
            assert_eq!(line.split(',').count(), 8);
        }
    }
}
