//! The four benchmark workloads: what one pass of each runs, through
//! the product's one-call paths, and how its outputs are checked.
//!
//! One pass = the workload's full cell list once, from topology build
//! to rendered artifact strings. `--seed` becomes the sweep's
//! `base_seed`; the product only ever sees generated inputs.

use crate::stats::digest;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use ups_bench::Scale;
use ups_core::objectives::Scheme;
use ups_core::to_flow_descs;
use ups_metrics::FairnessPoint;
use ups_net::TraceLevel;
use ups_sim::{Bandwidth, Dur, Time};
use ups_sweep::{
    run_fig_with, run_sweep_with, scenario, CellMetrics, CellPipeline, DistMetrics, FigAxis,
    FigReport, FigSpec, Json, Scenario, SimScale, SweepReport, SweepSpec,
};
use ups_topo::internet2::{self, I2Config, I2Variant};
use ups_topo::Topology;
use ups_transport::FlowDesc;

/// A benchmark workload. `why` is the line `BENCHMARK.json` carries;
/// the README has the long form.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Wall milliseconds of one pass on the reference box (2 cores),
    /// frozen when the benchmark was defined. The number of timed
    /// passes of a run is `--seconds` over this, so it depends on the
    /// flag alone and both sides of an A/B do identical work.
    pub nominal_pass_ms: u64,
    pub kind: Kind,
}

pub enum Kind {
    /// Cells of a registry scenario through the sweep engine.
    Sweep {
        scenario: &'static str,
        replicates: usize,
        /// Keep only these `(original label, drop ppm)` cells; `None`
        /// keeps the scenario's whole grid.
        cells: Option<&'static [(&'static str, u32)]>,
    },
    /// The Figure 4 set-up: long-lived Reno flows, closed loop.
    Fairness,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dc-k8-web-chaos",
        why: "event loop bound (net+sim+sched ~95%): k=8 fat-tree, FIFO fast path cell and Random+loss boxed-scheduler cell",
        nominal_pass_ms: 3900,
        kind: Kind::Sweep {
            scenario: "dc-k8-web-chaos",
            replicates: 2,
            cells: Some(&[("FIFO", 0), ("Random", 1000)]),
        },
    },
    Workload {
        name: "rocketfuel-full",
        why: "set-up bound: topology build, route freeze and flowgen are ~95% of the pass, the event loop <5%",
        nominal_pass_ms: 1900,
        kind: Kind::Sweep {
            scenario: "rocketfuel-full",
            replicates: 1,
            cells: None,
        },
    },
    Workload {
        name: "i2-deadline-replay",
        why: "30 small cache-resident cells through the deadline pipeline; per-cell fixed cost, aggregation and artifact rendering show only here",
        nominal_pass_ms: 700,
        kind: Kind::Sweep {
            scenario: "i2-deadline-replay",
            replicates: 2,
            cells: None,
        },
    },
    Workload {
        name: "i2-tcp-fairness",
        why: "closed loop: Reno flows, timers, ACKs; the only scheduler-bound row (LSTF queues thousands deep) beside its FIFO bypass cell",
        nominal_pass_ms: 3500,
        kind: Kind::Fairness,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The repo root: the harness reads `baselines/` and `BENCHMARK.json`
/// there and writes under `benchmark/out/`.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
}

/// The scale every workload runs at (the committed baselines' scale).
pub fn quick() -> SimScale {
    Scale::quick().sim()
}

// ---------------------------------------------------------------------
// Fairness (Figure 4) set-up
// ---------------------------------------------------------------------

pub const FAIRNESS_WINDOW: Dur = Dur::from_millis(1);
pub const FAIRNESS_HORIZON: Time = Time::from_millis(6);
pub const FAIRNESS_JITTER: Dur = Dur::from_millis(5);

/// The two fairness cells: FIFO bypasses the ordered queue, LSTF with
/// virtual-clock slack is the mechanism.
pub fn fairness_schemes() -> [Scheme; 2] {
    [
        Scheme::Fifo,
        Scheme::LstfVc {
            rest: Bandwidth::gbps(1),
        },
    ]
}

/// Internet2 with 10 Gbps access and core and core delays cut to 10%,
/// so all congestion is in the core.
pub fn fairness_topo(sim: &SimScale, level: TraceLevel) -> Topology {
    internet2::build(
        &I2Config {
            variant: I2Variant::Access10g10g,
            core_bw: Bandwidth::gbps(10),
            edges_per_core: sim.edges_per_core,
            core_prop_scale_percent: 10,
            ..Default::default()
        },
        level,
    )
}

/// Long-lived flows from nine tenths of the hosts, starts jittered
/// from `seed`.
pub fn fairness_flows(topo: &Topology, seed: u64) -> Vec<FlowDesc> {
    let n = (topo.hosts.len() * 9 / 10).max(2);
    to_flow_descs(&ups_flowgen::long_lived_flows(
        topo,
        n,
        FAIRNESS_JITTER,
        seed,
    ))
}

pub fn fairness_spec(seed: u64) -> FigSpec {
    let windows = FAIRNESS_HORIZON.as_ps().div_ceil(FAIRNESS_WINDOW.as_ps());
    FigSpec::new(
        "i2-tcp-fairness",
        "Jain fairness index over time (long-lived TCP, FIFO vs LSTF)",
        fairness_schemes().iter().map(Scheme::label).collect(),
        FigAxis::numeric("t_ms", (1..=windows).map(|w| w as f64).collect()),
    )
    .with_scalars(&["jain_final", "jain_mean"])
    .with_seed(seed)
}

/// Reduce a Jain series to the figure payload of one fairness cell.
pub fn fairness_payload(points: &[FairnessPoint]) -> DistMetrics {
    let jains: Vec<f64> = points.iter().map(|p| p.jain).collect();
    let mean = jains.iter().sum::<f64>() / jains.len().max(1) as f64;
    DistMetrics {
        scalars: vec![jains.last().copied().unwrap_or(0.0), mean],
        points: jains,
    }
}

fn fairness_cell(sim: &SimScale, scheme: &Scheme, seed: u64) -> DistMetrics {
    let flows = fairness_flows(&fairness_topo(sim, TraceLevel::Delivery), seed);
    let points = ups_core::run_fairness(
        fairness_topo(sim, TraceLevel::Delivery),
        &flows,
        scheme,
        FAIRNESS_WINDOW,
        FAIRNESS_HORIZON,
        None,
    );
    fairness_payload(&points)
}

// ---------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------

/// The typed result of a pass, for the invariant checks.
pub enum Report {
    Table(SweepReport),
    Figure(FigReport),
}

/// Everything one pass produced.
pub struct PassOutput {
    /// Rendered artifact strings in a fixed order: table JSON and CSV
    /// (then figure JSON and CSV where the scenario has a figure), or
    /// figure JSON and CSV for the fairness workload.
    pub artifacts: Vec<String>,
    pub report: Report,
    pub cell_runs: u64,
    /// Cell-runs that panicked.
    pub failed: u64,
}

impl PassOutput {
    pub fn digest(&self) -> u64 {
        digest(&self.artifacts)
    }

    pub fn artifact_bytes(&self) -> u64 {
        self.artifacts.iter().map(|a| a.len() as u64).sum()
    }
}

/// A workload bound to a seed: the cell list of every pass.
pub enum Plan {
    Sweep {
        scenario: &'static Scenario,
        spec: SweepSpec,
    },
    Fairness {
        spec: FigSpec,
    },
}

impl Plan {
    pub fn new(w: &Workload, seed: u64) -> Plan {
        match w.kind {
            Kind::Sweep {
                scenario: name,
                replicates,
                cells,
            } => {
                let scenario = scenario::find(name).expect("workload names a registered scenario");
                let mut spec = scenario.spec().with_replicates(replicates).with_seed(seed);
                if let Some(keep) = cells {
                    spec.cells.retain(|c| {
                        keep.iter().any(|&(sched, ppm)| {
                            c.sched.label() == sched && c.chaos.drop_ppm == ppm
                        })
                    });
                    assert_eq!(spec.cells.len(), keep.len(), "cell filter matches the grid");
                }
                Plan::Sweep { scenario, spec }
            }
            Kind::Fairness => Plan::Fairness {
                spec: fairness_spec(seed),
            },
        }
    }

    pub fn cell_runs(&self) -> u64 {
        match self {
            Plan::Sweep { spec, .. } => (spec.cells.len() * spec.replicates) as u64,
            Plan::Fairness { spec } => (spec.series.len() * spec.replicates) as u64,
        }
    }

    /// Run one pass through the product's one-call paths on `jobs`
    /// workers. A cell-run that panics is caught and counted, and
    /// contributes an all-zero result.
    pub fn pass(&self, sim: &SimScale, jobs: usize) -> PassOutput {
        let failed = AtomicU64::new(0);
        match self {
            Plan::Sweep { scenario, spec } => {
                let report = run_sweep_with(spec, sim.label, jobs, |job| {
                    // The body of `Scenario::run_spec`, with the panic guard.
                    catch_unwind(AssertUnwindSafe(|| {
                        scenario
                            .pipeline
                            .cell(&job.coord, sim, job.seed, scenario.workload)
                    }))
                    .unwrap_or_else(|_| {
                        failed.fetch_add(1, Ordering::Relaxed);
                        EMPTY_CELL
                    })
                });
                sweep_output(scenario, report, self.cell_runs(), failed.into_inner())
            }
            Plan::Fairness { spec } => {
                let schemes = fairness_schemes();
                let report = run_fig_with(spec, sim.label, jobs, |job| {
                    catch_unwind(AssertUnwindSafe(|| {
                        fairness_cell(sim, &schemes[job.series], job.seed)
                    }))
                    .unwrap_or_else(|_| {
                        failed.fetch_add(1, Ordering::Relaxed);
                        DistMetrics {
                            scalars: vec![0.0; spec.scalar_names.len()],
                            points: vec![0.0; spec.axis.xs.len()],
                        }
                    })
                });
                figure_output(report, self.cell_runs(), failed.into_inner())
            }
        }
    }
}

const EMPTY_CELL: CellMetrics = CellMetrics {
    total: 0,
    frac_overdue: 0.0,
    frac_gt_t: 0.0,
    t_us: 0.0,
    max_cp: 0,
    mean_slack_us: 0.0,
    deadline: None,
    chaos: None,
};

/// Render a table report (and its figure, where the scenario has one).
pub fn sweep_output(
    scenario: &Scenario,
    report: SweepReport,
    cell_runs: u64,
    failed: u64,
) -> PassOutput {
    let mut artifacts = vec![report.to_json(), report.to_csv()];
    if let Some(fig) = scenario.miss_curves(&report) {
        artifacts.push(fig.to_json());
        artifacts.push(fig.to_csv());
    }
    PassOutput {
        artifacts,
        report: Report::Table(report),
        cell_runs,
        failed,
    }
}

pub fn figure_output(report: FigReport, cell_runs: u64, failed: u64) -> PassOutput {
    PassOutput {
        artifacts: vec![report.to_json(), report.to_csv()],
        report: Report::Figure(report),
        cell_runs,
        failed,
    }
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/// Member `key` of a JSON object.
pub fn member<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn elements(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        _ => &[],
    }
}

/// The members that name a table cell's grid coordinate. Clean cells
/// have no `chaos_drop_ppm` member at all, and match only cells
/// without one.
const COORD_KEYS: [&str; 4] = ["topo", "original", "util", "chaos_drop_ppm"];

/// The cell of table artifact `baseline` at the coordinate of `cell`.
pub fn baseline_cell<'a>(baseline: &'a Json, cell: &Json) -> Option<&'a Json> {
    elements(member(baseline, "cells")?)
        .iter()
        .find(|b| COORD_KEYS.iter().all(|k| member(b, k) == member(cell, k)))
}

/// Every cell of table artifact `ours` must render exactly as the
/// same-coordinate cell of `baseline`.
pub fn check_cells_against(baseline: &str, ours: &str, problems: &mut Vec<String>) {
    let (Ok(baseline), Ok(ours)) = (Json::parse(baseline), Json::parse(ours)) else {
        problems.push("baseline or table artifact is not JSON".to_string());
        return;
    };
    let cells = member(&ours, "cells").map(elements).unwrap_or_default();
    if cells.is_empty() {
        problems.push("table artifact has no cells".to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        match baseline_cell(&baseline, cell) {
            None => problems.push(format!("cell {i}: no baseline cell at its coordinate")),
            Some(b) if b.render() != cell.render() => {
                problems.push(format!("cell {i}: differs from the committed baseline"))
            }
            Some(_) => {}
        }
    }
}

fn read_baseline(file: &str) -> String {
    let path = repo_root().join("baselines").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Check one pass's outputs; returns what is wrong (empty = correct).
/// Invariants hold at any seed; the committed `baselines/` are the
/// truth at seed 1 (the seed CI gates them at).
pub fn verify(w: &Workload, plan: &Plan, out: &PassOutput, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if out.failed > 0 {
        problems.push(format!("{} cell-run(s) panicked", out.failed));
    }
    match (&out.report, plan) {
        (Report::Table(report), Plan::Sweep { scenario, spec }) => {
            if report.results.len() != spec.cells.len() {
                problems.push("report and spec disagree on the cell count".to_string());
            }
            for r in &report.results {
                let at = format!("cell {}/{}", r.coord.sched.label(), r.coord.util);
                if r.total.mean <= 0.0 {
                    problems.push(format!("{at}: no packets replayed"));
                }
                if r.chaos.is_some() != r.coord.chaos.enabled() {
                    problems.push(format!("{at}: chaos members on the wrong side"));
                }
                // Appendix E: LSTF with deadline slack replays EDF exactly.
                if scenario.pipeline == CellPipeline::DeadlineReplay
                    && matches!(r.coord.sched.label(), "EDF" | "LSTF")
                    && (r.frac_overdue.mean != 0.0 || r.frac_overdue.stddev != 0.0)
                {
                    problems.push(format!("{at}: overdue packets in an exact replay"));
                }
            }
            if seed == 1 {
                match w.name {
                    "dc-k8-web-chaos" => check_cells_against(
                        &read_baseline("dc-k8-web-chaos_quick.json"),
                        &out.artifacts[0],
                        &mut problems,
                    ),
                    "i2-deadline-replay" => {
                        if out.artifacts[0] != read_baseline("i2-deadline-replay_quick.json") {
                            problems.push("table differs from the committed baseline".to_string());
                        }
                        if out.artifacts[2] != read_baseline("i2-deadline-replay_fig_quick.json") {
                            problems.push("figure differs from the committed baseline".to_string());
                        }
                    }
                    _ => {}
                }
            }
        }
        (Report::Figure(report), Plan::Fairness { spec }) => {
            for series in &report.results {
                if series.points.len() != spec.axis.xs.len() {
                    problems.push(format!(
                        "{}: series length is not horizon/window",
                        series.series
                    ));
                }
                if series
                    .points
                    .iter()
                    .any(|p| !(p.mean > 0.0 && p.mean <= 1.0))
                {
                    problems.push(format!("{}: Jain index outside (0, 1]", series.series));
                }
            }
        }
        _ => problems.push("report kind does not match the workload".to_string()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "kind": "table",
      "cells": [
        {"topo": "Datacenter(k=8)", "original": "FIFO", "util": 0.7,
         "total_packets": {"mean": 10, "stddev": 0, "stderr": 0}},
        {"topo": "Datacenter(k=8)", "original": "FIFO", "util": 0.7, "chaos_drop_ppm": 1000,
         "total_packets": {"mean": 11, "stddev": 0, "stderr": 0}},
        {"topo": "Datacenter(k=8)", "original": "Random", "util": 0.7, "chaos_drop_ppm": 1000,
         "total_packets": {"mean": 12, "stddev": 0, "stderr": 0}}
      ]
    }"#;

    fn mean_of(cell: &Json) -> &Json {
        member(member(cell, "total_packets").unwrap(), "mean").unwrap()
    }

    #[test]
    fn baseline_cells_are_found_by_coordinate_not_position() {
        let baseline = Json::parse(BASELINE).unwrap();
        let clean =
            Json::parse(r#"{"topo": "Datacenter(k=8)", "original": "FIFO", "util": 0.7}"#).unwrap();
        // A clean cell has no chaos member and must not match the
        // perturbed cell that shares its other three coordinates.
        assert_eq!(
            mean_of(baseline_cell(&baseline, &clean).unwrap()),
            &Json::UInt(10)
        );
        let lossy = Json::parse(
            r#"{"topo": "Datacenter(k=8)", "original": "Random", "util": 0.7, "chaos_drop_ppm": 1000}"#,
        )
        .unwrap();
        assert_eq!(
            mean_of(baseline_cell(&baseline, &lossy).unwrap()),
            &Json::UInt(12)
        );
        let absent =
            Json::parse(r#"{"topo": "Datacenter(k=8)", "original": "Random", "util": 0.7}"#)
                .unwrap();
        assert!(baseline_cell(&baseline, &absent).is_none());
    }

    #[test]
    fn cell_comparison_reports_differences_and_missing_cells() {
        let same = r#"{"cells": [{"topo": "Datacenter(k=8)", "original": "FIFO", "util": 0.7,
            "total_packets": {"mean": 10, "stddev": 0, "stderr": 0}}]}"#;
        let mut problems = Vec::new();
        check_cells_against(BASELINE, same, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");

        let changed = same.replace("\"mean\": 10", "\"mean\": 9");
        check_cells_against(BASELINE, &changed, &mut problems);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("differs"));

        problems.clear();
        check_cells_against(BASELINE, r#"{"cells": [{"topo": "x"}]}"#, &mut problems);
        assert!(problems[0].contains("no baseline cell"));
        problems.clear();
        check_cells_against(BASELINE, r#"{"cells": []}"#, &mut problems);
        assert!(problems[0].contains("no cells"));
    }

    #[test]
    fn plans_expand_to_the_documented_cell_lists() {
        let runs: Vec<u64> = WORKLOADS
            .iter()
            .map(|w| Plan::new(w, 1).cell_runs())
            .collect();
        assert_eq!(runs, [4, 2, 30, 2]);
        let Plan::Sweep { spec, .. } = Plan::new(&WORKLOADS[0], 7) else {
            panic!("dc-k8-web-chaos is a sweep workload");
        };
        assert_eq!(spec.base_seed, 7);
        assert!(!spec.cells[0].chaos.enabled() && spec.cells[1].chaos.enabled());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && find(w.name).is_some()));
    }
}
