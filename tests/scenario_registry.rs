//! Integration acceptance for the scenario registry (ISSUE 5): the
//! registry's large-scale topologies and non-web workloads run
//! end-to-end through the sweep engine with the same determinism
//! guarantee the named grids have — byte-identical artifacts for every
//! worker count.

use ups::sim::Dur;
use ups::sweep::scenario::{self, Scenario};
use ups::sweep::{run_sweep, SimScale, SweepReport, SweepSpec};

fn tiny() -> SimScale {
    SimScale {
        edges_per_core: 2,
        horizon: Dur::from_millis(2),
        fattree_k: 4,
        label: "tiny",
    }
}

/// `spec`, a grid of `s`, through `s`'s workload and pipeline.
fn run(s: &Scenario, spec: &SweepSpec, jobs: usize) -> SweepReport {
    run_sweep(spec, &tiny(), jobs, s.workload, s.pipeline)
}

/// A new-workload scenario grid serializes byte-identically for
/// `--jobs 1` and `--jobs 4`, replicated over two seeds.
#[test]
fn deadline_mix_scenario_artifacts_are_identical_across_worker_counts() {
    let s = scenario::find("i2-deadline-mix").expect("registered");
    let spec = s.spec().with_replicates(2);
    let serial = run(s, &spec, 1);
    let parallel = run(s, &spec, 4);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "scenario JSON artifacts differ"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "scenario CSV artifacts differ"
    );
    // Replicates drew different workloads, so the spread is real.
    for cell in &serial.results {
        assert_eq!(cell.replicates, 2);
        assert!(cell.total.mean > 0.0);
        assert!(cell.total.stddev > 0.0, "seeds did not vary the workload");
    }
}

/// ISSUE 10 acceptance: the deadline-replay scenario — one EDF original
/// per cell, replayed by the cell's candidate scheduler — produces its
/// table artifact *and* its miss-rate-vs-utilization figure artifact
/// byte-identically for `--jobs 1` and `--jobs 4`, and the figure shows
/// the paper's claim: LSTF-with-deadline-slack misses exactly the flows
/// EDF misses, at every utilization.
#[test]
fn deadline_replay_scenario_and_figure_are_identical_across_worker_counts() {
    let s = scenario::find("i2-deadline-replay").expect("registered");
    let spec = s.spec().with_replicates(2);
    let serial = run(s, &spec, 1);
    let parallel = run(s, &spec, 4);
    assert_eq!(serial.to_json(), parallel.to_json(), "table JSON differs");
    assert_eq!(serial.to_csv(), parallel.to_csv(), "table CSV differs");

    let fig = s
        .miss_curves(&serial)
        .expect("deadline-replay grids yield a figure");
    let fig_par = s
        .miss_curves(&parallel)
        .expect("figure from the parallel run");
    assert_eq!(fig.to_json(), fig_par.to_json(), "figure JSON differs");
    assert_eq!(fig.to_csv(), fig_par.to_csv(), "figure CSV differs");

    let labels: Vec<&str> = fig.results.iter().map(|r| r.series.as_str()).collect();
    assert_eq!(
        labels,
        ["EDF", "LSTF", "Priority"],
        "one series per candidate"
    );
    let curve = |i: usize| -> Vec<f64> { fig.results[i].points.iter().map(|p| p.mean).collect() };
    assert_eq!(
        curve(0),
        curve(1),
        "LSTF-with-deadline-slack must reproduce EDF's miss-rate curve exactly"
    );
    for cell in &serial.results {
        let d = cell
            .deadline
            .as_ref()
            .expect("deadline payload on every cell");
        assert!((0.0..=1.0).contains(&d.miss_rate.mean));
    }
}

/// The incast workload stresses a different link tier than web traffic;
/// the registry's incast grid must still replay packets end-to-end.
#[test]
fn incast_scenario_replays_end_to_end() {
    let s = scenario::find("dc-k4-incast-sched").expect("registered");
    let report = run(s, &s.spec(), 2);
    assert_eq!(report.results.len(), 3);
    for r in &report.results {
        assert!(r.total.mean > 0.0, "no packets replayed");
        assert!(r.frac_overdue.mean >= 0.0 && r.frac_overdue.mean <= 1.0);
    }
}

/// ISSUE 5 acceptance: the fat-tree k=8 scenario — 128 hosts, fixed
/// arity independent of the scale knobs — runs end-to-end at a reduced
/// horizon inside the test-suite budget.
#[test]
fn fattree_k8_scenario_runs_at_quick_scale() {
    let s = scenario::find("dc-k8-web").expect("registered");
    let spec = {
        let mut spec = s.spec();
        spec.cells.retain(|c| c.util == 0.3); // one cell keeps it fast
        spec
    };
    let report = run(s, &spec, 2);
    assert_eq!(report.results.len(), 1);
    assert!(report.results[0].total.mean > 0.0);
}

/// ISSUE 5 acceptance: full-scale RocketFuel (830 hosts, the paper's
/// default scenario) builds, calibrates, and replays end-to-end.
#[test]
fn rocketfuel_full_scenario_runs_at_quick_scale() {
    let s = scenario::find("rocketfuel-full").expect("registered");
    let spec = {
        let mut spec = s.spec();
        spec.cells.retain(|c| c.util == 0.3);
        spec
    };
    let report = run(s, &spec, 2);
    assert_eq!(report.results.len(), 1);
    assert!(report.results[0].total.mean > 0.0);
}
