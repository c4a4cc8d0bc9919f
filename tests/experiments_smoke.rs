//! Smoke tests of the paper's experiments at a tiny scale: every entry
//! of `ups_bench::EXPERIMENTS` runs through the `run` that
//! `sweep --grid NAME` calls, and the runners behind the entries produce
//! structurally sane output.

use ups_bench::{
    ablation_lstf_key, ablation_preempt, ablation_priority, congestion_points, fig1_cell,
    fig1_originals, fig2_report, fig3_cell, fig3_schemes, fig4_report, Scale, EXPERIMENTS,
};
use ups_core::replay::ReplayMode;
use ups_core::WorkloadKind;
use ups_sched::SchedKind;
use ups_sim::Dur;
use ups_sweep::{
    run_sweep, CellCoord, CellMetrics, CellPipeline, ChaosSpec, SweepResult, SweepSpec, TopoKind,
};
use ups_topo::internet2::I2Variant;

fn tiny() -> Scale {
    Scale {
        edges_per_core: 2,
        horizon: Dur::from_millis(2),
        fattree_k: 4,
        seed: 3,
        jobs: 4, // > 1, so the sweep-backed runners exercise the worker pool
        replicates: 1,
        label: "tiny",
    }
}

#[test]
fn every_experiment_runs_through_the_cli() {
    // `paper` is Table 1 plus every other entry's `run` under a
    // `# name: title` header, so one `sweep --grid paper` at the tiny
    // scale runs them all and a new table entry cannot go unrun.
    let out = std::env::temp_dir().join(format!("ups-experiments-{}", std::process::id()));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args("--grid paper --edges 2 --horizon-ms 2 --seed 3 --jobs 4 --out".split(' '))
        .arg(&out)
        .output()
        .expect("spawn sweep binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}");
    for e in EXPERIMENTS.iter().filter(|e| e.name != "paper") {
        let header = format!("# {}: {}", e.name, e.title);
        assert!(stdout.contains(&header), "{} did not run", e.name);
    }
    assert!(out.join("table1.json").is_file() && out.join("fig4.csv").is_file());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn table1_produces_all_fourteen_rows() {
    // Runs the Table-1 grid through the sweep engine on 4 workers.
    let scale = tiny();
    let rows = run_sweep(&SweepSpec::table1().with_seed(3), &scale.sim(), scale.jobs).results;
    assert_eq!(rows.len(), 14);
    for r in &rows {
        assert!(r.total.mean > 0.0, "{}: empty run", r.coord.topo.label());
        assert!(r.frac_overdue.mean <= 1.0 && r.frac_gt_t.mean <= r.frac_overdue.mean);
        assert!(r.t_us.mean > 0.0);
    }
    // The table covers all three topology families and the five
    // original schedulers of row 5.
    for family in ["I2", "RocketFuel", "Datacenter"] {
        let covered = |r: &SweepResult| r.coord.topo.label().starts_with(family);
        assert!(rows.iter().any(covered), "missing {family}");
    }
    for orig in ["FIFO", "FQ", "SJF", "LIFO", "FQ/FIFO+"] {
        let covered = |r: &SweepResult| r.coord.sched.label() == orig;
        assert!(rows.iter().any(covered), "missing {orig}");
    }
}

#[test]
fn fig1_cdfs_show_lstf_reducing_queueing() {
    let curves = fig1_originals().map(|o| (o.label(), fig1_cell(&tiny(), o, 3)));
    assert_eq!(curves.len(), 6);
    for (label, cdf) in &curves {
        assert!(!cdf.is_empty(), "{label}: empty ratio CDF");
        // The paper's observation: a large share of packets see *less*
        // queueing in the replay (ratio <= 1). Loosely asserted.
        assert!(
            cdf.at(1.0) > 0.3,
            "{label}: only {:.2} of packets at ratio<=1",
            cdf.at(1.0)
        );
    }
}

#[test]
fn fig2_reports_buckets_for_every_scheme() {
    // Through the sweep engine, so the fig2 distribution-grid wiring
    // cannot rot untested.
    let report = fig2_report(&tiny());
    assert_eq!(report.results.len(), 4);
    // paper_fig2: ten bucket edges plus the open tail.
    assert_eq!(report.axis.xs.len(), 11);
    assert_eq!(report.axis.labels.as_ref().unwrap().len(), 11);
    for r in &report.results {
        assert_eq!(r.points.len(), 11);
        // Scalars: [mean_fct_s, completed_flows, total_flows].
        assert!(r.scalars[0].mean > 0.0, "{}: zero mean FCT", r.series);
        assert!(r.scalars[1].mean > 0.0, "{}: nothing completed", r.series);
        assert!(r.scalars[1].mean <= r.scalars[2].mean);
    }
}

#[test]
fn fig3_produces_tail_stats() {
    let results: Vec<_> = fig3_schemes()
        .iter()
        .map(|scheme| fig3_cell(&tiny(), scheme, 3))
        .collect();
    assert_eq!(results.len(), 2);
    for r in &results {
        // Scalars: [mean_s, packets]; points: p50, p90, p95, p99,
        // p99.9, max.
        let (mean, p) = (r.scalars[0], &r.points);
        assert!(mean > 0.0 && p[3] >= mean && p[5] >= p[4]);
    }
    // Identical open-loop load: packet counts match.
    assert_eq!(results[0].scalars[1], results[1].scalars[1]);
}

#[test]
fn fig4_fairness_series_has_all_schemes() {
    // Through the sweep engine, like fig2 above (1 replicate, pooled).
    let report = fig4_report(&tiny());
    assert_eq!(report.results.len(), 7); // FIFO, FQ, five rest values
    assert_eq!(report.axis.xs.len(), 20);
    for r in &report.results {
        assert_eq!(r.points.len(), 20, "{}: wrong window count", r.series);
        assert!(r.points.iter().all(|s| (0.0..=1.0).contains(&s.mean)));
    }
    // FQ converges to near-perfect fairness.
    let fq = &report.results[1];
    assert_eq!(fq.series, "FQ");
    let last = fq.points.last().unwrap();
    assert!(last.mean > 0.9, "FQ final {}", last.mean);
}

#[test]
fn ablations_run_and_are_consistent() {
    let rows = ablation_priority(&tiny());
    assert_eq!(rows.len(), 4);
    let row = |mode| rows.iter().find(|r| r.1 == mode).unwrap().2;
    let lstf = row(ReplayMode::lstf());
    assert_eq!(
        lstf.frac_overdue,
        row(ReplayMode::Edf).frac_overdue,
        "EDF != LSTF"
    );
    assert_eq!(
        row(ReplayMode::Omniscient).frac_overdue,
        0.0,
        "omniscient must be perfect"
    );

    let keys = ablation_lstf_key(&tiny());
    assert_eq!(
        keys[0].2.frac_overdue, keys[1].2.frac_overdue,
        "key modes must coincide for uniform packet sizes"
    );

    let pre = ablation_preempt(&tiny());
    assert_eq!(pre.len(), 8);
}

#[test]
fn ablation_leg_matches_the_sweep_leg() {
    // The ablations record once and replay each mode on a rewired copy;
    // the sweep engine runs the same cell through its own pipeline. At
    // I2 1G/10G, Random, 70% and the scale's seed both must produce the
    // same LSTF metrics, field by field.
    let scale = tiny();
    let coord = CellCoord {
        topo: TopoKind::I2(I2Variant::Default1g10g),
        sched: SchedKind::Random,
        util: 0.7,
        chaos: ChaosSpec::OFF,
    };
    let sweep = CellPipeline::Replay.cell(&coord, &scale.sim(), scale.seed, WorkloadKind::Web);
    let random_lstf = |rows: Vec<(SchedKind, ReplayMode, CellMetrics)>| {
        rows.into_iter()
            .find(|r| r.0 == SchedKind::Random && r.1 == ReplayMode::lstf())
            .expect("a Random/LSTF row")
            .2
    };
    assert!(sweep.total > 0);
    assert_eq!(random_lstf(ablation_priority(&scale)), sweep);
    assert_eq!(random_lstf(ablation_preempt(&scale)), sweep);
    assert_eq!(random_lstf(ablation_lstf_key(&scale)), sweep);
}

#[test]
fn congestion_points_cover_topologies() {
    let rows = congestion_points(&tiny());
    assert_eq!(rows.len(), 5);
    for (topo, hist, _) in &rows {
        assert!(!hist.is_empty(), "{topo}: empty histogram");
        let total: usize = hist.iter().sum();
        assert!(total > 0);
    }
}
