//! Smoke tests of the paper's experiments at a tiny scale: every entry
//! of `ups_sweep::EXPERIMENTS` runs through `sweep --grid` and writes its
//! artifacts, and the runners behind the entries produce structurally
//! sane output.

use ups_core::WorkloadKind;
use ups_sched::SchedKind;
use ups_sim::Dur;
use ups_sweep::experiments::{
    ablation_lstf_key, ablation_preempt, ablation_priority, congestion_points, fig1_cell,
    fig1_originals, fig2_report, fig3_cell, fig3_schemes, fig4_report,
};
use ups_sweep::{
    run_sweep, CellCoord, CellPipeline, ChaosSpec, FigReport, Scale, SimScale, SweepResult,
    SweepSpec, TopoKind, EXPERIMENTS,
};
use ups_topo::internet2::I2Variant;

fn tiny() -> Scale {
    Scale {
        sim: SimScale {
            edges_per_core: 2,
            horizon: Dur::from_millis(2),
            fattree_k: 4,
            label: "tiny",
        },
        seed: 3,
        jobs: 4, // > 1, so the sweep-backed runners exercise the worker pool
        replicates: 1,
    }
}

#[test]
fn every_experiment_runs_through_the_cli() {
    // `paper` is Table 1 plus every entry under a `# name: title`
    // header, so one `sweep --grid paper` at the tiny scale runs them
    // all, and a new table entry cannot go unrun or write nothing.
    let out = std::env::temp_dir().join(format!("ups-experiments-{}", std::process::id()));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args("--grid paper --edges 2 --horizon-ms 2 --seed 3 --jobs 4 --out".split(' '))
        .arg(&out)
        .output()
        .expect("spawn sweep binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}");
    for e in EXPERIMENTS {
        let header = format!("# {}: {}", e.name, e.title);
        assert!(stdout.contains(&header), "{} did not run", e.name);
        for ext in ["json", "csv"] {
            let artifact = out.join(format!("{}.{ext}", e.name));
            assert!(artifact.is_file(), "{} wrote no {ext}", e.name);
        }
    }
    assert!(out.join("table1.json").is_file() && out.join("table1.csv").is_file());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn table1_produces_all_fourteen_rows() {
    // Runs the Table-1 grid through the sweep engine on 4 workers.
    let scale = tiny();
    let spec = SweepSpec::table1().with_seed(3);
    let rows = run_sweep(
        &spec,
        &scale.sim,
        scale.jobs,
        WorkloadKind::Web,
        CellPipeline::Replay,
    )
    .results;
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

/// The scalars of an ablation report's `series`, by name (the six
/// Table-1 metrics of that original / replay-mode row).
fn row(report: &FigReport, series: &str, scalar: &str) -> f64 {
    let r = report.results.iter().find(|r| r.series == series);
    let r = r.unwrap_or_else(|| panic!("{}: no series `{series}`", report.name));
    let i = report.scalar_names.iter().position(|n| n == scalar);
    r.scalars[i.expect("a scalar of the row")].mean
}

#[test]
fn ablations_run_and_are_consistent() {
    let prio = ablation_priority(&tiny());
    assert_eq!(prio.results.len(), 4);
    assert!(prio.axis.xs.is_empty());
    let overdue = |series| row(&prio, series, "frac_overdue");
    assert_eq!(
        overdue("Random / LSTF"),
        overdue("Random / EDF"),
        "EDF != LSTF"
    );
    assert_eq!(
        overdue("Random / Omniscient"),
        0.0,
        "omniscient must be perfect"
    );

    let keys = ablation_lstf_key(&tiny());
    assert_eq!(
        row(&keys, "Random / LSTF", "frac_overdue"),
        row(&keys, "Random / LSTF(deadline)", "frac_overdue"),
        "key modes must coincide for uniform packet sizes"
    );

    let pre = ablation_preempt(&tiny());
    assert_eq!(pre.results.len(), 8);
    assert!(row(&pre, "SJF / LSTF(preempt)", "total_packets") > 0.0);
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
    let sweep = CellPipeline::Replay.cell(&coord, &scale.sim, scale.seed, WorkloadKind::Web);
    assert!(sweep.total > 0);
    let want = [
        ("total_packets", sweep.total as f64),
        ("frac_overdue", sweep.frac_overdue),
        ("frac_overdue_gt_t", sweep.frac_gt_t),
        ("t_us", sweep.t_us),
        ("max_congestion_points", sweep.max_cp as f64),
        ("mean_slack_us", sweep.mean_slack_us),
    ];
    for report in [
        ablation_priority(&scale),
        ablation_preempt(&scale),
        ablation_lstf_key(&scale),
    ] {
        assert_eq!(report.scalar_names.len(), want.len());
        for (name, value) in want {
            let got = row(&report, "Random / LSTF", name);
            assert_eq!(got, value, "{}: {name}", report.name);
        }
    }
}

#[test]
fn congestion_points_cover_topologies() {
    let report = congestion_points(&tiny());
    assert_eq!(report.results.len(), 5);
    let labels = report.axis.labels.as_ref().expect("categorical axis");
    assert_eq!(labels.first().map(String::as_str), Some("cp0"));
    for r in &report.results {
        assert_eq!(r.points.len(), labels.len(), "{}: not padded", r.series);
        let total: f64 = r.points.iter().map(|p| p.mean).sum();
        assert!(total > 0.0, "{}: empty histogram", r.series);
    }
}
