//! The sweep engine's central guarantee: aggregate artifacts are
//! byte-identical regardless of the worker count, because every result
//! is keyed to its grid coordinates rather than completion order.

use ups_core::WorkloadKind;
use ups_sim::Dur;
use ups_sweep::experiments::fig1_report;
use ups_sweep::{diff_artifacts, run_sweep, CellPipeline, DiffOptions, Scale, SweepSpec};

/// ISSUE 2 acceptance: at `Scale::quick` with 2 replicates, the
/// serialized JSON (and CSV) artifact from `--jobs 1` is byte-identical
/// to `--jobs 4`. Uses the 2-cell smoke grid so the test stays fast.
#[test]
fn quick_scale_artifacts_are_identical_across_worker_counts() {
    let sim = Scale::quick().sim();
    let spec = SweepSpec::smoke().with_replicates(2);
    let serial = run_sweep(&spec, &sim, 1, WorkloadKind::Web, CellPipeline::Replay);
    let parallel = run_sweep(&spec, &sim, 4, WorkloadKind::Web, CellPipeline::Replay);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "JSON artifacts differ"
    );
    assert_eq!(serial.to_csv(), parallel.to_csv(), "CSV artifacts differ");
}

/// ISSUE 3 acceptance: the same guarantee holds for a fig-style
/// distribution grid — Figure 1's six-series × 2-replicate sweep at a
/// tiny scale serializes byte-identically for `--jobs 1` and `--jobs 4`
/// (the per-point Welford aggregation is keyed to grid coordinates, not
/// completion order), and a self-diff of the artifact is clean.
#[test]
fn fig_grid_artifacts_are_identical_across_worker_counts() {
    let mut scale = Scale::quick();
    scale.sim.edges_per_core = 2; // tiny topology keeps this test fast
    scale.sim.horizon = Dur::from_millis(2);
    scale.sim.label = "tiny";
    scale.replicates = 2;
    scale.jobs = 1;
    let serial = fig1_report(&scale);
    scale.jobs = 4;
    let parallel = fig1_report(&scale);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "figure JSON artifacts differ"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "figure CSV artifacts differ"
    );
    let diff = diff_artifacts(
        &serial.to_json(),
        &parallel.to_json(),
        &DiffOptions::default(),
    )
    .expect("artifacts parse");
    assert!(diff.is_clean(), "{}", diff.render());
    assert!(
        diff.compared > 100,
        "vacuous diff: {} values",
        diff.compared
    );
}

/// Replicates draw distinct workloads (different seeds) yet aggregate
/// deterministically: the mean sits between per-seed extremes and the
/// spread is finite and reproducible.
#[test]
fn replicate_aggregation_is_deterministic_and_sane() {
    let mut sim = Scale::quick().sim();
    sim.edges_per_core = 2; // tiny topology keeps this test fast
    let spec = SweepSpec::smoke().with_replicates(3).with_seed(5);
    let a = run_sweep(&spec, &sim, 2, WorkloadKind::Web, CellPipeline::Replay);
    let b = run_sweep(&spec, &sim, 3, WorkloadKind::Web, CellPipeline::Replay);
    assert_eq!(a.to_json(), b.to_json());
    for cell in &a.results {
        assert_eq!(cell.replicates, 3);
        assert!(cell.total.mean > 0.0);
        // Different seeds → different packet counts → nonzero spread.
        assert!(
            cell.total.stddev > 0.0,
            "replicates should differ: {:?}",
            cell.total
        );
        assert!(cell.frac_overdue.stddev.is_finite());
        assert!(cell.frac_overdue.stderr <= cell.frac_overdue.stddev);
    }
}
