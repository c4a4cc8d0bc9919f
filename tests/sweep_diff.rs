//! `sweep diff` end-to-end through the actual binary: the exit-code
//! contract CI's regression check relies on. Exit 0 = artifacts match
//! under the tolerance, 1 = regression (differences found), 2 =
//! usage/IO/parse error.

use std::path::PathBuf;
use std::process::Command;
use ups_sweep::{run_sweep_with, scenario, CellMetrics, Job, SweepSpec};

/// A synthetic 2-cell table artifact; `bump` perturbs one metric of the
/// second cell (util=0.7) so regressions land on a known coordinate.
fn artifact(bump: f64) -> String {
    let spec = SweepSpec::smoke().with_replicates(2);
    run_sweep_with(&spec, "test", 1, |job: &Job| CellMetrics {
        total: 100,
        frac_overdue: 0.25 + if job.cell == 1 { bump } else { 0.0 },
        frac_gt_t: 0.125,
        t_us: 12.0,
        max_cp: 1,
        mean_slack_us: 3.5,
        deadline: None,
        chaos: None,
    })
    .to_json()
}

/// Write `content` under a pid-keyed temp dir (concurrent test runs on
/// one machine must not race) and return the path.
fn write_tmp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ups-sweep-diff-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write artifact");
    path
}

/// Run `sweep diff` with the given arguments; returns (exit code, stdout).
fn run_diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("diff")
        .args(args)
        .output()
        .expect("spawn sweep binary");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn identical_artifacts_exit_zero() {
    let a = write_tmp("self_a.json", &artifact(0.0));
    let b = write_tmp("self_b.json", &artifact(0.0));
    let (code, stdout) = run_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("artifacts match"), "{stdout}");
    assert!(stdout.contains("0 difference(s)"), "{stdout}");
}

#[test]
fn perturbation_within_tolerance_exits_zero() {
    let a = write_tmp("tol_a.json", &artifact(0.0));
    let b = write_tmp("tol_b.json", &artifact(1e-6));
    let (code, stdout) = run_diff(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--rel-tol",
        "1e-3",
    ]);
    assert_eq!(code, 0, "{stdout}");
    // The same pair without the tolerance is a regression.
    let (code, _) = run_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 1);
}

#[test]
fn regression_exits_nonzero_and_names_the_coordinate() {
    let a = write_tmp("reg_a.json", &artifact(0.0));
    let b = write_tmp("reg_b.json", &artifact(0.1));
    let (code, stdout) = run_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("artifacts DIFFER"), "{stdout}");
    // The offending cell is named by coordinate, metric and values.
    assert!(
        stdout.contains("original=Random,util=0.7") && stdout.contains("frac_overdue"),
        "{stdout}"
    );
}

#[test]
fn added_and_removed_cells_exit_nonzero() {
    let smoke = artifact(0.0);
    let i2_web = scenario::find("i2-web").expect("registered").spec();
    let util = run_sweep_with(&i2_web.with_replicates(2), "test", 1, |_: &Job| {
        CellMetrics {
            total: 100,
            frac_overdue: 0.25,
            frac_gt_t: 0.125,
            t_us: 12.0,
            max_cp: 1,
            mean_slack_us: 3.5,
            deadline: None,
            chaos: None,
        }
    })
    .to_json();
    let a = write_tmp("cells_a.json", &smoke);
    let b = write_tmp("cells_b.json", &util);
    let (code, stdout) = run_diff(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("added") && stdout.contains("util=0.1"),
        "added cells must be named: {stdout}"
    );
}

#[test]
fn bad_usage_and_missing_files_exit_two() {
    let (code, _) = run_diff(&["only-one-path.json"]);
    assert_eq!(code, 2, "one path must be a usage error");
    let a = write_tmp("exists.json", &artifact(0.0));
    let (code, _) = run_diff(&[a.to_str().unwrap(), "/nonexistent/artifact.json"]);
    assert_eq!(code, 2, "missing file must be an IO error, not a diff");
    let garbage = write_tmp("garbage.json", "not json at all");
    let (code, _) = run_diff(&[a.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(code, 2, "parse failure must be an error, not a diff");
}
