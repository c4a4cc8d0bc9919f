//! `sweep`'s flag parsing through the actual binary: a flag is never
//! taken as another flag's value, an unknown `--grid` is told what
//! exists, a value too large to run is refused, and a usage error
//! (exit 2) writes nothing. An empty workload is not an error.

use std::process::Command;

#[test]
fn usage_errors_exit_two_and_write_nothing() {
    let cwd = std::env::temp_dir().join(format!("ups-sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create temp dir");
    let known = ["smoke", "dc-k4-incast-sched", "ablation-preempt"];
    for (args, wanted) in [
        ("--grid smoke --out --full", &["--out requires a value"][..]),
        ("--grid --jobs 2", &["--grid requires a value"]),
        ("--grid nope", &known),
        // Values that overflow the picosecond clock or the replicate
        // seeds are refused, not wrapped.
        (
            "--grid smoke --telemetry-interval-us 288230376151711744",
            &["--telemetry-interval-us"],
        ),
        ("--grid smoke --horizon-ms 18446744074", &["--horizon-ms"]),
        (
            "--grid smoke --seed 18446744073709551615 --replicates 2",
            &["--seed"],
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args.split(' '))
            .current_dir(&cwd)
            .output()
            .expect("spawn sweep binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        for w in wanted {
            assert!(stderr.contains(w), "{args}: no `{w}` in {stderr}");
        }
    }
    // `remove_dir` only succeeds on an empty directory.
    std::fs::remove_dir(&cwd).expect("a usage error left files behind");
}

/// A zero horizon generates no flows: the experiment still runs, exits
/// 0 and prints zeros, never `NaN`.
#[test]
fn an_empty_workload_exits_zero_without_nan() {
    let out_dir = std::env::temp_dir().join(format!("ups-sweep-empty-{}", std::process::id()));
    for args in [
        "--grid fig2 --horizon-ms 0",
        "--grid congestion-points --horizon-ms 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args.split(' '))
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("spawn sweep binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
        assert!(!stdout.contains("NaN"), "{args}: NaN in {stdout}");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
