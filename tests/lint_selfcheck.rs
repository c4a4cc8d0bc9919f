//! The determinism lint run against this very workspace, through the
//! real `lint` binary — the same invocation CI's `lint` job uses. Three
//! guarantees:
//!
//! * the committed tree is clean under `--deny` (exit 0), and the
//!   structural anchors were genuinely found (a report that "checked"
//!   zero event classes or scenarios means the anchors moved and the
//!   lint silently stopped looking — that must fail here, not rot);
//! * the JSON report is well-formed and byte-stable across runs;
//! * a seeded violation in a scratch tree flips the exit code to 1,
//!   so `--deny` provably gates.

use std::path::Path;
use std::process::Command;

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lint"))
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_clean_and_anchors_were_checked() {
    let dir = std::env::temp_dir().join("ups-lint-selfcheck");
    let json = dir.join("report.json");
    let out = lint_bin()
        .args(["--root"])
        .arg(repo_root())
        .args(["--deny", "--json"])
        .arg(&json)
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lint --deny failed on the committed tree:\n{stdout}"
    );
    assert!(
        stdout.contains("0 finding(s)"),
        "expected a clean run: {stdout}"
    );
    let report = std::fs::read_to_string(&json).expect("JSON report written");
    assert!(report.contains("\"kind\": \"lint\""));
    assert!(report.contains("\"findings\": []"));
    // Anchor sanity: the structural rules actually found their inputs.
    // (Counts are minimums, not pins, so adding a scenario or an event
    // class does not break this test.)
    let checked = |key: &str| -> u64 {
        let tail = report.split(&format!("\"{key}\": ")).nth(1).unwrap_or("");
        tail.chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap_or(0)
    };
    assert!(checked("event_classes") >= 8, "event classes: {report}");
    assert!(checked("scenarios") >= 8, "scenarios: {report}");
    assert!(checked("unsafe_blocks") >= 1, "unsafe blocks: {report}");
    assert!(checked("files_scanned") >= 100, "files scanned: {report}");
}

#[test]
fn json_report_is_byte_stable() {
    let dir = std::env::temp_dir().join("ups-lint-stability");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for path in [&a, &b] {
        let out = lint_bin()
            .args(["--root"])
            .arg(repo_root())
            .args(["--json"])
            .arg(path)
            .output()
            .expect("lint binary runs");
        assert!(out.status.success());
    }
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "two lint runs over the same tree must be byte-identical"
    );
}

#[test]
fn seeded_violation_flips_deny_to_exit_1() {
    let dir = std::env::temp_dir().join("ups-lint-seeded");
    let src = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("scratch tree");
    std::fs::write(
        src.join("bad.rs"),
        "use std::collections::HashMap;\npub fn f() -> HashMap<u8, u8> { HashMap::new() }\n",
    )
    .expect("seed violation");
    let out = lint_bin()
        .args(["--root"])
        .arg(&dir)
        .args(["--deny"])
        .output()
        .expect("lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded HashMap must exit 1 under --deny: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Without --deny the same findings report but do not gate.
    let out = lint_bin()
        .args(["--root"])
        .arg(&dir)
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("hash-collections"));
}

#[test]
fn bad_usage_exits_2() {
    let out = lint_bin().arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = lint_bin()
        .args(["--root", "/nonexistent/ups-lint-path"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
