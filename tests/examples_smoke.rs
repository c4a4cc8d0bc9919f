//! Workspace smoke test: every example must run its main path cleanly.
//!
//! `cargo test` already compiles `examples/*.rs`, so a silent *build*
//! break is impossible; this suite additionally executes each example
//! end-to-end so a panic, a wedged simulation, or empty output can't
//! slip through either. Examples are invoked through the same `cargo`
//! that is running the tests (the binaries were just built, so this is
//! a cache hit, not a rebuild).

use std::process::Command;

const EXAMPLES: &[&str] = &[
    "quickstart",
    "custom_topology",
    "objectives",
    "replay_failure_anatomy",
    "theory_demo",
    "scenario_tour",
];

fn run_example(name: &str) -> std::process::Output {
    Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example `{name}`: {e}"))
}

#[test]
fn every_example_runs_and_produces_output() {
    for name in EXAMPLES {
        let out = run_example(name);
        assert!(
            out.status.success(),
            "example `{name}` exited with {:?}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.trim().is_empty(),
            "example `{name}` produced no stdout",
        );
    }
}

#[test]
fn example_list_is_exhaustive() {
    // If someone adds examples/foo.rs but forgets to register it above
    // (and in Cargo.toml), fail loudly instead of silently not testing it.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/ directory exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().is_some_and(|ext| ext == "rs"))
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "examples on disk and EXAMPLES list disagree — update tests/examples_smoke.rs"
    );
}
