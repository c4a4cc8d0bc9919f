//! The known-bad corpus: one mini-tree per rule under
//! `tests/fixtures/`, each laid out like a tiny workspace so the
//! path-based tier logic runs for real. Every test pins the *exact*
//! findings — rule, file, and line — so a rule that drifts (matches
//! more, matches less, moves a line) fails loudly rather than rotting.
//!
//! The workspace walker skips directories named `fixtures`, which is
//! what keeps this corpus from failing the lint's own self-run.

use std::path::PathBuf;
use ups_lint::report::Report;

fn fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    ups_lint::lint_root(&root).expect("fixture lints")
}

/// (rule, file, line) triples of the findings, in report order.
fn triples(r: &Report) -> Vec<(&str, &str, u32)> {
    r.findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect()
}

#[test]
fn hash_collections_flags_unannotated_only() {
    let r = fixture("hash_collections");
    assert_eq!(
        triples(&r),
        vec![
            ("hash-collections", "crates/sim/src/bad.rs", 4),
            ("hash-collections", "crates/sim/src/bad.rs", 7),
        ]
    );
}

#[test]
fn wall_clock_flags_instant_now_and_system_time() {
    let r = fixture("wall_clock");
    assert_eq!(
        triples(&r),
        vec![
            ("wall-clock", "crates/sim/src/bad.rs", 6),
            ("wall-clock", "crates/sim/src/bad.rs", 9),
            ("wall-clock", "crates/sim/src/bad.rs", 10),
        ]
    );
}

#[test]
fn ambient_entropy_flags_rng_and_env() {
    let r = fixture("ambient_entropy");
    assert_eq!(
        triples(&r),
        vec![
            ("ambient-entropy", "crates/net/src/bad.rs", 3),
            ("ambient-entropy", "crates/net/src/bad.rs", 8),
        ]
    );
}

#[test]
fn ptr_as_key_flags_the_cast() {
    let r = fixture("ptr_as_key");
    assert_eq!(
        triples(&r),
        vec![("ptr-as-key", "crates/net/src/bad.rs", 3)]
    );
}

#[test]
fn float_debug_format_flags_artifact_writer() {
    let r = fixture("float_debug_format");
    assert_eq!(
        triples(&r),
        vec![("float-debug-format", "crates/sweep/src/artifact.rs", 3)]
    );
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let r = fixture("unsafe_safety");
    assert_eq!(
        triples(&r),
        vec![("unsafe-safety-comment", "crates/net/src/bad.rs", 4)]
    );
    // Both blocks were audited, only one flagged.
    assert_eq!(r.checked.unsafe_blocks, 2);
}

#[test]
fn unwrap_budget_counts_non_test_calls() {
    let r = fixture("unwrap_budget");
    assert_eq!(
        triples(&r),
        vec![("unwrap-budget", "crates/net/src/hot.rs", 4)]
    );
    assert!(r.findings[0].message.contains("3 non-test"));
    assert!(r.findings[0].message.contains("budget of 2"));
}

#[test]
fn event_class_order_catches_tie_and_undeclared_use() {
    let r = fixture("event_class_order");
    let t = triples(&r);
    // OBSERVE==TIMER tie: flagged once for the shared value and once
    // for OBSERVE not being the strict maximum; INJECT above ARRIVE;
    // plus the undeclared `class::DEPART` use.
    assert_eq!(t.len(), 4, "{t:?}");
    assert!(t.iter().all(|(rule, _, _)| *rule == "event-class-order"));
    assert!(r
        .findings
        .iter()
        .any(|f| f.message.contains("share value 6")));
    assert!(r
        .findings
        .iter()
        .any(|f| f.message.contains("strict maximum")));
    assert!(r
        .findings
        .iter()
        .any(|f| f.line == 7 && f.message.contains("directly before ARRIVE")));
    assert!(r
        .findings
        .iter()
        .any(|f| f.line == 19 && f.message.contains("class::DEPART")));
    assert_eq!(r.checked.event_classes, 5);
}

#[test]
fn scenario_docs_checks_both_directions() {
    let r = fixture("scenario_docs");
    assert_eq!(
        triples(&r),
        vec![
            ("scenario-docs", "crates/bench/src/experiments.rs", 4),
            ("scenario-docs", "crates/sweep/src/scenario.rs", 9),
            ("scenario-docs", "docs/SCENARIOS.md", 7),
        ]
    );
    assert!(r.findings[0].message.contains("`spectre`"));
    assert!(r.findings[1].message.contains("`ghost`"));
    assert!(r.findings[2].message.contains("`phantom`"));
    assert_eq!(r.checked.scenarios, 4);
}

#[test]
fn suppression_hygiene_is_enforced() {
    let r = fixture("suppressions");
    let t = triples(&r);
    // The unjustified entry suppresses nothing: the wall-clock finding
    // survives, the entry is flagged, and the no-match entry is stale.
    assert_eq!(
        t,
        vec![
            ("wall-clock", "crates/sim/src/bad.rs", 4),
            ("unjustified-suppression", "lint.toml", 1),
            ("stale-suppression", "lint.toml", 6),
        ]
    );
    assert_eq!(r.suppressed, 0);
}
