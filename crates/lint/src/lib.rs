//! ups-lint: a source-level determinism lint for the UPS workspace.
//!
//! The whole byte-identity story — every sweep artifact identical for
//! any `--jobs N`, any rerun, any machine — rests on invariants that
//! `rustc` cannot see: no hash-ordered iteration on the artifact path,
//! no wall-clock or ambient entropy in simulation code, chaos events
//! popping before data-plane events and telemetry observation popping
//! after them. This crate checks those invariants *statically*, over the
//! source text, so a violation is caught in CI before it costs a
//! baseline-diff debugging session (see CHANGES.md for the wire-fast-
//! path RNG incident that motivated it: 65 diffing baselines from one
//! untracked draw).
//!
//! Design constraints:
//!
//! * **Zero dependencies.** The lint must never be blocked by a compile
//!   error in the code it judges, and the container is offline. The
//!   lexer in [`lexer`] is hand-rolled; analysis is token-level.
//! * **Deterministic output.** The report is itself an artifact: files
//!   walked in sorted order, findings sorted (file, line, rule), JSON
//!   with fixed key order. Two runs over the same tree are
//!   byte-identical.
//! * **Suppressions are arguments.** An in-source annotation or a
//!   `lint.toml` entry must say *why* the site is safe; entries that
//!   suppress nothing or carry no justification are themselves
//!   findings, so the allowlist can only shrink.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use config::Config;
use report::{Finding, Report};
use std::path::Path;

/// Lint the workspace rooted at `root` using `<root>/lint.toml` (absent
/// file = no suppressions). Errors are I/O or config-parse failures —
/// the CLI maps them to exit code 2.
pub fn lint_root(root: &Path) -> Result<Report, String> {
    let cfg = Config::load(root)?;
    lint_with(root, &cfg)
}

/// Lint with an explicit configuration.
pub fn lint_with(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = walk::walk(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut report = Report::default();
    report.checked.files_scanned = files.len();
    rules::tokens::run(&files, cfg, &mut report);
    rules::structure::run(&files, root, &mut report);
    apply_allows(cfg, &mut report);
    report.sort();
    Ok(report)
}

/// Apply the `[[allow]]` suppressions, then emit hygiene findings for
/// entries that are unjustified or suppress nothing.
fn apply_allows(cfg: &Config, report: &mut Report) {
    let mut hits = vec![0usize; cfg.allows.len()];
    report.findings.retain(|f| {
        for (i, a) in cfg.allows.iter().enumerate() {
            let rule_match = a.rule == f.rule;
            let path_match = a.path == f.file;
            let item_match = match (&a.item, &f.item) {
                (None, _) => true,
                (Some(want), Some(have)) => want == have,
                (Some(_), None) => false,
            };
            if rule_match && path_match && item_match && !a.justification.trim().is_empty() {
                hits[i] += 1;
                return false;
            }
        }
        true
    });
    report.suppressed = hits.iter().sum();
    report.checked.suppressions_used = hits.iter().filter(|&&h| h > 0).count();
    for (i, a) in cfg.allows.iter().enumerate() {
        if a.justification.trim().is_empty() {
            report.findings.push(Finding {
                rule: "unjustified-suppression",
                file: "lint.toml".to_string(),
                line: a.line,
                item: Some(format!("{} @ {}", a.rule, a.path)),
                message: "[[allow]] entry has no justification".to_string(),
                hint: "every suppression must argue why the site is safe; an \
                       entry without a justification suppresses nothing",
            });
        } else if hits[i] == 0 {
            report.findings.push(Finding {
                rule: "stale-suppression",
                file: "lint.toml".to_string(),
                line: a.line,
                item: Some(format!("{} @ {}", a.rule, a.path)),
                message: "[[allow]] entry matches no finding".to_string(),
                hint: "the hazard was fixed or moved — delete the entry so the \
                       allowlist tracks reality",
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::Allow;

    fn finding(rule: &'static str, file: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 7,
            item: None,
            message: "m".into(),
            hint: "h",
        }
    }

    #[test]
    fn justified_allow_suppresses_and_counts() {
        let cfg = Config {
            allows: vec![Allow {
                rule: "wall-clock".into(),
                path: "src/bin/sweep.rs".into(),
                item: None,
                justification: "perf harness timing".into(),
                line: 1,
            }],
            ..Config::default()
        };
        let mut r = Report::default();
        r.findings.push(finding("wall-clock", "src/bin/sweep.rs"));
        r.findings
            .push(finding("wall-clock", "crates/sim/src/lib.rs"));
        apply_allows(&cfg, &mut r);
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].file, "crates/sim/src/lib.rs");
    }

    #[test]
    fn unjustified_allow_is_flagged_and_inert() {
        let cfg = Config {
            allows: vec![Allow {
                rule: "wall-clock".into(),
                path: "src/bin/sweep.rs".into(),
                item: None,
                justification: "  ".into(),
                line: 4,
            }],
            ..Config::default()
        };
        let mut r = Report::default();
        r.findings.push(finding("wall-clock", "src/bin/sweep.rs"));
        apply_allows(&cfg, &mut r);
        // The original finding survives AND the entry is flagged.
        assert_eq!(r.findings.len(), 2);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "unjustified-suppression"));
    }

    #[test]
    fn stale_allow_is_flagged() {
        let cfg = Config {
            allows: vec![Allow {
                rule: "hash-collections".into(),
                path: "crates/sim/src/gone.rs".into(),
                item: None,
                justification: "was needed once".into(),
                line: 9,
            }],
            ..Config::default()
        };
        let mut r = Report::default();
        apply_allows(&cfg, &mut r);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "stale-suppression");
    }

    #[test]
    fn item_narrowing_is_respected() {
        let cfg = Config {
            allows: vec![Allow {
                rule: "event-class-order".into(),
                path: "crates/net/src/network.rs".into(),
                item: Some("OBSERVE".into()),
                justification: "sample text".into(),
                line: 2,
            }],
            ..Config::default()
        };
        let mut r = Report::default();
        let mut f = finding("event-class-order", "crates/net/src/network.rs");
        f.item = Some("OBSERVE".into());
        r.findings.push(f);
        let mut g = finding("event-class-order", "crates/net/src/network.rs");
        g.item = Some("CHAOS".into());
        r.findings.push(g);
        apply_allows(&cfg, &mut r);
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.findings[0].item.as_deref(), Some("CHAOS"));
    }
}
