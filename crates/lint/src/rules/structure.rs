//! Structural cross-checks: repo-wide contracts parsed out of source.
//!
//! Unlike the token rules, these correlate *multiple* files: the event
//! class constants against their documented pop order and their uses,
//! and the scenario registry against docs/SCENARIOS.md. Each rule skips
//! silently when its anchor file is absent (so fixture mini-trees can
//! exercise one rule at a time); the `checked` counters in the report
//! let the workspace self-run assert the anchors were actually found.

use crate::lexer::TokKind;
use crate::report::{Finding, Report};
use crate::walk::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Anchor file for the event-class contract.
const NETWORK_RS: &str = "crates/net/src/network.rs";
/// Anchor files and table names of the two registries `sweep --grid`
/// resolves: the scenario registry and the paper's experiments.
const REGISTRIES: [(&str, &str); 2] = [
    ("crates/sweep/src/scenario.rs", "REGISTRY"),
    ("crates/bench/src/experiments.rs", "EXPERIMENTS"),
];
/// Scenario catalogue document, relative to the lint root.
const SCENARIOS_MD: &str = "docs/SCENARIOS.md";

pub fn run(files: &[SourceFile], root: &Path, report: &mut Report) {
    event_class_order(files, report);
    scenario_docs(files, root, report);
}

/// `event-class-order`: the same-instant pop order of the event wheel
/// is a load-bearing determinism contract — chaos transitions settle
/// before any data-plane event, and telemetry observation pops last so
/// it can never reorder the data plane. This rule parses the `mod
/// class` constants in network.rs and enforces: `CHAOS` is the strict
/// minimum, `OBSERVE` the strict maximum, `INJECT` pops directly before
/// `ARRIVE` (the packets an injection source sends at an instant lead
/// that instant's arrival batch — the order bulk pre-loading produced,
/// see `crates/net/src/source.rs`), values are unique, every `class::X`
/// use resolves to a declared constant, and no declared constant is
/// dead.
fn event_class_order(files: &[SourceFile], report: &mut Report) {
    let Some(f) = files.iter().find(|f| f.rel == NETWORK_RS) else {
        return;
    };
    let toks = f.toks();
    // Locate `mod class {` and its matching close brace.
    let Some(start) = toks
        .windows(3)
        .position(|w| w[0].is_ident("mod") && w[1].is_ident("class") && w[2].is_punct('{'))
    else {
        report.findings.push(Finding {
            rule: "event-class-order",
            file: f.rel.clone(),
            line: 0,
            item: None,
            message: "no `mod class { ... }` found".to_string(),
            hint: "the event ordering classes must live in a `mod class` so \
                   the pop-order contract stays checkable",
        });
        return;
    };
    let body_start = start + 3;
    let mut depth = 1usize;
    let mut end = body_start;
    while end < toks.len() && depth > 0 {
        if toks[end].is_punct('{') {
            depth += 1;
        } else if toks[end].is_punct('}') {
            depth -= 1;
        }
        end += 1;
    }
    // Collect `pub const NAME: u8 = N;` entries.
    let mut consts: BTreeMap<String, (u64, u32)> = BTreeMap::new();
    let mut i = body_start;
    while i + 6 < end {
        if toks[i].is_ident("const")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct(':')
        {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // Find the `=` then the number.
            let mut j = i + 3;
            while j < end && !toks[j].is_punct('=') {
                j += 1;
            }
            if let Some(num) = toks.get(j + 1).filter(|t| t.kind == TokKind::Num) {
                if let Ok(v) = num.text.parse::<u64>() {
                    consts.insert(name, (v, line));
                }
            }
            i = j;
        }
        i += 1;
    }
    report.checked.event_classes = consts.len();
    fn flag(report: &mut Report, line: u32, item: &str, message: String) {
        report.findings.push(Finding {
            rule: "event-class-order",
            file: NETWORK_RS.to_string(),
            line,
            item: Some(item.to_string()),
            message,
            hint: "same-instant pop order is (time, class, seq): chaos must \
                   settle first (strict minimum), injections must lead the \
                   arrivals of their instant (INJECT directly before ARRIVE) \
                   and OBSERVE must pop last (strict maximum) or artifacts \
                   change byte-for-byte",
        });
    }
    // Uniqueness.
    let mut by_value: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (name, (v, _)) in &consts {
        by_value.entry(*v).or_default().push(name);
    }
    for (v, names) in &by_value {
        if names.len() > 1 {
            let (_, line) = consts[names[1]];
            flag(
                report,
                line,
                names[1],
                format!("event classes {names:?} share value {v}"),
            );
        }
    }
    // CHAOS strict min, OBSERVE strict max.
    match consts.get("CHAOS") {
        None => flag(
            report,
            0,
            "CHAOS",
            "no CHAOS event class declared".to_string(),
        ),
        Some(&(v, line)) => {
            if consts.iter().any(|(n, &(o, _))| n != "CHAOS" && o <= v) {
                flag(
                    report,
                    line,
                    "CHAOS",
                    format!("CHAOS ({v}) is not the strict minimum class"),
                );
            }
        }
    }
    match consts.get("OBSERVE") {
        None => flag(
            report,
            0,
            "OBSERVE",
            "no OBSERVE event class declared".to_string(),
        ),
        Some(&(v, line)) => {
            if consts.iter().any(|(n, &(o, _))| n != "OBSERVE" && o >= v) {
                flag(
                    report,
                    line,
                    "OBSERVE",
                    format!("OBSERVE ({v}) is not the strict maximum class"),
                );
            }
        }
    }
    // INJECT directly before ARRIVE: lower, with no class in between.
    match (consts.get("INJECT"), consts.get("ARRIVE")) {
        (Some(&(inj, line)), Some(&(arr, _))) => {
            if inj >= arr || consts.values().any(|&(v, _)| inj < v && v < arr) {
                flag(
                    report,
                    line,
                    "INJECT",
                    format!("INJECT ({inj}) does not pop directly before ARRIVE ({arr})"),
                );
            }
        }
        _ => flag(
            report,
            0,
            "INJECT",
            "no INJECT/ARRIVE event class pair declared".to_string(),
        ),
    }
    // Usage resolution: every `class::X` (X all-caps) across the
    // workspace must be declared, and every declared class used.
    let mut used: BTreeSet<String> = BTreeSet::new();
    for sf in files {
        let ts = sf.toks();
        for (k, t) in ts.iter().enumerate() {
            if t.is_ident("class")
                && ts.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && ts.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(name) = ts.get(k + 3).filter(|t| {
                    t.kind == TokKind::Ident
                        && t.text.chars().all(|c| c.is_ascii_uppercase() || c == '_')
                }) {
                    used.insert(name.text.clone());
                    if !consts.is_empty() && !consts.contains_key(&name.text) {
                        report.findings.push(Finding {
                            rule: "event-class-order",
                            file: sf.rel.clone(),
                            line: name.line,
                            item: Some(name.text.clone()),
                            message: format!(
                                "`class::{}` does not name a declared event class",
                                name.text
                            ),
                            hint: "declare the class constant in `mod class` with an \
                                   explicit position in the pop order",
                        });
                    }
                }
            }
        }
    }
    for (name, (_, line)) in &consts {
        if !used.contains(name) {
            flag(
                report,
                *line,
                name,
                format!("event class `{name}` is declared but never pushed"),
            );
        }
    }
}

/// `scenario-docs`: every entry of the scenario `REGISTRY` and of the
/// `EXPERIMENTS` table must be catalogued in docs/SCENARIOS.md (as a
/// backticked name), and every backticked `##` heading in the catalogue
/// must name an entry of one of them — what `sweep --grid` runs and its
/// documentation cannot drift apart silently.
fn scenario_docs(files: &[SourceFile], root: &Path, report: &mut Report) {
    // (name, declaring file, line), over every registry that is present.
    let mut names: Vec<(String, &str, u32)> = Vec::new();
    for (rel, table) in REGISTRIES {
        let Some(f) = files.iter().find(|f| f.rel == rel) else {
            continue;
        };
        let toks = f.toks();
        let Some(reg) = toks.iter().position(|t| t.is_ident(table)) else {
            continue;
        };
        // Names appear as `name: "..."` field inits after the table's
        // token; collect them until the array's closing `]` at depth 0.
        // Advance to the opening `[` of the array literal (skip the
        // type's `&[Scenario]` brackets by waiting for `= & [`).
        let mut i = reg;
        while i < toks.len() && !(toks[i].is_punct('=')) {
            i += 1;
        }
        let mut depth = 0usize;
        let mut entered = false;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct('[') {
                depth += 1;
                entered = true;
            } else if t.is_punct(']') {
                depth -= 1;
                if entered && depth == 0 {
                    break;
                }
            } else if t.is_ident("name")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Str)
            {
                names.push((toks[i + 2].text.clone(), rel, toks[i + 2].line));
            }
            i += 1;
        }
    }
    if names.is_empty() {
        return;
    }
    report.checked.scenarios = names.len();
    let doc_path = root.join(SCENARIOS_MD);
    let doc = match std::fs::read_to_string(&doc_path) {
        Ok(d) => d,
        Err(_) => {
            report.findings.push(Finding {
                rule: "scenario-docs",
                file: SCENARIOS_MD.to_string(),
                line: 0,
                item: None,
                message: format!(
                    "{SCENARIOS_MD} is missing but {} scenarios and experiments are registered",
                    names.len()
                ),
                hint: "document every registered scenario in docs/SCENARIOS.md",
            });
            return;
        }
    };
    for (name, rel, line) in &names {
        if !doc.contains(&format!("`{name}`")) {
            report.findings.push(Finding {
                rule: "scenario-docs",
                file: rel.to_string(),
                line: *line,
                item: Some(name.clone()),
                message: format!("scenario `{name}` is not documented in {SCENARIOS_MD}"),
                hint: "add a `## `name`` section to docs/SCENARIOS.md (params, \
                       repro command, artifact path) or remove the entry",
            });
        }
    }
    // Reverse direction: headings must name registered scenarios.
    let registered: BTreeSet<&str> = names.iter().map(|(n, ..)| n.as_str()).collect();
    for (idx, line) in doc.lines().enumerate() {
        let Some(rest) = line.strip_prefix("## `") else {
            continue;
        };
        let Some(name) = rest.split('`').next() else {
            continue;
        };
        if !registered.contains(name) {
            report.findings.push(Finding {
                rule: "scenario-docs",
                file: SCENARIOS_MD.to_string(),
                line: (idx + 1) as u32,
                item: Some(name.to_string()),
                message: format!("documented scenario `{name}` is not registered"),
                hint: "register it in crates/sweep/src/scenario.rs (or the \
                       experiments table in crates/bench) or drop the stale section",
            });
        }
    }
}
