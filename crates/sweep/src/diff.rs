//! Cross-run artifact diffing — the primitive behind `sweep diff` and
//! CI regression detection.
//!
//! [`diff`] walks two parsed artifacts ([`Json`] trees) structurally.
//! Arrays of cells are matched **by grid coordinate**, not array
//! position: table cells by `(topo, original, util)`, figure series by
//! `series`, figure points by `x` — so reordering cells is not a
//! regression, while a changed, added, or removed cell is reported
//! under its coordinate (`cells[topo=…,original=FIFO,util=0.7]`), never
//! as a wall of positional noise. Numeric leaves compare under a
//! configurable relative/absolute tolerance; everything else must match
//! exactly.
//!
//! A non-empty [`DiffReport`] is what the CLI turns into a nonzero exit
//! status.

use crate::artifact::Json;

/// Numeric comparison tolerances for [`diff`].
///
/// Two numbers `a`, `b` are equal when
/// `|a - b| <= abs_tol + rel_tol * max(|a|, |b|)`. The default is exact
/// comparison (both tolerances zero) — right for artifacts produced by
/// the deterministic engine, where any drift is a real change.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffOptions {
    /// Relative tolerance (scaled by the larger magnitude).
    pub rel_tol: f64,
    /// Absolute tolerance (dominates near zero).
    pub abs_tol: f64,
}

impl DiffOptions {
    fn close(&self, a: f64, b: f64) -> bool {
        if a == b {
            return true;
        }
        if !a.is_finite() || !b.is_finite() {
            return false;
        }
        (a - b).abs() <= self.abs_tol + self.rel_tol * a.abs().max(b.abs())
    }
}

/// One divergence between the two artifacts, anchored to a path of
/// object keys and grid coordinates.
#[derive(Debug, Clone)]
pub struct Difference {
    /// Where (e.g. `cells[topo=I2 1G-10G,original=FIFO,util=0.7].frac_overdue.mean`).
    pub path: String,
    /// What (e.g. `0.1 -> 0.25 (rel delta 6e-1)`).
    pub detail: String,
}

/// The outcome of an artifact comparison: every difference found plus
/// how many numeric leaves were actually compared (a self-diff that
/// compared nothing would be vacuous, so the count is surfaced).
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All divergences, in artifact order.
    pub differences: Vec<Difference>,
    /// Number of numeric leaf pairs compared.
    pub compared: usize,
}

impl DiffReport {
    /// True when the artifacts match under the given tolerances.
    pub fn is_clean(&self) -> bool {
        self.differences.is_empty()
    }

    /// Human-readable report: a summary line, then one line per
    /// difference.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} numeric value(s) compared, {} difference(s)\n",
            self.compared,
            self.differences.len()
        );
        for d in &self.differences {
            out.push_str(&format!("  {}: {}\n", d.path, d.detail));
        }
        out
    }

    fn note(&mut self, path: &str, detail: String) {
        self.differences.push(Difference {
            path: path.to_string(),
            detail,
        });
    }
}

/// Compare two parsed artifacts; see the module docs for the matching
/// rules. `old` is the baseline, `new` the candidate.
pub fn diff(old: &Json, new: &Json, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    walk("$", old, new, opts, &mut report);
    report
}

/// Parse two artifact documents and compare them. Errors only on
/// malformed JSON, never on content differences.
pub fn diff_artifacts(old: &str, new: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let old = Json::parse(old).map_err(|e| format!("old artifact: {e}"))?;
    let new = Json::parse(new).map_err(|e| format!("new artifact: {e}"))?;
    Ok(diff(&old, &new, opts))
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Num(_) | Json::UInt(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn as_number(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

/// Render a scalar for use inside a coordinate key.
fn scalar_str(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(x) => format!("{x}"),
        Json::UInt(n) => format!("{n}"),
        other => type_name(other).to_string(),
    }
}

/// The grid coordinate of a cell-like object, if it has one: table
/// cells key by `(topo, original, util)` — extended with the chaos
/// drop rate when the cell carries one — figure series by `series`,
/// figure points by `x`.
fn coord_key(v: &Json) -> Option<String> {
    let Json::Obj(members) = v else { return None };
    let get = |k: &str| members.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    if let (Some(t), Some(o), Some(u)) = (get("topo"), get("original"), get("util")) {
        let chaos = get("chaos_drop_ppm")
            .map(|d| format!(",chaos_drop_ppm={}", scalar_str(d)))
            .unwrap_or_default();
        return Some(format!(
            "topo={},original={},util={}{chaos}",
            scalar_str(t),
            scalar_str(o),
            scalar_str(u)
        ));
    }
    if let Some(s) = get("series") {
        return Some(format!("series={}", scalar_str(s)));
    }
    if let Some(x) = get("x") {
        return Some(format!("x={}", scalar_str(x)));
    }
    None
}

/// Coordinate keys for an array, if *every* element has one and the
/// keys are unique — otherwise the array is compared positionally.
fn array_keys(items: &[Json]) -> Option<Vec<String>> {
    let keys: Vec<String> = items.iter().map(coord_key).collect::<Option<_>>()?;
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    (sorted.len() == keys.len()).then_some(keys)
}

fn walk(path: &str, old: &Json, new: &Json, opts: &DiffOptions, report: &mut DiffReport) {
    match (old, new) {
        (Json::Null, Json::Null) => {}
        (a, b) if as_number(a).is_some() && as_number(b).is_some() => {
            let (x, y) = (as_number(a).unwrap(), as_number(b).unwrap());
            report.compared += 1;
            if !opts.close(x, y) {
                let denom = x.abs().max(y.abs());
                let rel = if denom > 0.0 {
                    format!(" (rel delta {:.3e})", (x - y).abs() / denom)
                } else {
                    String::new()
                };
                report.note(path, format!("{x} -> {y}{rel}"));
            }
        }
        (Json::Str(a), Json::Str(b)) => {
            if a != b {
                report.note(path, format!("`{a}` -> `{b}`"));
            }
        }
        (Json::Arr(a), Json::Arr(b)) => match (array_keys(a), array_keys(b)) {
            (Some(old_keys), Some(new_keys)) => {
                for (key, item) in old_keys.iter().zip(a) {
                    match new_keys.iter().position(|k| k == key) {
                        Some(j) => walk(&format!("{path}[{key}]"), item, &b[j], opts, report),
                        None => report.note(
                            &format!("{path}[{key}]"),
                            "removed (present only in old)".to_string(),
                        ),
                    }
                }
                for key in &new_keys {
                    if !old_keys.contains(key) {
                        report.note(
                            &format!("{path}[{key}]"),
                            "added (present only in new)".to_string(),
                        );
                    }
                }
            }
            _ => {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    walk(&format!("{path}[{i}]"), x, y, opts, report);
                }
                for i in b.len()..a.len() {
                    report.note(
                        &format!("{path}[{i}]"),
                        "removed (present only in old)".to_string(),
                    );
                }
                for i in a.len()..b.len() {
                    report.note(
                        &format!("{path}[{i}]"),
                        "added (present only in new)".to_string(),
                    );
                }
            }
        },
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, value) in a {
                match b.iter().find(|(k, _)| k == key) {
                    Some((_, other)) => walk(&format!("{path}.{key}"), value, other, opts, report),
                    None => report.note(
                        &format!("{path}.{key}"),
                        "removed (present only in old)".to_string(),
                    ),
                }
            }
            for (key, _) in b {
                if !a.iter().any(|(k, _)| k == key) {
                    report.note(
                        &format!("{path}.{key}"),
                        "added (present only in new)".to_string(),
                    );
                }
            }
        }
        (a, b) => {
            report.note(path, format!("{} -> {}", type_name(a), type_name(b)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep_with;
    use crate::grid::{Job, SweepSpec};
    use crate::CellMetrics;

    fn artifact(bump_cell1: f64) -> String {
        let spec = SweepSpec::smoke().with_replicates(2);
        run_sweep_with(&spec, "test", 1, |job: &Job| CellMetrics {
            total: 100,
            frac_overdue: 0.25 + if job.cell == 1 { bump_cell1 } else { 0.0 },
            frac_gt_t: 0.125,
            t_us: 12.0,
            max_cp: 1,
            mean_slack_us: 3.5,
            deadline: None,
            chaos: None,
        })
        .to_json()
    }

    #[test]
    fn identical_artifacts_are_clean() {
        let report = diff_artifacts(&artifact(0.0), &artifact(0.0), &DiffOptions::default())
            .expect("parses");
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.compared > 0, "self-diff must compare something");
    }

    #[test]
    fn perturbation_within_tolerance_is_clean() {
        let opts = DiffOptions {
            rel_tol: 1e-2,
            abs_tol: 0.0,
        };
        let report = diff_artifacts(&artifact(0.0), &artifact(1e-4), &opts).expect("parses");
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn regression_is_reported_under_its_coordinate() {
        let report =
            diff_artifacts(&artifact(0.0), &artifact(0.1), &DiffOptions::default()).unwrap();
        assert!(!report.is_clean());
        // Only the perturbed cell's frac_overdue stats moved.
        for d in &report.differences {
            assert!(d.path.contains("util=0.7"), "wrong cell named: {}", d.path);
            assert!(d.path.contains("frac_overdue"), "wrong metric: {}", d.path);
        }
        let rendered = report.render();
        assert!(rendered.contains("original=Random"), "{rendered}");
    }

    #[test]
    fn added_and_removed_cells_are_named() {
        let small = run_sweep_with(&SweepSpec::smoke(), "test", 1, |_: &Job| CellMetrics {
            total: 1,
            frac_overdue: 0.0,
            frac_gt_t: 0.0,
            t_us: 12.0,
            max_cp: 0,
            mean_slack_us: 0.0,
            deadline: None,
            chaos: None,
        });
        let i2_web = crate::scenario::find("i2-web").expect("registered").spec();
        let big = run_sweep_with(&i2_web, "test", 1, |_: &Job| CellMetrics {
            total: 1,
            frac_overdue: 0.0,
            frac_gt_t: 0.0,
            t_us: 12.0,
            max_cp: 0,
            mean_slack_us: 0.0,
            deadline: None,
            chaos: None,
        });
        let report =
            diff_artifacts(&big.to_json(), &small.to_json(), &DiffOptions::default()).unwrap();
        let removed: Vec<_> = report
            .differences
            .iter()
            .filter(|d| d.detail.contains("removed"))
            .collect();
        // i2-web has 0.1/0.5/0.9 cells the smoke grid lacks.
        assert_eq!(removed.len(), 3, "{}", report.render());
        assert!(removed.iter().any(|d| d.path.contains("util=0.1")));
        let reverse =
            diff_artifacts(&small.to_json(), &big.to_json(), &DiffOptions::default()).unwrap();
        assert!(reverse
            .differences
            .iter()
            .any(|d| d.detail.contains("added") && d.path.contains("util=0.9")));
    }

    #[test]
    fn cell_reordering_is_not_a_regression() {
        let a = Json::parse(&artifact(0.0)).unwrap();
        // Reverse the cells array in-place.
        let Json::Obj(mut members) = a.clone() else {
            panic!()
        };
        for (key, value) in &mut members {
            if key == "cells" {
                let Json::Arr(items) = value else { panic!() };
                items.reverse();
            }
        }
        let report = diff(&a, &Json::Obj(members), &DiffOptions::default());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn figure_points_match_by_x() {
        use crate::engine::run_fig_with;
        use crate::grid::{FigAxis, FigSpec};
        let fig = |bump: f64| {
            let spec = FigSpec::new(
                "f",
                "t",
                vec!["FIFO".into()],
                FigAxis::numeric("ratio", vec![0.5, 1.0]),
            );
            run_fig_with(&spec, "test", 1, |_| crate::DistMetrics {
                scalars: vec![],
                points: vec![0.3, 0.7 + bump],
            })
            .to_json()
        };
        let report = diff_artifacts(&fig(0.0), &fig(0.2), &DiffOptions::default()).unwrap();
        assert_eq!(report.differences.len(), 1, "{}", report.render());
        assert!(report.differences[0].path.contains("[x=1]"));
        assert!(report.differences[0].path.contains("series=FIFO"));
    }

    #[test]
    fn metadata_and_type_changes_are_reported() {
        let report = diff_artifacts(
            "{\"scale\": \"quick\", \"n\": 1}",
            "{\"scale\": \"full\", \"n\": null}",
            &DiffOptions::default(),
        )
        .unwrap();
        assert_eq!(report.differences.len(), 2);
        assert!(report.differences[0].detail.contains("`quick` -> `full`"));
        assert!(report.differences[1].detail.contains("number -> null"));
    }
}
