//! `BENCHMARK.json` as the harness reads it (bounds and metric names
//! have one home), and the tests that keep the harness, the manifest
//! and the two Cargo manifests in step.

use crate::workloads::{member, repo_root};
use ups_sweep::Json;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn text_of(v: Option<&Json>) -> Option<String> {
    match v? {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn declared(list: Option<&Json>) -> Option<Vec<Declared>> {
    let Json::Arr(items) = list? else {
        return None;
    };
    items
        .iter()
        .map(|m| {
            Some(Declared {
                name: text_of(member(m, "name"))?,
                unit: text_of(member(m, "unit"))?,
                lower_is_better: text_of(member(m, "better"))? == "lower",
                bound: match member(m, "bound") {
                    Some(Json::Num(x)) => Some(*x),
                    Some(Json::UInt(n)) => Some(*n as f64),
                    _ => None,
                },
            })
        })
        .collect()
}

pub fn load_manifest() -> Manifest {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let root = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key| declared(member(&root, key)).expect("BENCHMARK.json lists its metrics");
    Manifest {
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, WORKLOADS};
    use crate::{timed, traced};

    /// The `[profile.<name>]` table of a Cargo manifest, as its
    /// `key = value` lines without comments or blank lines.
    fn profile(manifest: &str, name: &str) -> Vec<String> {
        let header = format!("[profile.{name}]");
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn profile_tables_are_read_up_to_the_next_table() {
        let text = "[profile.dev]\nopt-level = 1 # fast tests\n\n# note\n[profile.release]\nlto = \"thin\"\ncodegen-units = 1\n[package]\nname = \"x\"\n";
        assert_eq!(profile(text, "dev"), ["opt-level = 1"]);
        assert_eq!(
            profile(text, "release"),
            ["lto = \"thin\"", "codegen-units = 1"]
        );
        assert!(profile(text, "bench").is_empty());
    }

    /// A nested workspace does not inherit the root's profiles; if the
    /// two drift apart the benchmark silently measures another build.
    #[test]
    fn build_profiles_equal_the_root_workspace() {
        let read = |rel: &str| std::fs::read_to_string(repo_root().join(rel)).expect(rel);
        let (root, ours) = (read("Cargo.toml"), read("benchmark/Cargo.toml"));
        for name in ["release", "dev", "bench", "test"] {
            assert_eq!(
                profile(&ours, name),
                profile(&root, name),
                "[profile.{name}] differs between benchmark/Cargo.toml and the root manifest"
            );
        }
        assert!(
            !profile(&root, "release").is_empty(),
            "root release profile was found"
        );
    }

    #[test]
    fn manifest_names_the_harness_workloads() {
        let path = repo_root().join("BENCHMARK.json");
        let root = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(listed)) = member(&root, "workloads") else {
            panic!("BENCHMARK.json lists workloads");
        };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|w| {
                (
                    text_of(member(w, "name")).unwrap(),
                    text_of(member(w, "why")).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(
            member(&root, "paths"),
            Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
        );
    }

    /// What the harness prints is what the manifest declares: same
    /// names, same units, same order — in both trace modes. Runs the
    /// smallest workload once each way.
    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let manifest = load_manifest();
        let w = find("i2-deadline-replay").unwrap();
        let names_units = |ms: &[crate::Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let declared = |ds: &[Declared]| -> Vec<(String, String)> {
            ds.iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect()
        };
        let timed = timed::run(
            w,
            &timed::TimedOptions {
                seed: 1,
                seconds: 1,
                smoke: true,
                bless: false,
            },
        );
        assert_eq!(names_units(&timed.metrics), declared(&manifest.end_to_end));
        let traced = traced::run(w, 1);
        assert!(traced.correct);
        assert_eq!(names_units(&traced.metrics), declared(&manifest.per_layer));
        assert!(manifest
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(manifest.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
