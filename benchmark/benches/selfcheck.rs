//! `selfcheck`: the whole suite twice back to back on the same build
//! (A/A). Two sets of runs of one program must agree within the
//! benchmark's own bounds on every end-to-end metric and exactly on
//! every count; the bounds in `BENCHMARK.json` were frozen from this
//! command's output.

use crate::manifest::load_manifest;
use crate::workloads::{member, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use ups_sweep::Json;

/// Run this program again with `args`, one process per workload run.
/// Returns whether it exited with 0 and, when `capture` is set, what it
/// printed (otherwise its output goes straight through).
pub fn child(args: &[String], capture: bool) -> (bool, String) {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut cmd = Command::new(exe);
    cmd.args(args);
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .expect("re-running the benchmark program");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// What one captured run said: the result line's fields and the
/// printed digest.
struct Said {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digest: Option<String>,
}

impl Said {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

fn parse_run(stdout: &str) -> Option<Said> {
    let last = stdout.lines().last()?;
    // The artifact parser reads the subset the artifacts use, which has
    // no booleans: the result line's one boolean is read as text.
    let correct = last.starts_with("{\"correct\": true, ");
    let rest = last
        .strip_prefix("{\"correct\": true, ")
        .or_else(|| last.strip_prefix("{\"correct\": false, "))?;
    let line = Json::parse(&format!("{{{rest}")).ok()?;
    let whole = |v: Option<&Json>| match v? {
        Json::UInt(n) => Some(*n),
        _ => None,
    };
    let Json::Obj(metrics) = member(&line, "metrics")? else {
        return None;
    };
    Some(Said {
        correct,
        attempted: whole(member(&line, "attempted"))?,
        failed: whole(member(&line, "failed"))?,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = match member(m, "value")? {
                    Json::Num(x) => *x,
                    Json::UInt(n) => *n as f64,
                    _ => return None,
                };
                Some((name.clone(), value))
            })
            .collect::<Option<_>>()?,
        digest: stdout
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("digest "))
            .filter_map(|rest| rest.split_whitespace().next())
            .map(str::to_string)
            .next(),
    })
}

/// By how much `b` is worse than `a`, as a share of `a`, or better
/// than it (negative).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn run(seed: u64, seconds: u64) -> ExitCode {
    let manifest = load_manifest();
    let mut failures: Vec<String> = Vec::new();
    // sets[set][workload] = (timed run, traced run)
    let mut sets: Vec<Vec<(Said, Said)>> = Vec::new();
    for set in ["A", "B"] {
        let mut runs = Vec::new();
        for w in &WORKLOADS {
            let mut said = Vec::new();
            for trace in ["0", "1"] {
                let args: Vec<String> = [
                    "--workload",
                    w.name,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    trace,
                ]
                .map(str::to_string)
                .to_vec();
                println!("== set {set}: upsbench {}", args.join(" "));
                let (ok, stdout) = child(&args, true);
                print!("{stdout}");
                match parse_run(&stdout) {
                    Some(run) if ok => said.push(run),
                    _ => {
                        eprintln!("selfcheck: the run above failed or printed no result line");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let traced = said.pop().expect("two runs per workload");
            runs.push((said.pop().expect("two runs per workload"), traced));
        }
        sets.push(runs);
    }

    println!("== A/A comparison (seed {seed}, {seconds} s budget)");
    println!(
        "{:<20}{:<30}{:>16}{:>16}{:>10}{:>8}",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let ((timed_a, traced_a), (timed_b, traced_b)) = (&sets[0][i], &sets[1][i]);
        for run in [timed_a, traced_a, timed_b, traced_b] {
            if !run.correct || run.failed > 0 {
                failures.push(format!(
                    "{}: a run was incorrect or had failed cell-runs",
                    w.name
                ));
            }
        }
        for d in &manifest.end_to_end {
            let (Some(a), Some(b)) = (timed_a.metric(&d.name), timed_b.metric(&d.name)) else {
                failures.push(format!("{} {}: not reported", w.name, d.name));
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            // A/A has no parent side: either run may play it.
            let worse = worsening(a, b, d.lower_is_better).max(worsening(b, a, d.lower_is_better));
            println!(
                "{:<20}{:<30}{a:>16.4}{b:>16.4}{:>+10.4}{bound:>8.2}",
                w.name,
                d.name,
                worsening(a, b, d.lower_is_better)
            );
            if worse > bound {
                failures.push(format!(
                    "{} {}: A {a} and B {b} disagree by {worse:.4}, more than the bound {bound}",
                    w.name, d.name
                ));
            }
        }
        for d in manifest.per_layer.iter().filter(|d| d.unit == "count") {
            let (a, b) = (traced_a.metric(&d.name), traced_b.metric(&d.name));
            if a.is_none() || a != b {
                println!("{:<20}{:<30}{a:>16?}{b:>16?}   DIFFERS", w.name, d.name);
                failures.push(format!(
                    "{} {}: exact count differs ({a:?} vs {b:?})",
                    w.name, d.name
                ));
            }
        }
        let same_work = timed_a.attempted == timed_b.attempted
            && traced_a.attempted == traced_b.attempted
            && timed_a.digest.is_some()
            && timed_a.digest == timed_b.digest;
        println!(
            "{:<20}{:<30}{:>18}{:>18}",
            w.name,
            "digest",
            timed_a.digest.as_deref().unwrap_or("-"),
            timed_b.digest.as_deref().unwrap_or("-")
        );
        if !same_work {
            failures.push(format!("{}: digests or attempted cell-runs differ", w.name));
        }
    }
    if failures.is_empty() {
        println!(
            "selfcheck: the two sets agree within every bound; every exact count is identical"
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("selfcheck FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_and_digests_are_read_back() {
        let stdout = "workload x\n  digest            00ff00ff00ff00ff  matches expected.json\n\
            {\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
            {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"net.events\": {\"value\": 7, \"unit\": \"count\"}}}\n";
        let said = parse_run(stdout).unwrap();
        assert!(said.correct);
        assert_eq!((said.attempted, said.failed), (12, 0));
        assert_eq!(
            said.metrics,
            [("wall_s".to_string(), 1.5), ("net.events".to_string(), 7.0)]
        );
        assert_eq!(said.digest.as_deref(), Some("00ff00ff00ff00ff"));
        assert!(parse_run("no result line").is_none());
        assert!(!parse_run(&stdout.replace("true", "false")).unwrap().correct);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }
}
