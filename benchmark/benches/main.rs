//! `upsbench` — the repo benchmark (see `BENCHMARK.json` at the repo
//! root and `benchmark/README.md`).
//!
//! ```text
//! upsbench [run] --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
//! upsbench trace [--workload <name|all>] [--seed N]
//! upsbench selfcheck [--seed N] [--seconds S]
//! ```
//!
//! A run of one workload prints a table for people, then — as the last
//! line of standard output — one JSON object for the acceptance driver.
//! Configuration comes from flags only.

// The repo's clippy.toml bans wall-clock reads so they cannot leak into
// simulated results; this crate is the benchmark, and reading the wall
// clock around calls into the product is its whole job.
#![allow(clippy::disallowed_methods)]

mod manifest;
mod probes;
mod procfs;
mod selfcheck;
mod spans;
mod stats;
mod timed;
mod traced;
mod walk;
mod workloads;

use std::process::ExitCode;
use workloads::{find, Workload, WORKLOADS};

/// A measured value: a time or ratio as measured, or an exact count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    F(f64),
    U(u64),
}

impl Value {
    /// All digits, for the result line.
    fn full(self) -> String {
        match self {
            Value::F(x) if x.is_finite() => x.to_string(),
            Value::F(_) => "0".to_string(),
            Value::U(n) => n.to_string(),
        }
    }

    /// Rounded, for the table.
    pub fn short(self) -> String {
        match self {
            Value::F(x) => format!("{x:.4}"),
            Value::U(n) => n.to_string(),
        }
    }
}

/// One named metric of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Value,
}

impl Metric {
    pub fn f(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value: Value::F(value),
        }
    }

    /// An exact count.
    pub fn u(name: &'static str, value: u64) -> Metric {
        Metric {
            name,
            unit: "count",
            value: Value::U(value),
        }
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    pub correct: bool,
    /// Cell-runs attempted, over every pass of the run.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line the acceptance driver reads.
    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value.full(),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Debug, PartialEq)]
enum Command {
    Run,
    Selfcheck,
}

#[derive(Debug, PartialEq)]
struct Args {
    command: Command,
    /// `None` = all four.
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

const USAGE: &str = "\
usage: upsbench [run] --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
       upsbench trace [--workload <name|all>] [--seed N]
       upsbench selfcheck [--seed N] [--seconds S]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Run,
        workload: None,
        seed: 1,
        seconds: 12,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = argv.iter().peekable();
    let mut named = false;
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            it.next();
            args.trace = true;
            named = true;
        }
        Some("selfcheck") => {
            it.next();
            args.command = Command::Selfcheck;
            named = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires {what}"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: expected a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name == "all" {
                    args.workload = None;
                } else if find(&name).is_some() {
                    args.workload = Some(name);
                } else {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}` (known: {})",
                        known.join(", ")
                    ));
                }
                named = true;
            }
            "--seed" => args.seed = number(value("a seed")?)?,
            "--seconds" => args.seconds = number(value("a number of seconds")?)?.max(1),
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The flags that run one workload the way `args` asks.
fn child_args(workload: &str, args: &Args) -> Vec<String> {
    let mut out: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]
    .map(str::to_string)
    .to_vec();
    out.extend(args.smoke.then(|| "--smoke".to_string()));
    out.extend(args.bless.then(|| "--bless".to_string()));
    out
}

fn run_one(w: &Workload, args: &Args) {
    let outcome = if args.trace {
        traced::run(w, args.seed)
    } else {
        timed::run(
            w,
            &timed::TimedOptions {
                seed: args.seed,
                seconds: args.seconds,
                smoke: args.smoke,
                bless: args.bless,
            },
        )
    };
    println!("{}", outcome.to_json_line());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("upsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.command == Command::Selfcheck {
        return selfcheck::run(args.seed, args.seconds);
    }
    match &args.workload {
        Some(name) => {
            let w = find(name).expect("parse_args checked the name");
            run_one(w, &args);
            ExitCode::SUCCESS
        }
        // One process per workload, so peak memory and warm-up are each
        // workload's own.
        None => {
            for w in &WORKLOADS {
                if !selfcheck::child(&child_args(w.name, &args), false).0 {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_flags_parse_without_a_subcommand() {
        let a = parse_args(&argv(
            "--workload rocketfuel-full --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.workload.as_deref(), Some("rocketfuel-full"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        let b = parse_args(&argv("run --workload all --smoke")).unwrap();
        assert_eq!((b.workload, b.smoke, b.seed), (None, true, 1));
        assert!(parse_args(&argv("trace")).unwrap().trace);
        assert_eq!(
            parse_args(&argv("selfcheck --seconds 3")).unwrap().command,
            Command::Selfcheck
        );
    }

    #[test]
    fn bad_flags_are_errors_not_defaults() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --seed x")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --jobs 4")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    #[test]
    fn result_line_carries_every_digit_and_exact_counts() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::f("wall_s", "s", 1.2034567890123),
                Metric::u("net.events", 2_330_000),
            ],
        };
        assert_eq!(
            outcome.to_json_line(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.2034567890123, \"unit\": \"s\"}, \
             \"net.events\": {\"value\": 2330000, \"unit\": \"count\"}}}"
        );
    }
}
