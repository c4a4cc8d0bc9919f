//! `sweep` — the one way to run an experiment.
//!
//! `--grid NAME` runs, in this order of lookup: a named grid (`table1`,
//! the default; `smoke`), a registered scenario
//! (`ups_sweep::scenario`, catalogued in `docs/SCENARIOS.md`), one of
//! the paper's experiments (`ups_sweep::EXPERIMENTS`: `fig1`…`fig4`, the
//! ablations, the diagnostics), or `paper` (Table 1, then every
//! experiment). Grids and scenarios expand into cells × seed replicates,
//! run on a scoped-thread worker pool and print per-cell mean ± stddev;
//! experiments print their figure report. Every run writes JSON + CSV
//! artifacts under `target/sweep/` (override with `--out DIR`), and
//! output is byte-identical for every `--jobs` value.
//!
//! `scenarios` lists what `--grid` accepts beyond the named grids and
//! describes a scenario; `diff` compares two JSON artifacts (table or
//! figure) structurally, keyed by grid coordinate, and exits nonzero
//! when they diverge beyond the given tolerance — the cross-run
//! regression check.
//!
//! ```sh
//! cargo run --release --bin sweep -- --jobs 4 --replicates 3
//! cargo run --release --bin sweep -- --grid dc-k8-incast --jobs 4
//! cargo run --release --bin sweep -- --grid fig1 --replicates 2
//! cargo run --release --bin sweep -- scenarios list
//! cargo run --release --bin sweep -- scenarios describe rocketfuel-full
//! cargo run --release --bin sweep -- diff baseline.json target/sweep/table1.json
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use ups_core::WorkloadKind;
use ups_sim::{Dur, PS_PER_MS, PS_PER_US};
use ups_sweep::scenario::{self, Scenario};
use ups_sweep::{
    diff_artifacts, run_sweep, run_telemetry_sweep, CellPipeline, ChaosSpec, DiffOptions,
    Experiment, FigReport, Scale, Stat, SweepReport, SweepSpec, EXPERIMENTS,
};

/// Write a line to stdout, swallowing write failures: when stdout is
/// piped through e.g. `head`, the reader can close the pipe before the
/// run finishes, and std maps the resulting `EPIPE` to a `println!`
/// panic (Rust ignores SIGPIPE). A run must still write its JSON/CSV
/// artifacts and exit cleanly in that case, so every stdout write goes
/// through `out!`/`out_inline!`. Diagnostics on stderr keep using
/// `eprintln!`.
macro_rules! out {
    () => { out!("") };
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// [`out!`] without the trailing newline (the `print!` analogue).
macro_rules! out_inline {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

/// The `--grid` name that runs Table 1, then every experiment.
const PAPER: &str = "paper";
const PAPER_TITLE: &str = "Table 1, then every experiment above in sequence";

const USAGE: &str = "\
usage: sweep [--grid NAME] [--out DIR] [--telemetry] [chaos flags] [scale flags]
       sweep scenarios [list | describe NAME]
       sweep diff OLD.json NEW.json [--rel-tol X] [--abs-tol X]
  --grid NAME  what to run: table1 (default), smoke, a registered scenario
               or an experiment of the paper (fig1..fig4, ablation-*, paper,
               ...; `sweep scenarios list` prints both)
  --out DIR    artifact directory (default: target/sweep)
  --telemetry  sample queue/utilization time series on the event wheel and
               additionally write <grid>_telemetry.json/.csv
  --telemetry-interval-us N  sampling cadence in µs (default 250; implies --telemetry)
  --chaos-drop-ppm N     perturb every cell's replay leg: i.i.d. drop rate in ppm
  --chaos-seed N         chaos RNG seed (default: the fixed chaos seed)
  --chaos-fail-period-us N / --chaos-fail-down-us N   periodic link failures
  --chaos-jam-period-us N / --chaos-jam-burst-us N    periodic jamming windows
  --rel-tol X  diff: relative tolerance per numeric value (default 0 = exact)
  --abs-tol X  diff: absolute tolerance per numeric value (default 0 = exact)
scale flags:
  --full          paper-like scale (default: quick)
  --seed N        base RNG seed (default: 1)
  --horizon-ms N  flow-arrival horizon in milliseconds
  --edges N       edge routers per core router on WAN topologies
  --jobs N        worker threads (default: available parallelism; output
                  is identical for every value; the single-seed ablations
                  and diagnostics run serially)
  --replicates N  seed replicates per grid cell or figure series, reported
                  as mean +/- stddev (default: 1; the single-seed
                  ablations and diagnostics ignore it)
telemetry and chaos flags apply to grids and scenarios, not to experiments.";

fn usage_exit(err: &str) -> ! {
    eprintln!("error: {err}\n{USAGE}");
    std::process::exit(2);
}

/// Everything the command line can say, from one pass over it.
#[derive(Debug)]
struct Args {
    /// Bare words in order: the subcommand and its operands.
    words: Vec<String>,
    /// Every flag given, for the per-subcommand applicability check.
    flags: Vec<String>,
    grid: Option<String>,
    out: PathBuf,
    /// Sampling cadence, when telemetry was requested.
    telemetry: Option<Dur>,
    /// Override for *every* cell of the grid, when any chaos flag was given.
    chaos: Option<ChaosSpec>,
    tolerance: DiffOptions,
    scale: Scale,
}

/// The value of `flag`: the next argument, which must not itself be a
/// flag — consuming one silently would both mis-scale the run and (for
/// `--out`) write artifacts to a `./--flag/` directory.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with('-') => Ok(v),
        Some(v) => Err(format!("{flag} requires a value, got flag `{v}`")),
        None => Err(format!("{flag} requires a value")),
    }
}

/// [`value`] parsed as a number; `what` names the accepted kind.
fn number<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag}: expected {what}, got `{v}`"))
}

/// `n` whole units of `ps_per` picoseconds, or an error naming `flag`
/// when the span does not fit the picosecond clock.
fn span(n: u64, ps_per: u64, flag: &str) -> Result<Dur, String> {
    n.checked_mul(ps_per)
        .map(Dur)
        .ok_or_else(|| format!("{flag}: `{n}` is too long for the picosecond clock"))
}

impl Args {
    /// Parse an argument vector (without the program name). Unknown
    /// flags and missing or unparseable values are errors.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            words: Vec::new(),
            flags: Vec::new(),
            grid: None,
            out: PathBuf::from("target/sweep"),
            telemetry: None,
            chaos: None,
            tolerance: DiffOptions::default(),
            scale: Scale::quick(),
        };
        let (mut full, mut interval) = (false, Dur::from_micros(250));
        let (mut seed, mut horizon, mut edges, mut jobs, mut replicates) =
            (None, None, None, None, None);
        let it = &mut args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                a.words.push(arg);
                continue;
            }
            let flag = arg.as_str();
            let (int, tol) = ("an integer", "a non-negative number");
            match flag {
                "--grid" => a.grid = Some(value(it, flag)?),
                "--out" => a.out = PathBuf::from(value(it, flag)?),
                "--telemetry" => {}
                "--telemetry-interval-us" => {
                    let us = number(it, flag, "a positive integer")?;
                    if us == 0 {
                        return Err(format!("{flag}: expected a positive integer, got `0`"));
                    }
                    interval = span(us, PS_PER_US, flag)?;
                }
                "--chaos-drop-ppm" => {
                    let ppm = number(it, flag, int)?;
                    if ppm > 1_000_000 {
                        return Err(format!("{flag}: at most 1000000 (= drop everything)"));
                    }
                    a.chaos.get_or_insert(ChaosSpec::OFF).drop_ppm = ppm;
                }
                "--chaos-seed" => {
                    a.chaos.get_or_insert(ChaosSpec::OFF).seed = number(it, flag, int)?
                }
                "--chaos-fail-period-us" => {
                    a.chaos.get_or_insert(ChaosSpec::OFF).fail_period_us = number(it, flag, int)?
                }
                "--chaos-fail-down-us" => {
                    a.chaos.get_or_insert(ChaosSpec::OFF).fail_down_us = number(it, flag, int)?
                }
                "--chaos-jam-period-us" => {
                    a.chaos.get_or_insert(ChaosSpec::OFF).jam_period_us = number(it, flag, int)?
                }
                "--chaos-jam-burst-us" => {
                    a.chaos.get_or_insert(ChaosSpec::OFF).jam_burst_us = number(it, flag, int)?
                }
                "--rel-tol" => a.tolerance.rel_tol = number(it, flag, tol)?,
                "--abs-tol" => a.tolerance.abs_tol = number(it, flag, tol)?,
                "--full" => full = true,
                "--seed" => seed = Some(number(it, flag, int)?),
                "--horizon-ms" => horizon = Some(span(number(it, flag, int)?, PS_PER_MS, flag)?),
                "--edges" => edges = Some(number::<usize>(it, flag, int)?.max(1)),
                "--jobs" => jobs = Some(number::<usize>(it, flag, int)?.max(1)),
                "--replicates" => replicates = Some(number::<usize>(it, flag, int)?.max(1)),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
            if flag.starts_with("--telemetry") {
                a.telemetry = Some(interval);
            }
            a.flags.push(arg);
        }
        // `--full` picks the base scale wherever it stands; the explicit
        // values then override it.
        if full {
            a.scale = Scale::full();
        }
        a.scale.seed = seed.unwrap_or(a.scale.seed);
        a.scale.sim.horizon = horizon.unwrap_or(a.scale.sim.horizon);
        a.scale.sim.edges_per_core = edges.unwrap_or(a.scale.sim.edges_per_core);
        a.scale.jobs = jobs.unwrap_or(a.scale.jobs);
        a.scale.replicates = replicates.unwrap_or(a.scale.replicates);
        // Replicate `r` runs at seed `seed + r`.
        let last_replicate = a.scale.replicates as u64 - 1;
        if a.scale.seed.checked_add(last_replicate).is_none() {
            return Err(format!(
                "--seed {} leaves no room for {} replicates below 2^64",
                a.scale.seed, a.scale.replicates
            ));
        }
        if !(a.tolerance.rel_tol >= 0.0 && a.tolerance.abs_tol >= 0.0) {
            return Err("--rel-tol/--abs-tol: expected a non-negative number".to_string());
        }
        let c = a.chaos.unwrap_or(ChaosSpec::OFF);
        if c.fail_period_us > 0 && c.fail_down_us >= c.fail_period_us {
            return Err(
                "--chaos-fail-down-us must be less than --chaos-fail-period-us".to_string(),
            );
        }
        if c.fail_down_us > 0 && c.fail_period_us == 0 {
            return Err("--chaos-fail-down-us requires --chaos-fail-period-us".to_string());
        }
        if c.jam_period_us > 0 && c.jam_burst_us >= c.jam_period_us {
            return Err("--chaos-jam-burst-us must be less than --chaos-jam-period-us".to_string());
        }
        if c.jam_burst_us > 0 && c.jam_period_us == 0 {
            return Err("--chaos-jam-burst-us requires --chaos-jam-period-us".to_string());
        }
        Ok(a)
    }

    /// Exit 2 if a flag was given that `what` has no use for; a flag
    /// that silently does nothing hides a mistyped command.
    fn only(&self, what: &str, applies: impl Fn(&str) -> bool) {
        if let Some(flag) = self.flags.iter().find(|f| !applies(f)) {
            usage_exit(&format!("{flag} does not apply to {what}"));
        }
    }
}

fn is_tolerance(flag: &str) -> bool {
    flag.ends_with("-tol")
}

/// `sweep diff OLD NEW [--rel-tol X] [--abs-tol X]`: exit 0 when the
/// artifacts match under the tolerance, 1 when they diverge (the
/// regression signal for CI), 2 on usage/IO/parse errors.
fn run_diff(old_path: &str, new_path: &str, opts: &DiffOptions) -> ! {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: reading {p}: {e}");
            std::process::exit(2);
        })
    };
    let (old, new) = (read(old_path), read(new_path));
    let report = diff_artifacts(&old, &new, opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    out!("sweep diff: {old_path} vs {new_path}");
    out_inline!("{}", report.render());
    if report.is_clean() {
        out!("artifacts match");
        std::process::exit(0);
    }
    out!("artifacts DIFFER");
    std::process::exit(1);
}

/// Resolve `grid` — named grid, then scenario, then experiment, then
/// `paper` — run it and write its artifacts.
fn run(grid: &str, args: &Args) -> ! {
    args.only("a run", |f| !is_tolerance(f));
    let named = SweepSpec::named().into_iter().find(|s| s.name == grid);
    let written = if let Some(spec) = named {
        run_grid(spec, WorkloadKind::Web, CellPipeline::Replay, None, args)
    } else if let Some(s) = scenario::find(grid) {
        out!("scenario {}: {} [{}]", s.name, s.title, s.workload.label());
        run_grid(s.spec(), s.workload, s.pipeline, Some(s), args)
    } else {
        experiment(grid, args)
    };
    if let Err(e) = written {
        eprintln!("error: writing artifacts to {}: {e}", args.out.display());
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// Run the paper's experiment `grid`, or `paper`: Table 1, then every
/// experiment under a `# name: title` header.
fn experiment(grid: &str, args: &Args) -> io::Result<()> {
    let e = EXPERIMENTS.iter().find(|e| e.name == grid);
    let Some(title) = e.map_or((grid == PAPER).then_some(PAPER_TITLE), |e| Some(e.title)) else {
        let experiments: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).chain([PAPER]).collect();
        usage_exit(&format!(
            "unknown grid `{grid}` — named grids: {}; scenarios: {}; experiments: {}",
            SweepSpec::named().map(|s| s.name).join(", "),
            scenario::names().join(", "),
            experiments.join(", ")
        ));
    };
    args.only(&format!("experiment `{grid}`"), |f| {
        !f.starts_with("--telemetry") && !f.starts_with("--chaos")
    });
    let scale = &args.scale;
    out!(
        "experiment {grid}: {title} (scale {}, seed {}, {} worker(s), {} replicate(s))",
        scale.sim.label,
        scale.seed,
        scale.jobs,
        scale.replicates
    );
    if let Some(e) = e {
        return run_experiment(e, scale, &args.out);
    }
    let (web, replay) = (WorkloadKind::Web, CellPipeline::Replay);
    run_grid(SweepSpec::table1(), web, replay, None, args)?;
    for e in EXPERIMENTS {
        out!("\n# {}: {}", e.name, e.title);
        run_experiment(e, scale, &args.out)?;
    }
    Ok(())
}

/// Run one experiment at `scale`, print its report and note, and write
/// its JSON + CSV under `out`.
fn run_experiment(e: &Experiment, scale: &Scale, out: &Path) -> io::Result<()> {
    let report = (e.report)(scale);
    out_inline!("{}", render_fig_report(&report));
    if !e.note.is_empty() {
        out!("\n{}", e.note);
    }
    let (json, csv) = report.write(out)?;
    out!("\nwrote {} and {}", json.display(), csv.display());
    Ok(())
}

/// Run a grid (named or scenario) with its workload family and cell
/// pipeline, with or without event-wheel telemetry sampling; print the
/// table and write every artifact the run produced — table JSON/CSV,
/// optional telemetry series, and (for deadline-replay scenarios) the
/// miss-rate-vs-utilization figure.
fn run_grid(
    spec: SweepSpec,
    workload: WorkloadKind,
    pipeline: CellPipeline,
    s: Option<&Scenario>,
    args: &Args,
) -> io::Result<()> {
    let scale = &args.scale;
    let mut spec = spec.with_seed(scale.seed).with_replicates(scale.replicates);
    if let Some(c) = args.chaos {
        out!(
            "chaos: overriding every cell (drop {} ppm, fail {}/{} us, jam {}/{} us, seed {})",
            c.drop_ppm,
            c.fail_down_us,
            c.fail_period_us,
            c.jam_burst_us,
            c.jam_period_us,
            c.seed
        );
        for cell in &mut spec.cells {
            cell.chaos = c;
        }
    }
    out!(
        "sweep `{}`: {} cells x {} replicate(s) = {} jobs on {} worker(s), scale {}",
        spec.name,
        spec.cells.len(),
        spec.replicates,
        spec.cells.len() * spec.replicates,
        scale.jobs,
        scale.sim.label
    );
    let sim = scale.sim;
    let (report, telem) = match args.telemetry {
        None => (run_sweep(&spec, &sim, scale.jobs, workload, pipeline), None),
        Some(interval) => {
            out!(
                "telemetry: sampling every {} us on the event wheel",
                interval.as_ps() / 1_000_000
            );
            let (report, telem) =
                run_telemetry_sweep(&spec, &sim, scale.jobs, workload, pipeline, interval);
            (report, Some(telem))
        }
    };
    print_sweep_report(&report);
    let (json, csv) = report.write(&args.out)?;
    out!("\nwrote {} and {}", json.display(), csv.display());
    if let Some(t) = telem {
        let (tj, tc) = t.write(&args.out)?;
        out!("wrote {} and {}", tj.display(), tc.display());
    }
    if let Some(fig) = s.and_then(|s| s.miss_curves(&report)) {
        let (fj, fc) = fig.write(&args.out)?;
        out!(
            "wrote {} and {} (miss-rate-vs-utilization curves)",
            fj.display(),
            fc.display()
        );
    }
    Ok(())
}

/// Print a scalar-grid sweep report: one row per cell, mean ± stddev.
fn print_sweep_report(report: &SweepReport) {
    out!(
        "\n{:<18} {:>5} {:<9} {:>9} {:>22} {:>22} {:>14}",
        "Topology",
        "Util",
        "Original",
        "Packets",
        "FracOverdue",
        "Frac>T",
        "MeanSlack(us)"
    );
    for r in &report.results {
        out!(
            "{:<18} {:>4.0}% {:<9} {:>9.0} {:>12.6} ±{:>8.6} {:>12.6} ±{:>8.6} {:>14.1}",
            r.coord.topo.label(),
            r.coord.util * 100.0,
            r.coord.sched.label(),
            r.total.mean,
            r.frac_overdue.mean,
            r.frac_overdue.stddev,
            r.frac_gt_t.mean,
            r.frac_gt_t.stddev,
            r.mean_slack_us.mean
        );
    }
}

/// Render a figure report: header, per-series scalar summaries, then the
/// mean ± stddev curve table (one column per series, one row per x-axis
/// point) when the axis has points.
fn render_fig_report(report: &FigReport) -> String {
    let mut text = format!(
        "\n=== {} ===\nscale {}, {} replicate(s), base seed {} \
         (output is identical for every --jobs value)\n",
        report.title, report.scale, report.replicates, report.base_seed
    );
    // A mean in a field `w` wide, then its stddev.
    let cell = |s: &Stat, w: usize| format!("{:>w$.4} ±{:>7.4}", s.mean, s.stddev);
    if !report.scalar_names.is_empty() {
        let rows = report.results.iter().map(|r| {
            let cells = r.scalars.iter().map(|s| cell(s, 13));
            (r.series.clone(), cells.collect())
        });
        let names = &report.scalar_names;
        render_table(&mut text, "series", 16, names, rows.collect());
    }
    let axis = &report.axis;
    if !axis.xs.is_empty() {
        let series: Vec<_> = report.results.iter().map(|r| r.series.clone()).collect();
        let rows = axis.xs.iter().enumerate().map(|(i, &x)| {
            let labels = axis.labels.as_ref();
            let label = labels.map_or_else(|| format!("{x}"), |l| l[i].clone());
            let cells = report.results.iter().map(|r| cell(&r.points[i], 11));
            (label, cells.collect())
        });
        render_table(&mut text, &axis.name, 12, &series, rows.collect());
    }
    text
}

/// Append a blank line and a table to `text`: a left-aligned label
/// column at least `min_label` wide, headed by `corner`, then one
/// right-aligned column per `headers` entry. Every column is as wide as
/// its widest cell, header included, so a large value never pushes a
/// row out of line with the header.
fn render_table(
    text: &mut String,
    corner: &str,
    min_label: usize,
    headers: &[String],
    rows: Vec<(String, Vec<String>)>,
) {
    let chars = |s: &str| s.chars().count();
    let label_w = rows
        .iter()
        .map(|(l, _)| chars(l))
        .fold(min_label, usize::max);
    let widths: Vec<usize> = (0..headers.len())
        .map(|c| {
            rows.iter()
                .map(|(_, cells)| chars(&cells[c]))
                .fold(chars(&headers[c]), usize::max)
        })
        .collect();
    text.push('\n');
    let mut line = |label: &str, cells: &[String]| {
        text.push_str(&format!("{label:<label_w$}"));
        for (cell, w) in cells.iter().zip(&widths) {
            text.push_str(&format!(" {cell:>w$}"));
        }
        text.push('\n');
    };
    line(corner, headers);
    for (label, cells) in &rows {
        line(label, cells);
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match words[..] {
        [] => run(args.grid.as_deref().unwrap_or("table1"), &args),
        ["scenarios"] | ["scenarios", "list"] => {
            args.only("scenarios list", |_| false);
            out_inline!("{}", scenario::render_list());
            out!("\nexperiments of the paper:");
            for e in EXPERIMENTS {
                out!("{:<21} {}", e.name, e.title);
            }
            out!("{PAPER:<21} {PAPER_TITLE}");
            out!("\nrun one:  sweep --grid <name>");
            out!("details:  sweep scenarios describe <scenario>  ·  docs/SCENARIOS.md");
        }
        ["scenarios", "describe", name] => {
            args.only("scenarios describe", |_| false);
            let Some(s) = scenario::find(name) else {
                usage_exit(&format!(
                    "unknown scenario `{name}` (see `sweep scenarios list`)"
                ));
            };
            out_inline!("{}", s.describe());
        }
        ["scenarios", "describe", ..] => usage_exit("scenarios describe takes exactly one name"),
        ["scenarios", other, ..] => usage_exit(&format!(
            "unknown scenarios action `{other}` (list, describe)"
        )),
        ["diff", old, new] => {
            args.only("diff", is_tolerance);
            run_diff(old, new, &args.tolerance)
        }
        ["diff", ..] => usage_exit("diff takes exactly two artifact paths"),
        [other, ..] => usage_exit(&format!("unexpected argument `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_args_give_quick_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            (a.scale.sim.label, a.scale.seed, a.scale.replicates),
            ("quick", 1, 1)
        );
        assert!(a.scale.jobs >= 1);
        assert_eq!(a.out, PathBuf::from("target/sweep"));
        assert!(a.grid.is_none() && a.telemetry.is_none() && a.chaos.is_none());
    }

    #[test]
    fn full_flag_applies_wherever_it_stands_and_values_override_it() {
        let a = parse(&[
            "--seed",
            "9",
            "--horizon-ms",
            "25",
            "--edges",
            "4",
            "--jobs",
            "3",
            "--replicates",
            "5",
            "--out",
            "some/dir",
            "--full",
        ])
        .unwrap();
        let s = a.scale;
        assert_eq!((s.sim.label, s.sim.fattree_k, s.seed), ("full", 8, 9));
        assert_eq!(s.sim.horizon, Dur::from_millis(25));
        assert_eq!((s.sim.edges_per_core, s.jobs, s.replicates), (4, 3, 5));
        assert_eq!(a.out, PathBuf::from("some/dir"));
        assert_eq!(a.flags.len(), 7);
    }

    #[test]
    fn bad_flags_and_values_are_errors() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        for missing in [&["--seed"][..], &["--out"], &["--grid"], &["--rel-tol"]] {
            assert!(parse(missing).unwrap_err().contains("requires a value"));
        }
        // A forgotten value before another flag must error, not swallow
        // the flag as the value.
        for swallowed in [&["--out", "--full"][..], &["--grid", "--jobs", "2"]] {
            let err = parse(swallowed).unwrap_err();
            assert!(err.contains("requires a value, got flag"), "{err}");
        }
        assert!(parse(&["--jobs", "many"])
            .unwrap_err()
            .contains("expected an integer"));
        assert!(parse(&["--seed", "-3"]).is_err());
        assert!(parse(&["--telemetry-interval-us", "0"]).is_err());
        assert!(parse(&["--chaos-drop-ppm", "1000001"]).is_err());
        assert!(parse(&["--chaos-fail-down-us", "5"])
            .unwrap_err()
            .contains("requires --chaos-fail-period-us"));
        assert!(parse(&["--chaos-jam-period-us", "5", "--chaos-jam-burst-us", "5"]).is_err());
        assert!(parse(&["--rel-tol", "nan"]).is_err());
    }

    #[test]
    fn zero_jobs_edges_and_replicates_clamp_to_one() {
        let s = parse(&["--jobs", "0", "--replicates", "0", "--edges", "0"])
            .unwrap()
            .scale;
        assert_eq!((s.jobs, s.replicates, s.sim.edges_per_core), (1, 1, 1));
    }

    #[test]
    fn words_flags_telemetry_and_chaos_are_collected() {
        let a = parse(&[
            "scenarios",
            "describe",
            "i2-web",
            "--telemetry-interval-us",
            "100",
            "--chaos-seed",
            "5",
        ])
        .unwrap();
        assert_eq!(a.words, ["scenarios", "describe", "i2-web"]);
        assert_eq!(a.telemetry, Some(Dur::from_micros(100)));
        assert_eq!(
            a.chaos,
            Some(ChaosSpec {
                seed: 5,
                ..ChaosSpec::OFF
            })
        );
        assert_eq!(
            parse(&["--telemetry"]).unwrap().telemetry,
            Some(Dur::from_micros(250))
        );
    }

    /// A value wider than the default column (1,870,500 bytes, as in
    /// the weighted-fairness extension) widens its column instead of
    /// shifting the row: every line of the curve table ends where its
    /// header does, and so does every line of the scalar table.
    #[test]
    fn wide_values_keep_every_table_row_aligned_with_its_header() {
        use ups_sweep::{run_fig_with, DistMetrics, FigAxis, FigSpec};
        let spec = FigSpec::new(
            "wide",
            "wide values",
            vec!["weighted 4:2:1:1".to_string(), "unweighted".to_string()],
            FigAxis::numeric("flow", vec![0.0, 1.0]),
        )
        .with_scalars(&["bytes"]);
        let report = run_fig_with(&spec, "tiny", 1, |job| {
            let big = if job.series == 0 { 1_870_500.0 } else { 5.0 };
            DistMetrics {
                scalars: vec![big * 1e6],
                points: vec![big, 936_000.0],
            }
        });
        let text = render_fig_report(&report);
        let tables: Vec<&str> = text.split("\n\n").skip(1).collect();
        assert_eq!(tables.len(), 2, "{text}");
        for table in tables {
            let ends: Vec<usize> = table.lines().map(|l| l.chars().count()).collect();
            assert_eq!(ends.len(), 3, "{table}");
            assert!(ends.iter().all(|&e| e == ends[0]), "{ends:?}\n{table}");
        }
        assert!(text.contains("1870500.0000 ± 0.0000"), "{text}");
    }

    /// Every flag `Args::parse` knows, plus values that are zero,
    /// negative, not a number, `u64::MAX`, 2^58 (wraps to 0 as
    /// picoseconds of a µs count) and a bare word.
    const SOUP: &[&str] = &[
        "--grid",
        "--out",
        "--telemetry",
        "--telemetry-interval-us",
        "--chaos-drop-ppm",
        "--chaos-seed",
        "--chaos-fail-period-us",
        "--chaos-fail-down-us",
        "--chaos-jam-period-us",
        "--chaos-jam-burst-us",
        "--rel-tol",
        "--abs-tol",
        "--full",
        "--seed",
        "--horizon-ms",
        "--edges",
        "--jobs",
        "--replicates",
        "0",
        "-3",
        "nan",
        "18446744073709551615",
        "288230376151711744",
        "smoke",
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Whatever the command line, a bad one is a usage error (exit
        /// 2), never a backtrace.
        #[test]
        fn parse_never_panics_on_flag_soup(
            picks in proptest::collection::vec(0usize..SOUP.len(), 0..12),
        ) {
            let _ = Args::parse(picks.iter().map(|&i| SOUP[i].to_string()));
        }
    }
}
