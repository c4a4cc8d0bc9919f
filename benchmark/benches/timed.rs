//! The timed run: set-up rounds (each a verified warm-up pass), then a
//! fixed number of timed passes, tracing off. Reports the end-to-end
//! metrics.

use crate::procfs::{cpu_seconds, vm_hwm_mib};
use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::workloads::{member, quick, repo_root, verify, Plan, Workload};
use crate::{Metric, Outcome};
use std::path::PathBuf;
use std::time::Instant;
use ups_sweep::Json;

/// Set-up rounds per run; `setup_s` is their median, so one disturbed
/// round does not move it.
const SETUPS: usize = 3;

/// Timed passes for a `--seconds` budget: fixed by the flag and the
/// workload's frozen nominal pass cost, never by the clock, so two
/// builds given the same flag do the same work. At least three, so a
/// median exists.
pub fn passes_for(w: &Workload, seconds: u64) -> usize {
    let by_budget = (seconds * 1000 + w.nominal_pass_ms / 2) / w.nominal_pass_ms;
    (by_budget as usize).max(3)
}

fn expected_path() -> PathBuf {
    repo_root().join("benchmark").join("expected.json")
}

/// Compare a pass digest with `benchmark/expected.json`, which holds
/// seed-1 digests only. `None` = nothing to compare against.
pub fn digest_matches(workload: &str, seed: u64, digest: u64) -> Option<bool> {
    if seed != 1 {
        return None;
    }
    let text = std::fs::read_to_string(expected_path()).ok()?;
    let expected = Json::parse(&text).ok()?;
    match member(&expected, workload)? {
        Json::Str(hex) => Some(*hex == format!("{digest:016x}")),
        _ => None,
    }
}

/// Record `digest` as the workload's expected seed-1 digest.
fn bless(workload: &str, digest: u64) {
    let path = expected_path();
    let mut entries = match std::fs::read_to_string(&path).ok().map(|t| Json::parse(&t)) {
        Some(Ok(Json::Obj(entries))) => entries,
        _ => Vec::new(),
    };
    let value = Json::Str(format!("{digest:016x}"));
    match entries.iter_mut().find(|(k, _)| k == workload) {
        Some(entry) => entry.1 = value,
        None => entries.push((workload.to_string(), value)),
    }
    std::fs::write(&path, Json::Obj(entries).render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

pub struct TimedOptions {
    pub seed: u64,
    pub seconds: u64,
    /// One set-up round and one timed pass: exercises the harness in
    /// seconds; its numbers are not comparable with a full run's.
    pub smoke: bool,
    /// Rewrite the workload's entry in `expected.json` (seed 1 only).
    pub bless: bool,
}

pub fn run(w: &Workload, opts: &TimedOptions) -> Outcome {
    let sim = quick();
    let (setups, passes) = if opts.smoke {
        (1, 1)
    } else {
        (SETUPS, passes_for(w, opts.seconds))
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems: Vec<String> = Vec::new();

    // Set-up: bind the workload to the seed, run the warm-up pass and
    // verify its outputs (which loads the committed baselines).
    let mut setup_s = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        let t = Instant::now();
        let p = Plan::new(w, opts.seed);
        let out = p.pass(&sim, 1);
        let found = verify(w, &p, &out, opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += out.cell_runs;
        failed += if found.is_empty() {
            out.failed
        } else {
            out.cell_runs
        };
        problems.extend(found);
        last = Some((p, out));
    }
    let (plan, warm) = last.expect("at least one set-up round");

    let mut wall = Vec::with_capacity(passes);
    let mut cpu = Vec::with_capacity(passes);
    let cpu_start = cpu_seconds();
    let timed_start = Instant::now();
    for i in 0..passes {
        let (c, t) = (cpu_seconds(), Instant::now());
        let out = plan.pass(&sim, 1);
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(cpu_seconds() - c);
        attempted += out.cell_runs;
        if out.artifacts != warm.artifacts {
            problems.push(format!(
                "timed pass {i}: bytes differ from the warm-up pass"
            ));
            failed += out.cell_runs;
        } else {
            failed += out.failed;
        }
    }
    let timed_wall = timed_start.elapsed().as_secs_f64();
    let timed_cpu = cpu_seconds() - cpu_start;
    let cell_runs = plan.cell_runs() * passes as u64;

    let digest = warm.digest();
    if opts.bless && opts.seed == 1 {
        bless(w.name, digest);
    }
    let digest_note = match digest_matches(w.name, opts.seed, digest) {
        Some(true) => "matches expected.json".to_string(),
        Some(false) => {
            "WARNING: differs from expected.json (results changed; --bless accepts)".to_string()
        }
        None => "not compared (expected.json holds seed-1 digests only)".to_string(),
    };

    let (q1, q3) = quartiles(&wall);
    let tail = tail_percentile(wall.len())
        .map(|p| format!("; p{p} {:.4}", percentile(&wall, p)))
        .unwrap_or_default();
    let setups_list: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "workload {}  seed {}  timed passes {passes} (fixed: {} s budget / {} ms nominal pass)  cell-runs/pass {}",
        w.name,
        opts.seed,
        opts.seconds,
        w.nominal_pass_ms,
        plan.cell_runs()
    );
    println!("  why: {}", w.why);
    // The mean, not the median: the kernel counts CPU time in 10 ms
    // ticks, which a sub-second pass resolves too coarsely.
    let metrics = vec![
        Metric::f("wall_s", "s", median(&wall)),
        Metric::f("cpu_s", "s", timed_cpu / passes as f64),
        Metric::f("cell_runs_per_s", "1/s", cell_runs as f64 / timed_wall),
        Metric::f("peak_rss_mib", "MiB", vm_hwm_mib()),
        Metric::f("setup_s", "s", median(&setup_s)),
    ];
    let notes = [
        format!("median of {passes} timed passes; q1 {q1:.4} q3 {q3:.4}{tail}"),
        format!(
            "user+sys per pass, mean over the timed passes; per-pass median {:.2}",
            median(&cpu)
        ),
        format!("{cell_runs} cell-runs in {timed_wall:.3} s"),
        "VmHWM at the end of the run".to_string(),
        format!("median of {setups} set-ups ({})", setups_list.join(" ")),
    ];
    for (m, note) in metrics.iter().zip(&notes) {
        println!(
            "  {:<18}{:>14} {:<5} {note}",
            m.name,
            m.value.short(),
            m.unit
        );
    }
    println!(
        "  {:<18}{:>14} {:<5} {failed} of {attempted} cell-runs",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac"
    );
    println!("  {:<18}{digest:016x}  {digest_note}", "digest");
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed: failed.min(attempted),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn pass_counts_depend_on_the_flag_alone() {
        let counts: Vec<usize> = WORKLOADS.iter().map(|w| passes_for(w, 12)).collect();
        assert_eq!(counts, [3, 6, 17, 3]);
        assert_eq!(passes_for(&WORKLOADS[2], 60), 86);
        assert_eq!(passes_for(&WORKLOADS[0], 1), 3);
    }
}
