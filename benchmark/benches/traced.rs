//! The traced run: a verified one-call pass to warm the process up,
//! one decomposed walk under the span tracer, a second one-call pass
//! as the warm reference, the `jobs = 2` and sampling-on passes, then
//! the layer probes. Reports the per-layer metrics and writes the span
//! trace.

use crate::probes::{forwarding, sched_ns_per_op, wheel_ns_per_event, SCHED_KINDS};
use crate::spans::{count, self_secs, to_jsonl, untraced_share, Tracer};
use crate::timed::digest_matches;
use crate::walk::{walk, Counts};
use crate::workloads::{quick, repo_root, verify, Plan, Workload, FAIRNESS_HORIZON};
use crate::{Metric, Outcome};
use std::time::Instant;
use ups_sim::Dur;
use ups_sweep::{run_telemetry_sweep, SimScale};

/// Sampling cadence of the sampling-on pass: `sweep --telemetry`'s default.
const SAMPLE_INTERVAL: Dur = Dur::from_micros(250);

/// Spans that time a layer, in display order. The per-layer metric of
/// each is `<name>_s`.
const LAYER_SPANS: [&str; 12] = [
    "topo.build",
    "flowgen.build",
    "core.record",
    "core.replay",
    "transport.install_tcp",
    "net.run",
    "core.reduce",
    "metrics.fairness_series",
    "net.teardown",
    "sweep.engine",
    "sweep.artifact",
    "sweep.parse_diff",
];

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One pass with event-wheel sampling on: through `sweep --telemetry`'s
/// own path for the sweep workloads, by the process-wide cadence for
/// the closed-loop one.
fn sampling_pass(plan: &Plan, sim: &SimScale) -> usize {
    match plan {
        Plan::Sweep { scenario, spec } => {
            let (table, telemetry) = run_telemetry_sweep(
                spec,
                sim,
                1,
                scenario.workload,
                scenario.pipeline,
                SAMPLE_INTERVAL,
            );
            table.to_json().len() + table.to_csv().len() + telemetry.to_json().len()
        }
        Plan::Fairness { .. } => {
            ups_obs::set_sample_interval(Some(SAMPLE_INTERVAL));
            let out = plan.pass(sim, 1);
            ups_obs::set_sample_interval(None);
            out.artifact_bytes() as usize
        }
    }
}

pub fn run(w: &Workload, seed: u64) -> Outcome {
    let sim = quick();
    let plan = Plan::new(w, seed);
    let mut problems = Vec::new();

    // Warm-up: the one-call pass, verified like a timed run's.
    let warm = plan.pass(&sim, 1);
    problems.extend(verify(w, &plan, &warm, seed));

    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let walked = walk(&plan, &sim, &mut tr, &mut counts);
    if walked.artifacts != warm.artifacts {
        problems.push("the decomposed walk and the one-call pass disagree".to_string());
    }
    if counts.conservation_violations > 0 {
        problems.push(format!(
            "{} drained leg(s) with injected != delivered + dropped",
            counts.conservation_violations
        ));
    }

    // What the walk, the `jobs = 2` pass and the sampling-on pass are
    // measured against: a one-call pass as warm as they are.
    let (reference, ref_s) = timed(|| plan.pass(&sim, 1));
    let (jobs2, jobs2_s) = timed(|| plan.pass(&sim, 2));
    if reference.artifacts != warm.artifacts || jobs2.artifacts != warm.artifacts {
        problems.push("a later pass or jobs = 2 changed the artifact bytes".to_string());
    }
    let (_, sampling_s) = timed(|| std::hint::black_box(sampling_pass(&plan, &sim)));

    // Probes, at the sizes the walk observed.
    let fwd = forwarding(&plan, &sim);
    let span = match &plan {
        Plan::Sweep { .. } => sim.horizon,
        Plan::Fairness { .. } => Dur(FAIRNESS_HORIZON.as_ps()),
    };
    let population = counts.pending_events.max(fwd.pending_events);
    let wheel_ns = wheel_ns_per_event(population, span, seed);
    let sched_ns: Vec<(&'static str, &str, f64)> = SCHED_KINDS
        .iter()
        .map(|&(metric, kind)| {
            let ns = sched_ns_per_op(kind, counts.max_queue_pkts, seed);
            (metric, kind.label(), ns)
        })
        .collect();

    let spans = &tr.spans;
    let pass_s = spans[0].dur_ns() as f64 / 1e9;
    let secs = |name: &str| self_secs(spans, name);
    // Event-loop time: the legs that run the network.
    let loop_s: f64 = counts.legs.iter().map(|l| l.secs).sum();
    let sched_s: f64 = sched_ns
        .iter()
        .map(|&(_, label, ns)| {
            ns * 2.0 * counts.hops_by_sched.get(label).copied().unwrap_or(0) as f64 / 1e9
        })
        .sum();
    // `net.run_s` is the event loop with nothing else on it: the closed
    // loop's `run_until` where the walk has one, else the probe's.
    let net_run_s = if count(spans, "net.run") > 0 {
        secs("net.run")
    } else {
        fwd.run_s
    };
    let digest_match = digest_matches(w.name, seed, reference.digest());
    let cell_runs = plan.cell_runs();

    println!(
        "workload {}  seed {seed}  traced pass {pass_s:.4} s (one-call pass {ref_s:.4} s)",
        w.name
    );
    println!(
        "  {:<26}{:>6}{:>12}{:>9}",
        "span", "calls", "self s", "share"
    );
    for name in LAYER_SPANS.iter().chain(&["cell", "pass"]) {
        let calls = count(spans, name);
        if calls > 0 {
            let s = secs(name);
            println!("  {name:<26}{calls:>6}{s:>12.4}{:>9.4}", s / pass_s);
        }
    }
    println!(
        "  {:<34}{:<8}{:<10}{:>10}{:>10}{:>9}{:>10}",
        "cell", "leg", "sched", "events", "pkt_hops", "s", "ns/event"
    );
    for leg in &counts.legs {
        println!(
            "  {:<34}{:<8}{:<10}{:>10}{:>10}{:>9.4}{:>10.1}",
            leg.cell,
            leg.name,
            leg.sched.label(),
            leg.events,
            leg.pkt_hops,
            leg.secs,
            leg.secs * 1e9 / leg.events.max(1) as f64
        );
    }

    let mut metrics = vec![
        Metric::f("topo.build_s", "s", secs("topo.build")),
        Metric::u("topo.build_calls", count(spans, "topo.build") as u64),
        Metric::u("topo.nodes", counts.topo_nodes),
        Metric::u("topo.links", counts.topo_links),
        Metric::f("net.compute_routes_s", "s", fwd.compute_routes_s),
        Metric::f("flowgen.build_s", "s", secs("flowgen.build")),
        Metric::u("flowgen.flows", counts.flows),
        Metric::u("flowgen.pkts", counts.flow_pkts),
        Metric::f("core.reduce_s", "s", secs("core.reduce")),
        Metric::u("net.events", counts.events),
        Metric::f(
            "net.ns_per_event",
            "ns",
            loop_s * 1e9 / counts.events.max(1) as f64,
        ),
        Metric::f(
            "net.fwd_ns_per_event",
            "ns",
            fwd.run_s * 1e9 / fwd.events.max(1) as f64,
        ),
        Metric::f("transport.inject_s", "s", fwd.inject_s),
        Metric::f("net.run_s", "s", net_run_s),
        Metric::f("net.teardown_s", "s", secs("net.teardown")),
        Metric::f("sim.wheel_ns_per_event", "ns", wheel_ns),
        Metric::f(
            "sim.wheel_share",
            "frac",
            wheel_ns * counts.events as f64 / 1e9 / loop_s,
        ),
        Metric::u("net.pkt_hops", counts.pkt_hops),
        Metric::u("net.pkts_injected", counts.injected),
        Metric::u("net.pkts_delivered", counts.delivered),
        Metric::u("net.pkts_dropped", counts.dropped),
        Metric::u("net.chaos_drops", counts.chaos_drops),
        Metric::u("net.max_queue_pkts", counts.max_queue_pkts),
        Metric::u("net.peak_in_flight", counts.peak_in_flight),
    ];
    for &(metric, _, ns) in &sched_ns {
        metrics.push(Metric::f(metric, "ns", ns));
    }
    metrics.extend([
        Metric::f("sched.share", "frac", sched_s / loop_s),
        Metric::u("core.overdue", counts.overdue),
        Metric::u("core.lost", counts.lost),
        Metric::u("core.total_pkts", counts.total_pkts),
        Metric::u("core.max_congestion_points", counts.max_congestion_points),
        Metric::u("core.digest_match", (digest_match != Some(false)) as u64),
        Metric::f("sweep.engine_s", "s", secs("sweep.engine")),
        Metric::f("sweep.artifact_s", "s", secs("sweep.artifact")),
        Metric::u("sweep.artifact_bytes", reference.artifact_bytes()),
        Metric::f("sweep.parse_diff_s", "s", secs("sweep.parse_diff")),
        Metric::u("sweep.cell_runs", cell_runs),
        Metric::f("sweep.jobs2_speedup", "ratio", ref_s / jobs2_s),
        Metric::f(
            "obs.sampling_overhead_frac",
            "frac",
            sampling_s / ref_s - 1.0,
        ),
        Metric::f("bench.trace_overhead_frac", "frac", pass_s / ref_s - 1.0),
        Metric::f("bench.untraced_share", "frac", untraced_share(spans, 0)),
    ]);
    // Layers only some workloads have: printed where they ran, but not
    // part of the fixed per-layer set every workload reports.
    let local: Vec<Metric> = [
        ("core.record_s", "core.record"),
        ("core.replay_s", "core.replay"),
        ("transport.install_tcp_s", "transport.install_tcp"),
        ("metrics.fairness_series_s", "metrics.fairness_series"),
    ]
    .into_iter()
    .filter(|(_, span)| count(spans, span) > 0)
    .map(|(name, span)| Metric::f(name, "s", secs(span)))
    .collect();
    for m in metrics.iter().chain(&local) {
        println!("  {:<30}{:>16} {}", m.name, m.value.short(), m.unit);
    }
    if digest_match == Some(false) {
        println!(
            "  WARNING: digest {:016x} differs from expected.json",
            reference.digest()
        );
    }

    let out_dir = repo_root().join("benchmark").join("out");
    let trace_path = out_dir.join(format!("trace_{}.jsonl", w.name));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&trace_path, to_jsonl(spans)))
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
    println!(
        "  {} spans written to {}",
        spans.len(),
        trace_path.display()
    );
    for p in &problems {
        println!("  PROBLEM: {p}");
    }

    let failed = warm.failed + walked.failed + reference.failed + jobs2.failed;
    let attempted = 5 * cell_runs;
    Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed: if problems.is_empty() {
            failed
        } else {
            attempted
        },
        metrics,
    }
}
