//! The paper's figures, ablations and diagnostics as one table.
//!
//! [`EXPERIMENTS`] is what `sweep --grid NAME` resolves after the named
//! grids and the scenario registry, what `sweep scenarios list` prints
//! below the scenarios, and what `tests/experiments_smoke.rs` iterates —
//! an entry here is runnable, listed and smoke-tested with no further
//! wiring. Every `run` prints its report to stdout (through
//! [`out!`](crate::out), so a closed pipe cannot stop the artifacts) and
//! writes whatever artifacts it has under the given directory.

use crate::runners::*;
use crate::scale::Scale;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use ups_core::objectives::Scheme;
use ups_core::replay::ReplayMode;
use ups_net::{FlowId, TraceLevel};
use ups_sched::SchedKind;
use ups_sim::{Bandwidth, Dur, Time};
use ups_sweep::{run_sweep, CellMetrics, FigReport, SweepReport, SweepSpec};
use ups_transport::FlowDesc;

/// One runnable experiment of the paper.
pub struct Experiment {
    /// `--grid` key (kebab-case); figures use it as artifact file stem.
    pub name: &'static str,
    /// One-line summary for `scenarios list` and the run header.
    pub title: &'static str,
    /// Run at `scale`, print the report, write artifacts under the path.
    pub run: fn(&Scale, &Path) -> io::Result<()>,
}

/// Every experiment, in the order `paper` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        title: "Figure 1 — CDF of queueing-delay ratio (LSTF replay : original), I2 at 70%",
        run: |scale, out| {
            let note = "Paper: most packets see a *smaller* queueing delay in the\n\
                        LSTF replay than in the original (CDF > 0.5 at ratio 1.0).";
            figure(&fig1_report(scale), note, out)
        },
    },
    Experiment {
        name: "fig2",
        title: "Figure 2 — mean FCT by flow size, FIFO/SJF/SRPT/LSTF (TCP, 5 MB buffers)",
        run: |scale, out| {
            let note = "(bucket rows are mean FCT in seconds; a 0 mean marks a\n\
                        bucket with no completed flows in a replicate)";
            figure(&fig2_report(scale), note, out)
        },
    },
    Experiment {
        name: "fig3",
        title: "Figure 3 — tail packet delays, FIFO vs LSTF with constant slack (≡ FIFO+)",
        run: |scale, out| {
            let note = "(rows are packet delay in seconds at each percentile;\n\
                        the paper's shape: LSTF trades a slightly higher mean for a\n\
                        lower tail)";
            figure(&fig3_report(scale), note, out)
        },
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 — Jain fairness over time, FIFO/FQ/LSTF@rest (long-lived TCP)",
        run: |scale, out| figure(&fig4_report(scale), "", out),
    },
    Experiment {
        name: "ablation-preempt",
        title: "§2.3(5) — non-preemptive vs preemptive LSTF on SJF/LIFO/FIFO/Random",
        run: |scale, _| {
            print_replay_rows(
                "Non-preemptive vs preemptive LSTF",
                &ablation_preempt(scale),
            );
            Ok(())
        },
    },
    Experiment {
        name: "ablation-priority",
        title: "§2.3(7) — one Random schedule under LSTF, Priority(o), EDF, omniscient",
        run: |scale, _| {
            print_replay_rows(
                "LSTF vs Priority(o) vs EDF vs Omniscient",
                &ablation_priority(scale),
            );
            Ok(())
        },
    },
    Experiment {
        name: "ablation-lstf-key",
        title: "LSTF key ablation — last-bit vs pure deadline (equal for uniform sizes)",
        run: |scale, _| {
            print_replay_rows("Last-bit vs pure deadline", &ablation_lstf_key(scale));
            Ok(())
        },
    },
    Experiment {
        name: "congestion-points",
        title: "§2.2 diagnostic — congestion points per packet, per topology",
        run: |scale, _| {
            for (topo, hist, mean_slack_us) in congestion_points(scale) {
                // An empty schedule has no packets: print zero shares.
                let total = hist.iter().sum::<usize>().max(1);
                out_inline!("{topo:<18} mean slack {mean_slack_us:>8.1}us  ");
                for (k, &n) in hist.iter().enumerate() {
                    out_inline!("cp{k}: {:.3}  ", n as f64 / total as f64);
                }
                out!();
            }
            Ok(())
        },
    },
    Experiment {
        name: "ext-weighted-fairness",
        title: "§3.3 extension — weighted fairness 4:2:1:1 (fixed dumbbell, scale-independent)",
        run: |_, _| {
            weighted_fairness();
            Ok(())
        },
    },
    Experiment {
        name: "paper",
        title: "Table 1, then every experiment above in sequence",
        run: paper,
    },
];

/// Look up an experiment by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One line per experiment, aligned with the scenario listing.
pub fn render_list() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("{:<21} {}\n", e.name, e.title))
        .collect()
}

/// Print a figure report and its note, then write its JSON + CSV.
fn figure(report: &FigReport, note: &str, out: &Path) -> io::Result<()> {
    print_fig_report(report);
    if !note.is_empty() {
        out!("\n{note}");
    }
    let (json, csv) = report.write(out)?;
    out!("\nwrote {} and {}", json.display(), csv.display());
    Ok(())
}

/// Table 1 through the sweep engine, then every other entry's `run`.
fn paper(scale: &Scale, out: &Path) -> io::Result<()> {
    let spec = SweepSpec::table1()
        .with_seed(scale.seed)
        .with_replicates(scale.replicates);
    let report = run_sweep(&spec, &scale.sim(), scale.jobs);
    out!("\n# table1: Table 1 — LSTF replayability");
    print_sweep_report(&report);
    let (json, csv) = report.write(out)?;
    out!("\nwrote {} and {}", json.display(), csv.display());
    for e in EXPERIMENTS.iter().filter(|e| e.name != "paper") {
        out!("\n# {}: {}", e.name, e.title);
        (e.run)(scale, out)?;
    }
    Ok(())
}

/// §3.3: "we can also extend the slack assignment heuristic to achieve
/// weighted fairness by using different values of rest for different
/// flows, in proportion to the desired weights". Four long-lived flows
/// share a 1 Gbps bottleneck with weights 4:2:1:1; delivered bytes
/// should split proportionally.
fn weighted_fairness() {
    let topo = ups_topo::simple::dumbbell(
        4,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(20),
        TraceLevel::Delivery,
    );
    let flows: Vec<FlowDesc> = (0..4)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: topo.hosts[i as usize],
            dst: topo.hosts[4 + i as usize],
            pkts: u64::MAX / 2,
            start: Time::from_micros(i * 13),
            deadline: None,
        })
        .collect();
    let wanted = [4.0, 2.0, 1.0, 1.0];
    let weights: BTreeMap<FlowId, f64> = (0..).map(FlowId).zip(wanted).collect();
    let base = Bandwidth::mbps(50);
    let horizon = Time::from_millis(30);
    let even_topo = topo.rewired();
    let weighted = Scheme::LstfVcWeighted { base, weights };
    let bytes = ups_core::run_goodput(topo, &flows, &weighted, horizon, None);
    let total: u64 = bytes.iter().sum();
    out!("weighted fairness, weights {wanted:?}:");
    for (i, b) in bytes.iter().enumerate() {
        out!(
            "  flow {i}: {:>9} bytes = {:>5.1}% of goodput (target {:>5.1}%)",
            b,
            100.0 * *b as f64 / total as f64,
            100.0 * wanted[i] / wanted.iter().sum::<f64>()
        );
    }
    // Unweighted baseline for contrast.
    let even = Scheme::LstfVc { rest: base };
    let even = ups_core::run_goodput(even_topo, &flows, &even, horizon, None);
    let etotal: u64 = even.iter().sum();
    out!("unweighted LSTF@50Mbps shares:");
    for (i, b) in even.iter().enumerate() {
        out!("  flow {i}: {:>5.1}%", 100.0 * *b as f64 / etotal as f64);
    }
}

/// Print a scalar-grid sweep report: one row per cell, mean ± stddev.
pub fn print_sweep_report(report: &SweepReport) {
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

/// Print a single-seed replay-row table (the ablations, all on
/// [`ABLATION_TOPO`] at [`ABLATION_UTIL`]).
fn print_replay_rows(title: &str, rows: &[(SchedKind, ReplayMode, CellMetrics)]) {
    out!("\n=== {title} ===");
    out!(
        "{:<18} {:>5} {:<9} {:<14} {:>9} {:>12} {:>10} {:>8} {:>7} {:>12}",
        "Topology",
        "Util",
        "Original",
        "Replay",
        "Packets",
        "FracOverdue",
        "Frac>T",
        "T(us)",
        "MaxCP",
        "MeanSlack(us)"
    );
    for (original, mode, m) in rows {
        out!(
            "{:<18} {:>4.0}% {:<9} {:<14} {:>9} {:>12.6} {:>10.6} {:>8.1} {:>7} {:>12.1}",
            ABLATION_TOPO.label(),
            ABLATION_UTIL * 100.0,
            original.label(),
            mode.label(),
            m.total,
            m.frac_overdue,
            m.frac_gt_t,
            m.t_us,
            m.max_cp,
            m.mean_slack_us
        );
    }
}

/// Print a figure report: header, per-series scalar summaries, then the
/// mean ± stddev curve table (one column per series, one row per x-axis
/// point).
fn print_fig_report(report: &FigReport) {
    out!("\n=== {} ===", report.title);
    out!(
        "scale {}, {} replicate(s), base seed {} (output is identical for every --jobs value)",
        report.scale,
        report.replicates,
        report.base_seed
    );
    if !report.scalar_names.is_empty() {
        out!();
        out_inline!("{:<16}", "series");
        for name in &report.scalar_names {
            out_inline!(" {name:>22}");
        }
        out!();
        for r in &report.results {
            out_inline!("{:<16}", r.series);
            for s in &r.scalars {
                out_inline!(" {:>13.4} ±{:>7.4}", s.mean, s.stddev);
            }
            out!();
        }
    }
    out!();
    out_inline!("{:<12}", report.axis.name);
    for r in &report.results {
        out_inline!(" {:>20}", r.series);
    }
    out!();
    for (i, &x) in report.axis.xs.iter().enumerate() {
        let row_label = report
            .axis
            .labels
            .as_ref()
            .map_or_else(|| format!("{x}"), |labels| labels[i].clone());
        out_inline!("{row_label:<12}");
        for r in &report.results {
            let s = &r.points[i];
            out_inline!(" {:>11.4} ±{:>7.4}", s.mean, s.stddev);
        }
        out!();
    }
}
