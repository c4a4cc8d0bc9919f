//! Anatomy of a replay failure: record a LIFO schedule on Internet2,
//! replay it with LSTF, and dissect *which* packets miss their targets
//! and by how much — the paper's §2.3 analysis, reproduced as a tool.
//!
//! ```sh
//! cargo run --release --example replay_failure_anatomy
//! ```

use ups::core::replay::{record_original, replay_schedule, ReplayMode};
use ups::core::workload::WorkloadKind;
use ups::net::TraceLevel;
use ups::sched::SchedKind;
use ups::sim::Dur;
use ups::topo::internet2::{build, I2Config};

fn main() {
    let factory = || build(&I2Config::default(), TraceLevel::Hops);

    let mut original = factory();
    let flows = WorkloadKind::Web.build(&original, 0.7, Dur::from_millis(10), 11);
    let schedule = record_original(&mut original, &flows, SchedKind::Lifo, 11, 1500);
    drop(original);

    println!(
        "original LIFO schedule: {} packets, congestion-point histogram:",
        schedule.len()
    );
    let hist = schedule.congestion_point_histogram();
    let total: usize = hist.iter().sum();
    for (k, &n) in hist.iter().enumerate() {
        println!(
            "  {k} congestion points: {:>6.2}%",
            100.0 * n as f64 / total as f64
        );
    }

    for mode in [ReplayMode::lstf(), ReplayMode::lstf_preemptive()] {
        let mut replay = factory();
        let report = replay_schedule(&mut replay, &schedule, mode);
        println!(
            "\n{} replay: {:.3}% overdue, {:.3}% by more than T",
            mode.label(),
            report.frac_overdue() * 100.0,
            report.frac_overdue_gt_t() * 100.0
        );

        // Overdue rate by congestion-point count: the theory says ≤2 is
        // always safe; misses concentrate at ≥3.
        let mut by_cp: Vec<(usize, usize)> = vec![(0, 0); hist.len()];
        for (rec, &late) in schedule.iter().zip(&report.lateness) {
            let cp = rec.congestion_points();
            by_cp[cp].0 += 1;
            if late > 1_000 {
                by_cp[cp].1 += 1;
            }
        }
        for (k, &(n, o)) in by_cp.iter().enumerate() {
            if n > 0 {
                println!(
                    "  cp={k}: {:>6} packets, {:>6.3}% overdue",
                    n,
                    100.0 * o as f64 / n as f64
                );
            }
        }
        // The queueing-delay ratio story of Figure 1.
        let below_one = report.qdelay_ratios.iter().filter(|&&r| r <= 1.0).count();
        println!(
            "  queueing-delay ratio <= 1 for {:.1}% of queued packets \
             (LSTF eliminates \"wasted waiting\")",
            100.0 * below_one as f64 / report.qdelay_ratios.len().max(1) as f64
        );
    }
}
