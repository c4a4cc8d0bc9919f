//! Quickstart: record a schedule produced by a Random scheduler on a
//! small Internet2 network, replay it with LSTF, and print the paper's
//! headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ups::core::replay::{replay_experiment, ReplayMode};
use ups::core::workload::WorkloadKind;
use ups::net::TraceLevel;
use ups::sched::SchedKind;
use ups::sim::Dur;
use ups::topo::internet2::{build, I2Config};

fn main() {
    // 1. A fresh Internet2 topology factory: the original run and the
    //    replay each get an identical, clean network.
    let factory = || build(&I2Config::default(), TraceLevel::Hops);

    // 2. A Poisson UDP workload with heavy-tailed flow sizes, calibrated
    //    so the most-loaded core link runs at 70% utilization.
    let topo = factory();
    let flows = WorkloadKind::Web.build(&topo, 0.7, Dur::from_millis(10), 42);
    println!(
        "topology {:?}: {} hosts, {} links; {} flows",
        topo.name,
        topo.hosts.len(),
        topo.net.links.len(),
        flows.len()
    );
    drop(topo);

    // 3. Record the original schedule under Random scheduling, then
    //    replay the identical input under LSTF with
    //    slack = o(p) − i(p) − tmin(p).
    let (schedule, report) = replay_experiment(
        factory,
        &flows,
        SchedKind::Random,
        ReplayMode::lstf(),
        42,
        1500,
    );

    println!(
        "recorded {} packets; max congestion points {}; mean slack {:.1}us",
        schedule.len(),
        schedule.max_congestion_points(),
        schedule.mean_slack() / 1e6
    );
    println!(
        "LSTF replay: {:.4}% overdue, {:.4}% overdue by more than T = {}",
        report.frac_overdue() * 100.0,
        report.frac_overdue_gt_t() * 100.0,
        report.t
    );

    // 4. The omniscient UPS (per-hop output-time vectors) is exact.
    let mut topo = factory();
    let omni = ups::core::replay::replay_schedule(&mut topo, &schedule, ReplayMode::Omniscient);
    assert!(omni.perfect(), "Appendix B guarantees a perfect replay");
    println!(
        "omniscient replay: perfect ({} packets on time)",
        omni.total
    );
}
