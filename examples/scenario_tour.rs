//! A tour of the scenario registry: list every registered scenario,
//! then run the cheapest non-web one end-to-end at a reduced scale and
//! read its replayability row by row.
//!
//! ```sh
//! cargo run --release --example scenario_tour
//! ```
//!
//! The registry (`ups::sweep::scenario`) is the declarative catalogue
//! behind `sweep --grid <scenario>` and `sweep scenarios list|describe`;
//! `docs/SCENARIOS.md` documents every entry with its topology sketch
//! and repro command.

use ups::sweep::{run_sweep, scenario, SimScale};

fn main() {
    println!("registered scenarios:\n");
    print!("{}", scenario::render_list());

    // Run the fast datacenter-incast scenario at a tiny horizon: three
    // original schedulers' schedules, each replayed under LSTF.
    let s = scenario::find("dc-k4-incast-sched").expect("registered scenario");
    println!("\nrunning `{}` at a reduced horizon...\n", s.name);
    let sim = SimScale {
        edges_per_core: 2,
        horizon: ups::sim::Dur::from_millis(2),
        fattree_k: 4,
        label: "tour",
    };
    let report = run_sweep(&s.spec(), &sim, 2, s.workload, s.pipeline);
    println!(
        "{:<18} {:>5} {:<9} {:>9} {:>12} {:>12}",
        "Topology", "Util", "Original", "Packets", "FracOverdue", "Frac>T"
    );
    for r in &report.results {
        println!(
            "{:<18} {:>4.0}% {:<9} {:>9.0} {:>12.6} {:>12.6}",
            r.coord.topo.label(),
            r.coord.util * 100.0,
            r.coord.sched.label(),
            r.total.mean,
            r.frac_overdue.mean,
            r.frac_gt_t.mean,
        );
    }
    println!(
        "\nevery scenario runs the same way: cargo run --release --bin sweep -- \
         --grid <name> --jobs 4"
    );
}
