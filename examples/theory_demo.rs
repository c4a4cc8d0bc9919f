//! The paper's three appendix counterexamples, executed on the real
//! simulator (unit-time congestion points, idealized free hops):
//!
//! * Figure 6 — simple priorities cannot replay two congestion points
//!   per packet (a priority cycle), while LSTF can;
//! * Figure 7 — LSTF itself fails at three congestion points;
//! * Figure 5 — *no* black-box UPS exists: two schedules give packets
//!   `a` and `x` identical `(i, o, path)` yet demand opposite orders.
//!
//! ```sh
//! cargo run --release --example theory_demo
//! ```

use ups::core::theory::{fig5, fig6, fig7, lateness_units, UNIT};

fn main() {
    // --- Figure 6 ------------------------------------------------------
    println!("== Figure 6: the priority cycle (2 congestion points) ==");
    for prios in [[0i64, 1, 2], [1, 2, 0], [2, 0, 1]] {
        let rep = fig6::priority_replay(prios);
        println!(
            "priorities (a,b,c) = {prios:?}: {} overdue, lateness (units) {:?}",
            rep.overdue,
            lateness_units(&rep)
        );
    }
    let lstf = fig6::lstf_replay();
    println!(
        "LSTF on the same schedule: {} overdue (max lateness {} ps)\n",
        lstf.overdue,
        lstf.max_lateness()
    );

    // --- Figure 7 ------------------------------------------------------
    println!("== Figure 7: LSTF fails at 3 congestion points ==");
    let (sched, rep) = fig7::lstf_replay();
    println!(
        "slacks (units): a={} b={} (c,d tight)",
        sched.packet(0).slack() / UNIT.as_i64(),
        sched.packet(1).slack() / UNIT.as_i64(),
    );
    println!(
        "LSTF replay: {} overdue, lateness (units) {:?}\n",
        rep.overdue,
        lateness_units(&rep)
    );

    // --- Figure 5 ------------------------------------------------------
    println!("== Figure 5: no black-box UPS exists ==");
    let (o_a, o_x, r1, r2) = fig5::demonstrate();
    println!("a and x have identical (i, o, path) in both cases:");
    println!("  o(a) = {o_a}, o(x) = {o_x}");
    println!(
        "case 1 (needs a first): {} overdue, worst {:+.2} units",
        r1.overdue,
        r1.max_lateness() as f64 / UNIT.as_i64() as f64
    );
    println!(
        "case 2 (needs x first): {} overdue, worst {:+.2} units",
        r2.overdue,
        r2.max_lateness() as f64 / UNIT.as_i64() as f64
    );
    println!("a deterministic scheduler must fail at least one of them.");
}
