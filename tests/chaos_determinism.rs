//! Determinism guarantees of the chaos layer (seeded loss, link
//! failures, jamming): perturbed sweep artifacts must stay byte-identical
//! across worker counts and reruns, and the chaos RNG must be fully
//! independent of the workload RNG — sweeping a drop rate (or the chaos
//! seed itself) never changes the recorded schedule it perturbs.

use proptest::prelude::*;
use std::sync::Arc;
use ups::core::replay::{record_original, replay_schedule_lossy, ReplayMode};
use ups::core::WorkloadKind;
use ups::net::{
    App, ChaosPolicy, FlowId, JamSpec, Network, NodeId, Packet, PacketKind, RoutingTable,
    SchedHeader, TraceLevel,
};
use ups::sched::SchedKind;
use ups::sim::{Bandwidth, Dur, Time, PS_PER_US};
use ups::sweep::{
    run_sweep_with, CellCoord, CellMetrics, CellPipeline, ChaosSpec, SimScale, SweepSpec, TopoKind,
};
use ups::topo::internet2::I2Variant;
use ups::topo::simple::star;
use ups::transport::FlowDesc;

fn tiny() -> SimScale {
    SimScale {
        edges_per_core: 2,
        horizon: Dur::from_millis(1),
        fattree_k: 4,
        label: "tiny",
    }
}

/// One replicate of a web cell through the classic replay pipeline.
fn web_cell(coord: &CellCoord, sim: &SimScale, seed: u64) -> CellMetrics {
    CellPipeline::Replay.cell(coord, sim, seed, WorkloadKind::Web)
}

fn i2_cell(chaos: ChaosSpec) -> CellCoord {
    CellCoord {
        topo: TopoKind::I2(I2Variant::Default1g10g),
        sched: SchedKind::Random,
        util: 0.7,
        chaos,
    }
}

/// A two-cell grid: the clean control next to the perturbed cell, the
/// shape every chaos scenario uses.
fn grid_for(chaos: ChaosSpec) -> SweepSpec {
    let mut spec = SweepSpec::new("chaos-prop");
    spec.cells.push(i2_cell(ChaosSpec::OFF));
    spec.cells.push(i2_cell(chaos));
    spec
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Any ChaosSpec — drop-only, or with failure and jam windows — must
    /// serialize byte-identically for `--jobs 1` vs `--jobs 4` and across
    /// repeated same-seed runs, clean control cell included.
    #[test]
    fn chaos_artifacts_are_identical_across_worker_counts_and_reruns(
        (drop_ppm, chaos_seed) in (200u32..50_000, 0u64..1_000),
        (fail_period_us, fail_down_us) in prop_oneof![
            Just((0u32, 0u32)),
            (200u32..600, 20u32..60),
        ],
        (jam_period_us, jam_burst_us) in prop_oneof![
            Just((0u32, 0u32)),
            (150u32..500, 10u32..40),
        ],
    ) {
        let chaos = ChaosSpec {
            drop_ppm,
            fail_period_us,
            fail_down_us,
            jam_period_us,
            jam_burst_us,
            seed: chaos_seed,
        };
        prop_assert!(chaos.enabled());
        let sim = tiny();
        let spec = grid_for(chaos);
        let run = |jobs| {
            run_sweep_with(&spec, sim.label, jobs, |job| {
                web_cell(&job.coord, &sim, job.seed)
            })
        };
        let serial = run(1);
        let parallel = run(4);
        prop_assert_eq!(serial.to_json(), parallel.to_json(), "JSON differs across jobs");
        prop_assert_eq!(serial.to_csv(), parallel.to_csv(), "CSV differs across jobs");
        let again = run(4);
        prop_assert_eq!(parallel.to_json(), again.to_json(), "rerun differs");
    }

    /// The chaos RNG is forked from its own seed, never the workload's:
    /// any drop rate and any chaos seed leave every record-side quantity
    /// (packet population, slack, congestion points) bit-identical to the
    /// clean run, while the chaos outcomes themselves stay deterministic.
    #[test]
    fn chaos_rng_never_perturbs_the_workload_or_recorded_schedule(
        drop_ppm in 1_000u32..80_000,
        workload_seed in 0u64..500,
        (seed_a, seed_b) in (0u64..100, 100u64..200),
    ) {
        let sim = tiny();
        let clean = web_cell(&i2_cell(ChaosSpec::OFF), &sim, workload_seed);
        let spec_a = ChaosSpec { seed: seed_a, ..ChaosSpec::drop(drop_ppm) };
        let spec_b = ChaosSpec { seed: seed_b, ..ChaosSpec::drop(drop_ppm) };
        let a = web_cell(&i2_cell(spec_a), &sim, workload_seed);
        let b = web_cell(&i2_cell(spec_b), &sim, workload_seed);

        // Record-side metrics are untouched by any chaos configuration.
        prop_assert!(clean.chaos.is_none());
        prop_assert_eq!(clean.total, a.total);
        prop_assert_eq!(clean.mean_slack_us, a.mean_slack_us);
        prop_assert_eq!(clean.max_cp, a.max_cp);
        prop_assert_eq!(a.total, b.total);
        prop_assert_eq!(a.mean_slack_us, b.mean_slack_us);

        // The perturbation is live and deterministic in its own seed.
        let ca = a.chaos.expect("perturbed cell must report chaos outcomes");
        prop_assert!(ca.frac_lost > 0.0, "{} ppm drew no losses", drop_ppm);
        let a2 = web_cell(&i2_cell(spec_a), &sim, workload_seed);
        prop_assert_eq!(a.chaos, a2.chaos, "chaos outcomes not reproducible");
    }
}

/// Inject one default-header 1,500-byte data packet.
fn send_one(
    net: &mut Network,
    routes: &RoutingTable,
    at: Time,
    flow: u64,
    seq: u64,
    src: NodeId,
    dst: NodeId,
) {
    let kind = PacketKind::Data { bytes: 1460 };
    let hdr = SchedHeader::default();
    net.inject(routes, at, FlowId(flow), seq, 1500, src, dst, hdr, kind);
}

/// The probe's app: when its timer fires, it sends one packet from its
/// host to `to`.
#[derive(Debug)]
struct SendOnTimer {
    to: NodeId,
}

impl App for SendOnTimer {
    fn on_deliver(&mut self, _: &mut Network, _: NodeId, _: &Packet) {}

    fn on_timer(&mut self, net: &mut Network, node: NodeId, _: u64) {
        let (routes, now) = (Arc::clone(net.routing()), net.now());
        send_one(net, &routes, now, 1, 0, node, self.to);
    }
}

/// Every packet's `(delivery ps, total queueing delay ps)`, in id order.
fn outcomes(net: &Network) -> Vec<(Option<u64>, u64)> {
    let tel = &net.telemetry;
    let recs = tel.packets.iter();
    recs.map(|p| {
        (
            p.delivered.map(|t| t.as_ps()),
            p.total_qdelay(&tel.hops).as_ps(),
        )
    })
    .collect()
}

/// An installed but inert chaos policy changes no outcome, with an app
/// attached or without (`docs/CHAOS.md`, invariant 3).
///
/// The probe is a 4-node star with 1 Gbps, 1 µs links. Host `a` queues
/// two packets to `c` at 0; an app at `b` sends one to `c` from a timer
/// at 12 µs, the instant `a`'s NIC finishes its first. Both NICs want a
/// start at 12 µs, `b`'s first (timers pop before completions), so
/// `b`'s packet reaches the hub's port to `c` ahead of `a`'s second:
/// delivered at 38 µs, `a`'s at 50 µs. The fan-in sends 60 packets from
/// four hosts to a fifth, with no app.
#[test]
fn an_inert_chaos_policy_changes_no_outcome() {
    let inert = |net: &mut Network| {
        net.install_chaos(Time::from_millis(1), |_| Some(ChaosPolicy::new(0)));
    };
    let probe = |chaos: bool| {
        let mut t = star(3, Bandwidth::gbps(1), Dur::from_micros(1), TraceLevel::Hops);
        let (a, b, c) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        if chaos {
            inert(&mut t.net);
        }
        for seq in 0..2 {
            send_one(&mut t.net, &t.routes, Time::ZERO, 0, seq, a, c);
        }
        t.net.attach_app(b, Box::new(SendOnTimer { to: c }));
        t.net.set_timer(b, Time::from_micros(12), 0);
        t.net.run_to_completion();
        outcomes(&t.net)
    };
    let clean = probe(false);
    assert_eq!(clean, probe(true), "an inert policy moved a delivery");
    let delivered_us: Vec<_> = clean.iter().map(|o| o.0.map(|ps| ps / PS_PER_US)).collect();
    // `a`'s two packets, then `b`'s.
    assert_eq!(delivered_us, [Some(26), Some(50), Some(38)]);

    let fan_in = |chaos: bool| {
        let mut t = star(5, Bandwidth::gbps(1), Dur::from_micros(2), TraceLevel::Hops);
        if chaos {
            inert(&mut t.net);
        }
        for s in 0..60u64 {
            let at = Time::from_nanos(500 * (s % 5));
            let (src, dst) = (t.hosts[(s % 4) as usize], t.hosts[4]);
            send_one(&mut t.net, &t.routes, at, s % 4, s, src, dst);
        }
        t.net.run_to_completion();
        (outcomes(&t.net), t.net.telemetry.counters.dropped)
    };
    assert_eq!(
        fan_in(false),
        fan_in(true),
        "an inert policy moved a fan-in delivery"
    );
}

/// All three perturbation kinds at once on a replay leg: the aggregate
/// [`ups::net::ChaosTotals`] match the per-link counters, no packet
/// leaks, and the whole lossy pipeline — jam RNG included — reproduces
/// bit-for-bit.
#[test]
fn chaos_counters_export_consistently_and_reproduce() {
    let factory = || star(6, Bandwidth::gbps(1), Dur::from_micros(5), TraceLevel::Hops);
    let flows: Vec<FlowDesc> = {
        let topo = factory();
        topo.hosts[1..]
            .iter()
            .enumerate()
            .map(|(i, &src)| FlowDesc {
                id: FlowId(i as u64),
                src,
                dst: topo.hosts[0],
                pkts: 40,
                start: Time::ZERO,
                deadline: None,
            })
            .collect()
    };
    let mut orig = factory();
    let schedule = record_original(&mut orig, &flows, SchedKind::Random, 2, 1500);
    drop(orig);

    let run = || {
        let mut topo = factory();
        topo.net.install_chaos(Time::from_millis(20), |_| {
            Some(
                ChaosPolicy::new(11)
                    .drop_prob(0.01)
                    .fail_periodic(Dur::from_micros(300), Dur::from_micros(40))
                    .jam(JamSpec::Random {
                        mean_gap: Dur::from_micros(400),
                        burst: Dur::from_micros(30),
                    }),
            )
        });
        let report = replay_schedule_lossy(&mut topo, &schedule, ReplayMode::lstf());
        assert_eq!(topo.net.packets_in_flight(), 0, "chaos leaked packets");
        (report, topo)
    };
    let (report, topo) = run();
    let totals = topo.net.chaos_totals();
    assert!(totals.drops > 0, "no chaos losses drawn");
    assert!(totals.downs > 0, "no failure windows fired");
    assert!(totals.jams > 0, "no jam windows fired");
    assert!(totals.outage > Dur::ZERO);
    assert!(report.lost > 0);
    assert!(report.fidelity() < 1.0);

    // Totals are exactly the sum of the per-link counters.
    let links = &topo.net.links;
    assert_eq!(
        totals.drops,
        links.iter().map(|l| l.stats.chaos_drops).sum()
    );
    assert_eq!(
        totals.downs,
        links.iter().map(|l| l.stats.chaos_downs).sum()
    );
    assert_eq!(totals.jams, links.iter().map(|l| l.stats.chaos_jams).sum());

    // The full lossy pipeline reproduces bit-for-bit.
    let (report2, topo2) = run();
    assert_eq!(report.lost, report2.lost);
    assert_eq!(report.lateness, report2.lateness);
    assert_eq!(totals, topo2.net.chaos_totals());
}
