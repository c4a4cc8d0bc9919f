//! Integration tests of the §3 objective experiments (the Figures 2-4
//! pipelines) at reduced scale, asserting the paper's qualitative
//! outcomes.

use std::collections::BTreeMap;
use ups::core::objectives::Scheme;
use ups::core::{run_fairness, run_fct, run_goodput, run_tail_delays};
use ups::metrics::{throughput_fairness_series, Cdf};
use ups::net::{FlowId, LinkPolicy, TraceLevel};
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::simple::dumbbell;
use ups::topo::Topology;
use ups::transport::{install_tcp, is_ack_flow, FlowDesc, TcpConfig};

fn topo() -> Topology {
    dumbbell(
        8,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(20),
        TraceLevel::Delivery,
    )
}

fn mice_and_elephants(t: &Topology) -> Vec<FlowDesc> {
    (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + i as usize],
            pkts: if i < 3 { 20 } else { 400 },
            start: Time::ZERO,
            deadline: None,
        })
        .collect()
}

fn mean_mouse_fct(res: &[ups::transport::FlowResult]) -> f64 {
    let m: Vec<f64> = res
        .iter()
        .filter(|r| r.desc.pkts < 100)
        .map(|r| r.fct().expect("mouse incomplete").as_secs_f64())
        .collect();
    m.iter().sum::<f64>() / m.len() as f64
}

#[test]
fn fct_ordering_matches_figure_2() {
    // Figure 2's shape: LSTF(fs×D) ≈ SJF ≈ SRPT all well below FIFO for
    // small flows.
    let flows = mice_and_elephants(&topo());
    let horizon = Time::from_secs(4);
    let buffer = 300_000;
    let fifo = mean_mouse_fct(&run_fct(topo(), &flows, &Scheme::Fifo, buffer, horizon));
    let sjf = mean_mouse_fct(&run_fct(topo(), &flows, &Scheme::Sjf, buffer, horizon));
    let srpt = mean_mouse_fct(&run_fct(topo(), &flows, &Scheme::Srpt, buffer, horizon));
    let lstf = mean_mouse_fct(&run_fct(
        topo(),
        &flows,
        &Scheme::LstfFct {
            d: Dur::from_secs(1),
        },
        buffer,
        horizon,
    ));
    assert!(sjf < fifo / 1.5, "SJF {sjf} vs FIFO {fifo}");
    assert!(srpt < fifo / 1.5, "SRPT {srpt} vs FIFO {fifo}");
    assert!(lstf < fifo / 1.5, "LSTF {lstf} vs FIFO {fifo}");
    // LSTF within 2x of the best specialist.
    let best = sjf.min(srpt);
    assert!(lstf < best * 2.0, "LSTF {lstf} vs best {best}");
}

#[test]
fn all_flows_complete_under_every_fct_scheme() {
    let flows = mice_and_elephants(&topo());
    for scheme in [
        Scheme::Fifo,
        Scheme::Sjf,
        Scheme::Srpt,
        Scheme::LstfFct {
            d: Dur::from_secs(1),
        },
    ] {
        let res = run_fct(topo(), &flows, &scheme, 300_000, Time::from_secs(8));
        for r in &res {
            assert!(
                r.completed.is_some(),
                "{}: flow {:?} incomplete after {} retransmits",
                scheme.label(),
                r.desc.id,
                r.retransmits
            );
        }
    }
}

#[test]
fn tail_delay_pipeline_is_load_invariant_across_schemes() {
    // Open-loop UDP: both schemes see the identical offered load, so
    // they deliver the same packet population (the paper's reason for
    // using UDP in §3.2).
    let t = topo();
    let flows: Vec<FlowDesc> = (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + (i as usize + 3) % 8],
            pkts: 150,
            start: Time::from_micros(7 * i),
            deadline: None,
        })
        .collect();
    let fifo = run_tail_delays(topo(), &flows, &Scheme::Fifo, 1500, None);
    let fplus = run_tail_delays(
        topo(),
        &flows,
        &Scheme::LstfConst {
            slack: Dur::from_secs(1),
        },
        1500,
        None,
    );
    assert_eq!(fifo.len(), fplus.len());
    // Work conservation: identical load ⇒ identical mean delay on a
    // shared single bottleneck within a small tolerance.
    let (mf, mp) = (Cdf::new(fifo).mean(), Cdf::new(fplus).mean());
    assert!((mf - mp).abs() / mf < 0.05, "means {mf} vs {mp}");
}

#[test]
fn fairness_converges_for_any_rest_below_fair_share() {
    // §3.3's claim: LSTF converges to fairness for ANY rest ≤ r*, here
    // swept over two orders of magnitude.
    let t = topo();
    let flows: Vec<FlowDesc> = (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + i as usize],
            pkts: u64::MAX / 2,
            start: Time::from_micros(17 * i),
            deadline: None,
        })
        .collect();
    for rest_mbps in [100, 10, 1] {
        let pts = run_fairness(
            topo(),
            &flows,
            &Scheme::LstfVc {
                rest: Bandwidth::mbps(rest_mbps),
            },
            Dur::from_millis(1),
            Time::from_millis(10),
            None,
        );
        let last = pts.last().expect("points");
        assert!(
            last.jain > 0.95,
            "rest {rest_mbps}Mbps: final Jain {}",
            last.jain
        );
    }
}

#[test]
fn weighted_fairness_splits_in_proportion() {
    let t = topo();
    let flows: Vec<FlowDesc> = (0..4)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + i as usize],
            pkts: u64::MAX / 2,
            start: Time::from_micros(13 * i),
            deadline: None,
        })
        .collect();
    let mut weights = BTreeMap::new();
    weights.insert(FlowId(0), 3.0);
    weights.insert(FlowId(1), 1.0);
    weights.insert(FlowId(2), 1.0);
    weights.insert(FlowId(3), 1.0);
    let bytes = run_goodput(
        topo(),
        &flows,
        &Scheme::LstfVcWeighted {
            base: Bandwidth::mbps(30),
            weights,
        },
        Time::from_millis(20),
        None,
    );
    let total: u64 = bytes.iter().sum();
    let share0 = bytes[0] as f64 / total as f64;
    assert!(
        (share0 - 0.5).abs() < 0.08,
        "weight-3 flow got {share0:.3} of goodput, wanted ~0.5"
    );
}

/// The table pipeline the benchmark walk mirrors: a `Delivery` build,
/// TCP under `scheme`, one `run_until(horizon)`, then every delivered
/// data packet of the packet table as `(time, flow index, wire bytes)`,
/// in delivery order.
fn table_deliveries(flows: &[FlowDesc], scheme: &Scheme, horizon: Time) -> Vec<(Time, usize, u32)> {
    let mut t = topo();
    let kind = scheme.sched_kind();
    t.net.configure_links(|l| {
        LinkPolicy::keep()
            .buffer(None)
            .scheduler(kind.build(l.id, 0))
    });
    let _results = install_tcp(&mut t.net, flows, &TcpConfig::default(), || {
        scheme.stamper()
    });
    t.net.run_until(horizon);
    let mut out: Vec<(Time, usize, u32)> = t
        .net
        .telemetry
        .packets
        .iter()
        .filter(|r| !is_ack_flow(r.flow))
        .filter_map(|r| Some((r.delivered?, r.flow.0 as usize, r.size)))
        .collect();
    out.sort_by_key(|d| d.0);
    out
}

#[test]
fn online_fold_equals_the_table_fold_at_window_and_horizon_boundaries() {
    let t = topo();
    let flows: Vec<FlowDesc> = (0..8)
        .map(|i| FlowDesc {
            id: FlowId(i),
            src: t.hosts[i as usize],
            dst: t.hosts[8 + i as usize],
            pkts: u64::MAX / 2,
            start: Time::from_micros(23 * i),
            deadline: None,
        })
        .collect();
    for scheme in [
        Scheme::Fifo,
        Scheme::LstfVc {
            rest: Bandwidth::mbps(100),
        },
    ] {
        let label = scheme.label();
        // Read boundaries off a first run: the window is a delivery
        // time, so that delivery lands exactly at `1·window`, and the
        // horizon is a later delivery time that is no multiple of it.
        let first = table_deliveries(&flows, &scheme, Time::from_millis(6));
        let window = Dur(first[first.len() / 8].0.as_ps());
        let horizon = first
            .iter()
            .rev()
            .map(|d| d.0)
            .find(|t| t.as_ps() % window.as_ps() != 0)
            .expect("a delivery off the window grid");
        assert!(
            horizon.as_ps() > 4 * window.as_ps(),
            "{label}: too few windows"
        );

        let table = table_deliveries(&flows, &scheme, horizon);
        let on_boundary = |t: Time| table.iter().filter(|d| d.0 == t).count();
        assert!(
            on_boundary(Time(window.as_ps())) > 0,
            "{label}: no delivery at 1·window"
        );
        assert!(
            on_boundary(horizon) > 0,
            "{label}: no delivery at the horizon"
        );

        let want = throughput_fairness_series(table.iter().copied(), flows.len(), window, horizon);
        let got = run_fairness(topo(), &flows, &scheme, window, horizon, None);
        assert_eq!(got.len(), want.len(), "{label}: window count");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.t, w.t, "{label}: window {k} end");
            assert_eq!(g.total_bytes, w.total_bytes, "{label}: window {k} bytes");
            assert_eq!(
                g.jain.to_bits(),
                w.jain.to_bits(),
                "{label}: window {k} Jain"
            );
        }

        // Goodput's end is inclusive: the deliveries at the horizon count.
        let mut want = vec![0u64; flows.len()];
        for &(_, i, bytes) in &table {
            want[i] += u64::from(bytes);
        }
        let got = run_goodput(topo(), &flows, &scheme, horizon, None);
        assert_eq!(got, want, "{label}: goodput over [0, horizon]");
    }
}
