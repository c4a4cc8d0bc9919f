//! The practical side of universality (§3): one LSTF slack-initialization
//! heuristic per network-wide objective, each evaluated against the
//! state-of-the-art scheduler for that objective.
//!
//! * mean FCT — LSTF with `slack = flow_size × D` vs FIFO / SJF / SRPT;
//! * tail packet delay — LSTF with constant slack (≡ FIFO+) vs FIFO;
//! * fairness — LSTF with virtual-clock slack vs FIFO / FQ.

use std::collections::BTreeMap;
use ups_metrics::FairnessPoint;
use ups_net::{FlowId, TraceLevel};
use ups_sched::SchedKind;
use ups_sim::{Bandwidth, Dur, Time};
use ups_topo::Topology;
use ups_transport::{
    install_tcp, FlowDesc, FlowResult, HeaderStamper, PrioPolicy, SharedResults, SlackPolicy,
    TcpConfig,
};

/// A (scheduler, ingress-stamping) pairing under evaluation.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// Plain FIFO, zero headers.
    Fifo,
    /// Fair queuing, zero headers.
    Fq,
    /// SJF: priority scheduler, `prio = flow size`.
    Sjf,
    /// SRPT with starvation prevention, `prio = remaining size`.
    Srpt,
    /// LSTF with the §3.1 slack: `flow_size × D`.
    LstfFct {
        /// The multiplier D (1 s in the paper).
        d: Dur,
    },
    /// LSTF with the §3.2 constant slack (≡ FIFO+).
    LstfConst {
        /// The constant (1 s in the paper).
        slack: Dur,
    },
    /// LSTF with the §3.3 virtual-clock slack.
    LstfVc {
        /// Estimated fair rate `rest` (any value ≤ r* converges).
        rest: Bandwidth,
    },
    /// LSTF with the §3.3 *weighted* virtual-clock extension: per-flow
    /// `rest` in proportion to desired weights.
    LstfVcWeighted {
        /// Unweighted rate estimate.
        base: Bandwidth,
        /// Per-flow weights.
        weights: BTreeMap<FlowId, f64>,
    },
}

impl Scheme {
    /// Scheduler kind to install on every port.
    pub fn sched_kind(&self) -> SchedKind {
        match self {
            Scheme::Fifo => SchedKind::Fifo,
            Scheme::Fq => SchedKind::Fq,
            Scheme::Sjf => SchedKind::Sjf,
            Scheme::Srpt => SchedKind::Srpt,
            Scheme::LstfFct { .. }
            | Scheme::LstfConst { .. }
            | Scheme::LstfVc { .. }
            | Scheme::LstfVcWeighted { .. } => SchedKind::Lstf,
        }
    }

    /// Header stamper for the ingress.
    pub fn stamper(&self) -> HeaderStamper {
        match self {
            Scheme::Fifo | Scheme::Fq => HeaderStamper::zero(),
            Scheme::Sjf => HeaderStamper::new(SlackPolicy::None, PrioPolicy::FlowSize),
            Scheme::Srpt => HeaderStamper::new(SlackPolicy::None, PrioPolicy::Remaining),
            Scheme::LstfFct { d } => {
                HeaderStamper::new(SlackPolicy::FlowSizeTimesD { d: *d }, PrioPolicy::None)
            }
            Scheme::LstfConst { slack } => {
                HeaderStamper::new(SlackPolicy::Constant { slack: *slack }, PrioPolicy::None)
            }
            Scheme::LstfVc { rest } => {
                HeaderStamper::new(SlackPolicy::VirtualClock { rest: *rest }, PrioPolicy::None)
            }
            Scheme::LstfVcWeighted { base, weights } => HeaderStamper::new(
                SlackPolicy::WeightedVirtualClock {
                    base: *base,
                    weights: weights.clone(),
                },
                PrioPolicy::None,
            ),
        }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Scheme::Fifo => "FIFO".into(),
            Scheme::Fq => "FQ".into(),
            Scheme::Sjf => "SJF".into(),
            Scheme::Srpt => "SRPT".into(),
            Scheme::LstfFct { .. } => "LSTF(fs*D)".into(),
            Scheme::LstfConst { .. } => "LSTF(const)".into(),
            Scheme::LstfVc { rest } => format!("LSTF@{rest}"),
            Scheme::LstfVcWeighted { base, .. } => format!("wLSTF@{base}"),
        }
    }
}

/// Configure every port for `scheme` with per-port `buffer` bytes and
/// install TCP for `flows` on a network that records no packet table:
/// the closed-loop objectives below read only the transport's per-flow
/// results.
fn closed_loop_leg(
    topo: &mut Topology,
    flows: &[FlowDesc],
    scheme: &Scheme,
    buffer: Option<u64>,
) -> SharedResults {
    topo.net.telemetry.level = TraceLevel::Off;
    let kind = scheme.sched_kind();
    topo.net.configure_links(|l| {
        ups_net::LinkPolicy::keep()
            .buffer(buffer)
            .scheduler(kind.build(l.id, 0))
    });
    install_tcp(&mut topo.net, flows, &TcpConfig::default(), || {
        scheme.stamper()
    })
}

/// Each flow's data bytes delivered so far, in `flows` order.
fn delivered_bytes(results: &SharedResults) -> Vec<u64> {
    let results = results.lock().expect("results poisoned");
    results.iter().map(|r| r.delivered_bytes).collect()
}

/// §3.1 — run TCP flows under `scheme` and return per-flow results.
///
/// `buffer` is the per-port buffer in bytes (the paper uses 5 MB — the
/// average delay-bandwidth product of its Internet2 setup).
pub fn run_fct(
    mut topo: Topology,
    flows: &[FlowDesc],
    scheme: &Scheme,
    buffer: u64,
    horizon: Time,
) -> Vec<FlowResult> {
    let results = closed_loop_leg(&mut topo, flows, scheme, Some(buffer));
    topo.net.run_until(horizon);
    let out = results.lock().expect("results poisoned").clone();
    out
}

/// §3.2 — run an open-loop UDP workload under `scheme` and return every
/// delivered packet's end-to-end delay in seconds.
pub fn run_tail_delays(
    mut topo: Topology,
    flows: &[FlowDesc],
    scheme: &Scheme,
    mtu: u32,
    buffer: Option<u64>,
) -> Vec<f64> {
    let kind = scheme.sched_kind();
    topo.net.configure_links(|l| {
        ups_net::LinkPolicy::keep()
            .buffer(buffer)
            .scheduler(kind.build(l.id, 0))
    });
    let mut stamper = scheme.stamper();
    let routes = std::sync::Arc::clone(&topo.routes);
    ups_transport::inject_udp_flows(&mut topo.net, &routes, flows, mtu, &mut stamper);
    topo.net.run_to_completion();
    assert!(
        topo.net.telemetry.level != TraceLevel::Off,
        "delay measurement requires delivery tracing"
    );
    let packets = topo.net.telemetry.packets.iter();
    packets
        .filter_map(|r| Some((r.delivered? - r.created).as_secs_f64()))
        .collect()
}

/// §3.3 — run long-lived TCP flows under `scheme` and return the Jain
/// fairness index per `window` up to `horizon`.
///
/// The leg runs one window at a time and differences the receivers'
/// byte counts, so window `k` holds the deliveries at
/// `t ∈ [k·window, (k+1)·window)` and none at `t ≥ horizon`. That is
/// the series [`throughput_fairness_series`](ups_metrics::throughput_fairness_series)
/// folds from a packet table, without keeping one.
pub fn run_fairness(
    mut topo: Topology,
    flows: &[FlowDesc],
    scheme: &Scheme,
    window: Dur,
    horizon: Time,
    buffer: Option<u64>,
) -> Vec<FairnessPoint> {
    let results = closed_loop_leg(&mut topo, flows, scheme, buffer);
    let n_windows = horizon.as_ps().div_ceil(window.as_ps());
    let mut before = vec![0u64; flows.len()];
    (1..=n_windows)
        .map(|w| {
            let end = Time((w * window.as_ps()).min(horizon.as_ps()));
            topo.net.run_until(end - Dur(1));
            let now = delivered_bytes(&results);
            let in_window: Vec<u64> = now.iter().zip(&before).map(|(n, b)| n - b).collect();
            before = now;
            FairnessPoint::of_window(Time(w * window.as_ps()), &in_window)
        })
        .collect()
}

/// §3.3 extension — run long-lived TCP flows under `scheme` and return
/// each flow's delivered data bytes over `[0, horizon]` (weighted-
/// fairness measurements divide these by the weights).
pub fn run_goodput(
    mut topo: Topology,
    flows: &[FlowDesc],
    scheme: &Scheme,
    horizon: Time,
    buffer: Option<u64>,
) -> Vec<u64> {
    let results = closed_loop_leg(&mut topo, flows, scheme, buffer);
    topo.net.run_until(horizon);
    delivered_bytes(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_sim::Bandwidth;
    use ups_topo::simple::dumbbell;

    fn topo() -> Topology {
        dumbbell(
            6,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(20),
            TraceLevel::Delivery,
        )
    }

    /// 6 senders to 6 receivers across the bottleneck: two 15-packet mice
    /// and four 600-packet elephants, all at t=0.
    fn mice_and_elephants(t: &Topology) -> Vec<FlowDesc> {
        (0..6)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: t.hosts[i as usize],
                dst: t.hosts[6 + i as usize],
                pkts: if i < 2 { 15 } else { 600 },
                start: Time::ZERO,
                deadline: None,
            })
            .collect()
    }

    fn mean_mouse_fct(res: &[FlowResult]) -> f64 {
        let mice: Vec<f64> = res
            .iter()
            .filter(|r| r.desc.pkts < 100)
            .map(|r| r.fct().expect("mouse incomplete").as_secs_f64())
            .collect();
        mice.iter().sum::<f64>() / mice.len() as f64
    }

    #[test]
    fn sjf_and_lstf_beat_fifo_for_mice() {
        let flows = mice_and_elephants(&topo());
        let horizon = Time::from_secs(4);
        let buffer = 200_000; // small enough to force queueing pressure
        let fifo = run_fct(topo(), &flows, &Scheme::Fifo, buffer, horizon);
        let sjf = run_fct(topo(), &flows, &Scheme::Sjf, buffer, horizon);
        let lstf = run_fct(
            topo(),
            &flows,
            &Scheme::LstfFct {
                d: Dur::from_secs(1),
            },
            buffer,
            horizon,
        );
        let (f, s, l) = (
            mean_mouse_fct(&fifo),
            mean_mouse_fct(&sjf),
            mean_mouse_fct(&lstf),
        );
        assert!(s < f, "SJF mice {s} !< FIFO mice {f}");
        assert!(l < f, "LSTF mice {l} !< FIFO mice {f}");
        // LSTF should land near SJF (same ordering intent).
        assert!(l < s * 3.0, "LSTF {l} far from SJF {s}");
    }

    #[test]
    fn constant_slack_reduces_tail_over_fifo_on_multihop_mix() {
        // Tail-delay comparison needs heterogeneous hop counts; the line
        // inside a dumbbell is enough to see FIFO+ reordering effects,
        // and at minimum the experiment must run and produce delays.
        let t = topo();
        let flows: Vec<FlowDesc> = (0..6)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: t.hosts[i as usize],
                dst: t.hosts[6 + (i as usize + 1) % 6],
                pkts: 40,
                start: Time::from_micros(i * 7),
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
        assert!(fifo.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn fairness_converges_for_fq_and_lstf_vc() {
        let t = topo();
        let flows: Vec<FlowDesc> = (0..6)
            .map(|i| FlowDesc {
                id: FlowId(i),
                src: t.hosts[i as usize],
                dst: t.hosts[6 + i as usize],
                pkts: u64::MAX / 2,
                start: Time::from_micros(10 * i),
                deadline: None,
            })
            .collect();
        let window = Dur::from_millis(1);
        let horizon = Time::from_millis(12);
        for scheme in [
            Scheme::Fq,
            Scheme::LstfVc {
                rest: Bandwidth::mbps(100),
            },
        ] {
            let pts = run_fairness(topo(), &flows, &scheme, window, horizon, Some(5_000_000));
            let last = pts.last().expect("no fairness points");
            assert!(
                last.jain > 0.9,
                "{}: final Jain {} (series {:?})",
                scheme.label(),
                last.jain,
                pts.iter().map(|p| p.jain).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn scheme_plumbing_labels_and_kinds() {
        assert_eq!(Scheme::Fifo.sched_kind(), SchedKind::Fifo);
        assert_eq!(Scheme::Srpt.sched_kind(), SchedKind::Srpt);
        assert_eq!(
            Scheme::LstfVc {
                rest: Bandwidth::gbps(1)
            }
            .sched_kind(),
            SchedKind::Lstf
        );
        assert_eq!(
            Scheme::LstfVc {
                rest: Bandwidth::gbps(1)
            }
            .label(),
            "LSTF@1Gbps"
        );
    }
}
