//! The standard experiment workloads: the workload families a scenario
//! pairs with any topology.

use ups_flowgen::{DeadlineMixConfig, IncastConfig, PoissonConfig};
use ups_sim::Dur;
use ups_topo::Topology;
use ups_transport::FlowDesc;

/// The identity: generators already return transport flow
/// descriptors. Kept only because the repo benchmark's fairness
/// workload still calls it; it goes with ROADMAP item 7b. No product
/// path calls it.
#[doc(hidden)]
pub fn to_flow_descs(flows: &[FlowDesc]) -> Vec<FlowDesc> {
    flows.to_vec()
}

/// A named workload family a scenario can pair with any topology — the
/// uniform `(topo, utilization, horizon, seed) → flows` interface the
/// sweep engine's cells run on. Each kind keeps `utilization` meaningful
/// (see the generator docs for what link it calibrates against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's default: Poisson web flows with heavy-tailed sizes,
    /// calibrated to the most-loaded core link
    /// ([`ups_flowgen::poisson_workload`]).
    Web,
    /// Datacenter partition/aggregate fan-in bursts, calibrated to the
    /// receiver NIC ([`ups_flowgen::incast_workload`]).
    Incast,
    /// Short deadline-tagged urgent flows over best-effort background,
    /// jointly calibrated to the most-loaded core link
    /// ([`ups_flowgen::deadline_mix_workload`]).
    DeadlineMix,
}

impl WorkloadKind {
    /// Human label for report headers and artifact-adjacent docs.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Web => "web",
            WorkloadKind::Incast => "incast",
            WorkloadKind::DeadlineMix => "deadline-mix",
        }
    }

    /// Generate the workload as transport flow descriptors, ready for
    /// [`crate::replay::record_original`]. Pure in its arguments.
    pub fn build(
        self,
        topo: &Topology,
        utilization: f64,
        horizon: Dur,
        seed: u64,
    ) -> Vec<FlowDesc> {
        match self {
            WorkloadKind::Web => ups_flowgen::poisson_workload(
                topo,
                &PoissonConfig {
                    utilization,
                    horizon,
                    seed,
                    ..Default::default()
                },
            ),
            WorkloadKind::Incast => ups_flowgen::incast_workload(
                topo,
                &IncastConfig {
                    // Fan-in capped by the host population on small
                    // fixtures; the generator clamps again defensively.
                    fan_in: 16.min(topo.hosts.len().saturating_sub(1)).max(1),
                    utilization,
                    horizon,
                    seed,
                    ..Default::default()
                },
            ),
            WorkloadKind::DeadlineMix => ups_flowgen::deadline_mix_workload(
                topo,
                &DeadlineMixConfig {
                    utilization,
                    horizon,
                    seed,
                    ..Default::default()
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::TraceLevel;
    use ups_sim::Bandwidth;
    use ups_topo::simple::dumbbell;

    #[test]
    fn every_workload_kind_builds_deterministic_flows() {
        let topo = dumbbell(
            4,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Off,
        );
        for kind in [
            WorkloadKind::Web,
            WorkloadKind::Incast,
            WorkloadKind::DeadlineMix,
        ] {
            let a = kind.build(&topo, 0.5, Dur::from_millis(5), 3);
            let b = kind.build(&topo, 0.5, Dur::from_millis(5), 3);
            assert!(!a.is_empty(), "{} produced no flows", kind.label());
            assert_eq!(a.len(), b.len(), "{} not deterministic", kind.label());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.start, x.src, x.dst, x.pkts),
                    (y.start, y.src, y.dst, y.pkts)
                );
            }
            assert!(a.iter().all(|f| f.src != f.dst && f.pkts >= 1));
        }
    }

    #[test]
    fn workload_roundtrips_through_descs() {
        let topo = dumbbell(
            2,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Off,
        );
        let flows = WorkloadKind::Web.build(&topo, 0.5, Dur::from_millis(5), 3);
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.src != f.dst && f.pkts >= 1));
    }
}
