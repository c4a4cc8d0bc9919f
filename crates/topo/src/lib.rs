//! `ups-topo` — the paper's evaluation topologies.
//!
//! Builders produce a [`Topology`]: a wired [`Network`] plus the node/link
//! classification the workload generator and the experiment harness need
//! (host list, tiered link sets). Four families:
//!
//! * [`internet2`] — the simplified Internet-2 WAN of §2.3 (10 core
//!   routers / 16 core links), with the paper's three bandwidth variants;
//! * [`rocketfuel`] — a seeded synthetic stand-in for the RocketFuel ISP
//!   map (83 core routers / 131 core links; the real trace files are not
//!   redistributable, see below). `RocketFuelConfig::full()` is the
//!   paper's default scenario: 10 edge routers per core, 830 hosts;
//! * [`fattree`] — a k-ary full-bisection datacenter fat-tree as in
//!   pFabric, 10 Gbps everywhere, valid for any even `k` (k=4 is the
//!   test size, k=8 the paper-scale 128-host build);
//! * [`simple`] — dumbbell / line / star fixtures for tests and examples.
//!
//! **Why a synthetic RocketFuel is a fair substitute.** The paper reads
//! its RocketFuel results through the map's size (83 core routers, 131
//! core links, 10 edge routers per core) and its bandwidth split, "half
//! of the core links … set to have bandwidths smaller than the access
//! links", not through which city links to which. The seeded stand-in
//! keeps both exactly, with an ISP-like degree skew, so its results
//! compare with the paper's RocketFuel rows in trend, not digit for digit.
//!
//! Every builder returns a validated [`Topology`]:
//!
//! ```
//! use ups_net::TraceLevel;
//! use ups_topo::fattree::{build, FatTreeConfig};
//!
//! let topo = build(&FatTreeConfig::for_k(4), TraceLevel::Off);
//! assert_eq!(topo.hosts.len(), 16);
//! assert_eq!(topo.core_links.len() + topo.access_links.len()
//!     + topo.host_links.len(), topo.net.links.len());
//! ```

#![forbid(unsafe_code)]

pub mod fattree;
pub mod internet2;
pub mod rocketfuel;
pub mod simple;

use std::sync::Arc;
use ups_net::{LinkId, Network, NodeId, RoutingTable, TraceLevel};
use ups_sim::Bandwidth;

/// A built topology: the network plus classification metadata.
#[derive(Debug)]
pub struct Topology {
    /// The wired network with routes computed (schedulers still FIFO).
    pub net: Network,
    /// The routing table from the builder's `compute_routes()` —
    /// injection and workload calibration resolve paths through this.
    pub routes: Arc<RoutingTable>,
    /// Human-readable name, e.g. `"I2:1Gbps-10Gbps"`.
    pub name: String,
    /// All end hosts.
    pub hosts: Vec<NodeId>,
    /// Core links (both directions).
    pub core_links: Vec<LinkId>,
    /// Access (edge↔core) links.
    pub access_links: Vec<LinkId>,
    /// Host NIC links.
    pub host_links: Vec<LinkId>,
}

impl Topology {
    /// The same topology on a fresh network ([`Network::rewired`]):
    /// equal to a second run of the builder without its routing pass.
    /// A replay leg takes this from the topology its record leg used.
    pub fn rewired(&self) -> Topology {
        Topology {
            net: self.net.rewired(),
            routes: Arc::clone(&self.routes),
            name: self.name.clone(),
            hosts: self.hosts.clone(),
            core_links: self.core_links.clone(),
            access_links: self.access_links.clone(),
            host_links: self.host_links.clone(),
        }
    }

    /// The slowest core-link bandwidth — the paper's bottleneck, whose
    /// single-MTU transmission time is the overdue threshold `T`.
    pub fn bottleneck_core_bw(&self) -> Bandwidth {
        self.core_links
            .iter()
            .map(|&l| self.net.links[l.0 as usize].bw)
            .min()
            .expect("topology has no core links")
    }

    /// Sanity checks every builder runs before returning: the topology
    /// has hosts, all hosts are mutually reachable, and every link is
    /// classified exactly once.
    pub fn validate(&self) {
        assert!(!self.hosts.is_empty(), "topology has no hosts");
        let total = self.core_links.len() + self.access_links.len() + self.host_links.len();
        assert_eq!(total, self.net.links.len(), "links missing a tier");
        // Reachability spot check: first host can reach every other host.
        if let (Some(&a), true) = (self.hosts.first(), self.hosts.len() > 1) {
            for &b in &self.hosts[1..] {
                let mut hops = 0;
                self.routes
                    .for_each_hop(a, b, ups_net::FlowId(0), |_| hops += 1);
                assert!(hops >= 2, "degenerate path {a:?}->{b:?}");
            }
        }
    }
}

/// Shared helper: attach `edges_per_core` edge routers to each core
/// router, and one host to each edge router. Returns (hosts, access
/// links, host links). This is the paper's access pattern: "We connect
/// each core router to 10 edge routers using 1 Gbps links and each edge
/// router is attached to an end host via a 10 Gbps link."
pub(crate) fn attach_edges_and_hosts(
    net: &mut Network,
    cores: &[NodeId],
    edges_per_core: usize,
    edge_core_bw: Bandwidth,
    host_edge_bw: Bandwidth,
    edge_prop: ups_sim::Dur,
    host_prop: ups_sim::Dur,
) -> (Vec<NodeId>, Vec<LinkId>, Vec<LinkId>) {
    let mut hosts = Vec::new();
    let mut access = Vec::new();
    let mut host_links = Vec::new();
    for (ci, &core) in cores.iter().enumerate() {
        for e in 0..edges_per_core {
            let edge = net.add_router(format!("edge:{ci}.{e}"));
            let (a, b) = net.add_duplex(edge, core, edge_core_bw, edge_prop);
            access.push(a);
            access.push(b);
            let host = net.add_host(format!("host:{ci}.{e}"));
            let (c, d) = net.add_duplex(host, edge, host_edge_bw, host_prop);
            host_links.push(c);
            host_links.push(d);
            hosts.push(host);
        }
    }
    (hosts, access, host_links)
}

/// Default trace level for built topologies.
pub fn default_level() -> TraceLevel {
    TraceLevel::Hops
}
