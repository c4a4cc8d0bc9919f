//! k-ary full-bisection-bandwidth fat-tree (the pFabric datacenter
//! topology of §2.3 Table 1 row 4 and the FCT experiments' heritage \[3\]).
//!
//! Standard Al-Fares construction: `k` pods, each with `k/2` edge and
//! `k/2` aggregation switches; `(k/2)²` core switches; `k³/4` hosts; every
//! link 10 Gbps. All inter-tier links have equal cost, so the Dijkstra
//! ECMP sets in `ups-net` fan flows across the `(k/2)²` core paths by
//! flow hash, as real datacenters do.

// Hash maps here serve keyed lookups only: nothing iterates them, so
// no hash order can reach a result. Clippy's hash-type ban is relaxed
// file-wide.
#![allow(clippy::disallowed_types)]

use crate::Topology;
use ups_net::{Network, TraceLevel};
use ups_sim::{Bandwidth, Dur};

/// Parameters for the fat-tree build. Valid for any even `k ≥ 2`
/// ([`FatTreeConfig::validate`]); the closed-form size helpers make the
/// k=8 (and beyond) scale explicit before paying for a build.
///
/// ```
/// use ups_topo::fattree::FatTreeConfig;
///
/// let k8 = FatTreeConfig::for_k(8);
/// assert_eq!(k8.expected_hosts(), 128);     // k^3/4
/// assert_eq!(k8.expected_switches(), 80);   // (k/2)^2 core + k^2 pod
/// assert!(k8.validate().is_ok());
/// assert!(FatTreeConfig::for_k(5).validate().is_err()); // odd k
/// ```
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// Pod arity; must be even. k=4 → 16 hosts, k=8 → 128 hosts.
    pub k: usize,
    /// Uniform link bandwidth (paper: 10 Gbps).
    pub bw: Bandwidth,
    /// Uniform link propagation delay (intra-DC: small).
    pub prop: Dur,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig::for_k(8)
    }
}

impl FatTreeConfig {
    /// Paper-standard parameters (10 Gbps everywhere, 500 ns links) at
    /// the given arity.
    pub fn for_k(k: usize) -> FatTreeConfig {
        FatTreeConfig {
            k,
            bw: Bandwidth::gbps(10),
            prop: Dur::from_nanos(500),
        }
    }

    /// Check the Al-Fares construction's structural requirement
    /// (`k` even and ≥ 2) without building anything.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 || self.k % 2 != 0 {
            return Err(format!("fat-tree k must be even and >= 2, got {}", self.k));
        }
        Ok(())
    }

    /// Hosts the build will produce: `k³/4`.
    pub fn expected_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Switches the build will produce: `(k/2)²` core + `k²` pod
    /// (aggregation + edge).
    pub fn expected_switches(&self) -> usize {
        (self.k / 2) * (self.k / 2) + self.k * self.k
    }

    /// Unidirectional links per tier the build will produce — each of
    /// (core, access, host) is `k·(k/2)²` duplex pairs, i.e.
    /// `k³/2` unidirectional links.
    pub fn expected_links_per_tier(&self) -> usize {
        self.k * (self.k / 2) * (self.k / 2) * 2
    }
}

/// Build the fat-tree.
///
/// ```
/// use ups_net::TraceLevel;
/// use ups_topo::fattree::{build, FatTreeConfig};
///
/// let topo = build(&FatTreeConfig::for_k(4), TraceLevel::Off);
/// assert_eq!(topo.hosts.len(), 16);
/// assert_eq!(topo.name, "FatTree(k=4)");
/// ```
pub fn build(cfg: &FatTreeConfig, level: TraceLevel) -> Topology {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let k = cfg.k;
    let half = k / 2;
    let mut net = Network::new(level);

    // Core switches: (k/2)^2, indexed (i, j).
    let cores: Vec<_> = (0..half * half)
        .map(|i| net.add_router(format!("dc-core:{i}")))
        .collect();

    let mut core_links = Vec::new();
    let mut access_links = Vec::new();
    let mut host_links = Vec::new();
    let mut hosts = Vec::new();

    for pod in 0..k {
        let aggs: Vec<_> = (0..half)
            .map(|a| net.add_router(format!("agg:{pod}.{a}")))
            .collect();
        let edges: Vec<_> = (0..half)
            .map(|e| net.add_router(format!("tor:{pod}.{e}")))
            .collect();

        // Aggregation i connects to core switches [i*half, (i+1)*half).
        for (i, &agg) in aggs.iter().enumerate() {
            for j in 0..half {
                let (l1, l2) = net.add_duplex(agg, cores[i * half + j], cfg.bw, cfg.prop);
                core_links.push(l1);
                core_links.push(l2);
            }
        }
        // Full bipartite agg <-> edge inside the pod.
        for &agg in &aggs {
            for &edge in &edges {
                let (l1, l2) = net.add_duplex(edge, agg, cfg.bw, cfg.prop);
                access_links.push(l1);
                access_links.push(l2);
            }
        }
        // k/2 hosts per edge switch.
        for (e, &edge) in edges.iter().enumerate() {
            for h in 0..half {
                let host = net.add_host(format!("dchost:{pod}.{e}.{h}"));
                let (l1, l2) = net.add_duplex(host, edge, cfg.bw, cfg.prop);
                host_links.push(l1);
                host_links.push(l2);
                hosts.push(host);
            }
        }
    }

    let routes = net.compute_routes();
    let topo = Topology {
        net,
        routes,
        name: format!("FatTree(k={k})"),
        hosts,
        core_links,
        access_links,
        host_links,
    };
    // Closed-form size cross-check: the loops above must realize exactly
    // the Al-Fares counts the config promises.
    assert_eq!(topo.hosts.len(), cfg.expected_hosts());
    assert_eq!(topo.core_links.len(), cfg.expected_links_per_tier());
    assert_eq!(topo.access_links.len(), cfg.expected_links_per_tier());
    assert_eq!(topo.host_links.len(), cfg.expected_links_per_tier());
    topo.validate();
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::FlowId;

    fn k4() -> Topology {
        build(&FatTreeConfig::for_k(4), TraceLevel::Off)
    }

    #[test]
    fn k4_has_canonical_counts() {
        let t = k4();
        assert_eq!(t.hosts.len(), 16); // k^3/4
                                       // Switches: 4 core + 8 agg + 8 edge = 20.
        let routers = t.net.nodes.iter().filter(|n| !n.is_host()).count();
        assert_eq!(routers, 20);
    }

    #[test]
    fn intra_pod_paths_avoid_core() {
        let t = k4();
        // Hosts 0 and 1 share a ToR: 2 hops.
        let p = t.routes.resolve_path(t.hosts[0], t.hosts[1], FlowId(0));
        assert_eq!(p.hops(), 2);
        // Hosts 0 and 2 share a pod but not a ToR: 4 hops (via agg).
        let p = t.routes.resolve_path(t.hosts[0], t.hosts[2], FlowId(0));
        assert_eq!(p.hops(), 4);
    }

    #[test]
    fn inter_pod_paths_use_core_with_ecmp_spread() {
        let t = k4();
        // Hosts in different pods: 6 hops via core.
        let mut used_cores = std::collections::HashSet::new();
        for f in 0..64 {
            let p = t.routes.resolve_path(t.hosts[0], t.hosts[8], FlowId(f));
            assert_eq!(p.hops(), 6);
            // Middle link's endpoint is the core switch.
            let mid = p.links[2];
            used_cores.insert(t.net.links[mid.0 as usize].from);
        }
        assert!(
            used_cores.len() >= 2,
            "ECMP not spreading across cores: {used_cores:?}"
        );
    }

    #[test]
    fn k8_has_canonical_counts_and_uniform_bandwidth() {
        let cfg = FatTreeConfig::for_k(8);
        let t = build(&cfg, TraceLevel::Off);
        assert_eq!(t.hosts.len(), 128); // k^3/4
        let routers = t.net.nodes.iter().filter(|n| !n.is_host()).count();
        assert_eq!(routers, 80); // 16 core + 32 agg + 32 edge
        assert_eq!(t.core_links.len(), 256); // k(k/2)^2 duplex pairs
        assert_eq!(t.access_links.len(), 256);
        assert_eq!(t.host_links.len(), 256);
        // Full bisection: every tier runs at the same 10 Gbps.
        for l in &t.net.links {
            assert_eq!(l.bw, Bandwidth::gbps(10));
        }
    }

    #[test]
    fn k8_inter_pod_paths_spread_over_cores() {
        let t = build(&FatTreeConfig::for_k(8), TraceLevel::Off);
        let mut used_cores = std::collections::HashSet::new();
        for f in 0..256 {
            // Hosts 0 and 100 live in different pods (16 hosts per pod).
            let p = t.routes.resolve_path(t.hosts[0], t.hosts[100], FlowId(f));
            assert_eq!(p.hops(), 6);
            used_cores.insert(t.net.links[p.links[2].0 as usize].from);
        }
        // The flow hash is hop-invariant (same index at the ToR and agg
        // ECMP sets, both width k/2), so one src-dst pair reaches the
        // k/2 "diagonal" cores — 4 of 16 at k=8.
        assert_eq!(
            used_cores.len(),
            4,
            "expected the k/2 diagonal cores, got {used_cores:?}"
        );
    }

    #[test]
    fn odd_or_tiny_k_is_rejected() {
        assert!(FatTreeConfig::for_k(7).validate().is_err());
        assert!(FatTreeConfig::for_k(0).validate().is_err());
        for k in [2, 4, 6, 8, 10] {
            assert!(FatTreeConfig::for_k(k).validate().is_ok());
        }
    }

    #[test]
    fn uniform_10g_means_t_is_1_2us() {
        let t = k4();
        assert_eq!(t.bottleneck_core_bw(), Bandwidth::gbps(10));
        assert_eq!(t.bottleneck_core_bw().tx_time(1500), Dur::from_nanos(1200));
    }
}
