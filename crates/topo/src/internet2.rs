//! The simplified Internet-2 topology of §2.3.
//!
//! "We use a simplified Internet-2 topology, identical to the one used in
//! \[21\] (consisting of 10 routers and 16 links in the core). We connect
//! each core router to 10 edge routers using 1 Gbps links and each edge
//! router is attached to an end host via a 10 Gbps link."
//!
//! The RC3 paper's exact adjacency isn't published machine-readably, so
//! we encode a continental 10-node / 16-edge graph over the historical
//! Internet2/Abilene city set with roughly geographic propagation delays.
//! What matters for the replay results is the *tiering*: which of the
//! host / access / core bandwidths is the bottleneck, which the three
//! named variants control:
//!
//! | Variant | edge→core | host→edge | paper label |
//! |---|---|---|---|
//! | [`I2Variant::Default1g10g`] | 1 Gbps | 10 Gbps | I2:1Gbps-10Gbps |
//! | [`I2Variant::Access1g1g`] | 1 Gbps | 1 Gbps | I2:1Gbps-1Gbps |
//! | [`I2Variant::Access10g10g`] | 10 Gbps | 10 Gbps | I2:10Gbps-10Gbps |
//!
//! Core links are 1 Gbps in every variant (T = 12 µs for 1500 B), which
//! reproduces the property the paper leans on: in the 10G-10G variant
//! "both the access and edge links have a higher bandwidth than most core
//! links".

use crate::{attach_edges_and_hosts, Topology};
use ups_net::{Network, TraceLevel};
use ups_sim::{Bandwidth, Dur};

/// The ten core cities.
const CITIES: [&str; 10] = [
    "SEAT", "SUNN", "LOSA", "DENV", "KANS", "HOUS", "CHIC", "ATLA", "WASH", "NEWY",
];

/// The sixteen core edges as (city index, city index, propagation delay in
/// microseconds — roughly geographic at ~5 µs/km, scaled down 10× to keep
/// simulated horizons short, as the paper itself does for fairness runs).
const CORE_EDGES: [(usize, usize, u64); 16] = [
    (0, 1, 570), // SEAT-SUNN
    (0, 3, 530), // SEAT-DENV
    (0, 6, 920), // SEAT-CHIC
    (1, 2, 250), // SUNN-LOSA
    (1, 3, 500), // SUNN-DENV
    (2, 5, 690), // LOSA-HOUS
    (3, 4, 300), // DENV-KANS
    (3, 6, 480), // DENV-CHIC
    (4, 5, 370), // KANS-HOUS
    (4, 6, 220), // KANS-CHIC
    (5, 7, 350), // HOUS-ATLA
    (6, 7, 330), // CHIC-ATLA
    (6, 9, 360), // CHIC-NEWY
    (7, 8, 290), // ATLA-WASH
    (8, 9, 110), // WASH-NEWY
    (2, 7, 980), // LOSA-ATLA (southern long-haul)
];

/// Bandwidth variants from Table 1 row 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum I2Variant {
    /// The default scenario: 1 Gbps edge→core, 10 Gbps host→edge
    /// ("higher than usual access bandwidths ... to increase the stress
    /// on the schedulers in the routers").
    Default1g10g,
    /// 1 Gbps everywhere below the core: hosts are paced by their NIC.
    Access1g1g,
    /// 10 Gbps access and edge: core links become the only bottleneck.
    Access10g10g,
}

impl I2Variant {
    /// (edge→core, host→edge) bandwidths.
    pub fn tier_bw(self) -> (Bandwidth, Bandwidth) {
        match self {
            I2Variant::Default1g10g => (Bandwidth::gbps(1), Bandwidth::gbps(10)),
            I2Variant::Access1g1g => (Bandwidth::gbps(1), Bandwidth::gbps(1)),
            I2Variant::Access10g10g => (Bandwidth::gbps(10), Bandwidth::gbps(10)),
        }
    }

    /// The paper's label for this variant.
    pub fn label(self) -> &'static str {
        match self {
            I2Variant::Default1g10g => "I2:1Gbps-10Gbps",
            I2Variant::Access1g1g => "I2:1Gbps-1Gbps",
            I2Variant::Access10g10g => "I2:10Gbps-10Gbps",
        }
    }
}

/// Full parameter set for an Internet-2 build.
#[derive(Debug, Clone)]
pub struct I2Config {
    /// Bandwidth variant.
    pub variant: I2Variant,
    /// Core link bandwidth (default 1 Gbps).
    pub core_bw: Bandwidth,
    /// Edge routers (and thus hosts) per core router (paper: 10).
    pub edges_per_core: usize,
    /// Propagation delay of access links.
    pub edge_prop: Dur,
    /// Propagation delay of host NIC links.
    pub host_prop: Dur,
    /// Scale factor applied to the geographic core delays (1 = table
    /// values; the fairness experiment shrinks these further).
    pub core_prop_scale_percent: u64,
}

impl Default for I2Config {
    fn default() -> Self {
        I2Config {
            variant: I2Variant::Default1g10g,
            core_bw: Bandwidth::gbps(1),
            edges_per_core: 10,
            edge_prop: Dur::from_micros(20),
            host_prop: Dur::from_micros(5),
            core_prop_scale_percent: 100,
        }
    }
}

/// Build the Internet-2 topology.
pub fn build(cfg: &I2Config, level: TraceLevel) -> Topology {
    let mut net = Network::new(level);
    let cores: Vec<_> = CITIES
        .iter()
        .map(|c| net.add_router(format!("core:{c}")))
        .collect();

    let mut core_links = Vec::new();
    for &(a, b, prop_us) in &CORE_EDGES {
        let prop = Dur::from_micros(prop_us * cfg.core_prop_scale_percent / 100);
        let (l1, l2) = net.add_duplex(cores[a], cores[b], cfg.core_bw, prop);
        core_links.push(l1);
        core_links.push(l2);
    }

    let (edge_core_bw, host_edge_bw) = cfg.variant.tier_bw();
    let (hosts, access_links, host_links) = attach_edges_and_hosts(
        &mut net,
        &cores,
        cfg.edges_per_core,
        edge_core_bw,
        host_edge_bw,
        cfg.edge_prop,
        cfg.host_prop,
    );

    let routes = net.compute_routes();
    let topo = Topology {
        net,
        routes,
        name: cfg.variant.label().to_string(),
        hosts,
        core_links,
        access_links,
        host_links,
    };
    topo.validate();
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::FlowId;

    fn small(variant: I2Variant) -> Topology {
        build(
            &I2Config {
                variant,
                edges_per_core: 2,
                ..Default::default()
            },
            TraceLevel::Delivery,
        )
    }

    #[test]
    fn counts_match_paper() {
        let t = small(I2Variant::Default1g10g);
        // 10 core routers and 16 duplex core links (32 unidirectional).
        assert_eq!(t.core_links.len(), 32);
        assert_eq!(t.hosts.len(), 20); // 2 per core here
                                       // Full build: 10 hosts per core.
        let full = build(&I2Config::default(), TraceLevel::Off);
        assert_eq!(full.hosts.len(), 100);
    }

    #[test]
    fn hop_counts_in_paper_range() {
        // "The number of hops per packet is in the range of 4 to 7,
        // excluding the end hosts" — with the host NIC links included our
        // path lengths are paper_hops + 1, so expect 4..=8 links and
        // at least 2 router-hops beyond the two stub chains.
        let t = small(I2Variant::Default1g10g);
        let mut lens = Vec::new();
        for &a in &t.hosts {
            for &b in &t.hosts {
                if a != b {
                    lens.push(t.routes.resolve_path(a, b, FlowId(1)).hops());
                }
            }
        }
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(min >= 4, "min hops {min}");
        assert!(max <= 9, "max hops {max}");
    }

    #[test]
    fn variants_set_tier_bandwidths() {
        let t = small(I2Variant::Access10g10g);
        for &l in &t.access_links {
            assert_eq!(t.net.links[l.0 as usize].bw, Bandwidth::gbps(10));
        }
        let t = small(I2Variant::Access1g1g);
        for &l in &t.host_links {
            assert_eq!(t.net.links[l.0 as usize].bw, Bandwidth::gbps(1));
        }
    }

    #[test]
    fn bottleneck_is_core_1gbps() {
        let t = small(I2Variant::Default1g10g);
        let bw = |l: &ups_net::LinkId| t.net.links[l.0 as usize].bw;
        let core_bw = t.core_links.iter().map(bw).min().expect("core links");
        assert_eq!(core_bw, Bandwidth::gbps(1));
        // T = 12us for 1500B at 1Gbps — the paper's threshold.
        assert_eq!(core_bw.tx_time(1500), Dur::from_micros(12));
    }
}
