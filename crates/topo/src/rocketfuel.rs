//! A seeded synthetic stand-in for the RocketFuel ISP topology of §2.3:
//! 83 core routers and 131 core links.
//!
//! The measured RocketFuel maps \[29\] are not redistributable, so we
//! generate a deterministic graph with the same size and the property the
//! paper attributes its replay behaviour to: "half of the core links in
//! the Rocketfuel topology are set to have bandwidths smaller than the
//! access links". Construction: a random spanning tree (guaranteeing
//! connectivity) plus preferential-attachment extra edges up to the link
//! budget — the standard recipe for ISP-like degree skew.

use crate::{attach_edges_and_hosts, Topology};
use ups_net::{Network, TraceLevel};
use ups_sim::{Bandwidth, DetRng, Dur};

/// Parameters for the synthetic RocketFuel-like build.
#[derive(Debug, Clone)]
pub struct RocketFuelConfig {
    /// Core routers (paper: 83).
    pub routers: usize,
    /// Core links (paper: 131).
    pub links: usize,
    /// RNG seed for the graph shape.
    pub seed: u64,
    /// Bandwidth of the slow half of the core ("smaller than the access
    /// links", which are 1 Gbps).
    pub slow_core_bw: Bandwidth,
    /// Bandwidth of the fast half of the core.
    pub fast_core_bw: Bandwidth,
    /// Edge routers per core router. The paper uses the default scenario
    /// (10); the default here is 2 to keep test runs small — benches
    /// raise it.
    pub edges_per_core: usize,
}

impl Default for RocketFuelConfig {
    fn default() -> Self {
        RocketFuelConfig {
            routers: 83,
            links: 131,
            seed: 0x0C0FFEE,
            slow_core_bw: Bandwidth::mbps(500),
            fast_core_bw: Bandwidth::mbps(2500),
            edges_per_core: 2,
        }
    }
}

impl RocketFuelConfig {
    /// The paper's default scenario at full scale: 83 core routers, 131
    /// core links, and **10** edge routers (each with a host) per core —
    /// 830 hosts. This is what §2.3 actually evaluates; [`Default`]
    /// keeps `edges_per_core: 2` so unit-test builds stay small.
    ///
    /// ```
    /// use ups_topo::rocketfuel::RocketFuelConfig;
    ///
    /// let full = RocketFuelConfig::full();
    /// assert_eq!(full.edges_per_core, 10);
    /// assert_eq!(full.expected_hosts(), 830);
    /// ```
    pub fn full() -> RocketFuelConfig {
        RocketFuelConfig {
            edges_per_core: 10,
            ..Default::default()
        }
    }

    /// Hosts the build will produce: one per edge router,
    /// `routers × edges_per_core`.
    pub fn expected_hosts(&self) -> usize {
        self.routers * self.edges_per_core
    }
}

/// Build the synthetic RocketFuel-like topology.
///
/// ```
/// use ups_net::TraceLevel;
/// use ups_topo::rocketfuel::{build, RocketFuelConfig};
///
/// let topo = build(&RocketFuelConfig::default(), TraceLevel::Off);
/// assert_eq!(topo.core_links.len(), 131 * 2);
/// assert_eq!(topo.hosts.len(), 83 * 2); // Default keeps 2 edges/core
/// ```
pub fn build(cfg: &RocketFuelConfig, level: TraceLevel) -> Topology {
    assert!(cfg.links >= cfg.routers - 1, "too few links for a tree");
    let mut rng = DetRng::new(cfg.seed);
    let mut net = Network::new(level);
    let cores: Vec<_> = (0..cfg.routers)
        .map(|i| net.add_router(format!("core:r{i}")))
        .collect();

    // Random spanning tree: attach node i to a uniformly random earlier
    // node; then extra edges with degree-proportional endpoint choice.
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(cfg.links);
    let mut degree = vec![0usize; cfg.routers];
    let connect = |edges: &mut Vec<(usize, usize)>, degree: &mut Vec<usize>, a: usize, b: usize| {
        edges.push((a.min(b), a.max(b)));
        degree[a] += 1;
        degree[b] += 1;
    };
    for i in 1..cfg.routers {
        let j = rng.gen_index(i);
        connect(&mut edges, &mut degree, i, j);
    }
    // Degree-weighted endpoint sampling (preferential attachment).
    let pick_weighted = |rng: &mut DetRng, degree: &[usize]| -> usize {
        let total: usize = degree.iter().sum();
        let mut x = rng.gen_index(total.max(1));
        for (i, &d) in degree.iter().enumerate() {
            if x < d {
                return i;
            }
            x -= d;
        }
        degree.len() - 1
    };
    let mut guard = 0;
    while edges.len() < cfg.links {
        let a = pick_weighted(&mut rng, &degree);
        let b = rng.gen_index(cfg.routers);
        let e = (a.min(b), a.max(b));
        if a != b && !edges.contains(&e) {
            connect(&mut edges, &mut degree, a, b);
        }
        guard += 1;
        assert!(guard < 100_000, "edge sampling stalled");
    }

    // Half slow / half fast core links; propagation 100–1000 us.
    let mut core_links = Vec::new();
    for (k, &(a, b)) in edges.iter().enumerate() {
        let bw = if k % 2 == 0 {
            cfg.slow_core_bw
        } else {
            cfg.fast_core_bw
        };
        let prop = Dur::from_micros(100 + rng.gen_range(900));
        let (l1, l2) = net.add_duplex(cores[a], cores[b], bw, prop);
        core_links.push(l1);
        core_links.push(l2);
    }

    let (hosts, access_links, host_links) = attach_edges_and_hosts(
        &mut net,
        &cores,
        cfg.edges_per_core,
        Bandwidth::gbps(1),
        Bandwidth::gbps(10),
        Dur::from_micros(20),
        Dur::from_micros(5),
    );

    let routes = net.compute_routes();
    let topo = Topology {
        net,
        routes,
        name: format!("RocketFuel({}r/{}l)", cfg.routers, cfg.links),
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

    #[test]
    fn matches_paper_scale() {
        let t = build(&RocketFuelConfig::default(), TraceLevel::Off);
        assert_eq!(t.core_links.len(), 131 * 2);
        assert_eq!(t.hosts.len(), 83 * 2);
    }

    #[test]
    fn half_the_core_is_slower_than_access() {
        let t = build(&RocketFuelConfig::default(), TraceLevel::Off);
        let slow = t
            .core_links
            .iter()
            .filter(|&&l| t.net.links[l.0 as usize].bw < Bandwidth::gbps(1))
            .count();
        // Links are duplex pairs, alternating slow/fast: ~half slow.
        let frac = slow as f64 / t.core_links.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "slow fraction {frac}");
    }

    #[test]
    fn full_scale_matches_the_paper_scenario() {
        let cfg = RocketFuelConfig::full();
        let t = build(&cfg, TraceLevel::Off);
        assert_eq!(t.hosts.len(), 830); // 83 cores x 10 edges
        assert_eq!(t.hosts.len(), cfg.expected_hosts());
        assert_eq!(t.core_links.len(), 131 * 2);
        assert_eq!(t.access_links.len(), 830 * 2);
        assert_eq!(t.host_links.len(), 830 * 2);
    }

    #[test]
    fn tier_bandwidths_are_ordered_slow_core_below_access_below_host() {
        let t = build(&RocketFuelConfig::full(), TraceLevel::Off);
        let bw = |l: &ups_net::LinkId| t.net.links[l.0 as usize].bw;
        // The paper's property: half the core is *slower* than the
        // 1 Gbps access tier, and hosts connect at 10 Gbps above both.
        assert_eq!(
            t.core_links.iter().map(bw).min(),
            Some(Bandwidth::mbps(500))
        );
        assert!(t.access_links.iter().all(|l| bw(l) == Bandwidth::gbps(1)));
        assert!(t.host_links.iter().all(|l| bw(l) == Bandwidth::gbps(10)));
        assert!(t.core_links.iter().any(|l| bw(l) > Bandwidth::gbps(1)));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = build(&RocketFuelConfig::default(), TraceLevel::Off);
        let b = build(&RocketFuelConfig::default(), TraceLevel::Off);
        assert_eq!(a.net.links.len(), b.net.links.len());
        for (x, y) in a.net.links.iter().zip(&b.net.links) {
            assert_eq!((x.from, x.to, x.bw), (y.from, y.to, y.bw));
        }
    }

    #[test]
    fn different_seed_different_graph() {
        let a = build(&RocketFuelConfig::default(), TraceLevel::Off);
        let b = build(
            &RocketFuelConfig {
                seed: 999,
                ..Default::default()
            },
            TraceLevel::Off,
        );
        let same = a
            .net
            .links
            .iter()
            .zip(&b.net.links)
            .filter(|(x, y)| (x.from, x.to) == (y.from, y.to))
            .count();
        assert!(same < a.net.links.len(), "graphs identical across seeds");
    }
}
