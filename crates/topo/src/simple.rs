//! Small fixture topologies for tests, examples, and theory
//! counterexamples: dumbbell, line, and star.

use crate::Topology;
use ups_net::{Network, TraceLevel};
use ups_sim::{Bandwidth, Dur};

/// Dumbbell: `n` source hosts and `n` sink hosts joined by one
/// bottleneck link between two routers.
///
/// ```text
/// s0 ─┐                     ┌─ d0
/// s1 ─┼─ rL ══bottleneck══ rR ┼─ d1
/// s2 ─┘                     └─ d2
/// ```
pub fn dumbbell(
    n: usize,
    access_bw: Bandwidth,
    bottleneck_bw: Bandwidth,
    prop: Dur,
    level: TraceLevel,
) -> Topology {
    let mut net = Network::new(level);
    let rl = net.add_router("rL");
    let rr = net.add_router("rR");
    let (c1, c2) = net.add_duplex(rl, rr, bottleneck_bw, prop);

    let mut hosts = Vec::new();
    let mut host_links = Vec::new();
    for i in 0..n {
        let s = net.add_host(format!("src{i}"));
        let (l1, l2) = net.add_duplex(s, rl, access_bw, prop);
        host_links.extend([l1, l2]);
        hosts.push(s);
    }
    for i in 0..n {
        let d = net.add_host(format!("dst{i}"));
        let (l1, l2) = net.add_duplex(d, rr, access_bw, prop);
        host_links.extend([l1, l2]);
        hosts.push(d);
    }
    let routes = net.compute_routes();
    let topo = Topology {
        net,
        routes,
        name: format!("Dumbbell(n={n})"),
        hosts,
        core_links: vec![c1, c2],
        access_links: Vec::new(),
        host_links,
    };
    topo.validate();
    topo
}

/// Line of `routers` routers with one host at each end.
pub fn line(routers: usize, bw: Bandwidth, prop: Dur, level: TraceLevel) -> Topology {
    assert!(routers >= 1);
    let mut net = Network::new(level);
    let h0 = net.add_host("h0");
    let rs: Vec<_> = (0..routers)
        .map(|i| net.add_router(format!("r{i}")))
        .collect();
    let h1 = net.add_host("h1");

    let mut host_links = Vec::new();
    let mut core_links = Vec::new();
    let (l1, l2) = net.add_duplex(h0, rs[0], bw, prop);
    host_links.extend([l1, l2]);
    for w in rs.windows(2) {
        let (l1, l2) = net.add_duplex(w[0], w[1], bw, prop);
        core_links.extend([l1, l2]);
    }
    let (l1, l2) = net.add_duplex(*rs.last().unwrap(), h1, bw, prop);
    host_links.extend([l1, l2]);

    let routes = net.compute_routes();
    let topo = Topology {
        net,
        routes,
        name: format!("Line(r={routers})"),
        hosts: vec![h0, h1],
        core_links: if core_links.is_empty() {
            // Single-router line: classify the host links as core so the
            // bottleneck query still works.
            host_links.clone()
        } else {
            core_links
        },
        access_links: Vec::new(),
        host_links,
    };
    topo
}

/// Star: `n` leaf hosts around one router; every pair communicates
/// through the hub (single congestion point per packet).
pub fn star(n: usize, bw: Bandwidth, prop: Dur, level: TraceLevel) -> Topology {
    let mut net = Network::new(level);
    let hub = net.add_router("hub");
    let mut hosts = Vec::new();
    let mut host_links = Vec::new();
    for i in 0..n {
        let h = net.add_host(format!("leaf{i}"));
        let (l1, l2) = net.add_duplex(h, hub, bw, prop);
        host_links.extend([l1, l2]);
        hosts.push(h);
    }
    let routes = net.compute_routes();
    Topology {
        net,
        routes,
        name: format!("Star(n={n})"),
        hosts,
        core_links: host_links.clone(),
        access_links: Vec::new(),
        host_links: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::FlowId;

    #[test]
    fn dumbbell_paths_cross_bottleneck() {
        let t = dumbbell(
            3,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Off,
        );
        assert_eq!(t.hosts.len(), 6);
        let p = t.routes.resolve_path(t.hosts[0], t.hosts[3], FlowId(0));
        assert_eq!(p.hops(), 3);
        assert_eq!(p.bw.iter().min(), Some(&Bandwidth::gbps(1)));
    }

    #[test]
    fn line_has_expected_length() {
        let t = line(4, Bandwidth::gbps(1), Dur::ZERO, TraceLevel::Off);
        let p = t.routes.resolve_path(t.hosts[0], t.hosts[1], FlowId(0));
        assert_eq!(p.hops(), 5);
    }

    #[test]
    fn star_pairs_are_two_hops() {
        let t = star(5, Bandwidth::gbps(1), Dur::ZERO, TraceLevel::Off);
        for &b in &t.hosts[1..] {
            let p = t.routes.resolve_path(t.hosts[0], b, FlowId(0));
            assert_eq!(p.hops(), 2);
        }
    }
}
