//! Build a custom network from scratch — a two-pod leaf–spine — wire
//! LSTF everywhere, and measure per-link utilization and queueing. This
//! is the "bring your own topology" path a downstream user would take.
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```

use ups::flowgen::{poisson_workload, PoissonConfig};
use ups::net::{Network, TraceLevel};
use ups::sched::lstf;
use ups::sim::{Bandwidth, Dur};
use ups::topo::Topology;
use ups::transport::{inject_udp_flows, HeaderStamper};

/// Two spines, four leaves, four hosts per leaf, 10 Gbps fabric with a
/// 40 Gbps spine tier.
fn leaf_spine() -> Topology {
    let mut net = Network::new(TraceLevel::Hops);
    let spines: Vec<_> = (0..2)
        .map(|i| net.add_router(format!("spine{i}")))
        .collect();
    let leaves: Vec<_> = (0..4).map(|i| net.add_router(format!("leaf{i}"))).collect();

    let mut core_links = Vec::new();
    for &s in &spines {
        for &l in &leaves {
            let (a, b) = net.add_duplex(l, s, Bandwidth::gbps(40), Dur::from_nanos(400));
            core_links.extend([a, b]);
        }
    }
    let mut hosts = Vec::new();
    let mut host_links = Vec::new();
    for (li, &l) in leaves.iter().enumerate() {
        for h in 0..4 {
            let host = net.add_host(format!("h{li}.{h}"));
            let (a, b) = net.add_duplex(host, l, Bandwidth::gbps(10), Dur::from_nanos(200));
            host_links.extend([a, b]);
            hosts.push(host);
        }
    }
    let routes = net.compute_routes();
    let topo = Topology {
        net,
        routes,
        name: "LeafSpine(2x4)".into(),
        hosts,
        core_links,
        access_links: Vec::new(),
        host_links,
    };
    topo.validate();
    topo
}

fn main() {
    let mut topo = leaf_spine();
    println!(
        "{}: {} nodes, {} links, {} hosts",
        topo.name,
        topo.net.nodes.len(),
        topo.net.links.len(),
        topo.hosts.len()
    );

    // LSTF on every port; a 60%-utilization Poisson workload.
    topo.net
        .configure_links(|_| ups_net::LinkPolicy::keep().scheduler(Box::new(lstf())));
    let flows = poisson_workload(
        &topo,
        &PoissonConfig {
            utilization: 0.6,
            horizon: Dur::from_millis(5),
            seed: 7,
            ..Default::default()
        },
    );
    let mut stamper = HeaderStamper::zero();
    inject_udp_flows(
        &mut topo.net,
        &std::sync::Arc::clone(&topo.routes),
        &flows,
        1500,
        &mut stamper,
    );
    let end = topo.net.run_to_completion();

    println!(
        "{} flows / {} packets delivered by {}",
        flows.len(),
        topo.net.telemetry.counters.delivered,
        end
    );

    // Per-tier utilization summary.
    let elapsed = end - ups::sim::Time::ZERO;
    let mut spine_util: Vec<f64> = Vec::new();
    for &l in &topo.core_links {
        spine_util.push(topo.net.links[l.0 as usize].utilization(elapsed));
    }
    spine_util.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "fabric link utilization: min {:.1}% median {:.1}% max {:.1}%",
        spine_util[0] * 100.0,
        spine_util[spine_util.len() / 2] * 100.0,
        spine_util[spine_util.len() - 1] * 100.0
    );

    // ECMP check: flows between the same leaf pair spread over spines.
    let deepest = topo
        .net
        .links
        .iter()
        .max_by_key(|l| l.stats.max_queue_pkts)
        .expect("links");
    println!(
        "deepest queue: {} -> {} ({} packets)",
        topo.net.nodes[deepest.from.0 as usize].name,
        topo.net.nodes[deepest.to.0 as usize].name,
        deepest.stats.max_queue_pkts
    );
}
