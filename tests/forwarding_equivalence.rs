//! Equivalence and ordering guarantees of the forwarding hot path.
//!
//! Three contracts from the hot-path redesign, checked end-to-end:
//!
//! * the [`RoutingTable`] holds, for every `(node, destination)` of a
//!   random topology (with random edge-router → host chains hung off it,
//!   which is where the table copies gateway rows instead of running
//!   Dijkstra), exactly the out-links that Bellman–Ford distances
//!   computed here put on a shortest path, in creation order, and a
//!   flow takes member `hash % width` at every hop;
//! * batched same-instant drain produces bit-identical telemetry to the
//!   single-event reference mode (`set_batched_drain(false)`);
//! * a deadline-tagged flow ([`FlowDesc::deadline`]) is served ahead of
//!   best-effort traffic under LSTF, because open-loop injection
//!   initializes its header slack from the real remaining time budget.

use proptest::prelude::*;
use std::sync::Arc;
use ups::net::{FlowId, LinkPolicy, Network, NodeId, RoutingTable, TraceLevel};
use ups::sched::{lstf, SchedKind};
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::simple::dumbbell;
use ups::transport::flow::FlowDesc;
use ups::transport::header::{HeaderStamper, PrioPolicy, SlackPolicy};
use ups::transport::udp::inject_udp_flows;

/// SplitMix64 step — a tiny deterministic generator so one `u64` seed
/// expands into a whole random topology.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a random connected topology: a random spanning tree over `n`
/// routers plus `extra` random duplex links (parallel links allowed —
/// they form equal-cost sets).
fn random_connected(n: u32, extra: u32, seed: u64) -> Network {
    let mut s = seed;
    let mut net = Network::new(TraceLevel::Off);
    let bws = [Bandwidth::gbps(1), Bandwidth::gbps(10), Bandwidth::gbps(40)];
    let props = [
        Dur::from_micros(1),
        Dur::from_micros(5),
        Dur::from_micros(10),
    ];
    for i in 0..n {
        net.add_router(format!("r{i}"));
    }
    for i in 1..n {
        let parent = NodeId((mix(&mut s) % i as u64) as u32);
        let bw = bws[(mix(&mut s) % 3) as usize];
        let prop = props[(mix(&mut s) % 3) as usize];
        net.add_duplex(NodeId(i), parent, bw, prop);
    }
    for _ in 0..extra {
        let a = NodeId((mix(&mut s) % n as u64) as u32);
        let b = NodeId((mix(&mut s) % n as u64) as u32);
        if a == b {
            continue;
        }
        let bw = bws[(mix(&mut s) % 3) as usize];
        let prop = props[(mix(&mut s) % 3) as usize];
        net.add_duplex(a, b, bw, prop);
    }
    net
}

/// Hang `chains` access chains off random routers among the first `n`
/// nodes: an edge router duplexed to the router and a host duplexed to
/// the edge router, the shape `attach_edges_and_hosts` builds. Each chain
/// takes one of three shapes, which the routing table must answer alike:
/// the builder's wiring order (both rows copy their gateway's row), the
/// host added before its edge router (the host's would-be gateway has
/// the higher index, so it runs Dijkstra), or a second edge → host link
/// (parallel links into a would-be stub: both run Dijkstra).
fn hang_access_chains(net: &mut Network, n: u32, chains: u32, seed: u64) {
    let mut s = !seed;
    for _ in 0..chains {
        let core = NodeId((mix(&mut s) % n as u64) as u32);
        let shape = mix(&mut s) % 3;
        let (edge, host) = if shape == 1 {
            let host = net.add_host("host");
            (net.add_router("edge"), host)
        } else {
            (net.add_router("edge"), net.add_host("host"))
        };
        net.add_duplex(edge, core, Bandwidth::gbps(1), Dur::from_micros(20));
        net.add_duplex(host, edge, Bandwidth::gbps(10), Dur::from_micros(5));
        if shape == 2 {
            net.add_link(edge, host, Bandwidth::gbps(10), Dur::from_micros(5));
        }
    }
}

/// Routing cost of a link, from first principles: propagation delay
/// plus 1500 bytes at the link rate, in picoseconds (exact for the
/// rates [`random_connected`] draws).
fn link_cost_ps(net: &Network, link: u32) -> u64 {
    let l = &net.links[link as usize];
    l.prop.as_ps() + 1500 * 8 * 1_000_000_000_000 / l.bw.as_bps()
}

/// Bellman–Ford distances to `dest` over the network's links
/// (`u64::MAX` = cannot reach it).
fn distances_to(net: &Network, dest: NodeId) -> Vec<u64> {
    let mut dist = vec![u64::MAX; net.nodes.len()];
    dist[dest.0 as usize] = 0;
    for _ in 0..net.nodes.len() {
        for l in &net.links {
            let (u, v) = (l.from.0 as usize, l.to.0 as usize);
            if dist[v] != u64::MAX {
                dist[u] = dist[u].min(dist[v] + link_cost_ps(net, l.id.0));
            }
        }
    }
    dist
}

/// What the table must hold for `(node, dest)`: the node's out-links
/// that continue a shortest path, in creation order.
fn shortest_out_links(net: &Network, dist: &[u64], node: NodeId, dest: NodeId) -> Vec<u32> {
    let here = dist[node.0 as usize];
    if node == dest || here == u64::MAX {
        return Vec::new();
    }
    net.nodes[node.0 as usize]
        .out_links
        .iter()
        .map(|l| l.0)
        .filter(|&l| {
            let next = dist[net.links[l as usize].to.0 as usize];
            next != u64::MAX && link_cost_ps(net, l) + next == here
        })
        .collect()
}

/// Run the dumbbell contention workload and return its telemetry as
/// comparable records: per-packet identity, timing, and fate.
type PacketOutcome = (u64, u64, u64, Option<u64>, bool);

fn run_dumbbell(
    flows: &[FlowDesc],
    batched: bool,
    buffer: Option<u64>,
) -> (Vec<PacketOutcome>, u64, u64) {
    let mut topo = dumbbell(
        2,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(5),
        TraceLevel::Hops,
    );
    // LSTF everywhere with a finite shared buffer, so the batch path
    // exercises ordered insertion, drop-worst eviction, and preemption
    // urgency — not just FIFO admission.
    topo.net.configure_links(|_| {
        LinkPolicy::keep()
            .scheduler(Box::new(lstf()))
            .buffer(buffer)
    });
    topo.net.set_batched_drain(batched);
    let mut st = HeaderStamper::new(
        SlackPolicy::Constant {
            slack: Dur::from_millis(1),
        },
        PrioPolicy::None,
    );
    let routes = topo.routes.clone();
    inject_udp_flows(&mut topo.net, &routes, flows, 1500, &mut st);
    topo.net.run_to_completion();
    let recs = topo
        .net
        .telemetry
        .packets
        .iter()
        .map(|r| {
            (
                r.flow.0,
                r.seq,
                r.created.as_ps(),
                r.delivered.map(|t| t.as_ps()),
                r.dropped,
            )
        })
        .collect();
    let c = &topo.net.telemetry.counters;
    (recs, c.delivered, c.dropped)
}

/// Dumbbell flows: hosts[0], hosts[1] send to hosts[2], hosts[3]; the
/// generated `(pkts, start_us, deadline_us)` triples shape contention.
fn dumbbell_flows(specs: &[(u64, u64, u64)]) -> Vec<FlowDesc> {
    let hosts = [NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
    specs
        .iter()
        .enumerate()
        .map(|(i, &(pkts, start_us, deadline_us))| FlowDesc {
            id: FlowId(i as u64),
            src: hosts[i % 2],
            dst: hosts[2 + (i % 2)],
            pkts: pkts.max(1),
            start: Time::from_micros(start_us),
            deadline: (deadline_us > 0).then(|| Dur::from_micros(deadline_us)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The table agrees with Bellman–Ford on every `(node, dest)` pair:
    /// same equal-cost set, same member per hash; and `resolve_path`
    /// and `for_each_hop` walk those picks from source to destination.
    #[test]
    fn routing_table_matches_bellman_ford_oracle(
        n in 3u32..12,
        extra in 0u32..12,
        chains in 0u32..6,
        seed in 0u64..u64::MAX,
        flows in prop::collection::vec(0u64..u64::MAX, 1..16),
    ) {
        let mut net = random_connected(n, extra, seed);
        if seed % 2 == 1 {
            net.add_router("island"); // unreachable both ways
        }
        hang_access_chains(&mut net, n, chains, seed);
        let table: Arc<RoutingTable> = net.compute_routes();
        // The flow hash is the SplitMix64 step of the flow id.
        let hashes: Vec<u64> = flows
            .iter()
            .map(|&f| {
                let mut state = f;
                mix(&mut state)
            })
            .collect();
        for (&f, &h) in flows.iter().zip(&hashes) {
            prop_assert_eq!(RoutingTable::flow_hash(FlowId(f)), h);
        }
        let nodes = net.nodes.len() as u32;
        for dest in (0..nodes).map(NodeId) {
            let dist = distances_to(&net, dest);
            for node in (0..nodes).map(NodeId) {
                let want = shortest_out_links(&net, &dist, node, dest);
                prop_assert_eq!(table.ecmp_width(node, dest), want.len());
                for &h in hashes.iter().chain(&[0, 1, 2, 3, u64::MAX]) {
                    let pick = want.get((h % want.len().max(1) as u64) as usize);
                    prop_assert_eq!(
                        table.next_hop(node, dest, h).map(|l| l.0),
                        pick.copied(),
                        "{:?} -> {:?} hash {}", node, dest, h
                    );
                }
            }
            for (&f, &h) in flows.iter().zip(&hashes) {
                let src = NodeId((f % nodes as u64) as u32);
                if src == dest || dist[src.0 as usize] == u64::MAX {
                    continue;
                }
                // The oracle's own walk of the picks.
                let (mut at, mut want, mut cost) = (src, Vec::new(), 0);
                while at != dest {
                    let set = shortest_out_links(&net, &dist, at, dest);
                    let l = set[(h % set.len() as u64) as usize];
                    want.push(l);
                    cost += link_cost_ps(&net, l);
                    at = net.links[l as usize].to;
                }
                prop_assert_eq!(cost, dist[src.0 as usize], "not a shortest path");
                let path = table.resolve_path(src, dest, FlowId(f));
                let got: Vec<u32> = path.links.iter().map(|l| l.0).collect();
                prop_assert_eq!(&got, &want, "paths diverge for flow {}", f);
                let mut visited = Vec::new();
                table.for_each_hop(src, dest, FlowId(f), |l| visited.push(l.0));
                prop_assert_eq!(&visited, &want, "visitor diverges for flow {}", f);
                for (k, &lid) in path.links.iter().enumerate() {
                    let l = &net.links[lid.0 as usize];
                    prop_assert_eq!(path.bw[k], l.bw);
                    prop_assert_eq!(path.prop[k], l.prop);
                }
            }
        }
    }

    /// Batched same-instant drain is bit-identical to the single-event
    /// reference loop: same deliveries, same drops, same timestamps.
    #[test]
    fn batched_drain_matches_single_stepping(
        specs in prop::collection::vec((1u64..25, 0u64..30, 0u64..600), 1..6),
    ) {
        let flows = dumbbell_flows(&specs);
        // A finite shared buffer makes the workload exercise drop-worst
        // eviction, not just admission.
        let (batched, bd, bx) = run_dumbbell(&flows, true, Some(30_000));
        let (single, sd, sx) = run_dumbbell(&flows, false, Some(30_000));
        prop_assert_eq!((bd, bx), (sd, sx), "counters diverge");
        prop_assert_eq!(batched, single, "per-packet telemetry diverges");
    }
}

/// Per-link counter snapshot: `(enqueued, dropped, tx_done, bytes_tx,
/// busy_ps, max_queue_pkts)`.
type LinkStatsRow = (u64, u64, u64, u64, u64, usize);

/// Run the contended dumbbell under `kind` on every link with a finite
/// shared buffer (so admission, eviction, and the high-water mark all
/// move) and snapshot every link's [`ups::net::LinkStats`].
fn run_dumbbell_link_stats(kind: SchedKind, batched: bool) -> Vec<LinkStatsRow> {
    let mut topo = dumbbell(
        2,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(5),
        TraceLevel::Off,
    );
    topo.net.configure_links(|l| {
        LinkPolicy::keep()
            .scheduler(kind.build(l.id, 7))
            .buffer(Some(30_000))
    });
    topo.net.set_batched_drain(batched);
    let prio = if kind.needs_priority_stamp() {
        PrioPolicy::FlowSize
    } else {
        PrioPolicy::None
    };
    let mut st = HeaderStamper::new(
        SlackPolicy::Constant {
            slack: Dur::from_millis(1),
        },
        prio,
    );
    // Overlapping bursts: 130 packets of demand against a ~20-packet
    // shared buffer on the 1 Gbps bottleneck forces drops under every
    // scheduler.
    let flows = dumbbell_flows(&[(40, 0, 0), (40, 2, 500), (25, 5, 0), (25, 7, 300)]);
    let routes = topo.routes.clone();
    inject_udp_flows(&mut topo.net, &routes, &flows, 1500, &mut st);
    topo.net.run_to_completion();
    topo.net
        .links
        .iter()
        .map(|l| {
            let s = &l.stats;
            (
                s.enqueued,
                s.dropped,
                s.tx_done,
                s.bytes_tx,
                s.busy.as_ps(),
                s.max_queue_pkts,
            )
        })
        .collect()
}

/// Batched same-instant drain leaves every per-link counter — admitted,
/// dropped, completed, bytes, busy time, queue high-water mark —
/// bit-identical to the single-event reference loop, under all twelve
/// constructible scheduling disciplines.
#[test]
fn link_stats_parity_batched_vs_single_across_schedulers() {
    for kind in SchedKind::ALL {
        let batched = run_dumbbell_link_stats(kind, true);
        let single = run_dumbbell_link_stats(kind, false);
        assert_eq!(
            batched,
            single,
            "per-link stats diverge under {}",
            kind.label()
        );
        assert!(
            batched.iter().any(|r| r.0 > 0),
            "{}: nothing was enqueued — vacuous comparison",
            kind.label()
        );
        assert!(
            batched.iter().any(|r| r.1 > 0),
            "{}: no drops — the workload no longer stresses the buffer",
            kind.label()
        );
    }
}

/// A deadline-tagged flow is served ahead of best-effort traffic under
/// LSTF: injection stamps its slack with the remaining time budget
/// (deadline − pacing offset − tmin), which is far tighter than the
/// best-effort constant, so every contended pop favors the deadline
/// packets and the flow meets a deadline the best-effort flow misses.
#[test]
fn deadline_flow_preempts_best_effort_under_lstf() {
    // Both flows offer 20 packets at t=0 into the shared 1 Gbps
    // bottleneck (12 us per packet): 480 us of demand. The deadline
    // flow's 300 us budget is feasible only if it wins every contended
    // service decision.
    let deadline = Dur::from_micros(300);
    let flows = [
        FlowDesc {
            id: FlowId(0),
            src: NodeId(2),
            dst: NodeId(4),
            pkts: 20,
            start: Time::ZERO,
            deadline: None,
        },
        FlowDesc {
            id: FlowId(1),
            src: NodeId(3),
            dst: NodeId(5),
            pkts: 20,
            start: Time::ZERO,
            deadline: Some(deadline),
        },
    ];
    let (recs, delivered, dropped) = run_dumbbell(&flows, true, None);
    assert_eq!((delivered, dropped), (40, 0));
    let last = |flow: u64| {
        recs.iter()
            .filter(|r| r.0 == flow)
            .map(|r| r.3.expect("delivered"))
            .max()
            .unwrap()
    };
    let deadline_done = last(1);
    let best_effort_done = last(0);
    assert!(
        deadline_done <= deadline.as_ps(),
        "deadline flow finished at {deadline_done} ps, budget {} ps",
        deadline.as_ps()
    );
    assert!(
        deadline_done < best_effort_done,
        "deadline flow ({deadline_done} ps) did not beat best-effort ({best_effort_done} ps)"
    );
}
