//! Equivalence and ordering guarantees of the forwarding hot path.
//!
//! Three contracts from the hot-path redesign, checked end-to-end:
//!
//! * the [`RoutingTable`] holds, for every `(node, destination)` of a
//!   random topology (with random edge-router → host chains hung off it,
//!   which is where the table resolves through gateway links instead of
//!   storing a Dijkstra row), exactly the out-links that Bellman–Ford
//!   distances computed here put on a shortest path, in creation order,
//!   and a flow takes member `hash % width` at every hop; and its
//!   pair-path counts are exactly what walking every host pair adds up;
//! * the product's event loop (one arrival path, one start rule) makes
//!   the run that a naive loop written here makes — one `BinaryHeap`
//!   event per pop, boxed packets carried in the events, every start
//!   its own deduplicated `StartTx` event, over the same
//!   `ups::net::Link` port state machines driven through `admit`,
//!   `try_start` and `tx_done`: every packet's `HopTimes`, delivery and
//!   drop and every link's `LinkStats` agree on random connected
//!   topologies, the dumbbell, the k=4 fat-tree and random theory
//!   networks (unit congestion points joined by infinite-bandwidth
//!   wires) under all eleven `SchedKind`s;
//! * a deadline-tagged flow ([`FlowDesc::deadline`]) is served ahead of
//!   best-effort traffic under LSTF, because open-loop injection
//!   initializes its header slack from the real remaining time budget.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use ups::core::theory::{Cp, FlowPath, UnitNet};
use ups::net::{
    ChaosPolicy, FlowId, HopTimes, Link, LinkPolicy, Network, NodeId, Packet, PacketId, PacketKind,
    Path, PortActions, RoutingTable, SchedHeader, Telemetry, TraceLevel,
};
use ups::sched::{lstf, SchedKind};
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::fattree;
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
/// the builder's wiring order (edge router and host resolve through
/// their gateway and read their transit ancestor's entry), the host
/// added before its edge router (the host's would-be gateway has the
/// higher index, so it runs Dijkstra, and its edge router stays
/// transit), or a second edge → host link (parallel links into a
/// would-be stub: both run Dijkstra).
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

fn run_dumbbell(flows: &[FlowDesc], buffer: Option<u64>) -> (Vec<PacketOutcome>, u64, u64) {
    let mut topo = dumbbell(
        2,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(5),
        TraceLevel::Hops,
    );
    topo.net.configure_links(|_| {
        LinkPolicy::keep()
            .scheduler(Box::new(lstf()))
            .buffer(buffer)
    });
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
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `count_pair_paths` adds up exactly what walking every ordered
    /// host pair `i != j` with flow `i·H + j` adds up, on host lists
    /// drawn (with repeats) from every reachable node: core routers,
    /// folded leaf routers, edge routers and hosts, stubs among them.
    #[test]
    fn pair_path_counts_equal_the_per_pair_walks(
        n in 3u32..12,
        extra in 0u32..12,
        chains in 0u32..6,
        seed in 0u64..u64::MAX,
        picks in prop::collection::vec(0u32..u32::MAX, 2..24),
    ) {
        let mut net = random_connected(n, extra, seed);
        let island = (seed % 2 == 1).then(|| net.add_router("island"));
        hang_access_chains(&mut net, n, chains, seed);
        let table = net.compute_routes();
        let reachable: Vec<NodeId> = (0..net.nodes.len() as u32)
            .map(NodeId)
            .filter(|&v| Some(v) != island)
            .collect();
        let hosts: Vec<NodeId> = picks
            .iter()
            .map(|&p| reachable[p as usize % reachable.len()])
            .collect();
        let h = hosts.len();
        let flow_of = |i: usize, j: usize| FlowId((i * h + j) as u64);
        let mut want = vec![0u64; net.links.len()];
        for (i, &s) in hosts.iter().enumerate() {
            for (j, &d) in hosts.iter().enumerate() {
                if i != j {
                    table.for_each_hop(s, d, flow_of(i, j), |l| want[l.0 as usize] += 1);
                }
            }
        }
        prop_assert_eq!(table.count_pair_paths(&hosts, flow_of), want);
    }
}

// ----------------------------------------------------------------------
// The naive reference loop
// ----------------------------------------------------------------------

/// Same-instant event classes of the naive loop, in the product's order
/// (it has no chaos, feeder, timer or sampling events). An
/// infinite-bandwidth "wire" port starts in a class ahead of every
/// other start, as the product starts wires first.
const ARRIVE: u8 = 0;
const TX_DONE: u8 = 1;
const START_WIRE: u8 = 2;
const START_TX: u8 = 3;

/// A naive event: the packet itself rides in its `Arrive`.
#[derive(Debug)]
enum NaiveEv {
    Arrive { node: NodeId, pkt: Box<Packet> },
    TxDone { link: usize, gen: u64 },
    StartTx { link: usize },
}

/// What a run says about one packet.
#[derive(Debug, Default, PartialEq)]
struct Fate {
    hops: Vec<HopTimes>,
    delivered: Option<Time>,
    dropped: bool,
}

/// The simplest loop that can run the product's ports: pop one event
/// from a `BinaryHeap` keyed `(time, class, push order)`, hand it to its
/// [`Link`], push what follows. No arrival drain, no start list — a
/// port that wants a start gets a deduplicated `StartTx`.
struct Naive {
    links: Vec<Link>,
    start_pending: Vec<bool>,
    heap: BinaryHeap<Reverse<(Time, u8, usize)>>,
    events: Vec<Option<NaiveEv>>,
    fates: Vec<Fate>,
    /// Each packet's arrival at the port of its current hop.
    arrived: Vec<Time>,
}

impl Naive {
    fn push(&mut self, at: Time, class: u8, ev: NaiveEv) {
        self.heap.push(Reverse((at, class, self.events.len())));
        self.events.push(Some(ev));
    }

    fn port_actions(&mut self, link: usize, act: PortActions, now: Time) {
        for pkt in act.dropped {
            self.fates[pkt.id.0 as usize].dropped = true;
        }
        if let Some(pkt) = act.completed {
            let id = pkt.id.0 as usize;
            self.fates[id].hops.push(HopTimes {
                arrive: self.arrived[id],
                tx_start: pkt.hop_first_tx,
                tx_end: now,
            });
            let (to, prop) = (self.links[link].to, self.links[link].prop);
            self.push(now + prop, ARRIVE, NaiveEv::Arrive { node: to, pkt });
        }
        if act.want_start && !self.start_pending[link] {
            self.start_pending[link] = true;
            let class = if self.links[link].bw == Bandwidth::INFINITE {
                START_WIRE
            } else {
                START_TX
            };
            self.push(now, class, NaiveEv::StartTx { link });
        }
    }

    fn run(&mut self) {
        while let Some(Reverse((now, _, k))) = self.heap.pop() {
            match self.events[k].take().expect("each event pops once") {
                NaiveEv::Arrive { node, pkt } => {
                    if node == pkt.dst && pkt.at_destination() {
                        self.fates[pkt.id.0 as usize].delivered = Some(now);
                        continue;
                    }
                    let link = pkt.next_link().expect("routed").0 as usize;
                    self.arrived[pkt.id.0 as usize] = now;
                    let act = self.links[link].admit(pkt, now);
                    self.port_actions(link, act, now);
                }
                NaiveEv::TxDone { link, gen } => {
                    let act = self.links[link].tx_done(gen, now);
                    self.port_actions(link, act, now);
                }
                NaiveEv::StartTx { link } => {
                    self.start_pending[link] = false;
                    if let Some((end, gen)) = self.links[link].try_start(now) {
                        self.push(end, TX_DONE, NaiveEv::TxDone { link, gen });
                    }
                }
            }
        }
    }
}

/// One packet of a differential workload.
#[derive(Debug, Clone)]
struct Send {
    at: Time,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    size: u32,
    path: Arc<Path>,
    hdr: SchedHeader,
}

/// `n` packets between distinct `ends`, sent on a 1.2 µs grid so they
/// collide on the same picosecond at NICs and downstream, with random
/// slack and priority headers. One size in five is a 9,000-byte jumbo,
/// which no finite buffer below holds: the drop of an arrival at an
/// idle port.
fn random_sends(routes: &RoutingTable, ends: &[NodeId], n: usize, seed: u64) -> Vec<Send> {
    let mut s = seed;
    let sizes = [1500, 1500, 576, 64, 9000];
    (0..n)
        .map(|_| {
            let k = ends.len() as u64;
            let a = mix(&mut s) % k;
            let b = (a + 1 + mix(&mut s) % (k - 1)) % k;
            let (src, dst) = (ends[a as usize], ends[b as usize]);
            let flow = FlowId(mix(&mut s) % 8);
            Send {
                at: Time::from_nanos(1200 * (mix(&mut s) % 24)),
                flow,
                src,
                dst,
                size: sizes[(mix(&mut s) % 5) as usize],
                path: routes.resolve_path(src, dst, flow),
                hdr: SchedHeader {
                    slack: (mix(&mut s) % 200_000_000) as i64,
                    prio: (mix(&mut s) % 8) as i64,
                },
            }
        })
        .collect()
}

/// A random theory network — 1–3 `UnitNet` congestion points (zero-delay
/// ports of half, one or two units) joined by infinite-bandwidth wires,
/// zero-delay or not — with 2–5 flow paths across random sequences of
/// them, and `n` packets on those paths sent on a half-unit grid, so
/// packets tie at congestion points and cascade through wires within
/// one instant.
fn unit_net_sends(n: usize, seed: u64) -> (Network, Vec<Send>) {
    let mut s = seed;
    let mut un = UnitNet::new();
    let cps: Vec<Cp> = (0..1 + mix(&mut s) % 3)
        .map(|k| un.cp(&format!("c{k}"), [50, 100, 200][(mix(&mut s) % 3) as usize]))
        .collect();
    let flows: Vec<FlowPath> = (0..2 + mix(&mut s) % 4)
        .map(|f| {
            // A random order of the congestion points, cut to a random
            // non-empty prefix.
            let mut route = cps.clone();
            for i in (1..route.len()).rev() {
                route.swap(i, (mix(&mut s) % (i as u64 + 1)) as usize);
            }
            route.truncate(1 + (mix(&mut s) % route.len() as u64) as usize);
            let pre: Vec<u64> = route
                .iter()
                .map(|_| [0, 0, 50, 100][(mix(&mut s) % 4) as usize])
                .collect();
            un.flow_path(&format!("f{f}"), &route, &pre)
        })
        .collect();
    let sends = (0..n)
        .map(|_| {
            let f = (mix(&mut s) % flows.len() as u64) as usize;
            Send {
                at: Time::from_nanos(6_000 * (mix(&mut s) % 16)),
                flow: FlowId(f as u64),
                src: flows[f].src,
                dst: flows[f].dst,
                size: [1500, 1500, 576, 64][(mix(&mut s) % 4) as usize],
                path: un.path(&flows[f]),
                hdr: SchedHeader {
                    slack: (mix(&mut s) % 200_000_000) as i64,
                    prio: (mix(&mut s) % 8) as i64,
                },
            }
        })
        .collect();
    (un.net, sends)
}

/// Run `sends` on `net` (routes computed, FIFO ports) under `kind` in
/// the product and in the naive loop; return both `(fates, stats)`,
/// each link's `LinkStats` in its `Debug` form (every field).
/// `inert_chaos` installs a chaos policy that perturbs nothing in the
/// product, which must change no outcome.
fn product_and_naive(
    mut net: Network,
    sends: &[Send],
    kind: SchedKind,
    buffer: Option<u64>,
    preemptive: bool,
    inert_chaos: bool,
) -> [(Vec<Fate>, Vec<String>); 2] {
    let mut naive = Naive {
        links: net
            .links
            .iter()
            .map(|l| {
                let mut port = Link::new(l.id, l.from, l.to, l.bw, l.prop);
                port.set_scheduler(kind.build(l.id, 11));
                port.buffer = buffer;
                port.preemptive = preemptive;
                port
            })
            .collect(),
        start_pending: vec![false; net.links.len()],
        heap: BinaryHeap::new(),
        events: Vec::new(),
        fates: (0..sends.len()).map(|_| Fate::default()).collect(),
        arrived: vec![Time::ZERO; sends.len()],
    };
    net.telemetry = Telemetry::new(TraceLevel::Hops);
    net.configure_links(|l| {
        LinkPolicy::keep()
            .scheduler(kind.build(l.id, 11))
            .buffer(buffer)
            .preemptive(preemptive)
    });
    if inert_chaos {
        net.install_chaos(Time::from_millis(1), |_| Some(ChaosPolicy::new(3)));
    }
    for (i, p) in sends.iter().enumerate() {
        let kind = PacketKind::Data { bytes: p.size };
        net.inject_on_path(
            p.at,
            p.flow,
            i as u64,
            p.size,
            p.src,
            p.dst,
            Arc::clone(&p.path),
            p.hdr,
            kind,
        );
        let pkt = Packet {
            id: PacketId(i as u64),
            flow: p.flow,
            seq: i as u64,
            size: p.size,
            tx_left: Dur::ZERO,
            src: p.src,
            dst: p.dst,
            created: p.at,
            path: Arc::clone(&p.path),
            hops_done: 0,
            hdr: p.hdr,
            kind,
            qdelay: Dur::ZERO,
            hop_first_tx: p.at,
        };
        naive.push(
            p.at,
            ARRIVE,
            NaiveEv::Arrive {
                node: p.src,
                pkt: Box::new(pkt),
            },
        );
    }
    net.run_to_completion();
    naive.run();
    let tel = &net.telemetry;
    let product = tel
        .packets
        .iter()
        .map(|r| Fate {
            hops: r.hops(&tel.hops).collect(),
            delivered: r.delivered,
            dropped: r.dropped,
        })
        .collect();
    let stats = |links: &[Link]| links.iter().map(|l| format!("{:?}", l.stats)).collect();
    [
        (product, stats(&net.links)),
        (naive.fates, stats(&naive.links)),
    ]
}

/// The contended dumbbell (two host pairs, 10 Gbps access, 1 Gbps
/// bottleneck, 5 µs) and one flow per `(packets, start µs, deadline µs)`
/// spec, alternating between the pairs: 1,500-byte packets paced at the
/// access rate, slack the remaining deadline budget (or 1 ms without a
/// deadline), priority the flow size.
fn dumbbell_sends(specs: &[(u64, u64, u64)]) -> (Network, Vec<Send>) {
    let t = dumbbell(
        2,
        Bandwidth::gbps(10),
        Bandwidth::gbps(1),
        Dur::from_micros(5),
        TraceLevel::Off,
    );
    let pace = Bandwidth::gbps(10).tx_time(1500);
    let mut sends = Vec::new();
    for (i, &(pkts, start_us, deadline_us)) in specs.iter().enumerate() {
        let (src, dst) = (t.hosts[i % 2], t.hosts[2 + i % 2]);
        let flow = FlowId(i as u64);
        let path = t.routes.resolve_path(src, dst, flow);
        let start = Time::from_micros(start_us);
        for k in 0..pkts.max(1) {
            let at = start + pace * k;
            let slack = if deadline_us > 0 {
                let budget = Dur::from_micros(deadline_us).as_i64();
                (budget - (at - start).as_i64() - path.tmin(1500).as_i64()).max(0)
            } else {
                Dur::from_millis(1).as_i64()
            };
            sends.push(Send {
                at,
                flow,
                src,
                dst,
                size: 1500,
                path: Arc::clone(&path),
                hdr: SchedHeader {
                    slack,
                    prio: pkts as i64,
                },
            });
        }
    }
    (t.net, sends)
}

/// The product's event loop leaves every per-link counter — admitted,
/// dropped, completed, bytes, busy time, queue high-water mark —
/// identical to the naive loop's, under all eleven constructible
/// scheduling disciplines, on the dumbbell with a finite shared buffer.
#[test]
fn link_stats_match_naive_loop_across_schedulers() {
    // Overlapping bursts: 130 packets of demand against a ~20-packet
    // shared buffer on the 1 Gbps bottleneck forces drops under every
    // scheduler.
    let specs = [(40, 0, 0), (40, 2, 500), (25, 5, 0), (25, 7, 300)];
    for kind in SchedKind::ALL {
        let (net, sends) = dumbbell_sends(&specs);
        let [(product, product_stats), (naive, naive_stats)] =
            product_and_naive(net, &sends, kind, Some(30_000), false, false);
        assert_eq!(
            product_stats,
            naive_stats,
            "per-link stats diverge under {}",
            kind.label()
        );
        assert_eq!(
            product,
            naive,
            "per-packet fates diverge under {}",
            kind.label()
        );
        assert!(
            naive.iter().any(|f| !f.hops.is_empty()),
            "{}: nothing was forwarded — vacuous comparison",
            kind.label()
        );
        assert!(
            naive.iter().any(|f| f.dropped),
            "{}: no drops — the workload no longer stresses the buffer",
            kind.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The product's event loop and the naive loop make the same run —
    /// every packet's hops, delivery and drop, every link's counters —
    /// on random connected topologies, dumbbells, the k=4 fat-tree and
    /// random theory networks, under all eleven schedulers, with an
    /// unbounded or a finite buffer, preemption off or on, and an inert
    /// chaos policy or none.
    #[test]
    fn event_loop_matches_naive_reference_loop(
        shape in 0usize..4,
        finite in 0u8..2,
        preemptive in 0u8..2,
        inert_chaos in 0u8..2,
        n in 4u32..10,
        packets in 1usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let buffer = (finite == 1).then_some(6_000);
        let (preemptive, inert_chaos) = (preemptive == 1, inert_chaos == 1);
        let build = || match shape {
            0 => {
                let mut net = random_connected(n, n / 2, seed);
                let routes = net.compute_routes();
                let ends: Vec<NodeId> = (0..n).map(NodeId).collect();
                let sends = random_sends(&routes, &ends, packets, seed);
                (net, sends)
            }
            1 => {
                let t = dumbbell(3, Bandwidth::gbps(10), Bandwidth::gbps(1), Dur::from_micros(2), TraceLevel::Off);
                let sends = random_sends(&t.routes, &t.hosts, packets, seed);
                (t.net, sends)
            }
            2 => {
                let t = fattree::build(&fattree::FatTreeConfig::for_k(4), TraceLevel::Off);
                let sends = random_sends(&t.routes, &t.hosts, packets, seed);
                (t.net, sends)
            }
            _ => unit_net_sends(packets, seed),
        };
        for kind in SchedKind::ALL {
            let (net, sends) = build();
            let [(product, product_stats), (naive, naive_stats)] =
                product_and_naive(net, &sends, kind, buffer, preemptive, inert_chaos);
            prop_assert!(naive.iter().any(|f| f.delivered.is_some()), "vacuous case");
            prop_assert_eq!(product.len(), naive.len());
            for (i, (p, q)) in product.iter().zip(&naive).enumerate() {
                prop_assert_eq!(p, q, "{} packet {}", kind.label(), i);
            }
            prop_assert_eq!(product_stats, naive_stats, "{} link stats", kind.label());
        }
    }

    /// The product's event loop is bit-identical to the naive loop on
    /// LSTF dumbbells with a finite shared buffer (so drop-worst
    /// eviction runs, not just admission): same deliveries, same drops,
    /// same per-hop timestamps.
    #[test]
    fn lstf_dumbbell_matches_naive_loop(
        specs in prop::collection::vec((1u64..25, 0u64..30, 0u64..600), 1..6),
    ) {
        let (net, sends) = dumbbell_sends(&specs);
        let [(product, product_stats), (naive, naive_stats)] =
            product_and_naive(net, &sends, SchedKind::Lstf, Some(30_000), false, false);
        prop_assert_eq!(product, naive, "per-packet telemetry diverges");
        prop_assert_eq!(product_stats, naive_stats, "per-link stats diverge");
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
    let (recs, delivered, dropped) = run_dumbbell(&flows, None);
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
