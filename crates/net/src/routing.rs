//! The forwarding table: shortest-path routing straight into a flat
//! next-hop array, plus path resolution.
//!
//! [`crate::Network::compute_routes`] fills a dense CSR-style
//! `(destination, node) → [next-hop links]` array one destination row at
//! a time: the loop is destination-major, which is the table's layout.
//! Resolving one hop is two array indexes, an offset lookup and an ECMP
//! member pick. The table also snapshots each link's `(to, bw, prop)`,
//! so a full source-route ([`RoutingTable::resolve_path`]) needs no
//! access to the `Network`.
//!
//! A row costs one reverse Dijkstra plus a pass appending each node's
//! equal-cost out-links — unless its destination `d` has a **gateway**:
//! a node `g < d` that sends exactly one in-link of `d`, every other
//! in-link of `d` coming from a *stub* of `d` (a node whose only in-link
//! comes from `d` and whose only out-link goes to `d`, like a host
//! behind its edge router). Every path into `d` then ends with `g → d`,
//! so `dist(u, d) = dist(u, g) + cost(g → d)` and every other node picks
//! the same out-links toward `d` as toward `g`: row `d` is row `g`
//! copied, with `[g → d]` at `g`, nothing at `d` and `[q → d]` at each
//! stub `q`. The paper's access pattern gives every edge router (gateway:
//! its core router, stub: its host) and every host (gateway: its edge
//! router) one, so only core routers run Dijkstra. The argument needs
//! every link cost positive — a zero-cost cycle through `g` would put
//! more than `g → d` on a shortest path from `g` — so a graph with any
//! zero-cost link (instant, zero-delay theory wires) runs Dijkstra for
//! every destination.
//!
//! The handle doubles as the API's proof of route finalization: packet
//! injection ([`crate::Network::inject`]) takes `&RoutingTable`, so
//! "inject before routing" fails to compile.
//!
//! ECMP determinism: a flow's hash depends only on the flow id, so it is
//! computed **once** per path and reused at every hop. Equal-cost
//! members are stored in the node's out-link creation order and the
//! flow picks member `hash % width`, which keeps a flow on one path and
//! original and replay runs on identical paths; the routing proptest
//! checks both against Bellman–Ford distances on random topologies.

use crate::link::Link;
use crate::packet::{FlowId, LinkId, NodeId, Path};
use std::cmp::Reverse;
use std::sync::Arc;
use ups_sim::{Bandwidth, Dur};

/// Immutable, flat forwarding state of a routed [`crate::Network`].
#[derive(Debug)]
pub struct RoutingTable {
    /// Number of nodes (the table is dense over `n × n` pairs).
    n: usize,
    /// CSR offsets, destination-major: the equal-cost next hops of
    /// `(node, dest)` are `hops[off[dest·n + node] .. off[dest·n + node + 1]]`.
    /// An empty range means unreachable (or `node == dest`).
    off: Box<[u32]>,
    /// Concatenated ECMP member links for every `(node, dest)` pair.
    /// Kept at its `n × n` reservation, not shrunk to its length: a
    /// shrink hands a few KiB tail back to the allocator, small blocks
    /// settle there, and the hole a dropped table leaves is then just
    /// short of the next same-size table — which grows the heap by a
    /// whole array instead of reusing it.
    hops: Vec<LinkId>,
    /// Per-link receiving node, indexed by `LinkId`.
    link_to: Box<[NodeId]>,
    /// Per-link serialization rate, indexed by `LinkId`.
    link_bw: Box<[Bandwidth]>,
    /// Per-link propagation delay, indexed by `LinkId`.
    link_prop: Box<[Dur]>,
}

/// A link as the routing pass sees it from one end: the node at the
/// other end, and propagation + 1500-byte transmission time in ps.
struct Edge {
    peer: usize,
    cost: u64,
    link: LinkId,
}

/// One direction of the link graph in CSR form: the edges of node `v`
/// are `edges[off[v]..off[v + 1]]`, in link creation order (the sort is
/// stable).
struct Adjacency {
    off: Vec<usize>,
    edges: Vec<Edge>,
}

impl Adjacency {
    /// Group `links` by the node `at(link)` names; `peer(link)` is the
    /// other end.
    fn new(
        n: usize,
        links: &[Link],
        at: impl Fn(&Link) -> NodeId,
        peer: impl Fn(&Link) -> NodeId,
    ) -> Adjacency {
        let mut order: Vec<&Link> = links.iter().collect();
        order.sort_by_key(|l| at(l).0);
        let off = (0..=n)
            .map(|v| order.partition_point(|l| (at(l).0 as usize) < v))
            .collect();
        let edges = order
            .iter()
            .map(|l| Edge {
                peer: peer(l).0 as usize,
                cost: (l.prop + l.bw.tx_time(1500)).as_ps(),
                link: l.id,
            })
            .collect();
        Adjacency { off, edges }
    }

    fn of(&self, v: usize) -> &[Edge] {
        &self.edges[self.off[v]..self.off[v + 1]]
    }
}

/// The gateway of `dest` (module doc), if it has one. Leaves in
/// `patches`, sorted by node, the entries where row `dest` differs from
/// the gateway's row: the gateway's and each stub's link to `dest`, and
/// no link at `dest`.
fn gateway(
    dest: usize,
    inbound: &Adjacency,
    outbound: &Adjacency,
    patches: &mut Vec<(usize, Option<LinkId>)>,
) -> Option<usize> {
    let is_stub = |q: usize| {
        matches!(inbound.of(q), [e] if e.peer == dest)
            && matches!(outbound.of(q), [e] if e.peer == dest)
    };
    patches.clear();
    patches.push((dest, None));
    let mut found = None;
    for e in inbound.of(dest) {
        if !is_stub(e.peer) {
            if found.is_some() || e.peer >= dest {
                return None;
            }
            found = Some(e.peer);
        }
        patches.push((e.peer, Some(e.link)));
    }
    patches.sort_unstable_by_key(|&(node, _)| node);
    found
}

/// `hops.len()` as the next CSR offset.
// The table holds at most n² entries, which overflow `u32` only past
// ~65 k nodes — far beyond any topology this simulator builds.
#[allow(clippy::expect_used)]
fn end_offset(hops: &[LinkId]) -> u32 {
    u32::try_from(hops.len()).expect("routing table exceeds u32 offsets")
}

/// Append the entries of nodes `a..b` from the finished row whose
/// offsets start at `off[row]`: their links in one bulk copy, their
/// offsets rebased onto the copy.
fn copy_run(off: &mut Vec<u32>, hops: &mut Vec<LinkId>, row: usize, a: usize, b: usize) {
    let (lo, hi) = (off[row + a], off[row + b]);
    hops.extend_from_within(lo as usize..hi as usize);
    let shift = end_offset(hops) - hi;
    let start = off.len();
    off.extend_from_within(row + a + 1..row + b + 1);
    for o in &mut off[start..] {
        *o += shift;
    }
}

impl RoutingTable {
    /// Shortest-path next hops for every `(node, destination)` pair of
    /// the graph `links` spans over `n` nodes. Link cost = propagation
    /// delay + transmission time of a 1500-byte packet; a node's
    /// equal-cost out-links form its ECMP set, in creation order.
    pub(crate) fn shortest_paths(n: usize, links: &[Link]) -> RoutingTable {
        let inbound = Adjacency::new(n, links, |l| l.to, |l| l.from);
        let outbound = Adjacency::new(n, links, |l| l.from, |l| l.to);
        // Gateway rows are exact only when no link is free (module doc).
        let fold = inbound.edges.iter().all(|e| e.cost > 0);

        let mut off = Vec::with_capacity(n * n + 1);
        let mut hops = Vec::with_capacity(n * n);
        off.push(0u32);
        // Scratch reused across destinations.
        let mut patches = Vec::new();
        let mut dist: Vec<u64> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for dest in 0..n {
            let source = if fold {
                gateway(dest, &inbound, &outbound, &mut patches)
            } else {
                None
            };
            if let Some(g) = source {
                // Row `g` between the patches, the patches themselves.
                let mut next = 0;
                for &(node, link) in &patches {
                    copy_run(&mut off, &mut hops, g * n, next, node);
                    hops.extend(link);
                    off.push(end_offset(&hops));
                    next = node + 1;
                }
                copy_run(&mut off, &mut hops, g * n, next, n);
                continue;
            }
            dist.clear();
            dist.resize(n, u64::MAX);
            dist[dest] = 0;
            heap.clear();
            heap.push(Reverse((0u64, dest)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for e in inbound.of(v) {
                    let nd = d + e.cost;
                    if nd < dist[e.peer] {
                        dist[e.peer] = nd;
                        heap.push(Reverse((nd, e.peer)));
                    }
                }
            }
            // This destination's row: per node, every out-link on a
            // shortest path (none at the destination or out of reach).
            for (u, &du) in dist.iter().enumerate() {
                if u != dest && du != u64::MAX {
                    for e in outbound.of(u) {
                        let dv = dist[e.peer];
                        if dv != u64::MAX && e.cost + dv == du {
                            hops.push(e.link);
                        }
                    }
                }
                off.push(end_offset(&hops));
            }
        }
        RoutingTable {
            n,
            off: off.into(),
            hops,
            link_to: links.iter().map(|l| l.to).collect(),
            link_bw: links.iter().map(|l| l.bw).collect(),
            link_prop: links.iter().map(|l| l.prop).collect(),
        }
    }

    /// The deterministic ECMP hash of a flow id (SplitMix-style
    /// avalanche, so consecutive flow ids spread across an ECMP set).
    /// Hop-invariant by construction: callers hash once per path.
    pub fn flow_hash(flow: FlowId) -> u64 {
        let mut z = flow.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next link from `node` toward `dest` for a flow with the given
    /// precomputed [`flow_hash`](RoutingTable::flow_hash). Two array
    /// indexes: the CSR offset pair, then the hash-picked ECMP member.
    /// `None` if unreachable (or `node == dest`).
    #[inline]
    pub fn next_hop(&self, node: NodeId, dest: NodeId, hash: u64) -> Option<LinkId> {
        let idx = dest.0 as usize * self.n + node.0 as usize;
        let (lo, hi) = (self.off[idx] as usize, self.off[idx + 1] as usize);
        match hi - lo {
            0 => None,
            1 => Some(self.hops[lo]),
            w => Some(self.hops[lo + (hash % w as u64) as usize]),
        }
    }

    /// Number of equal-cost next hops from `node` toward `dest`
    /// (0 = unreachable).
    pub fn ecmp_width(&self, node: NodeId, dest: NodeId) -> usize {
        let idx = dest.0 as usize * self.n + node.0 as usize;
        (self.off[idx + 1] - self.off[idx]) as usize
    }

    /// Call `visit` with each link of `flow`'s route from `src` to
    /// `dst`, in path order, allocating nothing. Panics if no route
    /// exists; paths longer than 64 hops are treated as routing loops.
    pub fn for_each_hop(
        &self,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        mut visit: impl FnMut(LinkId),
    ) {
        let hash = Self::flow_hash(flow);
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let hop = self
                .next_hop(at, dst, hash)
                .unwrap_or_else(|| panic!("no route {at:?} -> {dst:?}"));
            visit(hop);
            at = self.link_to[hop.0 as usize];
            hops += 1;
            assert!(hops <= 64, "routing loop {src:?} -> {dst:?}");
        }
    }

    /// Resolve the full source route for `flow` from `src` to `dst`.
    /// Panics as [`for_each_hop`](RoutingTable::for_each_hop) does.
    pub fn resolve_path(&self, src: NodeId, dst: NodeId, flow: FlowId) -> Arc<Path> {
        let mut links = Vec::new();
        let mut bw = Vec::new();
        let mut prop = Vec::new();
        self.for_each_hop(src, dst, flow, |hop| {
            links.push(hop);
            bw.push(self.link_bw[hop.0 as usize]);
            prop.push(self.link_prop[hop.0 as usize]);
        });
        Arc::new(Path {
            links: links.into(),
            bw: bw.into(),
            prop: prop.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{gateway, Adjacency};
    use crate::{FlowId, LinkId, Network, NodeId, RoutingTable, TraceLevel};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use ups_sim::{Bandwidth, Dur};

    #[test]
    fn visitor_and_resolve_path_refuse_an_unreachable_pair_alike() {
        // a <-> b, and c with a link out but none in.
        let mut net = Network::new(TraceLevel::Off);
        let (a, b, c) = (net.add_host("a"), net.add_host("b"), net.add_host("c"));
        net.add_duplex(a, b, Bandwidth::gbps(1), Dur::from_micros(1));
        net.add_link(c, a, Bandwidth::gbps(1), Dur::from_micros(1));
        let rt = net.compute_routes();
        let message = |r: std::thread::Result<()>| {
            *r.expect_err("must panic")
                .downcast::<String>()
                .expect("formatted panic message")
        };
        for (src, dst) in [(a, c), (b, c)] {
            let visited = message(catch_unwind(AssertUnwindSafe(|| {
                rt.for_each_hop(src, dst, FlowId(1), |_| {})
            })));
            let resolved = message(catch_unwind(AssertUnwindSafe(|| {
                rt.resolve_path(src, dst, FlowId(1));
            })));
            assert_eq!(visited, format!("no route {src:?} -> {dst:?}"));
            assert_eq!(visited, resolved);
        }
        // The reachable direction still visits what it resolves.
        let mut seen = Vec::new();
        rt.for_each_hop(c, b, FlowId(1), |l| seen.push(l));
        assert_eq!(seen[..], rt.resolve_path(c, b, FlowId(1)).links[..]);
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn ecmp_pick_is_deterministic_and_spreads() {
        // Four parallel links a -> b: one equal-cost set of width 4.
        let mut net = Network::new(TraceLevel::Off);
        let (a, b) = (net.add_router("a"), net.add_router("b"));
        let set: Vec<_> = (0..4)
            .map(|_| net.add_link(a, b, Bandwidth::gbps(1), Dur::from_micros(1)))
            .collect();
        let rt = net.compute_routes();
        assert_eq!(rt.ecmp_width(a, b), 4);
        assert_eq!(rt.ecmp_width(b, a), 0);
        assert_eq!(rt.next_hop(b, a, 0), None);
        let mut counts = [0u32; 4];
        for f in 0..4000 {
            let hash = RoutingTable::flow_hash(FlowId(f));
            let hop = rt.next_hop(a, b, hash).unwrap();
            assert_eq!(
                rt.next_hop(a, b, RoutingTable::flow_hash(FlowId(f))),
                Some(hop),
                "same flow must always take the same link"
            );
            assert_eq!(hop, set[(hash % 4) as usize]);
            counts[hop.0 as usize] += 1;
        }
        for c in counts {
            assert!(c > 700, "skewed ECMP spread: {counts:?}");
        }
        assert_eq!(rt.next_hop(a, a, 7), None, "a node has no hop to itself");
    }

    /// The next-hop set of `(node, dest)`.
    fn entry(rt: &RoutingTable, node: usize, dest: usize) -> &[LinkId] {
        let i = dest * rt.n + node;
        &rt.hops[rt.off[i] as usize..rt.off[i + 1] as usize]
    }

    #[test]
    fn a_zero_cost_link_turns_the_fold_off() {
        // g <-> v at zero cost, host h behind g: h's gateway is g, but
        // g -> v -> g costs nothing, so g -> v is on a shortest path to h
        // too. The fold would give [g -> h] at g; Dijkstra gives both.
        let mut net = Network::new(TraceLevel::Off);
        let (g, v, h) = (net.add_router("g"), net.add_router("v"), net.add_host("h"));
        let (gv, vg) = net.add_duplex(g, v, Bandwidth::INFINITE, Dur::ZERO);
        let (hg, gh) = net.add_duplex(h, g, Bandwidth::gbps(1), Dur::from_micros(1));
        let rt = net.compute_routes();
        // Rows g, v, h; in each, the entries at g, v, h.
        let want: [[&[LinkId]; 3]; 3] = [
            [&[], &[vg], &[hg]],
            [&[gv], &[], &[hg]],
            [&[gv, gh], &[vg], &[]],
        ];
        for (dest, row) in want.iter().enumerate() {
            for (node, &set) in row.iter().enumerate() {
                assert_eq!(entry(&rt, node, dest), set, "node {node} -> dest {dest}");
            }
        }
    }

    #[test]
    fn every_host_and_edge_router_of_the_wan_builders_has_a_gateway() {
        use ups_topo::{default_level, internet2, rocketfuel};
        // `default_level()`: the builders take the library build's
        // `TraceLevel`, which this test build of the crate cannot name.
        let builds = [
            (
                internet2::build(&internet2::I2Config::default(), default_level()),
                10,
            ),
            (
                rocketfuel::build(&rocketfuel::RocketFuelConfig::full(), default_level()),
                83,
            ),
        ];
        for (topo, cores) in builds {
            // The builder wired the library build of this crate; rewire
            // its graph here to reach the private gateway test.
            let mut net = Network::new(TraceLevel::Off);
            for node in &topo.net.nodes {
                if node.is_host() {
                    net.add_host(node.name.as_str());
                } else {
                    net.add_router(node.name.as_str());
                }
            }
            for l in &topo.net.links {
                net.add_link(NodeId(l.from.0), NodeId(l.to.0), l.bw, l.prop);
            }
            let n = net.nodes.len();
            let inbound = Adjacency::new(n, &net.links, |l| l.to, |l| l.from);
            let outbound = Adjacency::new(n, &net.links, |l| l.from, |l| l.to);
            let mut patches = Vec::new();
            let mut dijkstras = 0;
            for node in &net.nodes {
                let gw = gateway(node.id.0 as usize, &inbound, &outbound, &mut patches);
                let access = node.is_host() || node.name.starts_with("edge:");
                assert_eq!(gw.is_some(), access, "{} in {}", node.name, topo.name);
                if gw.is_some() {
                    assert!(patches.len() <= 3, "{}: {patches:?}", node.name);
                }
                dijkstras += usize::from(gw.is_none());
            }
            assert_eq!(dijkstras, cores, "{}", topo.name);

            // Folding changes no entry: an unreachable zero-cost pair of
            // extra nodes turns it off for the whole graph.
            let folded = net.compute_routes();
            let (x, y) = (net.add_router("x"), net.add_router("y"));
            net.add_duplex(x, y, Bandwidth::INFINITE, Dur::ZERO);
            let plain = net.compute_routes();
            for dest in 0..n {
                for node in 0..n {
                    assert_eq!(entry(&folded, node, dest), entry(&plain, node, dest));
                }
            }
        }
    }
}
