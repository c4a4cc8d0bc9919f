//! The forwarding table: shortest-path routing straight into a flat
//! next-hop array, plus path resolution.
//!
//! [`crate::Network::compute_routes`] runs one reverse Dijkstra per
//! destination and appends each node's equal-cost out-links to a dense
//! CSR-style `(destination, node) → [next-hop links]` array as it goes:
//! the loop is destination-major, which is the table's layout. Resolving
//! one hop is two array indexes, an offset lookup and an ECMP member
//! pick. The table also snapshots each link's `(to, bw, prop)`, so a
//! full source-route ([`RoutingTable::resolve_path`]) needs no access to
//! the `Network`.
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
    hops: Box<[LinkId]>,
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

/// One direction of the link graph in CSR form: the edges of the node
/// `at(link)` names are `edges[off[v]..off[v + 1]]`, in link creation
/// order (the sort is stable).
fn adjacency(
    n: usize,
    links: &[Link],
    at: impl Fn(&Link) -> NodeId,
    peer: impl Fn(&Link) -> NodeId,
) -> (Vec<usize>, Vec<Edge>) {
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
    (off, edges)
}

impl RoutingTable {
    /// Shortest-path next hops for every `(node, destination)` pair of
    /// the graph `links` spans over `n` nodes. Link cost = propagation
    /// delay + transmission time of a 1500-byte packet; a node's
    /// equal-cost out-links form its ECMP set, in creation order.
    pub(crate) fn shortest_paths(n: usize, links: &[Link]) -> RoutingTable {
        let (in_off, inbound) = adjacency(n, links, |l| l.to, |l| l.from);
        let (out_off, outbound) = adjacency(n, links, |l| l.from, |l| l.to);

        let mut off = Vec::with_capacity(n * n + 1);
        let mut hops = Vec::with_capacity(n * n);
        off.push(0u32);
        // One reverse Dijkstra per destination, scratch reused.
        let mut dist: Vec<u64> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for dest in 0..n {
            dist.clear();
            dist.resize(n, u64::MAX);
            dist[dest] = 0;
            heap.clear();
            heap.push(Reverse((0u64, dest)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for e in &inbound[in_off[v]..in_off[v + 1]] {
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
                    for e in &outbound[out_off[u]..out_off[u + 1]] {
                        let dv = dist[e.peer];
                        if dv != u64::MAX && e.cost + dv == du {
                            hops.push(e.link);
                        }
                    }
                }
                off.push(u32::try_from(hops.len()).expect("routing table exceeds u32 offsets"));
            }
        }
        RoutingTable {
            n,
            off: off.into(),
            hops: hops.into(),
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
    use crate::{FlowId, Network, RoutingTable, TraceLevel};
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
}
