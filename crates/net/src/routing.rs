//! The forwarding table: shortest-path routing into flat next-hop rows,
//! plus path resolution and pair-path counting.
//!
//! [`crate::Network::compute_routes`] runs one reverse Dijkstra per
//! **root** destination over the **transit** nodes only and stores its
//! answer as a CSR-style row `transit node → [next-hop links]`.
//! Resolving a hop toward a root is two array indexes, an offset lookup
//! and an ECMP member pick. The table also snapshots each link's
//! `(to, bw, prop)`, so a full source-route
//! ([`RoutingTable::resolve_path`]) needs no access to the `Network`.
//!
//! A destination `d` is not a root when it has a **gateway**: a node
//! `g < d` that sends exactly one in-link of `d`, every other in-link of
//! `d` coming from a *stub* of `d` (a node whose only in-link comes from
//! `d` and whose only out-link goes to `d`, like a host behind its edge
//! router). Every path into `d` then ends with `g → d`, so
//! `dist(u, d) = dist(u, g) + cost(g → d)` and every other node picks
//! the same out-links toward `d` as toward `g`. Row `d` is not stored:
//! `d` keeps `(g, link)`, each stub keeps its `(peer, link)`, and
//! `(node, d)` resolves by climbing `d`'s gateway chain — `[g → d]` at
//! `g`, `[q → d]` at a stub `q` of `d`, nothing at `d`, and otherwise
//! whatever `(node, g)` resolves to — until it reaches a root's row. The
//! argument needs every link cost positive — a zero-cost cycle through
//! `g` would put more than `g → d` on a shortest path from `g` — so a
//! graph with any zero-cost link (instant, zero-delay theory wires)
//! makes every destination a root.
//!
//! Sources fold the same way. A folded destination `u` with gateway `g`
//! is a **folded source** when its only out-link that does not go to one
//! of its own stubs goes to `g`, and none of its stubs is a root. Its
//! stubs lead only back to it and no root is among them, so toward every
//! root it takes its **up-link** `u → g` if `g` reaches that root and
//! has nothing otherwise, and no shortest path between two transit
//! nodes passes it. Every other node is **transit**: a row stores
//! entries for transit nodes only, and a folded source answers from the
//! row's entry at its **transit ancestor**, the first transit node up
//! its gateway chain. The paper's access pattern makes every edge router
//! (gateway: its core router, stub: its host) and every host (gateway:
//! its edge router) a folded destination and a folded source, so the
//! core routers are the roots and the transit nodes, and the full
//! RocketFuel map keeps 83 rows of 83 entries for 1,743 nodes.
//!
//! The same split counts routes without walking each one:
//! [`RoutingTable::count_pair_paths`] is a source's fixed up-chain to
//! its transit ancestor, a walk from there to the root, and the fixed
//! chain from the root down to the destination; only a walk's ECMP
//! prefix depends on the pair.
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
use std::slice;
use std::sync::Arc;
use ups_sim::{Bandwidth, Dur};

/// Immutable, flat forwarding state of a routed [`crate::Network`].
#[derive(Debug)]
pub struct RoutingTable {
    /// Number of transit nodes: the length of every row.
    transit: usize,
    /// How each destination resolves, indexed by node.
    dests: Box<[Dest]>,
    /// Each node's stub link, if it is a stub (module doc).
    stubs: Box<[Option<Stub>]>,
    /// How each source reads a row, indexed by node.
    srcs: Box<[Src]>,
    /// CSR offsets, row-major: with `i = r·transit + t`, the equal-cost
    /// next hops of transit node `t` in row `r` are
    /// `hops[off[i] .. off[i + 1]]`. An empty range means unreachable
    /// (or `t` is the row's root).
    off: Box<[u32]>,
    /// Concatenated ECMP member links of every row.
    hops: Vec<LinkId>,
    /// Per row, its transit nodes nearest the root first (Dijkstra's
    /// pop order), then the ones that cannot reach it: row `r`'s are
    /// `order[r·transit .. (r + 1)·transit]`.
    order: Box<[u32]>,
    /// Per-link receiving node, indexed by `LinkId`.
    link_to: Box<[NodeId]>,
    /// Per-link serialization rate, indexed by `LinkId`.
    link_bw: Box<[Bandwidth]>,
    /// Per-link propagation delay, indexed by `LinkId`.
    link_prop: Box<[Dur]>,
}

/// How the table answers for one destination.
#[derive(Debug, Clone, Copy)]
enum Dest {
    /// A root: Dijkstra's answer is row `.0`. The roots are the first
    /// transit nodes, so `.0` is also the root's transit index.
    Row(u32),
    /// A folded destination: every path into it ends with `link`, from
    /// `gateway`.
    Via { gateway: u32, link: LinkId },
}

/// How the table answers from one source.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A transit node: its index into every row.
    Transit(u32),
    /// A folded source: its up-link, and the transit index of its
    /// transit ancestor.
    Folded { up: LinkId, top: u32 },
}

impl Src {
    /// The transit index of the node, or of its transit ancestor.
    fn top(self) -> u32 {
        match self {
            Src::Transit(t) | Src::Folded { top: t, .. } => t,
        }
    }
}

/// A stub's only out-link, and the node it goes to.
#[derive(Debug, Clone, Copy)]
struct Stub {
    peer: u32,
    link: LinkId,
}

/// A link as the routing pass sees it from one end: the node at the
/// other end, and propagation + 1500-byte transmission time in ps.
#[derive(Clone, Copy)]
struct Edge {
    peer: usize,
    cost: u64,
    link: LinkId,
}

/// One direction of the link graph in CSR form: the edges of node `v`
/// are `edges[off[v]..off[v + 1]]`, in link creation order.
struct Adjacency {
    off: Vec<usize>,
    edges: Vec<Edge>,
}

impl Adjacency {
    /// Group `links` (in creation order) by the node `at(link)` names;
    /// `peer(link)` is the other end.
    fn new(
        n: usize,
        links: &[Link],
        at: impl Fn(&Link) -> NodeId,
        peer: impl Fn(&Link) -> NodeId,
    ) -> Adjacency {
        let mut off = vec![0; n + 1];
        for l in links {
            off[at(l).0 as usize + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut next = off.clone();
        let mut edges = vec![
            Edge {
                peer: 0,
                cost: 0,
                link: LinkId(0),
            };
            links.len()
        ];
        for l in links {
            let slot = &mut next[at(l).0 as usize];
            edges[*slot] = Edge {
                peer: peer(l).0 as usize,
                cost: (l.prop + l.bw.tx_time(1500)).as_ps(),
                link: l.id,
            };
            *slot += 1;
        }
        Adjacency { off, edges }
    }

    fn of(&self, v: usize) -> &[Edge] {
        &self.edges[self.off[v]..self.off[v + 1]]
    }

    /// The subgraph on `nodes`, renumbered by position in `nodes`:
    /// `index(v)` is `v`'s position, `None` for a node left out.
    fn among(&self, nodes: &[usize], index: impl Fn(usize) -> Option<usize>) -> Adjacency {
        let mut off = Vec::with_capacity(nodes.len() + 1);
        let mut edges = Vec::new();
        off.push(0);
        for &v in nodes {
            edges.extend(self.of(v).iter().filter_map(|e| {
                Some(Edge {
                    peer: index(e.peer)?,
                    ..*e
                })
            }));
            off.push(edges.len());
        }
        Adjacency { off, edges }
    }
}

/// The stub link of `q`, if its only in-link and its only out-link
/// connect it to the same peer.
fn stub(q: usize, inbound: &Adjacency, outbound: &Adjacency) -> Option<Stub> {
    match (inbound.of(q), outbound.of(q)) {
        ([i], [o]) if i.peer == o.peer => Some(Stub {
            peer: o.peer as u32,
            link: o.link,
        }),
        _ => None,
    }
}

/// The gateway of `dest` (module doc) and its link to `dest`, if `dest`
/// has one.
fn gateway(dest: usize, inbound: &Adjacency, stubs: &[Option<Stub>]) -> Option<(u32, LinkId)> {
    let mut found = None;
    for e in inbound.of(dest) {
        if matches!(stubs[e.peer], Some(s) if s.peer as usize == dest) {
            continue;
        }
        if found.is_some() || e.peer >= dest {
            return None;
        }
        found = Some((e.peer as u32, e.link));
    }
    found
}

/// The up-link of the folded destination `u` with gateway `g`, if `u`
/// is a folded source (module doc).
fn up_link(
    u: usize,
    g: u32,
    outbound: &Adjacency,
    stubs: &[Option<Stub>],
    dests: &[Dest],
) -> Option<LinkId> {
    let mut up = None;
    for e in outbound.of(u) {
        if matches!(stubs[e.peer], Some(s) if s.peer as usize == u) {
            if matches!(dests[e.peer], Dest::Row(_)) {
                return None;
            }
            continue;
        }
        if up.is_some() || e.peer != g as usize {
            return None;
        }
        up = Some(e.link);
    }
    up
}

/// `hops.len()` as the next CSR offset.
// Each row holds at most one entry per link, so the offsets overflow
// `u32` only when roots × links passes 4 G — far beyond any topology
// this simulator builds.
#[allow(clippy::expect_used)]
fn end_offset(hops: &[LinkId]) -> u32 {
    u32::try_from(hops.len()).expect("routing table exceeds u32 offsets")
}

/// Routes longer than this are treated as routing loops.
const MAX_HOPS: usize = 64;

impl RoutingTable {
    /// Shortest-path next hops for every `(node, destination)` pair of
    /// the graph `links` spans over `n` nodes. Link cost = propagation
    /// delay + transmission time of a 1500-byte packet; a node's
    /// equal-cost out-links form its ECMP set, in creation order.
    pub(crate) fn shortest_paths(n: usize, links: &[Link]) -> RoutingTable {
        let inbound = Adjacency::new(n, links, |l| l.to, |l| l.from);
        let outbound = Adjacency::new(n, links, |l| l.from, |l| l.to);
        let stubs: Box<[Option<Stub>]> = (0..n).map(|q| stub(q, &inbound, &outbound)).collect();
        // Gateways are exact only when no link is free (module doc).
        let fold = inbound.edges.iter().all(|e| e.cost > 0);
        let mut roots = 0;
        let dests: Box<[Dest]> = (0..n)
            .map(|d| match gateway(d, &inbound, &stubs).filter(|_| fold) {
                Some((gateway, link)) => Dest::Via { gateway, link },
                None => {
                    roots += 1;
                    Dest::Row(roots - 1)
                }
            })
            .collect();
        // Transit indices: the roots first, then every other transit
        // node. A gateway precedes its node, so its `Src` is known.
        let mut transit = roots;
        let mut srcs: Vec<Src> = Vec::with_capacity(n);
        for (u, dest) in dests.iter().enumerate() {
            srcs.push(match *dest {
                Dest::Row(row) => Src::Transit(row),
                Dest::Via { gateway, .. } => match up_link(u, gateway, &outbound, &stubs, &dests) {
                    Some(up) => Src::Folded {
                        up,
                        top: srcs[gateway as usize].top(),
                    },
                    None => {
                        transit += 1;
                        Src::Transit(transit - 1)
                    }
                },
            });
        }
        let (roots, transit) = (roots as usize, transit as usize);
        let mut nodes = vec![0; transit];
        for (u, src) in srcs.iter().enumerate() {
            if let Src::Transit(t) = *src {
                nodes[t as usize] = u;
            }
        }
        let index = |v: usize| match srcs[v] {
            Src::Transit(t) => Some(t as usize),
            Src::Folded { .. } => None,
        };
        let inbound = inbound.among(&nodes, index);
        let outbound = outbound.among(&nodes, index);

        let rows = roots * transit;
        let mut off = Vec::with_capacity(rows + 1);
        // In a connected graph every transit node but a row's root has
        // at least one next hop in it, so `rows` entries suffice unless
        // equal-cost sets add more.
        let mut hops = Vec::with_capacity(rows);
        let mut order = Vec::with_capacity(rows);
        off.push(0u32);
        // Scratch reused across roots.
        let mut dist: Vec<u64> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for root in 0..roots {
            dist.clear();
            dist.resize(transit, u64::MAX);
            dist[root] = 0;
            heap.clear();
            heap.push(Reverse((0u64, root)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                order.push(v as u32);
                for e in inbound.of(v) {
                    let nd = d + e.cost;
                    if nd < dist[e.peer] {
                        dist[e.peer] = nd;
                        heap.push(Reverse((nd, e.peer)));
                    }
                }
            }
            // This root's row: per transit node, every out-link on a
            // shortest path (none at the root or out of reach).
            for (u, &du) in dist.iter().enumerate() {
                if u != root && du != u64::MAX {
                    for e in outbound.of(u) {
                        let dv = dist[e.peer];
                        if dv != u64::MAX && e.cost + dv == du {
                            hops.push(e.link);
                        }
                    }
                }
                off.push(end_offset(&hops));
            }
            order.extend((0..transit as u32).filter(|&u| dist[u as usize] == u64::MAX));
        }
        RoutingTable {
            transit,
            dests,
            stubs,
            srcs: srcs.into(),
            off: off.into(),
            hops,
            order: order.into(),
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

    /// The stored equal-cost next hops of transit node `t` in row `row`.
    #[inline]
    fn stored(&self, row: u32, t: u32) -> &[LinkId] {
        let i = row as usize * self.transit + t as usize;
        &self.hops[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// The equal-cost next hops of `node` in row `row`: the stored
    /// entry of a transit node; a folded source's up-link if its transit
    /// ancestor is the row's root or reaches it, else nothing.
    #[inline]
    fn row_entry(&self, row: u32, node: usize) -> &[LinkId] {
        match &self.srcs[node] {
            Src::Transit(t) => self.stored(row, *t),
            Src::Folded { up, top } => {
                if *top == row || !self.stored(row, *top).is_empty() {
                    slice::from_ref(up)
                } else {
                    &[]
                }
            }
        }
    }

    /// The transit index of the node `hop` goes to, which is transit
    /// whenever `hop` is a stored next hop.
    fn transit_at(&self, hop: LinkId) -> u32 {
        self.srcs[self.link_to[hop.0 as usize].0 as usize].top()
    }

    /// The equal-cost next hops from `node` toward `dest`: climb `dest`'s
    /// gateway chain until the gateway's link, a stub's link or a root's
    /// row answers (module doc).
    #[inline]
    fn entry(&self, node: NodeId, dest: NodeId) -> &[LinkId] {
        let node = node.0 as usize;
        let mut at = dest.0 as usize;
        if node == at {
            return &[];
        }
        loop {
            match &self.dests[at] {
                Dest::Row(row) => return self.row_entry(*row, node),
                Dest::Via { gateway, link } => {
                    if node == *gateway as usize {
                        return slice::from_ref(link);
                    }
                    if let Some(s) = &self.stubs[node] {
                        if s.peer as usize == at {
                            return slice::from_ref(&s.link);
                        }
                    }
                    at = *gateway as usize;
                }
            }
        }
    }

    /// Next link from `node` toward `dest` for a flow with the given
    /// precomputed [`flow_hash`](RoutingTable::flow_hash): the entry's
    /// hash-picked ECMP member. `None` if unreachable (or
    /// `node == dest`).
    #[inline]
    pub fn next_hop(&self, node: NodeId, dest: NodeId, hash: u64) -> Option<LinkId> {
        match self.entry(node, dest) {
            [] => None,
            [only] => Some(*only),
            set => Some(set[(hash % set.len() as u64) as usize]),
        }
    }

    /// Number of equal-cost next hops from `node` toward `dest`
    /// (0 = unreachable).
    pub fn ecmp_width(&self, node: NodeId, dest: NodeId) -> usize {
        self.entry(node, dest).len()
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
            assert!(hops <= MAX_HOPS, "routing loop {src:?} -> {dst:?}");
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

    /// Whether `s` reaches `d` through `d`'s gateway chain below its
    /// root: `s` is a folded chain node or a stub of one. Every other
    /// source walks to the root first.
    fn enters_chain(&self, s: usize, d: usize) -> bool {
        let mut at = d;
        while let Dest::Via { gateway, .. } = self.dests[at] {
            if s == at || matches!(self.stubs[s], Some(q) if q.peer as usize == at) {
                return true;
            }
            at = gateway as usize;
        }
        false
    }

    /// How many of the routes between `hosts` cross each link, indexed
    /// by `LinkId`: exactly the counts that calling
    /// [`for_each_hop`](RoutingTable::for_each_hop) for every ordered
    /// pair `i != j` of `hosts[i] → hosts[j]` with flow `flow_of(i, j)`
    /// would add up. Panics if a pair has no route, naming it as
    /// `for_each_hop` would.
    ///
    /// A route to a folded destination `d` is the walk from its source
    /// to `d`'s root, then the fixed chain down to `d` (module doc) —
    /// unless the source sits on that chain or is a stub of a chain
    /// node, where it joins the chain directly. A walk to a root is the
    /// source's fixed up-chain to its transit ancestor, then a walk in
    /// the root's row. So each chain link is counted once per
    /// destination, each stub link and up-chain once per source, and
    /// each transit ancestor's walk to a root once with the number of
    /// walks it carries as weight: only the walks' ECMP prefixes are
    /// followed pair by pair.
    pub fn count_pair_paths(
        &self,
        hosts: &[NodeId],
        flow_of: impl Fn(usize, usize) -> FlowId,
    ) -> Vec<u64> {
        let n = self.dests.len();
        let h = hosts.len() as u64;
        let node = |i: usize| hosts[i].0 as usize;
        let mut count = vec![0u64; self.link_to.len()];
        // Host indices at each node, and at each node's stubs.
        let mut hosts_at = vec![0u64; n];
        let mut stub_hosts_at = vec![0u64; n];
        for i in 0..hosts.len() {
            hosts_at[node(i)] += 1;
            if let Some(q) = self.stubs[node(i)] {
                stub_hosts_at[q.peer as usize] += 1;
            }
        }
        // Chain links. `d`'s chain is `x_0 = d`, `x_1` its gateway, and
        // so on up to the root. A source joins it at or below `x_k` when
        // it is one of `x_0..x_k` or a stub of one; every other source
        // (`h - below` of them) crosses `x_k`'s gateway link.
        // `through[x]` counts the destinations whose chain passes `x`.
        let mut through = vec![0u64; n];
        let mut root_of = Vec::with_capacity(hosts.len());
        for j in 0..hosts.len() {
            let (mut x, mut below, mut prev) = (node(j), 0, None::<usize>);
            loop {
                match self.dests[x] {
                    Dest::Row(row) => break root_of.push(row),
                    Dest::Via { gateway, link } => {
                        through[x] += 1;
                        below += hosts_at[x] + stub_hosts_at[x];
                        // The node below on the chain, if it is a stub
                        // of `x`, is already counted.
                        if let Some(p) = prev {
                            if matches!(self.stubs[p], Some(q) if q.peer as usize == x) {
                                below -= hosts_at[p];
                            }
                        }
                        count[link.0 as usize] += h - below;
                        prev = Some(x);
                        x = gateway as usize;
                    }
                }
            }
        }
        let folded = |x: usize| matches!(self.dests[x], Dest::Via { .. });
        let root_row = |mut x: usize| loop {
            match self.dests[x] {
                Dest::Row(row) => break row,
                Dest::Via { gateway, .. } => x = gateway as usize,
            }
        };
        // Stub links, and per source the destinations whose chain it
        // joins (all under one root). A folded stub's gateway is its
        // peer, so its own chains are among its peer's.
        let mut joins = Vec::with_capacity(hosts.len());
        for i in 0..hosts.len() {
            let s = node(i);
            let own = if folded(s) { through[s] } else { 0 };
            joins.push(match self.stubs[s] {
                Some(q) if folded(q.peer as usize) => {
                    let peer = q.peer as usize;
                    count[q.link.0 as usize] += through[peer] - own;
                    (root_row(peer), through[peer])
                }
                _ => (root_row(s), own),
            });
        }
        // Up-chains: every walk of a source to a root (`h - joined` of
        // them) starts with it, and the walk goes on from the source's
        // transit ancestor.
        let mut tops = Vec::with_capacity(hosts.len());
        let mut sources_at = vec![0u64; self.transit];
        for (i, &(_, joined)) in joins.iter().enumerate() {
            let mut x = node(i);
            while let Src::Folded { up, .. } = self.srcs[x] {
                count[up.0 as usize] += h - joined;
                x = self.link_to[up.0 as usize].0 as usize;
            }
            let top = self.srcs[x].top();
            sources_at[top as usize] += 1;
            tops.push(top);
        }
        // Walks to each root: destinations grouped by root, and the
        // sources whose joined destinations sit under each root.
        let mut by_root: Vec<usize> = (0..hosts.len()).collect();
        by_root.sort_by_key(|&j| root_of[j]);
        let mut by_join: Vec<usize> = (0..hosts.len()).collect();
        by_join.sort_by_key(|&i| joins[i].0);
        let mut weight = vec![0u64; self.transit];
        let mut free = vec![false; self.transit];
        for group in by_root.chunk_by(|&a, &b| root_of[a] == root_of[b]) {
            let row = root_of[group[0]];
            // Every source walks to each destination of the group but
            // the ones whose chain it joins.
            for (w, &sources) in weight.iter_mut().zip(&sources_at) {
                *w = sources * group.len() as u64;
            }
            let joiners = by_join.partition_point(|&i| joins[i].0 < row)
                ..by_join.partition_point(|&i| joins[i].0 <= row);
            for &i in &by_join[joiners] {
                weight[tops[i] as usize] -= joins[i].1;
            }
            // Whether a node's walk to the root takes one fixed next hop
            // at every node, so no flow hash can change it; nearest
            // first, so each next hop is settled before its node. The
            // walks from a node that is not are followed pair by pair.
            let order = &self.order[row as usize * self.transit..][..self.transit];
            for &x in order {
                let i = x as usize;
                free[i] = x == row
                    || matches!(self.stored(row, x), [only] if free[self.transit_at(*only) as usize]);
                if !free[i] {
                    weight[i] = 0;
                }
            }
            // The ECMP prefix (or the missing route) of each such walk,
            // up to a hash-free node; no source has one when every node
            // is hash-free.
            let sources = if free.contains(&false) {
                &tops[..]
            } else {
                &[]
            };
            for (i, &t) in sources.iter().enumerate() {
                if free[t as usize] {
                    continue;
                }
                for &j in group {
                    if self.enters_chain(node(i), node(j)) {
                        continue;
                    }
                    let hash = Self::flow_hash(flow_of(i, j));
                    let (mut x, mut hops) = (t, 0);
                    while !free[x as usize] {
                        let set = self.stored(row, x);
                        // Only a walk's first node can be cut off from
                        // the root, and a folded source is cut off
                        // exactly when its transit ancestor is.
                        if set.is_empty() {
                            panic!("no route {:?} -> {:?}", hosts[i], hosts[j]);
                        }
                        let hop = set[(hash % set.len() as u64) as usize];
                        count[hop.0 as usize] += 1;
                        x = self.transit_at(hop);
                        hops += 1;
                        assert!(
                            hops <= MAX_HOPS,
                            "routing loop {:?} -> {:?}",
                            hosts[i],
                            hosts[j]
                        );
                    }
                    weight[x as usize] += 1;
                }
            }
            // Every weighted node's fixed walk to the root, farthest
            // first, so each node hands on its weight once.
            for &x in order.iter().rev() {
                let w = weight[x as usize];
                if w > 0 && x != row {
                    let hop = self.stored(row, x)[0];
                    count[hop.0 as usize] += w;
                    weight[self.transit_at(hop) as usize] += w;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::{Dest, Src};
    use crate::{FlowId, LinkId, Network, NodeId, RoutingTable, TraceLevel};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use ups_sim::{Bandwidth, Dur};

    /// The panic message of `r`, which must have panicked.
    fn message(r: std::thread::Result<()>) -> String {
        *r.expect_err("must panic")
            .downcast::<String>()
            .expect("formatted panic message")
    }

    #[test]
    fn visitor_and_resolve_path_refuse_an_unreachable_pair_alike() {
        // a <-> b, and c with a link out but none in.
        let mut net = Network::new(TraceLevel::Off);
        let (a, b, c) = (net.add_host("a"), net.add_host("b"), net.add_host("c"));
        net.add_duplex(a, b, Bandwidth::gbps(1), Dur::from_micros(1));
        net.add_link(c, a, Bandwidth::gbps(1), Dur::from_micros(1));
        let rt = net.compute_routes();
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
    fn pair_counting_and_the_visitor_refuse_an_unreachable_host_pair_alike() {
        // Core routers r0 <-> r1, an edge router and a host behind each
        // (so both hosts resolve through gateway chains), and a host v
        // behind r1 on an ECMP pair of links (so its walks are followed
        // pair by pair). Nothing reaches host u (a link out to r0, none
        // in) or host w, whose edge router has a link out to r0 and none
        // in: u is a root, w resolves through its edge router's row.
        let mut net = Network::new(TraceLevel::Off);
        let (r0, r1) = (net.add_router("r0"), net.add_router("r1"));
        net.add_duplex(r0, r1, Bandwidth::gbps(1), Dur::from_micros(10));
        let mut hosts = Vec::new();
        for core in [r0, r1] {
            let edge = net.add_router("edge");
            let host = net.add_host("host");
            net.add_duplex(edge, core, Bandwidth::gbps(1), Dur::from_micros(5));
            net.add_duplex(host, edge, Bandwidth::gbps(1), Dur::from_micros(1));
            hosts.push(host);
        }
        let v = net.add_host("v");
        for _ in 0..2 {
            net.add_duplex(v, r1, Bandwidth::gbps(1), Dur::from_micros(1));
        }
        let u = net.add_host("u");
        net.add_link(u, r0, Bandwidth::gbps(1), Dur::from_micros(1));
        let (edge, w) = (net.add_router("edge"), net.add_host("w"));
        net.add_link(edge, r0, Bandwidth::gbps(1), Dur::from_micros(5));
        net.add_duplex(w, edge, Bandwidth::gbps(1), Dur::from_micros(1));
        let rt = net.compute_routes();
        assert_eq!(rt.ecmp_width(v, r1), 2);
        assert!(matches!(rt.dests[w.0 as usize], Dest::Via { .. }));
        // Each list has one unreachable ordered pair, some host -> bad,
        // counted once or twice.
        for bad in [u, w] {
            for list in [
                vec![hosts[0], bad],
                vec![bad, hosts[1]],
                vec![v, bad],
                vec![bad, v, bad],
            ] {
                let (src, flow) = (list[usize::from(list[0] == bad)], FlowId(1));
                let walked = message(catch_unwind(AssertUnwindSafe(|| {
                    rt.for_each_hop(src, bad, flow, |_| {})
                })));
                let counted = message(catch_unwind(AssertUnwindSafe(|| {
                    rt.count_pair_paths(&list, |_, _| flow);
                })));
                assert_eq!(walked, format!("no route {src:?} -> {bad:?}"));
                assert_eq!(counted, walked, "{list:?}");
            }
        }
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
        rt.entry(NodeId(node as u32), NodeId(dest as u32))
    }

    /// How many destinations run Dijkstra.
    fn roots(rt: &RoutingTable) -> usize {
        rt.dests
            .iter()
            .filter(|d| matches!(d, Dest::Row(_)))
            .count()
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
        assert_eq!(roots(&rt), 3);
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
        use ups_topo::{default_level, fattree, internet2, rocketfuel};
        // `default_level()`: the builders take the library build's
        // `TraceLevel`, which this test build of the crate cannot name.
        // Expected roots and transit nodes: the core routers of the WAN
        // maps; every switch of the fat-tree, whose edge switches have
        // four uplinks.
        let builds = [
            (
                internet2::build(&internet2::I2Config::default(), default_level()),
                10,
            ),
            (
                rocketfuel::build(&rocketfuel::RocketFuelConfig::full(), default_level()),
                83,
            ),
            (
                fattree::build(&fattree::FatTreeConfig::for_k(8), default_level()),
                80,
            ),
        ];
        for (topo, cores) in builds {
            // The builder wired the library build of this crate; rewire
            // its graph here to reach the table's private fields.
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
            let folded = net.compute_routes();
            for node in &net.nodes {
                let i = node.id.0 as usize;
                let via = matches!(folded.dests[i], Dest::Via { .. });
                let access = node.is_host() || node.name.starts_with("edge:");
                assert_eq!(via, access, "{} in {}", node.name, topo.name);
                let source = matches!(folded.srcs[i], Src::Folded { .. });
                assert_eq!(source, access, "{} in {}", node.name, topo.name);
            }
            assert_eq!(roots(&folded), cores, "{}", topo.name);
            assert_eq!(folded.transit, cores, "{}", topo.name);
            assert_eq!(folded.off.len(), cores * cores + 1, "{}", topo.name);

            // Folding changes no entry: an unreachable zero-cost pair of
            // extra nodes turns it off for the whole graph.
            let (x, y) = (net.add_router("x"), net.add_router("y"));
            net.add_duplex(x, y, Bandwidth::INFINITE, Dur::ZERO);
            let plain = net.compute_routes();
            assert_eq!(roots(&plain), n + 2);
            assert_eq!(plain.transit, n + 2);
            for dest in 0..n {
                for node in 0..n {
                    assert_eq!(entry(&folded, node, dest), entry(&plain, node, dest));
                }
            }
        }
    }

    #[test]
    fn an_edge_router_whose_host_is_a_root_stays_transit() {
        // The host added before its edge router: the host's gateway would
        // be the edge router, which has the higher index, so the host is
        // a root. It is still the edge router's stub, so the edge router
        // folds as a destination but not as a source. A second core
        // router keeps the first from being the edge router's stub too.
        let mut net = Network::new(TraceLevel::Off);
        let (core, other) = (net.add_router("core"), net.add_router("other"));
        net.add_duplex(core, other, Bandwidth::gbps(1), Dur::from_micros(20));
        let host = net.add_host("host");
        let edge = net.add_router("edge");
        let (up, _) = net.add_duplex(edge, core, Bandwidth::gbps(1), Dur::from_micros(20));
        let (_, down) = net.add_duplex(host, edge, Bandwidth::gbps(10), Dur::from_micros(5));
        let rt = net.compute_routes();
        let (other, host, edge) = (other.0 as usize, host.0 as usize, edge.0 as usize);
        assert!(matches!(rt.dests[host], Dest::Row(_)));
        assert!(matches!(rt.dests[edge], Dest::Via { .. }));
        assert!(matches!(rt.srcs[edge], Src::Transit(_)));
        assert_eq!((roots(&rt), rt.transit), (2, 3));
        assert_eq!(entry(&rt, edge, host), [down]);
        assert_eq!(entry(&rt, edge, other), [up]);
    }
}
