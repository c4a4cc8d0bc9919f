//! Nodes (hosts and routers).
//!
//! A node is a name, a kind and its output ports. Routing state lives
//! in the network-wide [`crate::RoutingTable`]
//! ([`crate::network::Network::compute_routes`]): the paper's model
//! takes `path(p)` as part of the input, so packets are source-routed
//! along paths resolved from that table at injection time.

use crate::packet::{LinkId, NodeId};

/// Whether a node sources/sinks traffic or only forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End host: packets originate and terminate here.
    Host,
    /// Store-and-forward router.
    Router,
}

/// A network node.
#[derive(Debug)]
pub struct Node {
    /// Dense id (index into `Network::nodes`).
    pub id: NodeId,
    /// Human-readable name (topology builders set e.g. `"core:CHIC"`).
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
    /// Outgoing links, in creation order.
    pub out_links: Vec<LinkId>,
}

impl Node {
    /// Create a node with no links.
    pub fn new(id: NodeId, name: String, kind: NodeKind) -> Node {
        Node {
            id,
            name,
            kind,
            out_links: Vec::new(),
        }
    }

    /// True if this node is an end host.
    pub fn is_host(&self) -> bool {
        self.kind == NodeKind::Host
    }
}
