//! `ups-net` — the store-and-forward network model (the ns-2 substitute).
//!
//! A [`Network`] is a set of [`Node`]s connected by unidirectional
//! [`Link`]s. Each link is an output port: a byte-accounted buffer ordered
//! by a pluggable [`Scheduler`], plus a (by default non-preemptive)
//! transmitter. Packets are source-routed along immutable [`Path`]s, which
//! mirrors the paper's formal model where `path(p)` is part of the input.
//!
//! What this crate deliberately does **not** contain: scheduling
//! algorithms beyond baseline FIFO (see `ups-sched`), topologies (see
//! `ups-topo`), transport protocols (see `ups-transport`), and the
//! replay/universality machinery (see `ups-core`).

// The one crate that may not `forbid(unsafe_code)` (the packet prefetch
// hint): every `unsafe` block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]
// A panic here aborts a whole sweep: each remaining `expect` guards an
// invariant and carries its own `allow` with the reason.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod chaos;
pub mod fifo;
pub mod link;
pub mod network;
pub mod node;
pub mod packet;
pub mod routing;
pub mod scheduler;
pub mod source;
pub mod testutil;
pub mod trace;

pub use chaos::{ChaosPolicy, ChaosTotals, JamSpec};
pub use fifo::Fifo;
pub use link::{Link, LinkStats, PortActions};
pub use network::{App, LinkPolicy, Network};
pub use node::{Node, NodeKind};
pub use packet::{FlowId, LinkId, NodeId, Packet, PacketId, PacketKind, Path, SchedHeader};
pub use routing::RoutingTable;
pub use scheduler::{EvictOutcome, Queued, Scheduler};
pub use source::{InjectSource, Injection};
pub use trace::{Counters, HopTimes, HopTx, PacketRecord, Telemetry, TraceLevel};
