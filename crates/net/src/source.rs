//! Pull sources: open-loop input that exists from the instant it is sent.
//!
//! The replay method needs the *same open-loop input* in the original
//! and the replay run. An [`InjectSource`] is that input as a cursor:
//! it knows every packet it will ever send, in a fixed **source order**,
//! and hands each one over only when the clock reaches its send
//! instant. The network holds one source at a time and keeps exactly
//! one pending feeder event for it, so a leg of 190 k packets costs the
//! event wheel one entry, and only the packets actually in the network
//! exist as `Packet`s.
//!
//! # What is eager, what is lazy
//!
//! *At registration* ([`Network::attach_source`](crate::Network::attach_source)
//! / [`Network::run_source`](crate::Network::run_source)) the network
//! reserves a dense block of [`PacketId`](crate::PacketId)s — packet
//! `k` of the source (its **source index**) gets id `base + k` — and,
//! unless tracing is off, appends the source's
//! [`records`](InjectSource::records) to `telemetry.packets`, so
//! `telemetry.packets[id]` is addressable from the start and in source
//! order (replay scoring zips it against the recorded schedule).
//!
//! *When the feeder fires* at instant `t`, every packet due at `t` is
//! pulled in source order, stamped, boxed and put **at the front of
//! that instant's arrival batch**; only then do the forwarded arrivals
//! of `t` join the batch, and the feeder is re-armed at
//! [`next_at`](InjectSource::next_at). The per-hop record buffer,
//! the `Box<Packet>` and its arrival are the lazy parts.
//!
//! # Why this is the order bulk pre-loading produced
//!
//! Pre-loading pushed one `Arrive` per packet before the first event
//! popped, so those arrivals carried the lowest push sequence numbers
//! of the run: at any instant they popped ahead of every forwarded
//! arrival (same class, higher sequence), in push order — which was
//! source order — and shared one same-instant batch with them. The
//! feeder's class sits directly below `ARRIVE`, so it pops at `t`
//! before any arrival of `t`; it yields in `(send instant, source
//! index)` order; and its packets enter the same batch scratch the
//! arrivals drain into. Same members, same order, same batch — hence
//! the same scheduler decisions, to the picosecond.
//! `tests/streaming_injection.rs` holds the two equal on random inputs.
//!
//! One tie is decided differently, on purpose: a source registered
//! while forwarded arrivals are already in the air leads them at an
//! equal instant, where a pre-load at that moment would have queued
//! behind them. No caller registers mid-flight.

use crate::packet::{FlowId, NodeId, PacketKind, Path, SchedHeader};
use crate::trace::PacketRecord;
use std::sync::Arc;
use ups_sim::Time;

/// One packet handed over by an [`InjectSource`] at its send instant.
#[derive(Debug)]
pub struct Injection {
    /// Position of this packet in the source's registration order; the
    /// network adds the id base it reserved at registration.
    pub index: u64,
    /// Flow id.
    pub flow: FlowId,
    /// Sequence within the flow.
    pub seq: u64,
    /// Wire size in bytes.
    pub size: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Fixed route.
    pub path: Arc<Path>,
    /// Scheduling header, stamped now.
    pub hdr: SchedHeader,
    /// Transport classification.
    pub kind: PacketKind,
}

/// A cursor over open-loop input (see the module docs for the contract
/// the network builds on it).
///
/// Implementations keep O(flows) or a few bytes per packet of ordering
/// state — never the packets themselves.
pub trait InjectSource: std::fmt::Debug {
    /// How many packets this source sends in total. Fixed at
    /// registration; source indices are `0..packets()`.
    fn packets(&self) -> u64;

    /// Append one pending [`PacketRecord`] per packet, in source-index
    /// order. Called once, at registration, when tracing is on; must
    /// append exactly [`packets`](InjectSource::packets) records.
    fn records(&self, out: &mut Vec<PacketRecord>);

    /// Send instant of the next packet, `None` once exhausted. Never
    /// decreases between calls.
    fn next_at(&self) -> Option<Time>;

    /// Hand over the next packet if it is due at `now`. Packets due at
    /// one instant come out in ascending source index.
    fn pull_due(&mut self, now: Time) -> Option<Injection>;
}
