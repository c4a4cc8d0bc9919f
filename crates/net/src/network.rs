//! The network: nodes, links, the event loop, and the application hook.
//!
//! This is the ns-2 replacement. A [`Network`] owns every node and link,
//! a deterministic future-event list, and per-packet telemetry. Four
//! event kinds drive everything, ordered by class within an instant:
//!
//! * `Inject` — the feeder of the registered [`InjectSource`]: every
//!   open-loop packet due now enters the network at the front of this
//!   instant's arrivals (see [`crate::source`]);
//! * `Arrive` — a packet has fully arrived at a node (store-and-forward:
//!   forwarding decisions happen only on complete packets);
//! * `Timer` — an application timer (TCP retransmission, flow arrivals);
//! * `TxDone` — a link finished serializing a packet.
//!
//! Transmission starts are not events (see *One start rule* below).
//!
//! Applications ([`App`]) attach to host nodes and may inject packets and
//! set timers; the replay experiments instead register an open-loop
//! [`InjectSource`] that the network pulls from as the clock advances.
//!
//! # One arrival path
//!
//! [`Network::step`] handles one event, except that an instant's arrivals
//! are one step: the first `Arrive` to pop (or the feeder, whose packets
//! go first) drains every further same-instant `Arrive`, and the list is
//! walked in pop order, each packet delivered or admitted to its port by
//! [`Link::admit`] — the port mutations a one-event-at-a-time loop makes,
//! in its order, since admission never touches the event queue.
//!
//! # One start rule
//!
//! A port that wants to transmit joins a start list (a per-link flag
//! dedups it) and starts once its instant has settled: at the end of a
//! step whose next event is later, or is a sampling tick. So a port
//! choosing what to send at `t` sees every packet that has arrived by
//! `t`, as the paper's formal model assumes, whatever app, timer or
//! chaos policy is present. Infinite-bandwidth "wire" ports start
//! first, one at a time: a wire completes at the instant it starts, and
//! that completion — and the packet it cascades through zero-delay hops
//! to its next real queue — must be processed before any port there
//! picks what to send. Then every finite port starts, in the order each
//! first wanted a start. A packet of H hops costs 2H + 1 events: its
//! source arrival, then a `TxDone` and an `Arrive` per hop.
//! `tests/forwarding_equivalence.rs` holds this loop to a naive one
//! written in the test (one heap event per pop, boxed packets, every
//! start its own event) on random topologies under every scheduler.

use crate::chaos::{self, ChaosPhase, ChaosPolicy, ChaosTotals};
use crate::link::Link;
use crate::node::{Node, NodeKind};
use crate::packet::{
    prefetch_packet, FlowId, LinkId, NodeId, Packet, PacketId, PacketKind, Path, SchedHeader,
};
use crate::routing::RoutingTable;
use crate::scheduler::Scheduler;
use crate::source::{InjectSource, Injection};
use crate::trace::{Telemetry, TraceLevel};
use std::collections::VecDeque;
use std::mem::ManuallyDrop;
use std::sync::Arc;
use ups_obs::{NetSeries, SamplePoint};
use ups_sim::{Bandwidth, Dur, EventQueue, Time};

/// Simulation events, in same-instant ordering-class order: chaos
/// transitions settle first, then the injection feeder, forwarded
/// arrivals, application timers and transmission completions; the
/// instant's transmission starts follow them all (see the module docs),
/// so a port choosing what to send at time `t` sees every packet that
/// has arrived by `t`, as the paper's formal model assumes, and a
/// failure at `t` is in force before anything else happens at `t`.
///
/// `Arrive` owns its packet: a packet is one `Box<Packet>` from send to
/// delivery, moved between events, port queues and transmitters, so a
/// hop allocates nothing and the event stays 16 bytes (as `TxDone`).
/// The box is a [`ManuallyDrop`] so `Ev` has no drop glue, which cost
/// the event loop about 10% on the fat-tree benchmark rows (2-core
/// x86-64): each popped arrival is unwrapped, and [`Network`]'s `Drop`
/// frees those still pending.
#[derive(Debug)]
enum Ev {
    /// The registered [`InjectSource`] has packets due now. At most one
    /// is pending; it re-arms itself at the source's next instant.
    Inject,
    /// Packet fully arrived at `node` (injection or store-and-forward hop).
    Arrive {
        node: NodeId,
        pkt: ManuallyDrop<Box<Packet>>,
    },
    /// Application timer at `node`.
    Timer { node: NodeId, id: u64 },
    /// Link `link` finished the transmission tagged `gen`.
    TxDone { link: LinkId, gen: u64 },
    /// Chaos-layer state transition for `link` (see [`crate::chaos`];
    /// exists only when [`Network::install_chaos`] compiled a policy).
    Chaos { link: LinkId, phase: ChaosPhase },
    /// Telemetry sampling tick (see [`Network::enable_sampling`]).
    Observe,
}

/// Event ordering classes (see [`Ev`]). Starts have no class: an
/// instant's starts run once no data-plane class is left at it.
mod class {
    /// Chaos-layer transitions settle before any same-instant data-plane
    /// event, so a failure or jam at `t` is in force for every arrival
    /// and completion at `t`. Chaos events exist only when a policy is
    /// installed; the class shift below is uniform, so chaos-free runs
    /// pop in exactly the pre-chaos relative order.
    pub const CHAOS: u8 = 0;
    /// The injection feeder pops directly before the arrivals of its
    /// instant — nothing may sit between the two — so the packets it
    /// pulls lead that instant's arrival batch (the order contract of
    /// [`crate::source`]).
    pub const INJECT: u8 = 1;
    pub const ARRIVE: u8 = 2;
    pub const TIMER: u8 = 3;
    pub const TX_DONE: u8 = 4;
    /// Telemetry sampling pops *after every data-plane class* at an
    /// instant, and so after the instant's starts: an observation sees
    /// the settled state of time `t` and can never reorder data-plane
    /// pops — the invariant that keeps artifacts byte-identical with
    /// sampling on.
    pub const OBSERVE: u8 = 5;
}

/// A packet entering the network at `at`, nothing traversed yet.
fn new_packet(id: PacketId, at: Time, inj: Injection) -> Box<Packet> {
    Box::new(Packet {
        id,
        flow: inj.flow,
        seq: inj.seq,
        size: inj.size,
        tx_left: Dur::ZERO,
        src: inj.src,
        dst: inj.dst,
        created: at,
        path: inj.path,
        hops_done: 0,
        hdr: inj.hdr,
        kind: inj.kind,
        qdelay: Dur::ZERO,
        hop_first_tx: at,
    })
}

/// An application endpoint attached to a host node.
///
/// Methods receive `&mut Network` so they can inject packets and arm
/// timers; the app itself is temporarily detached during the callback, so
/// it cannot reentrantly reach its own slot.
pub trait App: std::fmt::Debug + Send {
    /// A packet addressed to this host arrived.
    fn on_deliver(&mut self, net: &mut Network, node: NodeId, pkt: &Packet);
    /// A timer armed with [`Network::set_timer`] fired.
    fn on_timer(&mut self, net: &mut Network, node: NodeId, id: u64);
}

/// Declarative per-link configuration, applied through
/// [`Network::configure_links`]. Every field defaults to "keep the
/// link's current setting"; builder methods opt individual knobs in.
///
/// One composable value, so an experiment states its whole port policy
/// in a single closure:
///
/// ```ignore
/// net.configure_links(|l| {
///     LinkPolicy::keep()
///         .scheduler(make_sched(l.id))
///         .buffer(None)
///         .preemptive(true)
/// });
/// ```
#[derive(Debug, Default)]
pub struct LinkPolicy {
    scheduler: Option<Box<dyn Scheduler>>,
    buffer: Option<Option<u64>>,
    preemptive: Option<bool>,
}

impl LinkPolicy {
    /// A policy that changes nothing (the identity element).
    pub fn keep() -> LinkPolicy {
        LinkPolicy::default()
    }

    /// Install this scheduler (panics later if the link is busy, as
    /// [`Link::set_scheduler`] does).
    pub fn scheduler(mut self, sched: Box<dyn Scheduler>) -> LinkPolicy {
        self.scheduler = Some(sched);
        self
    }

    /// Set the buffer capacity in bytes; `None` = unbounded.
    pub fn buffer(mut self, bytes: Option<u64>) -> LinkPolicy {
        self.buffer = Some(bytes);
        self
    }

    /// Enable or disable preemptive transmission.
    pub fn preemptive(mut self, on: bool) -> LinkPolicy {
        self.preemptive = Some(on);
        self
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    /// All nodes; `NodeId` indexes this vector.
    pub nodes: Vec<Node>,
    /// All unidirectional links; `LinkId` indexes this vector.
    pub links: Vec<Link>,
    /// Telemetry sink.
    pub telemetry: Telemetry,
    queue: EventQueue<Ev>,
    apps: Vec<Option<Box<dyn App>>>,
    next_pkt_id: u64,
    /// The attached injection source, while it has packets left to send
    /// (a source lent through [`Network::run_source`] is never stored).
    source: Option<Box<dyn InjectSource + Send>>,
    /// Packet id of the registered source's index 0.
    source_base: u64,
    /// A feeder [`Ev::Inject`] is pending, i.e. the registered source
    /// has packets left to send.
    feeding: bool,
    /// Forwarding state; `Some` once `compute_routes` has run.
    routing: Option<Arc<RoutingTable>>,
    /// Scratch for the arrivals of one instant, in pop order.
    arrive_scratch: Vec<(NodeId, Box<Packet>)>,
    /// Infinite-bandwidth ports that want a start at the current
    /// instant, in first-want order; they start first, one at a time.
    wire_starts: VecDeque<LinkId>,
    /// Finite-bandwidth ports that want a start at the current instant,
    /// in first-want order; they start together after the wires.
    starts: Vec<LinkId>,
    /// Deterministic state sampler, when enabled (see
    /// [`Network::enable_sampling`]). Sampling is read-only over links
    /// and counters — it mutates no data-plane state and is not
    /// counted in [`Counters::events`](crate::Counters).
    sampler: Option<NetSeries>,
}

impl Network {
    /// Create an empty network recording at the given level. It samples
    /// only once [`Network::enable_sampling`] is called.
    ///
    /// Compatibility path: if the hidden process-wide cadence
    /// (`ups_obs::set_sample_interval`) is set, sampling starts enabled
    /// at it. Only the repo benchmark's closed-loop sampling pass sets
    /// it; ROADMAP item 7b deletes this read with the global.
    pub fn new(level: TraceLevel) -> Network {
        let mut net = Network {
            nodes: Vec::new(),
            links: Vec::new(),
            telemetry: Telemetry::new(level),
            queue: EventQueue::new(),
            apps: Vec::new(),
            next_pkt_id: 0,
            source: None,
            source_base: 0,
            feeding: false,
            routing: None,
            arrive_scratch: Vec::new(),
            wire_starts: VecDeque::new(),
            starts: Vec::new(),
            sampler: None,
        };
        if let Some(interval) = ups_obs::sample_interval() {
            net.enable_sampling(interval);
        }
        net
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Add a node.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, name.into(), kind));
        self.apps.push(None);
        self.routing = None;
        id
    }

    /// Add a host node.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Host)
    }

    /// Add a router node.
    pub fn add_router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name, NodeKind::Router)
    }

    /// Add a unidirectional link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, bw: Bandwidth, prop: Dur) -> LinkId {
        assert_ne!(from, to, "self-loop link");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, from, to, bw, prop));
        self.nodes[from.0 as usize].out_links.push(id);
        self.routing = None;
        id
    }

    /// Add a bidirectional link (two unidirectional links).
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        bw: Bandwidth,
        prop: Dur,
    ) -> (LinkId, LinkId) {
        (self.add_link(a, b, bw, prop), self.add_link(b, a, bw, prop))
    }

    /// Apply a [`LinkPolicy`] to every link. The closure sees each link
    /// (id, endpoints, current settings) and returns what to change;
    /// [`LinkPolicy::keep`] leaves a link untouched.
    pub fn configure_links(&mut self, mut policy: impl FnMut(&Link) -> LinkPolicy) {
        for i in 0..self.links.len() {
            let p = policy(&self.links[i]);
            let l = &mut self.links[i];
            if let Some(sched) = p.scheduler {
                l.set_scheduler(sched);
            }
            if let Some(bytes) = p.buffer {
                l.buffer = bytes;
            }
            if let Some(on) = p.preemptive {
                l.preemptive = on;
            }
        }
    }

    /// Install a chaos perturbation layer (see [`crate::chaos`]): the
    /// closure is consulted once per link, in link-id order, and returns
    /// the [`ChaosPolicy`] to compile for that link — or `None` to leave
    /// it untouched. Every failure and jamming window up to `horizon` is
    /// compiled into explicit events in the dedicated chaos class right
    /// here, so the run is a pure function of `(topology, workload,
    /// policy, horizon)`; the i.i.d. wire-loss stream is forked per link
    /// from the policy seed, independent of every workload RNG.
    pub fn install_chaos(
        &mut self,
        horizon: Time,
        mut policy: impl FnMut(&Link) -> Option<ChaosPolicy>,
    ) {
        for i in 0..self.links.len() {
            let Some(p) = policy(&self.links[i]) else {
                continue;
            };
            let lid = self.links[i].id;
            let (state, events) = chaos::compile(&p, lid, horizon);
            for (t, phase) in events {
                self.queue
                    .push(t, class::CHAOS, Ev::Chaos { link: lid, phase });
            }
            self.links[i].chaos = Some(Box::new(state));
        }
    }

    /// Attach an application to a host node.
    pub fn attach_app(&mut self, node: NodeId, app: Box<dyn App>) {
        assert!(
            self.nodes[node.0 as usize].is_host(),
            "apps attach to hosts only"
        );
        self.apps[node.0 as usize] = Some(app);
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Compute shortest-path next hops for every (node, destination)
    /// pair, straight into a [`RoutingTable`]. Link cost = propagation
    /// delay + transmission time of a 1500-byte packet; equal-cost next
    /// hops form a deterministic ECMP set.
    ///
    /// The returned handle is the injection API's proof that routes
    /// exist: [`Network::inject`] takes `&RoutingTable`, so injecting
    /// before routing is a compile-time error. The handle is also kept
    /// internally (see [`Network::routing`]) for applications that
    /// resolve paths at run time.
    #[must_use = "injection consumes the routing handle"]
    pub fn compute_routes(&mut self) -> Arc<RoutingTable> {
        let table = Arc::new(RoutingTable::shortest_paths(self.nodes.len(), &self.links));
        self.routing = Some(Arc::clone(&table));
        table
    }

    /// A fresh network over the same nodes and links: new event queue
    /// and telemetry (same [`TraceLevel`]), every port at its
    /// construction default (FIFO, unbounded, non-preemptive, no chaos,
    /// zeroed stats), no applications — and the same routing table,
    /// shared. Equal to wiring the network a second time.
    pub fn rewired(&self) -> Network {
        let mut net = Network::new(self.telemetry.level);
        for node in &self.nodes {
            net.add_node(node.name.clone(), node.kind);
        }
        for l in &self.links {
            net.add_link(l.from, l.to, l.bw, l.prop);
        }
        net.routing = self.routing.clone();
        net
    }

    /// The routing table. Panics if [`Network::compute_routes`]
    /// has not run (or the topology changed since): run-time path
    /// resolution (e.g. a transport opening a reverse path) goes through
    /// this accessor.
    // A missing table is a caller bug (routes are computed before any
    // packet is injected), not a run-time condition.
    #[allow(clippy::expect_used)]
    pub fn routing(&self) -> &Arc<RoutingTable> {
        self.routing
            .as_ref()
            .expect("compute_routes() before routing()")
    }

    // ------------------------------------------------------------------
    // Injection and timers
    // ------------------------------------------------------------------

    /// Inject one packet at `at` (≥ now) on an explicit path, as its
    /// own pre-scheduled arrival. For transports that send at `now` and
    /// for hand-built tests; open-loop workloads go through an
    /// [`InjectSource`] instead. Returns the assigned packet id.
    #[allow(clippy::too_many_arguments)]
    pub fn inject_on_path(
        &mut self,
        at: Time,
        flow: FlowId,
        seq: u64,
        size: u32,
        src: NodeId,
        dst: NodeId,
        path: Arc<Path>,
        hdr: SchedHeader,
        kind: PacketKind,
    ) -> PacketId {
        let id = PacketId(self.next_pkt_id);
        self.next_pkt_id += 1;
        let inj = Injection {
            index: 0,
            flow,
            seq,
            size,
            src,
            dst,
            path,
            hdr,
            kind,
        };
        let pkt = new_packet(id, at, inj);
        self.telemetry.on_register(&pkt);
        self.telemetry.on_inject();
        let pkt = ManuallyDrop::new(pkt);
        self.queue
            .push(at, class::ARRIVE, Ev::Arrive { node: src, pkt });
        id
    }

    /// Inject a packet at `at`, resolving its source route from the
    /// routing table returned by [`Network::compute_routes`].
    #[allow(clippy::too_many_arguments)]
    pub fn inject(
        &mut self,
        routes: &RoutingTable,
        at: Time,
        flow: FlowId,
        seq: u64,
        size: u32,
        src: NodeId,
        dst: NodeId,
        hdr: SchedHeader,
        kind: PacketKind,
    ) -> PacketId {
        let path = routes.resolve_path(src, dst, flow);
        self.inject_on_path(at, flow, seq, size, src, dst, path, hdr, kind)
    }

    /// Hand the network an open-loop source to pull from: packet ids
    /// are reserved and `telemetry.packets` written now, each packet is
    /// built when the clock reaches its send instant (see
    /// [`crate::source`] for the ordering contract). One source at a
    /// time: panics while an earlier source still has packets to send —
    /// no caller interleaves two open-loop inputs, and merging their
    /// same-instant order would need a rule nobody has asked for. A new
    /// source may be attached once the previous one is exhausted.
    pub fn attach_source(&mut self, src: Box<dyn InjectSource + Send>) {
        self.register(&*src);
        if self.feeding {
            self.source = Some(src);
        }
    }

    /// Like [`Network::attach_source`] for a source that only lives for
    /// this call (it may borrow, e.g. a recorded schedule): register
    /// it, then run until the event queue drains.
    pub fn run_source(&mut self, src: &mut dyn InjectSource) -> Time {
        self.register(src);
        while self.step_with(Some(&mut *src)) {}
        self.drained()
    }

    /// Reserve ids, write records and arm the feeder for `src`.
    fn register(&mut self, src: &dyn InjectSource) {
        assert!(
            !self.feeding,
            "an injection source is still feeding this network; one open-loop source at a time"
        );
        self.source_base = self.next_pkt_id;
        self.telemetry.register_source(src, self.source_base);
        self.next_pkt_id += src.packets();
        if let Some(at) = src.next_at() {
            assert!(at >= self.queue.now(), "source starts in the past");
            self.queue.push(at, class::INJECT, Ev::Inject);
            self.feeding = true;
        }
    }

    /// The feeder fired: pull every packet due at `now`, in source
    /// order, into `arrive_scratch` — the front of this instant's
    /// arrival batch — and re-arm at the source's next instant. Each
    /// packet counts as one event (its arrival at the source node); the
    /// feeder itself is bookkeeping and is not counted.
    fn pull_due(&mut self, src: &mut dyn InjectSource, now: Time) {
        while let Some(inj) = src.pull_due(now) {
            let node = inj.src;
            let pkt = new_packet(PacketId(self.source_base + inj.index), now, inj);
            self.telemetry.counters.events += 1;
            self.telemetry.on_inject();
            self.arrive_scratch.push((node, pkt));
        }
        self.feeding = match src.next_at() {
            Some(at) => {
                self.queue.push(at, class::INJECT, Ev::Inject);
                true
            }
            None => false,
        };
    }

    /// Arm an application timer at `node` to fire at `at`.
    pub fn set_timer(&mut self, node: NodeId, at: Time, id: u64) {
        self.queue.push(at, class::TIMER, Ev::Timer { node, id });
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Pending event count.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Packets in the network now: sent and neither delivered nor
    /// dropped yet — queued at a port, being serialized, or propagating.
    /// A packet an [`InjectSource`] has not sent yet is not in the
    /// network; one pre-scheduled with [`Network::inject_on_path`]
    /// counts from the call. Zero after a drained run, or a packet
    /// leaked.
    pub fn packets_in_flight(&self) -> usize {
        self.telemetry.counters.in_flight() as usize
    }

    /// Peak simultaneous [`packets_in_flight`](Network::packets_in_flight)
    /// count.
    pub fn peak_packets_in_flight(&self) -> usize {
        self.telemetry.counters.peak_in_flight as usize
    }

    /// Process the next pending event — or, when it is an arrival or the
    /// injection feeder, every arrival of its instant — then, if that
    /// settled the instant, start the ports that want to transmit (see
    /// the module docs). Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.step_with(None)
    }

    /// [`Network::step`], with the injection source lent by
    /// [`Network::run_source`] when there is one (`None`: the feeder
    /// pulls from the attached source).
    fn step_with(&mut self, lent: Option<&mut dyn InjectSource>) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        if matches!(ev, Ev::Observe) {
            // Pure observation: sample, maybe reschedule, and leave the
            // data plane — including the event counter — untouched.
            self.observe(now);
            return true;
        }
        if !matches!(ev, Ev::Inject) {
            self.telemetry.counters.events += 1;
        }
        match ev {
            Ev::Inject => {
                match lent {
                    Some(src) => self.pull_due(src, now),
                    None => {
                        let Some(mut src) = self.source.take() else {
                            panic!("injection feeder fired with no source attached")
                        };
                        self.pull_due(&mut *src, now);
                        if self.feeding {
                            self.source = Some(src);
                        }
                    }
                }
                self.drain_arrivals(now);
            }
            Ev::Arrive { node, pkt } => {
                let pkt = ManuallyDrop::into_inner(pkt);
                prefetch_packet(&pkt);
                self.arrive_scratch.push((node, pkt));
                self.drain_arrivals(now);
            }
            Ev::TxDone { link, gen } => self.handle_tx_done(link, gen, now),
            Ev::Timer { node, id } => self.dispatch_timer(node, id),
            Ev::Chaos { link, phase } => self.handle_chaos(link, phase, now),
            Ev::Observe => unreachable!("handled before dispatch"),
        }
        self.settle(now);
        true
    }

    /// Start the listed ports if the instant `now` has settled — no
    /// data-plane event is left at it — wires first and one at a time,
    /// since each wire's completion lands at `now`; then every finite
    /// port, in first-want order (their completions land after `now`).
    ///
    /// Each peek also cache-warms the state the *next* pending event
    /// will touch while this step's stores are still retiring: packets
    /// are accessed once per hop with thousands of events between
    /// touches, so the first access of each hop otherwise pays a full
    /// cache miss.
    fn settle(&mut self, now: Time) {
        loop {
            if let Some((t, ev)) = self.queue.peek_cur() {
                match ev {
                    Ev::Arrive { pkt, .. } => prefetch_packet(pkt),
                    Ev::TxDone { link, .. } => self.links[link.0 as usize].prefetch_inflight(),
                    _ => {}
                }
                if t == now && !matches!(ev, Ev::Observe) {
                    return;
                }
            }
            match self.wire_starts.pop_front() {
                Some(lid) => self.start_tx(lid, now),
                None => break,
            }
        }
        if !self.starts.is_empty() {
            let mut starts = std::mem::take(&mut self.starts);
            for lid in starts.drain(..) {
                self.start_tx(lid, now);
            }
            self.starts = starts;
        }
    }

    /// `arrive_scratch` holds the head of this instant's arrivals (the
    /// packets the feeder just pulled, or the one arrival that popped).
    /// Drain every further same-instant `Arrive` into it, then deliver
    /// or admit each packet in pop order.
    fn drain_arrivals(&mut self, now: Time) {
        while let Some((_, ev)) = self
            .queue
            .pop_if(|t, e| t == now && matches!(e, Ev::Arrive { .. }))
        {
            self.telemetry.counters.events += 1;
            let Ev::Arrive { node, pkt } = ev else {
                unreachable!("predicate admits arrivals only")
            };
            let pkt = ManuallyDrop::into_inner(pkt);
            // Warm later arrivals while earlier ones are admitted.
            prefetch_packet(&pkt);
            self.arrive_scratch.push((node, pkt));
        }
        let mut arrivals = std::mem::take(&mut self.arrive_scratch);
        for (node, pkt) in arrivals.drain(..) {
            if node == pkt.dst && pkt.at_destination() {
                self.telemetry.on_deliver(&pkt, now);
                self.dispatch_deliver(node, pkt);
                continue;
            }
            let lid = pkt
                .next_link()
                .unwrap_or_else(|| panic!("packet {:?} stranded at {node:?}", pkt.id));
            debug_assert_eq!(
                self.links[lid.0 as usize].from, node,
                "path inconsistent with arrival node"
            );
            let tel = &self.telemetry;
            debug_assert!(
                tel.level != TraceLevel::Hops
                    || tel.packets[pkt.id.0 as usize].arrival(&tel.hops, pkt.hops_done as usize)
                        == now,
                "packet {:?} arrived off its traced hop times",
                pkt.id
            );
            let actions = self.links[lid.0 as usize].admit(pkt, now);
            if self.apply_port_actions(lid, actions, now) {
                self.request_start(lid);
            }
        }
        self.arrive_scratch = arrivals;
    }

    /// Enable deterministic state sampling at the given cadence
    /// (`interval > 0`): every `interval` of simulated time an
    /// observation event — ordered *after* every data-plane event class
    /// at its instant — records aggregate queue depth, link busy time,
    /// and in-flight population into a [`NetSeries`]. Sampling is
    /// strictly read-only, so all simulation outcomes are bit-identical
    /// with it on or off; it self-terminates when the event queue
    /// drains, so `run_to_completion` still ends.
    pub fn enable_sampling(&mut self, interval: Dur) {
        assert!(interval > Dur::ZERO, "sampling interval must be positive");
        if self.sampler.is_none() {
            self.queue
                .push(self.queue.now() + interval, class::OBSERVE, Ev::Observe);
        }
        self.sampler = Some(NetSeries::new(interval, 0));
    }

    /// Harvest the sampled series and disable further sampling. `None`
    /// when sampling was never enabled.
    pub fn take_series(&mut self) -> Option<NetSeries> {
        self.sampler.take().map(|mut s| {
            s.links = self.links.len() as u64;
            s
        })
    }

    /// Handle one observation tick: sample aggregate network state and
    /// reschedule while any data-plane work remains.
    fn observe(&mut self, now: Time) {
        let Some(series) = self.sampler.as_mut() else {
            // Sampling was disabled (series harvested) with a tick still
            // in flight: let the chain die.
            return;
        };
        let mut queued_pkts = 0u64;
        let mut queued_bytes = 0u64;
        let mut max_queue_pkts = 0u64;
        let mut busy_links = 0u64;
        let mut busy_ps_total = 0u64;
        for l in &self.links {
            let q = l.queue_len() as u64;
            queued_pkts += q;
            queued_bytes += l.queued_bytes();
            max_queue_pkts = max_queue_pkts.max(q);
            busy_links += l.is_busy() as u64;
            busy_ps_total += l.stats.busy.as_ps();
        }
        series.samples.push(SamplePoint {
            t: now,
            queued_pkts,
            queued_bytes,
            max_queue_pkts,
            busy_links,
            in_flight: self.telemetry.counters.in_flight(),
            busy_ps_total,
        });
        // Reschedule only while other events remain: the sampler must
        // never keep an otherwise-finished simulation alive.
        if !self.queue.is_empty() {
            let interval = series.interval;
            self.queue.push(now + interval, class::OBSERVE, Ev::Observe);
        }
    }

    /// Run until the event queue drains or the next event is after
    /// `deadline`. Returns the time of the last processed event.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.queue.now()
    }

    /// Run until the event queue is fully drained.
    pub fn run_to_completion(&mut self) -> Time {
        while self.step() {}
        self.drained()
    }

    /// The event queue just drained, so the run's books must close: every
    /// packet sent was delivered or dropped and every drop was a port's,
    /// every port is idle with nothing queued, and no link was busier than
    /// the time that passed. A packet lives only in an event, a port queue
    /// or a transmitter, so one that is none of these and was neither
    /// delivered nor dropped fails the first check. Checked in debug
    /// builds.
    fn drained(&self) -> Time {
        let (now, c) = (self.queue.now(), &self.telemetry.counters);
        debug_assert_eq!(c.in_flight(), 0, "packets neither delivered nor dropped");
        debug_assert!(
            self.links.iter().all(|l| !l.is_busy()
                && l.queue_len() == 0
                && l.queued_bytes() == 0
                && l.stats.busy <= now - Time::ZERO),
            "a port is busy, holds packets, or was busier than elapsed time at run end"
        );
        debug_assert_eq!(
            self.links.iter().map(|l| l.stats.dropped).sum::<u64>(),
            c.dropped,
            "drops not accounted at a port"
        );
        now
    }

    fn handle_tx_done(&mut self, lid: LinkId, gen: u64, now: Time) {
        let actions = self.links[lid.0 as usize].tx_done(gen, now);
        if self.apply_port_actions(lid, actions, now) {
            self.request_start(lid);
        }
    }

    /// Apply one chaos transition to its link and route the fallout
    /// (killed/drained packets, restart requests) through the normal
    /// port-action plumbing, so chaos drops hit [`Telemetry::on_drop`]
    /// like any buffer drop.
    fn handle_chaos(&mut self, lid: LinkId, phase: ChaosPhase, now: Time) {
        let link = &mut self.links[lid.0 as usize];
        let actions = match phase {
            ChaosPhase::Down => link.chaos_fail(now),
            ChaosPhase::Up => link.chaos_recover(now),
            ChaosPhase::JamStart => link.chaos_jam_start(now),
            ChaosPhase::JamEnd => link.chaos_jam_end(now),
        };
        if self.apply_port_actions(lid, actions, now) {
            self.request_start(lid);
        }
    }

    fn start_tx(&mut self, lid: LinkId, now: Time) {
        self.links[lid.0 as usize].start_pending = false;
        if let Some((end, gen)) = self.links[lid.0 as usize].try_start(now) {
            self.queue
                .push(end, class::TX_DONE, Ev::TxDone { link: lid, gen });
        }
    }

    /// The port at `lid` is idle with packets queued: list it for a
    /// start once the instant settles, unless it is listed already.
    fn request_start(&mut self, lid: LinkId) {
        let link = &mut self.links[lid.0 as usize];
        if link.start_pending {
            return;
        }
        link.start_pending = true;
        if link.bw == Bandwidth::INFINITE {
            self.wire_starts.push_back(lid);
        } else {
            self.starts.push(lid);
        }
    }

    /// Record the drops and forward the completed packet of `actions`;
    /// returns whether the port wants a transmission start.
    fn apply_port_actions(
        &mut self,
        lid: LinkId,
        actions: crate::link::PortActions,
        now: Time,
    ) -> bool {
        for dropped in actions.dropped {
            self.telemetry.on_drop(&dropped);
        }
        if let Some(pkt) = actions.completed {
            self.telemetry.on_hop(&pkt, now);
            let to = self.links[lid.0 as usize].to;
            let prop = self.links[lid.0 as usize].prop;
            let pkt = ManuallyDrop::new(pkt);
            self.queue
                .push(now + prop, class::ARRIVE, Ev::Arrive { node: to, pkt });
        }
        actions.want_start
    }

    fn dispatch_deliver(&mut self, node: NodeId, pkt: Box<Packet>) {
        if let Some(mut app) = self.apps[node.0 as usize].take() {
            app.on_deliver(self, node, &pkt);
            debug_assert!(
                self.apps[node.0 as usize].is_none(),
                "app slot refilled during callback"
            );
            self.apps[node.0 as usize] = Some(app);
        }
    }

    fn dispatch_timer(&mut self, node: NodeId, id: u64) {
        if let Some(mut app) = self.apps[node.0 as usize].take() {
            app.on_timer(self, node, id);
            self.apps[node.0 as usize] = Some(app);
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// All host node ids, in creation order.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_host())
            .map(|n| n.id)
            .collect()
    }

    /// All link ids.
    pub fn link_ids(&self) -> Vec<LinkId> {
        (0..self.links.len() as u32).map(LinkId).collect()
    }

    /// Aggregate chaos-layer counters over every link (all zero when no
    /// policy is installed).
    pub fn chaos_totals(&self) -> ChaosTotals {
        let mut t = ChaosTotals::default();
        for l in &self.links {
            t.drops += l.stats.chaos_drops;
            t.downs += l.stats.chaos_downs;
            t.jams += l.stats.chaos_jams;
            t.outage += l.stats.chaos_outage;
        }
        t
    }

    /// The slowest link bandwidth in the network (paper's threshold `T` is
    /// one transmission time on this bottleneck).
    // A link-less network has no bottleneck to quote; callers build the
    // topology first.
    #[allow(clippy::expect_used)]
    pub fn bottleneck_bw(&self) -> Bandwidth {
        self.links
            .iter()
            .map(|l| l.bw)
            .min()
            .expect("network has no links")
    }
}

/// Free the packets of arrivals still pending: an event does not drop
/// its packet.
impl Drop for Network {
    fn drop(&mut self) {
        self.queue.drain_unordered(|ev| {
            if let Ev::Arrive { pkt, .. } = ev {
                drop(ManuallyDrop::into_inner(pkt));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two hosts, one router, 1 Gbps everywhere, 5 us propagation.
    fn line() -> (Network, Arc<RoutingTable>, NodeId, NodeId) {
        let mut net = Network::new(TraceLevel::Hops);
        let h0 = net.add_host("h0");
        let r = net.add_router("r");
        let h1 = net.add_host("h1");
        net.add_duplex(h0, r, Bandwidth::gbps(1), Dur::from_micros(5));
        net.add_duplex(r, h1, Bandwidth::gbps(1), Dur::from_micros(5));
        let rt = net.compute_routes();
        (net, rt, h0, h1)
    }

    /// Inject one default-header 1,500-byte data packet.
    fn send(
        net: &mut Network,
        rt: &RoutingTable,
        at: Time,
        flow: u64,
        seq: u64,
        src: NodeId,
        dst: NodeId,
    ) {
        let kind = PacketKind::Data { bytes: 1460 };
        let hdr = SchedHeader::default();
        net.inject(rt, at, FlowId(flow), seq, 1500, src, dst, hdr, kind);
    }

    /// Every packet's `(delivery ps, total qdelay ps)`.
    fn outcomes(net: &Network) -> Vec<(Option<u64>, u64)> {
        let tel = &net.telemetry;
        let recs = tel.packets.iter();
        recs.map(|p| {
            (
                p.delivered.map(|t| t.as_ps()),
                p.total_qdelay(&tel.hops).as_ps(),
            )
        })
        .collect()
    }

    /// An app that does nothing: attaching it must change no outcome
    /// and no event count.
    #[derive(Debug)]
    struct Idle;

    impl App for Idle {
        fn on_deliver(&mut self, _: &mut Network, _: NodeId, _: &Packet) {}
        fn on_timer(&mut self, _: &mut Network, _: NodeId, _: u64) {}
    }

    /// The same-instant pop order is a determinism contract: chaos
    /// settles before any data-plane event, the injection feeder pops
    /// directly before the arrivals it leads (no class in between), and
    /// observation pops after everything it observes. A class this list
    /// leaves out is either unused (`dead_code` in the lib build) or
    /// pushed somewhere this test does not order — add it here.
    #[test]
    fn event_classes_pop_in_contract_order() {
        let classes = [
            class::CHAOS,
            class::INJECT,
            class::ARRIVE,
            class::TIMER,
            class::TX_DONE,
            class::OBSERVE,
        ];
        let mut sorted = classes;
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "two classes share a value"
        );
        assert_eq!(sorted[0], class::CHAOS, "CHAOS is not the lowest class");
        assert_eq!(
            sorted[sorted.len() - 1],
            class::OBSERVE,
            "OBSERVE is not the highest class"
        );
        let inject = sorted.iter().position(|&c| c == class::INJECT).unwrap();
        assert_eq!(
            sorted.get(inject + 1),
            Some(&class::ARRIVE),
            "INJECT does not pop directly before ARRIVE"
        );
    }

    /// Every pending event is an `Ev` in a wheel entry: a variant that
    /// grows past 16 bytes grows all of them.
    #[test]
    fn an_event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }

    /// Every packet in flight is one `Box<Packet>`. glibc's malloc gives
    /// a 97–104-byte request a 112-byte chunk and a 105–120-byte one a
    /// 128-byte chunk, so a field that grows the packet past 104 bytes
    /// costs every in-flight packet 16 bytes.
    #[test]
    fn a_packet_fits_a_112_byte_malloc_chunk() {
        fn copy<T: Copy>() {}
        copy::<SchedHeader>();
        assert_eq!(std::mem::size_of::<SchedHeader>(), 16);
        assert!(std::mem::size_of::<PacketKind>() <= 8);
        assert!(std::mem::size_of::<Packet>() <= 104);
    }

    #[test]
    fn single_packet_end_to_end_latency_is_tmin() {
        let (mut net, rt, h0, h1) = line();
        send(&mut net, &rt, Time::ZERO, 0, 0, h0, h1);
        net.run_to_completion();
        let rec = &net.telemetry.packets[0];
        // 2 hops: 12us tx + 5us prop each = 34us.
        assert_eq!(rec.delivered, Some(Time::from_micros(34)));
        assert_eq!(rec.path.tmin(rec.size), Dur::from_micros(34));
        assert_eq!(rec.congestion_points(&net.telemetry.hops), 0);
        assert_eq!(net.telemetry.counters.delivered, 1);
    }

    /// Back-to-back packets queue at the source NIC — and the event
    /// law, counted. A packet of H hops costs one `Arrive` at its
    /// source, then a `TxDone` and an `Arrive` per hop: 2H + 1 events,
    /// whether the network is plain, carries an inert chaos policy, or
    /// has an app attached.
    #[test]
    fn back_to_back_packets_queue_at_source() {
        for case in ["plain", "inert chaos", "idle app"] {
            let (mut net, rt, h0, h1) = line();
            match case {
                "inert chaos" => {
                    net.install_chaos(Time::from_millis(1), |_| Some(ChaosPolicy::new(0)))
                }
                "idle app" => net.attach_app(h1, Box::new(Idle)),
                _ => {}
            }
            for s in 0..3 {
                send(&mut net, &rt, Time::ZERO, 0, s, h0, h1);
            }
            net.run_to_completion();
            let (hops, pkts) = (2, 3);
            assert_eq!(
                net.telemetry.counters.events,
                (2 * hops + 1) * pkts,
                "{case}"
            );
            // Packet k leaves the host NIC at 12(k+1) us; delivery at +22us more.
            for (k, rec) in net.telemetry.packets.iter().enumerate() {
                let want = Time::from_micros(34 + 12 * k as u64);
                assert_eq!(rec.delivered, Some(want), "{case}: packet {k}");
            }
            // Packets 1,2 waited at the host NIC: exactly one congestion point.
            let (recs, arena) = (&net.telemetry.packets, &net.telemetry.hops);
            assert_eq!(recs[0].congestion_points(arena), 0);
            assert_eq!(recs[1].congestion_points(arena), 1);
            assert_eq!(recs[2].congestion_points(arena), 1);
            // And their recorded queueing delays are 12us and 24us.
            assert_eq!(recs[1].total_qdelay(arena), Dur::from_micros(12));
            assert_eq!(recs[2].total_qdelay(arena), Dur::from_micros(24));
        }
    }

    #[test]
    fn cross_traffic_congests_shared_link() {
        // h0 and h2 both send to h1 through r at the same instant: the
        // r->h1 link is a congestion point for whoever loses the toss.
        let mut net = Network::new(TraceLevel::Hops);
        let h0 = net.add_host("h0");
        let h2 = net.add_host("h2");
        let r = net.add_router("r");
        let h1 = net.add_host("h1");
        for h in [h0, h2] {
            net.add_duplex(h, r, Bandwidth::gbps(1), Dur::from_micros(5));
        }
        net.add_duplex(r, h1, Bandwidth::gbps(1), Dur::from_micros(5));
        let rt = net.compute_routes();
        send(&mut net, &rt, Time::ZERO, 0, 0, h0, h1);
        send(&mut net, &rt, Time::ZERO, 1, 0, h2, h1);
        net.run_to_completion();
        let cps: Vec<usize> = net
            .telemetry
            .packets
            .iter()
            .map(|r| r.congestion_points(&net.telemetry.hops))
            .collect();
        cps.iter().for_each(|&c| assert!(c <= 1));
        assert_eq!(cps.iter().sum::<usize>(), 1, "exactly one packet waits");
        // The loser is delayed by exactly one transmission time.
        let d: Vec<Time> = net
            .telemetry
            .packets
            .iter()
            .map(|r| r.delivered.unwrap())
            .collect();
        assert_eq!(d[0].max(d[1]) - d[0].min(d[1]), Dur::from_micros(12));
    }

    #[test]
    fn routes_prefer_fewer_slow_hops() {
        // h0 -> r0 -> h1 direct (fast) vs h0 -> r0 -> r1 -> h1: Dijkstra
        // must pick the 2-hop route.
        let mut net = Network::new(TraceLevel::Delivery);
        let h0 = net.add_host("h0");
        let r0 = net.add_router("r0");
        let r1 = net.add_router("r1");
        let h1 = net.add_host("h1");
        net.add_duplex(h0, r0, Bandwidth::gbps(10), Dur::from_micros(1));
        net.add_duplex(r0, r1, Bandwidth::gbps(10), Dur::from_micros(1));
        net.add_duplex(r0, h1, Bandwidth::gbps(10), Dur::from_micros(1));
        net.add_duplex(r1, h1, Bandwidth::gbps(10), Dur::from_micros(1));
        let rt = net.compute_routes();
        let p = rt.resolve_path(h0, h1, FlowId(0));
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let run = || {
            let (mut net, rt, h0, h1) = line();
            for s in 0..50 {
                send(&mut net, &rt, Time::from_nanos(137 * s), s % 3, s, h0, h1);
            }
            net.run_to_completion();
            net.telemetry
                .packets
                .iter()
                .map(|r| r.delivered.unwrap().as_ps())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Sampling is pure observation: enabling it changes no delivery
    /// time, no counter, and no per-packet record — and the sampler
    /// self-terminates, so the run still completes.
    #[test]
    fn sampling_never_perturbs_outcomes() {
        let run = |sample: bool| {
            let (mut net, rt, h0, h1) = line();
            if sample {
                net.enable_sampling(Dur::from_micros(7));
            }
            for s in 0..40 {
                send(&mut net, &rt, Time::from_nanos(311 * s), s % 2, s, h0, h1);
            }
            net.run_to_completion();
            let events = net.telemetry.counters.events;
            (outcomes(&net), events, net.take_series())
        };
        let (plain, plain_events, no_series) = run(false);
        let (sampled, sampled_events, series) = run(true);
        assert_eq!(plain, sampled, "sampling changed packet outcomes");
        assert_eq!(
            plain_events, sampled_events,
            "sampling leaked into the event counter"
        );
        assert!(no_series.is_none());
        let series = series.expect("sampling was enabled");
        assert!(!series.samples.is_empty());
        assert_eq!(series.links, 4, "line() has two duplex links");
        // Samples are strictly ordered and on the cadence grid.
        for w in series.samples.windows(2) {
            assert!(w[0].t < w[1].t);
        }
        assert!(series
            .samples
            .iter()
            .all(|s| s.t.as_ps() % Dur::from_micros(7).as_ps() == 0));
        // Mid-run congestion is visible: some sample saw a queue.
        assert!(series.samples.iter().any(|s| s.queued_pkts > 0));
    }

    #[test]
    #[should_panic(expected = "compute_routes() before routing()")]
    fn runtime_routing_access_requires_computed_routes() {
        let mut net = Network::new(TraceLevel::Off);
        let h0 = net.add_host("h0");
        let h1 = net.add_host("h1");
        net.add_duplex(h0, h1, Bandwidth::gbps(1), Dur::from_micros(1));
        let _ = net.routing();
    }

    #[test]
    fn topology_changes_invalidate_the_stored_routing_handle() {
        let (mut net, _rt, _h0, _h1) = line();
        assert!(net.routing().ecmp_width(NodeId(0), NodeId(2)) > 0);
        let extra = net.add_host("late");
        let _ = extra;
        // The stored handle is cleared until routes are recomputed.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = net.routing();
        }));
        assert!(result.is_err(), "stale routing handle must not survive");
    }
}
