//! Unidirectional links and their output-port state machine.
//!
//! A [`Link`] models the paper's scheduling locus: an output port with one
//! queue (ordered by a pluggable [`Scheduler`]), byte-accounted buffering,
//! and a non-preemptive transmitter. The transmitter can optionally run in
//! *preemptive* mode — a fluid approximation where an arriving, more
//! urgent packet suspends the in-flight one, which later resumes
//! transmitting only its remaining bytes. That mode exists solely for the
//! preemptive-LSTF ablation of §2.3(5); the default matches the paper's
//! non-preemptive simulations.
//!
//! The port also performs the LSTF dynamic-packet-state update: when a
//! packet is picked for transmission, its header slack is decremented by
//! the time it waited in this queue (§2.1).

use crate::chaos::LinkChaos;
use crate::packet::{LinkId, NodeId, Packet};
use crate::scheduler::{EvictOutcome, Queued, Scheduler};
use ups_sim::{Bandwidth, Dur, Time};

/// Per-link counters (diagnostics and utilization accounting).
#[derive(Debug, Default, Clone)]
pub struct LinkStats {
    /// Packets admitted to the queue.
    pub enqueued: u64,
    /// Packets dropped on buffer overflow (victim may be incoming or queued).
    pub dropped: u64,
    /// Transmissions completed.
    pub tx_done: u64,
    /// Bytes fully transmitted.
    pub bytes_tx: u64,
    /// Total time the transmitter was busy.
    pub busy: Dur,
    /// Transmissions preempted (preemptive mode only).
    pub preemptions: u64,
    /// High-water mark of queued packets.
    pub max_queue_pkts: usize,
    /// Packets lost to the chaos layer: i.i.d. wire loss, packets killed
    /// or drained by a failure or jam, and arrivals refused while down.
    /// Always also counted in [`LinkStats::dropped`].
    pub chaos_drops: u64,
    /// Failure (link-down) windows entered.
    pub chaos_downs: u64,
    /// Jamming windows entered.
    pub chaos_jams: u64,
    /// Total time spent down and/or jammed.
    pub chaos_outage: Dur,
}

/// The packet currently being serialized onto the wire.
#[derive(Debug)]
struct InFlight {
    q: Queued,
    tx_start: Time,
    tx_end: Time,
    /// Urgency of the in-flight packet at start, for preemption decisions.
    urgency: Option<i64>,
}

/// What the network must do after handing an event to a link.
///
/// Transmission starts are *deferred*: `admit`/`tx_done` never begin a
/// new transmission themselves; they set `want_start`, the network
/// lists the port, and it calls [`Link::try_start`] once the instant
/// has settled — every packet arriving at it, including ones cascading
/// through zero-time links, is queued — so the port picks what to send
/// at `t` from the queue the formal model's schedulers see.
#[derive(Debug, Default)]
pub struct PortActions {
    /// The port is idle and has queued packets: start a transmission.
    pub want_start: bool,
    /// Packets dropped by the buffer-overflow policy.
    pub dropped: Vec<Box<Packet>>,
    /// Packet whose transmission was fully completed (forward it).
    pub completed: Option<Box<Packet>>,
}

/// A unidirectional link: `from`'s output port plus the wire to `to`.
#[derive(Debug)]
pub struct Link {
    /// Dense id of this link.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Serialization rate.
    pub bw: Bandwidth,
    /// Propagation delay.
    pub prop: Dur,
    /// Buffer capacity in bytes; `None` is unbounded ("large buffer sizes
    /// that ensure no packet drops", §2.3).
    pub buffer: Option<u64>,
    /// Whether an urgent arrival may suspend the in-flight transmission.
    pub preemptive: bool,
    sched: Box<dyn Scheduler>,
    /// One-entry serialization-time memo: `(size, tx_time(size))`. Real
    /// workloads transmit runs of equal-size packets, so this turns the
    /// per-admit and per-start 128-bit division into a compare.
    tx_memo: (u32, Dur),
    queued_bytes: u64,
    arrival_seq: u64,
    inflight: Option<InFlight>,
    /// Generation counter; a stored `TxDone` event is valid only if its
    /// generation matches (preemption invalidates scheduled completions).
    tx_gen: u64,
    /// This link is on the network's start list for the current
    /// instant, so the network lists it at most once.
    pub(crate) start_pending: bool,
    /// Chaos runtime state, present only once a [`crate::ChaosPolicy`]
    /// is installed (see [`crate::Network::install_chaos`]). Chaos-free
    /// links carry a null pointer and take exactly the pre-chaos paths.
    pub(crate) chaos: Option<Box<LinkChaos>>,
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// Create a link with a FIFO scheduler and unbounded buffer.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, bw: Bandwidth, prop: Dur) -> Link {
        Link {
            id,
            from,
            to,
            bw,
            prop,
            buffer: None,
            preemptive: false,
            sched: Box::new(crate::fifo::Fifo::new()),
            tx_memo: (0, Dur::ZERO),
            queued_bytes: 0,
            arrival_seq: 0,
            inflight: None,
            tx_gen: 0,
            start_pending: false,
            chaos: None,
            stats: LinkStats::default(),
        }
    }

    /// Replace the scheduler. Panics if packets are queued or in flight —
    /// schedulers are installed at experiment setup, not mid-run.
    pub fn set_scheduler(&mut self, sched: Box<dyn Scheduler>) {
        assert!(
            self.sched.is_empty() && self.inflight.is_none(),
            "cannot swap scheduler on a busy link"
        );
        self.sched = sched;
    }

    /// `tx_time` through the one-entry per-link memo.
    #[inline]
    fn tx_time_memo(&mut self, size: u32) -> Dur {
        if self.tx_memo.0 != size {
            self.tx_memo = (size, self.bw.tx_time(size));
        }
        self.tx_memo.1
    }

    /// Name of the installed scheduler.
    pub fn scheduler_name(&self) -> &'static str {
        self.sched.name()
    }

    /// Packets currently queued (excluding any in flight).
    pub fn queue_len(&self) -> usize {
        self.sched.len()
    }

    /// Bytes currently queued (excluding any in flight).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// True if the transmitter is serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// A packet has fully arrived at this port and wants to be queued.
    ///
    /// Handles buffer admission (consulting the scheduler for a victim),
    /// requests a transmission start if the port is idle, and preempts the
    /// in-flight packet if this port is preemptive and the arrival is more
    /// urgent.
    pub fn admit(&mut self, pkt: Box<Packet>, now: Time) -> PortActions {
        let mut act = PortActions::default();
        self.admit_one(pkt, now, &mut act);
        act.want_start = self.inflight.is_none() && !self.sched.is_empty();
        act
    }

    /// Admission core of [`Link::admit`]: everything except the
    /// start-request decision, which reads the port state afterwards.
    fn admit_one(&mut self, mut pkt: Box<Packet>, now: Time, act: &mut PortActions) {
        // A failed link refuses arrivals outright (no queue entry, no
        // arrival-sequence draw — the packet never reached the port).
        if self.chaos.as_ref().is_some_and(|c| c.down) {
            self.stats.dropped += 1;
            self.stats.chaos_drops += 1;
            act.dropped.push(pkt);
            return;
        }
        pkt.tx_left = Dur::ZERO;
        let q = self.make_queued(pkt, now);

        // Buffer admission: evict strictly-worse packets until the arrival
        // fits, or drop the arrival if the scheduler prefers to keep what
        // it has (drop-tail default).
        if let Some(cap) = self.buffer {
            while self.queued_bytes + q.pkt.size as u64 > cap {
                // An arrival bigger than the whole buffer can never fit:
                // once the queue is empty no eviction can help, so drop
                // the arrival rather than spin on `evict_for` forever.
                if self.sched.is_empty() {
                    self.stats.dropped += 1;
                    act.dropped.push(q.pkt);
                    return;
                }
                match self.sched.evict_for(&q) {
                    EvictOutcome::Evicted(victim) => {
                        self.queued_bytes -= victim.pkt.size as u64;
                        self.stats.dropped += 1;
                        act.dropped.push(victim.pkt);
                    }
                    EvictOutcome::DropIncoming => {
                        self.stats.dropped += 1;
                        act.dropped.push(q.pkt);
                        return;
                    }
                }
            }
        }

        self.queued_bytes += q.pkt.size as u64;
        self.stats.enqueued += 1;

        // Preemption check (fluid model, ablation only). An arrival at
        // exactly the in-flight packet's completion instant is processed
        // before the completion event (arrivals settle first), so a
        // transmission with no remaining wire time must not be
        // "preempted" — it is already done.
        if self.preemptive {
            if let (Some(new_k), Some(fl)) = (self.sched.urgency(&q), self.inflight.as_ref()) {
                if fl.tx_end > now {
                    if let Some(cur_k) = fl.urgency {
                        if new_k < cur_k {
                            self.preempt(now);
                        }
                    }
                }
            }
        }

        self.sched.enqueue(q);
        self.stats.max_queue_pkts = self.stats.max_queue_pkts.max(self.sched.len());
    }

    /// The `TxDone` event for generation `gen` fired. Returns the completed
    /// packet (if the event is still valid) and possibly a new `TxDone`.
    // A current generation has its packet in flight: `try_start` hands
    // generations out, and whatever takes the packet early (preemption,
    // a chaos kill) bumps the generation as it does.
    #[allow(clippy::expect_used)]
    pub fn tx_done(&mut self, gen: u64, now: Time) -> PortActions {
        let mut act = PortActions::default();
        if gen != self.tx_gen {
            return act; // stale completion from a preempted transmission
        }
        let fl = self
            .inflight
            .take()
            .expect("TxDone with matching generation but no in-flight packet");
        debug_assert_eq!(fl.tx_end, now, "TxDone fired at the wrong time");

        let mut pkt = fl.q.pkt;
        self.stats.tx_done += 1;
        self.stats.bytes_tx += pkt.size as u64;
        self.stats.busy += now - fl.tx_start;
        act.want_start = !self.sched.is_empty();
        // Chaos wire loss: the transmission consumed the wire normally,
        // but the packet is lost instead of forwarded. One draw per
        // completed transmission from this link's dedicated stream.
        if let Some(ch) = self.chaos.as_mut() {
            if ch.drop_prob > 0.0 && ch.rng.gen_bool(ch.drop_prob) {
                self.stats.dropped += 1;
                self.stats.chaos_drops += 1;
                act.dropped.push(pkt);
                return act;
            }
        }
        pkt.advance_hop();
        act.completed = Some(pkt);
        act
    }

    /// Begin transmitting the scheduler's next packet if the port is
    /// idle and packets are queued. Called by the network once the
    /// instant's arrivals are admitted; redundant calls are no-ops.
    /// Returns the `(tx_end, generation)` pair for the completion event.
    pub fn try_start(&mut self, now: Time) -> Option<(Time, u64)> {
        if self.inflight.is_some() || self.chaos.as_ref().is_some_and(|c| c.blocked()) {
            return None;
        }
        let mut q = self.sched.dequeue()?;
        self.queued_bytes -= q.pkt.size as u64;

        // LSTF dynamic packet state: charge the queueing wait against the
        // header slack. Harmless for schedulers that ignore the header.
        let wait = now - q.enq_time;
        q.pkt.hdr.slack -= wait.as_i64();
        q.pkt.qdelay += wait;
        // Restart the entry's wait clock: the (enq_time, slack) pair must
        // stay consistent so the urgency computed below is the packet's
        // true slack deadline. With the stale enq_time, a packet that
        // waited long before starting service would have its deadline
        // understated by exactly that wait, and arrivals that ought to
        // preempt it would lose the comparison.
        q.enq_time = now;

        let tx_dur = if q.pkt.tx_left == Dur::ZERO {
            // Fresh (non-resumed) transmission: this is the paper's
            // per-hop scheduling time o(p, α).
            q.pkt.hop_first_tx = now;
            self.tx_time_memo(q.pkt.size)
        } else {
            q.pkt.tx_left
        };
        // Urgency only ever feeds the preemption comparison, so on
        // non-preemptive ports (the default) the call is skipped.
        let urgency = if self.preemptive {
            self.sched.urgency(&q)
        } else {
            None
        };
        let tx_end = now + tx_dur;
        self.tx_gen += 1;
        self.inflight = Some(InFlight {
            q,
            tx_start: now,
            tx_end,
            urgency,
        });
        Some((tx_end, self.tx_gen))
    }

    /// Suspend the in-flight transmission: the serialization time already
    /// spent stays spent (fluid model); the packet re-queues with its
    /// exact remaining wire time and waits again. Time-based tracking
    /// means repeated preemption neither loses nor fabricates capacity.
    // Only `admit_one` calls this, and only when the in-flight packet
    // is less urgent than the arrival — so one is in flight.
    #[allow(clippy::expect_used)]
    fn preempt(&mut self, now: Time) {
        let fl = self.inflight.take().expect("preempt with idle port");
        debug_assert!(fl.tx_end > now, "preempting a finished transmission");
        self.tx_gen += 1; // invalidate the scheduled TxDone
        self.stats.preemptions += 1;
        self.stats.busy += now - fl.tx_start;

        let mut pkt = fl.q.pkt;
        pkt.tx_left = fl.tx_end - now;
        // Re-queue: a fresh wait period begins now. Buffer accounting
        // deliberately re-admits without a capacity check — a preempted
        // packet is never dropped. The caller's `want_start` (set on the
        // preempting arrival's admit) restarts the port.
        let q = self.make_queued(pkt, now);
        self.queued_bytes += q.pkt.size as u64;
        self.sched.enqueue(q);
        // The suspended packet is back in the queue: the depth high-water
        // mark must see it, like every other enqueue path does.
        self.stats.max_queue_pkts = self.stats.max_queue_pkts.max(self.sched.len());
    }

    /// True once a chaos policy is installed on this link.
    pub fn chaos_installed(&self) -> bool {
        self.chaos.is_some()
    }

    /// Kill the in-service transmission, if any, accounting the wire
    /// time already spent and surfacing the packet as a chaos drop. The
    /// scheduled `TxDone` is invalidated through the generation counter,
    /// exactly like a preemption.
    fn chaos_kill_inflight(&mut self, now: Time, act: &mut PortActions) {
        if let Some(fl) = self.inflight.take() {
            self.tx_gen += 1; // the stale TxDone will miss the generation
            self.stats.busy += now - fl.tx_start;
            self.stats.dropped += 1;
            self.stats.chaos_drops += 1;
            act.dropped.push(fl.q.pkt);
        }
    }

    /// The link fails: the in-service packet and the whole scheduler
    /// queue are lost (every [`Scheduler`] drains through its own
    /// `dequeue`, so internal state stays consistent), and arrivals are
    /// refused until [`Link::chaos_recover`].
    // Chaos events exist only for links `install_chaos` gave a policy.
    #[allow(clippy::expect_used)]
    pub(crate) fn chaos_fail(&mut self, now: Time) -> PortActions {
        let mut act = PortActions::default();
        self.chaos_kill_inflight(now, &mut act);
        while let Some(q) = self.sched.dequeue() {
            self.queued_bytes -= q.pkt.size as u64;
            self.stats.dropped += 1;
            self.stats.chaos_drops += 1;
            act.dropped.push(q.pkt);
        }
        debug_assert_eq!(self.queued_bytes, 0, "drained queue must hold 0 bytes");
        let ch = self.chaos.as_mut().expect("chaos_fail without a policy");
        if !ch.blocked() {
            ch.outage_since = now;
        }
        ch.down = true;
        self.stats.chaos_downs += 1;
        act
    }

    /// The link comes back up; service resumes if packets are queued
    /// (they can only have arrived while merely jammed, not down).
    // Chaos events exist only for links `install_chaos` gave a policy.
    #[allow(clippy::expect_used)]
    pub(crate) fn chaos_recover(&mut self, now: Time) -> PortActions {
        let mut act = PortActions::default();
        let ch = self.chaos.as_mut().expect("chaos_recover without a policy");
        if ch.down {
            ch.down = false;
            if !ch.jammed {
                self.stats.chaos_outage += now - ch.outage_since;
            }
        }
        act.want_start = self.inflight.is_none()
            && !self.sched.is_empty()
            && !self.chaos.as_ref().is_some_and(|c| c.blocked());
        act
    }

    /// A jamming window opens: the in-service packet is lost and the
    /// transmitter stays silent, but — unlike a failure — the queue
    /// survives and keeps accepting arrivals.
    // Chaos events exist only for links `install_chaos` gave a policy.
    #[allow(clippy::expect_used)]
    pub(crate) fn chaos_jam_start(&mut self, now: Time) -> PortActions {
        let mut act = PortActions::default();
        self.chaos_kill_inflight(now, &mut act);
        let ch = self
            .chaos
            .as_mut()
            .expect("chaos_jam_start without a policy");
        if !ch.blocked() {
            ch.outage_since = now;
        }
        ch.jammed = true;
        self.stats.chaos_jams += 1;
        act
    }

    /// The jamming window closes; service resumes on the surviving queue.
    // Chaos events exist only for links `install_chaos` gave a policy.
    #[allow(clippy::expect_used)]
    pub(crate) fn chaos_jam_end(&mut self, now: Time) -> PortActions {
        let mut act = PortActions::default();
        let ch = self.chaos.as_mut().expect("chaos_jam_end without a policy");
        if ch.jammed {
            ch.jammed = false;
            if !ch.down {
                self.stats.chaos_outage += now - ch.outage_since;
            }
        }
        act.want_start = self.inflight.is_none()
            && !self.sched.is_empty()
            && !self.chaos.as_ref().is_some_and(|c| c.blocked());
        act
    }

    /// Wrap a packet in its queue entry, computing the static per-hop
    /// quantities schedulers may key on.
    fn make_queued(&mut self, pkt: Box<Packet>, now: Time) -> Queued {
        let tx_dur = if pkt.tx_left == Dur::ZERO {
            self.tx_time_memo(pkt.size)
        } else {
            pkt.tx_left
        };
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        Queued {
            pkt,
            enq_time: now,
            tx_dur,
            arrival_seq: seq,
        }
    }

    /// Cache-warm what a `TxDone` for this link is about to touch: the
    /// in-flight packet, last accessed a full transmission time (often
    /// thousands of events) ago. Issued by the event loop for the *next*
    /// pending event while the current one is processed.
    #[inline]
    pub(crate) fn prefetch_inflight(&self) {
        #[cfg(target_arch = "x86_64")]
        if let Some(fl) = &self.inflight {
            crate::packet::prefetch_packet(&fl.q.pkt);
        }
    }

    /// Utilization of this link over `elapsed` (busy fraction).
    pub fn utilization(&self, elapsed: Dur) -> f64 {
        if elapsed == Dur::ZERO {
            return 0.0;
        }
        self.stats.busy.as_ps() as f64 / elapsed.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketId, PacketKind, Path, SchedHeader};
    use std::sync::Arc;

    fn mk_link() -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
        )
    }

    fn box_pkt(id: u64, size: u32) -> Box<Packet> {
        Box::new(mk_pkt(id, size))
    }

    fn mk_pkt(id: u64, size: u32) -> Packet {
        let path = Arc::new(Path {
            links: vec![LinkId(0)].into(),
            bw: vec![Bandwidth::gbps(1)].into(),
            prop: vec![Dur::from_micros(5)].into(),
        });
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            seq: id,
            size,
            tx_left: Dur::ZERO,
            src: NodeId(0),
            dst: NodeId(1),
            created: Time::ZERO,
            path,
            hops_done: 0,
            hdr: SchedHeader::default(),
            kind: PacketKind::Data { bytes: size },
            qdelay: Dur::ZERO,
            hop_first_tx: Time::ZERO,
        }
    }

    #[test]
    fn admit_requests_start_on_idle_port() {
        let mut l = mk_link();
        let act = l.admit(box_pkt(0, 1500), Time::ZERO);
        assert!(act.want_start, "idle port must request a start");
        assert!(!l.is_busy());
        let (end, gen) = l.try_start(Time::ZERO).expect("start");
        assert_eq!(end, Time::from_micros(12)); // 1500B at 1Gbps
        assert!(l.is_busy());
        let done = l.tx_done(gen, end);
        let pkt = done.completed.unwrap();
        assert_eq!(pkt.hops_done, 1);
        assert!(!done.want_start, "queue empty: no further start");
        assert!(!l.is_busy());
        assert_eq!(l.stats.tx_done, 1);
    }

    #[test]
    fn redundant_start_requests_are_noops() {
        let mut l = mk_link();
        l.admit(box_pkt(0, 1500), Time::ZERO);
        l.admit(box_pkt(1, 1500), Time::ZERO);
        assert!(l.try_start(Time::ZERO).is_some());
        // Busy port: second deferred start does nothing.
        assert!(l.try_start(Time::ZERO).is_none());
        // Idle port with empty queue: also a no-op.
        let mut empty = mk_link();
        assert!(empty.try_start(Time::ZERO).is_none());
    }

    #[test]
    fn busy_port_queues_and_chains() {
        let mut l = mk_link();
        l.admit(box_pkt(0, 1500), Time::ZERO);
        let (end0, gen0) = l.try_start(Time::ZERO).unwrap();
        let b = l.admit(box_pkt(1, 1500), Time::from_micros(1));
        assert!(!b.want_start, "busy port must not request a start");
        assert_eq!(l.queue_len(), 1);

        let done = l.tx_done(gen0, end0);
        assert!(done.want_start, "queued packet needs a start");
        let (end1, _) = l.try_start(end0).unwrap();
        assert_eq!(end1, Time::from_micros(24)); // back-to-back
    }

    #[test]
    fn wait_is_charged_to_slack_and_qdelay() {
        let mut l = mk_link();
        l.admit(box_pkt(0, 1500), Time::ZERO);
        let (end0, gen0) = l.try_start(Time::ZERO).unwrap();
        l.admit(box_pkt(1, 1500), Time::from_micros(2));
        l.tx_done(gen0, end0);
        // Second packet waited from 2us until 12us = 10us.
        let (end1, gen1) = l.try_start(end0).unwrap();
        let p = l.tx_done(gen1, end1).completed.unwrap();
        assert_eq!(p.qdelay, Dur::from_micros(10));
        assert_eq!(p.hdr.slack, -(Dur::from_micros(10).as_i64()));
    }

    #[test]
    fn first_packet_has_zero_wait() {
        let mut l = mk_link();
        l.admit(box_pkt(0, 1500), Time::from_micros(7));
        let (end, gen) = l.try_start(Time::from_micros(7)).unwrap();
        let p = l.tx_done(gen, end).completed.unwrap();
        assert_eq!(p.qdelay, Dur::ZERO);
        assert_eq!(p.hdr.slack, 0);
    }

    /// Minimal preemption-capable scheduler (urgency = header slack,
    /// FIFO service): `ups-net` cannot use `ups-sched`'s LSTF here
    /// without a dependency cycle.
    #[derive(Debug, Default)]
    struct SlackUrgency {
        q: std::collections::VecDeque<Queued>,
    }
    impl Scheduler for SlackUrgency {
        fn name(&self) -> &'static str {
            "test-slack"
        }
        fn enqueue(&mut self, q: Queued) {
            self.q.push_back(q);
        }
        fn dequeue(&mut self) -> Option<Queued> {
            self.q.pop_front()
        }
        fn len(&self) -> usize {
            self.q.len()
        }
        fn urgency(&self, q: &Queued) -> Option<i64> {
            Some(q.pkt.hdr.slack)
        }
    }

    #[test]
    fn preempt_updates_queue_depth_high_water_mark() {
        let mut l = mk_link();
        l.preemptive = true;
        l.set_scheduler(Box::new(SlackUrgency::default()));

        let mut lazy = mk_pkt(0, 1500);
        lazy.hdr.slack = 1_000_000_000; // plenty of slack: preemptible
        l.admit(Box::new(lazy), Time::ZERO);
        l.try_start(Time::ZERO).unwrap(); // in flight, queue empty
        assert_eq!(l.stats.max_queue_pkts, 1);

        let mut urgent = mk_pkt(1, 1500);
        urgent.hdr.slack = -1; // more urgent than the in-flight packet
        l.admit(Box::new(urgent), Time::from_micros(1));
        assert_eq!(l.stats.preemptions, 1, "urgent arrival must preempt");
        // Both the re-queued (suspended) packet and the arrival are in
        // the queue now; the high-water mark must count them both.
        assert_eq!(l.queue_len(), 2);
        assert_eq!(
            l.stats.max_queue_pkts, 2,
            "suspended packet missing from the depth high-water mark"
        );
    }

    #[test]
    fn oversized_arrival_on_empty_queue_is_dropped_not_looped() {
        let mut l = mk_link();
        l.buffer = Some(1000); // smaller than one 1500 B packet
        let act = l.admit(box_pkt(0, 1500), Time::ZERO);
        assert_eq!(act.dropped.len(), 1);
        assert_eq!(act.dropped[0].id, PacketId(0));
        assert!(!act.want_start, "nothing admitted, nothing to start");
        assert_eq!(l.stats.dropped, 1);
        assert_eq!(l.stats.enqueued, 0);
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn drop_tail_on_overflow() {
        let mut l = mk_link();
        l.buffer = Some(3000); // room for two 1500B packets in queue
        l.admit(box_pkt(0, 1500), Time::ZERO);
        l.try_start(Time::ZERO).unwrap(); // packet 0 goes in flight
                                          // Two fit in the buffer while one transmits...
        assert!(l.admit(box_pkt(1, 1500), Time::ZERO).dropped.is_empty());
        assert!(l.admit(box_pkt(2, 1500), Time::ZERO).dropped.is_empty());
        // ...the fourth overflows and FIFO drops the arrival.
        let act = l.admit(box_pkt(3, 1500), Time::ZERO);
        assert_eq!(act.dropped.len(), 1);
        assert_eq!(act.dropped[0].id, PacketId(3));
        assert_eq!(l.stats.dropped, 1);
    }

    #[test]
    fn stale_tx_done_is_ignored() {
        let mut l = mk_link();
        l.admit(box_pkt(0, 1500), Time::ZERO);
        let (_end, gen) = l.try_start(Time::ZERO).unwrap();
        let stale = l.tx_done(gen + 17, Time::from_micros(1));
        assert!(stale.completed.is_none());
        assert!(l.is_busy());
    }

    #[test]
    fn zero_tx_time_on_infinite_bandwidth() {
        let mut l = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            Bandwidth::INFINITE,
            Dur::ZERO,
        );
        l.admit(box_pkt(0, 1500), Time::from_micros(3));
        let (end, gen) = l.try_start(Time::from_micros(3)).unwrap();
        assert_eq!(
            end,
            Time::from_micros(3),
            "infinite bw serializes instantly"
        );
        let done = l.tx_done(gen, end);
        assert!(done.completed.is_some());
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut l = mk_link();
        l.admit(box_pkt(0, 1500), Time::ZERO);
        let (end, gen) = l.try_start(Time::ZERO).unwrap();
        l.tx_done(gen, end);
        // Busy 12us out of 24us elapsed = 50%.
        let u = l.utilization(Dur::from_micros(24));
        assert!((u - 0.5).abs() < 1e-9);
    }
}
