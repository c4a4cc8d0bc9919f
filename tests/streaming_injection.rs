//! Streaming injection ≡ bulk pre-loading.
//!
//! Open-loop input reaches the network through a pull source
//! (`ups::net::InjectSource`): a packet is built when the clock reaches
//! its send instant, not before the first event pops. The argument that
//! this changes no result is written in `crates/net/src/source.rs`; this
//! file tests it. The bulk path no longer exists in the product, so it
//! is rebuilt here — one `Network::inject_on_path` call per packet, in
//! source order, before the run starts — and every run below is made
//! both ways and compared down to each hop's three timestamps.
//!
//! * the differential proptest covers random dumbbells and the k=4
//!   fat-tree × {FIFO, Random, LSTF, EDF} × {clean, 1% wire loss, one
//!   link-down window};
//! * the named tests pin the ties the ordering argument rests on.

use proptest::prelude::*;
use std::sync::Arc;
use ups::net::{
    ChaosPolicy, FlowId, HopTx, InjectSource, Injection, LinkPolicy, Network, NodeId, PacketKind,
    PacketRecord, Path, RoutingTable, SchedHeader, Telemetry, TraceLevel,
};
use ups::sched::{lstf, SchedKind};
use ups::sim::{Bandwidth, Dur, Time};
use ups::topo::simple::{dumbbell, line};
use ups::topo::{fattree, Topology};
use ups::transport::{inject_udp_flows, FlowDesc, HeaderStamper, PrioPolicy, SlackPolicy};

/// How a run gets its input.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Feed {
    /// Through the product's pull source.
    Stream,
    /// The pre-load rebuilt in this file.
    Bulk,
}

/// What `inject_udp_flows` did before it became a source: stamp, box
/// and pre-schedule every packet of every flow, flow-major.
fn preload_udp_flows(
    net: &mut Network,
    routes: &RoutingTable,
    flows: &[FlowDesc],
    wire_bytes: u32,
    stamper: &mut HeaderStamper,
) {
    for f in flows {
        let path = routes.resolve_path(f.src, f.dst, f.id);
        let pace = path.bw[0].tx_time(wire_bytes);
        let tmin = path.tmin(wire_bytes);
        for seq in 0..f.pkts {
            let at = f.start + pace * seq;
            let mut hdr = stamper.stamp_data(f.id, f.pkts, f.pkts - seq, wire_bytes, at);
            if let Some(deadline) = f.deadline {
                hdr.slack = (deadline.as_i64() - (pace * seq).as_i64() - tmin.as_i64()).max(0);
            }
            net.inject_on_path(
                at,
                f.id,
                seq,
                wire_bytes,
                f.src,
                f.dst,
                Arc::clone(&path),
                hdr,
                PacketKind::Data {
                    bytes: wire_bytes - 40,
                },
            );
        }
    }
}

fn feed_udp(feed: Feed, topo: &mut Topology, flows: &[FlowDesc], stamper: &mut HeaderStamper) {
    let routes = Arc::clone(&topo.routes);
    match feed {
        Feed::Stream => inject_udp_flows(&mut topo.net, &routes, flows, 1500, stamper),
        Feed::Bulk => preload_udp_flows(&mut topo.net, &routes, flows, 1500, stamper),
    }
}

/// A stateful stamper (per-flow virtual clock, remaining-size priority)
/// so that *when* a header is stamped would show if it mattered.
fn stamper() -> HeaderStamper {
    HeaderStamper::new(
        SlackPolicy::VirtualClock {
            rest: Bandwidth::mbps(400),
        },
        PrioPolicy::Remaining,
    )
}

/// Everything a run leaves behind that a result is ever computed from.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per packet, in id order: identity, `i(p)`, `o(p)`, fate, and
    /// every hop's `(arrive, tx_start, tx_end)`.
    packets: Vec<PacketRow>,
    /// `(injected, delivered, dropped, bytes_delivered, events)`. A
    /// streamed packet counts as one event when it is sent, as its
    /// pre-loaded `Arrive` did when it popped; the feeder event itself
    /// is not counted — so `events` is equal, not merely close.
    counters: (u64, u64, u64, u64, u64),
    links: Vec<LinkRow>,
    /// `(drops, downs, jams, outage_ps)`.
    chaos: (u64, u64, u64, u64),
    end: Time,
}

type HopRow = (u64, u64, u64);
type PacketRow = (u64, u64, u64, Option<u64>, bool, Vec<HopRow>);
/// `(enqueued, dropped, tx_done, bytes_tx, busy_ps, preemptions,
/// max_queue_pkts, chaos_drops)`.
type LinkRow = (u64, u64, u64, u64, u64, u64, usize, u64);

fn packet_row(r: &PacketRecord, arena: &[HopTx]) -> PacketRow {
    let hops = r
        .hops(arena)
        .map(|h| (h.arrive.as_ps(), h.tx_start.as_ps(), h.tx_end.as_ps()))
        .collect();
    (
        r.flow.0,
        r.seq,
        r.created.as_ps(),
        r.delivered.map(|t| t.as_ps()),
        r.dropped,
        hops,
    )
}

fn outcome(net: &Network) -> Outcome {
    let c = &net.telemetry.counters;
    let chaos = net.chaos_totals();
    Outcome {
        packets: (net.telemetry.packets.iter())
            .map(|r| packet_row(r, &net.telemetry.hops))
            .collect(),
        counters: (
            c.injected,
            c.delivered,
            c.dropped,
            c.bytes_delivered,
            c.events,
        ),
        links: net
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
                    s.preemptions,
                    s.max_queue_pkts,
                    s.chaos_drops,
                )
            })
            .collect(),
        chaos: (chaos.drops, chaos.downs, chaos.jams, chaos.outage.as_ps()),
        end: net.now(),
    }
}

/// SplitMix64 step: one seed expands into a whole workload.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random flows between distinct hosts. Starts sit on a 1.2 µs grid —
/// one 1500 B serialization at 10 Gbps, a tenth of one at 1 Gbps — so
/// packets of different flows collide on the same picosecond all the
/// time, at the NIC and downstream.
fn random_flows(hosts: &[NodeId], n: usize, seed: u64) -> Vec<FlowDesc> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let n = hosts.len() as u64;
            let a = mix(&mut s) % n;
            let b = (a + 1 + mix(&mut s) % (n - 1)) % n;
            let (src, dst) = (hosts[a as usize], hosts[b as usize]);
            FlowDesc {
                id: FlowId(i as u64),
                src,
                dst,
                pkts: 1 + mix(&mut s) % 24,
                start: Time::from_nanos(1200 * (mix(&mut s) % 40)),
                deadline: (mix(&mut s) % 4 == 0).then(|| Dur::from_micros(100 + mix(&mut s) % 400)),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Perturb {
    Clean,
    /// 1% i.i.d. wire loss on every link.
    Loss,
    /// One core link down from 20 µs to 60 µs.
    LinkDown,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    /// `Some(n)`: dumbbell with `n` hosts a side; `None`: fat-tree k=4.
    dumbbell: Option<usize>,
    sched: SchedKind,
    perturb: Perturb,
    flows: usize,
    seed: u64,
}

fn run_case(case: &Case, feed: Feed) -> Outcome {
    let mut topo = match case.dumbbell {
        Some(n) => dumbbell(
            n,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(2),
            TraceLevel::Hops,
        ),
        None => fattree::build(&fattree::FatTreeConfig::for_k(4), TraceLevel::Hops),
    };
    // Odd seeds get a finite buffer, so eviction order is compared too.
    let buffer = (case.seed % 2 == 1).then_some(45_000);
    topo.net.configure_links(|l| {
        LinkPolicy::keep()
            .scheduler(case.sched.build(l.id, case.seed))
            .buffer(buffer)
    });
    let down = topo.core_links[0];
    match case.perturb {
        Perturb::Clean => {}
        Perturb::Loss => topo.net.install_chaos(Time::from_millis(10), |_| {
            Some(ChaosPolicy::new(case.seed).drop_prob(0.01))
        }),
        Perturb::LinkDown => topo.net.install_chaos(Time::from_millis(10), |l| {
            (l.id == down).then(|| {
                ChaosPolicy::new(case.seed).fail(Time::from_micros(20), Time::from_micros(60))
            })
        }),
    }
    let flows = random_flows(&topo.hosts, case.flows, case.seed);
    feed_udp(feed, &mut topo, &flows, &mut stamper());
    topo.net.run_to_completion();
    assert_eq!(topo.net.packets_in_flight(), 0, "packet leak");
    outcome(&topo.net)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The streaming source and the bulk pre-load produce the same run:
    /// every `HopTimes` of every packet, every counter (`events`
    /// included), every link's statistics and the chaos totals.
    #[test]
    fn streaming_matches_bulk_preload(
        shape in 0usize..4,
        sched in 0usize..4,
        perturb in 0usize..3,
        flows in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let case = Case {
            dumbbell: (shape > 0).then_some(shape + 1),
            sched: [SchedKind::Fifo, SchedKind::Random, SchedKind::Lstf, SchedKind::Edf][sched],
            perturb: [Perturb::Clean, Perturb::Loss, Perturb::LinkDown][perturb],
            flows,
            seed,
        };
        let stream = run_case(&case, Feed::Stream);
        let bulk = run_case(&case, Feed::Bulk);
        prop_assert!(stream.counters.0 > 0, "vacuous case");
        prop_assert_eq!(stream, bulk, "{:?}", case);
    }
}

// ----------------------------------------------------------------------
// Named ties
// ----------------------------------------------------------------------

fn flow(id: u64, src: NodeId, dst: NodeId, pkts: u64, start: Time) -> FlowDesc {
    FlowDesc {
        id: FlowId(id),
        src,
        dst,
        pkts,
        start,
        deadline: None,
    }
}

/// A 2+2 dumbbell with uniform finite links: no chaos, no apps, no
/// theory links.
fn plain_dumbbell(level: TraceLevel) -> Topology {
    dumbbell(
        2,
        Bandwidth::gbps(1),
        Bandwidth::gbps(1),
        Dur::from_micros(2),
        level,
    )
}

/// Two flows leave one host at the same picosecond: both packets reach
/// the host NIC's scheduler in one batch, flow 0's first. Random draws
/// among them and LSTF compares their virtual-clock slacks, so either
/// would show a swapped or split batch.
#[test]
fn two_flows_on_one_nic_due_at_the_same_picosecond() {
    for sched in [SchedKind::Random, SchedKind::Lstf] {
        let run = |feed: Feed| {
            let mut topo = plain_dumbbell(TraceLevel::Hops);
            topo.net
                .configure_links(|l| LinkPolicy::keep().scheduler(sched.build(l.id, 3)));
            let h = topo.hosts.clone();
            // Same host, same start, same pace: every packet of flow 1
            // ties with the same-numbered packet of flow 0.
            let flows = [
                flow(0, h[0], h[2], 6, Time::from_micros(1)),
                flow(1, h[0], h[3], 6, Time::from_micros(1)),
            ];
            feed_udp(feed, &mut topo, &flows, &mut stamper());
            topo.net.run_to_completion();
            outcome(&topo.net)
        };
        let stream = run(Feed::Stream);
        assert_eq!(stream.counters.1, 12, "{}", sched.label());
        assert_eq!(stream, run(Feed::Bulk), "{}", sched.label());
    }
}

/// A hand-built source: explicit packets, any source node.
#[derive(Debug)]
struct Listed {
    /// `(at, flow, src, dst, path, slack)`, in source order.
    items: Vec<(Time, u64, NodeId, NodeId, Arc<Path>, i64)>,
    /// Indices into `items` by `(at, index)`.
    order: Vec<usize>,
    next: usize,
}

impl Listed {
    fn new(items: Vec<(Time, u64, NodeId, NodeId, Arc<Path>, i64)>) -> Listed {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&k| items[k].0);
        Listed {
            items,
            order,
            next: 0,
        }
    }

    fn header(slack: i64) -> SchedHeader {
        SchedHeader { slack, prio: slack }
    }

    fn preload(&self, net: &mut Network) {
        for (at, flow, src, dst, path, slack) in &self.items {
            net.inject_on_path(
                *at,
                FlowId(*flow),
                0,
                1500,
                *src,
                *dst,
                Arc::clone(path),
                Listed::header(*slack),
                PacketKind::Data { bytes: 1460 },
            );
        }
    }
}

impl InjectSource for Listed {
    fn packets(&self) -> u64 {
        self.items.len() as u64
    }

    fn records(&self, out: &mut Vec<PacketRecord>) {
        for (at, flow, src, dst, path, _) in &self.items {
            out.push(PacketRecord::pending(
                FlowId(*flow),
                0,
                1500,
                *src,
                *dst,
                *at,
                Arc::clone(path),
            ));
        }
    }

    fn next_at(&self) -> Option<Time> {
        self.order.get(self.next).map(|&k| self.items[k].0)
    }

    fn pull_due(&mut self, now: Time) -> Option<Injection> {
        let &k = self.order.get(self.next)?;
        let (at, flow, src, dst, path, slack) = &self.items[k];
        if *at != now {
            return None;
        }
        self.next += 1;
        Some(Injection {
            index: k as u64,
            flow: FlowId(*flow),
            seq: 0,
            size: 1500,
            src: *src,
            dst: *dst,
            path: Arc::clone(path),
            hdr: Listed::header(*slack),
            kind: PacketKind::Data { bytes: 1460 },
        })
    }
}

/// An injection and a forwarded arrival reach the same output port at
/// the same instant. Packet 0 is injected *at the router* at exactly
/// the picosecond packet 1, sent by the host at t = 0, arrives there;
/// both are bound for the router's egress. They must share one batch —
/// injected packet first, as its pre-loaded `Arrive` popped first — so
/// that the idle port picks among both: LSTF then sends the forwarded
/// packet (less slack) first. Handling the injection on its own would
/// put it on the wire before the port ever saw the other.
#[test]
fn injection_and_forwarded_arrival_at_the_same_instant_for_the_same_port() {
    let run = |feed: Feed| {
        let mut topo = line(1, Bandwidth::gbps(1), Dur::from_micros(3), TraceLevel::Hops);
        topo.net
            .configure_links(|_| LinkPolicy::keep().scheduler(Box::new(lstf())));
        let (h0, h1) = (topo.hosts[0], topo.hosts[1]);
        let full = topo.routes.resolve_path(h0, h1, FlowId(1));
        assert_eq!(full.hops(), 2);
        let router = topo.net.links[full.links[0].0 as usize].to;
        let egress = Arc::new(Path {
            links: full.links[1..].into(),
            bw: full.bw[1..].into(),
            prop: full.prop[1..].into(),
        });
        // 12 µs on the NIC + 3 µs of propagation.
        let meet = Time::from_micros(15);
        let source = Listed::new(vec![
            (meet, 0, router, h1, egress, 1_000_000_000),
            (Time::ZERO, 1, h0, h1, full, 5),
        ]);
        match feed {
            Feed::Stream => topo.net.attach_source(Box::new(source)),
            Feed::Bulk => source.preload(&mut topo.net),
        }
        topo.net.run_to_completion();
        outcome(&topo.net)
    };
    let stream = run(Feed::Stream);
    let egress_start = |flow: u64| {
        let (.., hops) = stream.packets.iter().find(|p| p.0 == flow).expect("packet");
        hops.last().expect("traced").1
    };
    assert_eq!(egress_start(1), Time::from_micros(15).as_ps());
    assert_eq!(egress_start(0), Time::from_micros(27).as_ps());
    assert_eq!(stream, run(Feed::Bulk));
}

/// `run_until` may stop between two injections: the feeder stays
/// pending, the source stays attached, and resuming changes nothing.
/// Mid-run, the streamed network has injected exactly what was due.
#[test]
fn run_until_stops_between_two_injections_and_resumes() {
    let run = |feed: Feed| {
        let mut topo = plain_dumbbell(TraceLevel::Hops);
        let h = topo.hosts.clone();
        let flows = [
            flow(0, h[0], h[2], 5, Time::ZERO),
            flow(1, h[1], h[2], 5, Time::from_micros(7)),
        ];
        feed_udp(feed, &mut topo, &flows, &mut stamper());
        // Packets go out every 12 µs from 0 and from 7 µs: 30 µs falls
        // between flow 0's third and flow 1's third.
        topo.net.run_until(Time::from_micros(30));
        let sent_by_30us = topo.net.telemetry.counters.injected;
        topo.net.run_until(Time::from_micros(31));
        topo.net.run_to_completion();
        (sent_by_30us, outcome(&topo.net))
    };
    let (stream_mid, stream) = run(Feed::Stream);
    let (bulk_mid, bulk) = run(Feed::Bulk);
    assert_eq!(stream_mid, 5, "0, 12, 24 µs and 7, 19 µs are due by 30 µs");
    assert_eq!(bulk_mid, 10, "the pre-load counted every packet at t0");
    assert_eq!(stream.counters.1, 10);
    assert_eq!(stream, bulk);
}

/// A source registered after the clock has moved: ids continue after
/// the earlier packets, send instants are absolute, and a source may
/// follow an exhausted one on the same network.
#[test]
fn source_registered_at_now_greater_than_zero() {
    let run = |feed: Feed| {
        let mut topo = plain_dumbbell(TraceLevel::Hops);
        let h = topo.hosts.clone();
        let mut st = stamper();
        feed_udp(
            feed,
            &mut topo,
            &[flow(0, h[0], h[2], 4, Time::ZERO)],
            &mut st,
        );
        topo.net.run_to_completion();
        let now = topo.net.now();
        assert!(now > Time::ZERO);
        let later = [
            flow(1, h[1], h[3], 4, now + Dur::from_micros(1)),
            flow(2, h[0], h[3], 4, now + Dur::from_micros(1)),
        ];
        feed_udp(feed, &mut topo, &later, &mut st);
        assert_eq!(topo.net.telemetry.packets.len(), 12);
        topo.net.run_to_completion();
        outcome(&topo.net)
    };
    let stream = run(Feed::Stream);
    assert_eq!(stream.counters.1, 12);
    assert_eq!(stream, run(Feed::Bulk));
}

/// One open-loop source at a time. No caller interleaves two — every
/// pipeline injects once per network — so a second `inject_udp_flows`
/// while the first still has packets to send is refused loudly rather
/// than given a same-instant merge rule nobody has asked for. (After
/// the first is exhausted a second is fine: the test above.)
#[test]
#[should_panic(expected = "one open-loop source at a time")]
fn second_inject_udp_flows_while_the_first_is_live_panics() {
    let mut topo = plain_dumbbell(TraceLevel::Delivery);
    let h = topo.hosts.clone();
    let mut st = stamper();
    let first = [flow(0, h[0], h[2], 4, Time::ZERO)];
    let second = [flow(1, h[1], h[3], 4, Time::ZERO)];
    feed_udp(Feed::Stream, &mut topo, &first, &mut st);
    feed_udp(Feed::Stream, &mut topo, &second, &mut st);
}

/// Tracing swapped to `Off` before injecting (the benchmark's
/// forwarding probe does this): no records are written at registration,
/// ids are still reserved, and the counters and link statistics match.
#[test]
fn trace_level_off_registers_no_records() {
    let run = |feed: Feed| {
        let mut topo = plain_dumbbell(TraceLevel::Hops);
        topo.net.telemetry = Telemetry::new(TraceLevel::Off);
        let h = topo.hosts.clone();
        let flows = [
            flow(0, h[0], h[2], 8, Time::ZERO),
            flow(1, h[1], h[2], 8, Time::from_micros(3)),
        ];
        feed_udp(feed, &mut topo, &flows, &mut HeaderStamper::zero());
        topo.net.run_to_completion();
        outcome(&topo.net)
    };
    let stream = run(Feed::Stream);
    assert!(stream.packets.is_empty());
    assert_eq!(stream.counters.1, 16);
    assert_eq!(stream, run(Feed::Bulk));
}

/// A streamed leg holds only its feeder until it runs, and the
/// in-flight population is what is in the network, not what the leg
/// will ever send.
#[test]
fn a_streamed_leg_holds_only_its_feeder_and_in_flight_is_in_network() {
    let mut topo = plain_dumbbell(TraceLevel::Delivery);
    let h = topo.hosts.clone();
    // Opposite directions: the flows share no port, so nothing queues.
    let flows = [
        flow(0, h[0], h[2], 20, Time::ZERO),
        flow(1, h[3], h[1], 20, Time::from_micros(5)),
    ];
    feed_udp(Feed::Stream, &mut topo, &flows, &mut HeaderStamper::zero());
    assert_eq!(topo.net.pending_events(), 1, "the feeder, nothing else");
    assert_eq!(topo.net.packets_in_flight(), 0);
    topo.net.run_to_completion();
    assert_eq!(topo.net.telemetry.counters.delivered, 40);
    // A packet spends 3 × (12 µs + 2 µs) in the network and each flow
    // sends one every 12 µs: four per flow at most, of 40 in the leg.
    let peak = topo.net.peak_packets_in_flight();
    assert!((2..=8).contains(&peak), "peak {peak} for two paced flows");
}
