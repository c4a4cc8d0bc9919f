//! Executable versions of the paper's appendix constructions.
//!
//! The appendix examples (Figures 5, 6, 7) are stated on idealized
//! networks: congestion points with unit transmission time, all other
//! hops free. This module provides
//!
//! * [`UnitNet`] — a builder for such networks on the real simulator
//!   (congestion points are single-server unit links; everything else is
//!   an idealized zero-serialization wire, so every event lands on the
//!   tables' integer grid exactly);
//! * [`realize`] — hand-construction of *viable* recorded schedules from
//!   per-congestion-point intended times. The formal model allows
//!   non-work-conserving originals (§2.1), so intended times may include
//!   idle waiting; realized times respect arrival causality and link
//!   serialization exactly.
//!
//! Submodules [`fig5`], [`fig6`], [`fig7`] encode the three
//! counterexamples and assert their published outcomes.

// Hash maps here serve keyed lookups only: nothing iterates them, so
// no hash order can reach a result. Clippy's hash-type ban is relaxed
// file-wide.
#![allow(clippy::disallowed_types)]

pub mod fig5;
pub mod fig6;
pub mod fig7;

use crate::schedule::RecordedSchedule;
use std::collections::HashMap;
use std::sync::Arc;
use ups_net::{FlowId, HopTx, LinkId, Network, NodeId, PacketRecord, Path, TraceLevel};
use ups_sim::{Bandwidth, Dur, Time};
use ups_topo::Topology;

/// One time unit: the transmission time of a 1500-byte packet at 1 Gbps.
pub const UNIT: Dur = Dur(12_000_000); // 12 us in ps

/// Base offset so hand-built schedules never need negative times.
pub const BASE: Time = Time(1_000_000_000); // 1 ms in ps

/// The "free" bandwidth for uncongested hops: idealized infinite rate,
/// so every packet lands on the appendix tables' integer time grid
/// exactly and contention decisions are made by the schedulers, never by
/// sub-nanosecond serialization residue.
pub fn fast_bw() -> Bandwidth {
    Bandwidth::INFINITE
}

/// A congestion point: a single-server unit link between two routers.
#[derive(Debug, Clone, Copy)]
pub struct Cp {
    /// Router packets converge into.
    pub entry: NodeId,
    /// Router on the far side of the server.
    pub exit: NodeId,
    /// The server link itself.
    pub link: LinkId,
}

/// A flow's fixed route through a sequence of congestion points.
#[derive(Debug, Clone)]
pub struct FlowPath {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// All links in order (fast and unit interleaved).
    pub links: Vec<LinkId>,
    /// Indices into `links` that are congestion-point servers.
    pub cp_hops: Vec<usize>,
}

/// Builder for appendix-style unit networks.
#[derive(Debug)]
pub struct UnitNet {
    /// The underlying network.
    pub net: Network,
    counter: u32,
}

impl UnitNet {
    /// New empty unit network (hop tracing on: replays are scored).
    pub fn new() -> UnitNet {
        UnitNet {
            net: Network::new(TraceLevel::Hops),
            counter: 0,
        }
    }

    /// Add a congestion point whose server transmits a 1500-byte packet
    /// in `t_units_x100 / 100` units (100 = one unit, 50 = half, …).
    pub fn cp(&mut self, name: &str, t_units_x100: u64) -> Cp {
        assert!(t_units_x100 > 0);
        let entry = self.net.add_router(format!("{name}.in"));
        let exit = self.net.add_router(format!("{name}.out"));
        // T = (t/100) * 12us for 1500B ⇒ bw = 1Gbps * 100 / t.
        let bw = Bandwidth::bps(1_000_000_000 * 100 / t_units_x100);
        let link = self.net.add_link(entry, exit, bw, Dur::ZERO);
        Cp { entry, exit, link }
    }

    /// Wire a flow through `cps` in order, optionally inserting an extra
    /// propagation delay (in hundredths of a unit) *before* entering each
    /// congestion point (Figure 6's link L). Returns the flow's path.
    pub fn flow_path(&mut self, name: &str, cps: &[Cp], pre_prop_x100: &[u64]) -> FlowPath {
        assert!(!cps.is_empty());
        assert_eq!(pre_prop_x100.len(), cps.len());
        self.counter += 1;
        let src = self.net.add_host(format!("S{name}"));
        let dst = self.net.add_host(format!("D{name}"));
        let mut links = Vec::new();
        let mut cp_hops = Vec::new();
        let mut at = src;
        for (k, cp) in cps.iter().enumerate() {
            let prop = Dur(UNIT.as_ps() * pre_prop_x100[k] / 100);
            links.push(self.net.add_link(at, cp.entry, fast_bw(), prop));
            cp_hops.push(links.len());
            links.push(cp.link);
            at = cp.exit;
        }
        links.push(self.net.add_link(at, dst, fast_bw(), Dur::ZERO));
        FlowPath {
            src,
            dst,
            links,
            cp_hops,
        }
    }

    /// Materialize an `Arc<Path>` for a flow path.
    pub fn path(&self, fp: &FlowPath) -> Arc<Path> {
        let bw = fp
            .links
            .iter()
            .map(|&l| self.net.links[l.0 as usize].bw)
            .collect();
        let prop = fp
            .links
            .iter()
            .map(|&l| self.net.links[l.0 as usize].prop)
            .collect();
        Arc::new(Path {
            links: fp.links.clone().into(),
            bw,
            prop,
        })
    }

    /// Wrap into a [`Topology`] so the replay engine can run on it.
    /// All links are classified "core" (the tier split is irrelevant
    /// here).
    pub fn into_topology(self, name: &str) -> Topology {
        let links = self.net.link_ids();
        let mut net = self.net;
        // Theory packets travel explicit paths, but the Topology contract
        // includes a frozen routing handle, and replay's reverse lookups
        // expect one.
        let routes = net.compute_routes();
        Topology {
            net,
            routes,
            name: name.to_string(),
            hosts: Vec::new(),
            core_links: links,
            access_links: Vec::new(),
            host_links: Vec::new(),
        }
    }
}

impl Default for UnitNet {
    fn default() -> Self {
        Self::new()
    }
}

/// A packet's intended schedule: arrival at its first congestion point
/// and the intended service start at each congestion point on its path,
/// all in hundredths of a unit relative to [`BASE`].
#[derive(Debug, Clone)]
pub struct PacketPlan {
    /// Flow id.
    pub flow: FlowId,
    /// Sequence within flow.
    pub seq: u64,
    /// Wire size (1500 for unit packets; smaller for shims).
    pub size: u32,
    /// The flow's route.
    pub fp: FlowPath,
    /// Arrival time at the first congestion point (x100 units).
    pub arrival_x100: i64,
    /// Intended service start at each congestion point (x100 units).
    pub cp_sched_x100: Vec<i64>,
}

/// Realize a set of intended packet plans into an exactly viable
/// [`RecordedSchedule`] on `unit_net`.
///
/// Each hop's realized start is `max(arrival, intended, server free)`;
/// intended times may therefore include idle waiting (non-work-
/// conserving originals are allowed by the model) and the realization
/// absorbs the sub-nanosecond fast-hop residue while preserving every
/// whole-unit relationship of the published tables.
pub fn realize(unit_net: &UnitNet, plans: &[PacketPlan]) -> RecordedSchedule {
    let to_time = |x100: i64| -> Time { BASE.offset(x100 * UNIT.as_ps() as i64 / 100) };

    // One row per plan with its arena range. A row's `hops_done` counts
    // the hops realized so far; its arrival at the next one is derived
    // from the arena, as for a recorded packet.
    let mut arena_len = 0;
    let mut packets: Vec<PacketRecord> = plans
        .iter()
        .map(|p| {
            let path = unit_net.path(&p.fp);
            // Injection so the packet reaches its first congestion point
            // at the intended arrival: subtract the fast prefix.
            let prefix = path.tmin_from(0, p.size) - path.tmin_from(p.fp.cp_hops[0], p.size);
            let i = to_time(p.arrival_x100) - prefix;
            let hop_offset = arena_len;
            arena_len += path.hops();
            let (flow, src, dst) = (p.flow, p.fp.src, p.fp.dst);
            PacketRecord {
                hop_offset,
                ..PacketRecord::pending(flow, p.seq, p.size, src, dst, i, path)
            }
        })
        .collect();
    let mut hops = vec![HopTx::default(); arena_len];

    // Process congestion-point hops globally in intended order; a
    // packet's hop k can only be processed after its hop k-1, which the
    // intended ordering guarantees for valid tables.
    let mut free: HashMap<LinkId, Time> = HashMap::new();
    // Global order of (intended time, plan index, cp ordinal).
    let mut work: Vec<(i64, usize, usize)> = Vec::new();
    for (pi, p) in plans.iter().enumerate() {
        assert_eq!(p.cp_sched_x100.len(), p.fp.cp_hops.len());
        for (k, &t) in p.cp_sched_x100.iter().enumerate() {
            work.push((t, pi, k));
        }
    }
    work.sort();

    // Realize `r`'s hops up to `upto`, the last no earlier than `intended`.
    let advance = |r: &mut PacketRecord,
                   upto: usize,
                   intended: Option<Time>,
                   free: &mut HashMap<LinkId, Time>,
                   hops: &mut [HopTx]| {
        while (r.hops_done as usize) < upto {
            let hop = r.hops_done as usize;
            let lid = r.path.links[hop];
            let ready = r.arrival(hops, hop);
            let mut start = ready.max(free.get(&lid).copied().unwrap_or(Time::ZERO));
            if hop == upto - 1 {
                if let Some(t) = intended {
                    start = start.max(t);
                }
            }
            // Non-preemptive: a hop ends one transmission time after it
            // starts.
            let tx_end = start + r.path.bw[hop].tx_time(r.size);
            hops[r.hop_offset + hop] = HopTx {
                tx_start: start,
                tx_end,
            };
            free.insert(lid, tx_end);
            r.hops_done += 1;
        }
    };

    for (t, pi, k) in work {
        let cp_hop = plans[pi].fp.cp_hops[k];
        // Fast hops up to the server, then the server itself with its
        // intended start.
        let intended = Some(to_time(t));
        advance(&mut packets[pi], cp_hop + 1, intended, &mut free, &mut hops);
    }
    // Drain trailing fast hops; the exit is the full arrival past the
    // last one.
    for r in &mut packets {
        let n = r.path.hops();
        advance(r, n, None, &mut free, &mut hops);
        r.delivered = Some(r.arrival(&hops, n));
    }
    RecordedSchedule { packets, hops }
}

/// Assert helper: lateness in picoseconds, indexed like the schedule.
pub fn lateness_units(report: &crate::replay::ReplayReport) -> Vec<f64> {
    report
        .lateness
        .iter()
        .map(|&l| l as f64 / UNIT.as_ps() as f64)
        .collect()
}

/// Epsilon budget for "met its target" assertions. With infinite-rate
/// fast hops and class-ordered events the realizations are exact, so
/// this only guards against representational off-by-one-picosecond
/// effects; failures in the counterexamples are whole units (~12 µs).
pub const EPS: i64 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(UNIT, Dur::from_micros(12));
        // A fast hop is at least four orders of magnitude below a unit.
        let fast_tx = fast_bw().tx_time(1500);
        assert!(fast_tx.as_ps() * 10_000 <= UNIT.as_ps());
    }

    #[test]
    fn realize_single_packet_no_wait() {
        let mut un = UnitNet::new();
        let a0 = un.cp("a0", 100);
        let fp = un.flow_path("A", &[a0], &[0]);
        let plan = PacketPlan {
            flow: FlowId(0),
            seq: 0,
            size: 1500,
            fp,
            arrival_x100: 0,
            cp_sched_x100: vec![0],
        };
        let sched = realize(&un, &[plan]);
        let p = sched.packet(0);
        // Service at BASE, one unit of transmission, zero-cost tail.
        assert_eq!(p.o(), BASE + UNIT);
        assert!(p.slack() >= 0);
        assert!(p.slack() < EPS, "slack {} should be ~0", p.slack());
    }

    #[test]
    fn realize_respects_intended_idle_waiting() {
        // One packet intentionally held until t=3 units even though it
        // arrives at t=0: non-work-conserving originals are legal.
        let mut un = UnitNet::new();
        let a0 = un.cp("a0", 100);
        let fp = un.flow_path("A", &[a0], &[0]);
        let plan = PacketPlan {
            flow: FlowId(0),
            seq: 0,
            size: 1500,
            fp,
            arrival_x100: 0,
            cp_sched_x100: vec![300],
        };
        let sched = realize(&un, &[plan]);
        let p = sched.packet(0);
        let want = BASE + UNIT * 4; // held 3 units + 1 unit service
        assert_eq!(p.o(), want);
        // Slack reflects the 3 idle units exactly.
        assert_eq!(p.slack(), 3 * UNIT.as_i64());
    }

    #[test]
    fn realize_serializes_contending_packets() {
        // Two packets, same server, same intended time: serialization
        // pushes the second one back a full unit.
        let mut un = UnitNet::new();
        let a0 = un.cp("a0", 100);
        let fp1 = un.flow_path("A", &[a0], &[0]);
        let fp2 = un.flow_path("B", &[a0], &[0]);
        let mk = |flow: u64, fp: FlowPath| PacketPlan {
            flow: FlowId(flow),
            seq: 0,
            size: 1500,
            fp,
            arrival_x100: 0,
            cp_sched_x100: vec![0],
        };
        let sched = realize(&un, &[mk(0, fp1), mk(1, fp2)]);
        let gap = sched.packet(1).o().signed_since(sched.packet(0).o());
        assert_eq!(gap, UNIT.as_i64());
    }
}
