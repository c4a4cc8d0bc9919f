//! The traced pass: each cell-run re-walked from the public pieces its
//! one-call path is made of, with a span around every call into a
//! layer and the exact work counts read off the networks in between.
//!
//! The sweep walks mirror `ups_sweep::record_and_replay_observed` and
//! `record_and_replay_deadline_observed` step for step; the fairness
//! walk mirrors `ups_core::run_fairness`. The caller compares the
//! walk's rendered artifacts with the one-call pass's, byte for byte,
//! so a walk that drifts from the product fails the run.

use crate::spans::Tracer;
use crate::workloads::{
    fairness_flows, fairness_payload, fairness_schemes, fairness_topo, figure_output, sweep_output,
    PassOutput, Plan, FAIRNESS_HORIZON, FAIRNESS_WINDOW,
};
use std::collections::BTreeMap;
use ups_core::deadline::{
    deadline_flow_stats, record_deadline_original, replay_deadline, replay_deadline_lossy,
    DeadlineMode, DeadlineSchedule,
};
use ups_core::replay::{record_original, replay_schedule, replay_schedule_lossy, ReplayMode};
use ups_core::{RecordedSchedule, ReplayReport};
use ups_metrics::throughput_fairness_series;
use ups_net::{FlowId, LinkPolicy, Network, TraceLevel};
use ups_sched::SchedKind;
use ups_sim::Time;
use ups_sweep::{
    diff_artifacts, run_fig_with, run_sweep_with, CellMetrics, CellPipeline, ChaosCell,
    DeadlineCell, DiffOptions, Job, Scenario, SimScale,
};
use ups_topo::Topology;
use ups_transport::{install_tcp, is_ack_flow, FlowDesc, TcpConfig};

/// One event-loop leg of one cell-run, for the per-cell table.
pub struct Leg {
    pub cell: String,
    pub name: &'static str,
    pub sched: SchedKind,
    pub events: u64,
    pub pkt_hops: u64,
    pub secs: f64,
}

/// Exact work counts of a traced pass. Deterministic: two runs of the
/// same commit at the same seed must agree on every field.
#[derive(Default)]
pub struct Counts {
    pub topo_nodes: u64,
    pub topo_links: u64,
    pub flows: u64,
    /// Packets of finite flows (long-lived flows have no size).
    pub flow_pkts: u64,
    pub events: u64,
    pub pkt_hops: u64,
    pub injected: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub chaos_drops: u64,
    pub max_queue_pkts: u64,
    pub peak_in_flight: u64,
    /// Largest pending-event population seen at a leg boundary: after
    /// the closed loop is installed or stopped at its horizon (a leg
    /// that runs to completion ends with none).
    pub pending_events: u64,
    pub overdue: u64,
    pub lost: u64,
    pub total_pkts: u64,
    pub max_congestion_points: u64,
    /// Per-hop enqueues by the scheduler kind that ordered them.
    pub hops_by_sched: BTreeMap<&'static str, u64>,
    pub legs: Vec<Leg>,
    /// Legs that ran to completion must conserve packets.
    pub conservation_violations: u64,
}

impl Counts {
    /// Fold in the counters of a network whose event loop just ran for
    /// `secs`. `drained` says the run went to completion, where every
    /// injected packet is delivered or dropped.
    fn absorb(
        &mut self,
        net: &Network,
        cell: &str,
        name: &'static str,
        sched: SchedKind,
        secs: f64,
        drained: bool,
    ) {
        let c = &net.telemetry.counters;
        let hops: u64 = net.links.iter().map(|l| l.stats.enqueued).sum();
        self.events += c.events;
        self.pkt_hops += hops;
        self.injected += c.injected;
        self.delivered += c.delivered;
        self.dropped += c.dropped;
        self.chaos_drops += net.links.iter().map(|l| l.stats.chaos_drops).sum::<u64>();
        let deepest = net.links.iter().map(|l| l.stats.max_queue_pkts).max();
        self.max_queue_pkts = self.max_queue_pkts.max(deepest.unwrap_or(0) as u64);
        self.peak_in_flight = self.peak_in_flight.max(net.peak_packets_in_flight() as u64);
        self.pending_events = self.pending_events.max(net.pending_events() as u64);
        *self.hops_by_sched.entry(sched.label()).or_default() += hops;
        if drained && c.injected != c.delivered + c.dropped {
            self.conservation_violations += 1;
        }
        self.legs.push(Leg {
            cell: cell.to_string(),
            name,
            sched,
            events: c.events,
            pkt_hops: hops,
            secs,
        });
    }

    fn absorb_inputs(&mut self, topo: &Topology, flows: &[FlowDesc]) {
        self.topo_nodes = topo.net.nodes.len() as u64;
        self.topo_links = topo.net.links.len() as u64;
        self.flows += flows.len() as u64;
        self.flow_pkts += flows
            .iter()
            .map(|f| f.pkts)
            .filter(|&p| p < u64::MAX / 4)
            .sum::<u64>();
    }

    fn absorb_report(&mut self, report: &ReplayReport, schedule: &RecordedSchedule) {
        self.overdue += report.overdue as u64;
        self.lost += report.lost as u64;
        self.total_pkts += report.total as u64;
        self.max_congestion_points = self
            .max_congestion_points
            .max(schedule.max_congestion_points() as u64);
    }
}

fn secs_of(tr: &Tracer, id: usize) -> f64 {
    tr.spans[id].dur_ns() as f64 / 1e9
}

/// Walk every cell-run of `plan` once under the tracer. The root
/// `pass` span is span 0 of the tracer.
pub fn walk(plan: &Plan, sim: &SimScale, tr: &mut Tracer, counts: &mut Counts) -> PassOutput {
    let pass = tr.open("pass", "");
    let out = match plan {
        Plan::Sweep { scenario, spec } => {
            let memo: Vec<CellMetrics> = spec
                .jobs()
                .iter()
                .map(|job| {
                    let label = format!(
                        "{}/{}/{}ppm/seed{}",
                        job.coord.sched.label(),
                        job.coord.util,
                        job.coord.chaos.drop_ppm,
                        job.seed
                    );
                    let cell = tr.open("cell", &label);
                    let metrics = walk_sweep_cell(scenario, job, sim, tr, &label, counts);
                    tr.close(cell);
                    metrics
                })
                .collect();
            // The engine over a memoised runner: job expansion, the
            // pool and the per-cell aggregation, without the cells.
            let report = tr.span("sweep.engine", "", || {
                run_sweep_with(spec, sim.label, 1, |job| {
                    memo[job.cell * spec.replicates + job.replicate]
                })
            });
            tr.span("sweep.artifact", "", || {
                sweep_output(scenario, report, plan.cell_runs(), 0)
            })
        }
        Plan::Fairness { spec } => {
            let schemes = fairness_schemes();
            let memo: Vec<_> = spec
                .jobs()
                .iter()
                .map(|job| {
                    let scheme = &schemes[job.series];
                    let label = format!("{}/seed{}", scheme.label(), job.seed);
                    let cell = tr.open("cell", &label);
                    let payload = walk_fairness_cell(scheme, job.seed, sim, tr, &label, counts);
                    tr.close(cell);
                    payload
                })
                .collect();
            let report = tr.span("sweep.engine", "", || {
                run_fig_with(spec, sim.label, 1, |job| {
                    memo[job.series * spec.replicates + job.replicate].clone()
                })
            });
            tr.span("sweep.artifact", "", || {
                figure_output(report, plan.cell_runs(), 0)
            })
        }
    };
    // What `sweep diff` does to an artifact: parse both sides, walk
    // them by coordinate. Every JSON artifact against itself, as CI's
    // self-diff steps do.
    tr.span("sweep.parse_diff", "", || {
        for json in out.artifacts.iter().step_by(2) {
            let diff = diff_artifacts(json, json, &DiffOptions::default())
                .expect("the pass's own artifact parses");
            assert!(diff.is_clean() && diff.compared > 0, "self-diff is clean");
        }
    });
    tr.close(pass);
    out
}

/// What the record leg produced, by pipeline.
enum Recorded {
    Plain(RecordedSchedule),
    Deadline(DeadlineSchedule),
}

impl Recorded {
    fn schedule(&self) -> &RecordedSchedule {
        match self {
            Recorded::Plain(schedule) => schedule,
            Recorded::Deadline(ds) => &ds.schedule,
        }
    }
}

/// One cell-run of a sweep scenario: build, generate, record, rebuild,
/// replay (under chaos where the cell asks for it), reduce.
fn walk_sweep_cell(
    scenario: &Scenario,
    job: &Job,
    sim: &SimScale,
    tr: &mut Tracer,
    label: &str,
    counts: &mut Counts,
) -> CellMetrics {
    let coord = &job.coord;
    let deadline = scenario.pipeline == CellPipeline::DeadlineReplay;
    // The deadline pipeline records network-wide EDF and replays under
    // the cell's scheduler; the classic one records under the cell's
    // scheduler and replays under LSTF.
    let (record_sched, replay_sched) = if deadline {
        (SchedKind::Edf, coord.sched)
    } else {
        (coord.sched, SchedKind::Lstf)
    };
    let mut orig_topo = tr.span("topo.build", label, || coord.topo.build(sim));
    let flows = tr.span("flowgen.build", label, || {
        scenario
            .workload
            .build(&orig_topo, coord.util, sim.horizon, job.seed)
    });
    counts.absorb_inputs(&orig_topo, &flows);

    let record = tr.open("core.record", label);
    let recorded = if deadline {
        Recorded::Deadline(record_deadline_original(&mut orig_topo, &flows, 1500))
    } else {
        Recorded::Plain(record_original(
            &mut orig_topo,
            &flows,
            coord.sched,
            job.seed,
            1500,
        ))
    };
    tr.close(record);
    counts.absorb(
        &orig_topo.net,
        label,
        "record",
        record_sched,
        secs_of(tr, record),
        true,
    );
    drop(orig_topo.net.take_series());
    tr.span("net.teardown", label, || drop(orig_topo));

    let mut replay_topo = tr.span("topo.build", label, || coord.topo.build(sim));
    let replay = tr.open("core.replay", label);
    let policy = coord.chaos.to_policy();
    if let Some(policy) = &policy {
        let chaos_horizon = Time::ZERO + sim.horizon * 8;
        replay_topo
            .net
            .install_chaos(chaos_horizon, |_| Some(policy.clone()));
    }
    let lossy = policy.is_some();
    let report = match &recorded {
        Recorded::Deadline(ds) => {
            let mode = DeadlineMode::from_sched(coord.sched)
                .expect("deadline cells name a replay candidate");
            if lossy {
                replay_deadline_lossy(&mut replay_topo, ds, mode)
            } else {
                replay_deadline(&mut replay_topo, ds, mode)
            }
        }
        Recorded::Plain(schedule) if lossy => {
            replay_schedule_lossy(&mut replay_topo, schedule, ReplayMode::lstf())
        }
        Recorded::Plain(schedule) => {
            replay_schedule(&mut replay_topo, schedule, ReplayMode::lstf())
        }
    };
    tr.close(replay);
    counts.absorb(
        &replay_topo.net,
        label,
        "replay",
        replay_sched,
        secs_of(tr, replay),
        true,
    );
    let schedule = recorded.schedule();
    counts.absorb_report(&report, schedule);

    let metrics = tr.span("core.reduce", label, || {
        let chaos = lossy.then(|| {
            let totals = replay_topo.net.chaos_totals();
            ChaosCell {
                fidelity: report.fidelity(),
                frac_lost: report.frac_lost(),
                chaos_drops: totals.drops,
                outage_us: totals.outage.as_micros_f64(),
            }
        });
        let deadline =
            deadline_flow_stats(&flows, &replay_topo.net.telemetry).map(|stats| DeadlineCell {
                tagged: stats.tagged,
                missed: stats.missed,
                miss_rate: stats.miss_rate(),
                mean_lateness_us: stats.mean_lateness_us,
                p99_lateness_us: stats.p99_lateness_us,
            });
        let mut metrics = CellMetrics::of(&report, schedule);
        metrics.deadline = deadline;
        metrics.chaos = chaos;
        metrics
    });
    tr.span("net.teardown", label, || {
        drop(replay_topo);
        drop(report);
        drop(recorded);
        drop(flows);
    });
    metrics
}

/// One fairness cell: build, generate, rebuild, install TCP, run the
/// closed loop to the horizon, reduce deliveries to the Jain series.
fn walk_fairness_cell(
    scheme: &ups_core::Scheme,
    seed: u64,
    sim: &SimScale,
    tr: &mut Tracer,
    label: &str,
    counts: &mut Counts,
) -> ups_sweep::DistMetrics {
    let flows = {
        let topo = tr.span("topo.build", label, || {
            fairness_topo(sim, TraceLevel::Delivery)
        });
        let flows = tr.span("flowgen.build", label, || fairness_flows(&topo, seed));
        counts.absorb_inputs(&topo, &flows);
        flows
    };
    let mut topo = tr.span("topo.build", label, || {
        fairness_topo(sim, TraceLevel::Delivery)
    });
    let kind = scheme.sched_kind();
    topo.net.configure_links(|l| {
        LinkPolicy::keep()
            .buffer(None)
            .scheduler(kind.build(l.id, 0))
    });
    let _results = tr.span("transport.install_tcp", label, || {
        install_tcp(&mut topo.net, &flows, &TcpConfig::default(), || {
            scheme.stamper()
        })
    });
    counts.pending_events = counts.pending_events.max(topo.net.pending_events() as u64);
    let run = tr.open("net.run", label);
    topo.net.run_until(FAIRNESS_HORIZON);
    tr.close(run);
    counts.absorb(&topo.net, label, "run", kind, secs_of(tr, run), false);
    counts.total_pkts += topo.net.telemetry.packets.len() as u64;

    let reduce = tr.open("core.reduce", label);
    let index: BTreeMap<FlowId, usize> = flows.iter().enumerate().map(|(i, f)| (f.id, i)).collect();
    let deliveries = topo.net.telemetry.packets.iter().filter_map(|r| {
        let t = r.delivered?;
        if is_ack_flow(r.flow) {
            return None;
        }
        Some((t, *index.get(&r.flow)?, r.size))
    });
    let points = tr.span("metrics.fairness_series", label, || {
        throughput_fairness_series(deliveries, flows.len(), FAIRNESS_WINDOW, FAIRNESS_HORIZON)
    });
    tr.close(reduce);
    tr.span("net.teardown", label, || drop(topo));
    fairness_payload(&points)
}
