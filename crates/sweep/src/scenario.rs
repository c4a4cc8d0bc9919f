//! The scenario registry: named, declarative experiment scenarios.
//!
//! A [`Scenario`] bundles what §2.3 calls an evaluation setting — a
//! topology build, a workload family, and a utilization × original-
//! scheduler grid — into one registered, runnable entry. The registry
//! ([`REGISTRY`]) is the single source of truth behind
//! `sweep --grid <scenario>`, the `sweep scenarios` CLI subcommand, and
//! `docs/SCENARIOS.md`; adding a scenario here is all it takes to make
//! it runnable, listable, and sweepable with artifacts.
//!
//! Scenarios reuse the whole sweep stack: a scenario's grid expands to
//! [`crate::Job`]s, runs on the deterministic worker pool, and lands as
//! the same `"kind": "table"` JSON/CSV artifacts (byte-identical for
//! every `--jobs N`) that `sweep diff` understands. The only new degree
//! of freedom is the workload family ([`WorkloadKind`]), which the
//! existing named grids fix to web traffic.
//!
//! ```
//! use ups_sweep::scenario;
//!
//! let s = scenario::find("dc-k4-incast-sched").expect("registered");
//! assert_eq!(s.workload, ups_core::WorkloadKind::Incast);
//! assert_eq!(s.spec().cells.len(), 3); // three original schedulers
//! assert!(scenario::names().contains(&"rocketfuel-full"));
//! ```

use crate::cell::CellPipeline;
use crate::engine::{DistResult, FigReport, Stat, SweepReport};
use crate::grid::{CellCoord, ChaosSpec, FigAxis, SweepSpec, TopoKind};
use ups_core::WorkloadKind;
use ups_sched::SchedKind;
use ups_topo::internet2::I2Variant;

/// A registered experiment scenario: topology + workload + grid.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry key and artifact file stem (kebab-case).
    pub name: &'static str,
    /// One-line summary for `scenarios list`.
    pub title: &'static str,
    /// What the scenario stresses and what to look for — the body of
    /// `scenarios describe`.
    pub detail: &'static str,
    /// Topology under test.
    pub topo: TopoKind,
    /// Workload family every cell draws its flows from.
    pub workload: WorkloadKind,
    /// Which record-and-replay leg the cells run. Under
    /// [`CellPipeline::Replay`], `scheds` lists the *original*
    /// schedulers LSTF replays; under
    /// [`CellPipeline::DeadlineReplay`], the original is always EDF and
    /// `scheds` lists the *replay* candidates (EDF, LSTF, Priority).
    pub pipeline: CellPipeline,
    /// Scheduler grid column (see [`Scenario::pipeline`] for whether it
    /// names the original or the replay candidate).
    pub scheds: &'static [SchedKind],
    /// Target utilizations (one grid column each).
    pub utils: &'static [f64],
    /// Replay-leg drop rates in parts per million (one grid column
    /// each). `&[0]` for the classic clean scenarios; a chaos scenario
    /// sweeps several rates, and rate 0 is the exact clean control.
    pub drops: &'static [u32],
}

impl Scenario {
    /// Expand into the sweep grid: `[topo] × scheds × utils × drops`,
    /// named after the scenario so artifacts land as
    /// `<name>.json`/`.csv`.
    pub fn spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::new(self.name);
        for &sched in self.scheds {
            for &util in self.utils {
                for &ppm in self.drops {
                    spec.cells.push(CellCoord {
                        topo: self.topo,
                        sched,
                        util,
                        chaos: ChaosSpec::drop(ppm),
                    });
                }
            }
        }
        spec
    }

    /// The figure-style payload of a deadline-replay scenario: one
    /// miss-rate-vs-utilization curve per replay candidate, with the
    /// Welford error bars the table report already aggregated. `None`
    /// for classic-pipeline scenarios. Built purely from the (already
    /// `--jobs`-independent) table report, so the figure artifact is
    /// byte-identical for any worker count by construction; it lands as
    /// `<name>_fig.json`/`.csv` next to the table.
    pub fn miss_curves(&self, report: &SweepReport) -> Option<FigReport> {
        if self.pipeline != CellPipeline::DeadlineReplay {
            return None;
        }
        // spec() expands sched-major, util-next, drop-minor; the curve
        // reads each (sched, util)'s first-drop (clean-control) cell.
        let per_sched = self.utils.len() * self.drops.len();
        let results: Vec<DistResult> = self
            .scheds
            .iter()
            .enumerate()
            .map(|(si, &sched)| {
                let cells = &report.results[si * per_sched..(si + 1) * per_sched];
                DistResult {
                    series: sched.label().to_string(),
                    replicates: cells.first().map_or(0, |c| c.replicates),
                    scalars: Vec::new(),
                    points: (0..self.utils.len())
                        .map(|ui| {
                            let cell = &cells[ui * self.drops.len()];
                            cell.deadline.map_or(
                                Stat {
                                    mean: 0.0,
                                    stddev: 0.0,
                                    stderr: 0.0,
                                },
                                |d| d.miss_rate,
                            )
                        })
                        .collect(),
                }
            })
            .collect();
        Some(FigReport {
            name: format!("{}_fig", self.name),
            title: format!("Deadline miss rate vs utilization — {}", self.title),
            scale: report.scale.clone(),
            base_seed: report.base_seed,
            replicates: report.replicates,
            axis: FigAxis::numeric("util", self.utils.to_vec()),
            scalar_names: Vec::new(),
            results,
        })
    }

    /// Multi-line human description (for `scenarios describe`).
    pub fn describe(&self) -> String {
        let utils = self
            .utils
            .iter()
            .map(|u| format!("{}%", (u * 100.0).round()))
            .collect::<Vec<_>>()
            .join(", ");
        let scheds = self
            .scheds
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(", ");
        let drops = if self.drops == [0] {
            String::new()
        } else {
            format!(
                "drops:     {} ppm\n",
                self.drops
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let (sched_role, fig) = match self.pipeline {
            CellPipeline::Replay => ("originals:", String::new()),
            CellPipeline::DeadlineReplay => (
                "replays:  ",
                format!(
                    "           target/sweep/{name}_fig.json, \
                     target/sweep/{name}_fig.csv\n",
                    name = self.name
                ),
            ),
        };
        format!(
            "{name} — {title}\n\
             topology:  {topo}\n\
             workload:  {workload}\n\
             {sched_role} {scheds}\n\
             utils:     {utils}\n\
             {drops}\
             cells:     {cells}\n\n\
             {detail}\n\n\
             run:       cargo run --release --bin sweep -- --grid {name} --jobs 4\n\
             artifacts: target/sweep/{name}.json, target/sweep/{name}.csv\n{fig}",
            name = self.name,
            title = self.title,
            topo = self.topo.label(),
            workload = self.workload.label(),
            cells = self.scheds.len() * self.utils.len() * self.drops.len(),
            detail = self.detail,
        )
    }
}

/// Every registered scenario, in presentation order.
pub const REGISTRY: &[Scenario] = &[
    Scenario {
        name: "i2-web",
        title: "Internet2 WAN under the paper's default web workload",
        detail: "The default scenario of §2.3 as a registry entry: the \
                 I2:1Gbps-10Gbps variant under Random originals across the \
                 full utilization sweep. Measured at quick scale over seeds \
                 1-12: at most 0.14% of packets overdue beyond T up to 70% \
                 load; at 90%, 9 of 12 seeds stay at or below 0.15%, but \
                 seeds 2, 6 and 12 read 6.85%, 4.70% and 3.84% (mean \
                 1.33%, median 0.10%).",
        topo: TopoKind::I2(I2Variant::Default1g10g),
        workload: WorkloadKind::Web,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Random],
        utils: &[0.1, 0.3, 0.5, 0.7, 0.9],
        drops: &[0],
    },
    Scenario {
        name: "i2-deadline-mix",
        title: "Internet2 with deadline-tagged urgent flows over web background",
        detail: "A quarter of the offered load is short priority-0 flows \
                 tagged with affine deadlines (1 ms + 50 us/pkt), the rest \
                 heavy-tailed best effort — the traffic mix of the \
                 deadline-scheduling literature. Replayability should hold: \
                 the mix changes burst structure, not the slack argument.",
        topo: TopoKind::I2(I2Variant::Default1g10g),
        workload: WorkloadKind::DeadlineMix,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Random],
        utils: &[0.3, 0.7],
        drops: &[0],
    },
    Scenario {
        name: "rocketfuel-full",
        title: "Full-scale RocketFuel ISP map (830 hosts), web workload",
        detail: "The paper's actual RocketFuel scenario: 83 core routers, \
                 131 core links, 10 edge routers per core. Half the core is \
                 slower than the access tier, so congestion points move \
                 into the core. This is the largest WAN in the registry \
                 (1,743 nodes); a quick-scale cell-run takes ~0.02 s.",
        topo: TopoKind::RocketFuelFull,
        workload: WorkloadKind::Web,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Random],
        utils: &[0.3, 0.7],
        drops: &[0],
    },
    Scenario {
        name: "dc-k8-web",
        title: "Fat-tree k=8 datacenter (128 hosts), web workload",
        detail: "The paper-scale pFabric fat-tree: 16 core, 32 aggregation, \
                 32 edge switches, 10 Gbps everywhere. Full bisection means \
                 overdue fractions stay near zero until utilization gets \
                 high; the benchmark's dc-k8-web-chaos workload runs on \
                 this topology.",
        topo: TopoKind::FatTreeK(8),
        workload: WorkloadKind::Web,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Random],
        utils: &[0.3, 0.7],
        drops: &[0],
    },
    Scenario {
        name: "dc-k8-incast",
        title: "Fat-tree k=8 under partition/aggregate incast fan-in",
        detail: "16-way synchronized bursts collide on rotating receiver \
                 downlinks — the congestion is at the last hop, not the \
                 core, the opposite regime from the web grids. Utilization \
                 calibrates the epoch rate against the receiver NIC.",
        topo: TopoKind::FatTreeK(8),
        workload: WorkloadKind::Incast,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Random],
        utils: &[0.3, 0.7],
        drops: &[0],
    },
    Scenario {
        name: "dc-k4-incast-sched",
        title: "Fat-tree k=4 incast across original schedulers (fast)",
        detail: "The small datacenter under incast, replayed against FIFO, \
                 SJF, and Random originals at 70% — the cheapest scenario \
                 that exercises a non-web workload against multiple \
                 originals; CI and the scenario_tour example run it.",
        topo: TopoKind::FatTreeK(4),
        workload: WorkloadKind::Incast,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Fifo, SchedKind::Sjf, SchedKind::Random],
        utils: &[0.7],
        drops: &[0],
    },
    Scenario {
        name: "i2-web-loss",
        title: "Internet2 web replay under seeded i.i.d. packet loss",
        detail: "The degradation-curve scenario on the WAN: the recorded \
                 Random-original schedule replays over a network that drops \
                 packets i.i.d. at 0 / 0.1% / 1% from a dedicated chaos RNG \
                 stream. Rate 0 is the exact clean control (byte-identical \
                 to a chaos-free build); at higher rates watch fidelity fall \
                 and frac_lost track the drop rate times mean path length.",
        topo: TopoKind::I2(I2Variant::Default1g10g),
        workload: WorkloadKind::Web,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Random],
        utils: &[0.7],
        drops: &[0, 1_000, 10_000],
    },
    Scenario {
        name: "dc-k8-web-chaos",
        title: "Fat-tree k=8 web replay under loss, across two originals",
        detail: "dc-k8-web's datacenter with the same drop-rate sweep as \
                 i2-web-loss, crossed with FIFO and Random originals: the \
                 replay-fidelity-vs-drop-rate curve at scale, and the CI \
                 smoke leg that gates the chaos layer (clean control cells \
                 must stay byte-identical to the dc-k8-web baseline shape).",
        topo: TopoKind::FatTreeK(8),
        workload: WorkloadKind::Web,
        pipeline: CellPipeline::Replay,
        scheds: &[SchedKind::Fifo, SchedKind::Random],
        utils: &[0.7],
        drops: &[0, 1_000, 10_000],
    },
    Scenario {
        name: "i2-deadline-replay",
        title: "Can LSTF replay EDF? Deadline-mix replay on Internet2",
        detail: "The paper's central question asked in the deadline regime: \
                 record network-wide EDF on the deadline-mix workload (every \
                 packet stamped with its flow's virtual deadline), then \
                 replay the identical input under EDF (control), \
                 LSTF-with-deadline-slack (Appendix E predicts a \
                 packet-for-packet identical schedule — frac_overdue 0 in \
                 the EDF and LSTF columns), and a static two-level priority \
                 (the strawman that only sees the tag, not the value). The \
                 deadline_miss_rate column against utilization is the \
                 figure payload, written alongside as \
                 i2-deadline-replay_fig.json.",
        topo: TopoKind::I2(I2Variant::Default1g10g),
        workload: WorkloadKind::DeadlineMix,
        pipeline: CellPipeline::DeadlineReplay,
        scheds: &[SchedKind::Edf, SchedKind::Lstf, SchedKind::Priority],
        utils: &[0.1, 0.3, 0.5, 0.7, 0.9],
        drops: &[0],
    },
    Scenario {
        name: "dc-k8-deadline-replay",
        title: "EDF-vs-LSTF deadline replay on the fat-tree k=8 datacenter",
        detail: "i2-deadline-replay's question at datacenter scale: 128 \
                 hosts, full bisection, the deadline-mix workload's urgent \
                 flows racing their budgets across three candidate replays. \
                 Full bisection keeps miss rates near zero until high load, \
                 so the interesting part of the miss-rate curve is the 90% \
                 cell; the Priority column shows what ignoring deadline \
                 values (keeping only the urgent/best-effort tag) costs.",
        topo: TopoKind::FatTreeK(8),
        workload: WorkloadKind::DeadlineMix,
        pipeline: CellPipeline::DeadlineReplay,
        scheds: &[SchedKind::Edf, SchedKind::Lstf, SchedKind::Priority],
        utils: &[0.3, 0.6, 0.9],
        drops: &[0],
    },
];

/// Look up a scenario by registry name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// All registered names, in presentation order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

/// One line per scenario: `name  cells  topology / workload — title`,
/// the name column as wide as the longest registered name.
pub fn render_list() -> String {
    let name_w = REGISTRY.iter().map(|s| s.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for s in REGISTRY {
        out.push_str(&format!(
            "{:<name_w$} {:>2} cells  {} / {} — {}\n",
            s.name,
            s.scheds.len() * s.utils.len() * s.drops.len(),
            s.topo.label(),
            s.workload.label(),
            s.title,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;
    use crate::grid::SimScale;
    use ups_sim::Dur;

    #[test]
    fn names_are_unique_and_kebab_case() {
        let names = names();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        for n in names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "name `{n}` is not kebab-case"
            );
        }
    }

    #[test]
    fn every_scenario_expands_to_a_nonempty_grid() {
        for s in REGISTRY {
            let spec = s.spec();
            assert_eq!(spec.name, s.name);
            assert_eq!(
                spec.cells.len(),
                s.scheds.len() * s.utils.len() * s.drops.len()
            );
            assert!(!spec.cells.is_empty());
            for c in &spec.cells {
                assert!((0.0..1.0).contains(&c.util));
                assert_eq!(c.topo, s.topo);
            }
        }
    }

    #[test]
    fn chaos_scenarios_sweep_drop_rates_with_a_clean_control() {
        let s = find("dc-k8-web-chaos").unwrap();
        let spec = s.spec();
        assert_eq!(spec.cells.len(), 6); // 2 originals × 1 util × 3 rates
                                         // Drop-minor expansion: every original's first cell is the
                                         // clean control, the rest are perturbed.
        for chunk in spec.cells.chunks(3) {
            assert_eq!(chunk[0].chaos, ChaosSpec::OFF);
            assert!(chunk[1].chaos.enabled() && chunk[2].chaos.enabled());
            assert_eq!(chunk[1].chaos.drop_ppm, 1_000);
            assert_eq!(chunk[2].chaos.drop_ppm, 10_000);
        }
        assert!(find("i2-web-loss").is_some());
        // Clean scenarios never carry a perturbed cell.
        let clean = find("dc-k8-web").unwrap().spec();
        assert!(clean.cells.iter().all(|c| !c.chaos.enabled()));
    }

    #[test]
    fn find_and_list_agree_with_the_registry() {
        assert!(find("dc-k8-web").is_some());
        assert!(find("no-such-scenario").is_none());
        let listing = render_list();
        for s in REGISTRY {
            assert!(listing.contains(s.name), "list missing {}", s.name);
            assert!(s.describe().contains(s.name));
        }
    }

    #[test]
    fn every_listed_cell_count_starts_in_the_same_column() {
        let listing = render_list();
        let rows: Vec<&str> = listing.lines().collect();
        assert_eq!(rows.len(), REGISTRY.len());
        // The count is right-aligned in a two-character field just
        // before ` cells`.
        let field = |row: &str| row.find(" cells  ").expect("row has a cell count") - 2;
        let col = field(rows[0]);
        for (row, s) in rows.iter().zip(REGISTRY) {
            assert_eq!(field(row), col, "{listing}");
            assert_eq!(row[..col].trim_end(), s.name, "{listing}");
            assert_eq!(row[col..col + 2].trim(), s.spec().cells.len().to_string());
        }
    }

    #[test]
    fn miss_curves_index_the_grid_correctly_and_only_for_deadline_replay() {
        use crate::engine::{DeadlineAgg, SweepResult};
        let s = find("i2-deadline-replay").unwrap();
        assert_eq!(s.pipeline, CellPipeline::DeadlineReplay);
        // Synthetic report in spec cell order: miss rate encodes the
        // (sched, util) coordinate, so the curve builder's indexing is
        // checked without running the simulator.
        let spec = s.spec();
        let zero = Stat {
            mean: 0.0,
            stddev: 0.0,
            stderr: 0.0,
        };
        let stat = |m: f64| Stat {
            mean: m,
            stddev: 0.25,
            stderr: 0.125,
        };
        let results: Vec<SweepResult> = spec
            .cells
            .iter()
            .enumerate()
            .map(|(i, &coord)| SweepResult {
                coord,
                replicates: 2,
                total: zero,
                frac_overdue: zero,
                frac_gt_t: zero,
                t_us: zero,
                max_cp: zero,
                mean_slack_us: zero,
                deadline: Some(DeadlineAgg {
                    tagged: zero,
                    miss_rate: stat(i as f64),
                    mean_lateness_us: zero,
                    p99_lateness_us: zero,
                }),
                chaos: None,
            })
            .collect();
        let report = SweepReport {
            name: spec.name.clone(),
            scale: "tiny".to_string(),
            base_seed: 1,
            replicates: 2,
            results,
        };
        let fig = s
            .miss_curves(&report)
            .expect("deadline scenario has curves");
        assert_eq!(fig.name, "i2-deadline-replay_fig");
        assert_eq!(fig.axis.name, "util");
        assert_eq!(fig.axis.xs, s.utils.to_vec());
        assert_eq!(fig.results.len(), 3);
        let labels: Vec<&str> = fig.results.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(labels, ["EDF", "LSTF", "Priority"]);
        for (si, series) in fig.results.iter().enumerate() {
            assert_eq!(series.replicates, 2);
            assert_eq!(series.points.len(), s.utils.len());
            for (ui, p) in series.points.iter().enumerate() {
                // Cell index in sched-major, util-next, drop-minor order.
                let want = (si * s.utils.len() * s.drops.len() + ui * s.drops.len()) as f64;
                assert_eq!(p.mean, want, "series {si} point {ui}");
                assert_eq!(p.stddev, 0.25, "error bars must survive");
            }
        }
        // Classic-pipeline scenarios carry no figure payload.
        assert!(find("i2-web").unwrap().miss_curves(&report).is_none());
    }

    #[test]
    fn cheap_scenario_runs_end_to_end() {
        let s = find("dc-k4-incast-sched").unwrap();
        let sim = SimScale {
            edges_per_core: 2,
            horizon: Dur::from_millis(2),
            fattree_k: 4,
            label: "tiny",
        };
        let report = run_sweep(&s.spec(), &sim, 2, s.workload, s.pipeline);
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            assert!(r.total.mean > 0.0, "cell replayed no packets");
        }
    }
}
