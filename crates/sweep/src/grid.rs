//! Grid vocabulary: topology selectors, cell coordinates, the
//! [`SweepSpec`] that expands a scalar (Table-1 style) grid into
//! independent jobs, and the [`FigSpec`] analogue for
//! distribution-style figure grids (named series × fixed x-axis).

use ups_net::TraceLevel;
use ups_sched::SchedKind;
use ups_sim::Dur;
use ups_topo::internet2::{self, I2Config, I2Variant};
use ups_topo::{fattree, rocketfuel, Topology};

/// Simulation-size knobs a sweep cell needs to build its topology and
/// workload. [`crate::Scale`] holds one, beside the seed and the
/// worker and replicate counts.
#[derive(Debug, Clone, Copy)]
pub struct SimScale {
    /// Edge routers (and hosts) per core router on WAN topologies
    /// (paper: 10).
    pub edges_per_core: usize,
    /// Flow-arrival horizon for open-loop workloads.
    pub horizon: Dur,
    /// Fat-tree arity.
    pub fattree_k: usize,
    /// Human label for report headers and artifact metadata.
    pub label: &'static str,
}

/// Topology selector for replay experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Internet2 with one of the paper's bandwidth variants.
    I2(I2Variant),
    /// Synthetic RocketFuel (83 routers / 131 links), sized by the
    /// sweep's `SimScale` (half its `edges_per_core`, minimum 1).
    RocketFuel,
    /// Full-bisection fat-tree datacenter at the sweep's
    /// `SimScale::fattree_k` arity.
    FatTree,
    /// Fat-tree pinned to an explicit even arity, independent of the
    /// scale knobs — how the scenario registry names k=8 exactly.
    FatTreeK(usize),
    /// RocketFuel at the paper's full scale (10 edge routers per core,
    /// 830 hosts), independent of the scale knobs.
    RocketFuelFull,
}

impl TopoKind {
    /// Display label (matches Table 1's "Topology" column).
    pub fn label(self) -> String {
        match self {
            TopoKind::I2(v) => v.label().to_string(),
            TopoKind::RocketFuel => "RocketFuel".to_string(),
            TopoKind::FatTree => "Datacenter".to_string(),
            TopoKind::FatTreeK(k) => format!("Datacenter(k={k})"),
            TopoKind::RocketFuelFull => "RocketFuel-full".to_string(),
        }
    }

    /// Build a fresh instance at the given scale.
    pub fn build(self, sim: &SimScale) -> Topology {
        match self {
            TopoKind::I2(variant) => internet2::build(
                &I2Config {
                    variant,
                    edges_per_core: sim.edges_per_core,
                    ..Default::default()
                },
                TraceLevel::Hops,
            ),
            TopoKind::RocketFuel => rocketfuel::build(
                &rocketfuel::RocketFuelConfig {
                    edges_per_core: (sim.edges_per_core / 2).max(1),
                    ..Default::default()
                },
                TraceLevel::Hops,
            ),
            TopoKind::FatTree => fattree::build(
                &fattree::FatTreeConfig {
                    k: sim.fattree_k,
                    ..Default::default()
                },
                TraceLevel::Hops,
            ),
            TopoKind::FatTreeK(k) => {
                fattree::build(&fattree::FatTreeConfig::for_k(k), TraceLevel::Hops)
            }
            TopoKind::RocketFuelFull => {
                rocketfuel::build(&rocketfuel::RocketFuelConfig::full(), TraceLevel::Hops)
            }
        }
    }
}

/// Seed of the chaos RNG stream when a spec doesn't pick its own.
/// Deliberately disjoint from workload `base_seed` values (which start
/// at 1) so perturbation draws never alias workload draws.
pub const DEFAULT_CHAOS_SEED: u64 = 0xC11A05;

/// Grid-level description of a [`ups_net::ChaosPolicy`], in integer
/// units so cell coordinates stay `Copy + PartialEq` and artifact
/// coordinates stay exactly representable. All-zero (`ChaosSpec::OFF`)
/// means no chaos: the cell replays on the strict (loss-free) path and
/// its artifact bytes are identical to a build without the chaos layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// I.i.d. per-packet wire-drop probability, in parts per million.
    pub drop_ppm: u32,
    /// Periodic link-failure period in microseconds (0 = no failures).
    pub fail_period_us: u32,
    /// Down time per failure window in microseconds.
    pub fail_down_us: u32,
    /// Periodic jamming period in microseconds (0 = no jamming).
    pub jam_period_us: u32,
    /// Jam burst length in microseconds.
    pub jam_burst_us: u32,
    /// Chaos RNG seed (independent of the workload seed by design).
    pub seed: u64,
}

impl ChaosSpec {
    /// No perturbation: the strict replay path, byte-identical to the
    /// pre-chaos baselines.
    pub const OFF: ChaosSpec = ChaosSpec {
        drop_ppm: 0,
        fail_period_us: 0,
        fail_down_us: 0,
        jam_period_us: 0,
        jam_burst_us: 0,
        seed: DEFAULT_CHAOS_SEED,
    };

    /// Pure i.i.d. loss at the given rate; `0` canonicalizes to
    /// [`ChaosSpec::OFF`] so drop-rate sweeps include an exact control
    /// cell.
    pub fn drop(ppm: u32) -> ChaosSpec {
        if ppm == 0 {
            ChaosSpec::OFF
        } else {
            ChaosSpec {
                drop_ppm: ppm,
                ..ChaosSpec::OFF
            }
        }
    }

    /// Whether any perturbation is configured.
    pub fn enabled(&self) -> bool {
        self.drop_ppm > 0 || self.fail_period_us > 0 || self.jam_period_us > 0
    }

    /// Lower into the `ups-net` policy, or `None` when disabled (so
    /// disabled cells never even install the chaos hook).
    pub fn to_policy(&self) -> Option<ups_net::ChaosPolicy> {
        if !self.enabled() {
            return None;
        }
        let mut p = ups_net::ChaosPolicy::new(self.seed);
        if self.drop_ppm > 0 {
            p = p.drop_prob(self.drop_ppm as f64 / 1e6);
        }
        if self.fail_period_us > 0 {
            p = p.fail_periodic(
                Dur::from_micros(self.fail_period_us as u64),
                Dur::from_micros(self.fail_down_us as u64),
            );
        }
        if self.jam_period_us > 0 {
            p = p.jam(ups_net::JamSpec::Periodic {
                start: ups_sim::Time::ZERO + Dur::from_micros(self.jam_period_us as u64),
                period: Dur::from_micros(self.jam_period_us as u64),
                burst: Dur::from_micros(self.jam_burst_us as u64),
            });
        }
        Some(p)
    }
}

/// One cell of the sweep grid (the seed replicate is *not* part of the
/// coordinate — replicates of the same cell aggregate into one
/// [`crate::SweepResult`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCoord {
    /// Topology under test.
    pub topo: TopoKind,
    /// Original scheduling algorithm whose schedule LSTF replays.
    pub sched: SchedKind,
    /// Target utilization of the most-loaded core link.
    pub util: f64,
    /// Perturbation applied to the replay leg ([`ChaosSpec::OFF`] for
    /// the classic clean grids).
    pub chaos: ChaosSpec,
}

/// One unit of work: a cell coordinate plus a seed replicate.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index of the cell in [`SweepSpec::cells`].
    pub cell: usize,
    /// Replicate number within the cell (0-based).
    pub replicate: usize,
    /// RNG seed for this replicate (`base_seed + replicate`).
    pub seed: u64,
    /// The grid coordinate.
    pub coord: CellCoord,
}

/// A declarative sweep: a named list of grid cells, replicated over
/// seeds. Expansion order is canonical (cell-major, then replicate), so
/// the aggregate output is independent of execution order.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Grid name — becomes the artifact file stem (`<name>.json`).
    pub name: String,
    /// The grid cells, in presentation order.
    pub cells: Vec<CellCoord>,
    /// Seed replicates per cell.
    pub replicates: usize,
    /// Seed of replicate 0; replicate `r` runs with `base_seed + r`.
    pub base_seed: u64,
}

impl SweepSpec {
    /// An empty spec with the given name, one replicate, seed 1.
    pub fn new(name: impl Into<String>) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            cells: Vec::new(),
            replicates: 1,
            base_seed: 1,
        }
    }

    /// Cartesian grid: every topology × scheduler × utilization.
    pub fn cartesian(
        name: impl Into<String>,
        topos: &[TopoKind],
        scheds: &[SchedKind],
        utils: &[f64],
    ) -> SweepSpec {
        let mut spec = SweepSpec::new(name);
        for &topo in topos {
            for &sched in scheds {
                for &util in utils {
                    spec.cells.push(CellCoord {
                        topo,
                        sched,
                        util,
                        chaos: ChaosSpec::OFF,
                    });
                }
            }
        }
        spec
    }

    /// The paper's Table 1 grid, in the table's row order: a utilization
    /// sweep under Random, the bandwidth variants, the other topologies,
    /// and the original-scheduler sweep.
    pub fn table1() -> SweepSpec {
        let i2 = TopoKind::I2(I2Variant::Default1g10g);
        let mut spec = SweepSpec::new("table1");
        for util in [0.1, 0.3, 0.5, 0.7, 0.9] {
            spec.cells.push(CellCoord {
                topo: i2,
                sched: SchedKind::Random,
                util,
                chaos: ChaosSpec::OFF,
            });
        }
        for variant in [I2Variant::Access1g1g, I2Variant::Access10g10g] {
            spec.cells.push(CellCoord {
                topo: TopoKind::I2(variant),
                sched: SchedKind::Random,
                util: 0.7,
                chaos: ChaosSpec::OFF,
            });
        }
        for topo in [TopoKind::RocketFuel, TopoKind::FatTree] {
            spec.cells.push(CellCoord {
                topo,
                sched: SchedKind::Random,
                util: 0.7,
                chaos: ChaosSpec::OFF,
            });
        }
        for sched in [
            SchedKind::Fifo,
            SchedKind::Fq,
            SchedKind::Sjf,
            SchedKind::Lifo,
            SchedKind::FqFifoPlusMix,
        ] {
            spec.cells.push(CellCoord {
                topo: i2,
                sched,
                util: 0.7,
                chaos: ChaosSpec::OFF,
            });
        }
        spec
    }

    /// A 2-cell grid for CI smoke runs: the default topology under
    /// Random at 30% and 70% utilization.
    pub fn smoke() -> SweepSpec {
        SweepSpec::cartesian(
            "smoke",
            &[TopoKind::I2(I2Variant::Default1g10g)],
            &[SchedKind::Random],
            &[0.3, 0.7],
        )
    }

    /// The named grids `sweep --grid` runs before any scenario, the
    /// default (`table1`) first.
    pub fn named() -> [SweepSpec; 2] {
        [SweepSpec::table1(), SweepSpec::smoke()]
    }

    /// Set the replicate count (builder style).
    pub fn with_replicates(mut self, replicates: usize) -> SweepSpec {
        self.replicates = replicates.max(1);
        self
    }

    /// Set the base seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> SweepSpec {
        self.base_seed = seed;
        self
    }

    /// Expand into jobs: cell-major, replicate-minor, so chunking the
    /// result by `replicates` groups each cell's replicates together.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.cells.len() * self.replicates);
        for (cell, &coord) in self.cells.iter().enumerate() {
            for replicate in 0..self.replicates {
                jobs.push(Job {
                    cell,
                    replicate,
                    seed: self.base_seed + replicate as u64,
                    coord,
                });
            }
        }
        jobs
    }
}

/// The x-axis a figure grid's distribution payload is sampled on.
///
/// Every replicate of every series evaluates its distribution at the
/// same `xs`, so per-point aggregation across seed replicates (mean ±
/// stddev via Welford) is well-defined and artifacts stay
/// byte-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FigAxis {
    /// Axis name (JSON/CSV field, e.g. `ratio`, `percentile`, `t_ms`).
    pub name: String,
    /// The x points, in presentation order.
    pub xs: Vec<f64>,
    /// Optional human labels for categorical axes (e.g. Figure 2's
    /// flow-size buckets). When present, must parallel `xs`.
    pub labels: Option<Vec<String>>,
}

impl FigAxis {
    /// A numeric axis with no categorical labels.
    pub fn numeric(name: impl Into<String>, xs: Vec<f64>) -> FigAxis {
        FigAxis {
            name: name.into(),
            xs,
            labels: None,
        }
    }

    /// A categorical axis: x is the category index, `labels` the names.
    pub fn categorical(name: impl Into<String>, labels: Vec<String>) -> FigAxis {
        FigAxis {
            name: name.into(),
            xs: (0..labels.len()).map(|i| i as f64).collect(),
            labels: Some(labels),
        }
    }
}

/// A distribution-style figure grid: one cell per named series (an
/// original scheduler, an FCT scheme, ...), each replicated over seeds,
/// reporting one distribution payload ([`crate::DistMetrics`]) per
/// replicate. The figure analogue of [`SweepSpec`].
#[derive(Debug, Clone)]
pub struct FigSpec {
    /// Grid name — becomes the artifact file stem (`<name>.json`).
    pub name: String,
    /// Human title for report headers.
    pub title: String,
    /// Series labels, in presentation order (one grid cell each).
    pub series: Vec<String>,
    /// The shared x-axis every replicate samples its payload on.
    pub axis: FigAxis,
    /// Names of the per-replicate scalar summaries (e.g. `median`),
    /// parallel to [`crate::DistMetrics::scalars`].
    pub scalar_names: Vec<String>,
    /// Seed replicates per series.
    pub replicates: usize,
    /// Seed of replicate 0; replicate `r` runs with `base_seed + r`.
    pub base_seed: u64,
}

/// One unit of figure work: a series index plus a seed replicate.
#[derive(Debug, Clone, Copy)]
pub struct FigJob {
    /// Index into [`FigSpec::series`].
    pub series: usize,
    /// Replicate number within the series (0-based).
    pub replicate: usize,
    /// RNG seed for this replicate (`base_seed + replicate`).
    pub seed: u64,
}

impl FigSpec {
    /// A figure grid with the given series and axis, one replicate,
    /// seed 1, no scalar summaries.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        series: Vec<String>,
        axis: FigAxis,
    ) -> FigSpec {
        FigSpec {
            name: name.into(),
            title: title.into(),
            series,
            axis,
            scalar_names: Vec::new(),
            replicates: 1,
            base_seed: 1,
        }
    }

    /// Set the per-replicate scalar summary names (builder style).
    pub fn with_scalars(mut self, names: &[&str]) -> FigSpec {
        self.scalar_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the replicate count (builder style; clamped to ≥ 1).
    pub fn with_replicates(mut self, replicates: usize) -> FigSpec {
        self.replicates = replicates.max(1);
        self
    }

    /// Set the base seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> FigSpec {
        self.base_seed = seed;
        self
    }

    /// Expand into jobs: series-major, replicate-minor, so chunking the
    /// result by `replicates` groups each series' replicates together.
    pub fn jobs(&self) -> Vec<FigJob> {
        let mut jobs = Vec::with_capacity(self.series.len() * self.replicates);
        for series in 0..self.series.len() {
            for replicate in 0..self.replicates {
                jobs.push(FigJob {
                    series,
                    replicate,
                    seed: self.base_seed + replicate as u64,
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_jobs_expand_series_major_with_seed_offsets() {
        let spec = FigSpec::new(
            "f",
            "t",
            vec!["a".into(), "b".into()],
            FigAxis::numeric("x", vec![0.0, 1.0]),
        )
        .with_replicates(2)
        .with_seed(10);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        assert_eq!(
            (jobs[0].series, jobs[0].replicate, jobs[0].seed),
            (0, 0, 10)
        );
        assert_eq!(
            (jobs[1].series, jobs[1].replicate, jobs[1].seed),
            (0, 1, 11)
        );
        assert_eq!(
            (jobs[2].series, jobs[2].replicate, jobs[2].seed),
            (1, 0, 10)
        );
    }

    #[test]
    fn categorical_axis_indexes_labels() {
        let axis = FigAxis::categorical("bucket", vec!["<=1".into(), "2-3".into()]);
        assert_eq!(axis.xs, vec![0.0, 1.0]);
        assert_eq!(axis.labels.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn fig_replicates_clamp_to_at_least_one() {
        let spec = FigSpec::new("f", "t", vec![], FigAxis::numeric("x", vec![]));
        assert_eq!(spec.with_replicates(0).replicates, 1);
    }

    #[test]
    fn chaos_spec_canonicalizes_and_lowers() {
        assert_eq!(ChaosSpec::drop(0), ChaosSpec::OFF);
        assert!(!ChaosSpec::OFF.enabled());
        assert!(ChaosSpec::OFF.to_policy().is_none());
        let loss = ChaosSpec::drop(10_000);
        assert!(loss.enabled());
        assert!(loss.to_policy().is_some());
        // Clean grids carry the exact OFF spec in every cell.
        assert!(SweepSpec::table1().cells.iter().all(|c| !c.chaos.enabled()));
    }

    #[test]
    fn table1_has_fourteen_cells() {
        let spec = SweepSpec::table1();
        assert_eq!(spec.cells.len(), 14);
        // Row order matches the paper's table: utilization sweep first.
        assert_eq!(spec.cells[0].util, 0.1);
        assert_eq!(spec.cells[4].util, 0.9);
        assert_eq!(spec.cells[8].topo, TopoKind::FatTree);
        assert_eq!(spec.cells[13].sched, SchedKind::FqFifoPlusMix);
    }

    #[test]
    fn jobs_expand_cell_major_with_seed_offsets() {
        let spec = SweepSpec::smoke().with_replicates(3).with_seed(10);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 6);
        assert_eq!((jobs[0].cell, jobs[0].replicate, jobs[0].seed), (0, 0, 10));
        assert_eq!((jobs[2].cell, jobs[2].replicate, jobs[2].seed), (0, 2, 12));
        assert_eq!((jobs[3].cell, jobs[3].replicate, jobs[3].seed), (1, 0, 10));
        assert_eq!(jobs[3].coord.util, 0.7);
    }

    #[test]
    fn cartesian_expands_all_combinations() {
        let spec = SweepSpec::cartesian(
            "x",
            &[TopoKind::RocketFuel, TopoKind::FatTree],
            &[SchedKind::Fifo, SchedKind::Lifo, SchedKind::Random],
            &[0.5, 0.9],
        );
        assert_eq!(spec.cells.len(), 12);
        assert_eq!(spec.replicates, 1);
    }

    #[test]
    fn replicates_clamp_to_at_least_one() {
        assert_eq!(SweepSpec::smoke().with_replicates(0).replicates, 1);
    }
}
