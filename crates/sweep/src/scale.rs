//! Experiment scale: the knobs `sweep`'s scale flags set.

use crate::grid::SimScale;
use ups_sim::Dur;

/// Knobs that trade fidelity for runtime.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Edge routers (and hosts) per core router on WAN topologies
    /// (paper: 10).
    pub edges_per_core: usize,
    /// Flow-arrival horizon for open-loop workloads.
    pub horizon: Dur,
    /// Fat-tree arity.
    pub fattree_k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for sweep-backed experiments. Results are
    /// byte-identical for every value; this only trades wall-clock.
    pub jobs: usize,
    /// Seed replicates per sweep cell (mean ± stddev aggregation).
    pub replicates: usize,
    /// Human label for report headers.
    pub label: &'static str,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Scale {
    /// Fast scale: the paper's topology size (10 edge routers per core,
    /// 100 hosts on Internet2 — replay quality depends on this mixing),
    /// with a short workload horizon. Each experiment takes seconds.
    pub fn quick() -> Scale {
        Scale {
            edges_per_core: 10,
            horizon: Dur::from_millis(10),
            fattree_k: 4,
            seed: 1,
            jobs: default_jobs(),
            replicates: 1,
            label: "quick",
        }
    }

    /// Paper-like scale: longer horizon for tighter fractions, k=8
    /// fat-tree (128 hosts).
    pub fn full() -> Scale {
        Scale {
            edges_per_core: 10,
            horizon: Dur::from_millis(40),
            fattree_k: 8,
            seed: 1,
            jobs: default_jobs(),
            replicates: 1,
            label: "full",
        }
    }

    /// The simulation-size subset the sweep engine needs.
    pub fn sim(&self) -> SimScale {
        SimScale {
            edges_per_core: self.edges_per_core,
            horizon: self.horizon,
            fattree_k: self.fattree_k,
            label: self.label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let (q, f) = (Scale::quick(), Scale::full());
        assert!(q.horizon < f.horizon);
        assert!(q.fattree_k < f.fattree_k);
        // Both use the paper's WAN topology size — replay quality depends
        // on that host-level statistical mixing.
        assert_eq!(q.edges_per_core, 10);
    }

    #[test]
    fn sim_subset_matches() {
        let s = Scale {
            edges_per_core: 3,
            horizon: Dur::from_millis(7),
            ..Scale::quick()
        };
        let sim = s.sim();
        assert_eq!(sim.edges_per_core, 3);
        assert_eq!(sim.horizon, Dur::from_millis(7));
        assert_eq!(sim.fattree_k, s.fattree_k);
        assert_eq!(sim.label, "quick");
    }
}
