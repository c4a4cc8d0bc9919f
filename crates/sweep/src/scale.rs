//! Experiment scale: the knobs `sweep`'s scale flags set.

use crate::grid::SimScale;
use ups_sim::Dur;

/// Knobs that trade fidelity for runtime.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Topology size, workload horizon and the report label.
    pub sim: SimScale,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for sweep-backed experiments. Results are
    /// byte-identical for every value; this only trades wall-clock.
    pub jobs: usize,
    /// Seed replicates per sweep cell (mean ± stddev aggregation).
    pub replicates: usize,
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
            sim: SimScale {
                edges_per_core: 10,
                horizon: Dur::from_millis(10),
                fattree_k: 4,
                label: "quick",
            },
            seed: 1,
            jobs: default_jobs(),
            replicates: 1,
        }
    }

    /// Paper-like scale: longer horizon for tighter fractions, k=8
    /// fat-tree (128 hosts).
    pub fn full() -> Scale {
        Scale {
            sim: SimScale {
                edges_per_core: 10,
                horizon: Dur::from_millis(40),
                fattree_k: 8,
                label: "full",
            },
            seed: 1,
            jobs: default_jobs(),
            replicates: 1,
        }
    }

    /// The simulation-size knobs the sweep engine needs.
    pub fn sim(&self) -> SimScale {
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let (q, f) = (Scale::quick().sim, Scale::full().sim);
        assert!(q.horizon < f.horizon);
        assert!(q.fattree_k < f.fattree_k);
        // Both use the paper's WAN topology size — replay quality depends
        // on that host-level statistical mixing.
        assert_eq!(q.edges_per_core, 10);
    }
}
