//! Deadline-tagged / priority traffic mix.
//!
//! The evaluation mix of the deadline-scheduling literature (see "Joint
//! Scheduling and Resource Allocation for Packets with Deadlines and
//! Priorities"): a slice of the offered load is short, urgent,
//! deadline-tagged flows riding on heavy-tailed best-effort background
//! traffic. Both classes are open-loop Poisson, calibrated together so
//! the most-loaded core link still runs at the grid's target
//! utilization — the `utilization` axis means the same thing it does
//! for the plain web workload.
//!
//! Deadlines are affine in flow size (`budget + per_pkt · pkts`), the
//! standard "SLO = fixed latency allowance + service time" shape.

use crate::workload::{poisson_workload, PoissonConfig};
use crate::SizeDist;
use ups_net::FlowId;
use ups_sim::Dur;
use ups_topo::Topology;
use ups_transport::FlowDesc;

/// Parameters for the deadline/priority mix.
#[derive(Debug, Clone)]
pub struct DeadlineMixConfig {
    /// Target utilization of the most-loaded core link (both classes
    /// combined), in `(0, 1)`.
    pub utilization: f64,
    /// Fraction of the offered load that is deadline-tagged, in `[0, 1]`.
    pub deadline_fraction: f64,
    /// Size distribution of the best-effort background.
    pub background_sizes: SizeDist,
    /// Deadline flows are uniform over `[1, short_max_pkts]` packets.
    pub short_max_pkts: u64,
    /// Fixed part of every deadline (network latency allowance).
    pub deadline_budget: Dur,
    /// Per-packet part of every deadline (service-time allowance).
    pub deadline_per_pkt: Dur,
    /// Wire bytes per packet (MTU).
    pub pkt_bytes: u32,
    /// Workload horizon: flows arrive in `[0, horizon)`.
    pub horizon: Dur,
    /// RNG seed (the two classes draw from independent streams derived
    /// from it).
    pub seed: u64,
}

impl Default for DeadlineMixConfig {
    fn default() -> Self {
        DeadlineMixConfig {
            utilization: 0.7,
            deadline_fraction: 0.25,
            background_sizes: SizeDist::default_heavy_tail(),
            short_max_pkts: 8,
            deadline_budget: Dur::from_millis(1),
            deadline_per_pkt: Dur::from_micros(50),
            pkt_bytes: 1500,
            horizon: Dur::from_millis(10),
            seed: 1,
        }
    }
}

/// Seed offset separating the deadline class's RNG stream from the
/// background's (an arbitrary odd constant, as in SplitMix-style
/// stream splitting).
const DEADLINE_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Generate the mix over `topo`. Flow ids are dense from 0 in arrival
/// order across both classes.
pub fn deadline_mix_workload(topo: &Topology, cfg: &DeadlineMixConfig) -> Vec<FlowDesc> {
    assert!((0.0..1.0).contains(&cfg.utilization) && cfg.utilization > 0.0);
    assert!((0.0..=1.0).contains(&cfg.deadline_fraction));
    assert!(cfg.short_max_pkts >= 1);

    let mut flows: Vec<FlowDesc> = Vec::new();

    // Best-effort background at its share of the load.
    let bg_util = cfg.utilization * (1.0 - cfg.deadline_fraction);
    if bg_util > 0.0 {
        flows.extend(poisson_workload(
            topo,
            &PoissonConfig {
                utilization: bg_util,
                sizes: cfg.background_sizes.clone(),
                pkt_bytes: cfg.pkt_bytes,
                horizon: cfg.horizon,
                seed: cfg.seed,
            },
        ));
    }

    // Deadline-tagged short flows at the remaining share, from an
    // independent RNG stream, then tagged with their affine deadline.
    let dl_util = cfg.utilization * cfg.deadline_fraction;
    if dl_util > 0.0 {
        let short = poisson_workload(
            topo,
            &PoissonConfig {
                utilization: dl_util,
                sizes: SizeDist::Uniform(1, cfg.short_max_pkts),
                pkt_bytes: cfg.pkt_bytes,
                horizon: cfg.horizon,
                seed: cfg.seed.wrapping_add(DEADLINE_STREAM),
            },
        );
        flows.extend(short.into_iter().map(|mut f| {
            f.deadline = Some(cfg.deadline_budget + cfg.deadline_per_pkt.times(f.pkts));
            f
        }));
    }

    // Re-densify ids in global arrival order across the merged classes
    // (class in the key so equal-(start,src,dst,pkts) collisions across
    // streams still order deterministically: deadline-tagged first, as
    // `is_none` is false for them).
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.pkts, f.deadline.is_none()));
    for (i, f) in flows.iter_mut().enumerate() {
        f.id = FlowId(i as u64);
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_net::TraceLevel;
    use ups_sim::Bandwidth;
    use ups_topo::simple::dumbbell;

    fn topo() -> Topology {
        dumbbell(
            4,
            Bandwidth::gbps(10),
            Bandwidth::gbps(1),
            Dur::from_micros(5),
            TraceLevel::Off,
        )
    }

    fn mk(cfg: DeadlineMixConfig) -> Vec<FlowDesc> {
        deadline_mix_workload(&topo(), &cfg)
    }

    #[test]
    fn both_classes_present_with_affine_deadlines() {
        let flows = mk(DeadlineMixConfig {
            horizon: Dur::from_millis(20),
            ..Default::default()
        });
        let (dl, bg): (Vec<_>, Vec<_>) = flows.iter().partition(|f| f.deadline.is_some());
        assert!(!dl.is_empty() && !bg.is_empty());
        for f in &dl {
            assert!(f.pkts <= 8, "deadline flows are short, got {}", f.pkts);
            assert_eq!(
                f.deadline.unwrap(),
                Dur::from_millis(1) + Dur::from_micros(50).times(f.pkts)
            );
        }
    }

    #[test]
    fn deadline_fraction_bounds_are_honored() {
        let all_bg = mk(DeadlineMixConfig {
            deadline_fraction: 0.0,
            ..Default::default()
        });
        assert!(all_bg.iter().all(|f| f.deadline.is_none()));
        let all_dl = mk(DeadlineMixConfig {
            deadline_fraction: 1.0,
            ..Default::default()
        });
        assert!(!all_dl.is_empty());
        assert!(all_dl.iter().all(|f| f.deadline.is_some()));
    }

    #[test]
    fn merged_ids_are_dense_and_sorted() {
        let cfg = DeadlineMixConfig {
            horizon: Dur::from_millis(20),
            ..Default::default()
        };
        let a = mk(cfg.clone());
        let b = mk(cfg);
        assert_eq!(a.len(), b.len());
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(a.iter().enumerate().all(|(i, f)| f.id.0 == i as u64));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.start, x.src, x.dst, x.pkts, x.deadline),
                (y.start, y.src, y.dst, y.pkts, y.deadline)
            );
        }
    }

    #[test]
    fn utilization_scales_total_offered_load() {
        let count = |u| {
            mk(DeadlineMixConfig {
                utilization: u,
                horizon: Dur::from_millis(20),
                ..Default::default()
            })
            .iter()
            .map(|f| f.pkts)
            .sum::<u64>()
        };
        assert!(count(0.9) > count(0.3) * 2);
    }
}
