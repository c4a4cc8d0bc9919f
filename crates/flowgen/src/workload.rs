//! Workload synthesis: Poisson flow arrivals with heavy-tailed sizes,
//! calibrated to a target core utilization, plus the fixed workloads used
//! by the fairness experiment.

use crate::dist::SizeDist;
use ups_net::{FlowId, NodeId};
use ups_sim::{DetRng, Dur, Time};
use ups_topo::Topology;
use ups_transport::FlowDesc;

/// Parameters for Poisson workload generation.
#[derive(Debug, Clone)]
pub struct PoissonConfig {
    /// Target utilization of the most-loaded core link, in `[0, 1)`.
    pub utilization: f64,
    /// Flow-size distribution.
    pub sizes: SizeDist,
    /// Wire bytes per packet (MTU).
    pub pkt_bytes: u32,
    /// Workload horizon: flows arrive in `[0, horizon)`.
    pub horizon: Dur,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PoissonConfig {
    fn default() -> Self {
        PoissonConfig {
            utilization: 0.7,
            sizes: SizeDist::default_heavy_tail(),
            pkt_bytes: 1500,
            horizon: Dur::from_millis(50),
            seed: 1,
        }
    }
}

/// Estimate, for a uniform all-to-all traffic matrix, how many host pairs
/// route across each link; returns the per-link expected *relative* load
/// (pair-paths per link). One representative path is counted per pair
/// (per-flow ECMP averages out at the calibration fidelity we need), with
/// flow id `i·H + j` for source `i` and destination `j`. The counts are
/// whole numbers, so converting each once gives the same `f64` as adding
/// up `1.0` per hop.
fn pair_paths_per_link(topo: &Topology) -> Vec<f64> {
    let h = topo.hosts.len();
    topo.routes
        .count_pair_paths(&topo.hosts, |i, j| FlowId((i * h + j) as u64))
        .into_iter()
        .map(|c| c as f64)
        .collect()
}

/// Compute the per-host Poisson flow arrival rate (flows/sec) that drives
/// the most-loaded **core** link to `utilization`.
///
/// With `H` hosts each opening flows at rate `λ` to uniform destinations,
/// a pair carries `λ/(H−1)` flows/sec of mean size `E[S]` bytes, so link
/// `l` carries `load_l = paths_l · λ/(H−1) · E[S] · 8` bps.
pub fn calibrate_host_rate(topo: &Topology, cfg: &PoissonConfig) -> f64 {
    assert!((0.0..1.0).contains(&cfg.utilization));
    let paths = pair_paths_per_link(topo);
    let h = topo.hosts.len() as f64;
    let mean_bytes = cfg.sizes.mean_pkts() * cfg.pkt_bytes as f64;
    // bits/sec carried per unit λ, per link; find the binding constraint.
    let mut worst = 0f64;
    for &l in &topo.core_links {
        let per_lambda = paths[l.0 as usize] / (h - 1.0) * mean_bytes * 8.0;
        let cap = topo.net.links[l.0 as usize].bw.as_bps() as f64;
        worst = worst.max(per_lambda / cap);
    }
    assert!(worst > 0.0, "no traffic crosses the core");
    cfg.utilization / worst
}

/// Generate a Poisson workload over `topo` at the configured utilization.
/// Flow ids are dense from 0 in arrival order.
pub fn poisson_workload(topo: &Topology, cfg: &PoissonConfig) -> Vec<FlowDesc> {
    let lambda = calibrate_host_rate(topo, cfg);
    let mut master = DetRng::new(cfg.seed);
    let hosts = &topo.hosts;
    let mut flows: Vec<(Time, NodeId, NodeId, u64)> = Vec::new();
    for (hi, &src) in hosts.iter().enumerate() {
        let mut rng = master.fork(hi as u64);
        let mut t = 0.0f64;
        loop {
            t += rng.gen_exp_secs(lambda);
            let start = Time::from_secs_f64(t);
            if start.as_ps() >= cfg.horizon.as_ps() {
                break;
            }
            // Uniform destination other than self.
            let mut d = rng.gen_index(hosts.len() - 1);
            if d >= hi {
                d += 1;
            }
            let pkts = cfg.sizes.sample(&mut rng);
            flows.push((start, src, hosts[d], pkts));
        }
    }
    // Dense ids in global arrival order (deterministic sort).
    flows.sort_by_key(|&(t, s, d, _)| (t, s, d));
    flows
        .into_iter()
        .enumerate()
        .map(|(i, (start, src, dst, pkts))| FlowDesc {
            id: FlowId(i as u64),
            src,
            dst,
            pkts,
            start,
            deadline: None,
        })
        .collect()
}

/// The fairness workload of §3.3: `n` long-lived flows from distinct
/// source hosts, starting with a uniform jitter in `[0, jitter)`.
/// Destinations are chosen round-robin among the remaining hosts so the
/// core is shared. Sizes are effectively infinite (`u64::MAX / 2`).
pub fn long_lived_flows(topo: &Topology, n: usize, jitter: Dur, seed: u64) -> Vec<FlowDesc> {
    assert!(topo.hosts.len() >= 2, "need at least two hosts");
    let mut rng = DetRng::new(seed);
    let hosts = &topo.hosts;
    (0..n)
        .map(|i| {
            let src = hosts[i % hosts.len()];
            // Destination: a different host, rotated to spread load.
            let mut j = (i + 1 + i / hosts.len()) % hosts.len();
            if hosts[j] == src {
                j = (j + 1) % hosts.len();
            }
            FlowDesc {
                id: FlowId(i as u64),
                src,
                dst: hosts[j],
                pkts: u64::MAX / 2,
                start: Time(rng.gen_range(jitter.as_ps().max(1))),
                deadline: None,
            }
        })
        .collect()
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

    #[test]
    fn calibration_targets_bottleneck() {
        let t = topo();
        let cfg = PoissonConfig {
            utilization: 0.5,
            sizes: SizeDist::Fixed(10),
            ..Default::default()
        };
        let lambda = calibrate_host_rate(&t, &cfg);
        // Sanity: offered core load ≈ 50% of 1Gbps (only src->dst flows
        // cross the bottleneck; all 8 hosts generate but only the 4 whose
        // destinations are across it load it — calibration accounts for
        // exactly that via path counting).
        assert!(lambda > 0.0);
        // Rough cross-check: bits offered to the bottleneck per second.
        let paths = super::pair_paths_per_link(&t);
        let crossing: f64 = t
            .core_links
            .iter()
            .map(|&l| paths[l.0 as usize])
            .fold(0.0, f64::max);
        let mean_bytes = cfg.sizes.mean_pkts() * 1500.0;
        let load = crossing * lambda / 7.0 * mean_bytes * 8.0;
        assert!(
            (load / 1e9 - 0.5).abs() < 0.01,
            "calibrated load {:.3} Gbps",
            load / 1e9
        );
    }

    /// The rate as it was computed before the hop visitor: one
    /// `resolve_path` per host pair, source-major.
    fn reference_host_rate(t: &Topology, cfg: &PoissonConfig) -> f64 {
        let mut paths = vec![0f64; t.net.links.len()];
        let hosts = &t.hosts;
        for (i, &s) in hosts.iter().enumerate() {
            for (j, &d) in hosts.iter().enumerate() {
                if i == j {
                    continue;
                }
                let flow = FlowId((i * hosts.len() + j) as u64);
                for &l in t.routes.resolve_path(s, d, flow).links.iter() {
                    paths[l.0 as usize] += 1.0;
                }
            }
        }
        let h = hosts.len() as f64;
        let mean_bytes = cfg.sizes.mean_pkts() * cfg.pkt_bytes as f64;
        let mut worst = 0f64;
        for &l in &t.core_links {
            let per_lambda = paths[l.0 as usize] / (h - 1.0) * mean_bytes * 8.0;
            worst = worst.max(per_lambda / t.net.links[l.0 as usize].bw.as_bps() as f64);
        }
        cfg.utilization / worst
    }

    #[test]
    fn calibration_is_bit_identical_to_the_resolve_path_reference() {
        use ups_topo::{fattree, internet2, rocketfuel};
        let k4 = fattree::build(&fattree::FatTreeConfig::for_k(4), TraceLevel::Off);
        // The fat-tree is the case with real ECMP sets on host routes:
        // an edge switch has two aggregation uplinks toward another pod.
        let (a, b) = (k4.hosts[0], *k4.hosts.last().unwrap());
        let uplink = k4.routes.resolve_path(a, b, FlowId(0)).links[0];
        let edge_switch = k4.net.links[uplink.0 as usize].to;
        assert!(k4.routes.ecmp_width(edge_switch, b) > 1);
        let topos = [
            k4,
            fattree::build(&fattree::FatTreeConfig::for_k(8), TraceLevel::Off),
            internet2::build(&internet2::I2Config::default(), TraceLevel::Off),
            rocketfuel::build(&rocketfuel::RocketFuelConfig::default(), TraceLevel::Off),
            rocketfuel::build(&rocketfuel::RocketFuelConfig::full(), TraceLevel::Off),
        ];
        for t in &topos {
            let cfg = PoissonConfig::default();
            assert_eq!(
                calibrate_host_rate(t, &cfg).to_bits(),
                reference_host_rate(t, &cfg).to_bits(),
                "{}",
                t.name
            );
        }
    }

    #[test]
    fn workload_is_deterministic_and_sorted() {
        let t = topo();
        let cfg = PoissonConfig {
            horizon: Dur::from_millis(5),
            ..Default::default()
        };
        let a = poisson_workload(&t, &cfg);
        let b = poisson_workload(&t, &cfg);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.start, x.src, x.dst, x.pkts),
                (y.start, y.src, y.dst, y.pkts)
            );
        }
        // Ids dense.
        assert!(a.iter().enumerate().all(|(i, f)| f.id.0 == i as u64));
    }

    #[test]
    fn flows_never_self_loop() {
        let t = topo();
        let flows = poisson_workload(
            &t,
            &PoissonConfig {
                horizon: Dur::from_millis(10),
                ..Default::default()
            },
        );
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn higher_utilization_means_more_flows() {
        let t = topo();
        let mk = |u| {
            poisson_workload(
                &t,
                &PoissonConfig {
                    utilization: u,
                    horizon: Dur::from_millis(20),
                    ..Default::default()
                },
            )
            .len()
        };
        assert!(mk(0.9) > mk(0.3) * 2);
    }

    #[test]
    fn long_lived_flows_have_jittered_starts() {
        let t = topo();
        let flows = long_lived_flows(&t, 16, Dur::from_millis(5), 3);
        assert_eq!(flows.len(), 16);
        assert!(flows
            .iter()
            .all(|f| f.start.as_ps() < Dur::from_millis(5).as_ps()));
        assert!(flows.iter().all(|f| f.src != f.dst));
        // Starts are not all identical.
        let first = flows[0].start;
        assert!(flows.iter().any(|f| f.start != first));
    }
}
