//! Incast fan-in workload: the partition/aggregate traffic pattern of
//! datacenter request–response services.
//!
//! An *epoch* picks one receiver and `fan_in` distinct senders; every
//! sender ships a fixed burst to the receiver at (almost) the same
//! instant, so the bursts collide on the receiver's downlink — the
//! classic incast stressor that a per-flow web workload never produces.
//! Epoch frequency is calibrated so the receiver's NIC sees the target
//! mean utilization, which keeps the `utilization` axis of a sweep grid
//! meaningful across workload kinds.
//!
//! Receivers rotate deterministically across the host list and sender
//! sets are drawn from the seeded RNG, so the workload is a pure
//! function of `(topology, config)` like every other generator here.

use ups_net::FlowId;
use ups_sim::{DetRng, Dur, Time};
use ups_topo::Topology;
use ups_transport::FlowDesc;

/// Parameters for incast workload generation.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Senders per epoch (clamped to `hosts - 1`).
    pub fan_in: usize,
    /// Burst size each sender ships, in whole packets.
    pub pkts_per_sender: u64,
    /// Target mean utilization of the receiver's NIC link, in `(0, 1)`.
    /// Controls the epoch frequency, not the burst shape — instantaneous
    /// fan-in pressure is `fan_in : 1` regardless.
    pub utilization: f64,
    /// Wire bytes per packet (MTU).
    pub pkt_bytes: u32,
    /// Workload horizon: epochs start in `[0, horizon)`.
    pub horizon: Dur,
    /// Per-sender start jitter within an epoch (uniform in `[0,
    /// jitter)`) — real aggregators fan requests out over a few µs.
    pub jitter: Dur,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IncastConfig {
    fn default() -> Self {
        IncastConfig {
            fan_in: 16,
            pkts_per_sender: 32,
            utilization: 0.7,
            pkt_bytes: 1500,
            horizon: Dur::from_millis(10),
            jitter: Dur::from_micros(10),
            seed: 1,
        }
    }
}

/// Generate an incast workload over `topo`. Flow ids are dense from 0
/// in arrival order; no flow carries a deadline.
pub fn incast_workload(topo: &Topology, cfg: &IncastConfig) -> Vec<FlowDesc> {
    assert!((0.0..1.0).contains(&cfg.utilization) && cfg.utilization > 0.0);
    assert!(cfg.pkts_per_sender >= 1, "empty bursts");
    let hosts = &topo.hosts;
    assert!(hosts.len() >= 2, "incast needs at least two hosts");
    let fan_in = cfg.fan_in.clamp(1, hosts.len() - 1);

    // Epoch period from the receiver-NIC budget: one epoch lands
    // `fan_in * pkts * bytes` on a downlink of the slowest host-link
    // bandwidth, so running epochs every `bits / (util * bw)` seconds
    // averages to the target utilization.
    let bw_bps = topo
        .host_links
        .iter()
        .map(|&l| topo.net.links[l.0 as usize].bw)
        .min()
        .expect("topology has no host links")
        .as_bps() as f64;
    let bits_per_epoch = fan_in as f64 * cfg.pkts_per_sender as f64 * cfg.pkt_bytes as f64 * 8.0;
    let period_secs = bits_per_epoch / (cfg.utilization * bw_bps);

    let mut master = DetRng::new(cfg.seed);
    let mut flows: Vec<FlowDesc> = Vec::new();
    let mut epoch = 0u64;
    loop {
        let at = Time::from_secs_f64(epoch as f64 * period_secs);
        if at.as_ps() >= cfg.horizon.as_ps() {
            break;
        }
        let receiver = hosts[epoch as usize % hosts.len()];
        let mut rng = master.fork(epoch);
        // Draw `fan_in` distinct senders from the hosts other than the
        // receiver: a seeded partial Fisher–Yates over index space.
        let mut others: Vec<usize> = (0..hosts.len()).filter(|&i| hosts[i] != receiver).collect();
        for k in 0..fan_in {
            let j = k + rng.gen_index(others.len() - k);
            others.swap(k, j);
            let src = hosts[others[k]];
            let start = at + Dur(rng.gen_range(cfg.jitter.as_ps().max(1)));
            flows.push(FlowDesc {
                id: FlowId(0), // densified below
                src,
                dst: receiver,
                pkts: cfg.pkts_per_sender,
                start,
                deadline: None,
            });
        }
        epoch += 1;
    }
    // Dense ids in global arrival order (deterministic sort).
    flows.sort_by_key(|f| (f.start, f.src, f.dst));
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

    #[test]
    fn epochs_are_fan_in_groups_to_one_receiver() {
        let t = topo();
        let cfg = IncastConfig {
            fan_in: 3,
            horizon: Dur::from_millis(20),
            ..Default::default()
        };
        let flows = incast_workload(&t, &cfg);
        assert!(!flows.is_empty());
        assert_eq!(flows.len() % 3, 0, "every epoch contributes fan_in flows");
        // Group by destination within a jitter window: each epoch's
        // senders are distinct and never the receiver.
        for group in flows.chunks(3) {
            let dst = group[0].dst;
            assert!(group.iter().all(|f| f.dst == dst));
            let mut srcs: Vec<_> = group.iter().map(|f| f.src).collect();
            srcs.sort();
            srcs.dedup();
            assert_eq!(srcs.len(), 3, "senders must be distinct");
            assert!(group.iter().all(|f| f.src != f.dst));
        }
    }

    #[test]
    fn utilization_controls_epoch_frequency() {
        let t = topo();
        let mk = |u| {
            incast_workload(
                &t,
                &IncastConfig {
                    utilization: u,
                    horizon: Dur::from_millis(50),
                    ..Default::default()
                },
            )
            .len()
        };
        assert!(mk(0.9) > mk(0.3) * 2, "higher util must mean more epochs");
    }

    #[test]
    fn fan_in_clamps_to_available_hosts() {
        let t = topo(); // 8 hosts
        let flows = incast_workload(
            &t,
            &IncastConfig {
                fan_in: 100,
                horizon: Dur::from_millis(5),
                ..Default::default()
            },
        );
        assert!(!flows.is_empty());
        // 7 = hosts - 1 senders per epoch.
        assert_eq!(flows.len() % 7, 0);
    }

    #[test]
    fn deterministic_dense_and_sorted() {
        let t = topo();
        let cfg = IncastConfig {
            horizon: Dur::from_millis(20),
            ..Default::default()
        };
        let a = incast_workload(&t, &cfg);
        let b = incast_workload(&t, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.start, x.src, x.dst, x.pkts),
                (y.start, y.src, y.dst, y.pkts)
            );
        }
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(a.iter().enumerate().all(|(i, f)| f.id.0 == i as u64));
        assert!(a.iter().all(|f| f.deadline.is_none()));
    }
}
