//! Flow-size distributions.
//!
//! The paper draws flow sizes "from a heavy-tailed distribution \[4, 5\]".
//! The referenced traces aren't public, so we provide the two standard
//! synthetic stand-ins used throughout the datacenter-scheduling
//! literature plus fixed/uniform fixtures for tests. All sizes are in
//! whole MSS-sized packets (the paper's Figure 2 buckets are multiples of
//! 1460 B), converted to bytes by the caller's MSS.

use ups_sim::DetRng;

/// A flow-size distribution (sizes in packets).
#[derive(Debug, Clone)]
pub enum SizeDist {
    /// Every flow is exactly `n` packets.
    Fixed(u64),
    /// Uniform over `[lo, hi]` packets.
    Uniform(u64, u64),
    /// Bounded Pareto with shape `alpha` over `[min_pkts, max_pkts]`.
    /// `alpha ≈ 1.2` gives the classic "most flows are mice, most bytes
    /// are elephants" shape.
    BoundedPareto {
        /// Tail index (smaller = heavier tail).
        alpha: f64,
        /// Minimum size in packets.
        min_pkts: u64,
        /// Maximum size in packets.
        max_pkts: u64,
    },
    /// The web-search workload of DCTCP/pFabric, as an empirical CDF in
    /// packets. Heavier mid-range than Pareto; ~60 pkt mean.
    WebSearch,
}

/// (cumulative probability, size in packets) knots of the web-search CDF,
/// interpolated geometrically between knots.
const WEB_SEARCH_CDF: [(f64, u64); 9] = [
    (0.0, 1),
    (0.15, 2),
    (0.30, 3),
    (0.50, 7),
    (0.60, 13),
    (0.70, 35),
    (0.80, 100),
    (0.95, 700),
    (1.0, 20_000),
];

impl SizeDist {
    /// The default heavy-tailed distribution used by the experiments:
    /// bounded Pareto over \[1, 1000\] packets (≈1.5 kB – 1.5 MB). The cap
    /// keeps single elephants from saturating a WAN path for tens of
    /// simulated milliseconds: Table 1's overdue packets are nearly all
    /// late by under one transmission time, which implies moderate
    /// queues, not the backlog an uncapped elephant builds on a 1 Gbps
    /// access link. The distributions in \[4, 5\] are dominated by
    /// sub-MB flows too.
    pub fn default_heavy_tail() -> SizeDist {
        SizeDist::BoundedPareto {
            alpha: 1.2,
            min_pkts: 1,
            max_pkts: 1_000,
        }
    }

    /// Draw one flow size in packets.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match *self {
            SizeDist::Fixed(n) => n.max(1),
            SizeDist::Uniform(lo, hi) => lo + rng.gen_range(hi - lo + 1),
            SizeDist::BoundedPareto {
                alpha,
                min_pkts,
                max_pkts,
            } => {
                // Inverse-CDF sampling of the bounded Pareto.
                let (l, h) = (min_pkts as f64, max_pkts as f64);
                let u = rng.gen_f64();
                let la = l.powf(alpha);
                let ha = h.powf(alpha);
                let x = (-(u * (1.0 - la / ha) - 1.0) / la).powf(-1.0 / alpha);
                (x.round() as u64).clamp(min_pkts, max_pkts)
            }
            SizeDist::WebSearch => {
                let u = rng.gen_f64();
                let mut prev = WEB_SEARCH_CDF[0];
                for &knot in &WEB_SEARCH_CDF[1..] {
                    if u <= knot.0 {
                        // Geometric interpolation between knots.
                        let f = (u - prev.0) / (knot.0 - prev.0);
                        let lo = (prev.1 as f64).ln();
                        let hi = (knot.1 as f64).ln();
                        return ((lo + f * (hi - lo)).exp().round() as u64).max(1);
                    }
                    prev = knot;
                }
                WEB_SEARCH_CDF.last().unwrap().1
            }
        }
    }

    /// Mean flow size in packets (analytic where possible, otherwise via
    /// a deterministic Monte-Carlo estimate). Used by load calibration.
    pub fn mean_pkts(&self) -> f64 {
        match *self {
            SizeDist::Fixed(n) => n.max(1) as f64,
            SizeDist::Uniform(lo, hi) => (lo + hi) as f64 / 2.0,
            SizeDist::BoundedPareto {
                alpha,
                min_pkts,
                max_pkts,
            } => {
                let (l, h) = (min_pkts as f64, max_pkts as f64);
                if (alpha - 1.0).abs() < 1e-9 {
                    (h / l).ln() * l * h / (h - l)
                } else {
                    let la = l.powf(alpha);
                    let ha = h.powf(alpha);
                    (alpha / (alpha - 1.0))
                        * (la / (1.0 - la / ha))
                        * (1.0 / l.powf(alpha - 1.0) - 1.0 / h.powf(alpha - 1.0))
                }
            }
            SizeDist::WebSearch => {
                let mut rng = DetRng::new(0xD157);
                let n = 200_000;
                (0..n).map(|_| self.sample(&mut rng) as f64).sum::<f64>() / n as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_uniform_bounds() {
        let mut rng = DetRng::new(1);
        assert_eq!(SizeDist::Fixed(5).sample(&mut rng), 5);
        for _ in 0..1000 {
            let s = SizeDist::Uniform(2, 9).sample(&mut rng);
            assert!((2..=9).contains(&s));
        }
    }

    #[test]
    fn pareto_respects_bounds_and_is_heavy_tailed() {
        let d = SizeDist::default_heavy_tail();
        let mut rng = DetRng::new(7);
        let samples: Vec<u64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (1..=1_000).contains(&s)));
        // Most flows are small...
        let small = samples.iter().filter(|&&s| s <= 10).count();
        assert!(small as f64 / samples.len() as f64 > 0.7, "not mouse-heavy");
        // ...but big flows carry a disproportionate share of the bytes.
        let total: u64 = samples.iter().sum();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let top1pct: u64 = sorted[sorted.len() - sorted.len() / 100..].iter().sum();
        assert!(
            top1pct as f64 / total as f64 > 0.2,
            "top 1% flows carry only {:.1}% of bytes",
            100.0 * top1pct as f64 / total as f64
        );
    }

    #[test]
    fn pareto_empirical_mean_matches_analytic() {
        let d = SizeDist::default_heavy_tail();
        let mut rng = DetRng::new(3);
        let n = 400_000;
        let emp: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let ana = d.mean_pkts();
        assert!(
            (emp - ana).abs() / ana < 0.15,
            "empirical {emp:.2} vs analytic {ana:.2}"
        );
    }

    #[test]
    fn web_search_mean_is_tens_of_packets() {
        let m = SizeDist::WebSearch.mean_pkts();
        assert!((20.0..400.0).contains(&m), "mean {m}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = SizeDist::default_heavy_tail();
        let draw = |seed| {
            let mut rng = DetRng::new(seed);
            (0..100).map(|_| d.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
    }
}
