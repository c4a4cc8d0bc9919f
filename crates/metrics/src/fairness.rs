//! Jain's fairness index and throughput time series (Figure 4).
//!
//! "Figure 4 shows the fairness computed using Jain's Fairness Index,
//! from the throughput each flow receives per millisecond." We reproduce
//! that: per-window delivered bytes per flow → Jain index per window.

use ups_sim::{Dur, Time};

/// Jain's fairness index: `(Σx)² / (n · Σx²)`; 1 = perfectly fair.
/// Zero-throughput flows count (they drag the index down), matching the
/// paper's treatment of not-yet-started flows.
pub fn jain_index(throughputs: &[f64]) -> f64 {
    let n = throughputs.len();
    assert!(n > 0, "jain_index of no flows");
    let sum: f64 = throughputs.iter().sum();
    let sumsq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 0.0;
    }
    sum * sum / (n as f64 * sumsq)
}

/// One fairness sample.
#[derive(Debug, Clone, Copy)]
pub struct FairnessPoint {
    /// End of the measurement window.
    pub t: Time,
    /// Jain index over per-flow bytes delivered in the window.
    pub jain: f64,
    /// Aggregate goodput in the window (bytes).
    pub total_bytes: u64,
}

impl FairnessPoint {
    /// The sample of the window ending at `t` in which flow `i`
    /// delivered `bytes[i]` bytes.
    pub fn of_window(t: Time, bytes: &[u64]) -> FairnessPoint {
        let xs: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
        FairnessPoint {
            t,
            jain: jain_index(&xs),
            total_bytes: bytes.iter().sum(),
        }
    }
}

/// Compute the Jain-index time series from per-packet deliveries.
///
/// `deliveries` is an iterator of `(delivery time, flow index, bytes)`;
/// `n_flows` fixes the index universe (flows that have not delivered
/// anything in a window count as zero); `window` is the paper's 1 ms.
pub fn throughput_fairness_series(
    deliveries: impl Iterator<Item = (Time, usize, u32)>,
    n_flows: usize,
    window: Dur,
    horizon: Time,
) -> Vec<FairnessPoint> {
    assert!(n_flows > 0 && window > Dur::ZERO);
    let n_windows = (horizon.as_ps()).div_ceil(window.as_ps()) as usize;
    let mut per_window: Vec<Vec<u64>> = vec![vec![0u64; n_flows]; n_windows];
    for (t, flow, bytes) in deliveries {
        if t >= horizon {
            continue;
        }
        let w = (t.as_ps() / window.as_ps()) as usize;
        per_window[w][flow] += bytes as u64;
    }
    per_window
        .into_iter()
        .enumerate()
        .map(|(w, flows)| FairnessPoint::of_window(Time((w as u64 + 1) * window.as_ps()), &flows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shares_are_perfectly_fair() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_hog_gives_one_over_n() {
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_zero_is_zero() {
        assert_eq!(jain_index(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn series_buckets_by_window() {
        let deliveries = vec![
            (Time::from_micros(100), 0usize, 1000u32),
            (Time::from_micros(200), 1, 1000),
            (Time::from_micros(1500), 0, 2000), // second window, flow 0 only
        ];
        let pts = throughput_fairness_series(
            deliveries.into_iter(),
            2,
            Dur::from_millis(1),
            Time::from_millis(2),
        );
        assert_eq!(pts.len(), 2);
        assert!((pts[0].jain - 1.0).abs() < 1e-12, "window 0 fair");
        assert!((pts[1].jain - 0.5).abs() < 1e-12, "window 1 is one-sided");
        assert_eq!(pts[0].total_bytes, 2000);
        assert_eq!(pts[1].total_bytes, 2000);
    }

    #[test]
    fn deliveries_past_horizon_ignored() {
        let pts = throughput_fairness_series(
            vec![(Time::from_millis(5), 0usize, 100u32)].into_iter(),
            1,
            Dur::from_millis(1),
            Time::from_millis(2),
        );
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.total_bytes == 0));
    }
}
