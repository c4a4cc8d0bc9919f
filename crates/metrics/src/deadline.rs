//! Deadline outcomes: miss rate and lateness distribution.
//!
//! Deadline-tagged flows (an `ups-transport` `FlowDesc` with a
//! `deadline`) carry a completion budget relative to their start; after a run each tagged
//! flow either beat its absolute deadline or missed it by some
//! lateness. The [`DeadlineLedger`] counts those outcomes and keeps
//! each late completion's lateness in a log2-bucket
//! [`ups_obs::Histogram`], so the p99 it reports is an exact bucket
//! bound.

use ups_obs::Histogram;
use ups_sim::Time;

/// Accumulates deadline-tagged flow outcomes.
#[derive(Debug, Clone, Default)]
pub struct DeadlineLedger {
    /// Tagged flows observed.
    tagged: u64,
    /// Flows that finished late or never finished.
    missed: u64,
    /// Lateness of each late completion, in whole microseconds.
    lateness_us: Histogram,
}

impl DeadlineLedger {
    /// An empty ledger.
    pub fn new() -> DeadlineLedger {
        DeadlineLedger::default()
    }

    /// Record one tagged flow's outcome: its absolute deadline and its
    /// completion time (`None` when the flow never finished). A late or
    /// unfinished flow counts as missed; late *completions* additionally
    /// record their lateness, in whole microseconds, into the histogram
    /// (an unfinished flow has no defined lateness).
    pub fn observe(&mut self, deadline: Time, completion: Option<Time>) {
        self.tagged += 1;
        match completion {
            Some(done) if done <= deadline => {}
            Some(done) => {
                self.missed += 1;
                let lateness_ps = done.as_ps() - deadline.as_ps();
                self.lateness_us.record(lateness_ps / 1_000_000);
            }
            None => self.missed += 1,
        }
    }

    /// Reduce the ledger to summary statistics.
    pub fn stats(&self) -> DeadlineStats {
        DeadlineStats {
            tagged: self.tagged,
            missed: self.missed,
            mean_lateness_us: self.lateness_us.mean(),
            p99_lateness_us: self.lateness_us.quantile_upper(0.99) as f64,
        }
    }
}

/// Summary of deadline outcomes over a set of tagged flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineStats {
    /// Deadline-tagged flows observed.
    pub tagged: u64,
    /// Flows that finished late or never finished.
    pub missed: u64,
    /// Mean lateness (µs) over *late completions* (0 when none).
    pub mean_lateness_us: f64,
    /// 99th-percentile lateness (µs) as a log2-bucket upper bound —
    /// integer-exact (see [`ups_obs::Histogram::quantile_upper`]).
    pub p99_lateness_us: f64,
}

impl DeadlineStats {
    /// Fraction of tagged flows that missed (0 when none were tagged).
    pub fn miss_rate(&self) -> f64 {
        if self.tagged == 0 {
            0.0
        } else {
            self.missed as f64 / self.tagged as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> Time {
        Time::from_micros(us)
    }

    #[test]
    fn counts_on_time_late_and_unfinished() {
        let mut ledger = DeadlineLedger::new();
        ledger.observe(at(100), Some(at(90))); // on time
        ledger.observe(at(100), Some(at(100))); // exactly on time
        ledger.observe(at(100), Some(at(350))); // 250 µs late
        ledger.observe(at(100), None); // never finished
        let s = ledger.stats();
        assert_eq!((s.tagged, s.missed), (4, 2));
        assert_eq!(s.miss_rate(), 0.5);
        // Only the late completion has a lateness sample.
        assert_eq!(s.mean_lateness_us, 250.0);
        // 250 lives in [128, 256): bucket upper bound 255.
        assert_eq!(s.p99_lateness_us, 255.0);
    }

    #[test]
    fn empty_ledger_is_all_zero() {
        let s = DeadlineLedger::new().stats();
        assert_eq!((s.tagged, s.missed), (0, 0));
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.mean_lateness_us, 0.0);
        assert_eq!(s.p99_lateness_us, 0.0);
    }
}
