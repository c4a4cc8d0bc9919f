//! Deadline outcomes: miss rate and lateness distribution.
//!
//! Deadline-tagged flows (`ups-flowgen`'s `FlowClass`) carry a
//! completion budget relative to their start; after a run each tagged
//! flow either beat its absolute deadline or missed it by some
//! lateness. The [`DeadlineLedger`] records those outcomes *through*
//! an [`ups_obs::Registry`] — counters `deadline_tagged` /
//! `deadline_missed` plus the `lateness_us` histogram — so per-shard
//! ledgers inherit the registry's exactly associative, commutative
//! merge and fold to identical aggregates in any order.

use ups_obs::{CounterId, HistId, Registry};
use ups_sim::Time;

/// Accumulates deadline-tagged flow outcomes into a metrics registry.
#[derive(Debug, Clone)]
pub struct DeadlineLedger {
    registry: Registry,
    tagged: CounterId,
    missed: CounterId,
    lateness_us: HistId,
}

impl Default for DeadlineLedger {
    fn default() -> Self {
        DeadlineLedger::new()
    }
}

impl DeadlineLedger {
    /// An empty ledger with its metrics registered.
    pub fn new() -> DeadlineLedger {
        let mut registry = Registry::new();
        let tagged = registry.counter("deadline_tagged");
        let missed = registry.counter("deadline_missed");
        let lateness_us = registry.histogram("lateness_us");
        DeadlineLedger {
            registry,
            tagged,
            missed,
            lateness_us,
        }
    }

    /// Record one tagged flow's outcome: its absolute deadline and its
    /// completion time (`None` when the flow never finished). A late or
    /// unfinished flow counts as missed; late *completions* additionally
    /// record their lateness, in whole microseconds, into the histogram
    /// (an unfinished flow has no defined lateness).
    pub fn observe(&mut self, deadline: Time, completion: Option<Time>) {
        self.registry.inc(self.tagged);
        match completion {
            Some(done) if done <= deadline => {}
            Some(done) => {
                self.registry.inc(self.missed);
                let lateness_ps = done.as_ps() - deadline.as_ps();
                self.registry
                    .record(self.lateness_us, lateness_ps / 1_000_000);
            }
            None => self.registry.inc(self.missed),
        }
    }

    /// Fold another ledger in (counters add, histogram merges) —
    /// associative and commutative, like the registry merge it wraps.
    pub fn merge(&mut self, other: &DeadlineLedger) {
        self.registry.merge(other.registry());
    }

    /// The backing registry (e.g. for export alongside other metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Reduce the ledger to summary statistics.
    pub fn stats(&self) -> DeadlineStats {
        let hist = self
            .registry
            .hist("lateness_us")
            .expect("registered in new()");
        DeadlineStats {
            tagged: self.registry.counter_value("deadline_tagged"),
            missed: self.registry.counter_value("deadline_missed"),
            mean_lateness_us: hist.mean(),
            p99_lateness_us: hist.quantile_upper(0.99) as f64,
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
    /// integer-exact and merge-stable (see
    /// [`ups_obs::Histogram::quantile_upper`]).
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

    #[test]
    fn merged_shards_match_single_ledger() {
        let mut whole = DeadlineLedger::new();
        let mut left = DeadlineLedger::new();
        let mut right = DeadlineLedger::new();
        for i in 0..20u64 {
            let completion = (i % 3 != 0).then(|| at(100 + i * 17));
            whole.observe(at(120), completion);
            let shard = if i % 2 == 0 { &mut left } else { &mut right };
            shard.observe(at(120), completion);
        }
        let mut folded = left.clone();
        folded.merge(&right);
        assert_eq!(folded.stats(), whole.stats());
        // Commutative: the opposite fold order agrees.
        let mut other = right;
        other.merge(&left);
        assert_eq!(other.stats(), whole.stats());
    }
}
