//! Named integer metrics with dense handles and associative merge.

use crate::hist::Histogram;

/// Dense handle for a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);
/// Dense handle for a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);
/// Dense handle for a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// A registry of named integer metrics.
///
/// Registration (by name, idempotent) happens at setup time and may
/// allocate; recording through the returned dense handle is an array
/// index plus an integer add. Counters accumulate by addition, gauges
/// are high-water marks (merge takes the max), histograms merge
/// bucket-wise — all three are associative and commutative, so
/// per-shard registries fold to the same aggregate in any order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<u64>,
    hist_names: Vec<String>,
    hists: Vec<Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|n| n == name) {
            return HistId(i);
        }
        self.hist_names.push(name.to_string());
        self.hists.push(Histogram::new());
        HistId(self.hists.len() - 1)
    }

    /// Add to a counter.
    #[inline(always)]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Increment a counter by one.
    #[inline(always)]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Raise a gauge to at least `v` (gauges are high-water marks).
    #[inline(always)]
    pub fn raise(&mut self, id: GaugeId, v: u64) {
        if self.gauges[id.0] < v {
            self.gauges[id.0] = v;
        }
    }

    /// Record a histogram sample.
    #[inline(always)]
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0].record(v);
    }

    /// Current value of a counter by name, 0 if unregistered.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter_names
            .iter()
            .position(|n| n == name)
            .map_or(0, |i| self.counters[i])
    }

    /// Current value of a gauge by name, 0 if unregistered.
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauge_names
            .iter()
            .position(|n| n == name)
            .map_or(0, |i| self.gauges[i])
    }

    /// A histogram by name, if registered.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hist_names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.hists[i])
    }

    /// All counters as `(name, value)` in name order (deterministic
    /// export order independent of registration order).
    pub fn counters_sorted(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self
            .counter_names
            .iter()
            .map(String::as_str)
            .zip(self.counters.iter().copied())
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Fold another registry in by name: counters add, gauges max,
    /// histograms merge bucket-wise. Metrics only present in `other`
    /// are created here.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counter_names.iter().zip(other.counters.iter()) {
            let id = self.counter(name);
            self.counters[id.0] += v;
        }
        for (name, v) in other.gauge_names.iter().zip(other.gauges.iter()) {
            let id = self.gauge(name);
            if self.gauges[id.0] < *v {
                self.gauges[id.0] = *v;
            }
        }
        for (name, h) in other.hist_names.iter().zip(other.hists.iter()) {
            let id = self.histogram(name);
            self.hists[id.0].merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(seed: u64) -> Registry {
        let mut r = Registry::new();
        let c = r.counter("pkts");
        let g = r.gauge("peak_queue");
        let h = r.histogram("lateness_us");
        let mut x = seed;
        for _ in 0..20 {
            x = x.wrapping_mul(0x5DEECE66D).wrapping_add(11);
            r.add(c, x % 7);
            r.raise(g, x % 100);
            r.record(h, x % 5000);
        }
        r
    }

    #[test]
    fn record_and_read_back() {
        let mut r = Registry::new();
        let c = r.counter("delivered");
        let g = r.gauge("peak");
        let h = r.histogram("delay");
        r.inc(c);
        r.add(c, 4);
        r.raise(g, 10);
        r.raise(g, 3);
        r.record(h, 100);
        assert_eq!(r.counter_value("delivered"), 5);
        assert_eq!(r.gauge_value("peak"), 10);
        assert_eq!(r.hist("delay").unwrap().count(), 1);
        // Registration is idempotent.
        assert_eq!(r.counter("delivered"), c);
    }

    /// Registry merge is associative and commutative across shard
    /// orders — including shards whose metric sets only partially
    /// overlap (registration order differs between folds).
    #[test]
    fn merge_is_order_independent() {
        let (a, b, c) = (shard(1), shard(2), shard(3));
        let mut extra = Registry::new();
        let id = extra.counter("only_in_one_shard");
        extra.add(id, 9);

        let fold = |order: &[&Registry]| {
            let mut acc = Registry::new();
            for r in order {
                acc.merge(r);
            }
            (
                acc.counter_value("pkts"),
                acc.counter_value("only_in_one_shard"),
                acc.gauge_value("peak_queue"),
                acc.hist("lateness_us").unwrap().clone(),
            )
        };
        let x = fold(&[&a, &b, &c, &extra]);
        let y = fold(&[&extra, &c, &a, &b]);
        let z = fold(&[&b, &extra, &c, &a]);
        assert_eq!(x, y);
        assert_eq!(x, z);
    }
}
