//! Distribution summaries: empirical CDF/CCDF, percentiles, bucketed
//! means.

/// An empirical distribution built from `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs rejected).
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in CDF input"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (0 ≤ p ≤ 1), nearest-rank.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p));
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// `F(x)` at each of the given points — the fixed-grid evaluation
    /// the sweep engine aggregates across seed replicates (every
    /// replicate reports its CDF on the same x-axis, so per-point
    /// mean ± stddev is well-defined).
    pub fn at_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.at(x)).collect()
    }

    /// Nearest-rank quantiles at each of the given probabilities
    /// (0 ≤ p ≤ 1). Panics on an empty CDF, like [`Cdf::quantile`].
    pub fn quantiles(&self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.quantile(p)).collect()
    }

    /// Evenly spaced (x, F(x)) points for plotting/reporting. Degenerate
    /// inputs stay meaningful: an empty CDF yields no points, and a
    /// constant distribution (`min == max`, a real occurrence at tiny
    /// sweep scales) yields the single point `(x, 1.0)` instead of `n`
    /// duplicates of it.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if lo == hi {
            return vec![(lo, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

/// Nearest-rank percentile of unsorted data (convenience).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    Cdf::new(samples.to_vec()).quantile(p / 100.0)
}

/// Streaming mean/variance accumulator (Welford's online algorithm),
/// numerically stable for long runs. Used by the sweep engine to
/// aggregate per-seed replicates without holding samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Accumulate one sample. NaN is rejected (it would poison every
    /// later statistic silently).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample in Welford input");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Samples accumulated so far.
    pub fn count(&self) -> usize {
        self.n as usize
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation (0.0 for fewer than two samples).
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean, `stddev / sqrt(n)` (0.0 when empty).
    pub fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }
}

/// Five-number-ish summary.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation (Welford; 0 for n < 2).
    pub stddev: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize samples. Panics on empty input.
    pub fn of(samples: &[f64]) -> Summary {
        let cdf = Cdf::new(samples.to_vec());
        let mut w = Welford::new();
        for &x in samples {
            w.push(x);
        }
        Summary {
            n: cdf.len(),
            mean: cdf.mean(),
            stddev: w.stddev(),
            stderr: w.stderr(),
            p50: cdf.quantile(0.50),
            p99: cdf.quantile(0.99),
            max: cdf.quantile(1.0),
        }
    }
}

/// Flow-size bucket boundaries for Figure 2 style reporting: bucket `i`
/// holds flows with `size ≤ edges[i]` (sizes in packets), the last bucket
/// is open-ended.
#[derive(Debug, Clone)]
pub struct SizeBuckets {
    /// Upper edges, ascending.
    pub edges: Vec<u64>,
}

impl SizeBuckets {
    /// The paper's Figure 2 buckets (multiples of one MSS, then the tail),
    /// expressed in packets.
    pub fn paper_fig2() -> SizeBuckets {
        SizeBuckets {
            edges: vec![1, 2, 3, 5, 7, 40, 72, 200, 1_000, 10_000],
        }
    }

    /// Index of the bucket for a flow of `pkts` packets.
    pub fn index(&self, pkts: u64) -> usize {
        self.edges
            .iter()
            .position(|&e| pkts <= e)
            .unwrap_or(self.edges.len())
    }

    /// Number of buckets (edges + open tail).
    pub fn count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Label for bucket `i`. Total: with no edges there is exactly one
    /// (open) bucket, labelled `"all"` — indexing `edges` would panic.
    pub fn label(&self, i: usize) -> String {
        if self.edges.is_empty() {
            "all".to_string()
        } else if i == 0 {
            format!("<={}", self.edges[0])
        } else if i < self.edges.len() {
            format!("{}-{}", self.edges[i - 1] + 1, self.edges[i])
        } else {
            format!(">{}", self.edges[self.edges.len() - 1])
        }
    }
}

/// Mean of `values` grouped into `buckets` by `sizes` (parallel slices).
/// Returns `(mean, count)` per bucket; empty buckets give `(0, 0)`.
pub fn bucket_means(buckets: &SizeBuckets, sizes: &[u64], values: &[f64]) -> Vec<(f64, usize)> {
    assert_eq!(sizes.len(), values.len());
    let mut sum = vec![0f64; buckets.count()];
    let mut cnt = vec![0usize; buckets.count()];
    for (&s, &v) in sizes.iter().zip(values) {
        let b = buckets.index(s);
        sum[b] += v;
        cnt[b] += 1;
    }
    sum.iter()
        .zip(&cnt)
        .map(|(&s, &c)| if c == 0 { (0.0, 0) } else { (s / c as f64, c) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basic_properties() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(2.0), 0.5);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(1.0 - c.at(3.0), 0.25);
        assert_eq!(c.mean(), 2.5);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let c = Cdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(0.99), 99.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.0), 1.0);
    }

    #[test]
    fn at_many_and_quantiles_match_scalar_forms() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at_many(&[0.5, 2.0, 10.0]), vec![0.0, 0.5, 1.0]);
        assert_eq!(c.quantiles(&[0.0, 0.5, 1.0]), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn points_are_monotone() {
        let c = Cdf::new(vec![5.0, 1.0, 9.0, 3.0, 3.0]);
        let pts = c.points(11);
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn points_of_constant_distribution_is_a_single_point() {
        let c = Cdf::new(vec![4.2; 7]);
        assert_eq!(c.points(11), vec![(4.2, 1.0)]);
    }

    #[test]
    fn points_of_empty_cdf_is_empty() {
        let c = Cdf::new(Vec::new());
        assert!(c.points(5).is_empty());
    }

    #[test]
    fn empty_edges_have_one_total_bucket() {
        let b = SizeBuckets { edges: Vec::new() };
        assert_eq!(b.count(), 1);
        assert_eq!(b.index(0), 0);
        assert_eq!(b.index(u64::MAX), 0);
        assert_eq!(b.label(0), "all");
    }

    #[test]
    fn buckets_index_and_label() {
        let b = SizeBuckets::paper_fig2();
        assert_eq!(b.index(1), 0);
        assert_eq!(b.index(2), 1);
        assert_eq!(b.index(6), 4);
        assert_eq!(b.index(1_000_000), b.count() - 1);
        assert_eq!(b.label(0), "<=1");
        assert!(b.label(b.count() - 1).starts_with('>'));
    }

    #[test]
    fn bucket_means_group_correctly() {
        let b = SizeBuckets {
            edges: vec![10, 100],
        };
        let sizes = [5, 7, 50, 500];
        let vals = [1.0, 3.0, 10.0, 100.0];
        let m = bucket_means(&b, &sizes, &vals);
        assert_eq!(m[0], (2.0, 2));
        assert_eq!(m[1], (10.0, 1));
        assert_eq!(m[2], (100.0, 1));
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 3.0);
        assert!(s.stddev > 0.0);
        assert!((s.stderr - s.stddev / 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_textbook_stddev() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((w.stddev() - (32.0 / 7.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_all_zeros() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        assert_eq!(w.stderr(), 0.0);
    }

    #[test]
    fn welford_single_sample_has_zero_spread() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.stddev(), 0.0, "sample stddev undefined at n=1 → 0");
        assert_eq!(w.stderr(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn welford_rejects_nan() {
        Welford::new().push(f64::NAN);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.stderr, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        Cdf::new(vec![1.0, f64::NAN]);
    }
}
