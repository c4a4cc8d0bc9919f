//! Fixed log2-bucket histogram: integer counts, exact quantile bounds.

/// Number of buckets: one for zero plus one per possible bit width.
pub const BUCKETS: usize = 65;

/// A fixed-size base-2 histogram over `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `b >= 1` holds values whose bit
/// width is `b`, i.e. the half-open range `[2^(b-1), 2^b)`. Recording
/// is a single `leading_zeros` plus an array bump — no allocation, no
/// floating point — so the state, and every bucket bound read off it,
/// is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else its bit width.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (`u64::MAX` for the top one).
    pub fn bucket_upper(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean of all samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket where the cumulative count first
    /// reaches `q` (0 < q <= 1) of the total; 0 when empty. A bucketed
    /// quantile is integer-exact, unlike interpolated percentiles.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(b);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.mean(), 1106.0 / 5.0);
        // 100 lives in [64,128): upper bound 127.
        assert_eq!(h.quantile_upper(0.8), 127);
        // 1000 lives in [512,1024): upper bound 1023.
        assert_eq!(h.quantile_upper(1.0), 1023);
    }
}
