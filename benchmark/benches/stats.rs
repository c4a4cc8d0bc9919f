//! The harness's own arithmetic: order statistics over pass timings
//! and the digest of a pass's output bytes.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) — the rule the
/// acceptance driver applies to the ten-seed spread, so `selfcheck`
/// and the driver agree digit for digit. A single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual tail percentiles that still has at least
/// ten of `n` samples beyond it, or `None` when none does (fewer than
/// 40 samples: p75 of 40 leaves exactly ten).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&permille| samples_beyond(n, permille) >= 10)
        .map(|permille| permille as f64 / 10.0)
}

/// How many of `n` sorted samples lie strictly beyond a percentile
/// given in permille (nearest-rank: the percentile is the
/// `ceil(permille/1000 · n)`-th sample; whole numbers, so 99.9% of
/// 10 000 is exactly 9 990).
fn samples_beyond(n: usize, permille: usize) -> usize {
    n - (permille * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// 64-bit FNV-1a over the pass's artifact strings, each followed by a
/// 0xFF separator (never a UTF-8 byte) so moving bytes between
/// artifacts changes the digest.
pub fn digest(parts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        part.bytes().for_each(&mut eat);
        eat(0xFF);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(samples_beyond(40, 750), 10);
        assert_eq!(samples_beyond(100, 900), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[2.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn digest_is_stable_and_separator_sensitive() {
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(
            digest(&["ab".to_string(), "c".to_string()]),
            digest(&["a".to_string(), "bc".to_string()])
        );
        // Pinned (FNV-1a of "ups" then 0xFF, computed independently):
        // expected.json stores these digests, so a change of algorithm
        // must be deliberate.
        assert_eq!(digest(&["ups".to_string()]), 0x63a0_8ae3_f49f_fa62);
    }
}
