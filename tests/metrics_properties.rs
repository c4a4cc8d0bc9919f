//! Property-based tests of the measurement layer — the numbers every
//! experiment reports must themselves be trustworthy.

use proptest::prelude::*;
use ups::metrics::{jain_index, Cdf};

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn cdf_is_monotone_and_normalized(
        mut xs in prop::collection::vec(0f64..1e9, 1..200)
    ) {
        xs.iter_mut().for_each(|x| *x = x.abs());
        let cdf = Cdf::new(xs.clone());
        prop_assert_eq!(cdf.len(), xs.len());
        // Monotone over a probe grid.
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        let mut last = 0.0;
        for i in 0..=20 {
            let p = cdf.at(max * i as f64 / 20.0);
            prop_assert!(p >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&p));
            last = p;
        }
        prop_assert_eq!(cdf.at(max), 1.0);
        // The CCDF, 1 − at(x), is the share of samples greater than x.
        let probe = max / 2.0;
        let above = xs.iter().filter(|&&x| x > probe).count() as f64 / xs.len() as f64;
        prop_assert!((1.0 - cdf.at(probe) - above).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_order_statistics(
        xs in prop::collection::vec(0f64..1e6, 1..100),
        p in 0.0f64..=1.0
    ) {
        let cdf = Cdf::new(xs.clone());
        let q = cdf.quantile(p);
        // The quantile is an actual sample...
        prop_assert!(xs.iter().any(|&x| (x - q).abs() < 1e-9));
        // ...and at least a fraction p of samples are <= it.
        let frac = xs.iter().filter(|&&x| x <= q).count() as f64 / xs.len() as f64;
        prop_assert!(frac + 1e-9 >= p, "frac {frac} < p {p}");
    }

    #[test]
    fn jain_index_bounds_and_extremes(
        xs in prop::collection::vec(0f64..1e9, 1..64)
    ) {
        let j = jain_index(&xs);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j), "jain {j}");
        // Scaling invariance.
        let scaled: Vec<f64> = xs.iter().map(|x| x * 3.0).collect();
        let js = jain_index(&scaled);
        prop_assert!((j - js).abs() < 1e-9);
    }

    #[test]
    fn jain_equal_allocations_are_perfect(n in 1usize..64, v in 0.1f64..1e6) {
        let xs = vec![v; n];
        prop_assert!((jain_index(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n(n in 2usize..64) {
        let mut xs = vec![0.0; n];
        xs[0] = 42.0;
        prop_assert!((jain_index(&xs) - 1.0 / n as f64).abs() < 1e-12);
    }
}

#[test]
fn time_bandwidth_roundtrip_properties() {
    use ups::sim::{Bandwidth, Dur};
    // tx_time is monotone in bytes and antitone in bandwidth.
    let bws = [
        Bandwidth::mbps(500),
        Bandwidth::gbps(1),
        Bandwidth::gbps(10),
        Bandwidth::gbps(40),
    ];
    for w in bws.windows(2) {
        for bytes in [1u32, 40, 150, 1500, 9000] {
            assert!(w[0].tx_time(bytes) >= w[1].tx_time(bytes));
        }
    }
    for &bw in &bws {
        let mut last = Dur::ZERO;
        for bytes in [1u32, 40, 150, 1500, 9000] {
            let t = bw.tx_time(bytes);
            assert!(t >= last);
            assert!(t > Dur::ZERO);
            last = t;
        }
    }
    // The idealized wire is free.
    assert_eq!(Bandwidth::INFINITE.tx_time(u32::MAX), Dur::ZERO);
}
