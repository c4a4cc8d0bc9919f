//! A small deterministic RNG for simulation.
//!
//! Every stochastic component of the simulator (Random scheduler, Poisson
//! flow arrivals, heavy-tailed size sampling, jittered start times) draws
//! from an explicitly seeded [`DetRng`]. We implement xoshiro256++ seeded
//! via SplitMix64 rather than pulling `rand`'s platform-entropy path into
//! the simulator crates: identical seeds must give identical schedules on
//! every platform, forever, because the replay experiments diff two runs
//! picosecond-for-picosecond.

/// Deterministic xoshiro256++ PRNG.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> DetRng {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child stream; used to give each host / each
    /// component its own stream so adding one component never perturbs the
    /// draws seen by another.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let mixed = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(mixed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. `n` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift with rejection for exact uniformity.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, n)` for container access.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]`; safe as an argument to `ln`.
    pub fn gen_f64_open(&mut self) -> f64 {
        1.0 - self.gen_f64()
    }

    /// Bernoulli draw with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponentially distributed sample with the given rate (events/sec),
    /// returned in seconds. Used for Poisson inter-arrival times.
    pub fn gen_exp_secs(&mut self, rate_per_sec: f64) -> f64 {
        debug_assert!(rate_per_sec > 0.0);
        -self.gen_f64_open().ln() / rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = DetRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.gen_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn exp_mean_roughly_inverse_rate() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen_exp_secs(100.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn forks_are_independent_of_later_parent_use() {
        let mut parent1 = DetRng::new(5);
        let mut parent2 = DetRng::new(5);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        // Parent 1 keeps drawing; child streams must stay identical.
        for _ in 0..10 {
            parent1.next_u64();
        }
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }
}
