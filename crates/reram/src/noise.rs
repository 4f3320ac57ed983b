//! Seeded, reproducible noise sources.
//!
//! All stochastic behaviour in the simulator — programming noise, read
//! noise, stuck-at faults — flows through a [`NoiseRng`]. Experiments
//! therefore reproduce exactly given the same seed, which is essential for
//! the paper-vs-measured tables in `EXPERIMENTS.md`.
//!
//! The generator is a self-contained xoshiro256++ with splitmix64 seeding.
//! Owning the generator (rather than wrapping `rand`'s `StdRng`) keeps the
//! noise streams `Clone`-able — needed to snapshot array state — and pins
//! the exact bit streams across `rand` upgrades.

use serde::{Deserialize, Serialize};

/// A deterministic random source for device non-idealities.
///
/// Gaussian samples use the Box–Muller transform (the approved offline crate
/// set has no `rand_distr`), with the spare variate cached so consecutive
/// draws cost one transcendental pair per two samples.
///
/// # Example
///
/// ```
/// use darth_reram::noise::NoiseRng;
///
/// let mut a = NoiseRng::seed_from(42);
/// let mut b = NoiseRng::seed_from(42);
/// assert_eq!(a.gaussian(0.0, 1.0).to_bits(), b.gaussian(0.0, 1.0).to_bits());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseRng {
    state: [u64; 4],
    cached_gaussian: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NoiseRng {
    /// Creates a noise source from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        NoiseRng {
            state,
            cached_gaussian: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Splits off an independent child stream.
    ///
    /// Used to give each array / ADC / cell population its own stream so
    /// that adding a consumer does not perturb every other component's
    /// sequence.
    pub fn fork(&mut self) -> NoiseRng {
        NoiseRng::seed_from(self.next_u64())
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> double in [0, 1)
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a nonempty range");
        // Lemire's multiply-shift rejection-free approximation is fine here;
        // a tiny modulo bias is irrelevant for noise injection, but use
        // 128-bit multiply to keep the distribution near-uniform anyway.
        let x = self.next_u64() as u128;
        ((x * n as u128) >> 64) as usize
    }

    /// A Bernoulli trial with probability `p` of returning `true`.
    ///
    /// `p` is clamped to `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return false;
        }
        if p == 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// A Gaussian sample with the given mean and standard deviation.
    ///
    /// A non-positive `sigma` returns `mean` exactly, which lets callers
    /// disable a noise source by zeroing its sigma.
    pub fn gaussian(&mut self, mean: f64, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return mean;
        }
        mean + sigma * self.standard_normal()
    }

    /// A lognormal sample: `exp(N(mu, sigma))`.
    ///
    /// MILO-style programming-noise models express conductance error as a
    /// multiplicative lognormal factor; `lognormal(0.0, s)` is a factor with
    /// median 1.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.gaussian(mu, sigma).exp()
    }

    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_gaussian.take() {
            return z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        loop {
            let u1 = self.uniform();
            let u2 = self.uniform();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.cached_gaussian = Some(r * theta.sin());
            return r * theta.cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = NoiseRng::seed_from(1);
        let mut b = NoiseRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseRng::seed_from(1);
        let mut b = NoiseRng::seed_from(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 32);
    }

    #[test]
    fn clone_duplicates_the_stream() {
        let mut a = NoiseRng::seed_from(77);
        a.uniform();
        let mut b = a.clone();
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = NoiseRng::seed_from(4);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = NoiseRng::seed_from(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments_roughly_match() {
        let mut rng = NoiseRng::seed_from(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn zero_sigma_is_exact() {
        let mut rng = NoiseRng::seed_from(5);
        assert_eq!(rng.gaussian(1.25, 0.0), 1.25);
        assert_eq!(rng.gaussian(1.25, -1.0), 1.25);
        assert_eq!(rng.lognormal(0.0, 0.0), 1.0);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = NoiseRng::seed_from(7);
        for _ in 0..1000 {
            assert!(rng.lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = NoiseRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
        assert!(!rng.chance(-1.0)); // clamped
    }

    #[test]
    fn chance_frequency() {
        let mut rng = NoiseRng::seed_from(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = NoiseRng::seed_from(8);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..32).filter(|_| c1.uniform() == c2.uniform()).count();
        assert!(same < 32);
    }

    #[test]
    fn zero_variance_draws_consume_no_randomness() {
        // Disabling a noise source by zeroing its sigma must not perturb
        // any other consumer's stream: the degenerate draws return the
        // mean without advancing the generator.
        let mut with_draws = NoiseRng::seed_from(21);
        let mut without = NoiseRng::seed_from(21);
        for _ in 0..8 {
            assert_eq!(with_draws.gaussian(2.5, 0.0), 2.5);
            assert_eq!(with_draws.gaussian(-1.0, -3.0), -1.0);
            assert_eq!(with_draws.lognormal(0.0, 0.0), 1.0);
        }
        for _ in 0..16 {
            assert_eq!(with_draws.next_u64(), without.next_u64());
        }
    }

    #[test]
    fn snapshot_preserves_the_cached_gaussian_spare() {
        // Snapshotting array state clones embedded noise sources; the
        // copy must continue bit-identically *including* the cached
        // Box–Muller spare, or a restored simulation would diverge on
        // its first post-snapshot Gaussian draw.
        let mut rng = NoiseRng::seed_from(123);
        rng.gaussian(0.0, 1.0); // populate the cached spare
        let mut restored = rng.clone();
        for _ in 0..32 {
            assert_eq!(
                rng.gaussian(1.0, 2.0).to_bits(),
                restored.gaussian(1.0, 2.0).to_bits()
            );
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn extreme_sigmas_stay_finite_and_positive_where_required() {
        let mut rng = NoiseRng::seed_from(31);
        for _ in 0..200 {
            let g = rng.gaussian(0.0, 1e12);
            assert!(g.is_finite(), "gaussian produced {g}");
            let l = rng.lognormal(0.0, 50.0);
            // A huge-sigma lognormal may overflow to +inf but can never
            // be negative, zero, or NaN — conductance factors stay sane.
            assert!(l > 0.0 && !l.is_nan(), "lognormal produced {l}");
        }
    }

    #[test]
    fn uniform_range_extreme_bounds_stay_in_range() {
        let mut rng = NoiseRng::seed_from(41);
        for _ in 0..1000 {
            let tiny = rng.uniform_range(f64::MIN_POSITIVE, 2.0 * f64::MIN_POSITIVE);
            assert!((f64::MIN_POSITIVE..2.0 * f64::MIN_POSITIVE).contains(&tiny));
            let huge = rng.uniform_range(1e300, 2e300);
            assert!((1e300..2e300).contains(&huge));
        }
    }

    #[test]
    fn nan_probability_is_a_deterministic_no() {
        let mut rng = NoiseRng::seed_from(51);
        assert!(!rng.chance(f64::NAN));
    }

    #[test]
    fn index_of_one_is_always_zero() {
        let mut rng = NoiseRng::seed_from(61);
        for _ in 0..100 {
            assert_eq!(rng.index(1), 0);
        }
    }

    #[test]
    fn fork_trees_reproduce_under_a_fixed_seed() {
        // Component-per-stream splitting must be reproducible: the same
        // parent seed yields the same whole tree of child streams.
        let mut parent_a = NoiseRng::seed_from(0xDA27);
        let mut parent_b = NoiseRng::seed_from(0xDA27);
        for _ in 0..4 {
            let mut child_a = parent_a.fork();
            let mut grandchild_a = child_a.fork();
            let mut child_b = parent_b.fork();
            let mut grandchild_b = child_b.fork();
            for _ in 0..8 {
                assert_eq!(child_a.next_u64(), child_b.next_u64());
                assert_eq!(grandchild_a.next_u64(), grandchild_b.next_u64());
            }
        }
    }

    #[test]
    fn index_within_bounds_and_covers_range() {
        let mut rng = NoiseRng::seed_from(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = rng.index(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }
}
