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
/// set has no `rand_distr`): each pair of uniforms yields two variates, the
/// cosine one returned and the sine one kept as the *spare* for the next
/// draw.
///
/// A draw nobody observes need not be evaluated:
/// [`NoiseRng::skip_gaussians`] advances the stream exactly as the same
/// number of [`NoiseRng::gaussian`] calls would — same uniforms, same
/// rejections — but computes no transcendental. When a skip opens a pair
/// it keeps the pair's uniforms, and the spare is evaluated only if a
/// later draw observes it. An observed draw that opens a pair computes
/// both variates at once. Either way the observed values are bit-equal to
/// an all-evaluated stream's, and `==` compares future streams: the
/// generator state and the spare's value, however the spare is held.
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseRng {
    state: [u64; 4],
    spare: Spare,
}

/// The second variate of the open Box–Muller pair, if any.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Spare {
    /// No pair is open: the next draw opens one.
    None,
    /// An observed draw opened the pair and evaluated its spare.
    Ready(f64),
    /// A skipped draw opened the pair: its uniforms, evaluated only if a
    /// later draw observes the spare.
    Pending { u1: f64, u2: f64 },
}

impl Spare {
    /// The spare's value, evaluating a pending one.
    fn value(self) -> Option<f64> {
        match self {
            Spare::None => None,
            Spare::Ready(z) => Some(z),
            Spare::Pending { u1, u2 } => {
                let (r, theta) = polar(u1, u2);
                Some(r * theta.sin())
            }
        }
    }
}

/// The Box–Muller radius and angle of one pair of uniforms.
fn polar(u1: f64, u2: f64) -> (f64, f64) {
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2)
}

impl PartialEq for NoiseRng {
    /// Equal generators produce the same future stream: the same state and
    /// the same spare value, evaluated or pending.
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.spare.value().map(f64::to_bits) == other.spare.value().map(f64::to_bits)
    }
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
            spare: Spare::None,
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

    /// Advances the stream exactly as `n` calls of
    /// [`NoiseRng::gaussian`]`(_, sigma)` would, without evaluating them: a
    /// non-positive `sigma` draws nothing, an open pair's spare is dropped,
    /// and every pair opened here draws its uniforms (rejecting as the
    /// evaluated draw does) but computes no transcendental. A pair left
    /// half-used keeps its uniforms for a later observed draw.
    pub fn skip_gaussians(&mut self, mut n: usize, sigma: f64) {
        if sigma <= 0.0 || n == 0 {
            return;
        }
        if !matches!(self.spare, Spare::None) {
            self.spare = Spare::None;
            n -= 1;
        }
        for _ in 0..n / 2 {
            self.pair_uniforms();
        }
        if n % 2 == 1 {
            let (u1, u2) = self.pair_uniforms();
            self.spare = Spare::Pending { u1, u2 };
        }
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
        if let Some(z) = std::mem::replace(&mut self.spare, Spare::None).value() {
            return z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        let (u1, u2) = self.pair_uniforms();
        let (r, theta) = polar(u1, u2);
        self.spare = Spare::Ready(r * theta.sin());
        r * theta.cos()
    }

    /// The uniforms of the next Box–Muller pair, redrawing both while the
    /// first is too small to take the logarithm of.
    fn pair_uniforms(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.uniform();
            let u2 = self.uniform();
            if u1 > f64::MIN_POSITIVE {
                return (u1, u2);
            }
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

    /// What the skipping generator's twin does instead of a skip: draw the
    /// same Gaussians, evaluated, and throw them away.
    fn evaluate_all(twin: &mut NoiseRng, n: usize, sigma: f64) {
        for _ in 0..n {
            twin.gaussian(0.0, sigma);
        }
    }

    #[test]
    fn skipped_draws_leave_every_observed_value_bit_identical() {
        // Seeded random interleavings of observed draws, skips of odd and
        // even lengths, uniforms, forks and mid-pair clones, against a twin
        // that evaluates every skipped draw: each observed value must be
        // bit-equal, the two must compare equal after every step, and the
        // raw streams must end in the same place.
        let mut pick = NoiseRng::seed_from(0x5_ca1e);
        let sigmas = [1.0, 0.005, 3e-7, 0.0, -1.0];
        let mut pending_observed = 0;
        let mut pending_copied = 0;
        for case in 0..300 {
            let mut fast = NoiseRng::seed_from(case);
            let mut twin = fast.clone();
            for _ in 0..48 {
                let sigma = sigmas[pick.index(sigmas.len())];
                let pending = matches!(fast.spare, Spare::Pending { .. });
                match pick.index(6) {
                    // A bulk skip, 0..=9 draws.
                    0 => {
                        let n = pick.index(10);
                        fast.skip_gaussians(n, sigma);
                        evaluate_all(&mut twin, n, sigma);
                    }
                    // A single skip.
                    1 => {
                        fast.skip_gaussians(1, sigma);
                        evaluate_all(&mut twin, 1, sigma);
                    }
                    // A run of observed draws.
                    2 => {
                        pending_observed += usize::from(pending && sigma > 0.0);
                        for _ in 0..=pick.index(4) {
                            let (a, b) = (fast.gaussian(1.0, sigma), twin.gaussian(1.0, sigma));
                            assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
                        }
                    }
                    3 => assert_eq!(fast.uniform().to_bits(), twin.uniform().to_bits()),
                    // A fork taken mid-pair: the children match, and the
                    // parents keep their spares.
                    4 => {
                        let (mut a, mut b) = (fast.fork(), twin.fork());
                        assert_eq!(
                            a.gaussian(0.0, 1.0).to_bits(),
                            b.gaussian(0.0, 1.0).to_bits()
                        );
                        assert_eq!(a.next_u64(), b.next_u64());
                    }
                    // A clone taken mid-pair carries on for the original.
                    _ => {
                        pending_copied += usize::from(pending);
                        let mut copy = fast.clone();
                        let observed = fast.gaussian(0.0, 1.0).to_bits();
                        assert_eq!(copy.gaussian(0.0, 1.0).to_bits(), observed);
                        assert_eq!(twin.gaussian(0.0, 1.0).to_bits(), observed);
                        fast = copy;
                    }
                }
                assert_eq!(fast, twin, "case {case}");
            }
            assert_eq!(fast.next_u64(), twin.next_u64(), "case {case}");
        }
        assert!(
            pending_observed > 100,
            "{pending_observed} pending spares observed"
        );
        assert!(
            pending_copied > 50,
            "{pending_copied} pending spares cloned"
        );
    }

    #[test]
    fn equality_compares_the_spare_as_well_as_the_state() {
        // One skipped draw opens a pair and two close it: the same raw
        // state, but only the first still holds a spare for the next draw.
        let mut open = NoiseRng::seed_from(9);
        let mut closed = open.clone();
        open.skip_gaussians(1, 1.0);
        closed.skip_gaussians(2, 1.0);
        assert_eq!(open.state, closed.state);
        assert_ne!(open, closed);
        // The pending spare equals the one an observed draw evaluates.
        let mut observed = NoiseRng::seed_from(9);
        observed.gaussian(0.0, 1.0);
        assert_eq!(open, observed);
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
