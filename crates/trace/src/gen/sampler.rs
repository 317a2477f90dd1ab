//! Truncated power-law sampling for stack distances.

use rand::Rng;

/// Samples integers from `1..=max` with probability `P(d) ∝ d^(-theta)`.
///
/// Power laws over LRU stack distance are the classical model of program
/// temporal locality; `theta` around `1.0–1.8` reproduces the miss-ratio
/// curves of real workloads. Sampling uses the inverse CDF of the continuous
/// relaxation, which is exact enough for workload synthesis and O(1) per
/// draw: one uniform draw and one `powf`. The CDF's normaliser
/// `(max+1)^(1-θ)` depends only on `max`, so the sampler caches it for the
/// last `max` it saw; callers whose population changes rarely (an LRU stack
/// grows only on new allocations) pay its `powf` only when `max` changes.
/// The cache never changes a result: the same `f64` operations run in the
/// same order whether the normaliser is fresh or cached.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use seta_trace::gen::PowerLawSampler;
///
/// let mut sampler = PowerLawSampler::new(1.4);
/// let mut rng = StdRng::seed_from_u64(7);
/// let d = sampler.sample(&mut rng, 100);
/// assert!((1..=100).contains(&d));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PowerLawSampler {
    theta: f64,
    /// The `max` whose normaliser is cached; 0 before the first draw that
    /// needs one (`max <= 1` never does).
    cached_max: usize,
    /// `(cached_max + 1)^(1-θ) - 1`, the denominator of the CDF.
    cached_span: f64,
}

impl PowerLawSampler {
    /// Creates a sampler with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    pub fn new(theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be finite and non-negative, got {theta}"
        );
        PowerLawSampler {
            theta,
            cached_max: 0,
            cached_span: 0.0,
        }
    }

    /// The exponent this sampler was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one value from `1..=max`.
    ///
    /// `max == 0` is treated as `max == 1` so callers need not special-case
    /// empty populations. Takes `&mut self` only to refresh the cached
    /// normaliser when `max` differs from the previous draw's.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, max: usize) -> usize {
        if max <= 1 {
            return 1;
        }
        let n = max as f64;
        let u: f64 = rng.gen_range(0.0..1.0);
        // Inverse CDF of the continuous density f(x) ∝ x^(-theta) on [1, n+1).
        let x = if (self.theta - 1.0).abs() < 1e-9 {
            // theta == 1: CDF(x) = ln(x) / ln(n+1)
            (n + 1.0).powf(u)
        } else {
            let one_minus = 1.0 - self.theta;
            if self.cached_max != max {
                self.cached_max = max;
                self.cached_span = (n + 1.0).powf(one_minus) - 1.0;
            }
            // CDF(x) = (x^(1-θ) - 1) / ((n+1)^(1-θ) - 1)
            (1.0 + u * self.cached_span).powf(1.0 / one_minus)
        };
        (x.floor() as usize).clamp(1, max)
    }
}

impl PartialEq for PowerLawSampler {
    /// Samplers are equal when they draw the same distribution; the cached
    /// normaliser is an implementation detail.
    fn eq(&self, other: &Self) -> bool {
        self.theta == other.theta
    }
}

impl Default for PowerLawSampler {
    /// A moderately local workload (`theta = 1.4`).
    fn default() -> Self {
        PowerLawSampler::new(1.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(theta: f64, max: usize, draws: usize) -> Vec<usize> {
        let mut sampler = PowerLawSampler::new(theta);
        let mut rng = StdRng::seed_from_u64(99);
        let mut h = vec![0usize; max + 1];
        for _ in 0..draws {
            h[sampler.sample(&mut rng, max)] += 1;
        }
        h
    }

    #[test]
    fn samples_stay_in_range() {
        let mut sampler = PowerLawSampler::new(1.2);
        let mut rng = StdRng::seed_from_u64(1);
        for max in [1usize, 2, 3, 10, 1000] {
            for _ in 0..200 {
                let d = sampler.sample(&mut rng, max);
                assert!((1..=max).contains(&d), "d={d} out of 1..={max}");
            }
        }
    }

    #[test]
    fn max_zero_and_one_return_one() {
        let mut sampler = PowerLawSampler::default();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sampler.sample(&mut rng, 0), 1);
        assert_eq!(sampler.sample(&mut rng, 1), 1);
    }

    #[test]
    fn small_distances_dominate() {
        let h = histogram(1.4, 100, 50_000);
        let head: usize = h[1..=5].iter().sum();
        let tail: usize = h[50..=100].iter().sum();
        assert!(
            head > 5 * tail,
            "expected strong locality: head={head} tail={tail}"
        );
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let h = histogram(0.0, 10, 100_000);
        for (d, &count) in h.iter().enumerate().take(11).skip(1) {
            let frac = count as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.02, "d={d} frac={frac} not ~uniform");
        }
    }

    #[test]
    fn larger_theta_is_more_local() {
        let flat = histogram(0.8, 200, 50_000);
        let steep = histogram(1.8, 200, 50_000);
        let head_flat: usize = flat[1..=3].iter().sum();
        let head_steep: usize = steep[1..=3].iter().sum();
        assert!(head_steep > head_flat);
    }

    #[test]
    fn theta_one_special_case_works() {
        let h = histogram(1.0, 50, 20_000);
        assert!(h[1] > h[25], "P(1) should exceed P(25) for theta=1");
    }

    #[test]
    #[should_panic(expected = "theta must be finite")]
    fn negative_theta_panics() {
        PowerLawSampler::new(-0.5);
    }

    /// The inverse CDF computed from scratch on every draw, with no cache.
    fn closed_form(theta: f64, u: f64, max: usize) -> usize {
        if max <= 1 {
            return 1;
        }
        let n = max as f64;
        let x = if (theta - 1.0).abs() < 1e-9 {
            (n + 1.0).powf(u)
        } else {
            let one_minus = 1.0 - theta;
            (1.0 + u * ((n + 1.0).powf(one_minus) - 1.0)).powf(1.0 / one_minus)
        };
        (x.floor() as usize).clamp(1, max)
    }

    proptest::proptest! {
        #[test]
        fn cached_normaliser_matches_closed_form(
            theta_idx in 0usize..5,
            seed in 0u64..1_000,
            maxes in proptest::collection::vec(0usize..3_000, 1..120),
        ) {
            // θ = 1 takes the logarithmic branch; the rest share the cache.
            let theta = [0.0, 1.0, 1.1, 1.4, 1.95][theta_idx];
            let mut sampler = PowerLawSampler::new(theta);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            // Runs of repeats, growth and shrinkage, and dips to n <= 1.
            for max in maxes.iter().flat_map(|&m| [m, m, m / 2, m % 3, m]) {
                let got = sampler.sample(&mut rng, max);
                let want = if max <= 1 {
                    1
                } else {
                    closed_form(theta, oracle_rng.gen_range(0.0..1.0), max)
                };
                proptest::prop_assert_eq!(got, want, "theta {} max {}", theta, max);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut sampler = PowerLawSampler::new(1.3);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let xs: Vec<_> = (0..100).map(|_| sampler.sample(&mut a, 64)).collect();
        let ys: Vec<_> = (0..100).map(|_| sampler.sample(&mut b, 64)).collect();
        assert_eq!(xs, ys);
    }
}
