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
/// Most draws skip the second `powf` as well. `floor(x)` is the largest
/// `d` whose threshold `d^(1-θ)` the CDF's numerator `v = 1 + u·span` has
/// passed, so the sampler keeps the thresholds of the shallowest depths
/// and finds the depth by comparing `v` against them. Where `v` lies
/// within a relative 1e-9 of a threshold, or beyond the table, it takes
/// the `powf` after all, so every draw is the closed form's, bit for bit.
///
/// Most draws skip even the comparisons. The sampler splits the `v` that
/// map to the tabled depths into buckets of `v`'s bit pattern (sign,
/// exponent and top 7 mantissa bits), and stores a depth for every
/// bucket whose two ends the comparisons decide alike: every `v` between
/// them is decided alike too, since the comparisons are monotone in `v`.
/// A draw reads its bucket and, if it holds a depth, returns it capped at
/// `max`, as the closed form clamps. So the buckets, built once in
/// [`new`](Self::new), do not depend on `max`.
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
#[derive(Debug, Clone)]
pub struct PowerLawSampler {
    theta: f64,
    /// The `max` whose normaliser is cached; 0 before the first draw that
    /// needs one (`max <= 1` never does).
    cached_max: usize,
    /// `(cached_max + 1)^(1-θ) - 1`, the denominator of the CDF.
    cached_span: f64,
    /// `σ·d^(1-θ)` for `d = 2, 3, …`, with `σ` the sign of `1-θ`, so the
    /// entries increase with `d` on either side of θ = 1. Unused at θ = 1.
    thresholds: [f64; THRESHOLDS],
    /// The bucket number ([`bucket_of`]) of `buckets[0]`.
    first_bucket: u64,
    /// The depth every `v` of a bucket maps to, or 0 where the threshold
    /// comparisons do not decide the whole bucket alike. Empty at θ = 1.
    buckets: Box<[u8]>,
}

/// Mantissa bits of `v` that, with its sign and exponent, name its bucket.
const BUCKET_BITS: u32 = 7;

/// Buckets at most: 16 binades of `v`, enough to cover every tabled depth
/// for θ up to about 4; a steeper sampler keeps the buckets nearest `v = 1`,
/// which hold the shallowest and most often drawn depths.
const MAX_BUCKETS: u64 = 16 << BUCKET_BITS;

/// The bucket `v` falls in: its bit pattern's sign, exponent and top
/// [`BUCKET_BITS`] mantissa bits.
#[inline]
fn bucket_of(v: f64) -> u64 {
    v.to_bits() >> (52 - BUCKET_BITS)
}

/// Depths `2..=THRESHOLDS + 1` are decided by threshold comparison. At the
/// default θ = 1.95 about one draw in thirty from a full 8192-region stack
/// lands deeper and pays the `powf`.
const THRESHOLDS: usize = 32;

/// How close, relative to a threshold, `v` may come before the comparison
/// is left to `powf`. `powf` is accurate to an ulp or so (~1e-16), so
/// outside this band the comparison and `floor(powf(..))` cannot disagree.
const MARGIN: f64 = 1e-9;

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
        let one_minus = 1.0 - theta;
        let sign = one_minus.signum();
        let mut sampler = PowerLawSampler {
            theta,
            cached_max: 0,
            cached_span: 0.0,
            thresholds: std::array::from_fn(|i| sign * ((i + 2) as f64).powf(one_minus)),
            first_bucket: 0,
            buckets: Box::default(),
        };
        if !sampler.is_logarithmic() {
            sampler.fill_buckets();
        }
        sampler
    }

    /// Whether θ is 1, where the CDF is logarithmic and no table applies.
    fn is_logarithmic(&self) -> bool {
        (self.theta - 1.0).abs() < 1e-9
    }

    /// Builds the bucket table over the `v` between 1 (depth 1) and the
    /// last threshold, past which the comparisons never decide.
    fn fill_buckets(&mut self) {
        let sign = (1.0 - self.theta).signum();
        let last = sign * self.thresholds[THRESHOLDS - 1];
        let (one, end) = (bucket_of(1.0), bucket_of(last));
        let (first, len) = if end >= one {
            (one, (end - one + 1).min(MAX_BUCKETS))
        } else {
            let len = (one - end + 1).min(MAX_BUCKETS);
            (one + 1 - len, len)
        };
        let decide = |v: f64| self.depth_by_thresholds(sign * v, usize::MAX);
        let buckets = (first..first + len)
            .map(|b| {
                let lo = f64::from_bits(b << (52 - BUCKET_BITS));
                let hi = f64::from_bits(((b + 1) << (52 - BUCKET_BITS)) - 1);
                match (decide(lo), decide(hi)) {
                    (Some(a), Some(z)) if a == z => a as u8,
                    _ => 0,
                }
            })
            .collect();
        self.first_bucket = first;
        self.buckets = buckets;
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
        self.depth(rng.gen_range(0.0..1.0), max)
    }

    /// The depth the uniform draw `u` maps to, for `max >= 2`.
    fn depth(&mut self, u: f64, max: usize) -> usize {
        let n = max as f64;
        // Inverse CDF of the continuous density f(x) ∝ x^(-theta) on [1, n+1).
        let x = if self.is_logarithmic() {
            // theta == 1: CDF(x) = ln(x) / ln(n+1)
            (n + 1.0).powf(u)
        } else {
            let one_minus = 1.0 - self.theta;
            if self.cached_max != max {
                self.cached_max = max;
                self.cached_span = (n + 1.0).powf(one_minus) - 1.0;
            }
            // CDF(x) = (x^(1-θ) - 1) / ((n+1)^(1-θ) - 1)
            let v = 1.0 + u * self.cached_span;
            let bucket = bucket_of(v).wrapping_sub(self.first_bucket) as usize;
            match self.buckets.get(bucket) {
                Some(&d) if d != 0 => return usize::from(d).min(max),
                _ => {}
            }
            if let Some(d) = self.depth_by_thresholds(one_minus.signum() * v, max) {
                return d;
            }
            v.powf(1.0 / one_minus)
        };
        (x.floor() as usize).clamp(1, max)
    }

    /// `floor(x).clamp(1, max)` for `x = v^(1/(1-θ))`, read off the
    /// threshold table from `key = σ·v`, or `None` where the table cannot
    /// decide: `key` is within [`MARGIN`] of a threshold, or `x` may reach
    /// past the table. `x >= d` exactly when `key >= thresholds[d - 2]`.
    #[inline]
    fn depth_by_thresholds(&self, key: f64, max: usize) -> Option<usize> {
        let top = max.min(THRESHOLDS + 1);
        for (d, &t) in (2..=top).zip(&self.thresholds) {
            if (key - t).abs() <= MARGIN * t.abs() {
                return None;
            }
            if key < t {
                return Some(d - 1);
            }
        }
        (top == max).then_some(max)
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
            theta_idx in 0usize..7,
            seed in 0u64..1_000,
            maxes in proptest::collection::vec(0usize..3_000, 1..120),
        ) {
            // θ = 1 takes the logarithmic branch; the rest share the cache.
            let theta = [0.0, 0.5, 1.0, 1.1, 1.4, 1.95, 2.6][theta_idx];
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

        /// Draws whose `v` lands on, or within a few margins of, a depth
        /// threshold (where the table must defer to `powf`), and draws
        /// just past the table, still give the closed form's depth.
        #[test]
        fn threshold_table_matches_closed_form_near_thresholds(
            theta_idx in 0usize..3,
            max in 2usize..3_000,
            d in 2usize..40,
            offset in 0u64..8_001,
            coarse in proptest::strategy::any::<bool>(),
        ) {
            let theta = [0.5, 1.1, 1.95][theta_idx];
            let one_minus = 1.0 - theta;
            let span = (max as f64 + 1.0).powf(one_minus) - 1.0;
            // v = d^(1-θ), nudged by up to 4000 ulps or up to 4 margins
            // either way, mapped back to u.
            let step = if coarse { 1e-12 } else { f64::EPSILON };
            let nudge = (offset as f64 - 4_000.0) * step;
            let v = (d as f64).powf(one_minus) * (1.0 + nudge);
            let u = (v - 1.0) / span;
            if !(0.0..1.0).contains(&u) {
                return Ok(());
            }
            let mut sampler = PowerLawSampler::new(theta);
            proptest::prop_assert_eq!(
                sampler.depth(u, max),
                closed_form(theta, u, max),
                "theta {} max {} d {} offset {}", theta, max, d, offset
            );
        }
    }

    /// Where the table decides a `v` within 64 ulps of a threshold (the
    /// table's hardest cases: `powf` itself lands a few ulps either side of
    /// the integer there), it decides as `floor(powf(..))` does, on both
    /// sides of θ = 1.
    #[test]
    fn threshold_table_agrees_with_powf_at_every_threshold() {
        for theta in [0.5, 1.1, 1.95] {
            let one_minus: f64 = 1.0 - theta;
            for max in [2usize, 3, 17, 33, 34, 40, 1_000] {
                let sampler = PowerLawSampler::new(theta);
                for d in 2..=THRESHOLDS + 3 {
                    let t = (d as f64).powf(one_minus);
                    for k in 0..=128u64 {
                        let v = f64::from_bits(t.to_bits() + k - 64);
                        let want = (v.powf(1.0 / one_minus).floor() as usize).clamp(1, max);
                        if let Some(got) = sampler.depth_by_thresholds(one_minus.signum() * v, max)
                        {
                            assert_eq!(got, want, "theta {theta} max {max} d {d} v {v:e}");
                        }
                    }
                }
            }
        }
    }

    /// Every bucket that holds a depth holds the closed form's depth,
    /// `floor(v^(1/(1-θ)))`, for the `v` at both of its ends and at 64
    /// bit patterns spread between them; and most buckets hold one.
    #[test]
    fn filled_buckets_match_closed_form() {
        let width = 1u64 << (52 - BUCKET_BITS);
        for theta in [0.5, 1.1, 1.4, 1.95, 2.6] {
            let one_minus: f64 = 1.0 - theta;
            let sampler = PowerLawSampler::new(theta);
            let mut filled = 0;
            for (i, &d) in sampler.buckets.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                filled += 1;
                let lo = (sampler.first_bucket + i as u64) << (52 - BUCKET_BITS);
                let interior = (1..=64).map(|k| lo + k * (width / 65));
                for bits in [lo, lo + width - 1].into_iter().chain(interior) {
                    let v = f64::from_bits(bits);
                    let want = (v.powf(1.0 / one_minus).floor() as usize).max(1);
                    assert_eq!(usize::from(d), want, "theta {theta} v {v:e}");
                }
            }
            let len = sampler.buckets.len();
            assert!(
                2 * filled > len,
                "theta {theta}: {filled} of {len} buckets hold a depth"
            );
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
