//! Zipf-distributed ID sampling.

use rand::Rng;

/// A Zipf(`n`, `s`) sampler over ranks `0..n`: rank `r` has probability
/// proportional to `1 / (r+1)^s`.
///
/// Recommendation traces follow such power laws (paper §4.3, Fig. 16a:
/// "hot row IDs have 10K+ access counts while others are barely accessed").
/// Sampling is an exact inverse CDF: a guide table of `K + 1` bucket
/// starts narrows each draw to the few ranks whose CDF crosses the
/// draw's bucket, so a draw costs O(1) expected probes instead of a
/// branch-mispredicting binary search over the whole CDF. Paper-scale
/// *trace statistics* only need the analytic mass functions exposed
/// here.
///
/// # Examples
///
/// ```
/// use mprec_data::Zipf;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let z = Zipf::new(1000, 1.05);
/// let mut rng = StdRng::seed_from_u64(0);
/// let id = z.sample(&mut rng);
/// assert!(id < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    exponent: f64,
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF is `>= j / K` (capped at
    /// `n - 1`), for `j` in `0..=K` with `K = guide.len() - 1`.
    guide: Vec<u32>,
}

/// Upper bound on the guide table's bucket count `K`.
const GUIDE_CAP: usize = 1 << 16;

impl Zipf {
    /// Creates a sampler over `0..n` with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `n` exceeds `2^32`, or unless
    /// [`Zipf::mass_is_finite`] holds.
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(n <= 1 << 32, "zipf support must fit u32 ranks, got {n}");
        assert!(
            Self::mass_is_finite(n, exponent),
            "zipf mass over {n} ranks must be finite, got exponent {exponent}"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        // One merge-style pass: bucket edges j/K are exact (K is a power
        // of two) and ascending, so the rank cursor only moves forward.
        let k = (n as usize).next_power_of_two().min(GUIDE_CAP);
        let last = cdf.len() - 1;
        let mut guide = Vec::with_capacity(k + 1);
        let mut r = 0usize;
        for j in 0..=k {
            let edge = j as f64 / k as f64;
            while r < last && cdf[r] < edge {
                r += 1;
            }
            guide.push(r as u32);
        }
        Zipf {
            n,
            exponent,
            cdf,
            guide,
        }
    }

    /// Whether a Zipf over `n` ranks with this exponent has a finite
    /// probability mass — the configuration check callers run before
    /// [`Zipf::new`]. Each of the `n` terms is at most `max(1, n^-s)`,
    /// so a finite `n^(1-s)` bounds the mass; this rejects NaN and
    /// infinite exponents and ones so negative that the mass overflows.
    pub fn mass_is_finite(n: u64, exponent: f64) -> bool {
        exponent.is_finite() && (n as f64).powf(1.0 - exponent).is_finite()
    }

    /// Support size.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to: the first rank
    /// whose CDF is `>= u`, capped at `n - 1`.
    ///
    /// `u` lies in bucket `j = floor(u * K)`, so `j / K <= u < (j+1) / K`
    /// (exact: `K` is a power of two). The answer is therefore at least
    /// `guide[j]` and at most `guide[j+1]`, and only that closed range
    /// is searched.
    fn rank_of(&self, u: f64) -> u64 {
        let k = self.guide.len() - 1;
        let j = ((u * k as f64) as usize).min(k - 1);
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        let rank = lo + self.cdf[lo..=hi].partition_point(|&c| c < u);
        (rank as u64).min(self.n - 1)
    }

    /// Probability mass of rank `r`.
    pub fn pmf(&self, r: u64) -> f64 {
        if r >= self.n {
            return 0.0;
        }
        let prev = if r == 0 { 0.0 } else { self.cdf[(r - 1) as usize] };
        self.cdf[r as usize] - prev
    }

    /// Cumulative mass of the `k` most popular ranks — i.e. the expected hit
    /// rate of a cache that pins the top-`k` hottest IDs. This is the
    /// analytic backbone of the MP-Cache encoder model.
    pub fn top_k_mass(&self, k: u64) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[(k.min(self.n) - 1) as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.9);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(999));
    }

    #[test]
    fn empirical_matches_analytic_head() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let emp0 = counts[0] as f64 / n as f64;
        assert!(
            (emp0 - z.pmf(0)).abs() < 0.01,
            "empirical {emp0} vs analytic {}",
            z.pmf(0)
        );
    }

    #[test]
    fn two_level_search_matches_full_binary_search() {
        // The guide-table draw must return exactly the rank a binary
        // search over the whole CDF returns for the same uniform value.
        let z = Zipf::new(10_000, 1.05);
        let mut rng = StdRng::seed_from_u64(77);
        let mut reference = StdRng::seed_from_u64(77);
        for _ in 0..5_000 {
            let got = z.sample(&mut rng);
            let u: f64 = reference.gen();
            let want = match z
                .cdf
                .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
            {
                Ok(i) => i as u64,
                Err(i) => (i as u64).min(z.n - 1),
            };
            assert_eq!(got, want, "u = {u}");
        }
    }

    #[test]
    fn top_k_mass_is_monotone_and_caps_at_one() {
        let z = Zipf::new(1000, 1.05);
        assert_eq!(z.top_k_mass(0), 0.0);
        assert!(z.top_k_mass(10) < z.top_k_mass(100));
        assert!((z.top_k_mass(1000) - 1.0).abs() < 1e-9);
        assert!((z.top_k_mass(5000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_exponent_concentrates_mass() {
        let light = Zipf::new(10_000, 0.6);
        let heavy = Zipf::new(10_000, 1.2);
        assert!(heavy.top_k_mass(100) > light.top_k_mass(100));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_exponent_panics() {
        let _ = Zipf::new(100, f64::NAN);
    }

    #[test]
    fn mass_check_rejects_non_finite_and_overflowing_exponents() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1000.0] {
            assert!(!Zipf::mass_is_finite(50_000, bad), "exponent {bad}");
        }
        for ok in [-0.5, 0.0, 1.05, 2.0, 300.0] {
            assert!(Zipf::mass_is_finite(50_000, ok), "exponent {ok}");
            assert!(Zipf::new(50_000, ok).top_k_mass(50_000).is_finite());
        }
    }

    /// Support sizes around the guide-table boundaries: one rank, a
    /// power of two and its neighbours, the serving default, and one
    /// above the 2^16 bucket cap.
    const GUIDE_SIZES: [u64; 7] = [1, 2, 255, 256, 257, 50_000, 70_000];

    /// Checks the guide-table rank against the reference inverse CDF
    /// (first rank with `cdf >= u` over the whole CDF, capped at `n - 1`)
    /// at every bucket edge `j/K`, at the largest draw below 1, and at
    /// random draws; returns the first disagreement.
    fn guide_mismatch(z: &Zipf, seed: u64) -> Option<String> {
        let k = z.guide.len() - 1;
        let edges = (0..k).map(|j| j as f64 / k as f64);
        let mut rng = StdRng::seed_from_u64(seed);
        let random: Vec<f64> = (0..512).map(|_| rng.gen()).collect();
        edges
            .chain([1.0 - f64::EPSILON / 2.0])
            .chain(random)
            .find_map(|u| {
                let want = (z.cdf.partition_point(|&c| c < u) as u64).min(z.n - 1);
                let got = z.rank_of(u);
                (got != want).then(|| format!("u = {u}: guide {got} vs full {want}"))
            })
    }

    #[test]
    fn guide_table_is_exact_at_the_exponent_range_ends() {
        // Exponent 0 puts CDF values exactly on the bucket edges of the
        // power-of-two sizes, so a draw that ties a CDF value is covered.
        for n in GUIDE_SIZES {
            for s in [0.0, 2.0] {
                let z = Zipf::new(n, s);
                assert_eq!(guide_mismatch(&z, n), None, "n = {n}, s = {s}");
            }
        }
    }

    proptest! {
        #[test]
        fn samples_in_support(n in 1u64..500, s in 0.1f64..2.0, seed in any::<u64>()) {
            let z = Zipf::new(n, s);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn guide_table_rank_equals_full_cdf_search(
            size in 0usize..GUIDE_SIZES.len(),
            milli_s in 0u32..2001,
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(GUIDE_SIZES[size], f64::from(milli_s) / 1000.0);
            let mismatch = guide_mismatch(&z, seed);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }

        #[test]
        fn pmf_is_decreasing(n in 2u64..200, s in 0.1f64..2.0) {
            let z = Zipf::new(n, s);
            for r in 0..n - 1 {
                prop_assert!(z.pmf(r) >= z.pmf(r + 1));
            }
        }
    }
}
