//! Zipf-like popularity distributions.
//!
//! The paper (following Breslau et al., INFOCOM'99) models WWW file
//! popularity as a Zipf-like distribution: the probability of a request
//! for the `i`'th most popular of `F` files is proportional to `1 / i^α`
//! with `α` typically below 1. Everything the model needs reduces to the
//! accumulated probability of the `n` hottest files,
//!
//! ```text
//! z(n, F) = H(n, α) / H(F, α)
//! ```
//!
//! where `H` is the generalized harmonic number. The simulator also needs
//! fast sampling. This crate provides:
//!
//! * [`harmonic`] — a continuous, smooth extension of `H(n, α)` so cache
//!   sizes measured in fractional files are meaningful,
//! * [`ZipfLaw`] — `z(n, F)` and per-rank probabilities,
//! * [`ZipfSampler`] — CDF-table sampling of ranks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use l2s_util::{cast, DetRng};

/// Number of leading terms summed exactly before switching to the
/// Euler–Maclaurin tail expansion.
const EXACT_TERMS: usize = 64;

/// Continuous generalized harmonic number `H(n, α) = Σ_{i=1..n} i^{-α}`,
/// extended smoothly to real `n ≥ 0` by Euler–Maclaurin so that cache
/// capacities measured in fractional files interpolate sensibly.
///
/// Monotone non-decreasing in `n`; `harmonic(0.0, α) == 0`.
pub fn harmonic(n: f64, alpha: f64) -> f64 {
    l2s_util::invariant!(alpha >= 0.0, "negative Zipf exponents are not meaningful");
    if n <= 0.0 {
        return 0.0;
    }
    if n <= cast::len_f64(EXACT_TERMS) {
        // Exact sum of the integer part plus a linear fraction of the next
        // term keeps the function continuous and monotone for small n.
        let whole = cast::floor_index(n.floor());
        let mut sum = 0.0;
        for i in 1..=whole {
            sum += cast::len_f64(i).powf(-alpha);
        }
        let frac = n - cast::len_f64(whole);
        if frac > 0.0 {
            sum += frac * cast::len_f64(whole + 1).powf(-alpha);
        }
        return sum;
    }
    let m = cast::len_f64(EXACT_TERMS);
    let mut head = 0.0;
    for i in 1..=EXACT_TERMS {
        head += cast::len_f64(i).powf(-alpha);
    }
    // Euler–Maclaurin: Σ_{m+1..n} f(i) ≈ ∫_m^n f + (f(n) - f(m))/2
    //                  + (f'(n) - f'(m))/12, with f(x) = x^{-α}.
    let integral = if (alpha - 1.0).abs() < 1e-12 {
        (n / m).ln()
    } else {
        (n.powf(1.0 - alpha) - m.powf(1.0 - alpha)) / (1.0 - alpha)
    };
    let boundary = 0.5 * (n.powf(-alpha) - m.powf(-alpha));
    let first = (alpha / 12.0) * (m.powf(-alpha - 1.0) - n.powf(-alpha - 1.0));
    // Next Euler–Maclaurin term (B4 = -1/30), using the third derivative
    // of x^{-alpha}.
    let third = (alpha * (alpha + 1.0) * (alpha + 2.0) / 720.0)
        * (n.powf(-alpha - 3.0) - m.powf(-alpha - 3.0));
    head + integral + boundary + first + third
}

/// A Zipf-like popularity law over `files` ranked files with exponent
/// `alpha`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZipfLaw {
    files: f64,
    alpha: f64,
    total: f64,
}

impl ZipfLaw {
    /// Creates a law over a (possibly fractional) population of `files`
    /// files. `files <= 0` or `alpha < 0` is rejected by `invariant!`.
    pub fn new(files: f64, alpha: f64) -> Self {
        l2s_util::invariant!(files > 0.0, "population must be positive");
        l2s_util::invariant!(alpha >= 0.0, "alpha must be non-negative");
        ZipfLaw {
            files,
            alpha,
            total: harmonic(files, alpha),
        }
    }

    /// Probability of a request hitting exactly rank `i` (1-based).
    pub fn rank_probability(&self, rank: u64) -> f64 {
        l2s_util::invariant!(rank >= 1, "ranks are 1-based");
        if cast::exact_f64(rank) > self.files {
            return 0.0;
        }
        cast::exact_f64(rank).powf(-self.alpha) / self.total
    }

    /// The paper's `z(n, F)`: accumulated probability of a request for
    /// one of the `n` most popular files. Clamps `n` into `[0, F]`.
    pub fn z(&self, n: f64) -> f64 {
        let n = n.clamp(0.0, self.files);
        harmonic(n, self.alpha) / self.total
    }

    /// Dense per-rank probability table `[P(1), …, P(n)]` — the form
    /// cache models integrate over. Ranks beyond the population get 0.
    pub fn probabilities(&self, n: usize) -> Vec<f64> {
        (1..=cast::len_u64(n))
            .map(|r| self.rank_probability(r))
            .collect()
    }
}

/// Samples ranks `1..=F` from a Zipf-like law via a precomputed CDF table
/// and binary search. Construction is `O(F)`, sampling `O(log F)`.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `files ≥ 1` ranks with exponent `alpha`.
    pub fn new(files: usize, alpha: f64) -> Self {
        l2s_util::invariant!(files >= 1, "need at least one file");
        l2s_util::invariant!(alpha >= 0.0, "alpha must be non-negative");
        let mut cdf = Vec::with_capacity(files);
        let mut acc = 0.0;
        for i in 1..=files {
            acc += cast::len_f64(i).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point round-off leaving the last entry
        // fractionally below 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Draws a 1-based rank.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.f64();
        cast::len_u64((self.cdf.partition_point(|&c| c < u) + 1).min(self.cdf.len()))
    }

    /// Dense per-rank probability table recovered from the CDF —
    /// exactly the frequencies [`sample`](ZipfSampler::sample) draws
    /// with (the table normalization, not the smooth harmonic
    /// extension), so models validated against sampled streams carry
    /// no normalization skew.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cdf
            .iter()
            .map(|&c| {
                let p = c - prev;
                prev = c;
                p
            })
            .collect()
    }

    /// Probability of rank `i` (1-based), for tests and analysis.
    pub fn probability(&self, rank: u64) -> f64 {
        let i = cast::index_usize(rank);
        l2s_util::invariant!(i >= 1 && i <= self.cdf.len(), "rank {rank} out of range");
        if i == 1 {
            self.cdf[0]
        } else {
            self.cdf[i - 1] - self.cdf[i - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_harmonic(n: usize, alpha: f64) -> f64 {
        (1..=n).map(|i| (i as f64).powf(-alpha)).sum()
    }

    #[test]
    fn harmonic_matches_exact_sum_small_n() {
        for alpha in [0.0, 0.5, 0.78, 1.0, 1.08] {
            for n in 1..=32usize {
                let got = harmonic(n as f64, alpha);
                let want = exact_harmonic(n, alpha);
                assert!(
                    (got - want).abs() < 1e-12,
                    "n={n} alpha={alpha}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn harmonic_matches_exact_sum_large_n() {
        for alpha in [0.5, 0.78, 0.91, 1.0, 1.08] {
            for n in [100usize, 1_000, 50_000] {
                let got = harmonic(n as f64, alpha);
                let want = exact_harmonic(n, alpha);
                assert!(
                    (got / want - 1.0).abs() < 1e-9,
                    "n={n} alpha={alpha}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn harmonic_alpha_one_matches_log_approximation() {
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        let n = 1_000_000.0;
        let got = harmonic(n, 1.0);
        let approx = n.ln() + EULER_GAMMA;
        assert!((got - approx).abs() < 1e-6, "{got} vs {approx}");
    }

    #[test]
    fn harmonic_is_monotone_and_continuous() {
        let alpha = 0.8;
        let mut prev = 0.0;
        let mut x = 0.0;
        while x < 100.0 {
            let h = harmonic(x, alpha);
            assert!(h >= prev - 1e-12, "harmonic dipped at {x}");
            prev = h;
            x += 0.37;
        }
        // Continuity across the exact/Euler–Maclaurin boundary.
        let below = harmonic(EXACT_TERMS as f64 - 1e-7, alpha);
        let above = harmonic(EXACT_TERMS as f64 + 1e-7, alpha);
        assert!((above - below).abs() < 1e-5, "{below} vs {above}");
    }

    #[test]
    fn z_endpoints() {
        let law = ZipfLaw::new(1000.0, 0.9);
        assert_eq!(law.z(0.0), 0.0);
        assert!((law.z(1000.0) - 1.0).abs() < 1e-12);
        assert!((law.z(5000.0) - 1.0).abs() < 1e-12, "clamped above F");
        assert_eq!(law.z(-5.0), 0.0, "clamped below 0");
    }

    #[test]
    fn z_is_concave_increasing() {
        let law = ZipfLaw::new(10_000.0, 0.78);
        let mut prev = 0.0;
        let mut prev_gain = f64::INFINITY;
        for k in 1..=100 {
            let n = k as f64 * 100.0;
            let z = law.z(n);
            let gain = z - prev;
            assert!(gain > 0.0, "z not increasing at n={n}");
            assert!(gain <= prev_gain + 1e-12, "z not concave at n={n}");
            prev = z;
            prev_gain = gain;
        }
    }

    #[test]
    fn rank_probabilities_sum_to_one() {
        let law = ZipfLaw::new(500.0, 1.0);
        let sum: f64 = (1..=500).map(|i| law.rank_probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-8, "sum = {sum}");
        assert_eq!(law.rank_probability(501), 0.0);
    }

    #[test]
    fn sampler_matches_law_frequencies() {
        let files = 200;
        let alpha = 0.91;
        let sampler = ZipfSampler::new(files, alpha);
        let law = ZipfLaw::new(files as f64, alpha);
        let mut rng = DetRng::new(99);
        let n = 400_000;
        let mut counts = vec![0u64; files];
        for _ in 0..n {
            let r = sampler.sample(&mut rng);
            counts[(r - 1) as usize] += 1;
        }
        // Check the head ranks, which have enough mass for a tight bound.
        for rank in 1..=10u64 {
            let observed = counts[(rank - 1) as usize] as f64 / n as f64;
            let expected = law.rank_probability(rank);
            assert!(
                (observed / expected - 1.0).abs() < 0.06,
                "rank {rank}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sampler_probability_matches_table() {
        let sampler = ZipfSampler::new(50, 0.7);
        let sum: f64 = (1..=50).map(|r| sampler.probability(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(sampler.probability(1) > sampler.probability(2));
    }

    #[test]
    fn probability_tables_match_their_pointwise_forms() {
        let law = ZipfLaw::new(300.0, 0.85);
        let table = law.probabilities(300);
        for (i, &p) in table.iter().enumerate() {
            assert_eq!(p, law.rank_probability(i as u64 + 1));
        }
        let sampler = ZipfSampler::new(300, 0.85);
        let table = sampler.probabilities();
        assert_eq!(table.len(), 300);
        let sum: f64 = table.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for (i, &p) in table.iter().enumerate() {
            assert!((p - sampler.probability(i as u64 + 1)).abs() < 1e-15);
        }
    }

    #[test]
    fn sampler_single_file() {
        let sampler = ZipfSampler::new(1, 1.0);
        let mut rng = DetRng::new(5);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let sampler = ZipfSampler::new(4, 0.0);
        for r in 1..=4 {
            assert!((sampler.probability(r) - 0.25).abs() < 1e-12);
        }
    }
}
