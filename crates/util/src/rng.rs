//! Deterministic random number generation.
//!
//! Experiments must be exactly reproducible from a seed, across platforms
//! and across library releases, so the workspace carries its own
//! xoshiro256++ implementation (public domain algorithm by Blackman &
//! Vigna) seeded through SplitMix64, with no dependency on external RNG
//! crates. [`DetRng`] provides the distributions the simulator needs
//! directly (uniform, exponential, normal, lognormal).

/// A deterministic xoshiro256++ generator.
///
/// Streams derived with [`DetRng::fork`] are independent for practical
/// purposes (the child is seeded from the parent's SplitMix64 stream),
/// which lets one experiment seed derive per-component generators without
/// correlation between, say, arrival sampling and file-size sampling.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the state is expanded with SplitMix64 so close seeds give
    /// uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        DetRng { s }
    }

    /// Derives an independent child generator, advancing this generator.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[0, 1)` that is never exactly zero, for use in
    /// logarithms.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        loop {
            let x = self.f64();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// A uniform integer in `[0, bound)` using Lemire's unbiased method.
    /// `bound == 0` is rejected by `invariant!`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        crate::invariant!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform usize index in `[0, len)`. Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// An exponentially distributed sample with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.f64_open().ln()
    }

    /// A standard normal sample (Box–Muller; one value per call, the
    /// partner value is discarded to keep the state sequence simple).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.f64_open();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A lognormal sample parameterized by the *underlying* normal's
    /// `mu` and `sigma` (so the sample mean is `exp(mu + sigma^2 / 2)`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
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
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = DetRng::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = DetRng::new(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = DetRng::new(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        let mut r = DetRng::new(17);
        let (mu, sigma) = (1.0, 0.5);
        let n = 200_000;
        let mean = (0..n).map(|_| r.lognormal(mu, sigma)).sum::<f64>() / n as f64;
        let expect = (mu + sigma * sigma / 2.0_f64).exp();
        assert!(
            (mean / expect - 1.0).abs() < 0.02,
            "mean = {mean}, expect = {expect}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn fork_produces_uncorrelated_stream() {
        let mut parent = DetRng::new(31);
        let mut child = parent.fork();
        let same = (0..100)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(same, 0);
    }
}
