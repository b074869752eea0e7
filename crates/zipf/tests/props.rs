//! Property-based tests for the Zipf substrate.

use l2s_util::DetRng;
use l2s_zipf::{harmonic, ZipfLaw, ZipfSampler};
use proptest::prelude::*;

proptest! {
    /// Samples always fall in `1..=files`.
    #[test]
    fn sampler_in_range(files in 1usize..5_000, alpha in 0.0f64..1.5, seed in any::<u64>()) {
        let sampler = ZipfSampler::new(files, alpha);
        let mut rng = DetRng::new(seed);
        for _ in 0..200 {
            let r = sampler.sample(&mut rng);
            prop_assert!(r >= 1 && r as usize <= files);
        }
    }

    /// Sampler per-rank probabilities match the law's.
    #[test]
    fn sampler_matches_law(files in 2usize..500, alpha in 0.0f64..1.5) {
        let sampler = ZipfSampler::new(files, alpha);
        let law = ZipfLaw::new(files as f64, alpha);
        for rank in [1u64, (files / 2).max(1) as u64, files as u64] {
            let a = sampler.probability(rank);
            let b = law.rank_probability(rank);
            prop_assert!((a - b).abs() < 1e-9, "rank {}: {} vs {}", rank, a, b);
        }
    }

    /// Rank probabilities are non-increasing in rank.
    #[test]
    fn probabilities_decrease_with_rank(files in 2usize..1_000, alpha in 0.01f64..1.5) {
        let law = ZipfLaw::new(files as f64, alpha);
        let mut prev = f64::INFINITY;
        for rank in 1..=files.min(50) as u64 {
            let p = law.rank_probability(rank);
            prop_assert!(p <= prev + 1e-15);
            prev = p;
        }
    }

    /// The harmonic extension agrees with the exact sum at integers.
    #[test]
    fn harmonic_matches_exact(n in 1usize..20_000, alpha in 0.0f64..1.5) {
        let exact: f64 = (1..=n).map(|i| (i as f64).powf(-alpha)).sum();
        let approx = harmonic(n as f64, alpha);
        prop_assert!(
            (approx / exact - 1.0).abs() < 1e-9,
            "n={n} alpha={alpha}: {approx} vs {exact}"
        );
    }
}
