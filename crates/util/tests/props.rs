//! Property-based tests for the util substrate.

use l2s_util::stats::{quantile, RunningQuantile};
use l2s_util::{DetRng, SimDuration, SimTime};
use proptest::prelude::*;

/// The sort-based oracle for [`RunningQuantile`]: [`quantile`] over
/// every sample sorted by `total_cmp`.
fn quantile_by_sorting(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Samples that stress a total-order heap: signed zeros, subnormals,
/// infinities, NaNs of both signs, and a small pool of values that
/// repeat, mixed with arbitrary finite floats.
fn awkward_f64() -> impl Strategy<Value = f64> {
    (0u8..12, any::<f64>(), 0u32..4).prop_map(|(kind, x, pick)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE / f64::from(2u32 << pick),
        3 => -f64::MIN_POSITIVE / f64::from(2u32 << pick),
        4 => f64::INFINITY,
        5 => f64::NAN,
        6 => -f64::NAN,
        7 | 8 => [0.25, 1.0, 1.5, 1e-3][pick as usize],
        _ => x,
    })
}

proptest! {
    /// The streaming quantile equals sorting after every single push,
    /// bit for bit, over lengths that cross the whole positions at
    /// 1 + multiples of 100.
    #[test]
    fn running_p99_matches_sorting_after_every_push(
        samples in prop::collection::vec(awkward_f64(), 0..450),
    ) {
        let mut p99 = RunningQuantile::new(0.99);
        prop_assert_eq!(p99.value(), None);
        for (i, &x) in samples.iter().enumerate() {
            p99.push(x);
            let want = quantile_by_sorting(&samples[..=i], 0.99);
            prop_assert_eq!(
                p99.value().map(f64::to_bits),
                want.map(f64::to_bits),
                "after push {} of {}", i + 1, samples.len()
            );
        }
        prop_assert_eq!(p99.len(), samples.len());
    }

    /// Other quantiles, including the extremes, agree with sorting too.
    #[test]
    fn running_quantile_matches_sorting_for_any_q(
        samples in prop::collection::vec(awkward_f64(), 1..120),
        q in 0.0f64..1.0,
    ) {
        for q in [0.0, q, 0.5, 1.0] {
            let mut running = RunningQuantile::new(q);
            for (i, &x) in samples.iter().enumerate() {
                running.push(x);
                prop_assert_eq!(
                    running.value().map(f64::to_bits),
                    quantile_by_sorting(&samples[..=i], q).map(f64::to_bits),
                    "q = {}", q
                );
            }
        }
    }

    /// Time arithmetic round-trips through nanoseconds exactly.
    #[test]
    fn time_nanos_round_trip(ns in 0u64..u64::MAX / 2) {
        let t = SimTime::from_nanos(ns);
        prop_assert_eq!(t.as_nanos(), ns);
        let d = SimDuration::from_nanos(ns);
        prop_assert_eq!(d.as_nanos(), ns);
    }

    /// `t + d - t == d` whenever the sum does not saturate.
    #[test]
    fn time_add_sub_inverse(t in 0u64..1u64 << 40, d in 0u64..1u64 << 40) {
        let base = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((base + dur) - base, dur);
        prop_assert_eq!((base + dur).saturating_since(base), dur);
    }

    /// Seconds conversion stays within one nanosecond of the input for
    /// representable magnitudes.
    #[test]
    fn seconds_round_trip(us in 0u64..1u64 << 40) {
        let secs = us as f64 * 1e-6;
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() < 1e-6);
    }

    /// Quantiles of a sorted vector are bounded by its extremes and
    /// monotone in q.
    #[test]
    fn quantile_bounds_and_monotonicity(mut data in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        data.sort_by(f64::total_cmp);
        let lo = data[0];
        let hi = *data.last().unwrap();
        let mut prev = lo;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = quantile(&data, q).unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    /// Two-element quantiles interpolate linearly between the endpoints.
    #[test]
    fn quantile_two_elements_interpolates(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
        q in 0.0f64..1.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let v = quantile(&[lo, hi], q).unwrap();
        let expect = lo + (hi - lo) * q;
        prop_assert!((v - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
        prop_assert_eq!(quantile(&[lo, hi], 0.0), Some(lo));
        prop_assert_eq!(quantile(&[lo, hi], 1.0), Some(hi));
        prop_assert!((quantile(&[lo, hi], 0.5).unwrap() - (lo + hi) / 2.0).abs() <= 1e-9 * (1.0 + (lo + hi).abs()));
    }

    /// Every quantile of an all-equal vector is that value exactly.
    #[test]
    fn quantile_all_equal_is_constant(
        x in -1e6f64..1e6,
        n in 1usize..50,
        q in 0.0f64..1.0,
    ) {
        let v = vec![x; n];
        prop_assert_eq!(quantile(&v, q).unwrap().to_bits(), x.to_bits());
    }

    /// A q that lands exactly on a knot (`i / (n-1)`) returns that sorted
    /// element, with no interpolation leakage from the neighbors.
    #[test]
    fn quantile_on_knot_returns_the_element(
        mut data in prop::collection::vec(-1e6f64..1e6, 2..50),
    ) {
        data.sort_by(f64::total_cmp);
        let n = data.len();
        for i in 0..n {
            let q = i as f64 / (n - 1) as f64;
            let v = quantile(&data, q).unwrap();
            prop_assert!((v - data[i]).abs() <= 1e-9 * (1.0 + data[i].abs()));
        }
    }

    /// `below(bound)` stays in range for arbitrary seeds and bounds.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Forked streams never mirror their parent.
    #[test]
    fn rng_fork_differs(seed in any::<u64>()) {
        let mut parent = DetRng::new(seed);
        let mut child = parent.fork();
        let matches = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(matches < 4);
    }

    /// Shuffling preserves the multiset.
    #[test]
    fn shuffle_preserves_elements(seed in any::<u64>(), mut v in prop::collection::vec(0u32..1000, 0..100)) {
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        let mut rng = DetRng::new(seed);
        rng.shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }
}
