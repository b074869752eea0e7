//! Summary statistics for simulation measurements.

use crate::cast;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Numerically stable online mean/variance accumulator (Welford's method),
/// also tracking min and max.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / cast::exact_f64(self.count);
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = cast::exact_f64(self.count);
        let n2 = cast::exact_f64(other.count);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / cast::exact_f64(self.count)
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * cast::exact_f64(self.count)
    }

    /// Freezes into an immutable [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// An immutable snapshot of summary statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `sorted` using linear
/// interpolation. `sorted` must be ascending; returns `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    interpolate(sorted.len(), q, |i| sorted.get(i).copied())
}

/// Where the interpolated `q`-quantile of `n` ascending samples sits:
/// the position `q·(n−1)`, with `q` clamped to `[0, 1]`.
fn position(n: usize, q: f64) -> f64 {
    q.clamp(0.0, 1.0) * cast::len_f64(n.saturating_sub(1))
}

/// The `q`-quantile of `n` samples, interpolated linearly between the
/// two samples around [`position`]; `nth(i)` is the `i`-th smallest.
/// `None` when `n` is 0. [`quantile`] and [`RunningQuantile`] both read
/// through here, so they agree bit for bit.
fn interpolate(n: usize, q: f64, nth: impl Fn(usize) -> Option<f64>) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let pos = position(n, q);
    let lo = cast::floor_index(pos.floor());
    let hi = cast::floor_index(pos.ceil());
    let frac = pos - cast::len_f64(lo);
    let (below, above) = (nth(lo)?, nth(hi)?);
    Some(below + (above - below) * frac)
}

/// `x`'s bits remapped so that unsigned integer order is
/// [`f64::total_cmp`] order: negatives have every bit flipped, the rest
/// get the sign bit set. The map is a bijection, so no bit of a sample
/// is lost.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_order_key`].
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The exact running `q`-quantile of a sample stream: after `n` pushes,
/// [`RunningQuantile::value`] is [`quantile`] of every sample so far,
/// sorted by [`f64::total_cmp`] — bit for bit, at O(log n) per push and
/// O(1) per read.
///
/// Samples are kept as integer keys in `total_cmp` order: a max-heap
/// holds the `floor(q·(n−1)) + 1` smallest and a min-heap the rest, and
/// each push rebalances to the new split. The two samples the quantile
/// interpolates between are then the max-heap's top and, when the
/// position is not whole, the min-heap's.
#[derive(Clone, Debug)]
pub struct RunningQuantile {
    q: f64,
    low: BinaryHeap<u64>,
    high: BinaryHeap<Reverse<u64>>,
}

impl RunningQuantile {
    /// An empty accumulator for the `q`-quantile (`0 ≤ q ≤ 1`).
    pub fn new(q: f64) -> Self {
        RunningQuantile {
            q,
            low: BinaryHeap::new(),
            high: BinaryHeap::new(),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        let x = total_order_key(x);
        if self.low.peek().is_some_and(|&top| x > top) {
            self.high.push(Reverse(x));
        } else {
            self.low.push(x);
        }
        let low_len = cast::floor_index(position(self.len(), self.q).floor()) + 1;
        while self.low.len() > low_len {
            if let Some(top) = self.low.pop() {
                self.high.push(Reverse(top));
            }
        }
        while self.low.len() < low_len {
            if let Some(Reverse(bottom)) = self.high.pop() {
                self.low.push(bottom);
            }
        }
    }

    /// Number of samples pushed.
    pub fn len(&self) -> usize {
        self.low.len() + self.high.len()
    }

    /// True when no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `q`-quantile of the samples so far, as [`quantile`] computes
    /// it; `None` when empty.
    pub fn value(&self) -> Option<f64> {
        interpolate(self.len(), self.q, |i| {
            let key = if i < self.low.len() {
                self.low.peek()
            } else {
                self.high.peek().map(|Reverse(key)| key)
            };
            key.copied().map(from_total_order_key)
        })
    }
}

/// A fixed-width histogram over `[lo, hi)` with out-of-range counters.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    non_finite: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width bins over `[lo, hi)`.
    /// Errors if `buckets == 0` or the bounds are not an ascending finite
    /// pair — library code must not abort on bad caller input.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Result<Self, String> {
        if buckets == 0 {
            return Err("histogram needs at least one bucket".into());
        }
        if !(lo.is_finite() && hi.is_finite() && hi > lo) {
            return Err(format!("invalid histogram bounds [{lo}, {hi})"));
        }
        Ok(Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            non_finite: 0,
        })
    }

    /// Records one observation. Non-finite observations are rejected by
    /// `invariant!` (they indicate an upstream arithmetic bug) and, in
    /// plain release builds where the invariant is compiled out, counted
    /// in [`Histogram::non_finite`] instead of being filed into bucket 0:
    /// `NaN` fails both the `< lo` and `>= hi` comparisons and
    /// `(NaN / width) as usize == 0`, so it used to corrupt the lowest
    /// bucket silently.
    pub fn record(&mut self, x: f64) {
        crate::invariant!(
            x.is_finite(),
            "non-finite histogram observation ({x}) — an upstream computation produced NaN or infinity"
        );
        if !x.is_finite() {
            self.non_finite += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / cast::len_f64(self.buckets.len());
            let idx = cast::floor_index((x - self.lo) / width);
            // Guard against floating point landing exactly on `hi`.
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the histogram has recorded no observations at all
    /// (in-range, underflow, or overflow). Buckets are allocated at
    /// construction, so this is about *observations*, not capacity —
    /// the bucket count is always at least 1.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Total recorded observations, including out-of-range and rejected
    /// non-finite ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow + self.non_finite
    }

    /// Non-finite observations rejected by [`Histogram::record`]. Always 0
    /// in builds where `invariant!` aborts instead.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Observations below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Inclusive-exclusive bounds of bucket `i`.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / cast::len_f64(self.buckets.len());
        (
            self.lo + cast::len_f64(i) * width,
            self.lo + cast::len_f64(i + 1) * width,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let summary = s.summary();
        assert_eq!(summary.count, 0);
        assert_eq!(summary.min, 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn running_quantile_interpolates_like_quantile() {
        let mut p99 = RunningQuantile::new(0.99);
        assert!(p99.is_empty());
        assert_eq!(p99.value(), None);
        p99.push(0.5);
        assert_eq!(p99.value(), Some(0.5));
        let mut p99 = RunningQuantile::new(0.99);
        for x in (1..=100).rev() {
            p99.push(f64::from(x));
        }
        assert_eq!(p99.len(), 100);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99.value(), quantile(&sorted, 0.99));
        assert!((p99.value().unwrap() - 99.01).abs() < 1e-9);
        // At n = 101 the position 0.99·100 = 99 is whole: the 100th
        // smallest sample exactly.
        p99.push(100.5);
        assert_eq!(p99.value(), Some(100.0));
        let mut median = RunningQuantile::new(0.5);
        for x in [4.0, 1.0, 3.0, 2.0] {
            median.push(x);
        }
        assert_eq!(median.value(), Some(2.5));
    }

    #[test]
    fn quantile_clamps_q() {
        let v = [1.0, 2.0];
        assert_eq!(quantile(&v, -1.0), Some(1.0));
        assert_eq!(quantile(&v, 2.0), Some(2.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert!(h.is_empty(), "no observations recorded yet");
        for x in [0.0, 1.9, 2.0, 9.99, 10.0, -0.1, 55.0] {
            h.record(x);
        }
        assert!(!h.is_empty(), "observations were recorded");
        assert_eq!(h.bucket(0), 2); // 0.0, 1.9
        assert_eq!(h.bucket(1), 1); // 2.0
        assert_eq!(h.bucket(4), 1); // 9.99
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2); // 10.0 and 55.0
        assert_eq!(h.total(), 7);
        assert_eq!(h.bucket_bounds(1), (2.0, 4.0));
    }

    #[test]
    fn histogram_rejects_bad_bounds() {
        assert!(Histogram::new(0.0, 10.0, 0).is_err());
        assert!(Histogram::new(10.0, 10.0, 4).is_err());
        assert!(Histogram::new(10.0, 1.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "non-finite histogram observation")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn histogram_rejects_nan_observations() {
        // Regression: NaN fails both range comparisons and
        // `(NaN / width) as usize == 0`, so it was silently filed into
        // bucket 0, corrupting the distribution.
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.record(f64::NAN);
    }

    #[test]
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    fn histogram_counts_non_finite_separately_in_release() {
        // In plain release builds the invariant is compiled out; the
        // observation must land in the dedicated counter, not bucket 0.
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(1.0);
        assert_eq!(h.non_finite(), 3);
        assert_eq!(h.bucket(0), 1, "only the finite 1.0 lands in bucket 0");
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_is_empty_tracks_out_of_range_observations() {
        // Regression: is_empty() used to check the bucket *capacity*
        // (allocated in new, so never empty) instead of observations.
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        assert!(h.is_empty());
        h.record(55.0); // overflow only — still an observation
        assert!(!h.is_empty());
        assert_eq!(h.len(), 2);
    }
}
