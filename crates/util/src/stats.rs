//! Summary statistics for simulation measurements.

use crate::cast;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Online mean accumulator (Welford's update, numerically stable).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
}

impl OnlineStats {
    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / cast::exact_f64(self.count);
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean() {
        let mut s = OnlineStats::default();
        assert_eq!(s.mean(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
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
}
