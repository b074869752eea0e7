//! Fixed-point simulation time.
//!
//! All simulation timestamps are integer nanoseconds. Floating-point time
//! makes event ordering depend on accumulated rounding; integer ticks keep
//! the discrete-event kernel exactly reproducible. One nanosecond of
//! resolution is three orders of magnitude finer than the smallest latency
//! in the paper (the 1 µs switch traversal), so quantization error is
//! negligible for every modeled quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, as a float, for conversions.
const NANOS_PER_SEC: f64 = 1e9;

/// An absolute simulation timestamp (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable timestamp; used as an "infinitely far"
    /// sentinel for idle stations.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a timestamp from raw nanosecond ticks.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Builds a timestamp from (fractional) seconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero; non-finite
    /// inputs are rejected by `invariant!`.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Raw nanosecond ticks since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This timestamp as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// Elapsed time since `earlier`. A future `earlier` is a causality
    /// bug — elapsed time computed against an end point that hasn't
    /// happened yet — so it is rejected by `invariant!` (debug builds
    /// and `strict-invariants`); release builds keep the historical
    /// saturate-to-zero behavior rather than wrapping.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        crate::invariant!(
            self.0 >= earlier.0,
            "time went backwards: elapsed since {earlier} asked at {self}"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw nanosecond ticks.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Builds a duration from (fractional) seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero; non-finite inputs are
    /// rejected by `invariant!`.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Raw nanosecond ticks.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// True when the duration is zero ticks.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Converts fractional seconds to nanosecond ticks.
///
/// Non-finite input is rejected by `invariant!`: `NaN` fails both the
/// `<= 0` and `>= MAX` comparisons and `f64::round() as u64` maps it to
/// 0, so without the check an upstream divide-by-zero (e.g. a config
/// scale of 0) would silently become a zero-cost event instead of
/// aborting the run.
#[inline]
fn secs_to_nanos(secs: f64) -> u64 {
    crate::invariant!(
        secs.is_finite(),
        "non-finite duration ({secs}) — an upstream division produced NaN or infinity"
    );
    if secs <= 0.0 {
        return 0;
    }
    let nanos = secs * NANOS_PER_SEC;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is possible.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Exact whole nanoseconds, so two durations format alike only when they
/// are equal (a `Debug` rendering can then serve as a key).
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// Human scale: nanoseconds, or three decimals of µs or ms, or six of
/// seconds.
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_round_trip() {
        let t = SimTime::from_nanos(123_456_789);
        assert_eq!(t.as_nanos(), 123_456_789);
        assert!((t.as_secs_f64() - 0.123_456_789).abs() < 1e-12);
    }

    #[test]
    fn from_secs_rounds_to_nearest() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-finite duration")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn nan_seconds_are_rejected_not_zero() {
        // Regression: NaN fails both range comparisons and
        // `f64::round() as u64` maps it to 0, which silently turned an
        // upstream divide-by-zero into a zero-cost event.
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite duration")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn positive_infinity_is_rejected() {
        let _ = SimDuration::from_secs_f64(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-finite duration")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn negative_infinity_is_rejected() {
        let _ = SimTime::from_secs_f64(f64::NEG_INFINITY);
    }

    #[test]
    fn huge_seconds_saturate() {
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let t0 = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(50);
        let t1 = t0 + d;
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1 - t0, d);
        assert!(t1 > t0);
        assert_eq!(t1.saturating_since(t0), d);
        assert_eq!(t1.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn elapsed_time_against_the_future_is_rejected() {
        // Regression: this used to clamp silently to zero, which let
        // causality bugs (events processed before their cause) vanish
        // into zero-length measurement windows.
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(150);
        let _ = t0.saturating_since(t1);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(3);
        assert_eq!((d * 4).as_nanos(), 12_000);
        assert_eq!((d / 3).as_nanos(), 1_000);
        let total: SimDuration = [d, d, d].into_iter().sum();
        assert_eq!(total.as_nanos(), 9_000);
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_nanos(10);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn display_units_scale() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(14)), "14.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(2.0)), "2.000000s");
    }

    #[test]
    fn debug_is_exact() {
        let d = SimDuration::from_nanos(500_000_001);
        assert_eq!(format!("{d:?}"), "500000001ns");
        assert_ne!(
            format!("{d:?}"),
            format!("{:?}", SimDuration::from_millis(500))
        );
    }
}
