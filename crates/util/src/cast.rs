//! Checked numeric conversions for library code.
//!
//! The `l2s-lint` `lossy-cast` rule flags bare numeric `as` casts in
//! library crates because they truncate and wrap silently — `u64 → f64`
//! loses integer precision above 2⁵³, `usize → u32` wraps, `f64 → usize`
//! saturates. Callers that *know* their values are in range route the
//! conversion through these helpers instead: each one states its
//! precondition, checks it with [`invariant!`](crate::invariant!) (a
//! `debug_assert!` normally, an unconditional abort under
//! `strict-invariants`), and then performs the exact same `as` conversion
//! — so release figures are bit-identical to the cast they replace while
//! the precondition is enforced everywhere tests and strict runs go.
//!
//! This module is the single sanctioned home of those casts and is
//! allowlisted as such in `lint-allow.txt`.

use crate::invariant;

/// Largest integer a `f64` represents exactly (2⁵³).
pub const MAX_EXACT_F64: u64 = 1 << 53;

/// Converts a counter to `f64` exactly. Precondition: `n ≤ 2⁵³`.
///
/// ```
/// assert_eq!(l2s_util::cast::exact_f64(3), 3.0);
/// ```
#[inline]
pub fn exact_f64(n: u64) -> f64 {
    invariant!(
        n <= MAX_EXACT_F64,
        "count {n} exceeds 2^53 and would round in f64"
    );
    n as f64
}

/// Converts a length or index to `f64` exactly. Precondition: `n ≤ 2⁵³`
/// (every in-memory collection length qualifies).
#[inline]
pub fn len_f64(n: usize) -> f64 {
    exact_f64(n as u64)
}

/// Widens a length or index to `u64` (lossless on every supported
/// platform; checked rather than assumed).
#[inline]
pub fn len_u64(n: usize) -> u64 {
    invariant!(
        u64::try_from(n).is_ok(),
        "usize {n} does not fit in u64 on this platform"
    );
    n as u64
}

/// Widens a `u32` to `usize` (lossless on every supported platform;
/// checked rather than assumed).
#[inline]
pub fn wide_usize(n: u32) -> usize {
    invariant!(
        usize::try_from(n).is_ok(),
        "u32 {n} does not fit in usize on this platform"
    );
    n as usize
}

/// Narrows a dense index to `u32`. Precondition: `i ≤ u32::MAX` — interned
/// id spaces (files, nodes, slots) are all far smaller.
#[inline]
pub fn index_u32(i: usize) -> u32 {
    invariant!(
        u32::try_from(i).is_ok(),
        "index {i} overflows the dense u32 id space"
    );
    i as u32
}

/// Narrows a `u64` to an in-memory index. Precondition: `i` fits `usize`
/// (always true for values derived from collection sizes).
#[inline]
pub fn index_usize(i: u64) -> usize {
    invariant!(
        usize::try_from(i).is_ok(),
        "value {i} does not fit a usize index on this platform"
    );
    i as usize
}

/// Truncates a non-negative finite `f64` to a bucket/position index —
/// the checked spelling of `(x) as usize` in quantile and histogram
/// arithmetic. Precondition: `x` is finite and `x ≥ 0` (callers have
/// already range-checked the value).
#[inline]
pub fn floor_index(x: f64) -> usize {
    invariant!(
        x.is_finite() && x >= 0.0,
        "index computation produced {x}; caller must range-check first"
    );
    x as usize
}

/// Rounds a non-negative finite `f64` to the nearest `u64` — the checked
/// spelling of `x.round() as u64` where callers scale integer
/// quantities (nanosecond durations) through `f64` arithmetic.
/// Precondition: `x` is finite, `x ≥ 0`, and `x ≤ 2⁵³` (so the rounded
/// result is exact).
#[inline]
pub fn round_u64(x: f64) -> u64 {
    invariant!(
        x.is_finite() && x >= 0.0 && x <= MAX_EXACT_F64 as f64,
        "rounding produced {x}; caller must range-check first"
    );
    x.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_match_the_casts_they_replace() {
        assert_eq!(exact_f64(0), 0.0);
        assert_eq!(exact_f64(MAX_EXACT_F64), MAX_EXACT_F64 as f64);
        assert_eq!(len_f64(12345), 12345.0);
        assert_eq!(len_u64(7), 7);
        assert_eq!(wide_usize(u32::MAX), u32::MAX as usize);
        assert_eq!(index_u32(41), 41);
        assert_eq!(index_usize(99), 99);
        assert_eq!(floor_index(3.999), 3);
        assert_eq!(floor_index(0.0), 0);
        assert_eq!(round_u64(2.4), 2);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "caller must range-check")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn round_u64_rejects_negative_values() {
        round_u64(-1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^53")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn exact_f64_rejects_imprecise_counts() {
        exact_f64(MAX_EXACT_F64 + 1);
    }

    #[test]
    #[should_panic(expected = "overflows the dense u32 id space")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn index_u32_rejects_overflow() {
        index_u32(usize::MAX);
    }

    #[test]
    #[should_panic(expected = "caller must range-check")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn floor_index_rejects_nan() {
        floor_index(f64::NAN);
    }
}
