//! Input-generation strategies: the [`Strategy`] trait and the concrete
//! generators used by the workspace's property suites.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;

use crate::runner::Rng;

/// A value generator. The shim keeps only the generation half of upstream
/// proptest's `Strategy` (there is no shrinking tree).
pub trait Strategy {
    /// The type of generated values; `Debug` so failures can print the
    /// offending inputs.
    type Value: Debug;

    /// Draws one value from the strategy.
    fn sample(&self, rng: &mut Rng) -> Self::Value;

    /// Maps generated values through `f`, mirroring
    /// `proptest::strategy::Strategy::prop_map`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut Rng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample(&self, rng: &mut Rng) -> $t {
                debug_assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = rng.below(span);
                (self.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut Rng) -> f64 {
        debug_assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

/// Types with a canonical "any value" strategy, mirroring
/// `proptest::arbitrary::Arbitrary` for the primitives the workspace uses.
pub trait Arbitrary: Debug + Sized {
    /// Draws an unconstrained value of the type.
    fn arbitrary(rng: &mut Rng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.bool()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut Rng) -> f64 {
        // Finite values spanning many magnitudes; property tests that need
        // NaN/inf construct them explicitly.
        let magnitude = (rng.unit_f64() * 600.0) - 300.0;
        let sign = if rng.bool() { 1.0 } else { -1.0 };
        sign * magnitude.exp2() * rng.unit_f64()
    }
}

/// The strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
}

/// An unconstrained value of `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Uniformly random booleans (`prop::bool::ANY`).
#[derive(Clone, Copy, Debug)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn sample(&self, rng: &mut Rng) -> bool {
        rng.bool()
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut Rng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// The strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start).max(1) as u64;
        let n = self.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

/// A vector whose elements come from `element` and whose length is drawn
/// from `len`, mirroring `proptest::collection::vec`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

impl Strategy for &str {
    type Value = String;

    /// Interprets the pattern as a character-class regex the way the
    /// workspace uses it: `\PC{m,n}` (printable characters, length in
    /// `[m, n]`). Unrecognized patterns fall back to ASCII alphanumerics of
    /// length 0..=32.
    fn sample(&self, rng: &mut Rng) -> String {
        let (lo, hi) = parse_len_range(self).unwrap_or((0, 32));
        let n = lo + rng.below((hi - lo + 1) as u64) as usize;
        let printable = self.starts_with("\\PC");
        (0..n)
            .map(|_| {
                if printable {
                    sample_printable_char(rng)
                } else {
                    sample_alnum_char(rng)
                }
            })
            .collect()
    }
}

fn parse_len_range(pattern: &str) -> Option<(usize, usize)> {
    let open = pattern.rfind('{')?;
    let close = pattern.rfind('}')?;
    let body = pattern.get(open + 1..close)?;
    let (lo, hi) = body.split_once(',')?;
    let lo: usize = lo.trim().parse().ok()?;
    let hi: usize = hi.trim().parse().ok()?;
    (lo <= hi).then_some((lo, hi))
}

/// Non-control characters: mostly printable ASCII, with an occasional
/// multi-byte code point to exercise UTF-8 handling in parsers.
fn sample_printable_char(rng: &mut Rng) -> char {
    const EXOTIC: [char; 8] = ['é', 'λ', 'Ж', '中', '√', '€', 'ß', 'ñ'];
    if rng.below(8) == 0 {
        EXOTIC[rng.below(EXOTIC.len() as u64) as usize]
    } else {
        char::from(0x20 + rng.below(0x5F) as u8) // ' ' ..= '~'
    }
}

fn sample_alnum_char(rng: &mut Rng) -> char {
    const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    char::from(ALNUM[rng.below(ALNUM.len() as u64) as usize])
}
