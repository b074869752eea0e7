//! Checked runtime invariants for the simulation kernel.
//!
//! The simulator's correctness arguments (event-queue monotonicity, cache
//! byte-accounting conservation, per-node load conservation, clean drains)
//! were previously encoded as ad-hoc `debug_assert!`s, which vanish in the
//! `--release` builds that produce every figure. The
//! [`invariant!`](crate::invariant!) macro gives those checks two modes:
//!
//! - **default**: compiled as `debug_assert!` — zero release-mode cost;
//! - **`strict-invariants` feature**: compiled as an unconditional check in
//!   *every* profile, so release experiment runs abort loudly the moment an
//!   accounting rule is violated instead of silently producing corrupt
//!   figures.
//!
//! Because `cfg!(feature = ...)` resolves against the crate *expanding* the
//! macro, each crate that uses `invariant!` declares its own
//! `strict-invariants` feature (normally forwarding to its dependencies);
//! the workspace root feature turns them all on at once.

/// Asserts a simulation invariant.
///
/// Usage matches `assert!`: a condition plus an optional format message.
/// Under `--features strict-invariants` the check is performed in all build
/// profiles; otherwise it is a `debug_assert!`.
///
/// ```
/// use l2s_util::invariant;
/// let (completed, issued) = (3_u64, 3_u64);
/// invariant!(completed <= issued, "completed {completed} of {issued}");
/// ```
#[macro_export]
macro_rules! invariant {
    ($cond:expr $(,)?) => {
        $crate::invariant!($cond, "invariant violated: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if cfg!(feature = "strict-invariants") {
            if !$cond {
                $crate::invariant::invariant_failed(::core::format_args!($($fmt)+));
            }
        } else {
            debug_assert!($cond, $($fmt)+);
        }
    };
}

/// Aborts the simulation with a diagnostic; the out-of-line cold path of
/// [`invariant!`](crate::invariant!), kept separate so the check itself
/// inlines to a compare and a jump.
#[cold]
#[inline(never)]
#[track_caller]
pub fn invariant_failed(message: std::fmt::Arguments<'_>) -> ! {
    // lint-allow panic: this is the single sanctioned abort point for
    // failed simulation invariants.
    panic!("{message}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn passing_invariant_is_silent() {
        invariant!(1 + 1 == 2);
        invariant!(true, "never printed {}", 42);
    }

    #[test]
    #[should_panic(expected = "three is not four")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn failing_invariant_panics_with_message() {
        invariant!(3 == 4, "three is not four");
    }

    #[test]
    #[should_panic(expected = "invariant violated: false")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn bare_invariant_reports_the_condition() {
        invariant!(false);
    }
}
