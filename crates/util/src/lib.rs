//! Shared substrate for the `cluster-server-eval` workspace.
//!
//! This crate deliberately has no knowledge of queueing theory, traces, or
//! request distribution. It provides the low-level pieces every other crate
//! needs:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point simulation time in integer
//!   nanoseconds, so event ordering is exact and platform independent.
//! * [`rng::DetRng`] — a deterministic, seedable xoshiro256++ generator plus
//!   the handful of distributions the simulator and trace generators need.
//! * [`invariant!`](crate::invariant!) — simulation-correctness checks that
//!   are `debug_assert!`s normally and always-on checks under the
//!   `strict-invariants` feature.
//! * [`stats`] — an online mean and exact (streaming) quantiles.
//! * [`csv`] — a minimal CSV writer used by the experiment harness.
//! * [`ascii`] — terminal line charts and heat maps so every figure can
//!   render the paper's plots without a plotting dependency.
//! * [`pool`] — a std-only scoped thread pool whose results come back in
//!   submission order, so parallel sweeps stay bit-for-bit deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ascii;
pub mod cast;
pub mod csv;
pub mod invariant;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use rng::DetRng;
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
