//! The paper's analytic open queuing-network model (Section 3).
//!
//! A cluster of `N` workstations is modeled as an open network of M/M/1
//! queues (Figure 2 of the paper): a border **router** shared by the whole
//! cluster, and per node a **network interface** (separate inbound and
//! outbound queues), a **CPU**, and a **disk**. Requests arrive at rate
//! `Nλ`, are parsed on a node's CPU, possibly forwarded to the node caching
//! the file, serviced from memory or disk, and returned through the NI and
//! router.
//!
//! Because the model assumes perfect load balancing and no cache
//! replacement, it yields an *upper bound* on the throughput of any real
//! locality-conscious server — the yardstick the paper measures L2S
//! against. Two solution methods are provided and cross-checked in tests:
//!
//! * [`QueueModel::max_throughput`] — closed-form bottleneck (saturation)
//!   analysis over per-request resource demands, and
//! * [`QueueModel::solve`] — the full M/M/1 solution at a given arrival
//!   rate, from which the same bound is recovered by bisection
//!   ([`QueueModel::saturation_throughput`]).
//!
//! The derived hit-rate quantities follow Table 1 exactly: `H_lo`, `H_lc`,
//! the replicated hit rate `h`, and the forwarded fraction
//! `Q = (N-1)(1-h)/N`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod mm1;
mod model;
mod nonstat;
mod params;
mod surface;

pub use mm1::Mm1;
pub use model::{Demands, Derived, QueueModel, Solution, StationLoad};
pub use nonstat::{lru_miss_rate, NonStatLruSpec};
pub use params::{ModelParams, ServerKind};
pub use surface::{
    default_axes, memory_sweep, throughput_increase_surface, throughput_surface, Surface,
};
