//! The trace-driven cluster-server simulator (Section 5 of the paper).
//!
//! Wires the request-distribution policies (`l2s` crate) into the
//! discrete-event kernel (`l2s-devs`), node hardware (`l2s-cluster`),
//! and shared fabric (`l2s-net`), and replays a WWW trace through the
//! full request lifecycle:
//!
//! ```text
//! client -> router -> switch -> NI_in -> CPU parse -> policy decision
//!        [-> CPU forward -> NI_out -> switch -> NI_in -> CPU recv]
//!        -> cache hit? CPU reply : disk read then CPU reply
//!        -> NI_out -> switch -> router -> client
//! ```
//!
//! Following Section 5.1:
//! * trace timing is disregarded — new requests are injected "as soon as
//!   the router and network interface buffers would accept them"
//!   (closed-loop admission, bounded per-node connection windows);
//! * every form of contention is simulated (CPU, disk, both NI
//!   directions, router) except inside the switch fabric;
//! * cluster messages cost 3 µs CPU + 6 µs NI per side plus 1 µs of
//!   switch (19 µs one-way for a 4-byte message, the M-VIA figure);
//! * caches are warmed by simulating the whole trace once before
//!   measurement starts.
//!
//! The entry point is [`simulate`]; [`SimReport`] carries every metric
//! the paper's evaluation discusses (throughput, cache miss rate, CPU
//! idle time, forwarded fraction, control-message traffic).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod clock;
mod config;
mod engine;
mod faults;
mod report;
mod workload;

pub use clock::{Clock, VirtualClock, WallClock};
pub use config::{ArrivalMode, SimConfig};
pub use engine::{
    simulate, simulate_workload, simulate_workload_observed, PlacementObserver, PlacementRecord,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use report::{ratio, NodeReport, SimReport};
pub use workload::{ModulatedWorkload, SynthWorkload, TraceWorkload, Workload};
// Re-export the modulation spec types so callers can build a
// `SimConfig::workload_mod` without naming the workload crate.
pub use l2s_workload::{DriftSpec, FlashCrowd, Modulator, RateSchedule, Segment, WorkloadMod};

// Compile-time Send/Sync audit: the parallel sweep executor in
// `l2s-bench` shares configs across worker threads by reference and
// moves reports back from them, so these bounds are part of the crate's
// public contract. A field change that introduces `Rc`, `RefCell`, or a
// raw pointer fails here, at the definition site, instead of inside the
// executor's generic machinery.
#[allow(dead_code)]
fn engine_inputs_and_outputs_cross_threads() {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<SimConfig>();
    send_and_sync::<SimReport>();
    send_and_sync::<NodeReport>();
    send_and_sync::<ArrivalMode>();
    send_and_sync::<FaultPlan>();
    send_and_sync::<WorkloadMod>();
}
