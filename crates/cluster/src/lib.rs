//! Node hardware substrate for the cluster simulator.
//!
//! Each cluster node is a commodity workstation (Figure 1 of the paper):
//! CPU, main-memory file cache, disk, and a network interface. This crate
//! models those pieces:
//!
//! * [`FileCache`] — a byte-capacity cache of whole files, the unit of
//!   caching in all three simulated servers, run by LRU (the paper's
//!   policy) or GreedyDual-Size (an ablation) as [`CachePolicy`] picks;
//! * [`NodeCosts`] — every per-operation service time from Table 1 and
//!   Section 5.1 (parse, forward, memory reply, disk read, NI transfer,
//!   and the M-VIA message cost breakdown), with Table 1's rates as
//!   constants the analytic model reads too;
//! * [`NodeHardware`] — the four contended stations of one node (CPU,
//!   disk, inbound NI, outbound NI) plus its cache, with hit/miss
//!   accounting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod costs;
mod directory;
mod hetero;
mod node;

pub use cache::{CachePolicy, CacheStats, FileCache};
pub use costs::{
    NodeCosts, DISK_KB_PER_S, DISK_OVERHEAD_S, FORWARD_RATE, MEM_KB_PER_S, MEM_OVERHEAD_S,
    NI_OUT_OVERHEAD_S, NI_REQUEST_RATE, PARSE_RATE,
};
pub use hetero::{HeteroSpec, NodeClass, NodeProfile};
pub use node::{build_nodes, build_nodes_profiled, NodeHardware};

/// Identifies one file served by the cluster — the dense interned index
/// from `l2s-trace`, re-exported so traces plug in directly and per-file
/// state here can be flat-`Vec`-indexed.
pub use l2s_trace::FileId;
