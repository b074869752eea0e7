//! Cache-line arena for in-flight request state.
//!
//! The old engine kept one 80-byte `Req` struct per request in an
//! unaligned slab, so most records straddled two cache lines. The state
//! is now split into three views keyed by the same `ReqId` — [`Route`]
//! (16 bytes: file, initial/service node, epoch — read by
//! `event_target` and the liveness gate on *every* event), [`Timing`]
//! (lifecycle stamps, touched at decision and completion), and [`Flow`]
//! (reply chunking and connection bookkeeping) — packed together into
//! one 64-byte-aligned record per request.
//!
//! Why one aligned record rather than three parallel lanes: with a few
//! thousand requests in flight the arena no longer stays resident in
//! L2 (at 1024 nodes the per-node cache directories and slot pools
//! still total megabytes, and a request's events are separated by
//! thousands of other events), so *every* arena access is a
//! last-level-cache round trip. Lanes would
//! turn an event that reads route and writes a stamp into two such
//! trips; the packed record makes any combination of views exactly
//! one. The alignment guarantees the record never straddles lines.
//!
//! Slots are recycled through a free list exactly like the old slab, so
//! the arena's footprint is the admission window, not the request
//! count.

use l2s::NodeId;
use l2s_trace::FileId;
use l2s_util::{cast, SimDuration, SimTime};

/// Index into the request arena.
pub(crate) type ReqId = u32;

/// Routing lane: where a request is and which node's fate it shares.
/// Nodes are stored narrow (`u32`) to keep the lane at 16 bytes; the
/// accessors widen back to [`NodeId`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Route {
    /// The requested file.
    pub file: FileId,
    initial: u32,
    service: u32,
    /// Epoch of the node the *pending* event targets, captured when the
    /// event was scheduled. A crash bumps the node's epoch, so a stale
    /// event (scheduled before the crash) no longer matches and the
    /// request is aborted when it fires.
    pub epoch: u32,
}

impl Route {
    /// A fresh route: both nodes start at the arrival node.
    pub fn new(file: FileId, node: NodeId, epoch: u32) -> Self {
        let n = cast::index_u32(node);
        Route {
            file,
            initial: n,
            service: n,
            epoch,
        }
    }

    /// The node the request arrived at.
    #[inline]
    pub fn initial(&self) -> NodeId {
        cast::wide_usize(self.initial)
    }

    /// The node serving the request (equals `initial` until a hand-off).
    #[inline]
    pub fn service(&self) -> NodeId {
        cast::wide_usize(self.service)
    }

    #[inline]
    pub fn set_initial(&mut self, node: NodeId) {
        self.initial = cast::index_u32(node);
    }

    #[inline]
    pub fn set_service(&mut self, node: NodeId) {
        self.service = cast::index_u32(node);
    }
}

/// Timing lane: the three lifecycle stamps the report's segment means
/// are computed from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Timing {
    pub injected: SimTime,
    pub decided: SimTime,
    pub served: SimTime,
}

impl Timing {
    /// All three stamps at `now` (a request that has not progressed).
    pub fn at(now: SimTime) -> Self {
        Timing {
            injected: now,
            decided: now,
            served: now,
        }
    }
}

/// Flow lane: reply chunking, persistent-connection, and fault-retry
/// bookkeeping.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Flow {
    /// Reply CPU work not yet charged (chunked into scheduling quanta).
    pub reply_remaining: SimDuration,
    /// Further requests this client connection will issue after the
    /// current one (persistent-connection mode).
    pub conn_remaining: u32,
    /// Crash-abort retries this request has left.
    pub retries_left: u32,
    /// Whether the decision handed the request to another node.
    pub forwarded: bool,
    /// Whether this request continues an existing persistent connection.
    pub continuation: bool,
    /// Whether the policy's `assign` has been called and not yet
    /// settled by `complete` — decides which abort hook releases the
    /// policy's load accounting.
    pub assigned: bool,
}

impl Flow {
    /// Flow state for a fresh injection.
    pub fn fresh(conn_remaining: u32, continuation: bool, retries_left: u32) -> Self {
        Flow {
            reply_remaining: SimDuration::ZERO,
            conn_remaining,
            retries_left,
            forwarded: false,
            continuation,
            assigned: false,
        }
    }
}

/// One request's full record, padded and aligned so it occupies exactly
/// one cache line (16 + 24 + 16 = 56 payload bytes, aligned up to 64).
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Rec {
    route: Route,
    timing: Timing,
    flow: Flow,
}

/// The request arena: one cache-line record per in-flight request plus
/// a free list of recyclable slots.
pub(crate) struct ReqArena {
    records: Vec<Rec>,
    free: Vec<ReqId>,
}

impl ReqArena {
    /// An empty arena with room for `n` concurrent requests before the
    /// record slab reallocates.
    pub fn with_capacity(n: usize) -> Self {
        ReqArena {
            records: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Claims a slot (recycling a released one when available) and
    /// installs the request's record.
    pub fn alloc(&mut self, route: Route, timing: Timing, flow: Flow) -> ReqId {
        let rec = Rec {
            route,
            timing,
            flow,
        };
        match self.free.pop() {
            Some(id) => {
                self.records[cast::wide_usize(id)] = rec;
                id
            }
            None => {
                self.records.push(rec);
                cast::index_u32(self.records.len() - 1)
            }
        }
    }

    /// Returns a slot to the free list.
    pub fn release(&mut self, id: ReqId) {
        self.free.push(id);
    }

    #[inline]
    pub fn route(&self, id: ReqId) -> &Route {
        &self.records[cast::wide_usize(id)].route
    }

    #[inline]
    pub fn route_mut(&mut self, id: ReqId) -> &mut Route {
        &mut self.records[cast::wide_usize(id)].route
    }

    #[inline]
    pub fn timing(&self, id: ReqId) -> &Timing {
        &self.records[cast::wide_usize(id)].timing
    }

    #[inline]
    pub fn timing_mut(&mut self, id: ReqId) -> &mut Timing {
        &mut self.records[cast::wide_usize(id)].timing
    }

    #[inline]
    pub fn flow(&self, id: ReqId) -> &Flow {
        &self.records[cast::wide_usize(id)].flow
    }

    #[inline]
    pub fn flow_mut(&mut self, id: ReqId) -> &mut Flow {
        &mut self.records[cast::wide_usize(id)].flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Route>(), 16);
        assert_eq!(std::mem::size_of::<Rec>(), 64);
        assert_eq!(std::mem::align_of::<Rec>(), 64);
    }

    #[test]
    fn alloc_recycles_released_slots() {
        let mut arena = ReqArena::with_capacity(4);
        let mk = |f: u32| {
            (
                Route::new(FileId::from(f), 1, 0),
                Timing::at(SimTime::ZERO),
                Flow::fresh(0, false, 1),
            )
        };
        let (r, t, f) = mk(5);
        let a = arena.alloc(r, t, f);
        let (r, t, f) = mk(6);
        let b = arena.alloc(r, t, f);
        assert_ne!(a, b);
        arena.release(a);
        let (r, t, f) = mk(7);
        let c = arena.alloc(r, t, f);
        assert_eq!(c, a, "released slot is recycled");
        assert_eq!(arena.route(c).file, FileId::from(7));
        assert_eq!(arena.route(b).file, FileId::from(6));
        arena.route_mut(b).set_service(3);
        assert_eq!(arena.route(b).service(), 3);
        assert_eq!(arena.route(b).initial(), 1);
    }
}
