//! The request arena: one cache-line record per in-flight request.
//!
//! Every lifecycle event reads its request's [`Req`] (the liveness
//! gate alone needs its nodes and epoch), and with a few thousand
//! requests in flight the arena does not stay in L2: a request's events
//! are thousands of events apart, so each access is a last-level-cache
//! round trip. A record is therefore packed into one 64-byte line
//! (nodes are stored narrow, as `u32`), and its alignment keeps it from
//! ever straddling two.
//!
//! Slots are recycled through a free list, so the arena's footprint is
//! the admission window, not the request count, and the number of
//! requests in flight is the slots minus the free list.

use l2s::NodeId;
use l2s_trace::FileId;
use l2s_util::{cast, invariant, SimDuration, SimTime};
use std::ops::{Index, IndexMut};

/// Index into the request arena.
pub(crate) type ReqId = u32;

/// One in-flight request: where it is, its lifecycle stamps, and its
/// reply, connection and retry bookkeeping.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
pub(crate) struct Req {
    /// The requested file.
    pub file: FileId,
    initial: u32,
    service: u32,
    /// Epoch of the node the *pending* event targets, captured when the
    /// event was scheduled. A crash bumps the node's epoch, so a stale
    /// event (scheduled before the crash) no longer matches and the
    /// request is aborted when it fires.
    pub epoch: u32,
    /// When the client issued the request; a retry keeps it, so the
    /// response time spans the whole client experience.
    pub injected: SimTime,
    /// When the policy decided where it is served.
    pub decided: SimTime,
    /// When the service node started serving it.
    pub served: SimTime,
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

impl Req {
    /// A request for `file` entering at `node` at `now`: both nodes are
    /// the arrival node and every stamp is `now`.
    pub fn new(
        file: FileId,
        node: NodeId,
        epoch: u32,
        now: SimTime,
        conn_remaining: u32,
        continuation: bool,
        retries_left: u32,
    ) -> Self {
        let n = cast::index_u32(node);
        Req {
            file,
            initial: n,
            service: n,
            epoch,
            injected: now,
            decided: now,
            served: now,
            reply_remaining: SimDuration::ZERO,
            conn_remaining,
            retries_left,
            forwarded: false,
            continuation,
            assigned: false,
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
    pub fn set_service(&mut self, node: NodeId) {
        self.service = cast::index_u32(node);
    }
}

/// The request arena: one [`Req`] per slot plus a free list of
/// recyclable slots.
pub(crate) struct ReqArena {
    records: Vec<Req>,
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
    pub fn alloc(&mut self, req: Req) -> ReqId {
        match self.free.pop() {
            Some(id) => {
                self[id] = req;
                id
            }
            None => {
                self.records.push(req);
                cast::index_u32(self.records.len() - 1)
            }
        }
    }

    /// Returns a slot to the free list.
    pub fn release(&mut self, id: ReqId) {
        invariant!(
            self.in_flight() > 0,
            "request accounting underflow: release with none in flight"
        );
        self.free.push(id);
    }

    /// Requests allocated and not yet released.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.records.len() - self.free.len()
    }
}

impl Index<ReqId> for ReqArena {
    type Output = Req;

    #[inline]
    fn index(&self, id: ReqId) -> &Req {
        &self.records[cast::wide_usize(id)]
    }
}

impl IndexMut<ReqId> for ReqArena {
    #[inline]
    fn index_mut(&mut self, id: ReqId) -> &mut Req {
        &mut self.records[cast::wide_usize(id)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(file: u32) -> Req {
        Req::new(FileId::from(file), 1, 0, SimTime::ZERO, 0, false, 1)
    }

    #[test]
    fn record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Req>(), 64);
        assert_eq!(std::mem::align_of::<Req>(), 64);
    }

    #[test]
    fn alloc_recycles_released_slots() {
        let mut arena = ReqArena::with_capacity(4);
        assert_eq!(arena.in_flight(), 0);
        let a = arena.alloc(req(5));
        let b = arena.alloc(req(6));
        assert_ne!(a, b);
        assert_eq!(arena.in_flight(), 2);
        arena.release(a);
        assert_eq!(arena.in_flight(), 1);
        let c = arena.alloc(req(7));
        assert_eq!(c, a, "released slot is recycled");
        assert_eq!(arena.in_flight(), 2);
        assert_eq!(arena[c].file, FileId::from(7));
        assert_eq!(arena[b].file, FileId::from(6));
        arena[b].set_service(3);
        assert_eq!(arena[b].service(), 3);
        assert_eq!(arena[b].initial(), 1);
    }

    #[test]
    #[should_panic(expected = "release with none in flight")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn release_with_nothing_in_flight_trips_the_invariant() {
        let mut arena = ReqArena::with_capacity(1);
        let a = arena.alloc(req(1));
        arena.release(a);
        arena.release(a);
    }
}
