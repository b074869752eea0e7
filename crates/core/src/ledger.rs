//! The connection ledger under the switch-style dispatchers.
//!
//! The traditional server, round-robin, pure locality, JSQ(d), JIQ and
//! SITA differ only in where the distribution decision runs and which
//! rule makes it. Everything beneath the rule is one [`Ledger`]: open
//! connections per node, liveness, the least-loaded [`LoadIndex`], the
//! round-robin DNS cursor over live nodes and the Fibonacci-hashed live
//! ring. A dispatcher implements [`Dispatch`] — its arrival and
//! assignment rules — and the blanket [`Distributor`] impl below writes
//! every other hook once.

use crate::{Assignment, Distributor, LoadIndex, NodeId, PolicyKind};
use l2s_cluster::FileId;
use l2s_util::{cast, invariant, SimTime};

/// Open connections per node plus the lookups every dispatcher makes
/// over the live nodes.
///
/// Liveness is [`LoadIndex`] presence: a node is live exactly while the
/// index holds it, keyed by its open connections. A crashed node keeps
/// its count, because the engine settles each of its in-flight requests
/// after the crash, and rejoins the index at that count.
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    open: Vec<u32>,
    live: LoadIndex,
    /// Round-robin DNS cursor: the first node the next rotation tries.
    cursor: usize,
}

impl Ledger {
    /// An `n`-node ledger with every node live and idle.
    pub(crate) fn new(n: usize) -> Self {
        invariant!(n >= 1, "need at least one node");
        let mut live = LoadIndex::new(n);
        for node in 0..n {
            live.insert(node, 0);
        }
        Ledger {
            open: vec![0; n],
            live,
            cursor: 0,
        }
    }

    /// Cluster size, live or not.
    pub(crate) fn nodes(&self) -> usize {
        self.open.len()
    }

    /// Ground-truth open connections at `node`.
    pub(crate) fn open_connections(&self, node: NodeId) -> u32 {
        self.open[node]
    }

    /// The live nodes, keyed by open connections.
    pub(crate) fn live(&self) -> &LoadIndex {
        &self.live
    }

    /// Counts one more connection (or one more request on a held
    /// connection) at `node`.
    pub(crate) fn open(&mut self, node: NodeId) {
        self.open[node] += 1;
        self.live.set_if_present(node, self.open[node]);
    }

    /// Settles one connection at `node`.
    pub(crate) fn close(&mut self, node: NodeId) {
        release(&mut self.open, node);
        self.live.set_if_present(node, self.open[node]);
    }

    /// `node` crashed: it leaves every choice until [`Ledger::up`].
    pub(crate) fn down(&mut self, node: NodeId) {
        self.live.remove(node);
    }

    /// `node` recovered, still holding the strays that are settling.
    pub(crate) fn up(&mut self, node: NodeId) {
        self.live.insert(node, self.open[node]);
    }

    /// Round-robin DNS over the live nodes; `None` when every node is
    /// down.
    pub(crate) fn rotate(&mut self) -> Option<NodeId> {
        let live = &self.live;
        next_live(&mut self.cursor, self.open.len(), |node| {
            live.contains(node)
        })
    }

    /// The live node at position `key` modulo the live count, in
    /// ascending id order. With every node live this is `key mod n`, so
    /// a static partition re-spreads over the survivors while nodes are
    /// down and moves back when they recover. The caller makes sure some
    /// node is live: rejected arrivals never reach an assignment.
    pub(crate) fn ring(&self, key: u64) -> NodeId {
        let len = cast::len_u64(self.live.len());
        self.live.nth_present(cast::index_usize(key % len))
    }

    /// `file`'s node on the live ring. Fibonacci hashing spreads
    /// sequential ids well.
    pub(crate) fn hashed(&self, file: FileId) -> NodeId {
        self.ring(u64::from(file.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Settles one connection in a per-node count: the load-conservation
/// check every dispatcher's completion and abort paths share.
pub(crate) fn release(open: &mut [u32], node: NodeId) {
    invariant!(
        open[node] > 0,
        "load conservation violated: node {node} settled a connection it does not hold"
    );
    open[node] -= 1;
}

/// One round-robin DNS step over `n` nodes: the first node at or after
/// `cursor` (wrapping) for which `live` holds, with the cursor moved
/// past it. A dead address is skipped, as the client's retry lands on
/// the next name in the rotation. With every node dead the connection
/// is rejected and the cursor stays put.
pub(crate) fn next_live(
    cursor: &mut usize,
    n: usize,
    live: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    for step in 0..n {
        let node = (*cursor + step) % n;
        if live(node) {
            *cursor = (node + 1) % n;
            return Some(node);
        }
    }
    None
}

/// The decision rules of a dispatcher built on a [`Ledger`]. The blanket
/// [`Distributor`] impl below supplies every other hook.
pub(crate) trait Dispatch {
    /// The policy's kind.
    const KIND: PolicyKind;

    /// Whether the dispatcher is a switch. A switch delivers each
    /// connection straight to the node that serves it and counts the
    /// connection from arrival, so it also counts continuations and
    /// releases a connection lost before its decision. Otherwise the
    /// accepting node parses the request and hands it to
    /// [`Dispatch::service`], which is where the count starts.
    const SWITCH: bool;

    fn ledger(&self) -> &Ledger;

    fn ledger_mut(&mut self) -> &mut Ledger;

    /// Where the next connection lands, or `None` to reject it.
    fn arrival(&mut self) -> Option<NodeId>;

    /// The node that serves `file` for a connection accepted at
    /// `initial`: the accepting node itself unless the dispatcher says
    /// otherwise.
    fn service(&self, initial: NodeId, file: FileId) -> NodeId {
        let _ = file;
        initial
    }

    /// See [`Distributor::hint_file_sizes`].
    fn hint_sizes(&mut self, sizes: &[f64]) {
        let _ = sizes;
    }
}

impl<D: Dispatch> Distributor for D {
    fn kind(&self) -> PolicyKind {
        D::KIND
    }

    fn arrival_node(&mut self) -> Option<NodeId> {
        let node = self.arrival()?;
        if D::SWITCH {
            self.ledger_mut().open(node);
        }
        Some(node)
    }

    fn hint_file_sizes(&mut self, sizes: &[f64]) {
        self.hint_sizes(sizes);
    }

    fn arrival_continuation(&mut self, holder: NodeId) {
        if D::SWITCH {
            self.ledger_mut().open(holder);
        }
    }

    fn assign(&mut self, _now: SimTime, initial: NodeId, file: FileId) -> Assignment {
        let service = self.service(initial, file);
        if !D::SWITCH {
            self.ledger_mut().open(service);
        }
        Assignment {
            service,
            forwarded: service != initial,
            control_msgs: 0,
        }
    }

    fn complete(&mut self, _now: SimTime, node: NodeId, _file: FileId) -> u32 {
        self.ledger_mut().close(node);
        0
    }

    fn open_connections(&self, node: NodeId) -> u32 {
        self.ledger().open_connections(node)
    }

    fn serving_nodes(&self) -> Vec<NodeId> {
        (0..self.ledger().nodes()).collect()
    }

    fn node_down(&mut self, _now: SimTime, node: NodeId) {
        self.ledger_mut().down(node);
    }

    fn node_up(&mut self, _now: SimTime, node: NodeId) {
        self.ledger_mut().up(node);
    }

    fn abort_undecided(&mut self, _now: SimTime, initial: NodeId) {
        if D::SWITCH {
            self.ledger_mut().close(initial);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashed_node_keeps_its_count_and_rejoins_at_it() {
        let mut ledger = Ledger::new(2);
        ledger.open(0);
        ledger.open(0);
        ledger.down(0);
        ledger.close(0);
        assert_eq!(ledger.open_connections(0), 1);
        assert_eq!(ledger.live().argmin(), Some(1));
        ledger.up(0);
        assert_eq!(ledger.live().load_of(0), Some(1));
    }
}
