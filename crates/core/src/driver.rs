//! A runtime-agnostic façade over the policy zoo.
//!
//! [`Distributor`] speaks the simulator's dialect: `SimTime` stamps,
//! interned `FileId`s, a two-step arrival/assign protocol whose load
//! accounting differs per policy. [`PolicyDriver`] wraps any policy
//! behind a driver-neutral surface — feed it arrivals, completions, and
//! node up/down transitions with plain `u64` nanosecond timestamps and
//! `u32` file ids, get [`Placement`]s back — so the same decision logic
//! runs inside the DES, under a live CLF replay, or behind any future
//! serving front-end, with the caller supplying whatever wall or
//! virtual clock it likes.
//!
//! The driver owns the per-request protocol: one [`PolicyDriver::place`]
//! call makes both the arrival and the distribution decision, and a
//! rejected arrival (every node down) comes back as
//! [`Placement::Rejected`] instead of a fabricated node id.

use crate::{Distributor, NodeId, PolicyKind, PolicyParams};
use l2s_util::SimTime;

/// The outcome of placing one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The request was accepted and routed.
    Serve {
        /// Node that will service the request.
        node: NodeId,
        /// Whether it was handed off from the accepting node.
        forwarded: bool,
    },
    /// No node could accept the connection (every candidate is down);
    /// the caller counts the request as failed.
    Rejected,
}

impl Placement {
    /// The service node, if the request was accepted.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Placement::Serve { node, .. } => Some(*node),
            Placement::Rejected => None,
        }
    }
}

/// A [`Distributor`] behind a runtime-agnostic API. See the module docs.
pub struct PolicyDriver {
    policy: Box<dyn Distributor>,
    nodes: usize,
    msg_buf: Vec<(NodeId, NodeId)>,
}

impl PolicyDriver {
    /// A driver over `kind` built with the paper-default parameters
    /// ([`PolicyParams::default`]) for an `n`-node cluster.
    pub fn new(kind: PolicyKind, n: usize) -> Self {
        PolicyDriver {
            policy: kind.build(n, &PolicyParams::default()),
            nodes: n,
            msg_buf: Vec::new(),
        }
    }

    /// The wrapped policy's kind.
    pub fn kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Cluster size the driver was built for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Hints the number of distinct files (dense interned ids `0..n`).
    pub fn hint_files(&mut self, n: usize) {
        self.policy.hint_files(n);
    }

    /// Hints per-file sizes in KB, indexed by interned file id (feeds
    /// size-aware splitters like SITA).
    pub fn hint_file_sizes(&mut self, sizes_kb: &[f64]) {
        self.policy.hint_file_sizes(sizes_kb);
    }

    /// Places one request for `file` arriving at `now_ns`: runs the
    /// arrival step (where does the connection land) and the
    /// distribution decision (who serves it) back to back. Returns
    /// [`Placement::Rejected`] when no node can accept.
    pub fn place(&mut self, now_ns: u64, file: u32) -> Placement {
        let Some(initial) = self.policy.arrival_node() else {
            return Placement::Rejected;
        };
        let node = self
            .policy
            .assign(SimTime::from_nanos(now_ns), initial, file.into());
        Placement::Serve {
            node,
            forwarded: node != initial,
        }
    }

    /// The request for `file` being serviced at `node` completed at
    /// `now_ns`. Any control messages it emitted (batched load reports
    /// and the like) wait in [`PolicyDriver::drain_messages`].
    pub fn complete(&mut self, now_ns: u64, node: NodeId, file: u32) {
        self.policy
            .complete(SimTime::from_nanos(now_ns), node, file.into());
    }

    /// `node` went down at `now_ns`; the policy stops routing to it.
    pub fn node_down(&mut self, now_ns: u64, node: NodeId) {
        self.policy.node_down(SimTime::from_nanos(now_ns), node);
    }

    /// `node` came back at `now_ns` and rejoins the candidate sets.
    pub fn node_up(&mut self, now_ns: u64, node: NodeId) {
        self.policy.node_up(SimTime::from_nanos(now_ns), node);
    }

    /// Ground-truth open connections at `node`.
    pub fn open_connections(&self, node: NodeId) -> u32 {
        self.policy.open_connections(node)
    }

    /// Nodes that can service requests (excludes LARD's front-end).
    pub fn serving_nodes(&self) -> Vec<NodeId> {
        self.policy.serving_nodes()
    }

    /// Drains the `(from, to)` control-message pairs emitted since the
    /// last drain: the only record of the policy's message traffic.
    pub fn drain_messages(&mut self) -> &[(NodeId, NodeId)] {
        self.msg_buf.clear();
        self.policy.drain_messages(&mut self.msg_buf);
        &self.msg_buf
    }
}

impl std::fmt::Debug for PolicyDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyDriver")
            .field("kind", &self.policy.kind())
            .field("nodes", &self.nodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drives_every_policy_without_engine_types() {
        for kind in PolicyKind::all() {
            let mut d = PolicyDriver::new(kind, 4);
            assert_eq!(d.kind(), kind);
            d.hint_files(8);
            d.hint_file_sizes(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            let mut open = Vec::new();
            for i in 0..32u32 {
                match d.place(u64::from(i) * 1_000_000, i % 8) {
                    Placement::Serve { node, .. } => open.push((node, i % 8)),
                    Placement::Rejected => panic!("{}: healthy cluster rejected", kind.name()),
                }
            }
            let total: u32 = (0..4).map(|n| d.open_connections(n)).sum();
            assert_eq!(total, 32, "{}: open != placed", kind.name());
            for (node, file) in open {
                d.complete(40_000_000, node, file);
            }
            let total: u32 = (0..4).map(|n| d.open_connections(n)).sum();
            assert_eq!(total, 0, "{}: connections leaked", kind.name());
            d.drain_messages();
        }
    }

    #[test]
    fn all_down_rejects_instead_of_routing_to_node_zero() {
        // LARD keeps its hardwired next hop (the engine fails it at the
        // liveness gate), so it is exempt from the rejection contract.
        for kind in PolicyKind::all() {
            if matches!(
                kind,
                PolicyKind::Lard | PolicyKind::LardBasic | PolicyKind::LardDispatcher
            ) {
                continue;
            }
            let mut d = PolicyDriver::new(kind, 3);
            for node in 0..3 {
                d.node_down(1_000, node);
            }
            for i in 0..8u32 {
                assert_eq!(
                    d.place(2_000, i),
                    Placement::Rejected,
                    "{}: all-down cluster must reject",
                    kind.name()
                );
            }
            // Recovery restores service.
            d.node_up(3_000, 1);
            assert_eq!(d.place(4_000, 0).node(), Some(1), "{}", kind.name());
        }
    }

    #[test]
    fn placement_node_accessor() {
        assert_eq!(Placement::Rejected.node(), None);
        let p = Placement::Serve {
            node: 2,
            forwarded: false,
        };
        assert_eq!(p.node(), Some(2));
    }
}
