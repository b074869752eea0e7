//! JIQ — the join-idle-queue dispatcher (Lu et al., Performance 2011).
//!
//! The switch keeps a queue of nodes that have reported themselves idle.
//! An arrival joins an idle node when one is available and otherwise
//! falls back to blind round-robin — the dispatcher deliberately ignores
//! load on busy nodes, which is what makes JIQ's information cost O(1)
//! per request (one idleness notification, no per-arrival probing).
//!
//! In this simulator the switch already observes connection counts for
//! free (the fewest-connections baseline relies on the same channel), so
//! idleness notifications are folded into that accounting instead of
//! being charged as explicit cluster messages — consistent with
//! [`Traditional`](crate::Traditional), which pays nothing for its
//! strictly richer per-arrival load view.
//!
//! The idle set is the zero-load stratum of a [`LoadIndex`](crate::LoadIndex)
//! over the live nodes; picking from it with rotating tie-breaking
//! spreads consecutive arrivals over all idle nodes instead of herding
//! onto the lowest id, and stays O(log n) at 1024 nodes.

use crate::ledger::{Dispatch, Ledger};
use crate::{NodeId, PolicyKind};

/// The join-idle-queue dispatcher. See the module docs.
#[derive(Clone, Debug)]
pub struct Jiq {
    /// Its live index's zero-load stratum is the idle queue; its DNS
    /// rotation is the fallback for arrivals that find no idle node.
    ledger: Ledger,
    /// Rotating cursor spreading arrivals over tied idle nodes.
    idle_cursor: usize,
}

impl Jiq {
    /// A JIQ dispatcher over `n` nodes.
    pub fn new(n: usize) -> Self {
        Jiq {
            ledger: Ledger::new(n),
            idle_cursor: 0,
        }
    }
}

impl Dispatch for Jiq {
    const KIND: PolicyKind = PolicyKind::Jiq;
    const SWITCH: bool = true;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn arrival(&mut self) -> Option<NodeId> {
        let live = self.ledger.live();
        match live.argmin() {
            // At least one node is idle: rotate over the idle set (the
            // minimum-load stratum) so bursts fan out instead of piling
            // onto the lowest idle id.
            Some(least) if self.ledger.open_connections(least) == 0 => {
                live.argmin_rotating(&mut self.idle_cursor)
            }
            // No idle node: JIQ is load-blind, so plain round-robin over
            // the live nodes.
            _ => self.ledger.rotate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distributor;
    use l2s_util::SimTime;

    #[test]
    fn idle_nodes_are_taken_before_busy_ones() {
        let mut p = Jiq::new(3);
        // First three arrivals drain the idle queue, visiting every node.
        let mut seen = [false; 3];
        for _ in 0..3 {
            seen[p.arrival_node().unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "an idle node was skipped");
    }

    #[test]
    fn busy_cluster_falls_back_to_round_robin() {
        let mut p = Jiq::new(3);
        for _ in 0..3 {
            p.arrival_node().unwrap(); // all nodes now busy
        }
        let seq: Vec<_> = (0..6).map(|_| p.arrival_node().unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2], "fallback is blind round-robin");
    }

    #[test]
    fn a_completion_reopens_the_idle_queue() {
        let mut p = Jiq::new(2);
        let a = p.arrival_node().unwrap();
        p.assign(SimTime::ZERO, a, 0.into());
        let b = p.arrival_node().unwrap();
        p.assign(SimTime::ZERO, b, 1.into());
        p.complete(SimTime::ZERO, a, 0.into());
        assert_eq!(p.arrival_node().unwrap(), a, "the newly idle node wins");
    }

    #[test]
    fn dead_nodes_leave_both_paths_and_rejoin() {
        let mut p = Jiq::new(3);
        p.node_down(SimTime::ZERO, 1);
        for _ in 0..9 {
            assert_ne!(p.arrival_node().unwrap(), 1, "dead node got a connection");
        }
        p.node_up(SimTime::ZERO, 1);
        // Node 1 is idle (load 0) while the others carry backlog.
        assert_eq!(p.arrival_node().unwrap(), 1, "recovered idle node wins");
    }

    #[test]
    fn abort_undecided_releases_the_connection() {
        let mut p = Jiq::new(2);
        let n = p.arrival_node().unwrap();
        assert_eq!(p.open_connections(n), 1);
        p.abort_undecided(SimTime::ZERO, n);
        assert_eq!(p.open_connections(n), 0);
    }

    #[test]
    fn never_forwards_and_sends_no_messages() {
        let mut p = Jiq::new(4);
        for f in 0..20u32 {
            let n = p.arrival_node().unwrap();
            let a = p.assign(SimTime::ZERO, n, f.into());
            assert!(!a.forwarded);
            assert_eq!(a.control_msgs, 0);
            assert_eq!(p.complete(SimTime::ZERO, n, f.into()), 0);
        }
    }
}
