//! The traditional server and the two single-minded baselines.

use crate::ledger::{Dispatch, Ledger};
use crate::{NodeId, PolicyKind};
use l2s_cluster::FileId;

/// The paper's **traditional** cluster server: a load-balancing switch
/// assigns each new request to the node with the fewest open connections
/// ("fewest-connections scheme, all cluster nodes are equally powerful"),
/// and each node serves its requests independently. Distribution is
/// oblivious to cache contents, so every node's memory converges to an
/// independent copy of the hottest files.
///
/// Under faults the switch plays the role of a health-checking load
/// balancer: crashed nodes are excluded from the fewest-connections
/// choice and rejoin it on recovery.
#[derive(Clone, Debug)]
pub struct Traditional {
    ledger: Ledger,
}

impl Traditional {
    /// A traditional server over `n` nodes.
    pub fn new(n: usize) -> Self {
        Traditional {
            ledger: Ledger::new(n),
        }
    }
}

impl Dispatch for Traditional {
    const KIND: PolicyKind = PolicyKind::Traditional;
    const SWITCH: bool = true;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn arrival(&mut self) -> Option<NodeId> {
        // The switch counts the connection from acceptance time
        // (otherwise a burst of simultaneous arrivals would all pile
        // onto the momentarily-least-loaded node). Ties go to the lowest
        // id; with every node down the connection is rejected.
        self.ledger.live().argmin()
    }
}

/// Pure load spreading: requests cycle through the nodes regardless of
/// load or locality (round-robin DNS with no server-side smarts). Dead
/// nodes are skipped in the rotation.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    ledger: Ledger,
}

impl RoundRobin {
    /// A round-robin server over `n` nodes.
    pub fn new(n: usize) -> Self {
        RoundRobin {
            ledger: Ledger::new(n),
        }
    }
}

impl Dispatch for RoundRobin {
    const KIND: PolicyKind = PolicyKind::RoundRobin;
    const SWITCH: bool = true;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn arrival(&mut self) -> Option<NodeId> {
        self.ledger.rotate()
    }
}

/// Pure locality: each file is statically owned by `hash(file) mod N`.
/// Maximizes aggregate cache effectiveness but ignores load entirely —
/// the strict no-replication organization whose load imbalance the
/// paper's Section 1 warns about.
///
/// Under faults the hash ring re-partitions over the live nodes
/// (consistent-hashing-style: `hash mod |alive|` over the sorted live
/// list), so a dead node's files get a temporary owner and move back
/// when it recovers. With every node alive the mapping is identical to
/// the original `hash mod N`.
#[derive(Clone, Debug)]
pub struct PureLocality {
    ledger: Ledger,
}

impl PureLocality {
    /// A hash-partitioned server over `n` nodes.
    pub fn new(n: usize) -> Self {
        PureLocality {
            ledger: Ledger::new(n),
        }
    }

    /// The current owner of `file` (the static owner while every node is
    /// alive).
    pub fn owner(&self, file: impl Into<FileId>) -> NodeId {
        self.ledger.hashed(file.into())
    }
}

impl Dispatch for PureLocality {
    const KIND: PolicyKind = PolicyKind::PureLocality;
    const SWITCH: bool = false;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn arrival(&mut self) -> Option<NodeId> {
        // Round-robin DNS; the owner is only known after parsing.
        self.ledger.rotate()
    }

    fn service(&self, _initial: NodeId, file: FileId) -> NodeId {
        self.owner(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distributor, PolicyParams};
    use l2s_util::SimTime;

    #[test]
    fn traditional_picks_fewest_connections() {
        let mut t = Traditional::new(3);
        // Load node 0 and 1.
        for _ in 0..2 {
            let n = t.arrival_node().unwrap();
            t.assign(SimTime::ZERO, n, 0.into());
        }
        assert_eq!(t.open_connections(0), 1);
        assert_eq!(t.open_connections(1), 1);
        // Third arrival must land on node 2.
        assert_eq!(t.arrival_node().unwrap(), 2);
    }

    #[test]
    fn traditional_rebalances_after_completion() {
        let mut t = Traditional::new(2);
        let a = t.arrival_node().unwrap();
        t.assign(SimTime::ZERO, a, 0.into());
        let b = t.arrival_node().unwrap();
        t.assign(SimTime::ZERO, b, 1.into());
        assert_ne!(a, b);
        t.complete(SimTime::ZERO, a, 0.into());
        assert_eq!(
            t.arrival_node().unwrap(),
            a,
            "freed node is least loaded again"
        );
    }

    #[test]
    fn traditional_never_forwards() {
        let mut t = Traditional::new(4);
        for f in 0..20u32 {
            let n = t.arrival_node().unwrap();
            assert_eq!(t.assign(SimTime::ZERO, n, f.into()), n);
        }
        let mut out = Vec::new();
        t.drain_messages(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn traditional_excludes_dead_nodes_and_readmits() {
        let mut t = Traditional::new(3);
        t.node_down(SimTime::ZERO, 0);
        for _ in 0..6 {
            assert_ne!(t.arrival_node().unwrap(), 0, "dead node got a connection");
        }
        t.node_up(SimTime::ZERO, 0);
        // Node 0 has 0 connections vs 3 each elsewhere — it wins now.
        assert_eq!(t.arrival_node().unwrap(), 0);
    }

    #[test]
    fn traditional_abort_undecided_releases_the_connection() {
        let mut t = Traditional::new(2);
        let n = t.arrival_node().unwrap();
        assert_eq!(t.open_connections(n), 1);
        t.abort_undecided(SimTime::ZERO, n);
        assert_eq!(t.open_connections(n), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new(3);
        let seq: Vec<_> = (0..6).map(|_| rr.arrival_node().unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_dead_nodes() {
        let mut rr = RoundRobin::new(3);
        rr.node_down(SimTime::ZERO, 1);
        let seq: Vec<_> = (0..4).map(|_| rr.arrival_node().unwrap()).collect();
        assert_eq!(seq, vec![0, 2, 0, 2]);
        rr.node_up(SimTime::ZERO, 1);
        let seq: Vec<_> = (0..3).map(|_| rr.arrival_node().unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2], "recovered node rejoins rotation");
    }

    #[test]
    fn pure_locality_is_sticky_per_file() {
        let mut p = PureLocality::new(4);
        let first = p.assign(SimTime::ZERO, 0, 42.into());
        for _ in 0..10 {
            let initial = p.arrival_node().unwrap();
            let service = p.assign(SimTime::ZERO, initial, 42.into());
            assert_eq!(service, first, "same file, same owner");
        }
    }

    #[test]
    fn pure_locality_spreads_files() {
        let p = PureLocality::new(4);
        let mut seen = [false; 4];
        for f in 0..64u32 {
            seen[p.owner(f)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some node owns no files");
    }

    #[test]
    fn pure_locality_serves_at_the_owner() {
        let mut p = PureLocality::new(2);
        let owner = p.owner(7);
        assert_eq!(p.assign(SimTime::ZERO, owner, 7.into()), owner);
        let other = 1 - owner;
        assert_eq!(p.assign(SimTime::ZERO, other, 7.into()), owner);
    }

    #[test]
    fn pure_locality_remaps_owners_around_a_crash_and_back() {
        let mut p = PureLocality::new(4);
        let statics: Vec<NodeId> = (0..32u32).map(|f| p.owner(f)).collect();
        let victim = statics[0];
        p.node_down(SimTime::ZERO, victim);
        for f in 0..32u32 {
            let owner = p.owner(f);
            assert_ne!(owner, victim, "dead node still owns file {f}");
            assert!(owner < 4);
        }
        p.node_up(SimTime::ZERO, victim);
        let after: Vec<NodeId> = (0..32u32).map(|f| p.owner(f)).collect();
        assert_eq!(after, statics, "recovery restores the static mapping");
    }

    #[test]
    fn single_node_baselines_degenerate_cleanly() {
        for kind in [
            PolicyKind::Traditional,
            PolicyKind::RoundRobin,
            PolicyKind::PureLocality,
        ] {
            let mut p = kind.build(1, &PolicyParams::default());
            for f in 0..5u32 {
                let n = p.arrival_node().unwrap();
                assert_eq!(n, 0);
                assert_eq!(p.assign(SimTime::ZERO, n, f.into()), 0);
            }
        }
    }
}
