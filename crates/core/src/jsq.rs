//! JSQ(d) — the power-of-d-choices dispatcher.
//!
//! The switch samples `d` live nodes uniformly at random per arrival and
//! delivers the connection to the least loaded of the sample (lowest id
//! on ties, matching every other policy's tie-breaking). Mitzenmacher's
//! classic result — and Hellemans & Van Houdt's workload-dependent
//! analysis of the least-loaded-of-d variant — show `d = 2` already
//! removes almost all of random assignment's queueing imbalance at a
//! fraction of full JSQ's information cost.
//!
//! Sampling uses the [`LoadIndex`](crate::LoadIndex) order statistics: a
//! uniform rank in `[0, live)` maps to the rank-th live node in
//! O(log n), so a 1024-node cluster pays the same per-arrival cost as an
//! 8-node one and dead nodes are never drawn (no rejection loop). The
//! RNG is the workspace's own deterministic [`DetRng`], seeded from the
//! run seed, so runs are byte-identical at any worker count.

use crate::ledger::{Dispatch, Ledger};
use crate::{NodeId, PolicyKind};
use l2s_util::DetRng;

/// Salt mixed into the run seed so the dispatcher's sample stream is
/// decorrelated from the engine's own arrival/persistence stream (which
/// is seeded with the raw run seed).
const SEED_SALT: u64 = 0x4a53_5144; // "JSQD"

/// `d`, the nodes sampled per arrival: the power-of-two-choices
/// operating point.
const D: usize = 2;

/// The power-of-d-choices dispatcher. See the module docs.
#[derive(Clone, Debug)]
pub struct Jsq {
    /// Its live index doubles as the uniform sampler via its order
    /// statistics.
    ledger: Ledger,
    rng: DetRng,
    /// Scratch ranks for the d-way sample, reused across arrivals.
    picks: Vec<usize>,
}

impl Jsq {
    /// A JSQ(d) dispatcher over `n` nodes sampling `d = 2` choices per
    /// arrival from the deterministic stream seeded by `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        Jsq {
            ledger: Ledger::new(n),
            rng: DetRng::new(seed ^ SEED_SALT),
            picks: Vec::with_capacity(D),
        }
    }
}

impl Dispatch for Jsq {
    const KIND: PolicyKind = PolicyKind::Jsq;
    const SWITCH: bool = true;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn arrival(&mut self) -> Option<NodeId> {
        let index = self.ledger.live();
        let live = index.len();
        if live <= D {
            // The sample would cover every live node: exact JSQ, which
            // the index answers directly (lowest id on ties). With every
            // node down there is nothing to sample from and the
            // connection is rejected, with no RNG draw, so the sampling
            // sequence resumes unchanged after a recovery.
            return index.argmin();
        }
        self.picks.clear();
        while self.picks.len() < D {
            let rank = self.rng.index(live);
            // Sampling without replacement: d distinct nodes, as in the
            // classic formulation. d is small, so the linear dedup scan
            // is cheaper than any set structure.
            if !self.picks.contains(&rank) {
                self.picks.push(rank);
            }
        }
        let mut best = index.nth_present(self.picks[0]);
        let mut best_load = self.ledger.open_connections(best);
        for &rank in &self.picks[1..] {
            let candidate = index.nth_present(rank);
            let load = self.ledger.open_connections(candidate);
            if load < best_load || (load == best_load && candidate < best) {
                best = candidate;
                best_load = load;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distributor;
    use l2s_util::SimTime;

    fn jsq(n: usize) -> Jsq {
        Jsq::new(n, 0x10ad_ba1e)
    }

    #[test]
    fn sampled_choice_never_beats_exact_jsq_by_much() {
        // With d = 2 on 8 nodes the sampled pick is always one of the
        // two drawn nodes, and always the less loaded of the pair.
        let mut p = jsq(8);
        for _ in 0..200 {
            let before: Vec<u32> = (0..8).map(|n| p.open_connections(n)).collect();
            let node = p.arrival_node().unwrap();
            // The winner's pre-arrival load cannot exceed every other
            // node's load by more than the sampling allows; at minimum
            // it must not be the unique maximum.
            let max = *before.iter().max().unwrap();
            let min = *before.iter().min().unwrap();
            if max != min {
                assert!(
                    before[node] < max || before.iter().filter(|&&l| l == max).count() > 1,
                    "picked the uniquely most-loaded node"
                );
            }
            p.assign(SimTime::ZERO, node, 0.into());
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Jsq::new(6, 42);
        let mut b = Jsq::new(6, 42);
        for _ in 0..64 {
            assert_eq!(a.arrival_node().unwrap(), b.arrival_node().unwrap());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Jsq::new(16, 1);
        let mut b = Jsq::new(16, 2);
        let sa: Vec<_> = (0..32).map(|_| a.arrival_node().unwrap()).collect();
        let sb: Vec<_> = (0..32).map(|_| b.arrival_node().unwrap()).collect();
        assert_ne!(sa, sb, "seed must steer the sample stream");
    }

    #[test]
    fn small_cluster_degenerates_to_exact_jsq() {
        // live <= d: the sample covers everything, so the pick is the
        // global least-loaded node with lowest-id tie-breaking.
        let mut p = jsq(2);
        assert_eq!(p.arrival_node().unwrap(), 0);
        assert_eq!(p.arrival_node().unwrap(), 1);
        assert_eq!(p.arrival_node().unwrap(), 0);
    }

    #[test]
    fn dead_nodes_are_never_sampled_and_rejoin() {
        let mut p = jsq(4);
        p.node_down(SimTime::ZERO, 1);
        for _ in 0..50 {
            assert_ne!(p.arrival_node().unwrap(), 1, "dead node got a connection");
        }
        p.node_up(SimTime::ZERO, 1);
        let mut saw_one = false;
        for _ in 0..50 {
            if p.arrival_node().unwrap() == 1 {
                saw_one = true;
            }
        }
        assert!(saw_one, "recovered node never rejoined the sample");
    }

    #[test]
    fn abort_undecided_releases_the_connection() {
        let mut p = jsq(2);
        let n = p.arrival_node().unwrap();
        assert_eq!(p.open_connections(n), 1);
        p.abort_undecided(SimTime::ZERO, n);
        assert_eq!(p.open_connections(n), 0);
    }

    #[test]
    fn never_forwards() {
        let mut p = jsq(4);
        for f in 0..20u32 {
            let n = p.arrival_node().unwrap();
            assert_eq!(p.assign(SimTime::ZERO, n, f.into()), n);
        }
        let mut out = Vec::new();
        p.drain_messages(&mut out);
        assert!(out.is_empty());
    }
}
