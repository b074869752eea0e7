//! Property-based tests of the distribution policies' protocol
//! invariants under arbitrary workloads.

use l2s::{Distributor, L2s, L2sConfig, LoadIndex, PolicyKind, PolicyParams};
use l2s_util::{DetRng, SimDuration, SimTime};
use proptest::prelude::*;

/// Reference model for [`LoadIndex`]: the naive scans the policies used
/// before indexed dispatch, over an explicit `(node, load)` map.
struct NaiveLoads {
    load: Vec<Option<u32>>,
}

impl NaiveLoads {
    fn new(capacity: usize) -> Self {
        NaiveLoads {
            load: vec![None; capacity],
        }
    }

    /// Present node ids in ascending order — the "sorted live list"
    /// every policy maintains for its candidate slice.
    fn members(&self) -> Vec<usize> {
        (0..self.load.len())
            .filter(|&i| self.load[i].is_some())
            .collect()
    }

    /// Least load, lowest node id on ties: the old filtered scan in
    /// `Traditional::arrival_node`.
    fn argmin(&self) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (i, l) in self.load.iter().enumerate() {
            if let Some(l) = *l {
                if best.map(|(bl, _)| l < bl).unwrap_or(true) {
                    best = Some((l, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// First strict minimum in cyclic order from the cursor: the old
    /// `argmin_rotating` over the live list, verbatim.
    fn argmin_rotating(&self, cursor: &mut usize) -> Option<usize> {
        let members = self.members();
        if members.is_empty() {
            return None;
        }
        let n = members.len();
        let start = *cursor % n;
        *cursor = cursor.wrapping_add(1);
        let mut best = members[start];
        let mut best_load = self.load[best].unwrap();
        let mut idx = start;
        for _ in 1..n {
            idx += 1;
            if idx == n {
                idx = 0;
            }
            let c = members[idx];
            let l = self.load[c].unwrap();
            if l < best_load {
                best = c;
                best_load = l;
            }
        }
        Some(best)
    }
}

/// One step of a [`drive`].
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A new client connection for the file.
    Arrive(u32),
    /// An in-flight request settles (picked by the rng); the connection
    /// then carries a request for the file when the flag is set.
    Settle(u32, bool),
    /// The node (modulo the cluster size) crashes, if it is up.
    Crash(usize),
    /// The node (modulo the cluster size) recovers, if it is down.
    Recover(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u32..60, 0u8..12).prop_map(|(x, pick)| match pick {
        0..=4 => Op::Arrive(x),
        5..=8 => Op::Settle(x, pick == 8),
        9 | 10 => Op::Crash(x as usize),
        _ => Op::Recover(x as usize),
    })
}

/// The engine's side of the protocol, reduced to what a policy sees.
struct Cluster {
    policy: Box<dyn Distributor>,
    alive: Vec<bool>,
    /// Bumped on every crash: a request assigned before its node's last
    /// crash lost its work, even if the node is back up.
    epoch: Vec<u32>,
    /// In-flight requests: service node, file, and the node's epoch at
    /// assignment.
    in_flight: Vec<(usize, u32, u32)>,
    now: SimTime,
}

impl Cluster {
    /// A connection, new or held, lands on `initial` with a request for
    /// `file`.
    fn accept(
        &mut self,
        initial: usize,
        file: u32,
        continuation: bool,
    ) -> Result<(), TestCaseError> {
        prop_assert!(initial < self.alive.len());
        if !self.alive[initial] {
            // Only LARD names a dead next hop; the connection fails
            // there, before any decision.
            self.policy.abort_undecided(self.now, initial);
            return Ok(());
        }
        let service = if continuation {
            self.policy
                .assign_continuation(self.now, initial, file.into())
        } else {
            self.policy.assign(self.now, initial, file.into())
        };
        prop_assert!(service < self.alive.len());
        self.in_flight.push((service, file, self.epoch[service]));
        Ok(())
    }
}

/// Drives a policy the way the engine does — arrivals, completions,
/// continuations on held connections, crashes and recoveries, with
/// work on a crashed node settled through the abort hooks — and checks
/// the protocol invariants after every hook.
fn drive(kind: PolicyKind, nodes: usize, ops: &[Op], seed: u64) -> Result<(), TestCaseError> {
    let mut c = Cluster {
        policy: kind.build(nodes, &PolicyParams::default()),
        alive: vec![true; nodes],
        epoch: vec![0; nodes],
        in_flight: Vec::new(),
        now: SimTime::ZERO,
    };
    let mut rng = DetRng::new(seed);
    let mut outbox = Vec::new();
    for &op in ops {
        c.now += SimDuration::from_nanos(rng.below(1_000_000) + 1);
        match op {
            Op::Arrive(file) => {
                if let Some(initial) = c.policy.arrival_node() {
                    c.accept(initial, file, false)?;
                }
            }
            Op::Settle(file, more) => {
                if c.in_flight.is_empty() {
                    continue;
                }
                let (node, f, at) = c.in_flight.swap_remove(rng.index(c.in_flight.len()));
                if c.alive[node] && c.epoch[node] == at {
                    c.policy.complete(c.now, node, f.into());
                    if more {
                        c.policy.arrival_continuation(node);
                        c.accept(node, file, true)?;
                    }
                } else {
                    c.policy.abort_assigned(c.now, node, f.into());
                }
            }
            Op::Crash(node) => {
                let node = node % nodes;
                if c.alive[node] {
                    c.alive[node] = false;
                    c.epoch[node] += 1;
                    c.policy.node_down(c.now, node);
                }
            }
            Op::Recover(node) => {
                let node = node % nodes;
                if !c.alive[node] {
                    c.alive[node] = true;
                    c.policy.node_up(c.now, node);
                }
            }
        }
        let total: u64 = (0..nodes)
            .map(|i| c.policy.open_connections(i) as u64)
            .sum();
        prop_assert_eq!(
            total as usize,
            c.in_flight.len(),
            "connection accounting drifted"
        );
        // Every message the hook queued runs between two distinct nodes
        // that are both up.
        outbox.clear();
        c.policy.drain_messages(&mut outbox);
        for &(from, to) in &outbox {
            prop_assert!(from < nodes && to < nodes && from != to, "{:?}", (from, to));
            prop_assert!(
                c.alive[from] && c.alive[to],
                "{} queued {:?} with a down endpoint (alive {:?})",
                kind.name(),
                (from, to),
                c.alive
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_policy_respects_the_protocol(
        ops in prop::collection::vec(op(), 1..400),
        nodes in 1usize..8,
        kind_idx in 0usize..10,
        seed in any::<u64>(),
    ) {
        drive(PolicyKind::all()[kind_idx], nodes, &ops, seed)?;
    }

    /// L2S server sets only contain valid nodes and never empty out once
    /// created.
    #[test]
    fn l2s_server_sets_stay_valid(
        ops in prop::collection::vec((0u32..20, any::<bool>()), 1..300),
        nodes in 2usize..8,
    ) {
        let mut policy = L2s::new(nodes, L2sConfig::default());
        let mut in_flight: Vec<(usize, u32)> = Vec::new();
        let now = SimTime::ZERO;
        let mut seen_files = std::collections::HashSet::new();
        for (file, complete) in ops {
            if complete && !in_flight.is_empty() {
                let (node, f) = in_flight.swap_remove(0);
                policy.complete(now, node, f.into());
            } else {
                let initial = policy.arrival_node().unwrap();
                in_flight.push((policy.assign(now, initial, file.into()), file));
                seen_files.insert(file);
            }
            for &f in &seen_files {
                let set = policy.server_set(f);
                prop_assert!(!set.is_empty(), "set emptied for file {f}");
                prop_assert!(set.len() <= nodes);
                for &m in set {
                    prop_assert!(m < nodes);
                }
                // No duplicates.
                let mut dedup = set.to_vec();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), set.len());
            }
        }
    }

    /// A node's own view of itself always equals ground truth in L2S.
    #[test]
    fn l2s_own_view_is_exact(
        ops in prop::collection::vec((0u32..30, any::<bool>()), 1..200),
        nodes in 2usize..6,
    ) {
        let mut policy = L2s::new(nodes, L2sConfig::default());
        let mut in_flight: Vec<(usize, u32)> = Vec::new();
        let now = SimTime::ZERO;
        for (file, complete) in ops {
            if complete && !in_flight.is_empty() {
                let (node, f) = in_flight.swap_remove(0);
                policy.complete(now, node, f.into());
            } else {
                let initial = policy.arrival_node().unwrap();
                in_flight.push((policy.assign(now, initial, file.into()), file));
            }
            for k in 0..nodes {
                prop_assert_eq!(policy.viewed_load(k, k), policy.open_connections(k));
            }
        }
    }

    /// The indexed load structure is selection-identical to the naive
    /// scans under arbitrary insert/update/remove interleavings —
    /// including tie-breaking on node id — for both the lowest-id
    /// argmin and the rotating-cursor variant. This is the contract
    /// that keeps every golden CSV byte-identical under indexed
    /// dispatch.
    #[test]
    fn load_index_matches_naive_scans(
        capacity in 1usize..40,
        ops in prop::collection::vec((any::<u16>(), 0u32..5, any::<bool>()), 1..300),
        start_cursor in any::<usize>(),
    ) {
        let mut ix = LoadIndex::new(capacity);
        let mut model = NaiveLoads::new(capacity);
        let mut ix_cursor = start_cursor;
        let mut model_cursor = start_cursor;
        for (pick, load, use_rotating) in ops {
            let node = pick as usize % capacity;
            // Toggle membership on a fresh load value, or update in
            // place: every op ends with both structures agreeing on
            // membership, so all three mutators get exercised.
            if model.load[node].is_some() {
                if load == 0 {
                    ix.remove(node);
                    model.load[node] = None;
                } else {
                    ix.update(node, load);
                    model.load[node] = Some(load);
                }
            } else {
                ix.insert(node, load);
                model.load[node] = Some(load);
            }
            prop_assert_eq!(ix.len(), model.members().len());
            prop_assert_eq!(ix.argmin(), model.argmin());
            if use_rotating {
                let fast = ix.argmin_rotating(&mut ix_cursor);
                let naive = model.argmin_rotating(&mut model_cursor);
                prop_assert_eq!(fast, naive);
                prop_assert_eq!(ix_cursor, model_cursor, "cursor advancement diverged");
            }
        }
    }

    /// Remote views never exceed the broadcast threshold's staleness
    /// bound... they can lag, but a view can never be *negative* or wildly
    /// above any load the node ever had. Here: views are bounded by the
    /// peak ground-truth load seen so far plus the hand-off the viewer
    /// itself performed.
    #[test]
    fn l2s_views_stay_bounded(
        ops in prop::collection::vec(0u32..30, 1..300),
        nodes in 2usize..6,
    ) {
        let mut policy = L2s::new(nodes, L2sConfig::default());
        let mut peak = 0u32;
        let now = SimTime::ZERO;
        for file in ops {
            let initial = policy.arrival_node().unwrap();
            policy.assign(now, initial, file.into());
            for k in 0..nodes {
                peak = peak.max(policy.open_connections(k));
            }
            for o in 0..nodes {
                for k in 0..nodes {
                    prop_assert!(policy.viewed_load(o, k) <= peak + 1);
                }
            }
        }
    }
}
