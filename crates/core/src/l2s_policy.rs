//! L2S — the Locality and Load balancing Server (Section 4 of the paper).
//!
//! Every node can accept, distribute, *and* serve requests: client
//! connections are spread by round-robin DNS; the receiving ("initial")
//! node parses the request and decides locally, using its own — possibly
//! stale — view of cluster load:
//!
//! * the initial node serves the request itself if it is not overloaded
//!   (at most `T` open connections) and either belongs to the file's
//!   server set or the file has never been requested;
//! * otherwise the request is handed off to the least-loaded member of
//!   the file's server set;
//! * a node outside the server set is chosen (and added to the set —
//!   replication) only when **both** the initial node and the
//!   least-loaded member are overloaded;
//! * server sets shrink again when the assigned node is underloaded
//!   (below `t`), the set has more than one member, and the set has not
//!   been modified for a while — bounding replication.
//!
//! Load dissemination is threshold-triggered: a node (re)broadcasts its
//! connection count when it drifts `broadcast_delta` connections from
//! the last broadcast value (4 in Section 5.1). Server-set changes are
//! broadcast immediately; they are rare in steady state. Each broadcast
//! costs `N - 1` point-to-point messages, which the simulator charges
//! to CPUs and NIs.

use crate::ledger::{next_live, release};
use crate::{argmin_rotating, Distributor, NodeId, PolicyKind};
use l2s_cluster::FileId;
use l2s_util::{invariant, SimDuration, SimTime};

/// Minimum age of a server set before it may shrink.
const SHRINK_AFTER: SimDuration = SimDuration::from_millis(5_000);

/// L2S tuning parameters; defaults are the paper's Section 5.1 values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct L2sConfig {
    /// `T` — a node with more than this many open connections is
    /// overloaded (default 20).
    pub t_high: u32,
    /// `t` — a node below this many connections is underloaded, enabling
    /// server-set shrinking (default 10).
    pub t_low: u32,
    /// A node rebroadcasts its load when it drifts this many connections
    /// from the last broadcast value (default 4).
    pub broadcast_delta: u32,
}

impl Default for L2sConfig {
    fn default() -> Self {
        L2sConfig {
            t_high: 20,
            t_low: 10,
            broadcast_delta: 4,
        }
    }
}

/// Per-file server set, stored densely by interned [`FileId`]. Empty
/// `members` means the file has never been requested (sets never shrink
/// below one member once created).
#[derive(Clone, Debug)]
struct ServerSet {
    members: Vec<NodeId>,
    last_modified: SimTime,
}

impl Default for ServerSet {
    fn default() -> Self {
        ServerSet {
            members: Vec::new(),
            last_modified: SimTime::ZERO,
        }
    }
}

/// The L2S server.
///
/// Server sets are kept in one structure (their modifications are
/// broadcast immediately and are rare, so the sub-20 µs inconsistency
/// window is below the model's resolution), but **load views are kept
/// per node**: `views[observer][subject]` is what `observer` believes
/// `subject`'s load to be, updated only by broadcasts — except that a
/// node always knows its own load exactly, and the initial node counts
/// the hand-offs it just made.
#[derive(Clone, Debug)]
pub struct L2s {
    config: L2sConfig,
    nodes: usize,
    true_loads: Vec<u32>,
    views: Vec<Vec<u32>>,
    last_broadcast: Vec<u32>,
    /// `sets[file.index()]` — dense by interned file id, grown on demand
    /// (or up front via `hint_files`).
    sets: Vec<ServerSet>,
    next_arrival: usize,
    /// Rotating tie-break cursor for least-loaded selections.
    tie_cursor: usize,
    /// The *live* node ids in ascending order, precomputed so
    /// whole-cluster argmin scans borrow instead of collecting. All of
    /// `0..nodes` while the cluster is healthy.
    all_nodes: Vec<NodeId>,
    /// Per-node liveness; crashed nodes leave every candidate set and
    /// receive no broadcasts.
    alive: Vec<bool>,
    /// Control messages emitted since the last drain.
    outbox: Vec<(NodeId, NodeId)>,
}

impl L2s {
    /// An L2S server over `n` nodes.
    pub fn new(n: usize, config: L2sConfig) -> Self {
        l2s_util::invariant!(n >= 1, "need at least one node");
        l2s_util::invariant!(config.t_low < config.t_high, "t must be below T");
        l2s_util::invariant!(
            config.broadcast_delta >= 1,
            "broadcast delta must be at least 1"
        );
        L2s {
            config,
            nodes: n,
            true_loads: vec![0; n],
            views: vec![vec![0; n]; n],
            last_broadcast: vec![0; n],
            sets: Vec::new(),
            next_arrival: 0,
            tie_cursor: 0,
            all_nodes: (0..n).collect(),
            alive: vec![true; n],
            outbox: Vec::new(),
        }
    }

    /// Members of `file`'s server set (empty if never requested).
    pub fn server_set(&self, file: impl Into<FileId>) -> &[NodeId] {
        self.sets
            .get(file.into().index())
            .map(|s| s.members.as_slice())
            .unwrap_or(&[])
    }

    /// Grows the dense set table to cover `file`.
    fn ensure_file(&mut self, file: FileId) {
        if self.sets.len() <= file.index() {
            self.sets.resize_with(file.index() + 1, ServerSet::default);
        }
    }

    /// What `observer` currently believes `subject`'s load to be.
    pub fn viewed_load(&self, observer: NodeId, subject: NodeId) -> u32 {
        if observer == subject {
            self.true_loads[subject]
        } else {
            self.views[observer][subject]
        }
    }

    /// Applies a load change at `node` and queues a broadcast if the
    /// threshold tripped. A crashed node cannot send (its stray
    /// completions settle silently), and crashed observers receive
    /// nothing — their views are resynced when they rejoin.
    fn note_load_change(&mut self, node: NodeId) {
        if !self.alive[node] {
            return;
        }
        let current = self.true_loads[node];
        if current.abs_diff(self.last_broadcast[node]) < self.config.broadcast_delta {
            return;
        }
        for observer in 0..self.nodes {
            if !self.alive[observer] {
                continue;
            }
            self.views[observer][node] = current;
            if observer != node {
                self.outbox.push((node, observer));
            }
        }
        self.last_broadcast[node] = current;
    }
}

impl Distributor for L2s {
    fn kind(&self) -> PolicyKind {
        PolicyKind::L2s
    }

    fn arrival_node(&mut self) -> Option<NodeId> {
        // Round-robin DNS over the live addresses.
        let alive = &self.alive;
        next_live(&mut self.next_arrival, self.nodes, |node| alive[node])
    }

    fn hint_files(&mut self, n: usize) {
        if self.sets.len() < n {
            self.sets.resize_with(n, ServerSet::default);
        }
    }

    fn assign(&mut self, now: SimTime, initial: NodeId, file: FileId) -> NodeId {
        self.ensure_file(file);
        let cfg = self.config;
        // Disjoint borrows of the policy's tables so the hot path never
        // clones the view row, the candidate list, or the server set.
        let L2s {
            true_loads,
            views,
            sets,
            tie_cursor,
            all_nodes,
            alive,
            outbox,
            ..
        } = self;
        let own_load = true_loads[initial];

        // A server-set change is announced to every *live* peer (all
        // `N - 1` of them while the cluster is healthy).
        let broadcast_set_change = |outbox: &mut Vec<(NodeId, NodeId)>| {
            for (o, &up) in alive.iter().enumerate() {
                if o != initial && up {
                    outbox.push((initial, o));
                }
            }
        };

        // The decision is taken on `initial`'s view of the world (its own
        // load it knows exactly). Nothing below mutates loads or views
        // until the decision is final, so reading through this closure is
        // equivalent to snapshotting the row.
        let view = |k: NodeId| {
            if k == initial {
                true_loads[initial]
            } else {
                views[initial][k]
            }
        };

        // L2S deliberately keeps the naive scans where LARD and the
        // traditional switch now use `LoadIndex`: every decision here
        // reads the *initial node's own stale view*, and maintaining one
        // index per observer would cost O(n) index updates per broadcast
        // — strictly worse than the rare whole-cluster scans below,
        // which only run on a file's first overloaded request or under
        // dual overload. Member-set scans are bounded by the replication
        // degree. See DESIGN.md "Scaling architecture".
        let service = if !sets[file.index()].members.is_empty() {
            let members = &sets[file.index()].members;
            if members.contains(&initial) && own_load <= cfg.t_high {
                initial
            } else {
                let n = argmin_rotating(members, view, tie_cursor);
                if view(n) <= cfg.t_high {
                    n
                } else if own_load > cfg.t_high {
                    // Both the initial node and the least-loaded member
                    // are overloaded: replicate onto the least-loaded
                    // node overall.
                    let m = argmin_rotating(all_nodes, view, tie_cursor);
                    let set = &mut sets[file.index()];
                    if !set.members.contains(&m) {
                        set.members.push(m);
                        set.last_modified = now;
                        broadcast_set_change(outbox);
                    }
                    m
                } else {
                    // The member is overloaded but the initial node is
                    // not: the replication condition does not hold, so
                    // the request still goes to the caching member.
                    n
                }
            }
        } else {
            // First request for this file.
            let chosen = if own_load <= cfg.t_high {
                initial
            } else {
                argmin_rotating(all_nodes, view, tie_cursor)
            };
            let set = &mut sets[file.index()];
            set.members.push(chosen);
            set.last_modified = now;
            broadcast_set_change(outbox);
            chosen
        };

        // Server-set shrinking: the assigned node is underloaded, the set
        // is replicated, and the set has been stable for a while.
        let set = &mut sets[file.index()];
        if set.members.len() > 1
            && view(service) < cfg.t_low
            && now.saturating_since(set.last_modified) > SHRINK_AFTER
        {
            // Keep the node that is about to serve the request: prune
            // the most-loaded member among the others (the set has more
            // than one member here, so a victim always exists).
            let victim = set
                .members
                .iter()
                .filter(|&&m| m != service)
                .max_by_key(|&&m| (view(m), m))
                .copied()
                .or_else(|| set.members.iter().max_by_key(|&&m| (view(m), m)).copied());
            if let Some(victim) = victim {
                set.members.retain(|&m| m != victim);
                set.last_modified = now;
                broadcast_set_change(outbox);
            }
        }

        true_loads[service] += 1;
        views[service][service] = true_loads[service];
        if service != initial {
            // The initial node saw its own hand-off.
            views[initial][service] = views[initial][service].saturating_add(1);
        }
        self.note_load_change(service);
        service
    }

    /// P-HTTP adaptation: a continuation request is served by the node
    /// holding the connection when that node already belongs to the
    /// file's server set and is not overloaded — connection affinity
    /// without a hand-off, but only where locality already lives.
    /// (Serving unconditionally at the holder would replicate every
    /// file onto every connection's node and collapse the aggregate
    /// cache back to the locality-oblivious regime.) Everything else
    /// runs the normal algorithm, migrating the connection to the
    /// content.
    fn assign_continuation(&mut self, now: SimTime, holder: NodeId, file: FileId) -> NodeId {
        let cfg = self.config;
        let in_set = self
            .sets
            .get(file.index())
            .map(|s| s.members.contains(&holder))
            .unwrap_or(false);
        if in_set && self.true_loads[holder] <= cfg.t_high {
            self.true_loads[holder] += 1;
            self.views[holder][holder] = self.true_loads[holder];
            self.note_load_change(holder);
            holder
        } else {
            self.assign(now, holder, file)
        }
    }

    fn complete(&mut self, _now: SimTime, node: NodeId, _file: FileId) {
        release(&mut self.true_loads, node);
        self.views[node][node] = self.true_loads[node];
        self.note_load_change(node);
    }

    fn open_connections(&self, node: NodeId) -> u32 {
        self.true_loads[node]
    }

    fn serving_nodes(&self) -> Vec<NodeId> {
        self.all_nodes.clone()
    }

    fn drain_messages(&mut self, out: &mut Vec<(NodeId, NodeId)>) {
        out.append(&mut self.outbox);
    }

    fn node_down(&mut self, now: SimTime, node: NodeId) {
        invariant!(self.alive[node], "node_down on a node that is already down");
        self.alive[node] = false;
        self.all_nodes.retain(|&n| n != node);
        // `all_nodes` may empty out entirely (all-down cluster);
        // arrivals are rejected before any decision can index it.
        // The crash is announced (the engine models its message costs);
        // every server set sheds the dead member. A set pruned empty
        // behaves like a never-requested file and is recreated on a live
        // node by the next request.
        for set in &mut self.sets {
            let before = set.members.len();
            set.members.retain(|&m| m != node);
            if set.members.len() != before {
                set.last_modified = now;
            }
        }
        // The dead node's load is *not* zeroed here: the engine settles
        // each of its in-flight requests through `complete` /
        // `abort_assigned`, keeping conservation exact.
    }

    fn node_up(&mut self, _now: SimTime, node: NodeId) {
        invariant!(!self.alive[node], "node_up on a node that is already up");
        self.alive[node] = true;
        self.all_nodes.push(node);
        self.all_nodes.sort_unstable();
        // Rejoin handshake: the returning node snapshots everyone's load
        // and everyone snapshots its (engine-settled) load, replacing the
        // views that went stale while it was away. This rare out-of-band
        // exchange is not charged as control messages.
        for o in 0..self.nodes {
            self.views[o][node] = self.true_loads[node];
            self.views[node][o] = self.true_loads[o];
        }
        self.last_broadcast[node] = self.true_loads[node];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2s(n: usize) -> L2s {
        L2s::new(n, L2sConfig::default())
    }

    /// Control messages queued since the last drain.
    fn drained(s: &mut L2s) -> usize {
        let mut out = Vec::new();
        s.drain_messages(&mut out);
        out.len()
    }

    #[test]
    fn sets_may_shrink_after_five_seconds() {
        assert_eq!(SHRINK_AFTER, SimDuration::from_secs_f64(5.0));
    }

    #[test]
    fn first_request_stays_local() {
        let mut s = l2s(4);
        let initial = s.arrival_node().unwrap();
        assert_eq!(s.assign(SimTime::ZERO, initial, 7.into()), initial);
        assert_eq!(s.server_set(7), &[initial]);
        // Set creation is broadcast to the other 3 nodes.
        assert_eq!(drained(&mut s), 3);
    }

    #[test]
    fn member_serves_its_own_requests_without_forwarding() {
        let mut s = l2s(4);
        let owner = s.arrival_node().unwrap();
        s.assign(SimTime::ZERO, owner, 7.into());
        // Same node receives the file again: serves locally.
        assert_eq!(s.assign(SimTime::ZERO, owner, 7.into()), owner);
    }

    #[test]
    fn non_member_forwards_to_the_set() {
        let mut s = l2s(4);
        let owner = s.arrival_node().unwrap();
        s.assign(SimTime::ZERO, owner, 7.into());
        let other = s.arrival_node().unwrap();
        assert_ne!(other, owner);
        let service = s.assign(SimTime::ZERO, other, 7.into());
        assert_eq!(service, owner, "request follows cache locality");
    }

    /// Gives `node` ownership of `count` fresh files (while underloaded,
    /// first requests stay local), starting at file id `base`.
    fn seed_files(s: &mut L2s, node: NodeId, base: u32, count: u32) {
        for f in base..base + count {
            let service = s.assign(SimTime::ZERO, node, f.into());
            assert_eq!(service, node, "seed request should stay local");
        }
    }

    /// Pumps `node`'s load past the overload threshold by forwarding
    /// requests for its files from `via` (whose own load stays low
    /// enough not to trigger replication).
    fn pump_via_forwards(s: &mut L2s, owner: NodeId, via: NodeId, base: u32, count: u32) {
        for i in 0..count {
            let service = s.assign(SimTime::ZERO, via, (base + (i % 5)).into());
            assert_eq!(service, owner);
        }
    }

    #[test]
    fn overload_on_both_sides_replicates() {
        let cfg = L2sConfig::default();
        let mut s = l2s(2);
        // Node 0 owns file 7 plus a working set, pumped past T by
        // forwards from node 1.
        s.assign(SimTime::ZERO, 0, 7.into());
        seed_files(&mut s, 0, 100, 5);
        pump_via_forwards(&mut s, 0, 1, 100, 22);
        assert!(s.open_connections(0) > cfg.t_high);
        // Node 1 fills with first requests of its own until overloaded.
        seed_files(&mut s, 1, 200, cfg.t_high + 1);
        assert!(s.open_connections(1) > cfg.t_high);
        assert_eq!(s.server_set(7).len(), 1);
        // Now a request for 7 lands on overloaded node 1 while the sole
        // member (node 0) is also overloaded: replication.
        let service = s.assign(SimTime::ZERO, 1, 7.into());
        assert_eq!(s.server_set(7).len(), 2, "replicated under dual overload");
        assert!(s.server_set(7).contains(&service));
    }

    #[test]
    fn no_replication_when_initial_is_underloaded() {
        let cfg = L2sConfig::default();
        let mut s = l2s(2);
        s.assign(SimTime::ZERO, 0, 7.into());
        seed_files(&mut s, 0, 100, 5);
        pump_via_forwards(&mut s, 0, 1, 100, 22);
        assert!(s.open_connections(0) > cfg.t_high);
        // Broadcasts (every 4 connections) keep node 1's view overloaded.
        assert!(s.viewed_load(1, 0) > cfg.t_high);
        // Node 1 is idle; it receives a request for 7. The set member is
        // overloaded but node 1 is not, so the request is still forwarded
        // (no replication).
        assert_eq!(s.assign(SimTime::ZERO, 1, 7.into()), 0);
        assert_eq!(s.server_set(7).len(), 1);
    }

    #[test]
    fn sets_shrink_when_underloaded_and_stale() {
        let mut s = l2s(2);
        // Build a replicated set by dual overload.
        s.assign(SimTime::ZERO, 0, 7.into());
        for _ in 0..30 {
            s.assign(SimTime::ZERO, 0, 7.into());
        }
        for _ in 0..30 {
            s.assign(SimTime::ZERO, 1, 9.into());
        }
        s.assign(SimTime::ZERO, 1, 7.into());
        assert_eq!(s.server_set(7).len(), 2);
        // Drain all load.
        for node in 0..2 {
            while s.open_connections(node) > 0 {
                s.complete(SimTime::ZERO, node, 7.into());
            }
        }
        // Well past the shrink interval, an underloaded assignment prunes
        // the set.
        let later = SimTime::from_secs_f64(60.0);
        s.assign(later, 0, 7.into());
        assert_eq!(s.server_set(7).len(), 1, "stale replica pruned");
    }

    #[test]
    fn load_broadcasts_fire_every_delta_changes() {
        let cfg = L2sConfig::default();
        let mut s = l2s(4);
        s.assign(SimTime::ZERO, 0, 1.into());
        assert_eq!(drained(&mut s), 3, "set creation");
        for _ in 0..cfg.broadcast_delta {
            s.assign(SimTime::ZERO, 0, 1.into());
        }
        // Load went 1 -> 5; threshold 4 tripped exactly once.
        assert_eq!(drained(&mut s), 3, "one broadcast of N-1 messages");
    }

    #[test]
    fn remote_views_are_stale_until_broadcast() {
        let mut s = l2s(4);
        s.assign(SimTime::ZERO, 0, 1.into());
        s.assign(SimTime::ZERO, 0, 1.into());
        // Node 3 has not heard anything yet (only 2 connections < delta).
        assert_eq!(s.viewed_load(3, 0), 0);
        assert_eq!(s.viewed_load(0, 0), 2, "own load always exact");
        // Two more trip the threshold.
        s.assign(SimTime::ZERO, 0, 1.into());
        s.assign(SimTime::ZERO, 0, 1.into());
        assert_eq!(s.viewed_load(3, 0), 4, "broadcast synchronized views");
    }

    #[test]
    fn completion_broadcasts_count_messages() {
        let cfg = L2sConfig::default();
        let mut s = l2s(4);
        for _ in 0..cfg.broadcast_delta {
            s.assign(SimTime::ZERO, 0, 1.into());
        }
        drained(&mut s);
        // Load is at 4 (broadcast happened). Four completions bring it to
        // 0, drifting 4 from the broadcast value: one more broadcast.
        for _ in 0..cfg.broadcast_delta {
            s.complete(SimTime::ZERO, 0, 1.into());
        }
        assert_eq!(drained(&mut s), 3);
    }

    #[test]
    fn all_nodes_serve() {
        let s = l2s(5);
        assert_eq!(s.serving_nodes(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_node_never_forwards() {
        let mut s = l2s(1);
        for f in 0..10u32 {
            assert_eq!(s.assign(SimTime::ZERO, 0, f.into()), 0);
            assert_eq!(drained(&mut s), 0, "no peers to notify");
        }
    }

    #[test]
    fn continuation_served_locally_by_set_member() {
        let mut s = l2s(4);
        // File 7 is owned by node 0, which also holds the connection.
        s.assign(SimTime::ZERO, 0, 7.into());
        let service = s.assign_continuation(SimTime::ZERO, 0, 7.into());
        assert_eq!(service, 0, "member holder serves without hand-off");
        assert_eq!(s.open_connections(0), 2);
    }

    #[test]
    fn continuation_at_non_member_runs_the_normal_algorithm() {
        let mut s = l2s(4);
        s.assign(SimTime::ZERO, 0, 7.into()); // node 0 owns file 7
                                              // Node 2 holds the connection but is not in 7's set: the request
                                              // is forwarded to the owner and the set stays clean.
        assert_eq!(s.assign_continuation(SimTime::ZERO, 2, 7.into()), 0);
        assert_eq!(s.server_set(7), &[0], "no affinity-driven replication");
    }

    #[test]
    fn continuation_for_unseen_file_behaves_like_first_request() {
        let mut s = l2s(3);
        let service = s.assign_continuation(SimTime::ZERO, 1, 99.into());
        assert_eq!(service, 1, "first touch stays local");
        assert_eq!(s.server_set(99), &[1]);
        assert_eq!(drained(&mut s), 2, "set creation broadcast to peers");
    }

    #[test]
    fn crash_prunes_sets_and_dns_rotation() {
        let mut s = l2s(3);
        s.assign(SimTime::ZERO, 1, 7.into());
        assert_eq!(s.server_set(7), &[1]);
        s.node_down(SimTime::ZERO, 1);
        assert_eq!(s.serving_nodes(), vec![0, 2]);
        // DNS skips the dead address.
        assert_eq!(s.arrival_node().unwrap(), 0);
        assert_eq!(s.arrival_node().unwrap(), 2);
        assert_eq!(s.arrival_node().unwrap(), 0);
        // The file's set was pruned empty, so the next request recreates
        // it on a live node.
        assert_eq!(s.assign(SimTime::ZERO, 0, 7.into()), 0);
        assert_eq!(s.server_set(7), &[0]);
    }

    #[test]
    fn dead_nodes_neither_send_nor_receive_broadcasts() {
        let cfg = L2sConfig::default();
        let mut s = l2s(3);
        s.node_down(SimTime::ZERO, 2);
        s.assign(SimTime::ZERO, 0, 1.into());
        let mut out = Vec::new();
        s.drain_messages(&mut out);
        assert_eq!(out, [(0, 1)], "set creation reaches only the live peer");
        for _ in 0..cfg.broadcast_delta {
            s.assign(SimTime::ZERO, 0, 1.into());
        }
        out.clear();
        s.drain_messages(&mut out);
        assert_eq!(out, [(0, 1)], "one load broadcast, to the one live peer");
        assert_eq!(s.viewed_load(1, 0), 4);
        assert_eq!(s.viewed_load(2, 0), 0, "dead observer heard nothing");
    }

    #[test]
    fn recovery_rejoins_with_synchronized_views() {
        let mut s = l2s(2);
        s.node_down(SimTime::ZERO, 1);
        for _ in 0..6 {
            s.assign(SimTime::ZERO, 0, 1.into());
        }
        assert_eq!(s.viewed_load(1, 0), 0, "no broadcasts while away");
        s.node_up(SimTime::ZERO, 1);
        assert_eq!(s.serving_nodes(), vec![0, 1]);
        assert_eq!(s.viewed_load(1, 0), 6, "rejoin snapshot syncs the view");
        assert_eq!(s.viewed_load(0, 1), 0, "peers snapshot the rejoiner");
    }

    #[test]
    fn completions_on_a_dead_node_settle_silently() {
        let mut s = l2s(2);
        for _ in 0..5 {
            s.assign(SimTime::ZERO, 0, 1.into());
        }
        s.node_down(SimTime::ZERO, 0);
        drained(&mut s);
        // The engine settles each in-flight request on the dead node; the
        // load drains without any broadcast traffic.
        for _ in 0..5 {
            s.complete(SimTime::ZERO, 0, 1.into());
        }
        assert_eq!(drained(&mut s), 0);
        assert_eq!(s.open_connections(0), 0);
    }

    #[test]
    fn replication_avoids_dead_nodes() {
        let cfg = L2sConfig::default();
        let mut s = l2s(3);
        s.node_down(SimTime::ZERO, 2);
        // Node 0 owns file 7 and is overloaded; node 1 is overloaded too,
        // so a request for 7 at node 1 replicates — but never onto the
        // dead node 2, even though it looks idle.
        s.assign(SimTime::ZERO, 0, 7.into());
        for _ in 0..cfg.t_high + 1 {
            s.assign(SimTime::ZERO, 0, 7.into());
        }
        for f in 0..cfg.t_high + 1 {
            s.assign(SimTime::ZERO, 1, (100 + f).into());
        }
        assert_ne!(s.assign(SimTime::ZERO, 1, 7.into()), 2);
        assert!(!s.server_set(7).contains(&2));
    }

    #[test]
    fn distinct_files_spread_across_nodes_via_dns() {
        let mut s = l2s(4);
        let mut used = [false; 4];
        for f in 0..8u32 {
            let initial = s.arrival_node().unwrap();
            used[s.assign(SimTime::ZERO, initial, f.into())] = true;
        }
        assert!(
            used.iter().all(|&u| u),
            "round-robin DNS spreads first requests"
        );
    }
}
