//! LARD/R — Locality-Aware Request Distribution with Replication
//! (Pai et al., ASPLOS 1998), as re-implemented by the paper's Section 5.
//!
//! A dedicated front-end node accepts and parses every client request
//! and hands it off to a back-end chosen from the file's *server set*:
//!
//! ```text
//! if serverSet(file) is empty:
//!     n <- least-loaded back-end; serverSet(file) = {n}
//! else:
//!     n <- least-loaded member of serverSet(file)
//!     m <- least-loaded back-end overall
//!     if (load(n) > T_high and load(m) < T_low) or load(n) >= 2*T_high:
//!         add m to serverSet(file); n <- m
//!     if |serverSet(file)| > 1 and file not served-and-modified
//!        within K seconds: remove the most-loaded member
//! hand off to n
//! ```
//!
//! The front-end's load view is its own bookkeeping: it increments a
//! back-end's count at hand-off and decrements when the back-end reports
//! completions, which it does in batches of
//! [`LardConfig::report_batch`] ("a back-end node in the LARD server
//! only updates its load information at the front-end when 4 local
//! connections have terminated since the last update").

use crate::ledger::release;
use crate::{argmin_rotating, Distributor, LoadIndex, NodeId, PolicyKind};
use l2s_cluster::FileId;
use l2s_util::{invariant, SimDuration, SimTime};

/// LARD tuning parameters; defaults are the values of Pai et al. that
/// the paper adopts ("the same execution parameters as determined by
/// the designers of LARD").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LardConfig {
    /// `T_low` — a node below this many connections has idle capacity
    /// (default 25).
    pub t_low: u32,
    /// `T_high` — a node above this many connections is overloaded
    /// (default 65).
    pub t_high: u32,
    /// Server sets older than this with more than one member shed their
    /// most-loaded member (default 20 s).
    pub shrink_after: SimDuration,
    /// Completions a back-end batches before reporting to the front-end
    /// (default 4).
    pub report_batch: u32,
}

impl Default for LardConfig {
    fn default() -> Self {
        LardConfig {
            t_low: 25,
            t_high: 65,
            shrink_after: SimDuration::from_secs_f64(20.0),
            report_batch: 4,
        }
    }
}

/// Per-file server set, stored densely by interned [`FileId`]. Empty
/// `members` means the file has never been requested (the algorithm
/// never shrinks a set below one member once created).
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

/// Which flavor of LARD the server runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LardMode {
    /// LARD/R: hot files replicate onto additional back-ends (the
    /// variant the paper compares L2S against).
    Replicated,
    /// Basic LARD (Pai et al.'s simpler algorithm): a file has exactly
    /// one server at a time; overload *moves* it instead of replicating.
    Basic,
}

/// Back-end range for an `n`-node LARD server (degenerate at `n = 1`).
fn back_end_range(n: usize) -> std::ops::Range<NodeId> {
    if n == 1 {
        0..1
    } else {
        1..n
    }
}

/// The LARD/R server. Node 0 is the dedicated front-end: it distributes
/// but never serves (and its cache space is wasted — one of the
/// limitations motivating L2S). With a single node the server
/// degenerates to serving locally.
#[derive(Clone, Debug)]
pub struct Lard {
    config: LardConfig,
    nodes: usize,
    mode: LardMode,
    /// Dispatcher organization (Aron et al., USENIX 2000, discussed in
    /// the paper's Section 6): client connections are accepted by every
    /// non-dispatcher node, which queries the dispatcher (node 0) for
    /// the target and hands the connection off itself. Costs a two-way
    /// message per request but removes connection establishment from
    /// the bottleneck node.
    dispatched: bool,
    next_arrival: NodeId,
    /// Ground-truth open connections per node.
    true_loads: Vec<u32>,
    /// The front-end's view of back-end loads.
    viewed_loads: Vec<u32>,
    /// Completions not yet reported to the front-end, per back-end.
    unreported: Vec<u32>,
    /// `sets[file.index()]` — dense by interned file id, grown on demand
    /// (or up front via `hint_files`).
    sets: Vec<ServerSet>,
    /// The *live* back-end node ids, precomputed so least-loaded scans
    /// borrow instead of collecting.
    back_ends: Vec<NodeId>,
    /// Least-loaded index mirroring `viewed_loads` over exactly the
    /// `back_ends` membership, so the whole-cluster scans in `assign`
    /// cost O(log n) per request instead of O(n). Member-set scans stay
    /// naive — sets are bounded by the replication degree.
    view_index: LoadIndex,
    /// Per-node liveness; crashed back-ends leave every server set, and
    /// a crashed front-end loses its distribution state.
    alive: Vec<bool>,
    /// Rotating tie-break cursor for least-loaded selections.
    tie_cursor: usize,
    /// Control messages emitted since the last drain.
    outbox: Vec<(NodeId, NodeId)>,
}

impl Lard {
    /// A LARD/R server over `n` nodes (front-end plus `n - 1`
    /// back-ends).
    pub fn new(n: usize, config: LardConfig) -> Self {
        Self::build(n, config, LardMode::Replicated, false)
    }

    /// Basic LARD (no replication): overload moves a file's single
    /// server instead of replicating it.
    pub fn basic(n: usize, config: LardConfig) -> Self {
        Self::build(n, config, LardMode::Basic, false)
    }

    /// The dispatcher organization of Section 6: connections land on the
    /// serving nodes round-robin; the distribution decision costs a
    /// two-way message to the dedicated dispatcher (node 0).
    pub fn dispatcher(n: usize, config: LardConfig) -> Self {
        Self::build(n, config, LardMode::Replicated, true)
    }

    fn build(n: usize, config: LardConfig, mode: LardMode, dispatched: bool) -> Self {
        l2s_util::invariant!(n >= 1, "need at least one node");
        l2s_util::invariant!(config.t_low < config.t_high, "T_low must be below T_high");
        l2s_util::invariant!(config.report_batch >= 1, "report batch must be at least 1");
        let mut view_index = LoadIndex::new(n);
        for node in back_end_range(n) {
            view_index.insert(node, 0);
        }
        Lard {
            config,
            nodes: n,
            mode,
            dispatched,
            next_arrival: if n == 1 { 0 } else { 1 },
            true_loads: vec![0; n],
            viewed_loads: vec![0; n],
            unreported: vec![0; n],
            sets: Vec::new(),
            back_ends: back_end_range(n).collect(),
            view_index,
            alive: vec![true; n],
            tie_cursor: 0,
            outbox: Vec::new(),
        }
    }

    /// The dedicated front-end node.
    pub fn front_end(&self) -> NodeId {
        0
    }

    /// Members of `file`'s server set (empty if never requested). For
    /// tests and analysis.
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
}

impl Distributor for Lard {
    fn kind(&self) -> PolicyKind {
        match (self.mode, self.dispatched) {
            (LardMode::Replicated, false) => PolicyKind::Lard,
            (LardMode::Basic, _) => PolicyKind::LardBasic,
            (LardMode::Replicated, true) => PolicyKind::LardDispatcher,
        }
    }

    fn hint_files(&mut self, n: usize) {
        if self.sets.len() < n {
            self.sets.resize_with(n, ServerSet::default);
        }
    }

    fn arrival_node(&mut self) -> Option<NodeId> {
        // LARD deliberately answers `Some` even for a dead next hop:
        // clients target a hardwired address (the front-end, or the DNS
        // rotation's next serving node) whether or not it is up, and the
        // engine's liveness check fails the connection there. This
        // models the dedicated distributor's failure mode rather than an
        // all-knowing switch that rejects up front. A dead dispatcher is
        // the exception: the accepting node's query goes unanswered, so
        // the connection fails without reaching any node.
        if self.dispatched && self.nodes > 1 {
            if !self.alive[self.front_end()] {
                return None;
            }
            // Round-robin DNS over the serving nodes, skipping dead
            // addresses (the client's retry lands on the next name).
            let span = self.nodes - 1;
            for step in 0..span {
                let candidate = 1 + (self.next_arrival - 1 + step) % span;
                if self.alive[candidate] {
                    self.next_arrival = 1 + (candidate % span);
                    return Some(candidate);
                }
            }
            // Every serving node is down: the connection attempt targets
            // the rotation's next address anyway and the engine fails it.
            let node = self.next_arrival;
            self.next_arrival = 1 + (node % span);
            Some(node)
        } else {
            // Every client connection goes to the front-end (if the
            // front-end is down, the connection attempt simply fails —
            // the dedicated distributor is a single point of failure).
            Some(self.front_end())
        }
    }

    fn assign(&mut self, now: SimTime, initial: NodeId, file: FileId) -> NodeId {
        // New client connections land on the front-end (or, in the
        // dispatcher organization, on any serving node). With persistent
        // connections, later requests of a connection originate at the
        // back-end currently holding it, so `initial` may be any node;
        // the distribution decision is unchanged (the paper's Section 4
        // points to Aron et al. '99 for the P-HTTP handling).
        self.ensure_file(file);
        if self.back_ends.is_empty() {
            // Every back-end is down: there is no server to pick. The
            // request is handed to the lowest (dead) back-end id and the
            // engine's liveness check fails it at hand-off; no server set
            // is created for the file.
            let target = back_end_range(self.nodes).start;
            self.true_loads[target] += 1;
            self.viewed_loads[target] += 1;
            return target;
        }
        let cfg = self.config;
        let mode = self.mode;
        // Disjoint borrows of the decision tables so the hot path never
        // clones the load view or the candidate list. `viewed_loads` is
        // only mutated after the decision, so borrowing it is equivalent
        // to the snapshot the front-end acts on.
        let Lard {
            viewed_loads,
            sets,
            view_index,
            tie_cursor,
            ..
        } = self;
        let loads = &*viewed_loads;
        let set = &mut sets[file.index()];
        let target = if set.members.is_empty() {
            // Whole-cluster least-loaded pick via the index
            // (selection-identical to the old scan over `back_ends`,
            // which is non-empty here). The view index mirrors
            // `back_ends`, so the pick always exists; an empty index
            // here would be state corruption, not an all-down cluster
            // (that case was handed off above), and must fail loudly
            // rather than silently become node 0.
            let n = view_index.argmin_rotating(tie_cursor).unwrap_or_else(|| {
                l2s_util::invariant::invariant_failed(format_args!(
                    "back-end view index empty while back_ends is non-empty"
                ))
            });
            set.members.push(n);
            set.last_modified = now;
            n
        } else {
            let n = argmin_rotating(&set.members, |m| loads[m], tie_cursor);
            let m = view_index.argmin_rotating(tie_cursor).unwrap_or_else(|| {
                l2s_util::invariant::invariant_failed(format_args!(
                    "back-end view index empty while back_ends is non-empty"
                ))
            });
            let mut chosen = n;
            let overloaded =
                loads[n] > cfg.t_high && loads[m] < cfg.t_low || loads[n] >= 2 * cfg.t_high;
            if overloaded {
                match mode {
                    LardMode::Replicated => {
                        if !set.members.contains(&m) {
                            set.members.push(m);
                            set.last_modified = now;
                        }
                    }
                    LardMode::Basic => {
                        // Basic LARD moves the file: the single
                        // server is replaced outright.
                        set.members.clear();
                        set.members.push(m);
                        set.last_modified = now;
                    }
                }
                chosen = m;
            }
            // Replication decay: old multi-member sets shed their
            // most-loaded member.
            if set.members.len() > 1 && now.saturating_since(set.last_modified) > cfg.shrink_after {
                if let Some(&most) = set.members.iter().max_by_key(|&&mm| (loads[mm], mm)) {
                    set.members.retain(|&mm| mm != most);
                    set.last_modified = now;
                    if chosen == most {
                        if let Some(&least) = set.members.iter().min_by_key(|&&mm| (loads[mm], mm))
                        {
                            chosen = least;
                        }
                    }
                }
            }
            chosen
        };
        self.true_loads[target] += 1;
        // The front-end/dispatcher made the assignment, so its view
        // updates immediately.
        self.viewed_loads[target] += 1;
        self.view_index
            .set_if_present(target, self.viewed_loads[target]);
        if self.dispatched && self.nodes > 1 && self.alive[self.front_end()] {
            // Query + reply between the accepting node and the
            // dispatcher.
            self.outbox.push((initial, self.front_end()));
            self.outbox.push((self.front_end(), initial));
        }
        target
    }

    /// P-HTTP adaptation (Aron et al., USENIX '99): a back-end holding a
    /// persistent connection serves the next request itself when it is
    /// already in the file's server set; otherwise the connection is
    /// handed off per the normal front-end decision.
    fn assign_continuation(&mut self, now: SimTime, holder: NodeId, file: FileId) -> NodeId {
        let in_set = self
            .sets
            .get(file.index())
            .map(|s| s.members.contains(&holder))
            .unwrap_or(false);
        if in_set {
            self.true_loads[holder] += 1;
            self.viewed_loads[holder] += 1;
            self.view_index
                .set_if_present(holder, self.viewed_loads[holder]);
            holder
        } else {
            self.assign(now, holder, file)
        }
    }

    fn complete(&mut self, _now: SimTime, node: NodeId, _file: FileId) {
        release(&mut self.true_loads, node);
        if !self.alive[node] {
            // An engine-settled connection on a crashed node: the
            // front-end observes the connection reset directly, so the
            // view updates without a report message. (A dead node is
            // absent from the index, so there is nothing to mirror.)
            self.viewed_loads[node] = self.viewed_loads[node].saturating_sub(1);
            return;
        }
        self.unreported[node] += 1;
        if self.unreported[node] >= self.config.report_batch {
            let batch = self.unreported[node];
            self.unreported[node] = 0;
            self.viewed_loads[node] = self.viewed_loads[node].saturating_sub(batch);
            self.view_index
                .set_if_present(node, self.viewed_loads[node]);
            // One report message to the front-end, unless the server is
            // the degenerate single node (the "report" is local) or there
            // is no front-end to report to.
            if node != self.front_end() && self.alive[self.front_end()] {
                self.outbox.push((node, self.front_end()));
            }
        }
    }

    fn open_connections(&self, node: NodeId) -> u32 {
        self.true_loads[node]
    }

    fn serving_nodes(&self) -> Vec<NodeId> {
        self.back_ends.clone()
    }

    fn drain_messages(&mut self, out: &mut Vec<(NodeId, NodeId)>) {
        out.append(&mut self.outbox);
    }

    fn node_down(&mut self, now: SimTime, node: NodeId) {
        invariant!(self.alive[node], "node_down on a node that is already down");
        self.alive[node] = false;
        if node == self.front_end() && self.nodes > 1 {
            // The front-end's distribution state — server sets, load
            // views, report counters — dies with it and is rebuilt from
            // scratch at recovery.
            for set in &mut self.sets {
                if !set.members.is_empty() {
                    set.members.clear();
                    set.last_modified = now;
                }
            }
        } else {
            // A dead back-end leaves the candidate list and every server
            // set; files it owned alone are reassigned by their next
            // request (set pruned empty = never requested).
            self.back_ends.retain(|&b| b != node);
            self.view_index.remove(node);
            for set in &mut self.sets {
                let before = set.members.len();
                set.members.retain(|&m| m != node);
                if set.members.len() != before {
                    set.last_modified = now;
                }
            }
        }
        // The dead node's load is *not* zeroed here: the engine settles
        // each of its in-flight requests through `complete` /
        // `abort_assigned`, keeping conservation exact.
    }

    fn node_up(&mut self, _now: SimTime, node: NodeId) {
        invariant!(!self.alive[node], "node_up on a node that is already up");
        self.alive[node] = true;
        if node == self.front_end() && self.nodes > 1 {
            // Recovery handshake: the restarted front-end polls every
            // node for its true load and starts report counters afresh.
            // This rare out-of-band exchange is not charged as messages.
            self.viewed_loads.copy_from_slice(&self.true_loads);
            self.unreported.fill(0);
            for &b in &self.back_ends {
                self.view_index.update(b, self.viewed_loads[b]);
            }
        } else {
            self.back_ends.push(node);
            self.back_ends.sort_unstable();
            self.viewed_loads[node] = self.true_loads[node];
            self.unreported[node] = 0;
            self.view_index.insert(node, self.viewed_loads[node]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lard(n: usize) -> Lard {
        Lard::new(n, LardConfig::default())
    }

    /// Control messages queued since the last drain.
    fn drained(l: &mut Lard) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        l.drain_messages(&mut out);
        out
    }

    #[test]
    fn front_end_never_serves() {
        let mut l = lard(4);
        for f in 0..100u32 {
            let initial = l.arrival_node().unwrap();
            assert_eq!(initial, 0);
            let service = l.assign(SimTime::ZERO, initial, f.into());
            assert_ne!(
                service, 0,
                "front-end must not serve, so every request is handed off"
            );
        }
        assert_eq!(l.open_connections(0), 0);
    }

    #[test]
    fn first_request_picks_least_loaded_back_end() {
        let mut l = lard(3);
        // Preload back-end 1 with traffic for another file.
        for _ in 0..5 {
            l.assign(SimTime::ZERO, 0, 99.into());
        }
        // First request picked node 1 (both idle, lowest id). Now file 7
        // must go to node 2 if 1 is busier.
        let busier = l.server_set(99)[0];
        let service = l.assign(SimTime::ZERO, 0, 7.into());
        assert_ne!(service, busier);
        assert_eq!(l.server_set(7), &[service]);
    }

    #[test]
    fn requests_stick_to_the_server_set() {
        let mut l = lard(4);
        let first = l.assign(SimTime::ZERO, 0, 5.into());
        for _ in 0..20 {
            let service = l.assign(SimTime::ZERO, 0, 5.into());
            assert_eq!(service, first, "below T_high the set never grows");
        }
        assert_eq!(l.server_set(5).len(), 1);
    }

    #[test]
    fn overload_replicates_the_file() {
        let mut l = lard(3);
        let owner = l.assign(SimTime::ZERO, 0, 5.into());
        // Push the owner past T_high while the other back-end stays idle.
        for _ in 0..70 {
            l.assign(SimTime::ZERO, 0, 5.into());
        }
        assert!(l.open_connections(owner) > LardConfig::default().t_high);
        let service = l.assign(SimTime::ZERO, 0, 5.into());
        assert_ne!(service, owner, "hot file spills to an idle node");
        assert_eq!(l.server_set(5).len(), 2, "set grew");
    }

    #[test]
    fn stale_sets_shrink_after_interval() {
        let mut l = lard(3);
        // Build a two-member set.
        for _ in 0..72 {
            l.assign(SimTime::ZERO, 0, 5.into());
        }
        assert_eq!(l.server_set(5).len(), 2);
        // Drain everything so loads are 0 and report.
        for node in [1usize, 2] {
            while l.open_connections(node) > 0 {
                l.complete(SimTime::ZERO, node, 5.into());
            }
        }
        // Much later, the next request shrinks the set back to one.
        let later = SimTime::from_secs_f64(100.0);
        l.assign(later, 0, 5.into());
        assert_eq!(l.server_set(5).len(), 1, "stale replica removed");
    }

    #[test]
    fn completions_report_in_batches() {
        let mut l = lard(2);
        for _ in 0..8 {
            l.assign(SimTime::ZERO, 0, 1.into());
        }
        for _ in 0..8 {
            l.complete(SimTime::ZERO, 1, 1.into());
        }
        assert_eq!(
            drained(&mut l),
            [(1, 0), (1, 0)],
            "8 completions / batch of 4 = 2 reports"
        );
    }

    #[test]
    fn viewed_load_lags_true_load() {
        let mut l = lard(2);
        for _ in 0..4 {
            l.assign(SimTime::ZERO, 0, 1.into());
        }
        // 3 completions: unreported, front-end still sees 4.
        for _ in 0..3 {
            l.complete(SimTime::ZERO, 1, 1.into());
        }
        assert!(drained(&mut l).is_empty());
        assert_eq!(l.open_connections(1), 1);
        assert_eq!(l.viewed_loads[1], 4, "view is stale until the batch");
        l.complete(SimTime::ZERO, 1, 1.into());
        assert_eq!(drained(&mut l), [(1, 0)]);
        assert_eq!(l.viewed_loads[1], 0, "batch report synchronizes view");
    }

    #[test]
    fn single_node_degenerates_to_local_service() {
        let mut l = lard(1);
        let initial = l.arrival_node().unwrap();
        assert_eq!(initial, 0);
        assert_eq!(l.assign(SimTime::ZERO, initial, 3.into()), 0);
        assert_eq!(l.serving_nodes(), vec![0]);
    }

    #[test]
    fn serving_nodes_excludes_front_end() {
        let l = lard(5);
        assert_eq!(l.serving_nodes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn continuation_sticks_to_set_member() {
        let mut l = lard(3);
        let owner = l.assign(SimTime::ZERO, 0, 5.into());
        // The owner holds a persistent connection: the next request for
        // 5 is served locally without a hand-off.
        assert_eq!(l.assign_continuation(SimTime::ZERO, owner, 5.into()), owner);
    }

    #[test]
    fn continuation_for_foreign_file_is_handed_off() {
        let mut l = lard(3);
        let owner = l.assign(SimTime::ZERO, 0, 5.into());
        let other = if owner == 1 { 2 } else { 1 };
        // `other` holds the connection but is not in 5's server set: the
        // normal algorithm decides (and keeps the single owner).
        assert_eq!(l.assign_continuation(SimTime::ZERO, other, 5.into()), owner);
        assert_eq!(l.server_set(5), &[owner]);
    }

    #[test]
    fn basic_lard_moves_instead_of_replicating() {
        let cfg = LardConfig::default();
        let mut l = Lard::basic(3, cfg);
        let owner = l.assign(SimTime::ZERO, 0, 5.into());
        // Push the owner past 2*T_high so the move rule fires even
        // without an idle target.
        for _ in 0..(2 * cfg.t_high + 2) {
            l.assign(SimTime::ZERO, 0, 5.into());
        }
        let set = l.server_set(5);
        assert_eq!(set.len(), 1, "basic LARD never replicates");
        assert_ne!(set[0], owner, "the file moved to another back-end");
    }

    #[test]
    fn dispatcher_variant_accepts_on_back_ends() {
        let mut l = Lard::dispatcher(4, LardConfig::default());
        let arrivals: Vec<_> = (0..6).map(|_| l.arrival_node().unwrap()).collect();
        assert_eq!(
            arrivals,
            vec![1, 2, 3, 1, 2, 3],
            "round-robin over serving nodes"
        );
        assert_ne!(
            l.assign(SimTime::ZERO, 1, 9.into()),
            0,
            "dispatcher itself never serves"
        );
        assert_eq!(
            drained(&mut l),
            [(1, 0), (0, 1)],
            "query + reply to the dispatcher"
        );
    }

    #[test]
    fn back_end_crash_reassigns_orphaned_files() {
        let mut l = lard(3);
        let owner = l.assign(SimTime::ZERO, 0, 5.into());
        l.node_down(SimTime::ZERO, owner);
        assert_eq!(l.serving_nodes().len(), 1);
        assert!(l.server_set(5).is_empty(), "orphaned set pruned");
        let service = l.assign(SimTime::ZERO, 0, 5.into());
        assert_ne!(service, owner, "file reassigned to a live back-end");
        assert_eq!(l.server_set(5), &[service]);
        l.node_up(SimTime::ZERO, owner);
        assert_eq!(l.serving_nodes(), vec![1, 2]);
    }

    #[test]
    fn all_back_ends_down_fails_deterministically() {
        let mut l = lard(3);
        l.node_down(SimTime::ZERO, 1);
        l.node_down(SimTime::ZERO, 2);
        let service = l.assign(SimTime::ZERO, 0, 5.into());
        assert_eq!(service, 1, "handed to the lowest back-end id (dead)");
        assert!(l.server_set(5).is_empty(), "no set created while headless");
        // The engine settles the doomed hand-off; load conservation holds.
        l.complete(SimTime::ZERO, 1, 5.into());
        assert!(drained(&mut l).is_empty());
        assert_eq!(l.open_connections(1), 0);
    }

    #[test]
    fn dead_back_end_completions_reset_without_reports() {
        let mut l = lard(2);
        for _ in 0..8 {
            l.assign(SimTime::ZERO, 0, 1.into());
        }
        l.node_down(SimTime::ZERO, 1);
        for _ in 0..8 {
            l.complete(SimTime::ZERO, 1, 1.into());
        }
        assert!(
            drained(&mut l).is_empty(),
            "connection resets, not report messages"
        );
        assert_eq!(l.viewed_loads[1], 0, "the view settles with the resets");
        assert_eq!(l.open_connections(1), 0);
    }

    #[test]
    fn front_end_crash_wipes_state_and_recovery_resyncs() {
        let mut l = lard(3);
        let owner = l.assign(SimTime::ZERO, 0, 5.into());
        for _ in 0..7 {
            l.assign(SimTime::ZERO, 0, 5.into());
        }
        l.node_down(SimTime::ZERO, 0);
        assert!(l.server_set(5).is_empty(), "sets die with the front-end");
        // Completions while headless produce no report messages.
        for _ in 0..4 {
            l.complete(SimTime::ZERO, owner, 5.into());
        }
        assert!(drained(&mut l).is_empty(), "no reports to a dead front-end");
        l.node_up(SimTime::ZERO, 0);
        assert_eq!(
            l.viewed_loads[owner],
            l.open_connections(owner),
            "recovery handshake resyncs the view"
        );
        let service = l.assign(SimTime::ZERO, 0, 5.into());
        assert_eq!(l.server_set(5), &[service], "distribution restarts");
    }

    #[test]
    fn dispatcher_rotation_skips_dead_acceptors() {
        let mut l = Lard::dispatcher(4, LardConfig::default());
        l.node_down(SimTime::ZERO, 2);
        let arrivals: Vec<_> = (0..4).map(|_| l.arrival_node().unwrap()).collect();
        assert_eq!(arrivals, vec![1, 3, 1, 3], "dead acceptor skipped");
        l.node_up(SimTime::ZERO, 2);
        let arrivals: Vec<_> = (0..3).map(|_| l.arrival_node().unwrap()).collect();
        assert_eq!(arrivals, vec![1, 2, 3], "rotation heals on recovery");
    }

    #[test]
    fn dispatcher_can_pick_the_accepting_node() {
        let mut l = Lard::dispatcher(2, LardConfig::default());
        // Only one back-end: it accepts and serves everything itself.
        let initial = l.arrival_node().unwrap();
        assert_eq!(initial, 1);
        assert_eq!(
            l.assign(SimTime::ZERO, initial, 3.into()),
            1,
            "no hand-off when the decision is local"
        );
    }

    #[test]
    fn dead_dispatcher_rejects_connections_and_sends_nothing() {
        let mut l = Lard::dispatcher(4, LardConfig::default());
        let initial = l.arrival_node().unwrap();
        let service = l.assign(SimTime::ZERO, initial, 3.into());
        let mut open = vec![service];
        drained(&mut l);
        l.node_down(SimTime::ZERO, 0);
        assert_eq!(l.arrival_node(), None, "no dispatcher to query");
        // Held connections still get decisions, but neither they nor a
        // full batch of completions queue anything for the dead
        // dispatcher.
        for _ in 0..3 {
            open.push(l.assign_continuation(SimTime::ZERO, service, 4.into()));
        }
        for node in open {
            l.complete(SimTime::ZERO, node, 4.into());
        }
        assert!(drained(&mut l).is_empty(), "nothing addressed to node 0");
        l.node_up(SimTime::ZERO, 0);
        assert!(l.arrival_node().is_some(), "service resumes on recovery");
    }
}
