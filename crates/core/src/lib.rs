//! Request-distribution policies for cluster-based network servers — the
//! primary contribution of *Evaluating Cluster-Based Network Servers*
//! (Carrera & Bianchini, HPDC 2000).
//!
//! Three server organizations from the paper, plus two reference
//! baselines:
//!
//! * [`Traditional`] — locality-oblivious fewest-connections load
//!   balancing; every node serves its own requests from an independent
//!   cache.
//! * [`Lard`] — Locality-Aware Request Distribution (Pai et al., ASPLOS
//!   1998): a dedicated front-end assigns every request to a back-end
//!   according to per-file server sets with replication (LARD/R),
//!   thresholds `T_low`/`T_high`.
//! * [`L2s`] — the paper's Locality and Load balancing Server: *every*
//!   node accepts, distributes, and serves requests. Per-file server
//!   sets grow under overload (threshold `T`) and shrink under underload
//!   (threshold `t`); load is disseminated by threshold-triggered
//!   broadcasts, so each node decides on its own, possibly stale, view.
//! * [`RoundRobin`] and [`PureLocality`] — the isolated load-balancing /
//!   locality extremes the paper positions LARD and L2S against.
//!
//! Policies are pure decision logic: they see request arrivals and
//! completions, maintain their own (possibly stale) load views, and
//! queue the control messages they emit, but know nothing about event
//! scheduling. The simulator drains the queue and charges the
//! corresponding CPU/NI/switch costs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod driver;
mod jiq;
mod jsq;
mod l2s_policy;
mod lard;
mod ledger;
mod load_index;
mod sita;

pub use driver::{Placement, PolicyDriver};
pub use load_index::LoadIndex;

pub use baseline::{PureLocality, RoundRobin, Traditional};
pub use jiq::Jiq;
pub use jsq::Jsq;
pub use l2s_policy::{L2s, L2sConfig};
pub use lard::Lard;
pub use sita::Sita;

use l2s_cluster::FileId;
use l2s_util::SimTime;

/// Index of a cluster node.
pub type NodeId = usize;

/// Which distribution policy a server runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Fewest-connections, locality-oblivious (the paper's "traditional").
    Traditional,
    /// Round-robin assignment (pure load spreading, no state).
    RoundRobin,
    /// Static hash partitioning (pure locality, no load balancing).
    PureLocality,
    /// LARD/R with a dedicated front-end.
    Lard,
    /// Basic LARD (no replication): overload moves a file's single
    /// server rather than replicating it.
    LardBasic,
    /// LARD/R behind a dedicated *dispatcher* (Aron et al., USENIX
    /// 2000; the paper's Section 6): connections are accepted by all
    /// serving nodes, which query the dispatcher and hand off
    /// themselves.
    LardDispatcher,
    /// The paper's fully distributed L2S.
    L2s,
    /// JSQ(d) / power-of-d-choices: the switch samples `d` live nodes
    /// per arrival and delivers to the least loaded of the sample.
    Jsq,
    /// Join-idle-queue: arrivals go to a node that reported itself
    /// idle, or round-robin when none has.
    Jiq,
    /// Size-interval task assignment: each node owns a contiguous band
    /// of the file-size distribution.
    Sita,
}

impl PolicyKind {
    /// All policy kinds: the paper's comparison order, then the modern
    /// dispatcher zoo.
    pub fn all() -> [PolicyKind; 10] {
        [
            PolicyKind::Traditional,
            PolicyKind::RoundRobin,
            PolicyKind::PureLocality,
            PolicyKind::Lard,
            PolicyKind::LardBasic,
            PolicyKind::LardDispatcher,
            PolicyKind::L2s,
            PolicyKind::Jsq,
            PolicyKind::Jiq,
            PolicyKind::Sita,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Traditional => "traditional",
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::PureLocality => "pure-locality",
            PolicyKind::Lard => "lard",
            PolicyKind::LardBasic => "lard-basic",
            PolicyKind::LardDispatcher => "lard-dispatcher",
            PolicyKind::L2s => "l2s",
            PolicyKind::Jsq => "jsq",
            PolicyKind::Jiq => "jiq",
            PolicyKind::Sita => "sita",
        }
    }

    /// Builds the policy for an `n`-node cluster with the run's
    /// parameters. Every policy in the workspace is built here.
    pub fn build(&self, n: usize, params: &PolicyParams) -> Box<dyn Distributor> {
        match self {
            PolicyKind::Traditional => Box::new(Traditional::new(n)),
            PolicyKind::RoundRobin => Box::new(RoundRobin::new(n)),
            PolicyKind::PureLocality => Box::new(PureLocality::new(n)),
            PolicyKind::Lard => Box::new(Lard::new(n)),
            PolicyKind::LardBasic => Box::new(Lard::basic(n)),
            PolicyKind::LardDispatcher => Box::new(Lard::dispatcher(n)),
            PolicyKind::L2s => Box::new(L2s::new(n, params.l2s)),
            PolicyKind::Jsq => Box::new(Jsq::new(n, params.seed)),
            PolicyKind::Jiq => Box::new(Jiq::new(n)),
            PolicyKind::Sita => match &params.speeds {
                Some(speeds) => Box::new(Sita::weighted(n, speeds.clone())),
                None => Box::new(Sita::new(n)),
            },
        }
    }
}

/// The run parameters [`PolicyKind::build`] hands the policies. The
/// default is the paper's setup. LARD's thresholds and JSQ(d)'s `d` are
/// constants of their policies.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyParams {
    /// L2S thresholds (Section 5.1: `T = 20`, `t = 10`, broadcast delta
    /// 4).
    pub l2s: L2sConfig,
    /// The run seed, which JSQ(d) salts for its sample stream.
    pub seed: u64,
    /// Relative CPU speed per node on a heterogeneous cluster: SITA
    /// widens fast nodes' size bands in proportion. `None` for equally
    /// powerful nodes.
    pub speeds: Option<Vec<f64>>,
}

impl Default for PolicyParams {
    fn default() -> Self {
        PolicyParams {
            l2s: L2sConfig::default(),
            seed: 0x10ad_ba1e,
            speeds: None,
        }
    }
}

/// A request-distribution policy.
///
/// Protocol per request:
/// 1. [`Distributor::arrival_node`] — where the client connection lands
///    (round-robin DNS for L2S, the front-end for LARD, the
///    load-balancing switch's pick for the traditional server);
/// 2. [`Distributor::assign`] — the distribution decision made at that
///    node: returns the service node, and the policy increments its load
///    accounting for it. The request is handed off exactly when the
///    service node differs from the accepting one;
/// 3. [`Distributor::complete`] — the service node finished the request.
///
/// Any hook may queue control messages (load or server-set
/// dissemination, completion reports, dispatcher queries; never the
/// hand-off itself); [`Distributor::drain_messages`] hands them to the
/// caller, which charges and counts them.
pub trait Distributor {
    /// The policy's kind.
    fn kind(&self) -> PolicyKind;

    /// Where the next client connection lands, or `None` when no node
    /// can accept it (every candidate is down). A `None` is an explicit
    /// rejection: the caller counts the request as failed instead of
    /// routing it to a fabricated default. (An earlier version papered
    /// over the all-down case with `unwrap_or(0)`, silently resurrecting
    /// node 0.) [`Lard`] is the deliberate exception — its front-end /
    /// rotation target is returned even when dead, modeling the hardwired
    /// next hop whose liveness check the engine then fails. In the
    /// dispatcher organization ([`PolicyKind::LardDispatcher`]) a dead
    /// dispatcher answers no query, so every new connection is rejected
    /// with `None` until it recovers.
    fn arrival_node(&mut self) -> Option<NodeId>;

    /// Hints the number of distinct files in the workload (dense
    /// interned ids `0..n`), letting policies size their per-file tables
    /// up front instead of growing them on demand. Optional; a no-op by
    /// default.
    fn hint_files(&mut self, n: usize) {
        let _ = n;
    }

    /// Hints per-file sizes in KB, indexed by interned file id —
    /// modeling the administrator-supplied size census size-aware
    /// splitters are configured from. Called once per run, before any
    /// request. Only size-aware policies ([`Sita`]) override the
    /// default no-op.
    fn hint_file_sizes(&mut self, sizes: &[f64]) {
        let _ = sizes;
    }

    /// A continuation request arrived at `holder` over an existing
    /// persistent connection. Policies that count connections at the
    /// switch (fewest-connections) account it here; most need nothing.
    fn arrival_continuation(&mut self, holder: NodeId) {
        let _ = holder;
    }

    /// Distribution decision for a request for `file` accepted at
    /// `initial`: the node that will service it.
    fn assign(&mut self, now: SimTime, initial: NodeId, file: FileId) -> NodeId;

    /// Distribution decision for a *continuation* request on a
    /// persistent connection held by `holder` (the paper's Section 4
    /// points at the P-HTTP adaptations of its algorithms). The default
    /// treats it like a fresh request at `holder`; L2S and LARD override
    /// it with connection-affine rules.
    fn assign_continuation(&mut self, now: SimTime, holder: NodeId, file: FileId) -> NodeId {
        self.assign(now, holder, file)
    }

    /// The request for `file` being serviced at `node` completed.
    fn complete(&mut self, now: SimTime, node: NodeId, file: FileId);

    /// Ground-truth open connections at `node` (for metrics and tests;
    /// policies may internally act on stale views instead).
    fn open_connections(&self, node: NodeId) -> u32;

    /// Nodes that can service requests (excludes LARD's dedicated
    /// front-end).
    fn serving_nodes(&self) -> Vec<NodeId>;

    /// Drains the control messages emitted since the last drain into
    /// `out` as `(from, to)` node pairs, so the caller can count them and
    /// charge the CPU/NI costs at both endpoints. Every pair names two
    /// distinct nodes that were up when it was queued. Policies that
    /// never send messages use the default no-op.
    fn drain_messages(&mut self, out: &mut Vec<(NodeId, NodeId)>) {
        let _ = out;
    }

    /// `node` crashed at `now`. The policy must stop routing new work to
    /// it: exclude it from candidate sets, prune it from per-file server
    /// sets, and reassign any orphaned targets. It must **not** zero the
    /// node's load accounting — every in-flight request is individually
    /// settled by the engine through [`Distributor::complete`] or the
    /// abort hooks, keeping connection conservation exact. The default
    /// no-op is only correct for policies without membership state.
    fn node_down(&mut self, now: SimTime, node: NodeId) {
        let _ = (now, node);
    }

    /// `node` recovered at `now` and rejoins the candidate sets (with a
    /// cold cache and no open connections beyond the strays still being
    /// settled). The default no-op mirrors [`Distributor::node_down`].
    fn node_up(&mut self, now: SimTime, node: NodeId) {
        let _ = (now, node);
    }

    /// A request accepted at `initial` was lost *before* its distribution
    /// decision ran (the accepting node crashed). Policies that count the
    /// connection at [`Distributor::arrival_node`] /
    /// [`Distributor::arrival_continuation`] must release it here; the
    /// default no-op is for policies that only count at
    /// [`Distributor::assign`].
    fn abort_undecided(&mut self, now: SimTime, initial: NodeId) {
        let _ = (now, initial);
    }

    /// A request already assigned to `service` was abandoned mid-flight
    /// (the service node, or a node on the request's path, crashed).
    /// Releases exactly the accounting [`Distributor::assign`] took. The
    /// default treats it as a completion, which releases that accounting
    /// in every policy; a completion on a crashed node queues no
    /// message.
    fn abort_assigned(&mut self, now: SimTime, service: NodeId, file: FileId) {
        self.complete(now, service, file);
    }
}

/// Least-loaded choice with *rotating* tie-breaking.
///
/// Load views are quantized (they only move on threshold-triggered
/// broadcasts), so plain lowest-id tie-breaking makes every
/// decision-maker herd onto the same node between broadcasts — a queue
/// spike no real server exhibits. Scanning from a caller-advanced cursor
/// spreads tied choices evenly while staying deterministic.
pub(crate) fn argmin_rotating<T: PartialOrd + Copy>(
    candidates: &[usize],
    load_of: impl Fn(usize) -> T,
    cursor: &mut usize,
) -> usize {
    l2s_util::invariant!(!candidates.is_empty(), "argmin of empty candidate set");
    let n = candidates.len();
    let start = *cursor % n;
    *cursor = cursor.wrapping_add(1);
    let mut best = candidates[start];
    let mut best_load = load_of(best);
    // Wrap by branch instead of `(start + k) % n`: integer division per
    // candidate is measurable in the simulator's Decide handler.
    let mut idx = start;
    for _ in 1..n {
        idx += 1;
        if idx == n {
            idx = 0;
        }
        let c = candidates[idx];
        let l = load_of(c);
        if l < best_load {
            best = c;
            best_load = l;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_names_and_builders() {
        for kind in PolicyKind::all() {
            let policy = kind.build(4, &PolicyParams::default());
            assert_eq!(policy.kind(), kind);
            assert!(!kind.name().is_empty());
            assert!(!policy.serving_nodes().is_empty());
        }
    }

    #[test]
    fn every_policy_conserves_connections() {
        for kind in PolicyKind::all() {
            let n = 4;
            let mut policy = kind.build(n, &PolicyParams::default());
            let now = SimTime::ZERO;
            let mut in_flight: Vec<(NodeId, FileId)> = Vec::new();
            for file in 0..50u32 {
                let initial = policy.arrival_node().expect("healthy cluster accepts");
                let service = policy.assign(now, initial, (file % 7).into());
                in_flight.push((service, (file % 7).into()));
            }
            let total: u32 = (0..n).map(|i| policy.open_connections(i)).sum();
            assert_eq!(total, 50, "{}: open != assigned", kind.name());
            for (node, file) in in_flight {
                policy.complete(now, node, file);
            }
            let total: u32 = (0..n).map(|i| policy.open_connections(i)).sum();
            assert_eq!(total, 0, "{}: connections leaked", kind.name());
        }
    }

    #[test]
    fn service_nodes_are_in_range() {
        for kind in PolicyKind::all() {
            let n = 3;
            let mut policy = kind.build(n, &PolicyParams::default());
            for file in 0..30u32 {
                let initial = policy.arrival_node().expect("healthy cluster accepts");
                assert!(initial < n);
                let service = policy.assign(SimTime::ZERO, initial, file.into());
                assert!(service < n, "{}: service out of range", kind.name());
            }
        }
    }
}
