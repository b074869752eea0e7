//! The event-driven simulation engine.

use crate::arena::{Flow, ReqArena, ReqId, Route, Timing};
use crate::workload::{ModulatedWorkload, TraceWorkload, Workload};
use crate::{ratio, ArrivalMode, FaultKind, SimConfig, SimReport};
use l2s::{Distributor, NodeId, PolicyKind};
use l2s_cluster::{build_nodes_profiled, FileId, NodeHardware};
use l2s_devs::EventQueue;
use l2s_net::Fabric;
use l2s_trace::{FileSet, Trace};
use l2s_util::stats::quantile;
use l2s_util::{cast, invariant, DetRng, OnlineStats, SimDuration, SimTime};

/// CPU scheduling quantum (500 µs): reply processing (the `µm` cost, up
/// to several ms for large files) is charged in chunks of this size so
/// short operations (parse, forward, message handling) interleave with
/// long sends the way a time-shared CPU sending TCP segments actually
/// behaves. Without it, a run-to-completion FIFO CPU makes every 160 µs
/// parse wait behind whole multi-ms replies — head-of-line blocking no
/// real server exhibits.
const CPU_QUANTUM: SimDuration = SimDuration::from_micros(500);

/// Client-side delay before a crash-aborted request retries, modeling
/// connection-timeout detection (0.5 s).
const RETRY_DELAY: SimDuration = SimDuration::from_millis(500);

/// Lifecycle events. Each event marks a request's *arrival* at a
/// contended station, so every FIFO queue sees jobs in true arrival
/// order.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Reached the initial node's inbound NI (after router + switch).
    NicIn(ReqId),
    /// Reached the initial node's CPU for parsing.
    Parse(ReqId),
    /// Parse finished; run the distribution policy.
    Decide(ReqId),
    /// Hand-off message entered the initial node's outbound NI.
    HandoffOut(ReqId),
    /// Hand-off message reached the service node's inbound NI.
    HandoffIn(ReqId),
    /// Ready on the service node: cache lookup, then memory or disk.
    Serve(ReqId),
    /// Disk read finished; the reply runs on the CPU.
    ReplyReady(ReqId),
    /// One CPU quantum of reply processing finished; more remains.
    ReplyChunk(ReqId),
    /// Reply entered the service node's outbound NI.
    NicOut(ReqId),
    /// Reply reached the router.
    RouterOut(ReqId),
    /// Reply left the cluster; the connection closes (or issues its next
    /// request, if persistent).
    Done(ReqId),
    /// Open-loop mode: the next Poisson client arrival.
    ClientArrival,
    /// DFS fetch request arrived at the file's home node.
    DfsRead(ReqId),
    /// DFS home disk read finished; ship the file back.
    DfsTransfer(ReqId),
    /// DFS file arrived back at the requesting node's NI.
    DfsBack(ReqId),
    /// A scheduled fault fires on a node (`true` = recovery). The node
    /// id is stored narrow so `Ev` stays 8 bytes — the queue moves
    /// every event through its lanes several times, and halving the
    /// payload halves that traffic.
    Fault(u32, bool),
    /// A crash-aborted request re-enters the cluster after the client's
    /// timeout-and-retry delay.
    Retry(ReqId),
}

/// Cluster phases for degraded-mode bookkeeping: before the first
/// crash, while at least one node is down, after the last recovery.
const PHASE_HEALTHY: usize = 0;
/// At least one node is currently down.
const PHASE_DEGRADED: usize = 1;
/// Every node is back up after at least one crash.
const PHASE_RECOVERED: usize = 2;

/// Measurement accumulators (reset between warm-up and measurement).
#[derive(Default)]
struct Measure {
    started_at: SimTime,
    completed: u64,
    forwarded: u64,
    decided: u64,
    control_msgs: u64,
    response_s: Vec<f64>,
    /// Streaming response-time moments for runs that disable
    /// per-request samples (`SimConfig::response_samples = false`).
    resp_stats: OnlineStats,
    seg_ingress: OnlineStats,
    seg_handoff: OnlineStats,
    seg_service: OnlineStats,
    /// Requests terminally lost to crashes.
    failed: u64,
    /// Crash-aborted requests re-injected as fresh arrivals.
    retried: u64,
    /// Accumulated per-node downtime (summed over nodes).
    down_time: SimDuration,
    /// Current cluster phase (`PHASE_*`).
    phase: usize,
    /// When the current phase began.
    phase_started: SimTime,
    /// Simulated seconds spent in each phase.
    phase_s: [f64; 3],
    /// Requests completed in each phase.
    phase_completed: [u64; 3],
}

impl Measure {
    /// Closes the current phase at `now` and enters `phase`.
    fn roll_phase(&mut self, now: SimTime, phase: usize) {
        self.phase_s[self.phase] += now.saturating_since(self.phase_started).as_secs_f64();
        self.phase_started = now;
        self.phase = phase;
    }
}

/// Service times precomputed once per run so the event loop never
/// re-derives a `SimDuration` from `f64` seconds on the hot path. The
/// cached values are produced by the exact same conversions the
/// `NodeCosts`/`NetConfig` helpers perform per call, so every scheduled
/// duration is bit-identical to computing it on demand.
struct CostCache {
    ni_in: SimDuration,
    parse: SimDuration,
    forward: SimDuration,
    msg_cpu: SimDuration,
    msg_ni: SimDuration,
    /// Router service time for one inbound client request.
    router_request: SimDuration,
    /// Size-dependent service times, indexed by interned file id.
    per_file: Vec<FileCost>,
}

/// Per-file size and service times (dense by interned file id).
struct FileCost {
    kb: f64,
    mem_reply: SimDuration,
    disk_read: SimDuration,
    ni_out: SimDuration,
    router: SimDuration,
}

impl CostCache {
    fn new(config: &SimConfig, files: &FileSet) -> Self {
        let costs = &config.costs;
        let per_file = files
            .iter()
            .map(|(_, kb)| FileCost {
                kb,
                mem_reply: costs.mem_reply(kb),
                disk_read: costs.disk_read(kb),
                ni_out: costs.ni_out(kb),
                router: config.net.router_service(kb),
            })
            .collect();
        CostCache {
            ni_in: costs.ni_in(),
            parse: costs.parse(),
            forward: costs.forward(),
            msg_cpu: costs.msg_cpu(),
            msg_ni: costs.msg_ni(),
            router_request: config.net.router_service(config.request_kb),
            per_file,
        }
    }

    #[inline]
    fn file(&self, file: FileId) -> &FileCost {
        &self.per_file[file.index()]
    }
}

/// One distribution decision, in the order the engine made them — the
/// placement stream [`simulate_workload_observed`] feeds to its observer
/// and the byte-compared artifact of the replay-parity tests. Records
/// every decision of the run, warm-up pass included (replay runs disable
/// warm-up, so the streams line up one-to-one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementRecord {
    /// Zero-based decision index over the whole run.
    pub seq: u64,
    /// The file requested.
    pub file: FileId,
    /// The node the client connection landed on.
    pub initial: NodeId,
    /// The node chosen to service the request.
    pub service: NodeId,
    /// Whether the request was handed off (`service != initial`).
    pub forwarded: bool,
    /// Simulated time of the decision.
    pub at: SimTime,
}

/// Observer callback for [`simulate_workload_observed`].
pub type PlacementObserver<'o> = dyn FnMut(PlacementRecord) + 'o;

struct Engine<'t> {
    config: SimConfig,
    workload: &'t mut dyn Workload,
    limit: usize,
    policy: Box<dyn Distributor>,
    nodes: Vec<NodeHardware>,
    /// Per-node CPU speed multiplier (all 1.0 on a homogeneous cluster).
    /// The stations keep wall-clock time; the engine divides CPU service
    /// demands by the node's speed when it schedules them.
    cpu_speed: Vec<f64>,
    fabric: Fabric,
    queue: EventQueue<Ev>,
    arena: ReqArena,
    next_request: usize,
    outstanding: usize,
    /// Cached lower bound on the next router admission: while the clock
    /// is below this, `try_inject` skips the per-event admission query
    /// entirely. Valid because the bound only ever moves later — see
    /// [`Fabric::next_admission`].
    router_gate: SimTime,
    measure: Measure,
    msg_buf: Vec<(NodeId, NodeId)>,
    cc: CostCache,
    rng: DetRng,
    /// Events processed over the whole run (warm-up included).
    events_handled: u64,
    /// Deepest the future-event list ever grew.
    peak_fel: usize,
    /// Per-node liveness under the fault plan (all true when healthy).
    alive: Vec<bool>,
    /// Bumped on every crash; pending events carry the epoch they were
    /// scheduled under, so work lost in a crash aborts when it fires.
    node_epoch: Vec<u32>,
    /// When each currently-down node crashed (valid while `!alive`).
    down_since: Vec<SimTime>,
    /// How many nodes are currently down.
    down_count: usize,
    /// Queue time at the start of the current pass. Workload-supplied
    /// arrival times are relative to the pass start (the source rewinds
    /// between warm-up and measurement while the queue clock keeps
    /// running), so the injector offsets them by this base.
    pass_base_s: f64,
    /// Callback invoked on every distribution decision (see
    /// [`PlacementRecord`]); `None` for an unobserved run.
    observer: Option<&'t mut PlacementObserver<'t>>,
    /// Decisions observed so far (feeds [`PlacementRecord::seq`]; never
    /// reset, unlike the per-pass measurement counters).
    observed_seq: u64,
}

/// Home node of `file` under the hash-placed distributed file system
/// (Fibonacci hashing, matching the pure-locality baseline's spread).
fn dfs_home(file: FileId, nodes: usize) -> NodeId {
    let h = (file.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h % nodes as u64) as NodeId
}

/// Runs one simulation of `trace` under `policy_kind` and returns the
/// measured report. See the crate docs for the modeled lifecycle.
pub fn simulate(config: &SimConfig, policy_kind: PolicyKind, trace: &Trace) -> SimReport {
    let mut workload = TraceWorkload::new(trace);
    simulate_workload(config, policy_kind, &mut workload)
}

/// Runs one simulation drawing requests from `workload` — the
/// trace-free entry point scaling sweeps use with a streaming
/// [`SynthWorkload`](crate::SynthWorkload), where memory stays flat in
/// the request count. [`simulate`] is this function over a
/// [`TraceWorkload`] and produces identical reports for the same
/// request sequence.
pub fn simulate_workload(
    config: &SimConfig,
    policy_kind: PolicyKind,
    workload: &mut dyn Workload,
) -> SimReport {
    run(config, policy_kind, workload, None)
}

/// [`simulate_workload`] with a placement observer: `observer` is
/// invoked once per distribution decision, in decision order, with the
/// same [`PlacementRecord`] stream a live replay of the same trace and
/// seed must reproduce. The observer is pure instrumentation — reports
/// are byte-identical to the unobserved run.
pub fn simulate_workload_observed<'t>(
    config: &SimConfig,
    policy_kind: PolicyKind,
    workload: &'t mut dyn Workload,
    observer: &'t mut PlacementObserver<'t>,
) -> SimReport {
    run(config, policy_kind, workload, Some(observer))
}

/// The engine proper: every entry point runs through here.
fn run(
    config: &SimConfig,
    policy_kind: PolicyKind,
    workload: &mut dyn Workload,
    observer: Option<&mut PlacementObserver<'_>>,
) -> SimReport {
    config.validate().expect("invalid simulation configuration");
    // Fast path: the identity spec leaves the wrapper out of the loop.
    // The wrapper would replay the base stream unchanged, so results do
    // not depend on this branch; it saves the wrapper's per-request work.
    let mut modulated;
    let workload: &mut dyn Workload = if config.workload_mod.is_none() {
        workload
    } else {
        modulated = ModulatedWorkload::new(workload, config.workload_mod.clone(), config.seed);
        &mut modulated
    };
    l2s_util::invariant!(!workload.is_empty(), "cannot simulate an empty workload");
    let limit = config
        .max_requests
        .map(|m| m.min(workload.len()))
        .unwrap_or(workload.len());
    l2s_util::invariant!(limit > 0, "max_requests must leave at least one request");

    let mut policy = policy_kind.build(config.nodes, &config.policy_params());
    // Files are interned densely, so policies can size their per-file
    // tables once instead of growing them request by request.
    policy.hint_files(workload.files().len());
    if policy_kind == PolicyKind::Sita {
        // SITA splits by size: hand it the file population up front so
        // its bands cover the run's actual byte distribution.
        let sizes: Vec<f64> = workload.files().iter().map(|(_, kb)| kb).collect();
        policy.hint_file_sizes(&sizes);
    }
    let profiles = config
        .hetero
        .profiles(config.nodes, config.cache_kb, config.ni_buffer);
    let window = config.total_window();
    let cc = CostCache::new(config, workload.files());
    // Per-request samples are the default; scaling sweeps run lean and
    // keep O(1) response statistics instead.
    let sample_cap = if config.response_samples { limit } else { 0 };
    let warmup = config.warmup;
    let mut engine = Engine {
        config: config.clone(),
        workload,
        limit,
        policy,
        nodes: build_nodes_profiled(&profiles, config.cache_policy),
        cpu_speed: profiles.iter().map(|p| p.cpu_speed).collect(),
        fabric: Fabric::new(config.net),
        // Every in-flight request holds at most one pending event, plus
        // one slot for the open-loop arrival timer.
        queue: EventQueue::with_capacity(window + 1),
        arena: ReqArena::with_capacity(window),
        next_request: 0,
        outstanding: 0,
        router_gate: SimTime::ZERO,
        measure: Measure {
            response_s: Vec::with_capacity(sample_cap),
            ..Measure::default()
        },
        msg_buf: Vec::with_capacity(64),
        cc,
        rng: DetRng::new(config.seed),
        events_handled: 0,
        peak_fel: 0,
        alive: vec![true; config.nodes],
        node_epoch: vec![0; config.nodes],
        down_since: vec![SimTime::ZERO; config.nodes],
        down_count: 0,
        pass_base_s: 0.0,
        observer: observer.map(|o| o as &mut PlacementObserver<'_>),
        observed_seq: 0,
    };

    if warmup {
        engine.run_pass();
        engine.reset_measurement();
        engine.workload.rewind();
        engine.next_request = 0;
    }
    // Faults apply to the measured pass only, at offsets from its start.
    engine.arm_faults();
    engine.run_pass();
    engine.report(policy_kind)
}

impl<'t> Engine<'t> {
    /// Drives one full pass over the (possibly capped) workload: injects
    /// as arrivals dictate and drains every event.
    fn run_pass(&mut self) {
        // The closed loop injects whenever an event frees room; open-loop
        // arrivals are events of their own.
        let closed = matches!(self.config.arrivals, ArrivalMode::ClosedLoop);
        if closed {
            self.try_inject();
        } else {
            self.pass_base_s = self.queue.now().as_secs_f64();
            self.schedule_next_arrival();
        }
        while let Some((now, ev)) = self.queue.pop() {
            self.events_handled += 1;
            self.peak_fel = self.peak_fel.max(self.queue.len() + 1);
            self.handle(now, ev);
            if closed {
                self.try_inject();
            }
        }
        invariant!(
            self.outstanding == 0,
            "drain invariant violated: {n} request(s) left in flight",
            n = self.outstanding
        );
    }

    /// Open-loop mode: schedules the next client arrival, if the
    /// workload has requests left.
    ///
    /// A workload carrying its own clock (a rate-modulated source)
    /// dictates the arrival time; otherwise the engine draws the
    /// configured homogeneous-Poisson gap. Both paths share the single
    /// seconds→duration conversion below.
    fn schedule_next_arrival(&mut self) {
        let ArrivalMode::Poisson { rate_rps } = self.config.arrivals else {
            return;
        };
        if self.next_request >= self.limit {
            return;
        }
        let gap_s = match self.workload.next_arrival_s() {
            Some(t) => (self.pass_base_s + t - self.queue.now().as_secs_f64()).max(0.0),
            None => self.rng.exponential(1.0 / rate_rps),
        };
        let gap = SimDuration::from_secs_f64(gap_s);
        self.queue.schedule_after(gap, Ev::ClientArrival);
    }

    /// Draws a persistent-connection length (geometric with the
    /// configured mean; 1 when persistence is off).
    fn draw_connection_len(&mut self) -> u32 {
        let mean = self.config.persistent_mean;
        if mean <= 1.0 {
            return 1;
        }
        // Geometric on {1, 2, ...} with success probability 1/mean.
        let p = 1.0 / mean;
        let u = self.rng.f64_open();
        let k = 1.0 + (u.ln() / (1.0 - p).ln()).floor();
        k.clamp(1.0, 10_000.0) as u32
    }

    /// Draws the next request's file from the workload. `None` means the
    /// source ran dry — possibly before its advertised `len` — in which
    /// case the pass's request budget is clamped to what was actually
    /// drawn, so every injection loop winds down instead of fabricating
    /// requests for a default file.
    fn next_workload_file(&mut self) -> Option<FileId> {
        let file = self.workload.next_file();
        if file.is_none() {
            self.limit = self.next_request;
        }
        file
    }

    /// Injects one request for `file` at `initial`, entering through the
    /// router. Returns the request id.
    fn launch_request(
        &mut self,
        now: SimTime,
        initial: NodeId,
        conn_remaining: u32,
        continuation: bool,
        file: FileId,
    ) -> ReqId {
        self.next_request += 1;
        let id = self.arena.alloc(
            Route::new(file, initial, self.node_epoch[initial]),
            Timing::at(now),
            Flow::fresh(conn_remaining, continuation, self.config.fault_retries),
        );
        let cleared = self
            .fabric
            .router_transit_service(now, self.cc.router_request);
        let at_node = self.fabric.switch_transit(cleared);
        self.queue.schedule(at_node, Ev::NicIn(id));
        self.outstanding += 1;
        id
    }

    /// Zeroes all statistics after the warm-up pass; cache contents,
    /// policy state, and the clock carry over.
    fn reset_measurement(&mut self) {
        for node in &mut self.nodes {
            node.reset_stats();
        }
        self.fabric.reset_stats();
        // Keep the response-time buffer's allocation across the reset.
        let mut response_s = std::mem::take(&mut self.measure.response_s);
        response_s.clear();
        self.measure = Measure {
            started_at: self.queue.now(),
            phase: PHASE_HEALTHY,
            phase_started: self.queue.now(),
            response_s,
            ..Measure::default()
        };
    }

    /// Schedules the fault plan's events, at their offsets from the
    /// measurement start. The empty plan schedules nothing, so a
    /// healthy run's event stream is untouched.
    fn arm_faults(&mut self) {
        let base = self.queue.now();
        let Engine { config, queue, .. } = self;
        for e in config.faults.events() {
            let up = e.kind == FaultKind::Recover;
            queue.schedule(base + e.at, Ev::Fault(cast::index_u32(e.node), up));
        }
    }

    /// Injects new requests while the workload has them, the
    /// cluster-wide connection window has room, and the router accepts
    /// (the paper's "as soon as the router and network interface buffers
    /// would accept them" closed loop).
    fn try_inject(&mut self) {
        let now = self.queue.now();
        // Below the cached admission bound the router is provably still
        // full — skip the (binary-search) admission query entirely. The
        // bound only moves later between checks, so this refuses exactly
        // the injections `would_accept` would refuse.
        if now < self.router_gate {
            return;
        }
        while self.next_request < self.limit && self.outstanding < self.config.total_window() {
            if let Some(gate) = self.fabric.next_admission(now) {
                self.router_gate = gate;
                return;
            }
            let Some(file) = self.next_workload_file() else {
                return;
            };
            let Some(initial) = self.policy.arrival_node() else {
                // No node can accept the connection (every candidate is
                // down): the request is consumed and counted failed —
                // it must not silently resurrect node 0.
                self.reject_arrival();
                continue;
            };
            let conn = self.draw_connection_len() - 1;
            self.launch_request(now, initial, conn, false, file);
        }
    }

    /// Counts a request whose connection attempt found no live node: it
    /// is consumed from the workload and recorded as failed without ever
    /// entering the router.
    fn reject_arrival(&mut self) {
        self.next_request += 1;
        self.measure.failed += 1;
    }

    /// The node a request-lifecycle event executes on, if any. Events
    /// on the shared fabric (router legs, completion delivery) and the
    /// engine's own timers have no node and survive crashes.
    fn event_target(&self, ev: Ev) -> Option<(ReqId, NodeId)> {
        match ev {
            Ev::NicIn(id) | Ev::Parse(id) | Ev::Decide(id) | Ev::HandoffOut(id) => {
                Some((id, self.arena.route(id).initial()))
            }
            Ev::HandoffIn(id)
            | Ev::Serve(id)
            | Ev::ReplyReady(id)
            | Ev::ReplyChunk(id)
            | Ev::NicOut(id)
            | Ev::DfsBack(id) => Some((id, self.arena.route(id).service())),
            Ev::DfsRead(id) | Ev::DfsTransfer(id) => {
                Some((id, dfs_home(self.arena.route(id).file, self.config.nodes)))
            }
            Ev::RouterOut(_) | Ev::Done(_) | Ev::ClientArrival | Ev::Fault(..) | Ev::Retry(_) => {
                None
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        // Liveness gate: an event whose node is down, or whose node
        // crashed (and possibly rebooted) since the event was
        // scheduled, finds its work gone — the request aborts here, at
        // the time the lost operation would have completed.
        if let Some((id, node)) = self.event_target(ev) {
            if !self.alive[node] || self.arena.route(id).epoch != self.node_epoch[node] {
                self.fail_request(now, id);
                return;
            }
        }
        match ev {
            Ev::NicIn(id) => {
                let node = self.arena.route(id).initial();
                let done = self.nodes[node].ni_in.schedule(now, self.cc.ni_in);
                self.queue.schedule(done, Ev::Parse(id));
            }
            Ev::Parse(id) => {
                let node = self.arena.route(id).initial();
                let svc = self.cpu_time(node, self.cc.parse);
                let done = self.nodes[node].cpu.schedule(now, svc);
                self.queue.schedule(done, Ev::Decide(id));
            }
            Ev::Decide(id) => {
                let (initial, file) = {
                    let r = self.arena.route(id);
                    (r.initial(), r.file)
                };
                let continuation = self.arena.flow(id).continuation;
                let service = if continuation {
                    self.policy.assign_continuation(now, initial, file)
                } else {
                    self.policy.assign(now, initial, file)
                };
                let forwarded = service != initial;
                self.charge_messages(now);
                self.measure.decided += 1;
                if let Some(observer) = self.observer.as_deref_mut() {
                    observer(PlacementRecord {
                        seq: self.observed_seq,
                        file,
                        initial,
                        service,
                        forwarded,
                        at: now,
                    });
                    self.observed_seq += 1;
                }
                self.arena.route_mut(id).set_service(service);
                self.arena.timing_mut(id).decided = now;
                {
                    let flow = self.arena.flow_mut(id);
                    flow.forwarded = forwarded;
                    flow.assigned = true;
                }
                if forwarded {
                    self.measure.forwarded += 1;
                    let svc = self.cpu_time(initial, self.cc.forward);
                    let done = self.nodes[initial].cpu.schedule(now, svc);
                    self.queue.schedule(done, Ev::HandoffOut(id));
                } else {
                    self.queue.schedule(now, Ev::Serve(id));
                }
            }
            Ev::HandoffOut(id) => {
                let node = self.arena.route(id).initial();
                let done = self.nodes[node].ni_out.schedule(now, self.cc.msg_ni);
                let arrived = self.fabric.switch_transit(done);
                // The pending event moves to the service node: track its
                // epoch from here on (the hand-off is on the wire, so the
                // initial node's fate no longer matters).
                let service = self.arena.route(id).service();
                self.arena.route_mut(id).epoch = self.node_epoch[service];
                self.queue.schedule(arrived, Ev::HandoffIn(id));
            }
            Ev::HandoffIn(id) => {
                let node = self.arena.route(id).service();
                let done = self.nodes[node].ni_in.schedule(now, self.cc.msg_ni);
                self.queue.schedule(done, Ev::Serve(id));
            }
            Ev::Serve(id) => {
                self.arena.timing_mut(id).served = now;
                let (node, file) = {
                    let r = self.arena.route(id);
                    (r.service(), r.file)
                };
                let forwarded = self.arena.flow(id).forwarded;
                let hit = self.nodes[node].access_file(file, self.cc.file(file).kb);
                if hit {
                    self.arena.flow_mut(id).reply_remaining =
                        self.reply_cpu_time(node, file, forwarded);
                    self.schedule_reply_chunk(id, now);
                } else {
                    let home = dfs_home(file, self.config.nodes);
                    if self.config.dfs_remote && home != node {
                        // Remote miss: ask the home node's disk through
                        // the cluster network.
                        let svc = self.cpu_time(node, self.cc.msg_cpu);
                        let sent = self.nodes[node].cpu.schedule(now, svc);
                        let on_wire = self.nodes[node].ni_out.schedule(sent, self.cc.msg_ni);
                        let arrived = self.fabric.switch_transit(on_wire);
                        self.arena.route_mut(id).epoch = self.node_epoch[home];
                        self.queue.schedule(arrived, Ev::DfsRead(id));
                    } else {
                        let done = self.nodes[node]
                            .disk
                            .schedule(now, self.cc.file(file).disk_read);
                        self.queue.schedule(done, Ev::ReplyReady(id));
                    }
                }
            }
            Ev::ReplyReady(id) => {
                let (node, file) = {
                    let r = self.arena.route(id);
                    (r.service(), r.file)
                };
                let forwarded = self.arena.flow(id).forwarded;
                self.arena.flow_mut(id).reply_remaining =
                    self.reply_cpu_time(node, file, forwarded);
                self.schedule_reply_chunk(id, now);
            }
            Ev::ReplyChunk(id) => {
                self.schedule_reply_chunk(id, now);
            }
            Ev::NicOut(id) => {
                let (node, file) = {
                    let r = self.arena.route(id);
                    (r.service(), r.file)
                };
                let done = self.nodes[node]
                    .ni_out
                    .schedule(now, self.cc.file(file).ni_out);
                let at_router = self.fabric.switch_transit(done);
                self.queue.schedule(at_router, Ev::RouterOut(id));
            }
            Ev::RouterOut(id) => {
                let file = self.arena.route(id).file;
                let done = self
                    .fabric
                    .router_transit_service(now, self.cc.file(file).router);
                self.queue.schedule(done, Ev::Done(id));
            }
            Ev::ClientArrival => {
                if let Some(file) = self.next_workload_file() {
                    match self.policy.arrival_node() {
                        Some(initial) => {
                            let conn = self.draw_connection_len() - 1;
                            self.launch_request(now, initial, conn, false, file);
                        }
                        None => {
                            // Connection refused everywhere: the request
                            // fails at the client, but the arrival
                            // process keeps ticking.
                            self.reject_arrival();
                        }
                    }
                    self.schedule_next_arrival();
                }
            }
            Ev::DfsRead(id) => {
                let (node, file) = {
                    let r = self.arena.route(id);
                    (r.service(), r.file)
                };
                let home = dfs_home(file, self.config.nodes);
                invariant!(
                    home != node,
                    "DFS miss routed to its own home: node {node} fetching locally"
                );
                let done = self.nodes[home]
                    .disk
                    .schedule(now, self.cc.file(file).disk_read);
                self.queue.schedule(done, Ev::DfsTransfer(id));
            }
            Ev::DfsTransfer(id) => {
                let file = self.arena.route(id).file;
                let home = dfs_home(file, self.config.nodes);
                let done = self.nodes[home]
                    .ni_out
                    .schedule(now, self.cc.file(file).ni_out);
                let arrived = self.fabric.switch_transit(done);
                // The file is on the wire back to the service node.
                let service = self.arena.route(id).service();
                self.arena.route_mut(id).epoch = self.node_epoch[service];
                self.queue.schedule(arrived, Ev::DfsBack(id));
            }
            Ev::DfsBack(id) => {
                let (node, file) = {
                    let r = self.arena.route(id);
                    (r.service(), r.file)
                };
                // Receiving the file costs the NI the same as sending it.
                let done = self.nodes[node]
                    .ni_in
                    .schedule(now, self.cc.file(file).ni_out);
                self.queue.schedule(done, Ev::ReplyReady(id));
            }
            Ev::Done(id) => {
                let (node, file) = {
                    let r = self.arena.route(id);
                    (r.service(), r.file)
                };
                let injected = {
                    let t = self.arena.timing(id);
                    self.measure
                        .seg_ingress
                        .push(t.decided.saturating_since(t.injected).as_secs_f64());
                    self.measure
                        .seg_handoff
                        .push(t.served.saturating_since(t.decided).as_secs_f64());
                    self.measure
                        .seg_service
                        .push(now.saturating_since(t.served).as_secs_f64());
                    t.injected
                };
                self.policy.complete(now, node, file);
                self.charge_messages(now);
                self.nodes[node].completed += 1;
                self.measure.completed += 1;
                self.measure.phase_completed[self.measure.phase] += 1;
                let response = now.saturating_since(injected).as_secs_f64();
                if self.config.response_samples {
                    self.measure.response_s.push(response);
                } else {
                    self.measure.resp_stats.push(response);
                }
                let conn_remaining = self.arena.flow(id).conn_remaining;
                invariant!(
                    self.outstanding > 0,
                    "request accounting underflow: completion with none outstanding"
                );
                self.outstanding -= 1;
                self.arena.release(id);
                if conn_remaining > 0 && self.next_request < self.limit {
                    if let Some(file) = self.next_workload_file() {
                        // Persistent connection: the next request of this
                        // connection arrives at the node that just served —
                        // it holds the connection and acts as initial node.
                        self.policy.arrival_continuation(node);
                        self.launch_request(now, node, conn_remaining - 1, true, file);
                    }
                }
            }
            Ev::Fault(node, up) => {
                let node = cast::wide_usize(node);
                if up {
                    self.node_recover(now, node);
                } else {
                    self.node_crash(now, node);
                }
            }
            Ev::Retry(id) => {
                // The client's retry is a fresh connection: it enters
                // through the router and may land on any live node.
                let Some(initial) = self.policy.arrival_node() else {
                    // Still nowhere to connect. The policy accounting was
                    // already settled by `fail_request` before this retry
                    // was scheduled, so no abort hooks here: either burn
                    // another retry and keep waiting, or give up.
                    let retries_left = self.arena.flow(id).retries_left;
                    if retries_left > 0 {
                        self.arena.flow_mut(id).retries_left -= 1;
                        self.measure.retried += 1;
                        self.queue.schedule_after(RETRY_DELAY, Ev::Retry(id));
                    } else {
                        self.measure.failed += 1;
                        invariant!(
                            self.outstanding > 0,
                            "request accounting underflow: failure with none outstanding"
                        );
                        self.outstanding -= 1;
                        self.arena.release(id);
                    }
                    return;
                };
                let epoch = self.node_epoch[initial];
                {
                    let r = self.arena.route_mut(id);
                    r.set_initial(initial);
                    r.set_service(initial);
                    r.epoch = epoch;
                }
                {
                    let f = self.arena.flow_mut(id);
                    f.forwarded = false;
                    f.continuation = false;
                    f.reply_remaining = SimDuration::ZERO;
                }
                {
                    // `injected` is kept: response time spans the whole
                    // client experience, retries included.
                    let t = self.arena.timing_mut(id);
                    t.decided = now;
                    t.served = now;
                }
                let cleared = self
                    .fabric
                    .router_transit_service(now, self.cc.router_request);
                let at_node = self.fabric.switch_transit(cleared);
                self.queue.schedule(at_node, Ev::NicIn(id));
            }
        }
    }

    /// Aborts a request whose pending work died with a node: the
    /// policy's load accounting is settled through the matching abort
    /// hook, then the request either retries as a fresh arrival after
    /// the client's timeout or is counted as failed.
    fn fail_request(&mut self, now: SimTime, id: ReqId) {
        let (service, initial, file) = {
            let r = self.arena.route(id);
            (r.service(), r.initial(), r.file)
        };
        let (assigned, retries_left) = {
            let f = self.arena.flow(id);
            (f.assigned, f.retries_left)
        };
        if assigned {
            self.policy.abort_assigned(now, service, file);
            self.charge_messages(now);
        } else {
            self.policy.abort_undecided(now, initial);
        }
        if retries_left > 0 {
            {
                let f = self.arena.flow_mut(id);
                f.retries_left -= 1;
                f.assigned = false;
            }
            self.measure.retried += 1;
            self.queue.schedule_after(RETRY_DELAY, Ev::Retry(id));
        } else {
            self.measure.failed += 1;
            invariant!(
                self.outstanding > 0,
                "request accounting underflow: failure with none outstanding"
            );
            self.outstanding -= 1;
            self.arena.release(id);
        }
    }

    /// A node crashes: epoch bumps (orphaning every pending event that
    /// targets it), hardware wipes, and the policy excludes it.
    fn node_crash(&mut self, now: SimTime, node: NodeId) {
        invariant!(self.alive[node], "fault plan crashes node {node} twice");
        self.alive[node] = false;
        self.node_epoch[node] += 1;
        self.down_since[node] = now;
        if self.down_count == 0 {
            self.measure.roll_phase(now, PHASE_DEGRADED);
        }
        self.down_count += 1;
        self.nodes[node].crash(now);
        self.policy.node_down(now, node);
    }

    /// A node recovers: idle and cold, it rejoins the policy's
    /// candidate sets.
    fn node_recover(&mut self, now: SimTime, node: NodeId) {
        invariant!(
            !self.alive[node],
            "fault plan recovers node {node} while it is up"
        );
        self.alive[node] = true;
        self.measure.down_time += now.saturating_since(self.down_since[node]);
        invariant!(self.down_count > 0, "recovery without a crash");
        self.down_count -= 1;
        if self.down_count == 0 {
            self.measure.roll_phase(now, PHASE_RECOVERED);
        }
        self.policy.node_up(now, node);
    }

    /// Scales a CPU service demand by `node`'s speed multiplier: a 2×
    /// node finishes the same work in half the wall-clock time. Only CPU
    /// demands scale — disk, NI, and router times are hardware the speed
    /// multiplier does not model.
    #[inline]
    fn cpu_time(&self, node: NodeId, base: SimDuration) -> SimDuration {
        let speed = self.cpu_speed[node];
        if speed == 1.0 {
            // Fast path for the paper's nodes: dividing by 1.0 returns
            // `base` too, but through a float round trip on every CPU
            // charge (tens per request).
            base
        } else {
            SimDuration::from_nanos(cast::round_u64(cast::exact_f64(base.as_nanos()) / speed))
        }
    }

    /// CPU time for a reply on `node`: the µm cost plus, for handed-off
    /// requests, the small-message receive cost, scaled by the node's
    /// speed. (The scheduling quantum stays in wall-clock units — a fast
    /// CPU drains more reply work per 500 µs slice, not shorter slices.)
    fn reply_cpu_time(&self, node: NodeId, file: FileId, forwarded: bool) -> SimDuration {
        let mut t = self.cc.file(file).mem_reply;
        if forwarded {
            t += self.cc.msg_cpu;
        }
        self.cpu_time(node, t)
    }

    /// Charges the next quantum of a reply's CPU work; re-queues itself
    /// until the work is exhausted, then emits the reply onto the NI.
    /// Because each chunk re-enters the CPU's FIFO at its own arrival
    /// time, long replies interleave with short operations exactly like
    /// time-shared segment processing.
    fn schedule_reply_chunk(&mut self, id: ReqId, now: SimTime) {
        let node = self.arena.route(id).service();
        let remaining = self.arena.flow(id).reply_remaining;
        let chunk = remaining.min(CPU_QUANTUM);
        let left = remaining - chunk;
        self.arena.flow_mut(id).reply_remaining = left;
        let done = self.nodes[node].cpu.schedule(now, chunk);
        if left.is_zero() {
            self.queue.schedule(done, Ev::NicOut(id));
        } else {
            self.queue.schedule(done, Ev::ReplyChunk(id));
        }
    }

    /// Counts and charges every control message the policy just emitted:
    /// 3 µs CPU + 6 µs NI on the sender, and 6 µs NI + 3 µs CPU on the
    /// receiver. This is the only place the run's message count grows.
    ///
    /// All four legs are charged at the current event time. Charging a
    /// leg at its downstream arrival time would violate the FIFO
    /// stations' in-arrival-order scheduling discipline (a job submitted
    /// for a *future* arrival advances `free_at` past jobs that arrive
    /// sooner, idling the station artificially). The cost of the
    /// simplification is that a receiver pays its ~9 µs of message
    /// handling up to one message latency (~19 µs) early — far below the
    /// fidelity of interest.
    fn charge_messages(&mut self, now: SimTime) {
        let mut buf = std::mem::take(&mut self.msg_buf);
        self.policy.drain_messages(&mut buf);
        self.measure.control_msgs += cast::len_u64(buf.len());
        for &(from, to) in &buf {
            // A dead endpoint's legs are skipped. Policies queue no
            // message that names a down node, and the queue is drained
            // in the event that filled it, so this is a guard: work must
            // never accrue on a crashed node's stations.
            if self.alive[from] {
                let svc = self.cpu_time(from, self.cc.msg_cpu);
                self.nodes[from].cpu.schedule(now, svc);
                self.nodes[from].ni_out.schedule(now, self.cc.msg_ni);
            }
            if self.alive[to] {
                self.nodes[to].ni_in.schedule(now, self.cc.msg_ni);
                let svc = self.cpu_time(to, self.cc.msg_cpu);
                self.nodes[to].cpu.schedule(now, svc);
            }
        }
        buf.clear();
        self.msg_buf = buf;
    }

    fn report(&mut self, kind: PolicyKind) -> SimReport {
        let now = self.queue.now();
        let elapsed = now.saturating_since(self.measure.started_at);
        let elapsed_s = elapsed.as_secs_f64();

        // Close the current phase and tally downtime for nodes the
        // plan left dead at the end of the run.
        self.measure.phase_s[self.measure.phase] += now
            .saturating_since(self.measure.phase_started)
            .as_secs_f64();
        self.measure.phase_started = now;
        let mut down_time = self.measure.down_time;
        for (node, &alive) in self.alive.iter().enumerate() {
            if !alive {
                down_time += now.saturating_since(self.down_since[node]);
            }
        }
        let unavailability = if elapsed_s > 0.0 {
            (down_time.as_secs_f64() / (elapsed_s * self.config.nodes as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let mut phase_rps = [0.0f64; 3];
        for p in 0..3 {
            if self.measure.phase_s[p] > 0.0 {
                phase_rps[p] = self.measure.phase_completed[p] as f64 / self.measure.phase_s[p];
            }
        }

        let mut sorted = std::mem::take(&mut self.measure.response_s);
        sorted.sort_unstable_by(f64::total_cmp);
        // With per-request samples the mean is the exact sorted sum (the
        // float-order-stable path every golden figure was pinned under);
        // lean runs fall back to the streaming moments. p99 needs the
        // samples and reports `None` without them.
        let mean_response = if !sorted.is_empty() {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        } else {
            self.measure.resp_stats.mean()
        };

        SimReport {
            forwarded_fraction: ratio(self.measure.forwarded, self.measure.decided),
            router_utilization: self.fabric.router_utilization(elapsed),
            control_msgs_per_request: ratio(self.measure.control_msgs, self.measure.completed),
            mean_response_s: mean_response,
            p99_response_s: quantile(&sorted, 0.99),
            segment_means_s: [
                self.measure.seg_ingress.mean(),
                self.measure.seg_handoff.mean(),
                self.measure.seg_service.mean(),
            ],
            failed: self.measure.failed,
            retried: self.measure.retried,
            unavailability,
            phase_rps,
            events_handled: self.events_handled,
            peak_fel_depth: self.peak_fel,
            fel_ops: self.queue.stats(),
            ..SimReport::from_hardware(kind, &self.nodes, &self.policy.serving_nodes(), elapsed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SynthWorkload;
    use l2s_trace::TraceSpec;

    fn small_trace(seed: u64) -> Trace {
        TraceSpec::clarknet().scaled(400, 20_000).generate(seed)
    }

    /// A cache sized so that roughly half the scaled working set fits on
    /// one node.
    fn small_config(n: usize) -> SimConfig {
        SimConfig::quick(n, 2_000.0)
    }

    #[test]
    fn every_policy_completes_all_requests() {
        let trace = small_trace(1);
        for kind in PolicyKind::all() {
            let report = simulate(&small_config(4), kind, &trace);
            assert_eq!(
                report.completed,
                trace.len() as u64,
                "{} lost requests",
                kind.name()
            );
            assert!(report.throughput_rps > 0.0);
            assert!(report.elapsed.as_secs_f64() > 0.0);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = small_trace(2);
        let a = simulate(&small_config(4), PolicyKind::L2s, &trace);
        let b = simulate(&small_config(4), PolicyKind::L2s, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_workload_reproduces_the_materialized_run_exactly() {
        // The scale-out path: simulate_workload over a SynthWorkload
        // must yield the same report as materializing the trace first —
        // with warm-up on, so the rewind path is exercised too.
        let spec = TraceSpec::clarknet().scaled(400, 20_000);
        let trace = spec.generate(2);
        let mut cfg = small_config(4);
        cfg.warmup = true;
        let materialized = simulate(&cfg, PolicyKind::L2s, &trace);
        let mut synth = SynthWorkload::new(&spec, 2);
        let streamed = simulate_workload(&cfg, PolicyKind::L2s, &mut synth);
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn rate_scheduled_open_loop_completes_and_is_deterministic() {
        // A diurnal schedule drives arrival timing through the workload
        // clock instead of the engine's own exponential draws; the run
        // must still complete every request, deterministically.
        let trace = small_trace(3);
        let mut cfg = small_config(4);
        cfg.arrivals = ArrivalMode::Poisson { rate_rps: 500.0 };
        cfg.workload_mod.rate = Some(crate::RateSchedule::diurnal(500.0, 0.7, 10.0).unwrap());
        let a = simulate(&cfg, PolicyKind::Lard, &trace);
        let b = simulate(&cfg, PolicyKind::Lard, &trace);
        assert_eq!(a, b);
        assert_eq!(a.completed, trace.len() as u64);
        // The modulated clock really is in charge: a wildly different
        // nominal rate changes nothing, because the schedule overrides it.
        cfg.arrivals = ArrivalMode::Poisson { rate_rps: 7.0 };
        let c = simulate(&cfg, PolicyKind::Lard, &trace);
        assert_eq!(a.throughput_rps, c.throughput_rps);
    }

    #[test]
    fn inert_modulation_reproduces_the_plain_run() {
        // A spec whose layers are all configured-but-inert takes the
        // wrapped path (`is_none()` is false) yet must reproduce the
        // stationary report exactly, warm-up rewind included.
        let trace = small_trace(4);
        let mut cfg = small_config(4);
        cfg.warmup = true;
        let plain = simulate(&cfg, PolicyKind::L2s, &trace);
        cfg.workload_mod.drift = Some(crate::DriftSpec {
            period_s: 5.0,
            step: 0,
        });
        let wrapped = simulate(&cfg, PolicyKind::L2s, &trace);
        assert_eq!(plain, wrapped);
    }

    #[test]
    fn flash_crowd_shifts_the_miss_rate() {
        // A strong persistent crowd concentrates requests on a handful
        // of files, so the cluster-wide miss rate must drop relative to
        // the stationary run. Caches are kept small enough that capacity
        // misses dominate — with the whole working set resident, a
        // popularity shift has nothing to improve.
        let trace = small_trace(5);
        let mut cfg = SimConfig::quick(4, 200.0);
        let plain = simulate(&cfg, PolicyKind::Lard, &trace);
        cfg.workload_mod.flash = vec![crate::FlashCrowd {
            start_s: 0.0,
            ramp_s: 0.0,
            hold_s: 1e9,
            decay_s: 0.0,
            peak_weight: 0.8,
            hot_files: 4,
            first_id: 0,
        }];
        let crowded = simulate(&cfg, PolicyKind::Lard, &trace);
        assert!(
            crowded.miss_rate < plain.miss_rate,
            "crowd {c} should beat stationary {p}",
            c = crowded.miss_rate,
            p = plain.miss_rate
        );
    }

    #[test]
    fn lean_metrics_change_only_the_response_report() {
        let trace = small_trace(18);
        let full_cfg = small_config(4);
        let mut lean_cfg = full_cfg.clone();
        lean_cfg.response_samples = false;
        let full = simulate(&full_cfg, PolicyKind::L2s, &trace);
        let lean = simulate(&lean_cfg, PolicyKind::L2s, &trace);
        assert_eq!(full.completed, lean.completed);
        assert_eq!(full.events_handled, lean.events_handled);
        assert_eq!(full.throughput_rps, lean.throughput_rps);
        assert_eq!(full.miss_rate, lean.miss_rate);
        // The streaming mean accumulates in arrival order rather than
        // sorted order, so it agrees to float tolerance, not bits.
        assert!(
            (full.mean_response_s - lean.mean_response_s).abs() < 1e-9,
            "streaming mean {} drifted from exact {}",
            lean.mean_response_s,
            full.mean_response_s
        );
        assert_eq!(lean.p99_response_s, None, "p99 needs samples");
        assert!(full.p99_response_s.expect("sampled run has a p99") > 0.0);
    }

    #[test]
    fn l2s_beats_traditional_on_cache_bound_workload() {
        let trace = small_trace(3);
        let cfg = small_config(8);
        let l2s = simulate(&cfg, PolicyKind::L2s, &trace);
        let trad = simulate(&cfg, PolicyKind::Traditional, &trace);
        assert!(
            l2s.throughput_rps > trad.throughput_rps,
            "l2s {} !> trad {}",
            l2s.throughput_rps,
            trad.throughput_rps
        );
        assert!(
            l2s.miss_rate < trad.miss_rate,
            "l2s miss {} !< trad miss {}",
            l2s.miss_rate,
            trad.miss_rate
        );
    }

    #[test]
    fn lard_forwards_everything_l2s_less() {
        let trace = small_trace(4);
        let cfg = small_config(4);
        let lard = simulate(&cfg, PolicyKind::Lard, &trace);
        assert!(
            lard.forwarded_fraction > 0.999,
            "lard forwards all: {}",
            lard.forwarded_fraction
        );
        let l2s = simulate(&cfg, PolicyKind::L2s, &trace);
        assert!(
            l2s.forwarded_fraction < lard.forwarded_fraction,
            "l2s {} !< lard {}",
            l2s.forwarded_fraction,
            lard.forwarded_fraction
        );
    }

    #[test]
    fn traditional_never_forwards() {
        let trace = small_trace(5);
        let report = simulate(&small_config(4), PolicyKind::Traditional, &trace);
        assert_eq!(report.forwarded_fraction, 0.0);
        assert_eq!(report.control_msgs_per_request, 0.0);
    }

    #[test]
    fn warmup_lowers_miss_rate() {
        let trace = small_trace(6);
        let mut cold = small_config(4);
        cold.warmup = false;
        let mut warm = cold.clone();
        warm.warmup = true;
        let cold_report = simulate(&cold, PolicyKind::Traditional, &trace);
        let warm_report = simulate(&warm, PolicyKind::Traditional, &trace);
        assert!(
            warm_report.miss_rate <= cold_report.miss_rate,
            "warm {} !<= cold {}",
            warm_report.miss_rate,
            cold_report.miss_rate
        );
    }

    #[test]
    fn lard_front_end_serves_nothing() {
        let trace = small_trace(7);
        let report = simulate(&small_config(4), PolicyKind::Lard, &trace);
        assert_eq!(report.per_node[0].completed, 0, "front-end served requests");
        assert!(report.per_node[1].completed > 0);
    }

    #[test]
    fn max_requests_caps_the_run() {
        let trace = small_trace(8);
        let mut cfg = small_config(2);
        cfg.max_requests = Some(500);
        let report = simulate(&cfg, PolicyKind::Traditional, &trace);
        assert_eq!(report.completed, 500);
    }

    #[test]
    fn bigger_cluster_is_faster() {
        let trace = small_trace(9);
        let small = simulate(&small_config(2), PolicyKind::L2s, &trace);
        let big = simulate(&small_config(8), PolicyKind::L2s, &trace);
        assert!(
            big.throughput_rps > small.throughput_rps * 1.5,
            "8 nodes {} !>> 2 nodes {}",
            big.throughput_rps,
            small.throughput_rps
        );
    }

    #[test]
    fn poisson_arrivals_follow_offered_load() {
        let trace = small_trace(20);
        let mut cfg = small_config(4);
        // Offered load well below capacity: throughput tracks the rate.
        cfg.arrivals = crate::ArrivalMode::Poisson { rate_rps: 400.0 };
        let r = simulate(&cfg, PolicyKind::L2s, &trace);
        assert_eq!(r.completed, trace.len() as u64);
        assert!(
            (r.throughput_rps / 400.0 - 1.0).abs() < 0.1,
            "throughput {} should track the 400 r/s offered load",
            r.throughput_rps
        );
    }

    #[test]
    fn poisson_response_grows_with_load() {
        let trace = small_trace(21);
        let mut light = small_config(4);
        light.arrivals = crate::ArrivalMode::Poisson { rate_rps: 200.0 };
        let mut heavy = light.clone();
        heavy.arrivals = crate::ArrivalMode::Poisson { rate_rps: 1_500.0 };
        let lr = simulate(&light, PolicyKind::Traditional, &trace);
        let hr = simulate(&heavy, PolicyKind::Traditional, &trace);
        assert!(
            hr.mean_response_s > lr.mean_response_s,
            "heavy {} !> light {}",
            hr.mean_response_s,
            lr.mean_response_s
        );
    }

    #[test]
    fn persistent_connections_conserve_requests_and_locality() {
        let trace = small_trace(22);
        let base = small_config(4);
        let mut persistent = base.clone();
        persistent.persistent_mean = 8.0;
        let single = simulate(&base, PolicyKind::L2s, &trace);
        let multi = simulate(&persistent, PolicyKind::L2s, &trace);
        assert_eq!(multi.completed, trace.len() as u64, "requests conserved");
        // The conservative affinity rule must not blow up the miss rate
        // (the failure mode of serve-anywhere affinity).
        assert!(
            multi.miss_rate < single.miss_rate + 0.05,
            "persistent miss {} vs single {}",
            multi.miss_rate,
            single.miss_rate
        );
    }

    #[test]
    fn persistent_connections_bypass_lards_front_end() {
        // Aron et al. '99: with P-HTTP, back-ends forward amongst
        // themselves and the front-end stops being the per-request
        // bottleneck. Use a cache-friendly workload so the front-end is
        // the binding constraint in HTTP/1.0 mode.
        let trace = small_trace(25);
        // Enough back-ends and window depth that the per-request
        // front-end is deeply saturated in HTTP/1.0 mode.
        let mut base = small_config(12);
        base.cache_kb = 8_000.0;
        base.window = 32;
        let mut persistent = base.clone();
        persistent.persistent_mean = 8.0;
        let single = simulate(&base, PolicyKind::Lard, &trace);
        let multi = simulate(&persistent, PolicyKind::Lard, &trace);
        assert!(
            multi.throughput_rps > single.throughput_rps * 1.2,
            "persistent {} should beat per-request front-end {}",
            multi.throughput_rps,
            single.throughput_rps
        );
    }

    #[test]
    fn dfs_remote_misses_cost_more() {
        let trace = small_trace(23);
        let mut local = small_config(4);
        local.cache_kb = 500.0; // force a high miss rate
        let mut remote = local.clone();
        remote.dfs_remote = true;
        let lr = simulate(&local, PolicyKind::Traditional, &trace);
        let rr = simulate(&remote, PolicyKind::Traditional, &trace);
        assert_eq!(rr.completed, trace.len() as u64);
        assert!(
            rr.throughput_rps < lr.throughput_rps,
            "remote DFS {} should cost throughput vs local {}",
            rr.throughput_rps,
            lr.throughput_rps
        );
    }

    #[test]
    fn cache_policy_is_selectable() {
        let trace = small_trace(24);
        let mut cfg = small_config(4);
        cfg.cache_policy = l2s_cluster::CachePolicy::GreedyDualSize;
        let gds = simulate(&cfg, PolicyKind::Traditional, &trace);
        cfg.cache_policy = l2s_cluster::CachePolicy::Lru;
        let lru = simulate(&cfg, PolicyKind::Traditional, &trace);
        assert_eq!(gds.completed, lru.completed);
        assert_ne!(
            gds.miss_rate, lru.miss_rate,
            "policies should behave differently on a size-skewed workload"
        );
    }

    #[test]
    fn response_times_are_sane() {
        let trace = small_trace(10);
        let report = simulate(&small_config(4), PolicyKind::L2s, &trace);
        assert!(report.mean_response_s > 0.0);
        let p99 = report.p99_response_s.expect("sampled run has a p99");
        assert!(p99 >= report.mean_response_s * 0.5);
        // Nothing should take longer than a few seconds of simulated time.
        assert!(p99 < 10.0, "p99 = {p99}");
    }

    /// A workload that advertises more requests than its backing trace
    /// holds — the shape of the regression where an exhausted stream
    /// silently became an endless run of requests for file 0.
    struct Lying<'t> {
        inner: TraceWorkload<'t>,
        claimed: usize,
    }

    impl Workload for Lying<'_> {
        fn files(&self) -> &FileSet {
            self.inner.files()
        }
        fn len(&self) -> usize {
            self.claimed
        }
        fn next_file(&mut self) -> Option<FileId> {
            self.inner.next_file()
        }
        fn rewind(&mut self) {
            self.inner.rewind();
        }
    }

    #[test]
    fn a_workload_that_runs_dry_ends_the_run_instead_of_serving_file_zero() {
        let trace = small_trace(32);
        let mut lying = Lying {
            inner: TraceWorkload::new(&trace),
            claimed: trace.len() * 2,
        };
        let r = simulate_workload(&small_config(4), PolicyKind::Traditional, &mut lying);
        assert_eq!(
            r.completed,
            trace.len() as u64,
            "only real requests are served"
        );
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn a_dry_open_loop_workload_also_winds_down() {
        let trace = small_trace(33);
        let mut lying = Lying {
            inner: TraceWorkload::new(&trace),
            claimed: trace.len() * 2,
        };
        let mut cfg = small_config(4);
        cfg.arrivals = crate::ArrivalMode::Poisson { rate_rps: 400.0 };
        let r = simulate_workload(&cfg, PolicyKind::Traditional, &mut lying);
        assert_eq!(r.completed, trace.len() as u64);
    }

    #[test]
    fn hetero_uniform_matches_the_homogeneous_run_exactly() {
        let trace = small_trace(30);
        let base = small_config(4);
        assert_eq!(base.hetero, l2s_cluster::HeteroSpec::uniform());
        // The paper's node, split over three classes: the same hardware
        // through a different spec.
        let paper_node = l2s_cluster::NodeClass {
            weight: 1.0,
            cpu_speed: 1.0,
            cache_factor: 1.0,
            ni_buffer_factor: 1.0,
        };
        let mut split = base.clone();
        split.hetero = l2s_cluster::HeteroSpec::new(vec![paper_node; 3]).unwrap();
        for kind in [PolicyKind::L2s, PolicyKind::Jsq, PolicyKind::Sita] {
            let a = simulate(&base, kind, &trace);
            let b = simulate(&split, kind, &trace);
            assert_eq!(a, b, "{} diverged under the split spec", kind.name());
        }
    }

    #[test]
    fn hetero_fast_nodes_absorb_more_load_under_jsq() {
        let trace = small_trace(31);
        let mut cfg = small_config(8);
        cfg.hetero = l2s_cluster::HeteroSpec::extreme();
        let r = simulate(&cfg, PolicyKind::Jsq, &trace);
        assert_eq!(r.completed, trace.len() as u64);
        // The extreme mix puts two 4× nodes in front of six 0.5× ones;
        // least-loaded sampling should complete more per fast node.
        let fast: u64 = r.per_node[..2].iter().map(|n| n.completed).sum();
        let slow: u64 = r.per_node[2..].iter().map(|n| n.completed).sum();
        assert!(
            fast * 6 > slow * 2,
            "per-node: fast {fast}/2 !> slow {slow}/6"
        );
    }

    #[test]
    fn new_dispatchers_run_deterministically() {
        let trace = small_trace(34);
        let cfg = small_config(4);
        for kind in [PolicyKind::Jsq, PolicyKind::Jiq, PolicyKind::Sita] {
            let a = simulate(&cfg, kind, &trace);
            let b = simulate(&cfg, kind, &trace);
            assert_eq!(a, b, "{} is not deterministic", kind.name());
            assert_eq!(a.completed, trace.len() as u64, "{}", kind.name());
        }
    }

    #[test]
    fn jsq_d_widens_the_choice_set() {
        let trace = small_trace(35);
        let mut d1 = small_config(8);
        d1.jsq_d = 1;
        let mut d4 = d1.clone();
        d4.jsq_d = 4;
        let r1 = simulate(&d1, PolicyKind::Jsq, &trace);
        let r4 = simulate(&d4, PolicyKind::Jsq, &trace);
        assert_eq!(r1.completed, r4.completed);
        // d = 1 is random placement, d = 4 samples four nodes: the knob
        // must actually reach the policy and change the placements. (The
        // closed loop's admission window already bounds imbalance, so
        // per-node counts are not a useful discriminator here.)
        let counts_1: Vec<u64> = r1.per_node.iter().map(|n| n.completed).collect();
        let counts_4: Vec<u64> = r4.per_node.iter().map(|n| n.completed).collect();
        assert_ne!(counts_1, counts_4, "jsq_d is not reaching the policy");
    }

    /// A crash/recovery pair sized to `kind`'s healthy run: `node` dies
    /// at 25% of the healthy elapsed time and reboots at 55%, so the
    /// run passes through all three phases.
    fn mid_run_fault(
        cfg: &SimConfig,
        kind: PolicyKind,
        trace: &Trace,
        node: usize,
    ) -> crate::FaultPlan {
        let healthy = simulate(cfg, kind, trace);
        let e = healthy.elapsed.as_secs_f64();
        crate::FaultPlan::crash_recover(node, 0.25 * e, 0.55 * e)
    }

    #[test]
    fn healthy_runs_report_no_fault_activity() {
        let trace = small_trace(11);
        let r = simulate(&small_config(4), PolicyKind::L2s, &trace);
        assert_eq!(r.failed, 0);
        assert_eq!(r.retried, 0);
        assert_eq!(r.unavailability, 0.0);
        assert!(r.phase_rps[0] > 0.0, "all completions are healthy-phase");
        assert_eq!(r.phase_rps[1], 0.0);
        assert_eq!(r.phase_rps[2], 0.0);
    }

    #[test]
    fn every_policy_survives_a_crash_and_conserves_requests() {
        let trace = small_trace(12);
        let base = small_config(4);
        for kind in PolicyKind::all() {
            let mut cfg = base.clone();
            cfg.faults = mid_run_fault(&base, kind, &trace, 2);
            let r = simulate(&cfg, kind, &trace);
            assert_eq!(
                r.completed + r.failed,
                trace.len() as u64,
                "{}: every request must complete or terminally fail",
                kind.name()
            );
            assert!(
                r.unavailability > 0.0 && r.unavailability < 1.0,
                "{}: unavailability {} out of range",
                kind.name(),
                r.unavailability
            );
            assert!(
                r.phase_rps[1] > 0.0,
                "{}: no degraded-phase completions",
                kind.name()
            );
            assert!(
                r.phase_rps[2] > 0.0,
                "{}: no recovered-phase completions",
                kind.name()
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let trace = small_trace(13);
        let mut cfg = small_config(4);
        cfg.faults = mid_run_fault(&cfg, PolicyKind::L2s, &trace, 1);
        let a = simulate(&cfg, PolicyKind::L2s, &trace);
        let b = simulate(&cfg, PolicyKind::L2s, &trace);
        assert_eq!(a, b);
        assert!(a.retried > 0, "the crash should strand some requests");
    }

    #[test]
    fn retries_rescue_requests_that_a_crash_aborts() {
        let trace = small_trace(14);
        let mut cfg = small_config(4);
        cfg.faults = mid_run_fault(&cfg, PolicyKind::Traditional, &trace, 2);
        cfg.fault_retries = 4;
        let r = simulate(&cfg, PolicyKind::Traditional, &trace);
        assert!(r.retried > 0, "the crash should strand some requests");
        assert_eq!(
            r.failed, 0,
            "with live nodes available and retries enabled, nothing is lost"
        );
        assert_eq!(r.completed, trace.len() as u64);
    }

    #[test]
    fn disabling_retries_turns_aborts_into_failures() {
        let trace = small_trace(15);
        let mut cfg = small_config(4);
        cfg.faults = mid_run_fault(&cfg, PolicyKind::Traditional, &trace, 2);
        cfg.fault_retries = 0;
        let r = simulate(&cfg, PolicyKind::Traditional, &trace);
        assert_eq!(r.retried, 0);
        assert!(r.failed > 0, "aborted requests must surface as failures");
        assert_eq!(r.completed + r.failed, trace.len() as u64);
    }

    #[test]
    fn degraded_cluster_loses_throughput() {
        let trace = small_trace(16);
        let mut cfg = small_config(4);
        cfg.faults = mid_run_fault(&cfg, PolicyKind::Traditional, &trace, 3);
        let r = simulate(&cfg, PolicyKind::Traditional, &trace);
        assert!(
            r.phase_rps[1] < r.phase_rps[0],
            "3 nodes ({} r/s) should be slower than 4 ({} r/s)",
            r.phase_rps[1],
            r.phase_rps[0]
        );
    }

    #[test]
    fn all_down_cluster_fails_every_request_and_places_none() {
        // Regression for the silent-zero family: an `unwrap_or(0)` in
        // the selection path used to route arrivals to node 0 even with
        // the whole cluster down. With Option-based selection a total
        // outage must reject everything — no request may reach node 0
        // (or any node) and every injected request counts as failed.
        let trace = small_trace(23);
        let mut cfg = small_config(4);
        cfg.faults = crate::FaultPlan::scheduled(
            (0..4)
                .map(|node| crate::FaultEvent {
                    at: SimDuration::ZERO,
                    node,
                    kind: FaultKind::Crash,
                })
                .collect(),
        );
        cfg.fault_retries = 3;
        for kind in [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Jsq] {
            let mut placements = Vec::new();
            let mut observer = |r: PlacementRecord| placements.push(r);
            let mut workload = TraceWorkload::new(&trace);
            let r = simulate_workload_observed(&cfg, kind, &mut workload, &mut observer);
            assert_eq!(
                r.failed,
                trace.len() as u64,
                "{}: every injected request must fail during a total outage",
                kind.name()
            );
            assert_eq!(r.completed, 0, "{}: nothing can complete", kind.name());
            assert!(
                placements.is_empty(),
                "{}: {} placements reached nodes of an all-down cluster \
                 (first: node {:?})",
                kind.name(),
                placements.len(),
                placements.first().map(|p| p.service)
            );
            assert_eq!(
                r.per_node.iter().map(|n| n.completed).sum::<u64>(),
                0,
                "{}: per-node counters must agree",
                kind.name()
            );
        }
    }

    #[test]
    fn lard_front_end_crash_is_survivable() {
        // LARD's front-end is a single point of failure for *state*, but
        // the simulated cluster detects the crash, fails over arrivals,
        // and rebuilds the mapping on recovery.
        let trace = small_trace(17);
        let mut cfg = small_config(4);
        cfg.faults = mid_run_fault(&cfg, PolicyKind::Lard, &trace, 0);
        cfg.fault_retries = 8;
        let r = simulate(&cfg, PolicyKind::Lard, &trace);
        assert_eq!(r.completed + r.failed, trace.len() as u64);
        assert!(r.completed > 0);
    }

    #[test]
    fn lard_dispatcher_fails_new_connections_while_its_dispatcher_is_down() {
        // Node 0 is the dispatcher. Once it is down nobody answers the
        // accepting node's query, so every later connection fails, as
        // behind LARD's dead front-end, instead of being distributed
        // (and charged two messages) anyway.
        let trace = small_trace(19);
        let mut cfg = small_config(4);
        let healthy = simulate(&cfg, PolicyKind::LardDispatcher, &trace);
        cfg.faults = crate::FaultPlan::scheduled(vec![crate::FaultEvent {
            at: SimDuration::from_secs_f64(0.25 * healthy.elapsed.as_secs_f64()),
            node: 0,
            kind: FaultKind::Crash,
        }]);
        let r = simulate(&cfg, PolicyKind::LardDispatcher, &trace);
        let total = trace.len() as u64;
        assert_eq!(r.completed + r.failed, total);
        assert!(r.completed > 0, "requests before the crash complete");
        assert!(
            r.failed > total / 2,
            "only {} of {total} requests failed with the dispatcher down",
            r.failed
        );
    }
}
