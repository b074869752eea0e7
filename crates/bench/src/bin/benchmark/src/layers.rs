//! The traced run: attributes host time to layers from outside them.
//!
//! Nothing here reaches inside a layer. Two kinds of evidence are used:
//!
//! * **In-situ spans** around calls the benchmark itself makes: set-up,
//!   each `simulate_workload` call, the benchmark's own request-source
//!   wrapper (`Workload::next_file`), the placement observer, and the
//!   CLF replay loop (`ClfStream::next_record`, `ReplayEngine::offer`,
//!   `drain_due`, `report`, `finish`), which repeats `replay_stream`'s
//!   calls in its order. Their shares are of the traced run itself, less
//!   the measured cost of the instrumentation.
//! * **Isolated replays** for the layers the engine calls internally
//!   (event list, dispatch, caches, fabric, modulation): the run's
//!   placement stream (`simulate_workload_observed`) plus its fault plan
//!   is replayed into that layer's public API alone, and the layer's
//!   share of the run is `operations x ns/op / untraced simulate time`.
//!   Whatever the shares do not cover — memory effects, interactions,
//!   the engine's own bookkeeping — is reported as `sim.residual_share`.
//!
//! Count metrics come from the simulator's reports and from the
//! deterministic replays, so they repeat bit for bit; time metrics do not.

use crate::digest;
use crate::spans::{bracket_ns, ratio, Acc, Spans};
use crate::workloads::{self, Cell, ClfLog, Size, Source, Workload};
use l2s::{PolicyDriver, PolicyKind};
use l2s_cluster::build_nodes;
use l2s_devs::EventQueue;
use l2s_net::Fabric;
use l2s_replay::ReplayEngine;
use l2s_sim::{
    simulate_workload_observed, Clock, FaultKind, ModulatedWorkload, PlacementRecord, SimConfig,
    SimReport, TraceWorkload, VirtualClock, Workload as RequestSource,
};
use l2s_trace::{FileId, FileSet, Trace};
use l2s_util::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// One per-layer metric: its name, unit, and whether it is a count
/// (exactly repeatable) rather than a time.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, exact: bool) -> MetricDef {
    MetricDef { name, unit, exact }
}

/// Every per-layer metric, in output order. A layer a workload never
/// exercises reports 0.
pub const METRICS: &[MetricDef] = &[
    def("devs.fel.ins_shifted_per_event", "count", true),
    def("devs.fel.deferred_per_event", "count", true),
    def("devs.fel.far_share", "ratio", true),
    def("devs.fel.peak_depth", "count", true),
    def("devs.fel.ns_per_op", "ns", false),
    def("devs.fel.share", "ratio", false),
    def("devs.fel.replay_fidelity", "ratio", true),
    def("core.ctrl_msgs_per_request", "count", true),
    def("core.forwarded_fraction", "ratio", true),
    def("core.place_ns", "ns", false),
    def("core.complete_ns", "ns", false),
    def("core.share", "ratio", false),
    def("core.replay_agreement", "ratio", true),
    def("cluster.cache.miss_rate", "ratio", true),
    def("cluster.cache.evictions_per_request", "count", true),
    def("cluster.cache.kb_inserted_per_request", "KB", true),
    def("cluster.cache.access_ns", "ns", false),
    def("cluster.cache.share", "ratio", false),
    def("cluster.cache.replay_miss_error", "ratio", true),
    def("net.fabric.transit_ns", "ns", false),
    def("net.fabric.share", "ratio", false),
    def("trace.next_file_ns", "ns", false),
    def("trace.share", "ratio", false),
    def("trace.generate_s", "s", false),
    def("trace.clf.next_record_ns", "ns", false),
    def("trace.clf.state_kb", "KB", true),
    def("workload.modulate_ns", "ns", false),
    def("workload.share", "ratio", false),
    def("replay.offer_ns", "ns", false),
    def("replay.snapshot_ns", "ns", false),
    def("replay.snapshot_share", "ratio", false),
    def("replay.finish_s", "s", false),
    def("sim.events_per_request", "count", true),
    def("sim.ns_per_event", "ns", false),
    def("sim.observer_ns", "ns", false),
    def("sim.residual_share", "ratio", false),
    def("trace_overhead", "ratio", false),
];

/// One placement, compacted from a [`PlacementRecord`] (or from a
/// replayed `ReplayEngine::offer`).
#[derive(Clone, Copy, Debug)]
struct Rec {
    at_ns: u64,
    file: u32,
    /// Serving node; [`REJECTED`] when no node accepted.
    service: u16,
    forwarded: bool,
}

const REJECTED: u16 = u16::MAX;

impl Rec {
    fn service(self) -> Option<usize> {
        (self.service != REJECTED).then_some(usize::from(self.service))
    }
}

impl From<PlacementRecord> for Rec {
    fn from(r: PlacementRecord) -> Self {
        Rec {
            at_ns: r.at.as_nanos(),
            file: r.file.raw(),
            service: r.service as u16,
            forwarded: r.forwarded,
        }
    }
}

/// A fault in replay time: `(at_ns, node, recovers)`.
type Fault = (u64, usize, bool);

/// The traced run's outcome.
pub struct Traced {
    /// Values in [`METRICS`] order.
    pub metrics: Vec<f64>,
    /// Digest of the untraced run's reports.
    pub digest: u64,
    /// Digest of the discarded warm-up repetition.
    pub warmup_digest: u64,
    /// `completed + failed == injected` held everywhere.
    pub conserved: bool,
    /// The traced runs reproduced the untraced results exactly.
    pub consistent: bool,
}

/// Sums over a workload's cells, turned into metrics at the end.
#[derive(Default)]
struct Ledger {
    /// Host ns of the untraced runs: the denominator of the shares
    /// derived from isolated replays.
    wall_ns: f64,
    /// Host ns of the same runs traced.
    traced_ns: f64,
    /// `traced_ns` less what the instrumentation itself cost (brackets,
    /// the observer): the denominator of the in-situ shares.
    situ_ns: f64,
    requests: f64,
    events: f64,
    fel_shifted: f64,
    fel_deferred: f64,
    fel_near: f64,
    fel_far: f64,
    peak_depth: f64,
    /// Σ events x replayed ns/op.
    fel_ns: f64,
    /// Σ events x replayed shifts/push, and the run's own.
    fel_replay_shift: f64,
    fel_run_shift: f64,
    completed: f64,
    ctrl_msgs: f64,
    forwarded: f64,
    /// Dispatch replay ns (whole passes), split into place and complete.
    core_ns: f64,
    place_ns: f64,
    complete_ns: f64,
    places: f64,
    completes: f64,
    agree: f64,
    compared: f64,
    lookups: f64,
    misses: f64,
    replay_lookups: f64,
    replay_misses: f64,
    measured_requests: f64,
    evictions: f64,
    kb_inserted: f64,
    cache: Acc,
    fabric: Acc,
    next_file: Acc,
    observer: Acc,
    modulate_ns: f64,
    modulate_calls: f64,
    generate_s: f64,
    next_record: Acc,
    state_kb: f64,
    offer: Acc,
    snapshot: Acc,
    finish_s: f64,
}

impl Ledger {
    /// Folds in the counts a report carries: completions, control
    /// messages, hand-offs and cache lookups.
    fn add_report(&mut self, report: &SimReport) {
        let completed = report.completed as f64;
        self.completed += completed;
        self.ctrl_msgs += report.control_msgs_per_request * completed;
        self.forwarded += report.forwarded_fraction * completed;
        for n in &report.per_node {
            self.lookups += (n.cache_hits + n.cache_misses) as f64;
            self.misses += n.cache_misses as f64;
        }
    }
}

/// Runs `workload` traced: an untraced and a traced run of every cell,
/// then the isolated layer replays.
pub fn run(
    workload: Workload,
    size: &Size,
    source: &mut Source,
    log: Option<&ClfLog>,
    generate_s: f64,
    spans: &mut Spans,
) -> Result<Traced, String> {
    // A process's first repetition runs cold (the allocator is still
    // growing its heap); the timed runs' median leaves it out, so the
    // traced run discards one before measuring anything.
    let warmup = spans.time("warm-up repetition (discarded)", |_| {
        workloads::run(workload, size, source, log)
    })?;
    let bracket = bracket_ns();
    let mut ledger = Ledger {
        generate_s,
        ..Ledger::default()
    };
    let (digest, conserved, consistent) = match workload {
        Workload::ClfReplay => {
            let log = log.ok_or("clf-replay needs its rendered log")?;
            clf(&mut ledger, log, bracket, spans)?
        }
        _ => des(&mut ledger, workload, size, source, bracket, spans),
    };
    Ok(Traced {
        metrics: metrics(&ledger),
        digest,
        warmup_digest: warmup.digest,
        conserved,
        consistent,
    })
}

/// A request source that times every `next_file` call.
struct TimedSource<'a> {
    inner: &'a mut dyn RequestSource,
    acc: Acc,
}

impl RequestSource for TimedSource<'_> {
    fn files(&self) -> &FileSet {
        self.inner.files()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn next_file(&mut self) -> Option<FileId> {
        let inner = &mut *self.inner;
        self.acc.time(|| inner.next_file())
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }

    fn next_arrival_s(&mut self) -> Option<f64> {
        self.inner.next_arrival_s()
    }
}

/// One traced simulation: the report, the placement stream, and the
/// request-source and observer timers.
fn observed(cell: &Cell, source: &mut Source, capacity: usize) -> (SimReport, Vec<Rec>, Acc, Acc) {
    let mut records: Vec<Rec> = Vec::with_capacity(capacity);
    let mut observer_acc = Acc::default();
    let mut observer = |r: PlacementRecord| observer_acc.time(|| records.push(Rec::from(r)));
    let mut trace_source;
    let inner: &mut dyn RequestSource = match source {
        Source::Trace(trace) => {
            trace_source = TraceWorkload::new(trace);
            &mut trace_source
        }
        Source::Synth(synth) => {
            synth.rewind();
            synth
        }
    };
    let mut timed = TimedSource {
        inner,
        acc: Acc::default(),
    };
    let report = simulate_workload_observed(&cell.config, cell.kind, &mut timed, &mut observer);
    let next_file = timed.acc;
    (report, records, next_file, observer_acc)
}

/// The DES workloads: per cell an untraced run, a traced run, and the
/// isolated replays of its placement stream.
fn des(
    ledger: &mut Ledger,
    workload: Workload,
    size: &Size,
    source: &mut Source,
    bracket: f64,
    spans: &mut Spans,
) -> (u64, bool, bool) {
    let len = source.requests();
    let kb: Vec<f64> = source.files().iter().map(|(_, kb)| kb).collect();
    let mut reports = Vec::new();
    let mut conserved = true;
    let mut consistent = true;
    for cell in workloads::cells(workload, size, source) {
        let limit = cell.limit(len);
        let passes = cell.passes();
        let (plain, wall_ns) = spans.timed("simulate_workload", |_| {
            workloads::simulate_cell(&cell, source)
        });
        let ((report, records, next_file, observer), traced_ns) =
            spans.timed("simulate_workload_observed", |sp| {
                let out = observed(&cell, source, limit * passes + limit / 8);
                sp.leaf("Workload::next_file", out.2);
                sp.leaf("PlacementObserver", out.3);
                out
            });
        consistent &= report == plain;
        conserved &= plain.completed + plain.failed == limit as u64;

        let requests = (limit * passes) as f64;
        let events = plain.events_handled as f64;
        let stats = plain.fel_ops;
        ledger.wall_ns += wall_ns as f64;
        ledger.traced_ns += traced_ns as f64;
        ledger.requests += requests;
        ledger.events += events;
        ledger.fel_shifted += stats.ins_shifted as f64;
        ledger.fel_deferred += stats.deferred as f64;
        ledger.fel_near += stats.near_pushes as f64;
        ledger.fel_far += stats.far_pushes as f64;
        ledger.peak_depth = ledger.peak_depth.max(plain.peak_fel_depth as f64);
        ledger.add_report(&plain);
        let observer_net = observer.net(bracket);
        ledger.situ_ns += traced_ns as f64
            - bracket * (next_file.calls + observer.calls) as f64
            - observer_net.ns as f64;
        ledger.next_file += next_file.net(bracket);
        ledger.observer += observer_net;

        // The measured pass starts where the warm-up's `limit` decisions
        // end; fault offsets count from there.
        let boundary = if cell.config.warmup { limit } else { 0 };
        let base = records.get(boundary).map_or(0, |r| r.at_ns);
        let faults: Vec<Fault> = cell
            .config
            .faults
            .events()
            .iter()
            .map(|e| (base + e.at.as_nanos(), e.node, e.kind == FaultKind::Recover))
            .collect();
        spans.time("isolated replays", |sp| {
            sp.time("EventQueue hold model", |_| fel_replay(ledger, &plain));
            sp.time("PolicyDriver", |_| {
                core_replay(
                    ledger,
                    cell.kind,
                    &cell.config,
                    kb.len(),
                    &records,
                    &faults,
                    bracket,
                )
            });
            sp.time("NodeHardware::access_file", |_| {
                cache_replay(ledger, &cell.config, &kb, &records, boundary, &faults)
            });
            sp.time("Fabric", |_| {
                fabric_replay(ledger, &cell.config, &kb, &records)
            });
            if let Source::Trace(trace) = source {
                if !cell.config.workload_mod.is_none() {
                    sp.time("ModulatedWorkload::next_file", |_| {
                        modulation_replay(ledger, trace, &cell, limit)
                    });
                }
            }
        });
        reports.push(plain);
    }
    (digest::digest(&reports), conserved, consistent)
}

/// Shifts per push and ns per hold operation of an [`EventQueue`] kept
/// at `depth` pending events, each pop rescheduling its event an
/// exponential `mean_ns` later (the classic hold model).
fn hold(depth: usize, mean_ns: f64, ops: usize) -> (f64, f64) {
    let warm = 2 * depth;
    let mut rng = DetRng::new(0x401d);
    let incs: Vec<u64> = (0..depth + warm + ops)
        .map(|_| 1 + rng.exponential(mean_ns) as u64)
        .collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for (i, &inc) in incs[..depth].iter().enumerate() {
        q.schedule(SimTime::from_nanos(inc), i as u64);
    }
    let step = |q: &mut EventQueue<u64>, inc: u64| {
        let (now, ev) = q.pop().expect("the hold model never drains");
        q.schedule(now + SimDuration::from_nanos(inc), black_box(ev));
    };
    for &inc in &incs[depth..depth + warm] {
        step(&mut q, inc);
    }
    let before = q.stats();
    let start = Instant::now();
    for &inc in &incs[depth + warm..] {
        step(&mut q, inc);
    }
    let ns = start.elapsed().as_nanos() as f64;
    let after = q.stats();
    let pushes = (after.near_pushes + after.far_pushes) - (before.near_pushes + before.far_pushes);
    let shifted = after.ins_shifted - before.ins_shifted;
    (ratio(shifted as f64, pushes as f64), ns / ops as f64)
}

/// Replays the event list as a hold model at the run's peak depth, with
/// the mean reschedule delay bisected until the model shifts as many
/// near-lane entries per push as the run did.
fn fel_replay(ledger: &mut Ledger, report: &SimReport) {
    let stats = report.fel_ops;
    let pushes = (stats.near_pushes + stats.far_pushes) as f64;
    if pushes == 0.0 {
        return;
    }
    let target = stats.ins_shifted as f64 / pushes;
    let depth = report.peak_fel_depth.max(1);
    // Shifts per push fall monotonically as the mean delay grows and
    // events spread over more calendar epochs. The search spans 100 ns to
    // 1 s, the engine's range of delays.
    let (mut lo, mut hi) = (1e2f64.ln(), 1e9f64.ln());
    for _ in 0..28 {
        let mid = 0.5 * (lo + hi);
        if hold(depth, mid.exp(), 20_000).0 > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (shift, ns_per_op) = hold(depth, (0.5 * (lo + hi)).exp(), 400_000);
    let events = report.events_handled as f64;
    ledger.fel_ns += events * ns_per_op;
    ledger.fel_replay_shift += events * shift;
    ledger.fel_run_shift += events * target;
}

/// Replays the placement stream through a fresh [`PolicyDriver`]:
/// every recorded arrival is placed at its recorded time, and once the
/// cluster holds `nodes x window` requests the oldest completes before
/// each new placement. The replay runs twice: once timed as a whole (the
/// layer's cost), once with every call bracketed, only to split that
/// cost between `place` and `complete`.
fn core_replay(
    ledger: &mut Ledger,
    kind: PolicyKind,
    config: &SimConfig,
    files: usize,
    records: &[Rec],
    faults: &[Fault],
    bracket: f64,
) {
    let start = Instant::now();
    let agree = core_pass(kind, config, files, records, faults, None);
    let total_ns = start.elapsed().as_nanos() as f64;
    let mut calls = [Acc::default(); 2];
    core_pass(kind, config, files, records, faults, Some(&mut calls));
    let [place, complete] = calls.map(|a| a.net(bracket));
    let place_part = ratio(place.ns as f64, (place.ns + complete.ns) as f64);
    ledger.core_ns += total_ns;
    ledger.place_ns += total_ns * place_part;
    ledger.complete_ns += total_ns * (1.0 - place_part);
    ledger.places += place.calls as f64;
    ledger.completes += complete.calls as f64;
    ledger.agree += agree as f64;
    ledger.compared += records.len() as f64;
}

/// One dispatch replay; with `calls`, each `place` (`[0]`) and
/// `complete` (`[1]`), control-message drain included, is bracketed.
/// Returns how many placements matched the recorded ones.
fn core_pass(
    kind: PolicyKind,
    config: &SimConfig,
    files: usize,
    records: &[Rec],
    faults: &[Fault],
    mut calls: Option<&mut [Acc; 2]>,
) -> u64 {
    let window = config.total_window();
    let mut driver = PolicyDriver::new(kind, config.nodes);
    driver.hint_files(files);
    let mut open: VecDeque<(usize, u32)> = VecDeque::with_capacity(window + 1);
    let mut agree = 0u64;
    let mut next_fault = 0;
    for r in records {
        while let Some(&(at, node, up)) = faults.get(next_fault) {
            if at > r.at_ns {
                break;
            }
            if up {
                driver.node_up(at, node);
            } else {
                driver.node_down(at, node);
            }
            next_fault += 1;
        }
        if open.len() >= window {
            if let Some((node, file)) = open.pop_front() {
                let mut complete = || {
                    driver.complete(r.at_ns, node, file);
                    black_box(driver.drain_messages().len());
                };
                match calls.as_deref_mut() {
                    Some([_, acc]) => acc.time(complete),
                    None => complete(),
                }
            }
        }
        let mut place = || {
            let p = driver.place(r.at_ns, r.file);
            black_box(driver.drain_messages().len());
            p
        };
        let placed = match calls.as_deref_mut() {
            Some([acc, _]) => acc.time(place),
            None => place(),
        };
        if let Some(node) = placed.node() {
            open.push_back((node, r.file));
        }
        agree += u64::from(placed.node() == r.service());
    }
    agree
}

/// Replays each placement's file access on its serving node's hardware
/// (`NodeHardware::access_file`), wiping caches at the recorded crashes
/// and zeroing statistics where the measured pass begins.
fn cache_replay(
    ledger: &mut Ledger,
    config: &SimConfig,
    kb: &[f64],
    records: &[Rec],
    boundary: usize,
    faults: &[Fault],
) {
    let mut nodes = build_nodes(
        config.nodes,
        config.cache_policy,
        config.cache_kb,
        config.ni_buffer,
    );
    let mut kb_inserted = 0.0;
    let mut next_fault = 0;
    let start = Instant::now();
    for (i, r) in records.iter().enumerate() {
        if i == boundary {
            nodes.iter_mut().for_each(|n| n.reset_stats());
            kb_inserted = 0.0;
        }
        while let Some(&(at, node, up)) = faults.get(next_fault) {
            if at > r.at_ns {
                break;
            }
            if !up {
                nodes[node].crash(SimTime::from_nanos(at));
            }
            next_fault += 1;
        }
        let Some(node) = r.service() else { continue };
        let size = kb[r.file as usize];
        if !nodes[node].access_file(FileId::from_raw(r.file), size) {
            kb_inserted += size;
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    let (hits, misses, evictions) = nodes.iter().fold((0, 0, 0), |(h, m, e), n| {
        let s = n.cache.stats();
        (h + s.hits, m + s.misses, e + s.evictions)
    });
    ledger.cache += Acc {
        calls: records.len() as u64,
        ns,
    };
    ledger.replay_lookups += (hits + misses) as f64;
    ledger.replay_misses += misses as f64;
    ledger.evictions += evictions as f64;
    ledger.kb_inserted += kb_inserted;
    ledger.measured_requests += records.len().saturating_sub(boundary) as f64;
}

/// Replays each request's fabric crossings in isolation: router in,
/// switch to the node, a second switch hop for hand-offs, switch back,
/// router out.
fn fabric_replay(ledger: &mut Ledger, config: &SimConfig, kb: &[f64], records: &[Rec]) {
    let net = config.net;
    let mut fabric = Fabric::new(net);
    let inbound = net.router_service(config.request_kb);
    let outbound: Vec<SimDuration> = kb.iter().map(|&k| net.router_service(k)).collect();
    let mut ops = 0u64;
    let start = Instant::now();
    for r in records {
        let t = SimTime::from_nanos(r.at_ns);
        let cleared = fabric.router_transit_service(t, inbound);
        let mut at = fabric.switch_transit(cleared);
        if r.forwarded {
            at = fabric.switch_transit(at);
        }
        let back = fabric.switch_transit(at);
        black_box(fabric.router_transit_service(back, outbound[r.file as usize]));
        ops += 4 + u64::from(r.forwarded);
    }
    let ns = start.elapsed().as_nanos() as u64;
    ledger.fabric += Acc { calls: ops, ns };
}

/// Times `ModulatedWorkload::next_file` over the cell's request source
/// against the bare source; the difference is the modulation layer.
fn modulation_replay(ledger: &mut Ledger, trace: &Trace, cell: &Cell, limit: usize) {
    let passes = cell.passes();
    let drain = |w: &mut dyn RequestSource| {
        let start = Instant::now();
        for _ in 0..passes {
            w.rewind();
            for _ in 0..limit {
                black_box(w.next_file());
            }
        }
        start.elapsed().as_nanos() as f64
    };
    let base_ns = drain(&mut TraceWorkload::new(trace));
    let mut base = TraceWorkload::new(trace);
    let spec = cell.config.workload_mod.clone();
    let modulated_ns = drain(&mut ModulatedWorkload::new(
        &mut base,
        spec,
        cell.config.seed,
    ));
    ledger.modulate_ns += (modulated_ns - base_ns).max(0.0);
    ledger.modulate_calls += (limit * passes) as f64;
}

/// `clf-replay`: the untraced `replay_stream`, then the same loop made
/// of `ClfStream` and `ReplayEngine` calls with each call timed, then
/// the dispatch and cache replays of the offers it made.
fn clf(
    ledger: &mut Ledger,
    log: &ClfLog,
    bracket: f64,
    spans: &mut Spans,
) -> Result<(u64, bool, bool), String> {
    let (plain, wall_ns) = spans.timed("replay_stream", |_| log.replay());
    let (plain, kept) = plain?;
    let (traced, traced_ns) = spans.timed("replay loop (traced)", |sp| traced_replay(log, sp));
    let traced = traced?;

    ledger.wall_ns = wall_ns as f64;
    ledger.traced_ns = traced_ns as f64;
    ledger.situ_ns = traced_ns as f64 - bracket * traced.bracketed as f64;
    ledger.requests = kept as f64;
    ledger.add_report(&plain);
    ledger.next_record = traced.next_record.net(bracket);
    ledger.state_kb = traced.state_kb;
    ledger.offer = traced.offer.net(bracket);
    // A snapshot is one `drain_due` plus one `report`.
    ledger.snapshot = Acc {
        calls: traced.drain.calls,
        ns: traced.drain.net(bracket).ns + traced.report.net(bracket).ns,
    };
    ledger.finish_s = traced.finish_ns as f64 * 1e-9;

    let cfg = workloads::replay_config();
    let config = SimConfig::paper_default(cfg.nodes);
    spans.time("isolated replays", |sp| {
        sp.time("PolicyDriver", |_| {
            let files = traced.sizes_kb.len();
            core_replay(
                ledger,
                cfg.policy,
                &config,
                files,
                &traced.records,
                &[],
                bracket,
            )
        });
        sp.time("NodeHardware::access_file", |_| {
            cache_replay(ledger, &config, &traced.sizes_kb, &traced.records, 0, &[])
        });
    });
    let digest = digest::digest(std::slice::from_ref(&plain));
    let conserved = log.conserved(&plain, kept);
    Ok((digest, conserved, traced.final_report == plain))
}

/// What the traced replay loop saw: its result, the offers it made,
/// the stream's final state, and a timer per call site.
struct TracedReplay {
    final_report: SimReport,
    records: Vec<Rec>,
    sizes_kb: Vec<f64>,
    state_kb: f64,
    /// Calls bracketed by the timers below (plus `hint_sizes`).
    bracketed: u64,
    next_record: Acc,
    offer: Acc,
    drain: Acc,
    report: Acc,
    finish_ns: u64,
}

/// `replay_stream`'s loop, call for call, with every call timed.
fn traced_replay(log: &ClfLog, spans: &mut Spans) -> Result<TracedReplay, String> {
    let cfg = workloads::replay_config();
    let mut stream = log.open()?;
    let mut engine = spans.time("ReplayEngine::new", |_| ReplayEngine::new(cfg.clone()));
    let mut clock = VirtualClock::new();
    let [mut next_record, mut hint, mut offer, mut drain, mut report] = [Acc::default(); 5];
    let snap_ns = if cfg.snapshot_every_s > 0.0 {
        SimTime::from_secs_f64(cfg.snapshot_every_s).as_nanos()
    } else {
        0
    };
    let mut next_snap_ns = snap_ns;
    let mut hinted = 0usize;
    let mut records = Vec::with_capacity(log.lines as usize);
    while let Some(rec) = next_record
        .time(|| stream.next_record())
        .map_err(|e| format!("reading {}: {e}", log.path.display()))?
    {
        if cfg
            .max_requests
            .is_some_and(|cap| engine.injected() >= cap as u64)
        {
            break;
        }
        if hinted == 0 || stream.distinct_files() >= hinted * 2 {
            hint.time(|| engine.hint_sizes(stream.sizes_kb()));
            hinted = stream.distinct_files();
        }
        let at = SimTime::from_secs_f64(rec.at_s);
        clock.wait_until_ns(at.as_nanos());
        while snap_ns > 0 && at.as_nanos() >= next_snap_ns {
            drain.time(|| engine.drain_due(SimTime::from_nanos(next_snap_ns)));
            report.time(|| black_box(engine.report()));
            next_snap_ns += snap_ns;
        }
        let node = offer.time(|| engine.offer(at, rec.file.raw(), rec.size_kb));
        records.push(Rec {
            at_ns: at.as_nanos(),
            file: rec.file.raw(),
            service: node.map_or(REJECTED, |n| n as u16),
            forwarded: false,
        });
    }
    let (final_report, finish_ns) = spans.timed("ReplayEngine::finish", |_| engine.finish());
    for (name, acc) in [
        ("ClfStream::next_record", next_record),
        ("ReplayEngine::hint_sizes", hint),
        ("ReplayEngine::offer", offer),
        ("ReplayEngine::drain_due", drain),
        ("ReplayEngine::report", report),
    ] {
        spans.leaf(name, acc);
    }
    Ok(TracedReplay {
        final_report,
        records,
        sizes_kb: stream.sizes_kb().to_vec(),
        state_kb: stream.state_bytes() as f64 / 1024.0,
        bracketed: [next_record, hint, offer, drain, report]
            .iter()
            .map(|a| a.calls)
            .sum(),
        next_record,
        offer,
        drain,
        report,
        finish_ns,
    })
}

/// The ledger as per-layer metrics, in [`METRICS`] order.
fn metrics(l: &Ledger) -> Vec<f64> {
    let share = |ns: f64| ratio(ns, l.wall_ns);
    let situ_share = |ns: f64| ratio(ns, l.situ_ns);
    let fel_share = share(l.fel_ns);
    let core_share = share(l.core_ns);
    let cache_share = share(l.cache.ns as f64);
    let fabric_share = share(l.fabric.ns as f64);
    let trace_share = situ_share(l.next_file.ns as f64 + l.next_record.ns as f64);
    let workload_share = share(l.modulate_ns);
    let snapshot_share = situ_share(l.snapshot.ns as f64);
    let attributed = fel_share
        + core_share
        + cache_share
        + fabric_share
        + trace_share
        + workload_share
        + snapshot_share;
    METRICS
        .iter()
        .map(|m| {
            match m.name {
                "devs.fel.ins_shifted_per_event" => ratio(l.fel_shifted, l.events),
                "devs.fel.deferred_per_event" => ratio(l.fel_deferred, l.events),
                "devs.fel.far_share" => ratio(l.fel_far, l.fel_near + l.fel_far),
                "devs.fel.peak_depth" => l.peak_depth,
                "devs.fel.ns_per_op" => ratio(l.fel_ns, l.events),
                "devs.fel.share" => fel_share,
                "devs.fel.replay_fidelity" => {
                    // min(r, 1/r) of replayed over recorded shifts: 1 is a
                    // perfect match, 0.8 is 20 % off in either direction.
                    let r = ratio(l.fel_replay_shift, l.fel_run_shift);
                    r.min(ratio(1.0, r))
                }
                "core.ctrl_msgs_per_request" => ratio(l.ctrl_msgs, l.completed),
                "core.forwarded_fraction" => ratio(l.forwarded, l.completed),
                "core.place_ns" => ratio(l.place_ns, l.places),
                "core.complete_ns" => ratio(l.complete_ns, l.completes),
                "core.share" => core_share,
                "core.replay_agreement" => ratio(l.agree, l.compared),
                "cluster.cache.miss_rate" => ratio(l.misses, l.lookups),
                "cluster.cache.evictions_per_request" => ratio(l.evictions, l.measured_requests),
                "cluster.cache.kb_inserted_per_request" => {
                    ratio(l.kb_inserted, l.measured_requests)
                }
                "cluster.cache.access_ns" => l.cache.per_call(),
                "cluster.cache.share" => cache_share,
                "cluster.cache.replay_miss_error" => {
                    (ratio(l.replay_misses, l.replay_lookups) - ratio(l.misses, l.lookups)).abs()
                }
                "net.fabric.transit_ns" => l.fabric.per_call(),
                "net.fabric.share" => fabric_share,
                "trace.next_file_ns" => l.next_file.per_call(),
                "trace.share" => trace_share,
                "trace.generate_s" => l.generate_s,
                "trace.clf.next_record_ns" => l.next_record.per_call(),
                "trace.clf.state_kb" => l.state_kb,
                "workload.modulate_ns" => ratio(l.modulate_ns, l.modulate_calls),
                "workload.share" => workload_share,
                "replay.offer_ns" => l.offer.per_call(),
                "replay.snapshot_ns" => l.snapshot.per_call(),
                "replay.snapshot_share" => snapshot_share,
                "replay.finish_s" => l.finish_s,
                "sim.events_per_request" => ratio(l.events, l.requests),
                "sim.ns_per_event" => ratio(l.wall_ns, l.events),
                "sim.observer_ns" => l.observer.per_call(),
                "sim.residual_share" => 1.0 - attributed,
                "trace_overhead" => ratio(l.traced_ns, l.wall_ns),
                other => unreachable!("metric {other} has no definition"),
            }
        })
        .collect()
}
