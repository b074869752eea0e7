//! Scale-out proof harness: sweeps cluster sizes 16 → 1024 at a fixed
//! per-cell request count and records events/s, peak RSS, and peak FEL
//! depth in `BENCH_scaling.json` at the repo root.
//!
//! This is the evidence for the scale-out engine work: with indexed
//! dispatch the per-request policy cost is O(log n), with the streaming
//! workload the request count never touches resident memory, and with
//! lean metrics (`response_samples = false`) neither does the
//! completion count — so per-event *algorithmic* work stays flat from
//! 16 to 1024 nodes (each cell's queue operation counters prove it
//! wall-clock-free) and RSS stays flat in the request count. Measured
//! events/s still decays moderately with cluster size: the in-flight
//! window grows 64x across the sweep and drags the working set out of
//! L1 — see EXPERIMENTS.md for the decomposition.
//!
//! The workload is the Calgary file population (Table 2) streamed
//! straight from the synthetic generator — no materialized trace — at
//! 10 M requests per cell (≈10⁸ simulated events per cell; override
//! with `L2S_SCALING_REQUESTS`). Policies: traditional (pure O(log n)
//! dispatch) and LARD (front-end locality table + indexed load views).
//! L2S is excluded by design: its broadcast protocol sends Θ(n)
//! messages per load delta, so its cost at 1024 nodes is a property of
//! the *protocol*, not the engine — see DESIGN.md "Scaling
//! architecture".
//!
//! Modes:
//!
//! * default — run the full sweep (nodes ∈ {16, 64, 256, 1024}) and
//!   write `BENCH_scaling.json` (`L2S_SCALING_JSON` overrides the
//!   path);
//! * `--smoke` — a CI-sized flatness gate: traditional at 16 and 256
//!   nodes, 250 k requests, [`SMOKE_TRIALS`] interleaved pairs, exits
//!   non-zero if the median 256-node events/s falls below
//!   [`FLATNESS_FLOOR`] of the median 16-node figure.

use l2s::PolicyKind;
use l2s_sim::{simulate_workload, SimConfig, SynthWorkload};
use l2s_trace::TraceSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Requests per sweep cell in the full run. Traditional handles ~10
/// events per request, so the default puts every cell at or above 10⁸
/// events — the scale the memory-flat claims are made at.
const FULL_REQUESTS: usize = 10_000_000;

/// Requests per cell in `--smoke` mode (CI-sized; seconds, not minutes).
const SMOKE_REQUESTS: usize = 250_000;

/// Measurement pairs in `--smoke` mode, run 16-then-256 interleaved so
/// both sizes sample the same host-contention phases; the gate compares
/// per-column medians, so one contention spike cannot fail CI.
const SMOKE_TRIALS: usize = 3;

/// Minimum 256-node events/s as a fraction of the 16-node figure
/// (medians over [`SMOKE_TRIALS`] pairs). A per-request O(n) scan would
/// put the ratio near 16/256 = 0.06; the indexed engine measures
/// 0.5–0.7, the residual falloff being the 16x larger in-flight window
/// (4096 requests) spilling the working set out of L1 — per-event
/// algorithmic work is flat, which the queue's operation counters in
/// `BENCH_scaling.json` show machine-independently. The floor sits
/// below the measured band's noise so it trips on algorithmic
/// regressions, not on shared-host contention; the 0.8 stretch target
/// and the measured decomposition live in EXPERIMENTS.md.
const FLATNESS_FLOOR: f64 = 0.35;

/// Cluster sizes the full sweep covers.
const FULL_NODES: [usize; 4] = [16, 64, 256, 1024];

struct CellResult {
    policy: PolicyKind,
    nodes: usize,
    wall_s: f64,
    events: u64,
    peak_fel: usize,
    throughput_rps: f64,
    /// Process-wide peak RSS (kB) observed after this cell finished.
    rss_hwm_kb: u64,
    /// Event-queue operation counters — deterministic per-cell work
    /// evidence, immune to host noise.
    ops: l2s_devs::QueueStats,
}

/// Peak resident set size of this process in kB, from
/// `/proc/self/status` `VmHWM` (0 where procfs is unavailable). The
/// high-water mark is process-wide and monotone, which is exactly what
/// the memory-flat claim needs: if any cell materialized its requests,
/// the mark would jump by hundreds of MB and stay there.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn requests_per_cell(default: usize) -> usize {
    std::env::var("L2S_SCALING_REQUESTS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

fn json_path() -> std::path::PathBuf {
    std::env::var_os("L2S_SCALING_JSON")
        .map(Into::into)
        .unwrap_or_else(|| "BENCH_scaling.json".into())
}

/// Runs one sweep cell: a fresh streaming workload, lean metrics, no
/// warm-up (the sweep measures engine throughput, not cache curves).
fn run_cell(spec: &TraceSpec, policy: PolicyKind, nodes: usize) -> CellResult {
    let mut config = SimConfig::paper_default(nodes);
    config.warmup = false;
    config.response_samples = false;
    let mut workload = SynthWorkload::new(spec, 42);
    let start = Instant::now();
    let report = simulate_workload(&config, policy, &mut workload);
    let wall_s = start.elapsed().as_secs_f64();
    CellResult {
        policy,
        nodes,
        wall_s,
        events: report.events_handled,
        peak_fel: report.peak_fel_depth,
        throughput_rps: report.throughput_rps,
        rss_hwm_kb: peak_rss_kb(),
        ops: report.fel_ops,
    }
}

fn print_cell(c: &CellResult) {
    println!(
        "{:>12} {:>6} {:>10.3} {:>12} {:>12.0} {:>9} {:>12} {:>12.0}",
        c.policy.name(),
        c.nodes,
        c.wall_s,
        c.events,
        c.events as f64 / c.wall_s.max(1e-9),
        c.peak_fel,
        c.rss_hwm_kb,
        c.throughput_rps,
    );
}

fn header() {
    println!(
        "{:>12} {:>6} {:>10} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "policy", "nodes", "wall (s)", "events", "events/s", "peak FEL", "rss HWM kB", "sim r/s"
    );
}

fn eps(c: &CellResult) -> f64 {
    c.events as f64 / c.wall_s.max(1e-9)
}

/// Median of a small sample (the smoke's noise defense).
fn median(xs: &mut Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

fn smoke(spec: &TraceSpec) {
    header();
    let mut small = Vec::new();
    let mut big = Vec::new();
    for _ in 0..SMOKE_TRIALS {
        let s = run_cell(spec, PolicyKind::Traditional, 16);
        print_cell(&s);
        small.push(eps(&s));
        let b = run_cell(spec, PolicyKind::Traditional, 256);
        print_cell(&b);
        big.push(eps(&b));
    }
    let ratio = median(&mut big) / median(&mut small).max(1e-9);
    println!(
        "\nflatness: median 256-node events/s over {SMOKE_TRIALS} interleaved \
         pairs is {ratio:.2}x the 16-node figure (floor {FLATNESS_FLOOR})"
    );
    if ratio < FLATNESS_FLOOR {
        eprintln!(
            "SCALING REGRESSION: events/s fell to {ratio:.2}x from 16 to 256 nodes; \
             dispatch is no longer flat in cluster size"
        );
        std::process::exit(1);
    }
    println!("smoke passed");
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    let base = TraceSpec::calgary();
    let requests = requests_per_cell(if smoke_mode {
        SMOKE_REQUESTS
    } else {
        FULL_REQUESTS
    });
    // Full Calgary file population; the request count is the knob. The
    // workload streams, so this line is O(files) memory no matter how
    // large `requests` is.
    let spec = base.scaled(base.num_files, requests);
    println!(
        "perf_scaling: calgary population ({} files), {requests} streamed requests/cell",
        spec.num_files
    );

    if smoke_mode {
        smoke(&spec);
        return;
    }

    let mut results: Vec<CellResult> = Vec::new();
    header();
    for nodes in FULL_NODES {
        for policy in [PolicyKind::Traditional, PolicyKind::Lard] {
            let cell = run_cell(&spec, policy, nodes);
            print_cell(&cell);
            results.push(cell);
        }
    }

    // Per-policy flatness: events/s at each size relative to its
    // 16-node figure.
    for policy in [PolicyKind::Traditional, PolicyKind::Lard] {
        let base_eps = results
            .iter()
            .find(|c| c.policy == policy && c.nodes == FULL_NODES[0])
            .map(eps)
            .unwrap_or(0.0);
        let ratios: Vec<String> = FULL_NODES
            .iter()
            .filter_map(|&n| results.iter().find(|c| c.policy == policy && c.nodes == n))
            .map(|c| format!("{}: {:.2}", c.nodes, eps(c) / base_eps.max(1e-9)))
            .collect();
        println!(
            "{} events/s vs 16 nodes — {}",
            policy.name(),
            ratios.join(", ")
        );
    }

    let json = render_json(&spec, requests, &results);
    let path = json_path();
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn render_json(spec: &TraceSpec, requests: usize, cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(
        out,
        "  \"workload\": \"calgary population ({} files), streaming synth requests, \
         lean metrics, warm-up off, closed loop, sequential single-thread\",",
        spec.num_files
    );
    let _ = writeln!(out, "  \"requests_per_cell\": {requests},");
    let _ = writeln!(out, "  \"nodes_swept\": [16, 64, 256, 1024],");
    let _ = writeln!(out, "  \"peak_rss_kb\": {},", peak_rss_kb());
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"policy\": \"{}\", \"nodes\": {}, \"wall_s\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.1}, \"peak_fel_depth\": {}, \
             \"rss_hwm_kb\": {}, \"sim_throughput_rps\": {:.1}, \
             \"fel_ops\": {{\"near_pushes\": {}, \"far_pushes\": {}, \
             \"ins_shifted\": {}, \"sweep_sorted\": {}, \"sweeps\": {}, \
             \"scanned\": {}, \"deferred\": {}, \"full_laps\": {}}}}}",
            c.policy.name(),
            c.nodes,
            c.wall_s,
            c.events,
            eps(c),
            c.peak_fel,
            c.rss_hwm_kb,
            c.throughput_rps,
            c.ops.near_pushes,
            c.ops.far_pushes,
            c.ops.ins_shifted,
            c.ops.sweep_sorted,
            c.ops.sweeps,
            c.ops.scanned,
            c.ops.deferred,
            c.ops.full_laps
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
