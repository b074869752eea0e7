//! Perf-baseline harness: times a pinned quick-mode sweep of the
//! simulator and records the trajectory in `BENCH_sim.json` at the repo
//! root, so every PR has a before/after events-per-second record.
//!
//! The workload is pinned (it must stay comparable across commits): the
//! Calgary trace at its Table 2 population, request streams capped at
//! 150 000, warm-up on, run **sequentially** on one thread — wall-clock
//! per cell is only meaningful without co-scheduled siblings. Cells:
//!
//! * nodes ∈ {4, 8, 16} × {L2S, LARD, traditional} with the paper's LRU
//!   caches, and
//! * L2S + traditional at 8 nodes with GreedyDual-Size caches, so the
//!   eviction-structure hot path is covered too.
//!
//! Modes:
//!
//! * default — run the sweep and (re)write `BENCH_sim.json`, carrying the
//!   `baseline_events_per_sec` field over from the existing file (first
//!   run records itself as the baseline);
//! * `--check` — run the sweep and compare against the committed
//!   `BENCH_sim.json`, exiting non-zero on a >2x regression in
//!   events/sec (tolerant of ordinary wall-clock noise; CI uses this).
//!   Also enforces the machine-independent ratchet: the committed file
//!   must record at least [`MIN_SPEEDUP_VS_SEED`] over its seed
//!   baseline.

use l2s::PolicyKind;
use l2s_bench::{extract_json_num, paper_trace, trace_seed};
use l2s_cluster::CachePolicy;
use l2s_sim::{simulate, SimConfig};
use l2s_trace::TraceSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Requests per cell (both warm-up and measurement passes), pinned
/// independently of `L2S_BENCH_FULL` so runs stay comparable.
const PINNED_CAP: usize = 150_000;

/// Maximum tolerated slowdown versus the committed baseline in `--check`
/// mode. This is a catastrophe canary, not the perf gate: interleaved
/// A/B runs of identical binaries on shared dev/CI hosts measured up to
/// ~2.5x wall-clock swings between host-contention phases, so a 2x
/// tolerance flaked on noise. The tight, machine-independent gate is
/// [`MIN_SPEEDUP_VS_SEED`], which reads only committed numbers.
const MAX_REGRESSION: f64 = 3.0;

/// Minimum committed speedup over the recorded seed baseline, also
/// enforced by `--check`. Unlike `MAX_REGRESSION` (a live measurement,
/// generous because CI runners vary), this ratchet reads two numbers
/// out of the *committed* `BENCH_sim.json` — `events_per_sec` over
/// `baseline_events_per_sec` — so it is independent of the checking
/// machine's speed. The committed file records 2.19x after the indexed
/// dispatch + calendar-queue optimization PRs; commits may not ratchet
/// the recorded figure back below 2.1x.
const MIN_SPEEDUP_VS_SEED: f64 = 2.1;

struct CellResult {
    policy: PolicyKind,
    nodes: usize,
    cache: CachePolicy,
    wall_s: f64,
    events: u64,
    peak_fel: usize,
}

fn pinned_cells() -> Vec<(PolicyKind, usize, CachePolicy)> {
    let mut cells = Vec::new();
    for nodes in [4usize, 8, 16] {
        for policy in [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Traditional] {
            cells.push((policy, nodes, CachePolicy::Lru));
        }
    }
    cells.push((PolicyKind::L2s, 8, CachePolicy::GreedyDualSize));
    cells.push((PolicyKind::Traditional, 8, CachePolicy::GreedyDualSize));
    cells
}

fn json_path() -> std::path::PathBuf {
    std::env::var_os("L2S_BENCH_JSON")
        .map(Into::into)
        .unwrap_or_else(|| "BENCH_sim.json".into())
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let spec = TraceSpec::calgary();
    println!(
        "perf_baseline: generating the pinned {} trace (seed {:#x})...",
        spec.name,
        trace_seed(&spec)
    );
    let gen_start = Instant::now();
    let trace = paper_trace(&spec);
    println!(
        "  {} files, {} requests generated in {:.2}s",
        trace.files().len(),
        trace.len(),
        gen_start.elapsed().as_secs_f64()
    );

    let mut results: Vec<CellResult> = Vec::new();
    println!(
        "{:>14} {:>6} {:>6} {:>10} {:>12} {:>12} {:>9}",
        "policy", "nodes", "cache", "wall (s)", "events", "events/s", "peak FEL"
    );
    for (policy, nodes, cache) in pinned_cells() {
        let mut config = SimConfig::paper_default(nodes);
        config.max_requests = Some(PINNED_CAP);
        config.cache_policy = cache;
        let start = Instant::now();
        let report = simulate(&config, policy, &trace);
        let wall_s = start.elapsed().as_secs_f64();
        let cell = CellResult {
            policy,
            nodes,
            cache,
            wall_s,
            events: report.events_handled,
            peak_fel: report.peak_fel_depth,
        };
        println!(
            "{:>14} {:>6} {:>6} {:>10.3} {:>12} {:>12.0} {:>9}",
            policy.name(),
            nodes,
            cache_name(cache),
            wall_s,
            cell.events,
            cell.events as f64 / wall_s.max(1e-9),
            cell.peak_fel
        );
        results.push(cell);
    }

    let wall_total: f64 = results.iter().map(|c| c.wall_s).sum();
    let events_total: u64 = results.iter().map(|c| c.events).sum();
    let peak_fel: usize = results.iter().map(|c| c.peak_fel).max().unwrap_or(0);
    let events_per_sec = events_total as f64 / wall_total.max(1e-9);
    println!(
        "\ntotal: {events_total} events in {wall_total:.2}s = {events_per_sec:.0} events/s \
         (peak FEL depth {peak_fel})"
    );

    let path = json_path();
    let old = std::fs::read_to_string(&path).ok();
    let committed_eps = old
        .as_deref()
        .and_then(|j| extract_json_num(j, "events_per_sec"));
    let baseline_eps = old
        .as_deref()
        .and_then(|j| extract_json_num(j, "baseline_events_per_sec"))
        .or(committed_eps)
        .unwrap_or(events_per_sec);
    println!(
        "baseline (pre-change): {baseline_eps:.0} events/s -> speedup {:.2}x",
        events_per_sec / baseline_eps.max(1e-9)
    );

    if check_mode {
        // Ratchet: the committed file must itself record the required
        // speedup over the seed baseline (machine-independent — both
        // numbers come from the same recorded run).
        let committed_baseline = old
            .as_deref()
            .and_then(|j| extract_json_num(j, "baseline_events_per_sec"));
        if let (Some(committed), Some(base)) = (committed_eps, committed_baseline) {
            let ratio = committed / base.max(1e-9);
            if ratio < MIN_SPEEDUP_VS_SEED {
                eprintln!(
                    "PERF RATCHET: committed BENCH_sim.json records only {ratio:.2}x over the \
                     seed baseline ({committed:.0} / {base:.0} events/s); the floor is \
                     {MIN_SPEEDUP_VS_SEED}x"
                );
                std::process::exit(1);
            }
            println!(
                "ratchet passed: committed speedup {ratio:.2}x >= {MIN_SPEEDUP_VS_SEED}x floor"
            );
        }
        match committed_eps {
            Some(committed) if events_per_sec * MAX_REGRESSION < committed => {
                eprintln!(
                    "PERF REGRESSION: {events_per_sec:.0} events/s is more than \
                     {MAX_REGRESSION}x below the committed {committed:.0} events/s"
                );
                std::process::exit(1);
            }
            Some(committed) => {
                println!(
                    "check passed: {events_per_sec:.0} events/s vs committed {committed:.0} \
                     events/s (threshold {MAX_REGRESSION}x)"
                );
            }
            None => {
                eprintln!(
                    "--check: no committed {} to compare against",
                    path.display()
                );
                std::process::exit(1);
            }
        }
        return;
    }

    let json = render_json(
        &results,
        events_per_sec,
        events_total,
        wall_total,
        peak_fel,
        baseline_eps,
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn cache_name(cache: CachePolicy) -> &'static str {
    match cache {
        CachePolicy::Lru => "lru",
        CachePolicy::GreedyDualSize => "gds",
    }
}

fn render_json(
    cells: &[CellResult],
    events_per_sec: f64,
    events_total: u64,
    wall_total: f64,
    peak_fel: usize,
    baseline_eps: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(
        out,
        "  \"workload\": \"calgary (Table 2 population) x nodes[4,8,16] x \
         [l2s,lard,traditional] lru + [l2s,traditional]@8 gds, 150k requests/cell, \
         warm-up on, sequential single-thread\","
    );
    let _ = writeln!(out, "  \"events_per_sec\": {events_per_sec:.1},");
    let _ = writeln!(out, "  \"events_total\": {events_total},");
    let _ = writeln!(out, "  \"wall_s_total\": {wall_total:.3},");
    let _ = writeln!(out, "  \"peak_fel_depth\": {peak_fel},");
    let _ = writeln!(out, "  \"baseline_events_per_sec\": {baseline_eps:.1},");
    let _ = writeln!(
        out,
        "  \"speedup_vs_baseline\": {:.3},",
        events_per_sec / baseline_eps.max(1e-9)
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"policy\": \"{}\", \"nodes\": {}, \"cache\": \"{}\", \
             \"wall_s\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}, \
             \"peak_fel_depth\": {}}}",
            c.policy.name(),
            c.nodes,
            cache_name(c.cache),
            c.wall_s,
            c.events,
            c.events as f64 / c.wall_s.max(1e-9),
            c.peak_fel
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
