//! Cross-change determinism pin: the engine must reproduce the CSVs in
//! `tests/golden/reports.csv` **byte for byte**. Unlike
//! `tests/determinism.rs` (which compares two runs of the *same* build),
//! this test compares against a committed snapshot, so any behavioral
//! drift — a reordered eviction, an extra control message, a float
//! formatting change — fails the suite even if the new behavior is
//! internally consistent. Refactors of the hot path (dense file-ID
//! interning, indexed eviction heaps) must leave this file untouched.
//!
//! To re-bless after an *intentional* behavior change, run:
//!
//! ```text
//! L2S_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! and commit the updated snapshot alongside the change that justifies it.

use cluster_server_eval::prelude::*;
use cluster_server_eval::sim::{ArrivalMode, FaultPlan};
use cluster_server_eval::util::csv::CsvTable;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/reports.csv";

/// Sampled runs render their p99 exactly as before the `Option` change;
/// a sample-free run (never the case here) renders a distinct token
/// rather than a fake 0.0.
fn render_p99(p99: Option<f64>) -> String {
    match p99 {
        Some(x) => format!("{x:.9}"),
        None => "none".to_string(),
    }
}

/// Renders one policy × cache-policy × fault-plan cell the same way the
/// experiment harness would, covering float formatting as well as raw
/// numbers.
fn render_cell(kind: PolicyKind, cache: CachePolicy, faults: FaultPlan) -> String {
    render_report(&run_cell(kind, |config| {
        config.cache_policy = cache;
        config.faults = faults;
    }))
}

/// Simulates the golden trace on six nodes under `kind`, after `tweak`
/// adjusts the quick closed-loop configuration.
fn run_cell(kind: PolicyKind, tweak: impl FnOnce(&mut SimConfig)) -> SimReport {
    let trace = TraceSpec::clarknet().scaled(600, 8_000).generate(42);
    let mut config = SimConfig::quick(6, trace.working_set_kb() / 4.0);
    tweak(&mut config);
    simulate(&config, kind, &trace)
}

fn render_report(report: &SimReport) -> String {
    let mut table = CsvTable::new([
        "policy",
        "completed",
        "throughput_rps",
        "miss_rate",
        "forwarded",
        "control_msgs",
        "mean_response_s",
        "p99_response_s",
    ]);
    table.row([
        report.policy.to_string(),
        report.completed.to_string(),
        format!("{:.9}", report.throughput_rps),
        format!("{:.9}", report.miss_rate),
        format!("{:.9}", report.forwarded_fraction),
        format!("{:.9}", report.control_msgs_per_request),
        format!("{:.9}", report.mean_response_s),
        render_p99(report.p99_response_s),
    ]);
    for n in &report.per_node {
        table.row([
            format!("node{}", n.node),
            n.completed.to_string(),
            format!("{:.9}", n.cpu_utilization),
            format!("{:.9}", n.disk_utilization),
            n.cache_hits.to_string(),
            n.cache_misses.to_string(),
            String::new(),
            String::new(),
        ]);
    }
    table.to_csv_string()
}

fn cache_label(cache: CachePolicy) -> &'static str {
    match cache {
        CachePolicy::Lru => "lru",
        CachePolicy::GreedyDualSize => "gds",
    }
}

/// Two overlapping crash-and-recover windows on different nodes, both
/// over before the shortest measured pass (L2S, ~6 s with the crashes)
/// ends: every policy's `node_down`, `node_up`, abort and retry paths
/// run, the second crash while the first node is still down. Nodes 1
/// and 2 are back-ends under every LARD variant.
fn overlapping_crashes() -> FaultPlan {
    FaultPlan::crash_recover(1, 0.8, 2.0).merged(FaultPlan::crash_recover(2, 1.4, 2.6))
}

/// A named change to the quick closed-loop configuration.
type PathVariant = (&'static str, fn(&mut SimConfig));

/// The engine paths the closed-loop cells never take: a remote DFS
/// fetch, a persistent-connection continuation, an open-loop arrival,
/// and the warm-up rewind (with DFS and persistence together). Each
/// runs under [`overlapping_crashes`], so aborts, retries and give-ups
/// cross every one of them.
const PATH_VARIANTS: [PathVariant; 4] = [
    ("dfs", |c| c.dfs_remote = true),
    ("persistent", |c| c.persistent_mean = 4.0),
    ("poisson", |c| {
        c.arrivals = ArrivalMode::Poisson { rate_rps: 600.0 }
    }),
    ("warmup", |c| {
        c.warmup = true;
        c.dfs_remote = true;
        c.persistent_mean = 4.0;
    }),
];

/// A [`PATH_VARIANTS`] cell: the usual report plus its fault counters.
fn render_path_cell(kind: PolicyKind, variant: fn(&mut SimConfig)) -> String {
    let report = run_cell(kind, |config| {
        config.faults = overlapping_crashes();
        variant(config);
    });
    let mut faults = CsvTable::new(["failed", "retried"]);
    faults.row([report.failed.to_string(), report.retried.to_string()]);
    render_report(&report) + &faults.to_csv_string()
}

fn render_all() -> String {
    let mut out = String::new();
    for cache in [CachePolicy::Lru, CachePolicy::GreedyDualSize] {
        for kind in PolicyKind::all() {
            let _ = writeln!(out, "# cell: {} / {}", kind.name(), cache_label(cache));
            out.push_str(&render_cell(kind, cache, FaultPlan::none()));
        }
    }
    for kind in PolicyKind::all() {
        let _ = writeln!(out, "# cell: {} / lru / crashes", kind.name());
        out.push_str(&render_cell(kind, CachePolicy::Lru, overlapping_crashes()));
    }
    for (name, variant) in PATH_VARIANTS {
        for kind in PolicyKind::all() {
            let _ = writeln!(out, "# cell: {} / lru / crashes / {name}", kind.name());
            out.push_str(&render_path_cell(kind, variant));
        }
    }
    out
}

#[test]
fn engine_reproduces_golden_reports_byte_for_byte() {
    let rendered = render_all();
    if std::env::var_os("L2S_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden snapshot");
        eprintln!("blessed {GOLDEN_PATH} ({} bytes)", rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing tests/golden/reports.csv; bless it with L2S_BLESS=1");
    assert_eq!(
        rendered, golden,
        "engine output drifted from the committed golden snapshot; if the \
         change is intentional, re-bless with L2S_BLESS=1 and explain why \
         in the commit"
    );
}
