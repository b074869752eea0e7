//! `clusterlab` — command-line front door to the cluster-server-eval
//! workspace. Its subcommands and their flags are listed once, in
//! `USAGE` below.
//!
//! Argument parsing is deliberately dependency-free and shared with
//! `l2s-replay`; see [`args`]. A misspelt or unused flag, or a malformed
//! value, exits 2 with a message naming the flag.

use cluster_server_eval::model::{ModelParams, QueueModel, ServerKind};
use cluster_server_eval::policy::PolicyKind;
use cluster_server_eval::prelude::*;
use cluster_server_eval::trace::{clf, TraceStats};
use std::io::BufReader;

#[path = "common/args.rs"]
mod args;
#[path = "common/out.rs"]
mod out;

use args::{policy_by_name, trace_by_name};
use out::outln;

/// Reads the workload flags, the last flags each command reads, fails
/// on any flag left unread, and only then builds the trace: a `--log`
/// streamed through the same reader as `l2s-replay --log`, with its
/// line counts printed, or a synthetic `--trace`.
fn build_trace(p: &args::Parsed) -> Result<Trace, String> {
    if let Some(log) = p.value("log")? {
        p.finish()?;
        let file = std::fs::File::open(log).map_err(|e| format!("opening {log}: {e}"))?;
        let (trace, stats) =
            clf::read_log(log, BufReader::new(file)).map_err(|e| format!("reading {log}: {e}"))?;
        if trace.is_empty() {
            return Err(format!("--log {log} keeps no request: {stats}"));
        }
        outln!("log lines       : {stats}");
        return Ok(trace);
    }
    let spec = trace_by_name(&p.get_str("trace", "calgary"))?;
    let files = p.count("files", spec.num_files.min(8_000))?;
    let requests = p.count("requests", 200_000)?;
    let seed = p.get("seed", 42u64)?;
    p.finish()?;
    Ok(spec.scaled(files, requests).generate(seed))
}

/// The paper's configuration with the `--nodes` and `--cache-mb` flags
/// applied.
fn cluster_config(p: &args::Parsed) -> Result<SimConfig, String> {
    let mut config = SimConfig::paper_default(p.count("nodes", 8)?);
    config.cache_kb = p.cache_kb(32.0)?;
    Ok(config)
}

/// `config`, or the reason the simulator would refuse it.
fn validated(config: SimConfig) -> Result<SimConfig, String> {
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(config)
}

fn cmd_model(p: &args::Parsed) -> Result<(), String> {
    let params = ModelParams {
        nodes: p.get("nodes", 16usize)?,
        replication: p.get("replication", 0.0f64)?,
        avg_file_kb: p.get("size", 16.0f64)?,
        cache_kb: p.cache_kb(128.0)?,
        ..ModelParams::default()
    };
    let hit = p.get("hit", 0.8f64)?;
    if !(0.0..=1.0).contains(&hit) {
        return Err(format!("--hit must be a fraction in [0, 1], got {hit}"));
    }
    let kind = match p.get_str("kind", "lc").as_str() {
        "lc" => ServerKind::LocalityConscious,
        "lo" => ServerKind::LocalityOblivious,
        other => return Err(format!("unknown kind {other:?} (expected lc|lo)")),
    };
    p.finish()?;
    let model = QueueModel::new(params)
        .map_err(|e| format!("invalid model (--nodes, --replication, --cache-mb, --size): {e}"))?;
    let derived = model.derived_from_hlo(kind, hit);
    let bound = model.max_throughput_derived(&derived);
    outln!("server kind      : {kind:?}");
    outln!("hit rate (H)     : {:.3}", derived.hit_rate);
    outln!("replicated hit(h): {:.3}", derived.replicated_hit);
    outln!("forwarded (Q)    : {:.3}", derived.forward_fraction);
    outln!("throughput bound : {bound:.0} requests/s");
    if let Some(solution) = model.solve_derived(&derived, bound * 0.95) {
        let bottleneck = solution
            .bottleneck()
            .ok_or("model solution has no stations to report a bottleneck from")?;
        outln!(
            "at 95% load      : {:.2} ms mean response, bottleneck = {} ({:.0}% busy)",
            solution.response_s * 1e3,
            bottleneck.name,
            bottleneck.utilization * 100.0
        );
    }
    Ok(())
}

fn cmd_simulate(p: &args::Parsed) -> Result<(), String> {
    let mut config = cluster_config(p)?;
    config.persistent_mean = p.get("persistent", 1.0f64)?;
    config.dfs_remote = p.flag("dfs");
    config.seed = p.get("seed", 42u64)?;
    let config = validated(config)?;
    let policy = policy_by_name(&p.get_str("policy", "l2s"))?;
    let trace = build_trace(p)?;
    let report = simulate(&config, policy, &trace);
    outln!("policy            : {}", report.policy);
    outln!("nodes             : {}", report.nodes);
    outln!("completed         : {}", report.completed);
    outln!(
        "throughput        : {:.0} requests/s",
        report.throughput_rps
    );
    outln!("miss rate         : {:.2}%", report.miss_rate * 100.0);
    outln!(
        "forwarded         : {:.2}%",
        report.forwarded_fraction * 100.0
    );
    outln!("cpu idle          : {:.2}%", report.cpu_idle * 100.0);
    outln!(
        "router utilization: {:.2}%",
        report.router_utilization * 100.0
    );
    outln!("mean response     : {:.2} ms", report.mean_response_s * 1e3);
    match report.p99_response_s {
        Some(p99) => outln!("p99 response      : {:.2} ms", p99 * 1e3),
        None => outln!("p99 response      : n/a (no samples recorded)"),
    }
    outln!(
        "control messages  : {:.2} per request",
        report.control_msgs_per_request
    );
    Ok(())
}

fn cmd_trace(p: &args::Parsed) -> Result<(), String> {
    let trace = build_trace(p)?;
    let stats = TraceStats::compute(&trace);
    outln!("name            : {}", stats.name);
    outln!("files           : {}", stats.num_files);
    outln!("requests        : {}", stats.num_requests);
    outln!("avg file size   : {:.1} KB", stats.avg_file_kb);
    outln!("avg request size: {:.1} KB", stats.avg_request_kb);
    outln!("working set     : {:.1} MB", stats.working_set_kb / 1024.0);
    outln!("distinct files  : {}", stats.distinct_files);
    outln!("zipf alpha (fit): {:.2}", stats.alpha);
    Ok(())
}

fn cmd_compare(p: &args::Parsed) -> Result<(), String> {
    let config = validated(cluster_config(p)?)?;
    let trace = build_trace(p)?;
    outln!(
        "{:>16} {:>12} {:>8} {:>10} {:>9}",
        "policy",
        "throughput",
        "miss",
        "forwarded",
        "idle"
    );
    for kind in PolicyKind::all() {
        let r = simulate(&config, kind, &trace);
        outln!(
            "{:>16} {:>8.0} r/s {:>7.1}% {:>9.1}% {:>8.1}%",
            r.policy,
            r.throughput_rps,
            r.miss_rate * 100.0,
            r.forwarded_fraction * 100.0,
            r.cpu_idle * 100.0
        );
    }
    Ok(())
}

const USAGE: &str = "\
clusterlab — cluster-based network server evaluation (HPDC 2000 reproduction)

USAGE:
  clusterlab model    [--nodes N] [--hit H] [--size KB] [--replication R]
                      [--cache-mb MB] [--kind lc|lo]
  clusterlab simulate [--trace calgary|clarknet|nasa|rutgers | --log FILE]
                      [--nodes N] [--policy NAME] [--cache-mb MB]
                      [--requests N] [--files N] [--seed S]
                      [--persistent MEAN] [--dfs]
  clusterlab trace    [--trace NAME | --log FILE] [--requests N] [--files N]
                      [--seed S]
  clusterlab compare  [--trace NAME | --log FILE] [--nodes N] [--cache-mb MB]
                      [--requests N] [--files N] [--seed S]

--requests, --files and --seed shape a synthetic --trace; a --log keeps
its complete GET 200s, as `l2s-replay --log` does, and takes none of
them (simulate's --seed still seeds the run).
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--help` asks for the usage wherever it appears, before or after
    // a subcommand.
    if argv.iter().any(|a| a == "--help") {
        outln!("{USAGE}");
        return;
    }
    let parsed = match args::parse(argv) {
        Ok(p) => p,
        Err(e) => out::fail(&format!("{e}\n\n{USAGE}")),
    };
    let result = match parsed.command.as_str() {
        "model" => cmd_model(&parsed),
        "simulate" => cmd_simulate(&parsed),
        "trace" => cmd_trace(&parsed),
        "compare" => cmd_compare(&parsed),
        "help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    if let Err(e) = result {
        out::fail(&format!("{e}\n\n{USAGE}"));
    }
}
