//! `clusterlab` — command-line front door to the cluster-server-eval
//! workspace.
//!
//! ```text
//! clusterlab model    [--nodes N] [--hit H] [--size KB] [--replication R] [--kind lc|lo]
//! clusterlab simulate [--trace NAME] [--nodes N] [--policy P] [--cache-mb MB]
//!                     [--requests N] [--files N] [--seed S] [--persistent MEAN] [--dfs]
//! clusterlab trace    [--trace NAME | --log FILE] [--requests N] [--files N] [--seed S]
//! clusterlab compare  [--trace NAME] [--nodes N] [--cache-mb MB] [--requests N]
//! ```
//!
//! Argument parsing is deliberately dependency-free and shared with
//! `l2s-replay`; see [`args`]. A misspelt or unused flag, or a malformed
//! value, exits 2 with a message naming the flag.

use cluster_server_eval::model::{ModelParams, QueueModel, ServerKind};
use cluster_server_eval::policy::PolicyKind;
use cluster_server_eval::prelude::*;
use cluster_server_eval::trace::{clf, TraceStats};

#[path = "common/args.rs"]
mod args;

use args::{policy_by_name, trace_by_name};

fn build_trace(p: &args::Parsed) -> Result<Trace, String> {
    if let Some(log) = p.value("log")? {
        let text = std::fs::read_to_string(log).map_err(|e| format!("reading {log}: {e}"))?;
        return Ok(clf::parse_log(log, &text));
    }
    let spec = trace_by_name(&p.get_str("trace", "calgary"))?;
    let files = p.count("files", spec.num_files.min(8_000))?;
    let requests = p.count("requests", 200_000)?;
    let seed = p.get("seed", 42u64)?;
    Ok(spec.scaled(files, requests).generate(seed))
}

/// The paper's configuration with the `--nodes` and `--cache-mb` flags
/// applied.
fn cluster_config(p: &args::Parsed) -> Result<SimConfig, String> {
    let mut config = SimConfig::paper_default(p.count("nodes", 8)?);
    config.cache_kb = p.positive("cache-mb", 32.0)? * 1024.0;
    Ok(config)
}

fn cmd_model(p: &args::Parsed) -> Result<(), String> {
    let params = ModelParams {
        nodes: p.get("nodes", 16usize)?,
        replication: p.get("replication", 0.0f64)?,
        avg_file_kb: p.get("size", 16.0f64)?,
        cache_kb: p.get("cache-mb", 128.0f64)? * 1024.0,
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
    let model = QueueModel::new(params).map_err(|e| e.to_string())?;
    let derived = model.derived_from_hlo(kind, hit);
    let bound = model.max_throughput_derived(&derived);
    println!("server kind      : {kind:?}");
    println!("hit rate (H)     : {:.3}", derived.hit_rate);
    println!("replicated hit(h): {:.3}", derived.replicated_hit);
    println!("forwarded (Q)    : {:.3}", derived.forward_fraction);
    println!("throughput bound : {bound:.0} requests/s");
    if let Some(solution) = model.solve_derived(&derived, bound * 0.95) {
        let bottleneck = solution
            .bottleneck()
            .ok_or("model solution has no stations to report a bottleneck from")?;
        println!(
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
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let policy = policy_by_name(&p.get_str("policy", "l2s"))?;
    let trace = build_trace(p)?;
    p.finish()?;
    let report = simulate(&config, policy, &trace);
    println!("policy            : {}", report.policy);
    println!("nodes             : {}", report.nodes);
    println!("completed         : {}", report.completed);
    println!(
        "throughput        : {:.0} requests/s",
        report.throughput_rps
    );
    println!("miss rate         : {:.2}%", report.miss_rate * 100.0);
    println!(
        "forwarded         : {:.2}%",
        report.forwarded_fraction * 100.0
    );
    println!("cpu idle          : {:.2}%", report.cpu_idle * 100.0);
    println!(
        "router utilization: {:.2}%",
        report.router_utilization * 100.0
    );
    println!("mean response     : {:.2} ms", report.mean_response_s * 1e3);
    match report.p99_response_s {
        Some(p99) => println!("p99 response      : {:.2} ms", p99 * 1e3),
        None => println!("p99 response      : n/a (no samples recorded)"),
    }
    println!(
        "control messages  : {:.2} per request",
        report.control_msgs_per_request
    );
    Ok(())
}

fn cmd_trace(p: &args::Parsed) -> Result<(), String> {
    let trace = build_trace(p)?;
    p.finish()?;
    let stats = TraceStats::compute(&trace);
    println!("name            : {}", stats.name);
    println!("files           : {}", stats.num_files);
    println!("requests        : {}", stats.num_requests);
    println!("avg file size   : {:.1} KB", stats.avg_file_kb);
    println!("avg request size: {:.1} KB", stats.avg_request_kb);
    println!("working set     : {:.1} MB", stats.working_set_kb / 1024.0);
    println!("distinct files  : {}", stats.distinct_files);
    println!("zipf alpha (fit): {:.2}", stats.alpha);
    Ok(())
}

fn cmd_compare(p: &args::Parsed) -> Result<(), String> {
    let config = cluster_config(p)?;
    let trace = build_trace(p)?;
    p.finish()?;
    println!(
        "{:>16} {:>12} {:>8} {:>10} {:>9}",
        "policy", "throughput", "miss", "forwarded", "idle"
    );
    for kind in PolicyKind::all() {
        let r = simulate(&config, kind, &trace);
        println!(
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
  clusterlab compare  [--trace NAME] [--nodes N] [--cache-mb MB] [--requests N]
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--help` asks for the usage wherever it appears, before or after
    // a subcommand.
    if argv.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        return;
    }
    let parsed = match args::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "model" => cmd_model(&parsed),
        "simulate" => cmd_simulate(&parsed),
        "trace" => cmd_trace(&parsed),
        "compare" => cmd_compare(&parsed),
        "help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}
