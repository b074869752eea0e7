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
//! Argument parsing is deliberately dependency-free; see [`args`].

use cluster_server_eval::model::{ModelParams, QueueModel, ServerKind};
use cluster_server_eval::policy::PolicyKind;
use cluster_server_eval::prelude::*;
use cluster_server_eval::trace::{clf, TraceStats};

mod args {
    //! A tiny `--flag value` parser.

    use std::collections::BTreeMap;

    /// Parsed command line: a subcommand plus `--key value` options.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Parsed {
        /// First positional argument.
        pub command: String,
        /// `--key value` pairs; bare `--key` stores an empty value.
        pub options: BTreeMap<String, String>,
    }

    /// Parses `argv[1..]`. Returns `Err` with a message on malformed
    /// input (option before subcommand, missing value for a non-flag).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Parsed, String> {
        let mut it = argv.into_iter().peekable();
        let command = match it.next() {
            Some(c) if !c.starts_with("--") => c,
            Some(c) => return Err(format!("expected a subcommand before {c}")),
            None => return Err("expected a subcommand".into()),
        };
        let mut options = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {tok}"));
            };
            // A following token that isn't itself an option is this
            // option's value; a bare flag stores the empty string.
            let value = it.next_if(|v| !v.starts_with("--")).unwrap_or_default();
            options.insert(key.to_string(), value);
        }
        Ok(Parsed { command, options })
    }

    impl Parsed {
        /// Fetches an option parsed as `T`, with a default. A bare
        /// `--key` (no value) is reported as missing, naming the flag,
        /// instead of surfacing as `invalid value ""`.
        pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
            match self.options.get(key) {
                None => Ok(default),
                Some(raw) if raw.is_empty() => Err(format!("missing value for --{key}")),
                Some(raw) => raw
                    .parse()
                    .map_err(|_| format!("invalid value {raw:?} for --{key}")),
            }
        }

        /// Fetches a string option.
        pub fn get_str(&self, key: &str, default: &str) -> String {
            self.options
                .get(key)
                .cloned()
                .unwrap_or_else(|| default.to_string())
        }

        /// True when the bare flag is present.
        pub fn flag(&self, key: &str) -> bool {
            self.options.contains_key(key)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn parses_command_and_options() {
            let p = parse(argv("simulate --nodes 8 --policy l2s --dfs")).unwrap();
            assert_eq!(p.command, "simulate");
            assert_eq!(p.get::<usize>("nodes", 1).unwrap(), 8);
            assert_eq!(p.get_str("policy", "x"), "l2s");
            assert!(p.flag("dfs"));
            assert!(!p.flag("missing"));
        }

        #[test]
        fn defaults_apply() {
            let p = parse(argv("model")).unwrap();
            assert_eq!(p.get::<f64>("hit", 0.8).unwrap(), 0.8);
        }

        #[test]
        fn rejects_missing_command() {
            assert!(parse(argv("")).is_err());
            assert!(parse(argv("--nodes 4")).is_err());
        }

        #[test]
        fn rejects_bad_values() {
            let p = parse(argv("model --nodes banana")).unwrap();
            assert!(p.get::<usize>("nodes", 1).is_err());
        }

        #[test]
        fn rejects_stray_positionals() {
            assert!(parse(argv("simulate extra")).is_err());
        }

        #[test]
        fn bare_typed_option_reports_missing_value() {
            // Regression: `--nodes` with no value used to surface as
            // `invalid value "" for --nodes`, hiding what went wrong.
            let p = parse(argv("model --nodes")).unwrap();
            let err = p.get::<usize>("nodes", 1).unwrap_err();
            assert!(err.contains("missing value for --nodes"), "{err}");
        }

        #[test]
        fn bare_flag_followed_by_an_option_stays_a_flag() {
            let p = parse(argv("simulate --dfs --nodes 4")).unwrap();
            assert!(p.flag("dfs"));
            assert_eq!(p.get::<usize>("nodes", 1).unwrap(), 4);
        }
    }
}

fn trace_by_name(name: &str) -> Result<TraceSpec, String> {
    match name {
        "calgary" => Ok(TraceSpec::calgary()),
        "clarknet" => Ok(TraceSpec::clarknet()),
        "nasa" => Ok(TraceSpec::nasa()),
        "rutgers" => Ok(TraceSpec::rutgers()),
        other => Err(format!(
            "unknown trace {other:?} (expected calgary|clarknet|nasa|rutgers)"
        )),
    }
}

fn policy_by_name(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::all()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = PolicyKind::all().iter().map(|k| k.name()).collect();
            format!(
                "unknown policy {name:?} (expected one of {})",
                names.join("|")
            )
        })
}

/// `--key` as a count of at least one.
fn count(p: &args::Parsed, key: &str, default: usize) -> Result<usize, String> {
    match p.get(key, default)? {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    }
}

/// `--key` as a positive, finite quantity.
fn positive(p: &args::Parsed, key: &str, default: f64) -> Result<f64, String> {
    let v = p.get(key, default)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("--{key} must be positive and finite, got {v}"))
    }
}

fn build_trace(p: &args::Parsed) -> Result<Trace, String> {
    if let Some(log) = p.options.get("log") {
        let text = std::fs::read_to_string(log).map_err(|e| format!("reading {log}: {e}"))?;
        return Ok(clf::parse_log(log, &text));
    }
    let spec = trace_by_name(&p.get_str("trace", "calgary"))?;
    let files = count(p, "files", spec.num_files.min(8_000))?;
    let requests = count(p, "requests", 200_000)?;
    let seed = p.get("seed", 42u64)?;
    Ok(spec.scaled(files, requests).generate(seed))
}

/// The paper's configuration with the `--nodes` and `--cache-mb` flags
/// applied.
fn cluster_config(p: &args::Parsed) -> Result<SimConfig, String> {
    let mut config = SimConfig::paper_default(count(p, "nodes", 8)?);
    config.cache_kb = positive(p, "cache-mb", 32.0)? * 1024.0;
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
    let kind = match p.get_str("kind", "lc").as_str() {
        "lc" => ServerKind::LocalityConscious,
        "lo" => ServerKind::LocalityOblivious,
        other => return Err(format!("unknown kind {other:?} (expected lc|lo)")),
    };
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
    let parsed = match args::parse(std::env::args().skip(1)) {
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
        "help" | "-h" | "--help" => {
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
