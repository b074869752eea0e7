//! `l2s-replay` — live Common Log Format replay front-end.
//!
//! Tails an access log (file or stdin) and drives any request
//! distribution policy against it online, in real time, scaled time, or
//! as fast as possible:
//!
//! ```text
//! l2s-replay --log access.log --policy l2s --nodes 8 --speed 60
//! tail -f access.log | l2s-replay --log - --policy jsq
//! l2s-replay --trace calgary --policy lard --as-fast-as-possible
//! ```
//!
//! Timed modes stream the log with bounded memory and print a metrics
//! snapshot every `--snapshot-secs` of virtual time. With
//! `--as-fast-as-possible` on a synthetic `--trace`, the run goes
//! through the DES engine with a placement observer attached, so the
//! placement sequence is identical to `clusterlab simulate` on the same
//! configuration (the X10 parity experiment pins this in CI).

use cluster_server_eval::policy::PolicyKind;
use cluster_server_eval::prelude::*;
use l2s_replay::{
    placement_checksum, replay_stream, replay_trace_fast, replay_trace_timed, write_report_csv,
    ReplayConfig,
};
use l2s_sim::{Clock, SimReport, VirtualClock, WallClock};
use l2s_trace::ClfStream;
use std::io::BufRead;
use std::path::PathBuf;

const USAGE: &str = "\
l2s-replay — live CLF replay front-end (HPDC 2000 reproduction)

USAGE:
  l2s-replay --log FILE|-   [--policy NAME] [--nodes N] [--cache-mb MB]
             [--speed X | --as-fast-as-possible] [--snapshot-secs S]
             [--requests N] [--csv FILE]
  l2s-replay --trace calgary|clarknet|nasa|rutgers [--policy NAME] [--nodes N]
             [--cache-mb MB] [--files N] [--requests N] [--seed S] [--rate RPS]
             [--speed X | --as-fast-as-possible] [--snapshot-secs S]
             [--csv FILE] [--checksum]

MODES:
  --speed X              scaled wall-clock pacing (1.0 = real time; default)
  --as-fast-as-possible  no pacing; with --trace this drives the DES engine
                         and reproduces its placement sequence exactly

Every run prints periodic SimReport snapshots (timed modes) and a final
report; --csv writes it in the experiment writers' CSV format.
";

struct Opts {
    log: Option<String>,
    trace: Option<String>,
    policy: PolicyKind,
    nodes: usize,
    cache_mb: f64,
    files: usize,
    requests: Option<usize>,
    seed: u64,
    rate_rps: f64,
    speed: f64,
    fast: bool,
    snapshot_secs: f64,
    csv: Option<PathBuf>,
    checksum: bool,
}

fn parse_opts(argv: Vec<String>) -> Result<Opts, String> {
    let mut opts = Opts {
        log: None,
        trace: None,
        policy: PolicyKind::L2s,
        nodes: 8,
        cache_mb: 32.0,
        files: 2_000,
        requests: None,
        seed: 42,
        rate_rps: 500.0,
        speed: 1.0,
        fast: false,
        snapshot_secs: 10.0,
        csv: None,
        checksum: false,
    };
    let mut it = argv.into_iter().peekable();
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {tok:?}"));
        };
        // Flags without values first; everything else requires one.
        match key {
            "as-fast-as-possible" | "fast" => {
                opts.fast = true;
                continue;
            }
            "checksum" => {
                opts.checksum = true;
                continue;
            }
            "help" | "h" => return Err(String::new()),
            _ => {}
        }
        let value = it
            .next_if(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("missing value for --{key}"))?;
        let num = |what: &str, v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("invalid value {v:?} for --{what}"))
        };
        match key {
            "log" => opts.log = Some(value),
            "trace" => opts.trace = Some(value),
            "policy" => {
                opts.policy = PolicyKind::all()
                    .into_iter()
                    .find(|k| k.name() == value)
                    .ok_or_else(|| {
                        let names: Vec<&str> = PolicyKind::all().iter().map(|k| k.name()).collect();
                        format!("unknown policy {value:?} (expected {})", names.join("|"))
                    })?;
            }
            "nodes" => opts.nodes = num("nodes", &value)? as usize,
            "cache-mb" => opts.cache_mb = num("cache-mb", &value)?,
            "files" => opts.files = num("files", &value)? as usize,
            "requests" => opts.requests = Some(num("requests", &value)? as usize),
            "seed" => opts.seed = num("seed", &value)? as u64,
            "rate" => opts.rate_rps = num("rate", &value)?,
            "speed" => {
                let s = num("speed", &value)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--speed must be positive and finite, got {s}"));
                }
                opts.speed = s;
            }
            "snapshot-secs" => opts.snapshot_secs = num("snapshot-secs", &value)?,
            "csv" => opts.csv = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option --{other}")),
        }
    }
    if opts.nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    if opts.files == 0 {
        return Err("--files must be at least 1".into());
    }
    if opts.requests == Some(0) {
        return Err("--requests must be at least 1".into());
    }
    if !(opts.cache_mb.is_finite() && opts.cache_mb > 0.0) {
        return Err(format!(
            "--cache-mb must be positive and finite, got {}",
            opts.cache_mb
        ));
    }
    if !(opts.rate_rps.is_finite() && opts.rate_rps > 0.0) {
        // A zero rate puts the first arrival centuries away, and the
        // wall clock would wait for it.
        return Err(format!(
            "--rate must be positive and finite, got {}",
            opts.rate_rps
        ));
    }
    if !(opts.snapshot_secs.is_finite() && opts.snapshot_secs >= 0.0) {
        return Err(format!(
            "--snapshot-secs must be finite and at least 0, got {}",
            opts.snapshot_secs
        ));
    }
    match (&opts.log, &opts.trace) {
        (None, None) => Err("one of --log or --trace is required".into()),
        (Some(_), Some(_)) => Err("--log and --trace are mutually exclusive".into()),
        _ => Ok(opts),
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

fn replay_config(opts: &Opts) -> ReplayConfig {
    let mut cfg = ReplayConfig::new(opts.policy, opts.nodes);
    cfg.cache_kb = opts.cache_mb * 1024.0;
    cfg.snapshot_every_s = opts.snapshot_secs;
    cfg.max_requests = opts.requests;
    cfg
}

fn print_snapshot(r: &SimReport) {
    println!(
        "[t={:>8.1}s] completed {:>9}  failed {:>6}  {:>8.0} r/s  miss {:>5.2}%  \
         fwd {:>5.2}%  idle {:>5.2}%  mean {:>7.2} ms",
        r.elapsed.as_secs_f64(),
        r.completed,
        r.failed,
        r.throughput_rps,
        r.miss_rate * 100.0,
        r.forwarded_fraction * 100.0,
        r.cpu_idle * 100.0,
        r.mean_response_s * 1e3
    );
}

fn print_final(r: &SimReport) {
    println!("policy            : {}", r.policy);
    println!("nodes             : {}", r.nodes);
    println!("completed         : {}", r.completed);
    println!("failed            : {}", r.failed);
    println!("elapsed (virtual) : {:.1} s", r.elapsed.as_secs_f64());
    println!("throughput        : {:.0} requests/s", r.throughput_rps);
    println!("miss rate         : {:.2}%", r.miss_rate * 100.0);
    println!("forwarded         : {:.2}%", r.forwarded_fraction * 100.0);
    println!("cpu idle          : {:.2}%", r.cpu_idle * 100.0);
    println!("mean response     : {:.2} ms", r.mean_response_s * 1e3);
    match r.p99_response_s {
        Some(p99) => println!("p99 response      : {:.2} ms", p99 * 1e3),
        None => println!("p99 response      : n/a (no samples recorded)"),
    }
    println!(
        "control messages  : {:.2} per request",
        r.control_msgs_per_request
    );
}

/// Runs a timed replay over any CLF byte source.
fn run_stream<R: BufRead + Send>(
    opts: &Opts,
    reader: R,
    clock: &mut dyn Clock,
) -> Result<SimReport, String> {
    let cfg = replay_config(opts);
    let mut stream = ClfStream::new(reader);
    let report = replay_stream(&cfg, &mut stream, clock, print_snapshot)
        .map_err(|e| format!("reading log: {e}"))?;
    let stats = stream.stats();
    println!(
        "log lines         : {} read, {} kept, {} dropped{}{}",
        stats.lines,
        stats.kept,
        stats.dropped,
        if stats.out_of_order > 0 {
            format!(", {} out-of-order timestamps clamped", stats.out_of_order)
        } else {
            String::new()
        },
        if stats.truncated_tail {
            ", truncated final line discarded"
        } else {
            ""
        }
    );
    Ok(report)
}

fn run(opts: &Opts) -> Result<(), String> {
    let report = match (&opts.log, &opts.trace) {
        (Some(path), None) => {
            let mut clock: Box<dyn Clock> = if opts.fast {
                Box::new(VirtualClock::new())
            } else {
                Box::new(WallClock::new(opts.speed))
            };
            if path == "-" {
                // `Stdin` rather than its lock: the replay reads the log on
                // a thread of its own, and `StdinLock` cannot be sent there.
                let stdin = std::io::BufReader::new(std::io::stdin());
                run_stream(opts, stdin, clock.as_mut())?
            } else {
                let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
                run_stream(opts, std::io::BufReader::new(file), clock.as_mut())?
            }
        }
        (None, Some(name)) => {
            let spec = trace_by_name(name)?;
            let requests = opts.requests.unwrap_or(150_000);
            let trace = spec
                .scaled(opts.files.min(spec.num_files), requests)
                .generate(opts.seed);
            if opts.fast {
                // DES-backed infinite speed: placement parity with
                // `clusterlab simulate` on the same configuration.
                let mut config = SimConfig::paper_default(opts.nodes);
                config.cache_kb = opts.cache_mb * 1024.0;
                config.seed = opts.seed;
                config
                    .validate()
                    .map_err(|e| format!("invalid configuration: {e}"))?;
                let (placements, report) = replay_trace_fast(&config, opts.policy, &trace);
                if opts.checksum {
                    println!(
                        "placements        : {}{} (checksum {:016x})",
                        placements.len(),
                        if config.warmup {
                            " incl. cache-warmup pass"
                        } else {
                            ""
                        },
                        placement_checksum(&placements)
                    );
                }
                report
            } else {
                let cfg = replay_config(opts);
                let mut clock = WallClock::new(opts.speed);
                replay_trace_timed(
                    &cfg,
                    &trace,
                    opts.rate_rps,
                    opts.seed,
                    &mut clock,
                    print_snapshot,
                )
            }
        }
        _ => unreachable!("parse_opts enforces exactly one source"),
    };
    print_final(&report);
    if let Some(path) = &opts.csv {
        write_report_csv(&report, path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("CSV: {}", path.display());
    }
    Ok(())
}

fn main() {
    let opts = match parse_opts(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}
