//! `l2s-replay` — live Common Log Format replay front-end.
//!
//! Tails an access log (file or stdin), or replays a synthetic trace,
//! and drives any request distribution policy against it online, in
//! real time, scaled time, or as fast as possible:
//!
//! ```text
//! l2s-replay --log access.log --policy l2s --nodes 8 --speed 60
//! tail -f access.log | l2s-replay --log - --policy jsq
//! l2s-replay --trace calgary --policy lard --as-fast-as-possible
//! ```
//!
//! Both sources stream through one timed replay model with bounded
//! memory and print a metrics snapshot every `--snapshot-secs` of
//! virtual time. `--as-fast-as-possible` only swaps the wall clock for
//! a virtual one, so it reports what a paced run would, sooner.

use cluster_server_eval::policy::PolicyKind;
use l2s_replay::{replay_stream, replay_trace_timed, write_report_csv, ReplayConfig};
use l2s_sim::{Clock, SimReport, VirtualClock, WallClock};
use l2s_trace::ClfStream;
use std::io::BufRead;
use std::path::PathBuf;

#[path = "common/args.rs"]
mod args;
#[path = "common/out.rs"]
mod out;

use args::{policy_by_name, trace_by_name};
use out::outln;

const USAGE: &str = "\
l2s-replay — live CLF replay front-end (HPDC 2000 reproduction)

USAGE:
  l2s-replay --log FILE|-   [--policy NAME] [--nodes N] [--cache-mb MB]
             [--speed X | --as-fast-as-possible] [--snapshot-secs S]
             [--requests N] [--csv FILE]
  l2s-replay --trace calgary|clarknet|nasa|rutgers [--policy NAME] [--nodes N]
             [--cache-mb MB] [--files N] [--requests N] [--seed S] [--rate RPS]
             [--speed X | --as-fast-as-possible] [--snapshot-secs S] [--csv FILE]

MODES:
  --speed X              scaled wall-clock pacing (1.0 = real time; default)
  --as-fast-as-possible  no pacing (alias --fast): a virtual clock jumps to
                         each arrival, and the report is the paced run's

Both sources run the same timed replay model; the closed-loop DES of
the paper's Section 5.1 is `clusterlab simulate`. A flag the chosen
mode does not use is an error.

Every run prints periodic SimReport snapshots and a final report;
--csv writes it in the experiment writers' CSV format.
";

/// The parsed flags. A number the mode does not read (see
/// [`parse_opts`]) holds 0 and is never used.
struct Opts {
    log: Option<String>,
    trace: Option<String>,
    policy: PolicyKind,
    nodes: usize,
    cache_kb: f64,
    files: usize,
    requests: Option<usize>,
    seed: u64,
    rate_rps: f64,
    /// Wall-clock speed-up, or `None` as fast as possible.
    speed: Option<f64>,
    snapshot_secs: f64,
    csv: Option<PathBuf>,
}

/// Reads each option only in the modes where it acts, so
/// [`args::Parsed::finish`] fails the run on any other, naming it:
/// `--files`, `--seed` and `--rate` with `--trace`, and `--speed` when
/// paced.
fn parse_opts(p: &args::Parsed) -> Result<Opts, String> {
    let log = p.value("log")?.map(String::from);
    let trace = p.value("trace")?.map(String::from);
    match (&log, &trace) {
        (None, None) => return Err("one of --log or --trace is required".into()),
        (Some(_), Some(_)) => return Err("--log and --trace are mutually exclusive".into()),
        _ => {}
    }
    // `|`, not `||`: both spellings must count as read.
    let fast = p.flag("as-fast-as-possible") | p.flag("fast");
    let synthetic = trace.is_some();
    let snapshot_secs = p.get("snapshot-secs", 10.0f64)?;
    if !(snapshot_secs.is_finite() && snapshot_secs >= 0.0) {
        return Err(format!(
            "--snapshot-secs must be finite and at least 0, got {snapshot_secs}"
        ));
    }
    let opts = Opts {
        log,
        trace,
        policy: policy_by_name(&p.get_str("policy", "l2s"))?,
        nodes: p.count("nodes", 8)?,
        cache_kb: p.cache_kb(32.0)?,
        files: if synthetic {
            p.count("files", 2_000)?
        } else {
            0
        },
        requests: p
            .value("requests")?
            .map(|_| p.count("requests", 1))
            .transpose()?,
        seed: if synthetic { p.get("seed", 42u64)? } else { 0 },
        // A zero rate puts the first arrival centuries away, and the
        // wall clock would wait for it.
        rate_rps: if synthetic {
            p.positive("rate", 500.0)?
        } else {
            0.0
        },
        speed: if fast {
            None
        } else {
            Some(p.positive("speed", 1.0)?)
        },
        snapshot_secs,
        csv: p.value("csv")?.map(PathBuf::from),
    };
    p.finish()?;
    Ok(opts)
}

fn replay_config(opts: &Opts) -> ReplayConfig {
    let mut cfg = ReplayConfig::new(opts.policy, opts.nodes);
    cfg.cache_kb = opts.cache_kb;
    cfg.snapshot_every_s = opts.snapshot_secs;
    cfg.max_requests = opts.requests;
    cfg
}

/// The clock that paces the replay, with its epoch now: the only thing
/// `--as-fast-as-possible` changes.
fn clock(opts: &Opts) -> Box<dyn Clock> {
    match opts.speed {
        Some(speed) => Box::new(WallClock::new(speed)),
        None => Box::new(VirtualClock::new()),
    }
}

fn print_snapshot(r: &SimReport) {
    outln!(
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
    outln!("policy            : {}", r.policy);
    outln!("nodes             : {}", r.nodes);
    outln!("completed         : {}", r.completed);
    outln!("failed            : {}", r.failed);
    outln!("elapsed (virtual) : {:.1} s", r.elapsed.as_secs_f64());
    outln!("throughput        : {:.0} requests/s", r.throughput_rps);
    outln!("miss rate         : {:.2}%", r.miss_rate * 100.0);
    outln!("forwarded         : {:.2}%", r.forwarded_fraction * 100.0);
    outln!("cpu idle          : {:.2}%", r.cpu_idle * 100.0);
    outln!("mean response     : {:.2} ms", r.mean_response_s * 1e3);
    match r.p99_response_s {
        Some(p99) => outln!("p99 response      : {:.2} ms", p99 * 1e3),
        None => outln!("p99 response      : n/a (no samples recorded)"),
    }
    outln!(
        "control messages  : {:.2} per request",
        r.control_msgs_per_request
    );
}

/// Replays any CLF byte source, named `log` in errors. A source that
/// ends without having kept a request is an error, as it is for
/// `clusterlab --log`: there is nothing to report.
fn run_stream<R: BufRead + Send>(opts: &Opts, log: &str, reader: R) -> Result<SimReport, String> {
    let mut stream = ClfStream::new(reader);
    let report = replay_stream(
        &replay_config(opts),
        &mut stream,
        clock(opts).as_mut(),
        print_snapshot,
    )
    .map_err(|e| format!("--log {log}: {e}"))?;
    let stats = stream.stats();
    if stats.kept == 0 {
        return Err(format!("--log {log} keeps no request: {stats}"));
    }
    outln!("log lines         : {stats}");
    Ok(report)
}

fn run(opts: &Opts) -> Result<(), String> {
    let report = match (&opts.log, &opts.trace) {
        (Some(path), None) if path == "-" => {
            // `Stdin` rather than its lock: the replay reads the log on
            // a thread of its own, and `StdinLock` cannot be sent there.
            run_stream(opts, path, std::io::BufReader::new(std::io::stdin()))?
        }
        (Some(path), None) => {
            let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
            run_stream(opts, path, std::io::BufReader::new(file))?
        }
        (None, Some(name)) => {
            let spec = trace_by_name(name)?;
            let requests = opts.requests.unwrap_or(150_000);
            let trace = spec
                .scaled(opts.files.min(spec.num_files), requests)
                .generate(opts.seed);
            replay_trace_timed(
                &replay_config(opts),
                &trace,
                opts.rate_rps,
                opts.seed,
                clock(opts).as_mut(),
                print_snapshot,
            )
            .map_err(|e| format!("--trace {name} at --rate {:?}: {e}", opts.rate_rps))?
        }
        _ => unreachable!("parse_opts enforces exactly one source"),
    };
    print_final(&report);
    if let Some(path) = &opts.csv {
        write_report_csv(&report, path).map_err(|e| format!("write {}: {e}", path.display()))?;
        outln!("CSV: {}", path.display());
    }
    Ok(())
}

fn main() {
    // The tool has no subcommands; its name stands in for one, so the
    // shared parser's messages read "l2s-replay: ...".
    let argv = std::iter::once("l2s-replay".to_string()).chain(std::env::args().skip(1));
    let parsed = args::parse(argv).and_then(|p| {
        if p.flag("help") || p.flag("h") {
            Ok(None)
        } else {
            parse_opts(&p).map(Some)
        }
    });
    let opts = match parsed {
        Ok(Some(o)) => o,
        Ok(None) => {
            outln!("{USAGE}");
            return;
        }
        Err(e) => out::fail(&format!("{e}\n\n{USAGE}")),
    };
    if let Err(e) = run(&opts) {
        out::fail(&format!("{e}\n\n{USAGE}"));
    }
}
