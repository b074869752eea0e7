//! The benchmark of record for the cluster simulator and the CLF replay
//! front-end.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A timed run (`--trace 0`) builds the workload's inputs several times
//! (reporting the median as `setup_s`), then repeats the workload until
//! `--seconds` of host time are spent — the first repetition only warms
//! up — and reports the median timed repetition's simulated requests per
//! host second and the process's peak resident memory. A traced run
//! (`--trace 1`) attributes host time to the layers instead (see
//! `layers.rs`). Every run checks its simulated results: the digest of
//! each repetition must match the pinned digest (at the default seed) or
//! the other repetitions, and every request injected must be completed
//! or failed. The last line on stdout is one JSON object with the checks
//! and the metrics; progress goes to stderr. README.md describes the
//! workloads and metrics.

mod digest;
mod layers;
mod spans;
mod workloads;

use spans::Spans;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{ClfLog, Size, Workload, DEFAULT_SEED, OUT_DIR};

/// Times the inputs are built per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest timed repetitions per run, whatever `--seconds` allows.
const MIN_REPS: usize = 2;

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a non-negative integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &Size::FULL) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pass/fail tallies of the output checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: check failed: {what}");
        }
    }

    /// The digest check: the pinned digest where one applies, otherwise
    /// agreement with `reference` (another repetition, or the untraced
    /// run).
    fn digest(&mut self, args: &Args, size: &Size, digest: u64, reference: u64) {
        let pinned = (args.seed == DEFAULT_SEED && size.pinned)
            .then(|| args.workload.pinned_digest())
            .flatten();
        match pinned {
            Some(p) => self.check(
                digest == p,
                &format!("digest {digest:#018x} != pinned {p:#018x}"),
            ),
            None => self.check(
                digest == reference,
                &format!("digest {digest:#018x} != {reference:#018x} of the reference run"),
            ),
        }
    }
}

/// Runs the workload as `args` asks and renders the result line.
fn run(args: &Args, size: &Size) -> Result<String, String> {
    let w = args.workload;
    eprintln!(
        "benchmark: {} seed {} ({})",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    let mut spans = Spans::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut source = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        // Free the previous inputs first, so set-ups never overlap in memory.
        drop(source.take());
        let start = Instant::now();
        let built = spans.time("setup", |_| workloads::setup(w, size, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
        eprintln!("  setup: {:.4} s", setup_s[setup_s.len() - 1]);
        source = Some(built);
    }
    let mut source = source.ok_or("no set-up ran")?;
    let log = match (&source, w) {
        (workloads::Source::Trace(trace), Workload::ClfReplay) => {
            Some(spans.time("render CLF log (harness, untimed)", |_| {
                ClfLog::render(trace, size.clf_rate, args.seed)
            })?)
        }
        _ => None,
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        let traced = layers::run(w, size, &mut source, log.as_ref(), setup_s[0], &mut spans)?;
        checks.digest(args, size, traced.digest, traced.warmup_digest);
        checks.check(
            traced.consistent,
            "traced run differs from the untraced run",
        );
        checks.check(traced.conserved, "completed + failed != injected");
        write_trace(w, args.seed, &spans, &traced.metrics)?;
        let defs = layers::METRICS.iter();
        traced
            .metrics
            .iter()
            .zip(defs)
            .map(|(&v, m)| (m.name, v, m.unit))
            .collect()
    } else {
        // The first repetition runs cold (the allocator is still growing
        // the heap) and only warms up: it is checked but not timed.
        let mut rates = Vec::new();
        let mut first_digest = None;
        let start = Instant::now();
        for n in 0.. {
            let rep_start = Instant::now();
            let rep = workloads::run(w, size, &mut source, log.as_ref())?;
            let wall = rep_start.elapsed().as_secs_f64();
            if n > 0 {
                rates.push(rep.requests as f64 / wall);
            }
            eprintln!(
                "  rep {n}: {} requests in {wall:.3} s, digest {:#018x}",
                rep.requests, rep.digest
            );
            checks.digest(
                args,
                size,
                rep.digest,
                *first_digest.get_or_insert(rep.digest),
            );
            checks.check(rep.conserved, "completed + failed != injected");
            let spent = start.elapsed().as_secs_f64();
            let mean = spent / (n + 1) as f64;
            if rates.len() >= MIN_REPS && spent + mean > args.seconds {
                break;
            }
        }
        vec![
            ("requests_per_s", median(&mut rates), "req/s"),
            ("setup_s", median(&mut setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ]
    };
    Ok(result_line(&checks, &metrics))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Writes the traced run's spans and per-layer metrics to
/// `.bench_out/trace-<workload>.json`.
fn write_trace(w: Workload, seed: u64, spans: &Spans, values: &[f64]) -> Result<(), String> {
    let mut json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"spans\": {},\n  \"metrics\": [\n",
        w.name(),
        spans.to_json("  ")
    );
    for (i, (m, v)) in layers::METRICS.iter().zip(values).enumerate() {
        let sep = if i + 1 < values.len() { "," } else { "" };
        let kind = if m.exact { "count" } else { "time" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"value\": {v}, \"unit\": \"{}\", \"kind\": \"{kind}\"}}{sep}",
            m.name, m.unit
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}.json", w.name());
    std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("benchmark: spans written to {path}");
    Ok(())
}

/// The result line: checks plus metrics, as one JSON object.
fn result_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a non-finite value is a bug upstream.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bad_arguments_are_refused_with_a_message() {
        assert!(args(&["--workload", "nope"])
            .err()
            .is_some_and(|e| e.contains("unknown workload")));
        for seed in ["-1", "1.5", "x", ""] {
            assert!(
                args(&["--workload", "paper-trio", "--seed", seed]).is_err(),
                "seed {seed:?}"
            );
        }
        assert!(args(&["--workload", "paper-trio", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "paper-trio", "--trace", "2"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seed", "3"]).is_err(), "workload is required");
        let ok = args(&["--workload", "clf-replay", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::ClfReplay, 7, true)
        );
    }

    /// `(name, unit)` pairs declared under `key` in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let body = &text[text.find(&format!("\"{key}\"")).expect("list key present")..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, f: &str| {
            entry
                .find(&format!("\"{f}\": \""))
                .map(|i| {
                    entry[i + f.len() + 5..]
                        .split('"')
                        .next()
                        .unwrap_or_default()
                })
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    /// `(name, value, unit)` triples of a result line's metrics.
    fn printed(line: &str) -> Vec<(String, String, String)> {
        const VALUE: &str = "\": {\"value\": ";
        const UNIT: &str = "\"unit\": \"";
        let mut rest = &line[line.find("\"metrics\"").expect("metrics key") + 10..];
        let mut out = Vec::new();
        while let Some(i) = rest.find(VALUE) {
            let name = rest[..i].rsplit('"').next().unwrap_or_default();
            let after = &rest[i + VALUE.len()..];
            let value = &after[..after.find(',').expect("value ends")];
            let u = after.find(UNIT).expect("unit follows") + UNIT.len();
            let unit = after[u..].split('"').next().unwrap_or_default();
            out.push((name.to_string(), value.to_string(), unit.to_string()));
            rest = &after[u..];
        }
        out
    }

    fn small_run(w: Workload, trace: bool) -> String {
        let a = Args {
            workload: w,
            seed: 3,
            seconds: 0.01,
            trace,
        };
        run(&a, &Size::SMALL).unwrap()
    }

    /// Every workload and metric the binary prints is declared in
    /// `BENCHMARK.json` with the same unit, in the same order, and every
    /// declared one is printed; count metrics repeat exactly across two
    /// traced runs.
    #[test]
    fn printed_names_match_benchmark_json_and_counts_repeat() {
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let names_units = |line: &str| -> Vec<(String, String)> {
            printed(line).into_iter().map(|(n, _, u)| (n, u)).collect()
        };
        for w in Workload::ALL {
            let timed = small_run(w, false);
            assert!(timed.contains("\"correct\": true"), "{timed}");
            assert_eq!(names_units(&timed), declared("end_to_end"), "{}", w.name());

            let first = small_run(w, true);
            let second = small_run(w, true);
            assert!(first.contains("\"correct\": true"), "{first}");
            assert_eq!(names_units(&first), declared("per_layer"), "{}", w.name());
            let (first, second) = (printed(&first), printed(&second));
            for m in layers::METRICS.iter().filter(|m| m.exact) {
                let value = |p: &[(String, String, String)]| {
                    p.iter()
                        .find(|(n, _, _)| n == m.name)
                        .map(|(_, v, _)| v.clone())
                };
                assert_eq!(
                    value(&first),
                    value(&second),
                    "{}: count {} must repeat exactly",
                    w.name(),
                    m.name
                );
            }
        }
    }

    #[test]
    fn temporary_log_is_removed_on_drop() {
        let trace = l2s_trace::TraceSpec::rutgers().scaled(50, 200).generate(1);
        let log = ClfLog::render(&trace, 100.0, 1).unwrap();
        let path = log.path.clone();
        assert!(path.exists());
        assert!(log.open().unwrap().next_record().unwrap().is_some());
        drop(log);
        assert!(!path.exists());
        assert!(!path.parent().unwrap().exists());
    }
}
