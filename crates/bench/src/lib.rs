//! Experiment harness behind the `all_figures` binary.
//!
//! Every table and figure of the paper, and every extension study, is
//! one experiment in [`experiments::ALL`] (see DESIGN.md's experiment
//! index). `all_figures` runs the whole suite in one process, sharing
//! the memoized traces, or only the experiments named by `--only`. This
//! library holds the common machinery: the run context ([`RunCtx`]), the
//! deterministic parallel cell executor ([`run_cells_parallel`]), the
//! analytic "model" line of Figures 7–10, and output helpers.
//!
//! # Run context
//!
//! An experiment reads nothing from the process environment. The binary
//! builds one [`RunCtx`] at its entry point — worker count, request cap
//! and output directory — and passes it down; [`RunCtx::from_vars`]
//! documents the variables it is built from.
//!
//! # Parallel execution
//!
//! Every experiment decomposes into independent *cells* — one
//! simulation (or model evaluation) per `(trace, policy, nodes, knob)`
//! combination. [`run_cells_parallel`] fans cells across
//! `min(ctx.workers, cells)` scoped threads and collects results **by
//! cell index, never by completion order**, so every CSV and chart is
//! byte-identical to a sequential run regardless of worker count or
//! scheduling. One worker runs the cells inline on the calling thread.
//!
//! # Scale control
//!
//! By default the harness runs a *quick* configuration (full file
//! populations, request streams capped at 150 000) so every figure
//! regenerates in seconds. A context with `cap: None` simulates the
//! complete Table 2 request counts (up to 3.1 M requests per run), which
//! reproduces the paper at full fidelity; a smaller cap shrinks every run
//! further (the determinism test uses this).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

use l2s::PolicyKind;
use l2s_model::{ModelParams, QueueModel, ServerKind};
use l2s_sim::{simulate, SimConfig, SimReport};
use l2s_trace::{Trace, TraceSpec, TraceStats};
use l2s_util::ascii::{line_chart, Series};
use l2s_util::cast;
use l2s_util::csv::CsvTable;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// The cluster sizes of Figures 7–10.
pub const PAPER_NODE_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// The three servers of Figures 7–10, in plotting order.
pub const PAPER_POLICIES: [PolicyKind; 3] =
    [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Traditional];

/// Per-run request cap of the quick configuration.
const QUICK_CAP: usize = 150_000;

/// How one run of the harness is carried out: built once at the
/// binary's entry point and passed to every experiment. None of these
/// values changes what a cell computes except `cap`, which is part of
/// each cell's configuration.
#[derive(Clone, Debug)]
pub struct RunCtx {
    /// Worker threads of the parallel cell executor (at least 1).
    pub workers: usize,
    /// Request cap of every simulation run; `None` simulates the full
    /// Table 2 request counts.
    pub cap: Option<usize>,
    /// Directory every CSV is written to.
    pub out: PathBuf,
}

impl RunCtx {
    /// Builds the context from variables looked up by name:
    ///
    /// * `L2S_WORKERS=<n>` — worker count, capped at the core count;
    ///   default all cores.
    /// * `L2S_BENCH_CAP=<n>` — request cap; default 150 000.
    /// * `L2S_BENCH_FULL=1` — no cap (full fidelity); wins over
    ///   `L2S_BENCH_CAP`.
    /// * `L2S_RESULTS_DIR=<dir>` — output directory; default `results`.
    ///
    /// Zero or unparsable numbers are ignored. `all_figures` looks the
    /// names up in the process environment; tests pass a fake lookup.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<OsString>) -> RunCtx {
        let positive = |key: &str| {
            lookup(key)
                .and_then(|v| v.to_str()?.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
        };
        let cores = l2s_util::pool::available_workers();
        let full = lookup("L2S_BENCH_FULL").is_some_and(|v| v == "1");
        RunCtx {
            workers: positive("L2S_WORKERS").map_or(cores, |n| n.min(cores)),
            cap: (!full).then(|| positive("L2S_BENCH_CAP").unwrap_or(QUICK_CAP)),
            out: lookup("L2S_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
        }
    }
}

/// Runs `cells` independent jobs across `ctx.workers` threads and
/// returns their results ordered by cell index — the determinism
/// contract every experiment relies on: output order depends only on how
/// the experiment *enumerates* its cells, never on completion order.
pub fn run_cells_parallel<T, F>(ctx: &RunCtx, cells: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    l2s_util::pool::run_indexed(ctx.workers, cells, run)
}

/// Deterministic per-trace generation seed.
pub fn trace_seed(spec: &TraceSpec) -> u64 {
    // Stable hash of the trace name.
    spec.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Bit-exact memoization key for a [`TraceSpec`]: the name plus every
/// numeric field rendered via `to_bits`, so two specs share a cached
/// trace only when generation would be identical.
fn trace_key(spec: &TraceSpec) -> String {
    format!(
        "{}|{}|{:016x}|{}|{:016x}|{:016x}|{:016x}|{:016x}|{}",
        spec.name,
        spec.num_files,
        spec.avg_file_kb.to_bits(),
        spec.num_requests,
        spec.avg_request_kb.to_bits(),
        spec.alpha.to_bits(),
        spec.size_sigma.to_bits(),
        spec.temporal.to_bits(),
        spec.temporal_window,
    )
}

/// Generates a Table 2 trace at harness scale, memoized per spec.
///
/// Trace generation is the single largest fixed cost of an experiment
/// run, and the experiments reuse a handful of Table 2 specs; running
/// them in one process (the `all_figures` binary) makes each distinct
/// spec pay generation once. The cache key is bit-exact over every spec
/// field, so memoization cannot change what any experiment sees —
/// `spec.generate(trace_seed(spec))` is deterministic in the spec.
///
/// Thread-safety: the map lock is held only long enough to fetch or
/// insert a per-key slot; generation itself runs under the slot's own
/// `OnceLock`. Two workers asking for the *same* spec concurrently share
/// one generation (the second blocks), while workers generating
/// *different* specs proceed in parallel.
pub fn paper_trace(spec: &TraceSpec) -> Arc<Trace> {
    type Slot = Arc<OnceLock<Arc<Trace>>>;
    static CACHE: OnceLock<Mutex<BTreeMap<String, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = trace_key(spec);
    let slot: Slot = {
        let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| Arc::new(spec.generate(trace_seed(spec)))))
}

/// One cell of a node sweep.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Cluster size.
    pub nodes: usize,
    /// Policy simulated.
    pub policy: PolicyKind,
    /// Full measurement report.
    pub report: SimReport,
}

/// Runs `trace` under every `(nodes, policy)` combination in parallel
/// and returns the cells sorted by `(nodes, policy index)`.
///
/// `configure` customizes the base [`SimConfig`] per cluster size (cache
/// size overrides, sensitivity knobs, ...).
pub fn sweep<F>(
    ctx: &RunCtx,
    trace: &Trace,
    node_counts: &[usize],
    policies: &[PolicyKind],
    configure: F,
) -> Vec<SweepCell>
where
    F: Fn(usize) -> SimConfig + Sync,
{
    let jobs: Vec<(usize, PolicyKind)> = node_counts
        .iter()
        .flat_map(|&n| policies.iter().map(move |&p| (n, p)))
        .collect();
    // Index-ordered collection: cell i is always jobs[i]'s result, so the
    // output is identical for every worker count.
    let mut cells = run_cells_parallel(ctx, jobs.len(), |i| {
        let (n, policy) = jobs[i];
        let config = configure(n);
        let report = simulate(&config, policy, trace);
        SweepCell {
            nodes: n,
            policy,
            report,
        }
    });
    // The enumeration above already emits (nodes, policy index) order for
    // ascending node_counts; the sort keeps the documented contract even
    // for unsorted caller input.
    let order = |p: PolicyKind| policies.iter().position(|&q| q == p).unwrap_or(usize::MAX);
    cells.sort_by_key(|c| (c.nodes, order(c.policy)));
    cells
}

/// The default per-figure configuration: Section 5.1 parameters with the
/// run's request cap applied.
pub fn paper_config(ctx: &RunCtx, nodes: usize) -> SimConfig {
    SimConfig {
        max_requests: ctx.cap,
        ..SimConfig::paper_default(nodes)
    }
}

/// The analytic model line of Figures 7–10: the throughput upper bound
/// of a locality-conscious server with 15 % replication, instantiated
/// with the trace's measured population, Zipf exponent, and mean
/// requested-file size.
pub fn model_line(
    stats: &TraceStats,
    node_counts: &[usize],
    cache_kb: f64,
) -> Result<Vec<(usize, f64)>, String> {
    node_counts
        .iter()
        .map(|&n| {
            let params = ModelParams {
                nodes: n,
                replication: 0.15,
                alpha: stats.alpha.max(0.05),
                cache_kb,
                avg_file_kb: stats.avg_request_kb,
                ..ModelParams::default()
            };
            let model = QueueModel::new(params)?;
            let derived = model.derived_from_population(
                ServerKind::LocalityConscious,
                cast::len_f64(stats.num_files),
            );
            Ok((n, model.max_throughput_derived(&derived)))
        })
        .collect()
}

/// Renders and writes one Figures 7–10 style experiment: simulated
/// throughput for the three servers plus the model bound, as CSV and an
/// ASCII chart under `dir`. Returns the path written and the chart
/// text.
pub fn write_throughput_figure(
    dir: &Path,
    fig: &str,
    spec: &TraceSpec,
    cells: &[SweepCell],
    model: &[(usize, f64)],
) -> std::io::Result<(PathBuf, String)> {
    let mut table = CsvTable::new(["nodes", "model", "l2s", "lard", "traditional"]);
    let mut series: Vec<Series> = vec![
        Series::new("model", Vec::new()),
        Series::new("l2s", Vec::new()),
        Series::new("lard", Vec::new()),
        Series::new("traditional", Vec::new()),
    ];
    let nodes: Vec<usize> = model.iter().map(|&(n, _)| n).collect();
    for (i, &n) in nodes.iter().enumerate() {
        let get = |p: PolicyKind| {
            cells
                .iter()
                .find(|c| c.nodes == n && c.policy == p)
                .map(|c| c.report.throughput_rps)
                .unwrap_or(0.0)
        };
        let row = [
            model[i].1,
            get(PolicyKind::L2s),
            get(PolicyKind::Lard),
            get(PolicyKind::Traditional),
        ];
        table.row_f64([cast::len_f64(n), row[0], row[1], row[2], row[3]]);
        for (s, v) in series.iter_mut().zip(row) {
            s.points.push((cast::len_f64(n), v));
        }
    }
    let path = dir.join(format!("{fig}.csv"));
    table.write_to(&path)?;
    let chart = line_chart(
        &format!(
            "{fig}: throughput (requests/s) vs nodes — {} trace",
            spec.name
        ),
        &series,
        64,
        20,
    );
    Ok((path, chart))
}

/// Runs one complete Figures 7–10 experiment (sweep + model line +
/// outputs) and prints the chart plus the paper's headline comparisons.
pub fn run_paper_figure(ctx: &RunCtx, fig: &str, spec: &TraceSpec) -> Result<(), String> {
    println!(
        "== {fig}: {} trace ({} files, {} requests{}) ==",
        spec.name,
        spec.num_files,
        spec.num_requests,
        if ctx.cap.is_none() {
            ", full fidelity"
        } else {
            ", quick mode (L2S_BENCH_FULL=1 for full)"
        }
    );
    let trace = paper_trace(spec);
    let stats = TraceStats::compute(&trace);
    println!(
        "   generated: avg file {:.1} KB, avg request {:.1} KB, alpha {:.2}, working set {:.0} MB",
        stats.avg_file_kb,
        stats.avg_request_kb,
        stats.alpha,
        stats.working_set_kb / 1024.0
    );
    let cells = sweep(ctx, &trace, &PAPER_NODE_COUNTS, &PAPER_POLICIES, |n| {
        paper_config(ctx, n)
    });
    let model = model_line(&stats, &PAPER_NODE_COUNTS, paper_config(ctx, 1).cache_kb)?;
    let (path, chart) = write_throughput_figure(&ctx.out, fig, spec, &cells, &model)
        .map_err(|e| format!("write {fig} outputs: {e}"))?;
    println!("{chart}");

    let at16 = |p: PolicyKind| {
        cell(&cells, 16, p)
            .map(|c| c.report.throughput_rps)
            .ok_or_else(|| format!("{fig}: missing 16-node {} cell", p.name()))
    };
    let l2s = at16(PolicyKind::L2s)?;
    let lard = at16(PolicyKind::Lard)?;
    let trad = at16(PolicyKind::Traditional)?;
    let bound = model.last().map(|&(_, x)| x).unwrap_or(f64::NAN);
    println!("  at 16 nodes: L2S {l2s:.0} r/s, LARD {lard:.0} r/s, traditional {trad:.0} r/s");
    println!(
        "  L2S vs LARD {:+.0}%, L2S vs traditional {:+.0}%, L2S at {:.0}% of the model bound",
        (l2s / lard - 1.0) * 100.0,
        (l2s / trad - 1.0) * 100.0,
        l2s / bound * 100.0
    );
    println!("  CSV: {}", path.display());
    Ok(())
}

/// Convenience accessor: the cell for `(nodes, policy)`, if the sweep
/// produced one.
pub fn cell(cells: &[SweepCell], nodes: usize, policy: PolicyKind) -> Option<&SweepCell> {
    cells
        .iter()
        .find(|c| c.nodes == nodes && c.policy == policy)
}

/// Extracts the first `"key": <number>` occurrence from a JSON string.
///
/// Hand-rolled because the workspace deliberately has no serde; the
/// `BENCH_*.json` files this reads are machine-written by the binaries
/// in this crate, so the format is known.
pub fn extract_json_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Wall-clock accounting for one figure-suite run, recorded by
/// [`run_all_figures_timed`] and written to `BENCH_suite.json` by the
/// `all_figures` binary. Wall-clock here is measurement *about* the
/// suite, not input *to* it — every simulated quantity still comes from
/// the event queue, so timing cannot perturb any figure.
#[derive(Clone, Debug)]
pub struct SuiteTiming {
    /// Total suite wall-clock in seconds.
    pub wall_s: f64,
    /// `(experiment name, wall-clock seconds)` in execution order.
    pub per_experiment: Vec<(String, f64)>,
}

/// Runs `selected` experiments (see [`experiments::select`]) in this
/// process, in order, sharing the memoized traces, and times each one.
/// Stops at the first failure, naming the experiment.
pub fn run_all_figures_timed(
    ctx: &RunCtx,
    selected: &[experiments::Experiment],
) -> Result<SuiteTiming, String> {
    let total = selected.len();
    let suite_start = std::time::Instant::now();
    let mut per_experiment = Vec::with_capacity(total);
    for (i, (name, run)) in selected.iter().enumerate() {
        println!("=== [{}/{total}] {name} ===", i + 1);
        let start = std::time::Instant::now();
        run(ctx).map_err(|e| format!("{name}: {e}"))?;
        per_experiment.push((name.to_string(), start.elapsed().as_secs_f64()));
        println!();
    }
    Ok(SuiteTiming {
        wall_s: suite_start.elapsed().as_secs_f64(),
        per_experiment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context for tests that call library functions directly.
    fn ctx(workers: usize) -> RunCtx {
        RunCtx {
            workers,
            cap: Some(2_000),
            out: std::env::temp_dir(),
        }
    }

    /// `RunCtx::from_vars` over a fixed set of variables.
    fn from(vars: &[(&str, &str)]) -> RunCtx {
        RunCtx::from_vars(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn run_ctx_defaults_to_quick_mode_on_every_core() {
        let ctx = from(&[]);
        assert_eq!(ctx.workers, l2s_util::pool::available_workers());
        assert_eq!(ctx.cap, Some(QUICK_CAP));
        assert_eq!(ctx.out, PathBuf::from("results"));
        let ctx = from(&[
            ("L2S_WORKERS", "1"),
            ("L2S_BENCH_CAP", " 2000 "),
            ("L2S_RESULTS_DIR", "results-ci"),
        ]);
        assert_eq!(ctx.workers, 1);
        assert_eq!(ctx.cap, Some(2_000));
        assert_eq!(ctx.out, PathBuf::from("results-ci"));
    }

    #[test]
    fn full_fidelity_wins_over_the_cap() {
        let full = from(&[("L2S_BENCH_FULL", "1"), ("L2S_BENCH_CAP", "2000")]);
        assert_eq!(full.cap, None);
        // Only the exact value 1 asks for full fidelity.
        for value in ["0", "yes", "", " 1"] {
            let ctx = from(&[("L2S_BENCH_FULL", value), ("L2S_BENCH_CAP", "2000")]);
            assert_eq!(ctx.cap, Some(2_000), "L2S_BENCH_FULL={value:?}");
        }
    }

    #[test]
    fn zero_or_garbage_numbers_fall_back_to_the_defaults() {
        let cores = l2s_util::pool::available_workers();
        for bad in ["0", "-3", "many", "", "1.5"] {
            let ctx = from(&[("L2S_WORKERS", bad), ("L2S_BENCH_CAP", bad)]);
            assert_eq!(ctx.workers, cores, "L2S_WORKERS={bad:?}");
            assert_eq!(ctx.cap, Some(QUICK_CAP), "L2S_BENCH_CAP={bad:?}");
        }
    }

    #[test]
    fn workers_never_exceed_the_core_count() {
        let cores = l2s_util::pool::available_workers();
        for asked in [cores, cores + 1, 1_000_000] {
            let ctx = from(&[("L2S_WORKERS", &asked.to_string())]);
            assert_eq!(ctx.workers, cores, "L2S_WORKERS={asked}");
        }
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let presets = TraceSpec::paper_presets();
        let seeds: Vec<u64> = presets.iter().map(trace_seed).collect();
        assert_eq!(seeds, presets.iter().map(trace_seed).collect::<Vec<_>>());
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn sweep_covers_the_matrix() {
        let trace = TraceSpec::calgary().scaled(200, 3_000).generate(1);
        let cells = sweep(
            &ctx(2),
            &trace,
            &[1, 2],
            &[PolicyKind::Traditional, PolicyKind::L2s],
            |n| SimConfig::quick(n, 1_000.0),
        );
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].nodes, 1);
        assert_eq!(cells[3].nodes, 2);
        for c in &cells {
            assert_eq!(c.report.completed, 3_000);
        }
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let trace = TraceSpec::nasa().scaled(150, 2_000).generate(2);
        let run = |workers| {
            sweep(&ctx(workers), &trace, &[1, 2, 4], &[PolicyKind::L2s], |n| {
                SimConfig::quick(n, 800.0)
            })
            .iter()
            .map(|c| c.report.throughput_rps)
            .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn model_line_grows_with_nodes() {
        let trace = TraceSpec::calgary().scaled(2_000, 50_000).generate(3);
        let stats = TraceStats::compute(&trace);
        let line = model_line(&stats, &[1, 4, 16], 32.0 * 1024.0).unwrap();
        assert_eq!(line.len(), 3);
        assert!(line[0].1 < line[1].1 && line[1].1 < line[2].1);
    }

    #[test]
    fn figure_writer_emits_csv_and_chart() {
        let dir = std::env::temp_dir().join("l2s-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = TraceSpec::calgary().scaled(200, 2_000);
        let trace = spec.generate(4);
        let cells = sweep(&ctx(2), &trace, &[1, 2], &PAPER_POLICIES, |n| {
            SimConfig::quick(n, 1_000.0)
        });
        let stats = TraceStats::compute(&trace);
        let model = model_line(&stats, &[1, 2], 1_000.0).unwrap();
        let (path, chart) =
            write_throughput_figure(&dir, "figtest", &spec, &cells, &model).unwrap();
        assert!(path.exists());
        assert!(chart.contains("figtest"));
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("nodes,model,l2s,lard,traditional"));
        assert_eq!(csv.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paper_trace_memoizes_per_spec() {
        let spec = TraceSpec::calgary().scaled(100, 1_000);
        let a = paper_trace(&spec);
        let b = paper_trace(&spec);
        assert!(Arc::ptr_eq(&a, &b), "same spec must share one trace");
        let other = TraceSpec::calgary().scaled(100, 1_001);
        let c = paper_trace(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different specs must not collide");
        // Memoization must be invisible: the cached trace is exactly
        // what direct generation produces.
        assert_eq!(
            a.requests(),
            spec.generate(trace_seed(&spec)).requests(),
            "cached trace must equal direct generation"
        );
    }
}
