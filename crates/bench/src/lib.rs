//! Experiment harness behind the `all_figures` binary.
//!
//! Every table and figure of the paper, and every extension study, is
//! one experiment in [`experiments::ALL`] (see DESIGN.md's experiment
//! index). `all_figures` runs the whole suite in one process, sharing
//! the memoized traces and simulated cells, or only the experiments
//! named by `--only`. This
//! library holds the common machinery: the run context ([`RunCtx`]), the
//! deterministic parallel cell executor ([`run_cells_parallel`]), the
//! analytic "model" line of Figures 7–10, and output helpers. The
//! [`perf`] module is the instrument of the `perf_baseline` and
//! `perf_scaling` harnesses.
//!
//! # Run context
//!
//! An experiment reads nothing from the process environment. The binary
//! builds one [`RunCtx`] at its entry point — worker count, request cap
//! and output directory — and passes it down; [`RunCtx::from_vars`]
//! documents the variables it is built from.
//!
//! The context also holds the run's report store: every experiment
//! simulates through [`RunCtx::simulate`], so a `(trace, policy,
//! SimConfig)` cell that an earlier experiment already ran — Section
//! 5.2's tables read the Figures 7–10 grid, the extension studies reuse
//! its default cells — is simulated once per run. The store belongs to
//! the context and its clones, never to the process: a fresh `RunCtx`
//! starts empty.
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
pub mod perf;

use l2s::PolicyKind;
use l2s_cluster::CachePolicy;
use l2s_model::{ModelParams, QueueModel, ServerKind};
use l2s_sim::{SimConfig, SimReport};
use l2s_trace::{Trace, TraceSpec, TraceStats};
use l2s_util::ascii::{line_chart, Series};
use l2s_util::cast;
use l2s_util::csv::CsvTable;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// The cluster sizes of Figures 7–10.
pub const PAPER_NODE_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// The three servers of Figures 7–10, in plotting order.
pub const PAPER_POLICIES: [PolicyKind; 3] =
    [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Traditional];

/// Per-run request cap of the quick configuration.
const QUICK_CAP: usize = 150_000;

/// One value per key, computed at most once: the memo behind
/// [`paper_trace`] and the report store of [`RunCtx`].
///
/// The map lock is held only long enough to fetch or insert a key's
/// slot; the value is computed under the slot's own `OnceLock`. Two
/// workers asking for the *same* key share one computation (the second
/// blocks until it is done), while different keys compute in parallel.
struct Memo<T> {
    slots: Mutex<BTreeMap<String, Arc<OnceLock<T>>>>,
}

impl<T: Clone> Memo<T> {
    const fn new() -> Self {
        Memo {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// The value stored under `key`, computing it with `init` first if
    /// no caller has yet.
    fn get_or_init(&self, key: String, init: impl FnOnce() -> T) -> T {
        let slot = {
            // A panicking holder cannot leave the map half-updated: its
            // only update is one insertion.
            let mut map = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key).or_default())
        };
        slot.get_or_init(init).clone()
    }

    /// How many keys have been asked for.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl<T> fmt::Debug for Memo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").finish_non_exhaustive()
    }
}

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
    /// Reports of the cells simulated so far in this run, shared by the
    /// context's clones (see [`RunCtx::simulate`]).
    reports: Arc<Memo<SimReport>>,
}

impl RunCtx {
    /// A context with an empty report store.
    pub fn new(workers: usize, cap: Option<usize>, out: PathBuf) -> RunCtx {
        RunCtx {
            workers,
            cap,
            out,
            reports: Arc::new(Memo::new()),
        }
    }

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
        RunCtx::new(
            positive("L2S_WORKERS").map_or(cores, |n| n.min(cores)),
            (!full).then(|| positive("L2S_BENCH_CAP").unwrap_or(QUICK_CAP)),
            lookup("L2S_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
        )
    }

    /// The report of `policy` on the harness trace of `spec` (see
    /// [`paper_trace`]) under `config`, simulated at most once per run.
    ///
    /// The store is keyed by the trace spec, the policy and the whole
    /// config's `Debug` text. That text renders every float so it reads
    /// back exactly (telling −0.0 from 0.0) and every duration in whole
    /// nanoseconds, and a field added to `SimConfig` joins the key by
    /// itself. `simulate` is deterministic in its inputs, so a stored
    /// report is the one a direct call would return.
    pub fn simulate(&self, spec: &TraceSpec, policy: PolicyKind, config: &SimConfig) -> SimReport {
        self.reports
            .get_or_init(cell_key(spec, policy, config), || {
                l2s_sim::simulate(config, policy, &paper_trace(spec))
            })
    }

    /// Writes `table` to `<out>/<stem>.csv` and prints the path.
    pub fn write_csv(&self, stem: &str, table: &CsvTable) -> Result<(), String> {
        let path = self.out.join(format!("{stem}.csv"));
        table
            .write_to(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("CSV: {}", path.display());
        Ok(())
    }
}

/// The report store's key for one cell.
fn cell_key(spec: &TraceSpec, policy: PolicyKind, config: &SimConfig) -> String {
    format!("{}|{policy:?}|{config:?}", trace_key(spec))
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
        "{}|{}|{:016x}|{}|{:016x}|{:016x}|{:016x}",
        spec.name,
        spec.num_files,
        spec.avg_file_kb.to_bits(),
        spec.num_requests,
        spec.avg_request_kb.to_bits(),
        spec.alpha.to_bits(),
        spec.temporal.to_bits(),
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
/// Workers asking for the same spec share one generation; different
/// specs generate in parallel.
pub fn paper_trace(spec: &TraceSpec) -> Arc<Trace> {
    static TRACES: Memo<Arc<Trace>> = Memo::new();
    TRACES.get_or_init(trace_key(spec), || {
        Arc::new(spec.generate(trace_seed(spec)))
    })
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

/// Runs the trace of `spec` under every `(nodes, policy)` combination
/// in parallel, through the run's report store, and returns the cells
/// sorted by `(nodes, policy index)`.
///
/// `configure` customizes the base [`SimConfig`] per cluster size (cache
/// size overrides, sensitivity knobs, ...).
pub fn sweep<F>(
    ctx: &RunCtx,
    spec: &TraceSpec,
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
        SweepCell {
            nodes: n,
            policy,
            report: ctx.simulate(spec, policy, &configure(n)),
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
/// throughput for the three servers plus the model bound, as
/// `<fig>.csv` under `ctx.out` and an ASCII chart, which it returns. A
/// cell missing from `cells` is an error.
pub fn write_throughput_figure(
    ctx: &RunCtx,
    fig: &str,
    spec: &TraceSpec,
    cells: &[SweepCell],
    model: &[(usize, f64)],
) -> Result<String, String> {
    let mut table = CsvTable::new(["nodes", "model", "l2s", "lard", "traditional"]);
    let mut series: Vec<Series> = ["model", "l2s", "lard", "traditional"]
        .into_iter()
        .map(|name| Series::new(name, Vec::new()))
        .collect();
    for &(n, bound) in model {
        let mut row = vec![bound];
        for p in PAPER_POLICIES {
            row.push(cell(cells, &spec.name, n, p)?.report.throughput_rps);
        }
        table.row_f64(std::iter::once(cast::len_f64(n)).chain(row.iter().copied()));
        for (s, v) in series.iter_mut().zip(row) {
            s.points.push((cast::len_f64(n), v));
        }
    }
    ctx.write_csv(fig, &table)?;
    Ok(line_chart(
        &format!(
            "{fig}: throughput (requests/s) vs nodes — {} trace",
            spec.name
        ),
        &series,
        64,
        20,
    ))
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
    let stats = TraceStats::compute(&paper_trace(spec));
    println!(
        "   generated: avg file {:.1} KB, avg request {:.1} KB, alpha {:.2}, working set {:.0} MB",
        stats.avg_file_kb,
        stats.avg_request_kb,
        stats.alpha,
        stats.working_set_kb / 1024.0
    );
    let cells = sweep(ctx, spec, &PAPER_NODE_COUNTS, &PAPER_POLICIES, |n| {
        paper_config(ctx, n)
    });
    let model = model_line(&stats, &PAPER_NODE_COUNTS, paper_config(ctx, 1).cache_kb)?;
    let chart = write_throughput_figure(ctx, fig, spec, &cells, &model)?;
    println!("{chart}");

    let at16 = |p: PolicyKind| cell(&cells, &spec.name, 16, p).map(|c| c.report.throughput_rps);
    let l2s = at16(PolicyKind::L2s)?;
    let lard = at16(PolicyKind::Lard)?;
    let trad = at16(PolicyKind::Traditional)?;
    let &(_, bound) = model
        .iter()
        .find(|&&(n, _)| n == 16)
        .ok_or_else(|| format!("{fig}: the model line has no 16-node bound"))?;
    println!("  at 16 nodes: L2S {l2s:.0} r/s, LARD {lard:.0} r/s, traditional {trad:.0} r/s");
    println!(
        "  L2S vs LARD {:+.0}%, L2S vs traditional {:+.0}%, L2S at {:.0}% of the model bound",
        (l2s / lard - 1.0) * 100.0,
        (l2s / trad - 1.0) * 100.0,
        l2s / bound * 100.0
    );
    Ok(())
}

/// The cell for `(nodes, policy)` of a sweep over the trace named
/// `trace`; a missing cell is an error naming all three.
pub fn cell<'a>(
    cells: &'a [SweepCell],
    trace: &str,
    nodes: usize,
    policy: PolicyKind,
) -> Result<&'a SweepCell, String> {
    cells
        .iter()
        .find(|c| c.nodes == nodes && c.policy == policy)
        .ok_or_else(|| {
            format!(
                "{trace} trace: no {nodes}-node {} cell in the sweep",
                policy.name()
            )
        })
}

/// The short name of a cache replacement policy, as tables and records
/// print it.
pub fn cache_name(cache: CachePolicy) -> &'static str {
    match cache {
        CachePolicy::Lru => "lru",
        CachePolicy::GreedyDualSize => "gds",
    }
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
/// process, in order, sharing the memoized traces and the context's
/// report store, and times each one.
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

impl SuiteTiming {
    /// The `BENCH_suite.json` record of this run of `ctx` on `cores`
    /// cores, with `baseline_wall_s` as the 1-worker baseline.
    pub fn record(&self, ctx: &RunCtx, cores: usize, baseline_wall_s: f64) -> String {
        let workload = match ctx.cap {
            None => "full fidelity (Table 2 request counts)".to_string(),
            Some(cap) => format!("quick mode ({cap} requests/cell cap)"),
        };
        let experiments = self.per_experiment.len();
        let speedup = baseline_wall_s / self.wall_s.max(1e-9);
        let fields = [
            ("schema", "1".to_string()),
            (
                "workload",
                perf::quote(&format!(
                    "all_figures suite: {experiments} experiments, {workload}"
                )),
            ),
            ("workers", ctx.workers.to_string()),
            ("cores", cores.to_string()),
            ("wall_s_total", format!("{:.3}", self.wall_s)),
            ("baseline_wall_s_1worker", format!("{baseline_wall_s:.3}")),
            ("speedup_vs_1worker", format!("{speedup:.3}")),
        ];
        let rows: Vec<String> = self
            .per_experiment
            .iter()
            .map(|(name, wall_s)| {
                perf::object(&[
                    ("name", perf::quote(name)),
                    ("wall_s", format!("{wall_s:.3}")),
                ])
            })
            .collect();
        perf::render_record(&fields, "experiments", &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context for tests that call library functions directly.
    fn ctx(workers: usize) -> RunCtx {
        RunCtx::new(workers, Some(2_000), std::env::temp_dir())
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
        let spec = TraceSpec::calgary().scaled(200, 3_000);
        let cells = sweep(
            &ctx(2),
            &spec,
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
        let spec = TraceSpec::nasa().scaled(150, 2_000);
        // A fresh context per run, so the 4-worker run simulates every
        // cell again instead of reading the 1-worker run's reports.
        let run = |workers| {
            sweep(&ctx(workers), &spec, &[1, 2, 4], &[PolicyKind::L2s], |n| {
                SimConfig::quick(n, 800.0)
            })
            .iter()
            .map(|c| c.report.throughput_rps)
            .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn missing_cells_are_errors_naming_the_cell() {
        let spec = TraceSpec::calgary().scaled(100, 500);
        let cells = sweep(&ctx(1), &spec, &[1], &[PolicyKind::L2s], |n| {
            SimConfig::quick(n, 500.0)
        });
        assert!(cell(&cells, &spec.name, 1, PolicyKind::L2s).is_ok());
        let err = cell(&cells, &spec.name, 4, PolicyKind::Lard).unwrap_err();
        for part in ["calgary", "4-node", "lard"] {
            assert!(err.contains(part), "{err} should name {part}");
        }
        // The figure writer refuses a sweep that lacks a row's cells
        // instead of writing 0.
        let model = [(1, 100.0), (4, 400.0)];
        let err =
            write_throughput_figure(&ctx(1), "figmissing", &spec, &cells, &model).unwrap_err();
        assert!(err.contains("lard"), "{err}");
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
        let dir = std::env::temp_dir().join(format!("l2s-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = RunCtx::new(2, Some(2_000), dir.clone());
        let spec = TraceSpec::calgary().scaled(200, 2_000);
        let cells = sweep(&ctx, &spec, &[1, 2], &PAPER_POLICIES, |n| {
            SimConfig::quick(n, 1_000.0)
        });
        let stats = TraceStats::compute(&paper_trace(&spec));
        let model = model_line(&stats, &[1, 2], 1_000.0).unwrap();
        let chart = write_throughput_figure(&ctx, "figtest", &spec, &cells, &model).unwrap();
        assert!(chart.contains("figtest"));
        let csv = std::fs::read_to_string(dir.join("figtest.csv")).unwrap();
        assert!(csv.starts_with("nodes,model,l2s,lard,traditional"));
        assert_eq!(csv.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_computes_each_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let memo: Memo<usize> = Memo::new();
        let computed = AtomicUsize::new(0);
        let start = Barrier::new(4);
        // Four threads released together, each asking for the same four
        // keys in a different order.
        std::thread::scope(|s| {
            for t in 0..4 {
                let (memo, computed, start) = (&memo, &computed, &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..4 {
                        let key = (k + t) % 4;
                        let v = memo.get_or_init(format!("key{key}"), || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            key
                        });
                        assert_eq!(v, key);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 4);
        assert_eq!(memo.len(), 4);
    }

    /// A tiny cell for the report-store tests.
    fn store_cell() -> (TraceSpec, SimConfig) {
        (
            TraceSpec::rutgers().scaled(120, 800),
            SimConfig::quick(2, 400.0),
        )
    }

    #[test]
    fn a_repeated_cell_is_simulated_once_per_run() {
        let (spec, config) = store_cell();
        let ctx = ctx(1);
        let first = ctx.simulate(&spec, PolicyKind::L2s, &config);
        let again = ctx.clone().simulate(&spec, PolicyKind::L2s, &config);
        assert_eq!(first, again);
        assert_eq!(ctx.reports.len(), 1, "the second request must not simulate");
    }

    #[test]
    fn a_stored_report_equals_a_direct_simulation() {
        let (spec, config) = store_cell();
        for policy in [PolicyKind::L2s, PolicyKind::Traditional] {
            let stored = ctx(1).simulate(&spec, policy, &config);
            let direct = l2s_sim::simulate(&config, policy, &paper_trace(&spec));
            assert_eq!(stored, direct, "{}", policy.name());
        }
    }

    #[test]
    fn configs_differing_in_one_field_get_their_own_reports() {
        let (spec, config) = store_cell();
        let ctx = ctx(1);
        let base = ctx.simulate(&spec, PolicyKind::L2s, &config);
        let bigger = SimConfig {
            cache_kb: 2.0 * config.cache_kb,
            ..config.clone()
        };
        let other = ctx.simulate(&spec, PolicyKind::L2s, &bigger);
        assert_eq!(ctx.reports.len(), 2);
        assert_ne!(base, other, "a doubled cache must change the report");
        // The policy and the trace are part of the key too.
        ctx.simulate(&spec, PolicyKind::Lard, &config);
        ctx.simulate(&spec.scaled(120, 801), PolicyKind::L2s, &config);
        assert_eq!(ctx.reports.len(), 4);
    }

    #[test]
    fn cell_keys_see_every_bit_of_the_config() {
        let (spec, config) = store_cell();
        let key = |c: &SimConfig| cell_key(&spec, PolicyKind::L2s, c);
        let mut negative_zero = config.clone();
        negative_zero.costs.msg_ni_s = -0.0;
        let mut positive_zero = config.clone();
        positive_zero.costs.msg_ni_s = 0.0;
        assert_ne!(key(&negative_zero), key(&positive_zero));
        // Fault times are durations; one nanosecond apart is another cell.
        let mut early = config.clone();
        early.faults = l2s_sim::FaultPlan::crash_recover(1, 0.5, 1.0);
        let mut late = config.clone();
        late.faults = l2s_sim::FaultPlan::crash_recover(1, 0.5 + 1e-9, 1.0);
        assert_ne!(key(&early), key(&late));
        assert_eq!(key(&config), key(&config.clone()));
    }

    #[test]
    fn contexts_share_no_reports() {
        let (spec, config) = store_cell();
        let (a, b) = (ctx(1), ctx(1));
        let from_a = a.simulate(&spec, PolicyKind::L2s, &config);
        assert_eq!(b.reports.len(), 0, "a fresh context starts empty");
        let from_b = b.simulate(&spec, PolicyKind::L2s, &config);
        assert_eq!(b.reports.len(), 1, "b simulates the cell itself");
        assert_eq!(from_a, from_b);
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
