//! Regenerates the paper's tables and figures in one process, sharing
//! the memoized traces and simulated cells across experiments
//! (`run_experiments.sh` invokes this). `--only <name>` (repeatable) runs just the named experiments.
//!
//! The run context comes from the environment, read here and nowhere
//! else (see `RunCtx::from_vars`): `L2S_WORKERS`, `L2S_BENCH_CAP`,
//! `L2S_BENCH_FULL=1` for full fidelity, and `L2S_RESULTS_DIR`.
//!
//! A full run (no `--only`) writes its wall-clock accounting to
//! `BENCH_suite.json` (override the path with `L2S_SUITE_JSON`):
//! worker/core counts, total and per-experiment wall-clock, and the
//! speedup against the recorded 1-worker baseline. A run with
//! `L2S_WORKERS=1` records itself as that baseline; later parallel runs
//! carry it over and report `speedup_vs_1worker` against it. Timing is
//! measurement *about* the suite — every figure's content is
//! byte-identical for any worker count.

use l2s_bench::{experiments, perf, RunCtx, SuiteTiming};

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full_suite = args.is_empty();
    let selected = experiments::select(args)?;
    let ctx = RunCtx::from_vars(|key| std::env::var_os(key));
    let timing = l2s_bench::run_all_figures_timed(&ctx, &selected)?;
    if full_suite {
        write_suite_json(&ctx, &timing)?;
    }
    Ok(())
}

/// Prints the suite summary and writes `BENCH_suite.json`.
fn write_suite_json(ctx: &RunCtx, timing: &SuiteTiming) -> Result<(), String> {
    let cores = l2s_util::pool::available_workers();
    let path: std::path::PathBuf = std::env::var_os("L2S_SUITE_JSON")
        .map(Into::into)
        .unwrap_or_else(|| "BENCH_suite.json".into());
    let old = std::fs::read_to_string(&path).ok();
    // A 1-worker run defines the sequential baseline; a parallel run
    // compares against the last recorded one (itself, if none exists yet
    // — speedup then reads 1.0 rather than inventing a baseline).
    let baseline_wall_s = if ctx.workers == 1 {
        timing.wall_s
    } else {
        old.as_deref()
            .and_then(|j| perf::extract_json_num(j, "baseline_wall_s_1worker"))
            .unwrap_or(timing.wall_s)
    };
    println!(
        "suite: {} experiments in {:.2}s with {} worker(s) on {cores} core(s); \
         {:.2}x vs the 1-worker baseline of {baseline_wall_s:.2}s",
        timing.per_experiment.len(),
        timing.wall_s,
        ctx.workers,
        baseline_wall_s / timing.wall_s.max(1e-9),
    );
    perf::write_record(&path, &timing.record(ctx, cores, baseline_wall_s))
}
