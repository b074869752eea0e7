//! Fault tolerance (X6): node crashes and failover. The paper evaluates
//! its servers on an always-healthy cluster; this experiment extends the
//! comparison to the failure behavior any production front-end cluster
//! actually faces. Two of eight nodes crash partway through the measured
//! run and reboot (cold) later, and every request stranded on a dead
//! node is retried once through the router after a client timeout.
//!
//! For each Table 2 trace and each of the three servers the CSV reports
//! overall throughput under faults, per-phase throughput (healthy /
//! degraded / recovered), the healthy-run baseline, retry and loss
//! counts, and the fraction of node capacity lost to downtime. The
//! locality-conscious servers carry state that dies with a node — L2S
//! server sets shrink and rebuild, LARD's front-end mapping re-forms —
//! so their degraded and recovered phases show the cost of re-learning
//! locality, while the traditional server only loses raw capacity.

use crate::{paper_config, run_cells_parallel, RunCtx, PAPER_POLICIES};
use l2s::PolicyKind;
use l2s_sim::{FaultPlan, SimReport};
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Cluster size for the fault study (Table 2's mid-size point).
const NODES: usize = 8;
/// The two victims. Node 0 is never crashed, so LARD's front-end — a
/// single point of failure the paper's architecture accepts — survives
/// and the three servers face the same capacity loss.
const VICTIMS: [usize; 2] = [2, 5];
/// The modern dispatchers ride along after the paper's three servers.
/// They reuse the plans derived from the paper trio's healthy runs, so
/// the rows for the original policies stay byte-identical to the
/// pre-zoo CSV and merely gain a suffix.
const EXTRA_POLICIES: [PolicyKind; 3] = [PolicyKind::Jsq, PolicyKind::Jiq, PolicyKind::Sita];

/// The fault schedule for one trace, sized to the shortest healthy
/// elapsed time across the three servers so every faulted run passes
/// through all three phases: both victims die around a third of the way
/// in and reboot around two thirds.
fn plan_for(min_elapsed_s: f64) -> FaultPlan {
    let e = min_elapsed_s;
    FaultPlan::crash_recover(VICTIMS[0], 0.30 * e, 0.60 * e).merged(FaultPlan::crash_recover(
        VICTIMS[1],
        0.35 * e,
        0.65 * e,
    ))
}

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let specs = TraceSpec::paper_presets();
    let policies = PAPER_POLICIES;

    // Stage 1: healthy baselines — one cell per (trace, policy), all in
    // parallel. The plans derived from them depend only on index-ordered
    // results, so the whole experiment is worker-count independent. The
    // paper trio forms the first block of cells and the modern
    // dispatchers a second block, so the CSV keeps the original rows as
    // an unchanged prefix.
    let cells: Vec<(usize, PolicyKind)> = (0..specs.len())
        .flat_map(|s| policies.iter().map(move |&p| (s, p)))
        .chain((0..specs.len()).flat_map(|s| EXTRA_POLICIES.iter().map(move |&p| (s, p))))
        .collect();
    let healthy: Vec<SimReport> = run_cells_parallel(ctx, cells.len(), |i| {
        let (s, kind) = cells[i];
        ctx.simulate(&specs[s], kind, &paper_config(ctx, NODES))
    });

    // Per-trace fault plans from the healthy elapsed times of the paper
    // trio only — the plans (and so the original rows) are identical
    // with and without the modern dispatchers in the matrix.
    let plans: Vec<FaultPlan> = (0..specs.len())
        .map(|s| {
            let e_min = healthy
                .iter()
                .zip(&cells)
                .filter(|(_, &(cs, p))| cs == s && policies.contains(&p))
                .map(|(r, _)| r.elapsed.as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            let plan = plan_for(e_min);
            plan.validate(NODES).map(|()| plan)
        })
        .collect::<Result<_, _>>()?;

    // Stage 2: the same matrix under faults.
    let faulted: Vec<SimReport> = run_cells_parallel(ctx, cells.len(), |i| {
        let (s, kind) = cells[i];
        let mut cfg = paper_config(ctx, NODES);
        cfg.faults = plans[s].clone();
        ctx.simulate(&specs[s], kind, &cfg)
    });

    let mut table = CsvTable::new([
        "trace",
        "policy",
        "healthy_baseline_rps",
        "faulted_rps",
        "healthy_phase_rps",
        "degraded_phase_rps",
        "recovered_phase_rps",
        "failed",
        "retried",
        "unavailability",
    ]);
    for (i, &(s, kind)) in cells.iter().enumerate() {
        let (base, fr) = (&healthy[i], &faulted[i]);
        // A new table whenever the trace changes — including the wrap
        // from the paper trio's last trace back to the modern
        // dispatchers' first.
        if i == 0 || cells[i - 1].0 != s {
            println!(
                "\n{} trace, {NODES} nodes, {} of {NODES} crash then reboot:",
                specs[s].name,
                VICTIMS.len()
            );
            println!(
                "{:>14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}",
                "policy",
                "healthy",
                "faulted",
                "degrade",
                "recover",
                "unavail",
                "retried",
                "failed"
            );
        }
        println!(
            "{:>14} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>8.2}% {:>7} {:>7}",
            kind.name(),
            base.throughput_rps,
            fr.throughput_rps,
            fr.phase_rps[1],
            fr.phase_rps[2],
            fr.unavailability * 100.0,
            fr.retried,
            fr.failed
        );
        table.row([
            specs[s].name.to_string(),
            kind.name().to_string(),
            format!("{:.1}", base.throughput_rps),
            format!("{:.1}", fr.throughput_rps),
            format!("{:.1}", fr.phase_rps[0]),
            format!("{:.1}", fr.phase_rps[1]),
            format!("{:.1}", fr.phase_rps[2]),
            fr.failed.to_string(),
            fr.retried.to_string(),
            format!("{:.5}", fr.unavailability),
        ]);
    }

    println!(
        "\n(the degraded column is throughput while 2 of {NODES} nodes are down; recovered is \
         after both\n reboot with cold caches — the locality-conscious servers must re-learn \
         placement there,\n the traditional server only regains capacity)"
    );
    ctx.write_csv("exp_faults", &table)
}
