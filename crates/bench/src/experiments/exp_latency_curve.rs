//! Open-loop validation and an open-loop finding.
//!
//! **Part 1 — engine vs model.** The traditional server under Poisson
//! arrivals is a textbook open network: we calibrate the model's hit
//! rate to the simulator's measured miss rate and compare mean response
//! times across offered loads. The simulator's service times are
//! deterministic (M/D/1-ish), so its queueing delay should sit at or
//! below the exponential model's, diverging at the same asymptote.
//!
//! **Part 2 — L2S under open loop.** The paper evaluates throughput in
//! a closed loop ("inject as fast as the buffers accept"). Open-loop
//! L2S exposes a fragility that methodology never probes: a transient
//! burst pushes nodes past `T`, threshold replication balloons the
//! server sets, duplicated caches push the miss rate toward the
//! locality-oblivious regime, capacity falls below the offered rate,
//! and the collapse locks in. With admission control (the closed loop)
//! the same configuration sustains more than twice the load.

use crate::{paper_trace, run_cells_parallel, RunCtx};
use l2s::PolicyKind;
use l2s_model::{Derived, ModelParams, QueueModel};
use l2s_sim::{ArrivalMode, SimConfig};
use l2s_trace::{TraceSpec, TraceStats};
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let spec = TraceSpec::calgary();
    let stats = TraceStats::compute(&paper_trace(&spec));
    let nodes = 8;

    // Calibrate: measure both servers' closed-loop behavior (traditional
    // for the model's hit rate, L2S for Part 2's capacity reference) —
    // two independent simulations, run in parallel.
    let mut closed = SimConfig::paper_default(nodes);
    closed.max_requests = Some(100_000);
    let calibration = run_cells_parallel(ctx, 2, |i| {
        let kind = [PolicyKind::Traditional, PolicyKind::L2s][i];
        ctx.simulate(&spec, kind, &closed)
    });
    let (baseline, l2s_closed) = (&calibration[0], &calibration[1]);
    let derived = Derived {
        hit_rate: 1.0 - baseline.miss_rate,
        replicated_hit: 0.0,
        forward_fraction: 0.0,
    };
    let params = ModelParams {
        nodes,
        avg_file_kb: stats.avg_request_kb,
        ..ModelParams::default()
    };
    let model = QueueModel::new(params)?;
    let bound = model.max_throughput_derived(&derived);
    println!(
        "Part 1: traditional server, {nodes} nodes, hit rate calibrated to {:.1}%",
        derived.hit_rate * 100.0
    );
    println!(
        "model bound {bound:.0} r/s, closed-loop simulated capacity {:.0} r/s\n",
        baseline.throughput_rps
    );
    println!(
        "{:>10} {:>12} {:>16} {:>16}",
        "load", "rate (r/s)", "sim mean (ms)", "model mean (ms)"
    );

    let mut table = CsvTable::new(["server", "load_fraction", "rate_rps", "sim_ms", "model_ms"]);
    let part1_loads = [0.2, 0.4, 0.6, 0.8, 0.9];
    let part1 = run_cells_parallel(ctx, part1_loads.len(), |i| {
        let mut cfg = SimConfig::paper_default(nodes);
        cfg.arrivals = ArrivalMode::Poisson {
            rate_rps: bound * part1_loads[i],
        };
        cfg.max_requests = Some(80_000);
        ctx.simulate(&spec, PolicyKind::Traditional, &cfg)
    });
    for (load, report) in part1_loads.into_iter().zip(&part1) {
        let rate = bound * load;
        let model_ms = model
            .solve_derived(&derived, rate)
            .ok_or_else(|| format!("the model has no solution at {rate:.0} r/s"))?
            .response_s
            * 1e3;
        let sim_ms = report.mean_response_s * 1e3;
        println!("{load:>10.1} {rate:>12.0} {sim_ms:>16.2} {model_ms:>16.2}");
        table.row([
            "traditional".into(),
            format!("{load:.2}"),
            format!("{rate:.1}"),
            format!("{sim_ms:.3}"),
            format!("{model_ms:.3}"),
        ]);
    }

    // Part 2: L2S open-loop stability sweep against its closed-loop
    // capacity (measured during calibration above).
    println!(
        "\nPart 2: L2S under open loop ({} r/s closed-loop capacity at {nodes} nodes)",
        l2s_closed.throughput_rps.round()
    );
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>10}",
        "load", "rate (r/s)", "thr (r/s)", "mean resp", "miss"
    );
    let part2_loads = [0.2, 0.4, 0.6, 0.8];
    let part2 = run_cells_parallel(ctx, part2_loads.len(), |i| {
        let mut cfg = SimConfig::paper_default(nodes);
        cfg.arrivals = ArrivalMode::Poisson {
            rate_rps: l2s_closed.throughput_rps * part2_loads[i],
        };
        cfg.max_requests = Some(80_000);
        ctx.simulate(&spec, PolicyKind::L2s, &cfg)
    });
    for (load, report) in part2_loads.into_iter().zip(&part2) {
        let rate = l2s_closed.throughput_rps * load;
        let stable = report.mean_response_s < 0.5;
        println!(
            "{load:>10.1} {rate:>12.0} {:>12.0} {:>11.1} ms {:>9.1}%{}",
            report.throughput_rps,
            report.mean_response_s * 1e3,
            report.miss_rate * 100.0,
            if stable { "" } else { "   <- collapsed" }
        );
        table.row([
            "l2s".into(),
            format!("{load:.2}"),
            format!("{rate:.1}"),
            format!("{:.3}", report.mean_response_s * 1e3),
            String::new(),
        ]);
    }

    println!(
        "\n(Part 1 expected: simulated and modeled curves grow convexly together, sim at \
         or below the\n exponential model. Part 2 expected: L2S tracks offered load at \
         low rates, then collapses via\n the replication-overload feedback loop well \
         below its closed-loop capacity — threshold-based\n replication needs admission \
         control, a finding the paper's closed-loop methodology cannot see.)"
    );
    ctx.write_csv("exp_latency_curve", &table)
}
