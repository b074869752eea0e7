//! Extension study: persistent (HTTP/1.1-style) connections, which the
//! paper's Section 4 says its algorithms handle "by slightly modifying"
//! them. Sweeps the mean connection length for L2S and LARD.
//!
//! The adaptation follows Aron et al. (USENIX '99): a continuation
//! request is served by the connection's current holder when the holder
//! belongs to the file's server set (and, for L2S, is not overloaded);
//! otherwise the normal algorithm runs and the connection migrates with
//! the hand-off. The headline effect is LARD's: continuation requests
//! never visit the front-end, so persistent connections dissolve its
//! per-request bottleneck — while the already-decentralized L2S is
//! essentially insensitive.

use crate::{paper_config, run_cells_parallel, RunCtx};
use l2s::PolicyKind;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let spec = TraceSpec::clarknet();
    let nodes = 16;
    let mut table = CsvTable::new([
        "policy",
        "mean_conn_len",
        "throughput_rps",
        "forwarded_fraction",
        "miss_rate",
    ]);

    // 10 cells (policy × mean connection length) simulated in parallel;
    // index-ordered results keep the printed tables byte-identical.
    let means = [1.0, 2.0, 4.0, 8.0, 16.0];
    let cells: Vec<(PolicyKind, f64)> = [PolicyKind::L2s, PolicyKind::Lard]
        .into_iter()
        .flat_map(|kind| means.into_iter().map(move |mean| (kind, mean)))
        .collect();
    let reports = run_cells_parallel(ctx, cells.len(), |i| {
        let (kind, mean) = cells[i];
        let mut cfg = paper_config(ctx, nodes);
        cfg.persistent_mean = mean;
        ctx.simulate(&spec, kind, &cfg)
    });

    for ((kind, mean), r) in cells.iter().zip(&reports) {
        if (*mean - means[0]).abs() < f64::EPSILON {
            println!(
                "\n{} on the {} trace, {nodes} nodes:",
                kind.name(),
                spec.name
            );
            println!(
                "{:>14} {:>12} {:>11} {:>10}",
                "conn length", "throughput", "forwarded", "miss"
            );
        }
        println!(
            "{mean:>14.0} {:>8.0} r/s {:>10.1}% {:>9.1}%",
            r.throughput_rps,
            r.forwarded_fraction * 100.0,
            r.miss_rate * 100.0
        );
        table.row([
            kind.name().to_string(),
            format!("{mean:.0}"),
            format!("{:.1}", r.throughput_rps),
            format!("{:.5}", r.forwarded_fraction),
            format!("{:.5}", r.miss_rate),
        ]);
    }

    println!(
        "\n(expected: LARD's throughput climbs steeply with connection length as its \
         front-end ceiling\n dissolves — the Aron et al. P-HTTP result — while L2S, \
         already front-end-free, barely moves\n and stays on top)"
    );
    ctx.write_csv("exp_persistent", &table)
}
