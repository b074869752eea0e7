//! Ablation: the LARD family against L2S. Compares
//!
//! * **lard** — LARD/R with the dedicated front-end (the paper's
//!   comparison target),
//! * **lard-basic** — LARD without replication (overload *moves* a
//!   file's server; Pai et al.'s simpler algorithm),
//! * **lard-dispatcher** — the improved organization of Aron et al.
//!   (USENIX 2000) discussed in the paper's Section 6: connections are
//!   accepted by every serving node, which queries a dedicated
//!   dispatcher (two-way message) and hands off itself,
//! * **l2s** — the paper's fully distributed design.
//!
//! Expected shape (Section 6): the dispatcher organization pushes the
//! saturation point well past the classic front-end, but still wastes a
//! node, still has a central point of failure, and pays a two-way
//! message per request — L2S should match or beat it.

use crate::{cell, paper_config, sweep, RunCtx, PAPER_NODE_COUNTS};
use l2s::PolicyKind;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let policies = [
        PolicyKind::Lard,
        PolicyKind::LardBasic,
        PolicyKind::LardDispatcher,
        PolicyKind::L2s,
    ];
    let mut table = CsvTable::new(["trace", "nodes", "policy", "throughput_rps", "miss_rate"]);
    for spec in [TraceSpec::calgary(), TraceSpec::clarknet()] {
        let cells = sweep(ctx, &spec, &PAPER_NODE_COUNTS, &policies, |n| {
            paper_config(ctx, n)
        });
        println!("\n{} trace — throughput (requests/s):", spec.name);
        println!(
            "{:>6} {:>10} {:>11} {:>16} {:>10}",
            "nodes", "lard", "lard-basic", "lard-dispatcher", "l2s"
        );
        for &n in &PAPER_NODE_COUNTS {
            let rows = policies
                .iter()
                .map(|&p| cell(&cells, &spec.name, n, p))
                .collect::<Result<Vec<_>, _>>()?;
            println!(
                "{n:>6} {:>10.0} {:>11.0} {:>16.0} {:>10.0}",
                rows[0].report.throughput_rps,
                rows[1].report.throughput_rps,
                rows[2].report.throughput_rps,
                rows[3].report.throughput_rps
            );
            for c in rows {
                table.row([
                    spec.name.clone(),
                    n.to_string(),
                    c.policy.name().to_string(),
                    format!("{:.1}", c.report.throughput_rps),
                    format!("{:.5}", c.report.miss_rate),
                ]);
            }
        }
    }
    println!(
        "\n(expected: lard-basic <= lard (replication helps hot files); lard-dispatcher \
         breaks the ~4k r/s\n front-end ceiling but keeps a wasted node and per-request \
         round trip; l2s stays on top)"
    );
    ctx.write_csv("exp_lard_variants", &table)
}
