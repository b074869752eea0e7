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

use crate::{paper_config, paper_trace, sweep, RunCtx, PAPER_NODE_COUNTS};
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
        let trace = paper_trace(&spec);
        let cells = sweep(ctx, &trace, &PAPER_NODE_COUNTS, &policies, |n| {
            paper_config(ctx, n)
        });
        println!("\n{} trace — throughput (requests/s):", spec.name);
        println!(
            "{:>6} {:>10} {:>11} {:>16} {:>10}",
            "nodes", "lard", "lard-basic", "lard-dispatcher", "l2s"
        );
        for &n in &PAPER_NODE_COUNTS {
            let get = |p: PolicyKind| {
                cells
                    .iter()
                    .find(|c| c.nodes == n && c.policy == p)
                    .map(|c| (c.report.throughput_rps, c.report.miss_rate))
                    .unwrap_or((f64::NAN, f64::NAN))
            };
            let rows: Vec<(PolicyKind, (f64, f64))> =
                policies.iter().map(|&p| (p, get(p))).collect();
            println!(
                "{n:>6} {:>10.0} {:>11.0} {:>16.0} {:>10.0}",
                rows[0].1 .0, rows[1].1 .0, rows[2].1 .0, rows[3].1 .0
            );
            for (p, (thr, miss)) in rows {
                table.row([
                    spec.name.clone(),
                    n.to_string(),
                    p.name().to_string(),
                    format!("{thr:.1}"),
                    format!("{miss:.5}"),
                ]);
            }
        }
    }
    let path = ctx.out.join("exp_lard_variants.csv");
    table
        .write_to(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\n(expected: lard-basic <= lard (replication helps hot files); lard-dispatcher \
         breaks the ~4k r/s\n front-end ceiling but keeps a wasted node and per-request \
         round trip; l2s stays on top)"
    );
    println!("CSV: {}", path.display());
    Ok(())
}
