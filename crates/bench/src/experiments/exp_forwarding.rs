//! Section 5.2 forwarding study: the fraction of requests handed off
//! between nodes. LARD forwards 100 % by construction; the paper reports
//! L2S forwarding at least ~15 % fewer requests up to 4 nodes and ~8–25 %
//! fewer at 16 nodes depending on the trace.

use crate::{paper_config, paper_trace, sweep, RunCtx, PAPER_NODE_COUNTS};
use l2s::PolicyKind;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let policies = [PolicyKind::L2s, PolicyKind::Lard];
    let mut table = CsvTable::new(["trace", "nodes", "policy", "forwarded_fraction"]);
    for spec in TraceSpec::paper_presets() {
        let trace = paper_trace(&spec);
        let cells = sweep(ctx, &trace, &PAPER_NODE_COUNTS, &policies, |n| {
            paper_config(ctx, n)
        });
        println!("\n{} trace — forwarded requests (%):", spec.name);
        println!(
            "{:>6} {:>10} {:>10} {:>12}",
            "nodes", "l2s", "lard", "l2s saves"
        );
        for &n in &PAPER_NODE_COUNTS {
            let get = |p: PolicyKind| {
                cells
                    .iter()
                    .find(|c| c.nodes == n && c.policy == p)
                    .map(|c| c.report.forwarded_fraction)
                    .unwrap_or(f64::NAN)
            };
            let (l2s, lard) = (get(PolicyKind::L2s), get(PolicyKind::Lard));
            println!(
                "{n:>6} {:>9.1}% {:>9.1}% {:>11.1}%",
                l2s * 100.0,
                lard * 100.0,
                (lard - l2s) * 100.0
            );
            for (p, v) in [(PolicyKind::L2s, l2s), (PolicyKind::Lard, lard)] {
                table.row([
                    spec.name.clone(),
                    n.to_string(),
                    p.name().to_string(),
                    format!("{v:.5}"),
                ]);
            }
        }
    }
    let path = ctx.out.join("exp_forwarding.csv");
    table
        .write_to(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\n(paper: LARD forwards 100%; L2S forwards >=15% fewer up to 4 nodes and \
         ~8-25% fewer at 16 nodes)"
    );
    println!("CSV: {}", path.display());
    Ok(())
}
