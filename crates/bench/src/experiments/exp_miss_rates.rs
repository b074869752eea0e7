//! Section 5.2 miss-rate study: aggregate cache miss rates per system
//! and cluster size for all four traces. The paper observes L2S with the
//! lowest miss rates at small clusters, with LARD catching up (or edging
//! ahead) at 16 nodes as its wasted front-end cache becomes a smaller
//! fraction of the total.

use crate::{paper_config, paper_trace, sweep, RunCtx, PAPER_NODE_COUNTS, PAPER_POLICIES};
use l2s::PolicyKind;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let mut table = CsvTable::new(["trace", "nodes", "policy", "miss_rate"]);
    for spec in TraceSpec::paper_presets() {
        let trace = paper_trace(&spec);
        let cells = sweep(ctx, &trace, &PAPER_NODE_COUNTS, &PAPER_POLICIES, |n| {
            paper_config(ctx, n)
        });
        println!("\n{} trace — cache miss rate (%):", spec.name);
        println!(
            "{:>6} {:>10} {:>10} {:>12}",
            "nodes", "l2s", "lard", "traditional"
        );
        for &n in &PAPER_NODE_COUNTS {
            let get = |p: PolicyKind| {
                cells
                    .iter()
                    .find(|c| c.nodes == n && c.policy == p)
                    .map(|c| c.report.miss_rate)
                    .unwrap_or(f64::NAN)
            };
            let (l2s, lard, trad) = (
                get(PolicyKind::L2s),
                get(PolicyKind::Lard),
                get(PolicyKind::Traditional),
            );
            println!(
                "{n:>6} {:>9.1}% {:>9.1}% {:>11.1}%",
                l2s * 100.0,
                lard * 100.0,
                trad * 100.0
            );
            for (p, v) in [
                (PolicyKind::L2s, l2s),
                (PolicyKind::Lard, lard),
                (PolicyKind::Traditional, trad),
            ] {
                table.row([
                    spec.name.clone(),
                    n.to_string(),
                    p.name().to_string(),
                    format!("{v:.5}"),
                ]);
            }
        }
    }
    let path = ctx.out.join("exp_miss_rates.csv");
    table
        .write_to(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\n(paper: traditional stays at its single-cache miss rate regardless of \
         cluster size;\n L2S lowest at few nodes; LARD comparable or slightly lower \
         than L2S at 16 nodes)"
    );
    println!("CSV: {}", path.display());
    Ok(())
}
