//! Section 5.2 memory study (simulation): growing the caches from 32 MB
//! to 128 MB helps the traditional server tremendously (its hit rate is
//! the direct beneficiary), barely moves LARD and L2S (their miss rates
//! are already low), and never lifts LARD past its front-end ceiling —
//! so traditional can overtake LARD at large memories and cluster sizes.

use crate::{cell, paper_config, sweep, RunCtx, PAPER_POLICIES};
use l2s::PolicyKind;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let node_counts = [4usize, 8, 16];
    let caches_mb = [32.0, 64.0, 128.0];
    let mut table = CsvTable::new(["trace", "cache_mb", "nodes", "policy", "throughput_rps"]);

    for spec in [TraceSpec::calgary(), TraceSpec::rutgers()] {
        for &cache_mb in &caches_mb {
            let cells = sweep(ctx, &spec, &node_counts, &PAPER_POLICIES, |n| {
                let mut cfg = paper_config(ctx, n);
                cfg.cache_kb = cache_mb * 1024.0;
                cfg
            });
            println!(
                "\n{} trace, {cache_mb:.0} MB caches — throughput (r/s):",
                spec.name
            );
            println!(
                "{:>6} {:>10} {:>10} {:>12}",
                "nodes", "l2s", "lard", "traditional"
            );
            for &n in &node_counts {
                let get =
                    |p: PolicyKind| cell(&cells, &spec.name, n, p).map(|c| c.report.throughput_rps);
                let (l2s, lard, trad) = (
                    get(PolicyKind::L2s)?,
                    get(PolicyKind::Lard)?,
                    get(PolicyKind::Traditional)?,
                );
                println!("{n:>6} {l2s:>10.0} {lard:>10.0} {trad:>12.0}");
                for (p, v) in [
                    (PolicyKind::L2s, l2s),
                    (PolicyKind::Lard, lard),
                    (PolicyKind::Traditional, trad),
                ] {
                    table.row([
                        spec.name.clone(),
                        format!("{cache_mb:.0}"),
                        n.to_string(),
                        p.name().to_string(),
                        format!("{v:.1}"),
                    ]);
                }
            }
        }
    }

    println!(
        "\n(paper: larger memories lift the traditional server dramatically, LARD and \
         L2S only slightly;\n LARD's ~5000 r/s front-end ceiling is memory-independent, \
         letting traditional overtake it\n at 128 MB and >= 8 nodes on some traces)"
    );
    ctx.write_csv("exp_memory_sim", &table)
}
