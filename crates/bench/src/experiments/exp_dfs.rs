//! Substrate ablation: the distributed file system. The paper's cluster
//! (Section 2) shares all disks through a DFS but charges misses a
//! single local-disk rate `µd`; this experiment compares that local-read
//! assumption against an explicit remote-home DFS where a miss fetches
//! the file from its home node's disk across the network.
//!
//! Locality-conscious servers are barely affected (their miss rates are
//! tiny, and a file's server set gravitates to wherever it was first
//! requested, not its disk home), while the traditional server — paying
//! the DFS on every one of its many misses — loses noticeably.

use crate::{paper_config, run_cells_parallel, RunCtx};
use l2s::PolicyKind;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let spec = TraceSpec::rutgers();
    let mut table = CsvTable::new(["policy", "nodes", "dfs", "throughput_rps", "miss_rate"]);

    // 18 cells (nodes × policy × dfs mode) simulated in parallel over the
    // one shared trace (the local-disk half are Figure 10's cells); printing walks the index-ordered results so the
    // output matches the sequential nesting exactly.
    let node_counts = [4usize, 8, 16];
    let policies = [PolicyKind::Traditional, PolicyKind::Lard, PolicyKind::L2s];
    let cells: Vec<(usize, PolicyKind, bool)> = node_counts
        .iter()
        .flat_map(|&n| {
            policies.iter().flat_map(move |&kind| {
                [false, true]
                    .into_iter()
                    .map(move |remote| (n, kind, remote))
            })
        })
        .collect();
    let reports = run_cells_parallel(ctx, cells.len(), |i| {
        let (nodes, kind, remote) = cells[i];
        let mut cfg = paper_config(ctx, nodes);
        cfg.dfs_remote = remote;
        ctx.simulate(&spec, kind, &cfg)
    });

    // Each consecutive pair of cells is one (nodes, policy) row: local
    // mode then remote mode.
    for (row, pair) in reports.chunks(2).enumerate() {
        let (nodes, kind, _) = cells[row * 2];
        if row % policies.len() == 0 {
            println!("\n{} trace, {nodes} nodes — throughput (r/s):", spec.name);
            println!(
                "{:>14} {:>12} {:>12} {:>8}",
                "policy", "local disk", "remote DFS", "loss"
            );
        }
        let (lr, rr) = (&pair[0], &pair[1]);
        println!(
            "{:>14} {:>12.0} {:>12.0} {:>7.1}%",
            kind.name(),
            lr.throughput_rps,
            rr.throughput_rps,
            (1.0 - rr.throughput_rps / lr.throughput_rps) * 100.0
        );
        for (mode, r) in [("local", lr), ("remote", rr)] {
            table.row([
                kind.name().to_string(),
                nodes.to_string(),
                mode.to_string(),
                format!("{:.1}", r.throughput_rps),
                format!("{:.5}", r.miss_rate),
            ]);
        }
    }

    println!(
        "\n(the paper's single-µd charge is a good approximation precisely for the \
         locality-conscious\n servers it advocates; the traditional server's miss volume \
         makes the DFS boundary visible)"
    );
    ctx.write_csv("exp_dfs", &table)
}
