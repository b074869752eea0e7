//! Table 2: characteristics of the four WWW traces — the paper's values
//! next to what the synthetic generator actually produces.

use crate::{paper_trace, run_cells_parallel, trace_seed, RunCtx};
use l2s_trace::{TraceSpec, TraceStats};
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let mut table = CsvTable::new([
        "trace",
        "num_files",
        "avg_file_kb_paper",
        "avg_file_kb_generated",
        "num_requests",
        "avg_req_kb_paper",
        "avg_req_kb_generated",
        "alpha_paper",
        "alpha_estimated",
        "working_set_mb",
    ]);

    println!("Table 2: WWW server trace characteristics (paper target -> generated)");
    println!(
        "{:>9} {:>9} {:>10} {:>12} {:>11} {:>11} {:>13} {:>7} {:>9} {:>8}",
        "trace",
        "files",
        "avgfileKB",
        "(generated)",
        "requests",
        "avgreqKB",
        "(generated)",
        "alpha",
        "(est.)",
        "ws MB"
    );
    // Generate all four traces (and their statistics) in parallel; the
    // per-spec memo in `paper_trace` lets distinct specs build
    // concurrently, and index-ordering keeps the table rows in preset
    // order.
    let specs = TraceSpec::paper_presets();
    let all_stats = run_cells_parallel(ctx, specs.len(), |i| {
        TraceStats::compute(&paper_trace(&specs[i]))
    });
    for (spec, stats) in specs.iter().zip(&all_stats) {
        println!(
            "{:>9} {:>9} {:>10.1} {:>12.1} {:>11} {:>11.1} {:>13.1} {:>7.2} {:>9.2} {:>8.0}",
            spec.name,
            stats.num_files,
            spec.avg_file_kb,
            stats.avg_file_kb,
            stats.num_requests,
            spec.avg_request_kb,
            stats.avg_request_kb,
            spec.alpha,
            stats.alpha,
            stats.working_set_kb / 1024.0
        );
        table.row([
            spec.name.clone(),
            stats.num_files.to_string(),
            format!("{:.1}", spec.avg_file_kb),
            format!("{:.1}", stats.avg_file_kb),
            stats.num_requests.to_string(),
            format!("{:.1}", spec.avg_request_kb),
            format!("{:.1}", stats.avg_request_kb),
            format!("{:.2}", spec.alpha),
            format!("{:.2}", stats.alpha),
            format!("{:.0}", stats.working_set_kb / 1024.0),
        ]);
        let _ = trace_seed(spec);
    }

    println!(
        "\n(paper Table 2: Calgary 8397/42.9/567895/19.7/1.08, Clarknet \
         35885/11.6/3053525/11.9/0.78,\n NASA 5500/53.7/3147719/47.0/0.91, \
         Rutgers 24098/30.5/535021/26.2/0.79;\n working sets 288-717 MB)"
    );
    ctx.write_csv("table2_traces", &table)
}
