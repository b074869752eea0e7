//! Figure 3: model throughput of a locality-oblivious server over the
//! (hit rate, average file size) plane, 16 nodes, 128 MB memories.

use crate::RunCtx;
use l2s_model::{default_axes, throughput_surface, ModelParams, ServerKind};
use l2s_util::ascii::heat_map;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let (hits, sizes) = default_axes(25, 16);
    let base = ModelParams::default();
    let surface = throughput_surface(&base, ServerKind::LocalityOblivious, &hits, &sizes);

    let mut table = CsvTable::new(["hit_rate", "avg_size_kb", "throughput_rps"]);
    for (i, &h) in hits.iter().enumerate() {
        for (j, &s) in sizes.iter().enumerate() {
            // Invalid sweep points write an explicit `none` cell.
            table.row([
                format!("{h:.6}"),
                format!("{s:.6}"),
                surface.values[i][j].map_or_else(|| "none".to_string(), |v| format!("{v:.6}")),
            ]);
        }
    }

    let labels: Vec<String> = hits.iter().map(|h| format!("hit {h:.2}")).collect();
    println!(
        "{}",
        heat_map(
            "Figure 3: locality-oblivious throughput (reqs/s), rows = hit rate, cols = 4..128 KB",
            &surface.values_or_nan(),
            &labels,
            "avg file size (4 KB left .. 128 KB right)",
        )
    );
    let (peak, at_hit, at_size) = surface.peak();
    println!("peak throughput: {peak:.0} reqs/s at hit rate {at_hit:.2}, {at_size:.0} KB files");
    println!("(paper: ~2.5e4 reqs/s, significant only above ~80% hit rate and below ~64 KB)");
    ctx.write_csv("fig03_oblivious_surface", &table)
}
