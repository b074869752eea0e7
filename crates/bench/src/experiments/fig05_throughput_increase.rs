//! Figures 5 and 6: the throughput increase due to locality — the ratio
//! of the Figure 4 surface to the Figure 3 surface, plus its side view
//! (per-hit-rate maximum over file sizes).

use crate::RunCtx;
use l2s_model::{default_axes, throughput_increase_surface, ModelParams};
use l2s_util::ascii::{heat_map, line_chart, Series};
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let (hits, sizes) = default_axes(25, 16);
    let base = ModelParams::default();
    let ratio = throughput_increase_surface(&base, &hits, &sizes);

    let mut table = CsvTable::new(["hit_rate", "avg_size_kb", "throughput_increase"]);
    for (i, &h) in hits.iter().enumerate() {
        for (j, &s) in sizes.iter().enumerate() {
            // Invalid sweep points write an explicit `none` cell.
            table.row([
                format!("{h:.6}"),
                format!("{s:.6}"),
                ratio.values[i][j].map_or_else(|| "none".to_string(), |v| format!("{v:.6}")),
            ]);
        }
    }
    ctx.write_csv("fig05_throughput_increase", &table)?;

    let labels: Vec<String> = hits.iter().map(|h| format!("hit {h:.2}")).collect();
    println!(
        "{}",
        heat_map(
            "Figure 5: throughput increase due to locality (ratio), rows = hit rate",
            &ratio.values_or_nan(),
            &labels,
            "avg file size (4 KB left .. 128 KB right)",
        )
    );

    // Figure 6 = the side view: max ratio per hit rate.
    let side: Vec<(f64, f64)> = hits
        .iter()
        .zip(ratio.row_max())
        .map(|(&h, m)| (h, m))
        .collect();
    let mut side_table = CsvTable::new(["hit_rate", "max_throughput_increase"]);
    for &(h, m) in &side {
        side_table.row_f64([h, m]);
    }
    ctx.write_csv("fig06_increase_side_view", &side_table)?;
    println!(
        "{}",
        line_chart(
            "Figure 6 (side view): max throughput increase vs hit rate",
            &[Series::new("max ratio", side)],
            64,
            18,
        )
    );

    let (peak, at_hit, at_size) = ratio.peak();
    println!("peak increase: {peak:.2}x at hit rate {at_hit:.2}, {at_size:.0} KB files");
    let last_row = ratio.values.last().ok_or("ratio surface is empty")?;
    let min_at_full_hit = last_row
        .iter()
        .copied()
        .flatten()
        .fold(f64::INFINITY, f64::min);
    println!("at 100% hit rate the ratio dips to {min_at_full_hit:.2} (forwarding overhead)");
    println!("(paper: up to ~7x, growing with hit rate, collapsing past ~80%, <1 near full hit)");
    Ok(())
}
