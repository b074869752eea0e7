//! Section 3.2 replication study: a small replicated fraction (the
//! paper settles on 15 %) cuts the forwarded fraction `Q` sharply while
//! giving up little aggregate cache capacity.

use crate::{run_cells_parallel, RunCtx};
use l2s_model::{Derived, ModelParams, QueueModel, ServerKind};
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let replications = [0.0, 0.05, 0.10, 0.15, 0.25, 0.50, 1.0];
    let hlos = [0.3, 0.6, 0.8];
    let mut table = CsvTable::new([
        "replication",
        "hlo",
        "hit_rate",
        "replicated_hit",
        "forward_fraction",
        "max_throughput_rps",
    ]);

    // 21 model cells (hlo × replication) evaluated in parallel; the
    // index-ordered results reproduce the sequential nested loop exactly.
    let cells: Vec<(f64, f64)> = hlos
        .into_iter()
        .flat_map(|hlo| replications.into_iter().map(move |r| (hlo, r)))
        .collect();
    let results: Vec<Result<(Derived, f64), String>> = run_cells_parallel(ctx, cells.len(), |i| {
        let (hlo, r) = cells[i];
        let params = ModelParams {
            replication: r,
            ..ModelParams::default()
        };
        let model = QueueModel::new(params)?;
        let d = model.derived_from_hlo(ServerKind::LocalityConscious, hlo);
        let x = model.max_throughput_derived(&d);
        Ok((d, x))
    });

    println!("Section 3.2 replication study (model, 16 nodes, default S = 16 KB):");
    for ((hlo, r), result) in cells.iter().zip(results) {
        if (*r - replications[0]).abs() < f64::EPSILON {
            println!("\n  locality-oblivious hit rate axis = {hlo:.1}:");
            println!(
                "  {:>5} {:>8} {:>8} {:>8} {:>12}",
                "R", "H_lc", "h", "Q", "bound (r/s)"
            );
        }
        let (d, x) = result?;
        table.row_f64([
            *r,
            *hlo,
            d.hit_rate,
            d.replicated_hit,
            d.forward_fraction,
            x,
        ]);
        println!(
            "  {:>5.2} {:>8.3} {:>8.3} {:>8.3} {:>12.0}",
            r, d.hit_rate, d.replicated_hit, d.forward_fraction, x
        );
    }

    println!(
        "\n(paper: ~15% replication robustly balances load and reduces forwarding \
         while barely denting the aggregate cache; R = 1 degenerates to the \
         locality-oblivious server)"
    );
    ctx.write_csv("exp_replication", &table)
}
