//! Section 3.2 memory study: how the peak locality gain shrinks as
//! per-node memory grows from 128 MB to 512 MB (paper: from ~7x to
//! ~6.5x).

use crate::RunCtx;
use l2s_model::{default_axes, memory_sweep, ModelParams};
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let (hits, sizes) = default_axes(25, 16);
    let base = ModelParams::default();
    let mb = 1024.0;
    let caches = [128.0 * mb, 192.0 * mb, 256.0 * mb, 384.0 * mb, 512.0 * mb];
    let sweep = memory_sweep(&base, &caches, &hits, &sizes);

    let mut table = CsvTable::new(["cache_mb", "peak_throughput_increase"]);
    println!("Section 3.2 memory study (model, 16 nodes):");
    println!("{:>10} {:>22}", "memory", "peak locality gain");
    for &(kb, gain) in &sweep {
        table.row_f64([kb / mb, gain]);
        println!("{:>7.0} MB {gain:>21.2}x", kb / mb);
    }

    let (Some(first), Some(last)) = (sweep.first(), sweep.last()) else {
        return Err("memory sweep produced no rows".into());
    };
    let (first, last) = (first.1, last.1);
    println!(
        "\ngain at 128 MB = {first:.2}x, at 512 MB = {last:.2}x \
         (paper: ~7x and ~6.5x — larger memories shrink the benefit everywhere, \
         but it stays significant)"
    );
    ctx.write_csv("exp_memory_sweep", &table)
}
