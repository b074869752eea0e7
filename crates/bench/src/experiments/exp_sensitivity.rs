//! Section 5.2 sensitivity study (the results the paper summarizes from
//! its technical-report companion): L2S throughput under varied
//! broadcast threshold, messaging overhead, network latency, and network
//! bandwidth — plus ablations of the L2S design parameters `T`/`t`
//! called out in DESIGN.md. The paper's finding: L2S is "only slightly
//! affected by reasonable parameters" in all four dimensions.

use crate::{paper_config, run_cells_parallel, RunCtx};
use l2s::PolicyKind;
use l2s_sim::SimConfig;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let spec = TraceSpec::calgary();
    let nodes = 16;
    let base_cfg = paper_config(ctx, nodes);

    // Enumerate every knob cell up front; config construction stays
    // sequential because the network scalings can fail. The baseline and
    // all 20 knob cells then simulate as one parallel batch, and the
    // report below walks the index-ordered results so the output matches
    // the sequential knob-by-knob loops byte for byte.
    let mut cells: Vec<(&str, String, SimConfig)> = Vec::new();

    // Broadcast threshold (paper default 4).
    for delta in [1u32, 2, 4, 8, 16] {
        let mut cfg = base_cfg.clone();
        cfg.l2s.broadcast_delta = delta;
        cells.push(("broadcast threshold", delta.to_string(), cfg));
    }

    // Messaging overhead scaling (CPU + NI per-message costs).
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let mut cfg = base_cfg.clone();
        cfg.costs.msg_cpu_s *= scale;
        cfg.costs.msg_ni_s *= scale;
        cells.push(("message overhead x", format!("{scale}"), cfg));
    }

    // Network switch latency scaling.
    for scale in [1.0, 10.0, 100.0] {
        let mut cfg = base_cfg.clone();
        cfg.net = cfg.net.scale_latency(scale)?;
        cells.push(("switch latency x", format!("{scale}"), cfg));
    }

    // Link/NI bandwidth scaling.
    for scale in [0.25, 0.5, 1.0, 2.0] {
        let mut cfg = base_cfg.clone();
        cfg.net = cfg.net.scale_bandwidth(scale)?;
        cfg.costs.ni_out_kb_per_s *= scale;
        cells.push(("network bandwidth x", format!("{scale}"), cfg));
    }

    // Ablation: the L2S thresholds themselves.
    for (t_high, t_low) in [(10u32, 5u32), (20, 10), (40, 20), (80, 40)] {
        let mut cfg = base_cfg.clone();
        cfg.l2s.t_high = t_high;
        cfg.l2s.t_low = t_low;
        cells.push(("thresholds T/t", format!("{t_high}/{t_low}"), cfg));
    }

    // Cell 0 is the unmodified baseline; cells 1.. are the knobs.
    let throughputs = run_cells_parallel(ctx, cells.len() + 1, |i| {
        let cfg = if i == 0 { &base_cfg } else { &cells[i - 1].2 };
        ctx.simulate(&spec, PolicyKind::L2s, cfg).throughput_rps
    });
    let base = throughputs[0];
    println!(
        "L2S sensitivity on the {} trace, {nodes} nodes (baseline {base:.0} r/s{}):\n",
        spec.name,
        if ctx.cap.is_some() {
            ", quick mode"
        } else {
            ""
        }
    );

    let mut table = CsvTable::new(["knob", "value", "throughput_rps", "relative"]);
    let mut last_knob = cells[0].0;
    for ((knob, value, _), &thr) in cells.iter().zip(&throughputs[1..]) {
        if *knob != last_knob {
            println!();
            last_knob = knob;
        }
        println!(
            "  {knob:>22} = {value:<8} -> {thr:>8.0} r/s ({:+.1}%)",
            (thr / base - 1.0) * 100.0
        );
        table.row([
            knob.to_string(),
            value.clone(),
            format!("{thr:.1}"),
            format!("{:.4}", thr / base),
        ]);
    }

    println!(
        "\n(paper: L2S is only slightly affected by reasonable broadcast frequencies, \
         messaging overheads,\n and network latency/bandwidth; the largest sensitivity \
         is to severe bandwidth reduction)"
    );
    ctx.write_csv("exp_sensitivity", &table)
}
