//! Dispatcher zoo on heterogeneous clusters (X8). The paper's three
//! servers — and three modern dispatchers (JSQ(2) power-of-two-choices,
//! join-idle-queue, and a size-aware SITA splitter) — run on every
//! Table 2 trace over three hardware mixes: the paper's uniform
//! cluster, a mild two-generation mix, and an extreme
//! few-fast-many-slow mix (van der Boor & Comte's regime).
//!
//! Each (trace, mix) block also carries a closed-form validation row
//! from `crates/model`: the saturation bound of the heterogeneous
//! network with the CPU station at its *aggregate* capacity `Σᵢ sᵢ`
//! and every other station unchanged. It is the model's line for a
//! locality-*oblivious* server — the oblivious dispatchers
//! (traditional, JSQ, JIQ) saturate around it, while the conscious
//! servers clear it by beating the oblivious hit rate. The run fails
//! if the bound is not monotone non-decreasing in the mix
//! (uniform ≤ mild ≤ extreme): adding CPU capacity can only raise it,
//! and when the bottleneck station is the disk (as it is at the
//! paper's parameters) it stays exactly flat.

use crate::{paper_config, paper_trace, run_cells_parallel, RunCtx};
use l2s::PolicyKind;
use l2s_cluster::HeteroSpec;
use l2s_model::{ModelParams, QueueModel, ServerKind};
use l2s_sim::SimReport;
use l2s_trace::{TraceSpec, TraceStats};
use l2s_util::cast;
use l2s_util::csv::CsvTable;

/// Cluster size of the surface (Table 2's mid-size point, matching X6).
const NODES: usize = 8;

/// Every dispatcher in the comparison: the paper's three servers plus
/// the modern zoo.
pub const DISPATCHERS: [PolicyKind; 6] = [
    PolicyKind::Traditional,
    PolicyKind::Lard,
    PolicyKind::L2s,
    PolicyKind::Jsq,
    PolicyKind::Jiq,
    PolicyKind::Sita,
];

/// The hardware mixes of the surface, mildest first.
fn mixes() -> [(&'static str, HeteroSpec); 3] {
    [
        ("uniform", HeteroSpec::uniform()),
        ("mild", HeteroSpec::mild()),
        ("extreme", HeteroSpec::extreme()),
    ]
}

/// Closed-form heterogeneous saturation bound for one (trace, mix):
/// the X8 validation line. The dispatchers here are locality-oblivious
/// at the model's level of abstraction (the conscious servers only do
/// better), so the oblivious hit rate over the trace's population
/// feeds the bound.
fn model_bound(stats: &TraceStats, spec: &HeteroSpec, cache_kb: f64) -> Result<f64, String> {
    let params = ModelParams {
        nodes: NODES,
        alpha: stats.alpha.max(0.05),
        cache_kb,
        avg_file_kb: stats.avg_request_kb,
        ..ModelParams::default()
    };
    let model = QueueModel::new(params)?;
    let derived = model.derived_from_population(
        ServerKind::LocalityOblivious,
        cast::len_f64(stats.num_files),
    );
    Ok(model.max_throughput_hetero(&derived, &spec.speeds(NODES)))
}

/// Runs the experiment; errors are I/O or model failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let specs = TraceSpec::paper_presets();
    let mixes = mixes();

    let cells: Vec<(usize, usize, PolicyKind)> = (0..specs.len())
        .flat_map(|s| {
            (0..mixes.len()).flat_map(move |m| DISPATCHERS.iter().map(move |&p| (s, m, p)))
        })
        .collect();
    let reports: Vec<SimReport> = run_cells_parallel(ctx, cells.len(), |i| {
        let (s, m, kind) = cells[i];
        let mut cfg = paper_config(ctx, NODES);
        cfg.hetero = mixes[m].1.clone();
        ctx.simulate(&specs[s], kind, &cfg)
    });

    let mut table = CsvTable::new([
        "trace",
        "mix",
        "policy",
        "throughput_rps",
        "miss_rate",
        "forwarded",
        "imbalance",
        "model_bound_rps",
    ]);
    let cache_kb = paper_config(ctx, 1).cache_kb;
    for s in 0..specs.len() {
        let stats = TraceStats::compute(&paper_trace(&specs[s]));
        let mut prev_bound = 0.0;
        for (m, (mix_name, mix)) in mixes.iter().enumerate() {
            let bound = model_bound(&stats, mix, cache_kb)?;
            if bound + 1e-9 < prev_bound {
                return Err(format!(
                    "{}/{mix_name}: hetero bound {bound:.1} fell below the \
                     milder mix's {prev_bound:.1} — the mixes only add CPU capacity",
                    specs[s].name
                ));
            }
            prev_bound = bound;
            println!(
                "\n{} trace, {NODES} nodes, {mix_name} hardware (bound {bound:.0} r/s):",
                specs[s].name
            );
            println!(
                "{:>14} {:>10} {:>8} {:>9} {:>10}",
                "policy", "rps", "miss", "forward", "imbalance"
            );
            for (i, &(cs, cm, kind)) in cells.iter().enumerate() {
                if cs != s || cm != m {
                    continue;
                }
                let r = &reports[i];
                println!(
                    "{:>14} {:>10.0} {:>7.1}% {:>8.1}% {:>10.3}",
                    kind.name(),
                    r.throughput_rps,
                    r.miss_rate * 100.0,
                    r.forwarded_fraction * 100.0,
                    r.completion_imbalance()
                );
                table.row([
                    specs[s].name.to_string(),
                    mix_name.to_string(),
                    kind.name().to_string(),
                    format!("{:.1}", r.throughput_rps),
                    format!("{:.5}", r.miss_rate),
                    format!("{:.5}", r.forwarded_fraction),
                    format!("{:.5}", r.completion_imbalance()),
                    format!("{:.1}", bound),
                ]);
            }
            // The closed-form validation row for this (trace, mix).
            table.row([
                specs[s].name.to_string(),
                mix_name.to_string(),
                "model_bound".to_string(),
                format!("{:.1}", bound),
                String::new(),
                String::new(),
                String::new(),
                format!("{bound:.1}"),
            ]);
        }
    }

    println!(
        "\n(each mix keeps the same node count; mild ≈ 1.13× and extreme ≈ 1.38× the uniform \
         cluster's\n aggregate CPU. The model_bound rows are the heterogeneous closed form — \
         CPU station at Σ sᵢ,\n other stations unchanged — i.e. the oblivious server's \
         saturation line. It moves with the\n mix only when the CPU is the bottleneck; the \
         locality-conscious servers clear it by\n beating the oblivious hit rate)"
    );
    ctx.write_csv("exp_hetero", &table)
}
