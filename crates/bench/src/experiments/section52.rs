//! Section 5.2's three tables — cache miss rates, serving-node CPU idle
//! time and the forwarded fraction — read off the Figures 7–10 grid:
//! every Table 2 trace, every paper cluster size, the paper's servers
//! at their default configuration. In a full suite run the report store
//! already holds these cells, so the tables cost no simulation; run
//! alone with `--only`, each simulates the grid itself.

use crate::{cell, paper_config, sweep, RunCtx, PAPER_NODE_COUNTS, PAPER_POLICIES};
use l2s::PolicyKind;
use l2s_sim::SimReport;
use l2s_trace::TraceSpec;
use l2s_util::csv::CsvTable;

/// One Section 5.2 table: a fraction per (trace, nodes, policy) cell.
struct Table {
    /// CSV stem, which is also the experiment's name.
    stem: &'static str,
    /// CSV column of the fraction.
    column: &'static str,
    /// What each printed table shows, in percent.
    title: &'static str,
    policies: &'static [PolicyKind],
    metric: fn(&SimReport) -> f64,
    /// The paper's observation, printed after the tables.
    footnote: &'static str,
}

fn run_table(ctx: &RunCtx, t: &Table) -> Result<(), String> {
    let mut table = CsvTable::new(["trace", "nodes", "policy", t.column]);
    for spec in TraceSpec::paper_presets() {
        let cells = sweep(ctx, &spec, &PAPER_NODE_COUNTS, t.policies, |n| {
            paper_config(ctx, n)
        });
        println!("\n{} trace — {} (%):", spec.name, t.title);
        print!("{:>6}", "nodes");
        for p in t.policies {
            print!(" {:>12}", p.name());
        }
        println!();
        for &n in &PAPER_NODE_COUNTS {
            print!("{n:>6}");
            for &p in t.policies {
                let v = (t.metric)(&cell(&cells, &spec.name, n, p)?.report);
                print!(" {:>11.1}%", v * 100.0);
                table.row([
                    spec.name.clone(),
                    n.to_string(),
                    p.name().to_string(),
                    format!("{v:.5}"),
                ]);
            }
            println!();
        }
    }
    println!("\n({})", t.footnote);
    ctx.write_csv(t.stem, &table)
}

/// Aggregate cache miss rate per system and cluster size. The paper
/// observes L2S with the lowest miss rates at small clusters, with LARD
/// catching up (or edging ahead) at 16 nodes as its wasted front-end
/// cache becomes a smaller fraction of the total.
pub fn miss_rates(ctx: &RunCtx) -> Result<(), String> {
    run_table(
        ctx,
        &Table {
            stem: "exp_miss_rates",
            column: "miss_rate",
            title: "cache miss rate",
            policies: &PAPER_POLICIES,
            metric: |r| r.miss_rate,
            footnote: "paper: traditional stays at its single-cache miss rate regardless of \
                       cluster size;\n L2S lowest at few nodes; LARD comparable or slightly \
                       lower than L2S at 16 nodes",
        },
    )
}

/// Mean CPU idle fraction of the serving nodes. The paper observes
/// traditional idle times roughly constant in cluster size, LARD
/// improving up to 8–12 nodes then worsening as the front-end
/// bottlenecks, and L2S steadily approaching full utilization.
pub fn idle_times(ctx: &RunCtx) -> Result<(), String> {
    run_table(
        ctx,
        &Table {
            stem: "exp_idle_times",
            column: "cpu_idle",
            title: "mean serving-node CPU idle",
            policies: &PAPER_POLICIES,
            metric: |r| r.cpu_idle,
            footnote: "paper: traditional ~constant; LARD improves to 8-12 nodes then \
                       degrades; L2S keeps improving",
        },
    )
}

/// The fraction of requests handed off between nodes. LARD forwards
/// 100 % by construction; the paper reports L2S forwarding at least
/// ~15 % fewer requests up to 4 nodes and ~8–25 % fewer at 16 nodes
/// depending on the trace.
pub fn forwarding(ctx: &RunCtx) -> Result<(), String> {
    run_table(
        ctx,
        &Table {
            stem: "exp_forwarding",
            column: "forwarded_fraction",
            title: "forwarded requests",
            policies: &[PolicyKind::L2s, PolicyKind::Lard],
            metric: |r| r.forwarded_fraction,
            footnote: "paper: LARD forwards 100%; L2S forwards >=15% fewer up to 4 nodes and \
                       ~8-25% fewer at 16 nodes",
        },
    )
}
