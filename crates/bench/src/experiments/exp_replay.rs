//! Replay parity (X10): the infinite-speed replay path must reproduce
//! the DES engine's placement sequence byte for byte.
//!
//! For every Table 2 trace this runs the engine twice — once directly
//! with a placement observer attached, once through
//! [`l2s_replay::replay_trace_fast`] (the path `l2s-replay
//! --as-fast-as-possible --trace` takes) — and compares the two
//! [`PlacementRecord`] streams element for element. Any divergence
//! fails the run with the trace, policy, and first differing index; the
//! CSV pins each stream's FNV checksum so cross-run and cross-worker
//! drift shows up as a diff in version control.

use crate::{paper_trace, run_cells_parallel, trace_seed, RunCtx};
use l2s::PolicyKind;
use l2s_replay::{placement_checksum, replay_trace_fast};
use l2s_sim::{simulate_observed, PlacementRecord, SimConfig};
use l2s_trace::TraceSpec;
use l2s_util::cast;
use l2s_util::csv::CsvTable;

const NODES: usize = 8;

/// The policies the parity check covers: the paper's locality-conscious
/// pair plus one queue-depth dispatcher, so both stateful-mapping and
/// stateless selection paths are pinned.
const POLICIES: [PolicyKind; 3] = [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Jsq];

struct Cell {
    trace: String,
    policy: &'static str,
    requests: usize,
    placements: usize,
    checksum: u64,
}

fn run_cell(ctx: &RunCtx, spec: &TraceSpec, kind: PolicyKind) -> Result<Cell, String> {
    let trace = paper_trace(spec);
    let config = SimConfig {
        seed: trace_seed(spec),
        max_requests: ctx.cap,
        ..SimConfig::paper_default(NODES)
    };

    let (replayed, replay_report) = replay_trace_fast(&config, kind, &trace);

    let mut direct: Vec<PlacementRecord> = Vec::new();
    let mut observer = |r: PlacementRecord| direct.push(r);
    let direct_report = simulate_observed(&config, kind, &trace, &mut observer);

    if replayed.len() != direct.len() {
        return Err(format!(
            "{}/{}: replay produced {} placements, engine {}",
            spec.name,
            kind.name(),
            replayed.len(),
            direct.len()
        ));
    }
    if let Some(i) = (0..replayed.len()).find(|&i| replayed[i] != direct[i]) {
        return Err(format!(
            "{}/{}: placement streams diverge at index {i}: replay {:?} vs engine {:?}",
            spec.name,
            kind.name(),
            replayed[i],
            direct[i]
        ));
    }
    if replay_report != direct_report {
        return Err(format!(
            "{}/{}: placements match but the reports differ",
            spec.name,
            kind.name()
        ));
    }
    Ok(Cell {
        trace: spec.name.clone(),
        policy: kind.name(),
        requests: trace.len(),
        placements: replayed.len(),
        checksum: placement_checksum(&replayed),
    })
}

/// Runs the experiment; errors are parity violations or I/O failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let specs = TraceSpec::paper_presets();
    let cells: Vec<(usize, PolicyKind)> = (0..specs.len())
        .flat_map(|s| POLICIES.iter().map(move |&p| (s, p)))
        .collect();

    println!("X10: replay-vs-DES placement parity ({NODES} nodes)");
    println!(
        "{:>9} {:>6} {:>10} {:>11} {:>18}",
        "trace", "policy", "requests", "placements", "checksum"
    );

    let results = run_cells_parallel(ctx, cells.len(), |i| {
        let (s, kind) = cells[i];
        run_cell(ctx, &specs[s], kind)
    });

    let mut table = CsvTable::new([
        "trace",
        "policy",
        "requests",
        "placements",
        "placement_checksum",
    ]);
    for result in results {
        let cell = result?;
        println!(
            "{:>9} {:>6} {:>10} {:>11} {:>18}",
            cell.trace,
            cell.policy,
            cell.requests,
            cell.placements,
            format!("{:016x}", cell.checksum)
        );
        table.row([
            cell.trace.clone(),
            cell.policy.to_string(),
            cast::len_u64(cell.requests).to_string(),
            cast::len_u64(cell.placements).to_string(),
            format!("{:016x}", cell.checksum),
        ]);
    }

    println!(
        "\n(every cell ran the same trace twice — once through the DES engine's \
         observer hook,\n once through the l2s-replay fast path — and the placement \
         streams matched element\n for element; the checksums above pin the sequences \
         for cross-run comparison)"
    );
    ctx.write_csv("exp_replay", &table)
}
