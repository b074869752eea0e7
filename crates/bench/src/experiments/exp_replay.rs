//! Observer contract (X10): attaching a placement observer must not
//! change what the DES engine computes.
//!
//! For every Table 2 trace and three policies this runs the engine once
//! with a placement observer attached and checks that its report equals
//! the unobserved run of the same cell ([`RunCtx::simulate`]), field for
//! field. Any difference fails the run with the trace and policy. The
//! CSV pins each placement stream's FNV checksum, so cross-run and
//! cross-worker drift in the placements themselves shows up as a diff
//! in version control.

use crate::{paper_trace, run_cells_parallel, trace_seed, RunCtx};
use l2s::PolicyKind;
use l2s_sim::{simulate_workload_observed, PlacementRecord, SimConfig, TraceWorkload};
use l2s_trace::TraceSpec;
use l2s_util::cast;
use l2s_util::csv::CsvTable;

const NODES: usize = 8;

/// The policies the check covers: the paper's locality-conscious pair
/// plus one queue-depth dispatcher, so both stateful-mapping and
/// stateless selection paths are pinned.
const POLICIES: [PolicyKind; 3] = [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Jsq];

struct Cell {
    trace: String,
    policy: &'static str,
    requests: usize,
    placements: usize,
    checksum: u64,
}

/// FNV-1a digest of a placement sequence: the compact pin written to
/// the CSV, so CI byte-compares runs without shipping millions of
/// records.
fn placement_checksum(placements: &[PlacementRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in placements {
        eat(p.seq);
        eat(u64::from(cast::index_u32(p.file.index())));
        eat(cast::len_u64(p.initial));
        eat(cast::len_u64(p.service));
        eat(u64::from(p.forwarded));
        eat(p.at.as_nanos());
    }
    h
}

fn run_cell(ctx: &RunCtx, spec: &TraceSpec, kind: PolicyKind) -> Result<Cell, String> {
    let trace = paper_trace(spec);
    let config = SimConfig {
        seed: trace_seed(spec),
        max_requests: ctx.cap,
        ..SimConfig::paper_default(NODES)
    };

    let mut placements: Vec<PlacementRecord> = Vec::new();
    let mut observer = |r: PlacementRecord| placements.push(r);
    let observed = simulate_workload_observed(
        &config,
        kind,
        &mut TraceWorkload::new(&trace),
        &mut observer,
    );
    let plain = ctx.simulate(spec, kind, &config);

    if observed != plain {
        return Err(format!(
            "{}/{}: the observer changed the run:\n  observed   {observed:?}\n  unobserved {plain:?}",
            spec.name,
            kind.name()
        ));
    }
    Ok(Cell {
        trace: spec.name.clone(),
        policy: kind.name(),
        requests: trace.len(),
        placements: placements.len(),
        checksum: placement_checksum(&placements),
    })
}

/// Runs the experiment; errors are observer-contract violations or I/O
/// failures.
pub fn run(ctx: &RunCtx) -> Result<(), String> {
    let specs = TraceSpec::paper_presets();
    let cells: Vec<(usize, PolicyKind)> = (0..specs.len())
        .flat_map(|s| POLICIES.iter().map(move |&p| (s, p)))
        .collect();

    println!("X10: the placement observer leaves the run unchanged ({NODES} nodes)");
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
        "\n(every cell ran once with a placement observer attached, and its report \
         equalled the\n unobserved run's field for field; the checksums above pin \
         the placement sequences\n for cross-run comparison)"
    );
    ctx.write_csv("exp_replay", &table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2s_trace::Trace;

    fn placements(config: &SimConfig, kind: PolicyKind, trace: &Trace) -> Vec<PlacementRecord> {
        let mut placements = Vec::new();
        let mut observer = |r: PlacementRecord| placements.push(r);
        simulate_workload_observed(config, kind, &mut TraceWorkload::new(trace), &mut observer);
        placements
    }

    #[test]
    fn checksum_separates_distinct_sequences() {
        let trace = TraceSpec::calgary().scaled(80, 1_500).generate(3);
        let cfg = SimConfig {
            warmup: false,
            ..SimConfig::quick(4, 1_000.0)
        };
        let a = placements(&cfg, PolicyKind::L2s, &trace);
        let b = placements(&cfg, PolicyKind::Traditional, &trace);
        assert_ne!(placement_checksum(&a), placement_checksum(&b));
    }
}
