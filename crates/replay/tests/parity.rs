//! Replay-vs-DES placement parity, ranged over the Table 2 traces.
//!
//! The infinite-speed replay path (`replay_trace_fast`) promises the
//! exact placement sequence the DES engine produces for the same trace,
//! seed, and configuration. These properties range over all four paper
//! traces, seeds, policies, and cluster sizes and compare the two
//! record streams element for element — any divergence in decision
//! order, forwarding, or timing breaks them immediately.

use l2s::PolicyKind;
use l2s_replay::{placement_checksum, replay_trace_fast};
use l2s_sim::{simulate_workload_observed, PlacementRecord, SimConfig, TraceWorkload};
use l2s_trace::{Trace, TraceSpec};
use proptest::prelude::*;

/// The four workloads of the paper's Table 2, scaled down so a case
/// (two full simulations) stays fast.
fn table2_spec(which: usize) -> TraceSpec {
    match which {
        0 => TraceSpec::calgary(),
        1 => TraceSpec::clarknet(),
        2 => TraceSpec::nasa(),
        _ => TraceSpec::rutgers(),
    }
}

fn scaled_trace(which: usize, seed: u64) -> Trace {
    table2_spec(which).scaled(150, 2_000).generate(seed)
}

fn pick_policy(which: usize) -> PolicyKind {
    let all = PolicyKind::all();
    all[which % all.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fast_replay_places_identically_to_the_engine(
        which in 0usize..4,
        seed in 0u64..1_000_000,
        policy in 0usize..10,
        nodes in 2usize..6,
    ) {
        let trace = scaled_trace(which, seed % 11);
        let kind = pick_policy(policy);
        let mut cfg = SimConfig::quick(nodes, 700.0);
        cfg.seed = seed;

        let (replayed, report) = replay_trace_fast(&cfg, kind, &trace);

        let mut direct: Vec<PlacementRecord> = Vec::new();
        let mut observer = |r: PlacementRecord| direct.push(r);
        let mut workload = TraceWorkload::new(&trace);
        let direct_report = simulate_workload_observed(&cfg, kind, &mut workload, &mut observer);

        prop_assert_eq!(replayed.len(), direct.len());
        for (i, (a, b)) in replayed.iter().zip(direct.iter()).enumerate() {
            prop_assert_eq!(a, b, "first divergence at placement {}", i);
        }
        prop_assert_eq!(
            placement_checksum(&replayed),
            placement_checksum(&direct)
        );
        prop_assert_eq!(report, direct_report);
        // Without warmup every observed placement is a measured request.
        prop_assert_eq!(replayed.len() as u64, report.completed + report.failed);
    }

    #[test]
    fn fast_replay_checksum_is_stable_across_runs(
        which in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let trace = scaled_trace(which, seed % 5);
        let cfg = SimConfig::quick(4, 700.0);
        let (a, ra) = replay_trace_fast(&cfg, PolicyKind::L2s, &trace);
        let (b, rb) = replay_trace_fast(&cfg, PolicyKind::L2s, &trace);
        prop_assert_eq!(placement_checksum(&a), placement_checksum(&b));
        prop_assert_eq!(ra, rb);
    }
}
