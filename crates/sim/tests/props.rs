//! Property tests for the modern dispatchers under the full engine.
//!
//! The unit tests in `engine.rs` pin specific seeds; these properties
//! range over seeds, JSQ sample widths, hardware mixes, and fault
//! timings, and assert the two contracts every policy must keep no
//! matter the draw:
//!
//! 1. **Determinism** — the same configuration simulated twice yields
//!    the same `SimReport`, field for field. Any hidden entropy in
//!    JIQ's idle stack, SITA's thresholds, or JSQ's sampling RNG
//!    breaks this immediately.
//! 2. **Conservation** — under an arbitrary mid-run crash/recover
//!    schedule, every request is accounted for: `completed + failed`
//!    equals the trace length.
//!
//! The cases are few (full simulations are not cheap) but each case
//! exercises all three new dispatchers.

use l2s::PolicyKind;
use l2s_cluster::HeteroSpec;
use l2s_sim::{simulate, FaultPlan, SimConfig};
use l2s_trace::{Trace, TraceSpec};
use l2s_util::cast;
use proptest::prelude::*;

/// The three dispatchers this PR adds; the paper trio has its own
/// long-standing coverage.
const NEW_DISPATCHERS: [PolicyKind; 3] = [PolicyKind::Jsq, PolicyKind::Jiq, PolicyKind::Sita];

/// A trace small enough that a case (several simulations) stays under
/// a second, but long enough to wrap the closed-loop window many times.
fn quick_trace(seed: u64) -> Trace {
    TraceSpec::clarknet().scaled(120, 1_500).generate(seed)
}

fn quick_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick(4, 800.0);
    cfg.seed = seed;
    cfg
}

/// Maps a draw to one of the hardware mixes (the first is homogeneous).
fn pick_mix(which: usize) -> HeteroSpec {
    match which {
        0 => HeteroSpec::uniform(),
        1 => HeteroSpec::mild(),
        _ => HeteroSpec::extreme(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn new_dispatchers_are_deterministic_for_any_seed_and_mix(
        seed in 0u64..1_000_000,
        jsq_d in 1u32..6,
        mix in 0usize..3,
    ) {
        let trace = quick_trace(seed % 7);
        let mut cfg = quick_config(seed);
        cfg.jsq_d = jsq_d;
        cfg.hetero = pick_mix(mix);
        cfg.validate().expect("drawn config must be valid");
        for kind in NEW_DISPATCHERS {
            let a = simulate(&cfg, kind, &trace);
            let b = simulate(&cfg, kind, &trace);
            prop_assert_eq!(
                &a, &b,
                "{} must be deterministic (seed {}, d {}, mix {})",
                kind.name(), seed, jsq_d, mix
            );
            prop_assert_eq!(a.completed, cast::len_u64(trace.len()));
        }
    }

    #[test]
    fn new_dispatchers_conserve_requests_under_arbitrary_faults(
        seed in 0u64..1_000,
        crash_frac in 0.05f64..0.55,
        down_frac in 0.05f64..0.35,
        victim in 1usize..4,
        retries in 0u32..3,
    ) {
        let trace = quick_trace(3);
        for kind in NEW_DISPATCHERS {
            let mut cfg = quick_config(seed);
            cfg.fault_retries = retries;
            let healthy = simulate(&cfg, kind, &trace);
            let e = healthy.elapsed.as_secs_f64();
            cfg.faults = FaultPlan::crash_recover(
                victim,
                crash_frac * e,
                (crash_frac + down_frac) * e,
            );
            cfg.faults.validate(cfg.nodes).expect("drawn fault plan must be valid");
            let r = simulate(&cfg, kind, &trace);
            prop_assert_eq!(
                r.completed + r.failed,
                cast::len_u64(trace.len()),
                "{} lost requests: completed {} + failed {} != {} \
                 (crash at {:.2} of {:.2}s, down {:.2}, retries {})",
                kind.name(), r.completed, r.failed, trace.len(),
                crash_frac * e, e, down_frac * e, retries
            );
            // The faulted run must be just as reproducible.
            let again = simulate(&cfg, kind, &trace);
            prop_assert_eq!(&r, &again, "{} non-deterministic under faults", kind.name());
        }
    }
}
