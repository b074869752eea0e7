//! Property-based tests of the queuing model over its whole parameter
//! space.

use l2s_model::{ModelParams, QueueModel, ServerKind};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ModelParams> {
    (
        1usize..40,
        0.0f64..1.0,
        0.05f64..1.5,
        1_000.0f64..1_000_000.0,
        0.5f64..256.0,
    )
        .prop_map(
            |(nodes, replication, alpha, cache_kb, avg_file_kb)| ModelParams {
                nodes,
                replication,
                alpha,
                cache_kb,
                avg_file_kb,
            },
        )
}

proptest! {
    /// The bound is finite, positive, and conscious >= oblivious * (a
    /// forwarding-overhead slack factor) across the whole space.
    #[test]
    fn bounds_well_formed(params in arb_params(), hlo in 0.0f64..1.0) {
        let model = QueueModel::new(params).unwrap();
        let lo = model.max_throughput(ServerKind::LocalityOblivious, hlo);
        let lc = model.max_throughput(ServerKind::LocalityConscious, hlo);
        prop_assert!(lo.is_finite() && lo > 0.0);
        prop_assert!(lc.is_finite() && lc > 0.0);
        // Locality can only lose by the forwarding overhead, never more
        // than ~35%.
        prop_assert!(lc > lo * 0.65, "lc {lc} far below lo {lo}");
    }

    /// The full M/M/1 solution exists strictly below the bound and not
    /// at/above it.
    #[test]
    fn solve_agrees_with_bound(params in arb_params(), hlo in 0.01f64..1.0) {
        let model = QueueModel::new(params).unwrap();
        for kind in [ServerKind::LocalityOblivious, ServerKind::LocalityConscious] {
            let bound = model.max_throughput(kind, hlo);
            prop_assert!(model.solve(kind, hlo, bound * 0.90).is_some());
            prop_assert!(model.solve(kind, hlo, bound * 1.10).is_none());
        }
    }

    /// Response time is monotone in load.
    #[test]
    fn response_monotone_in_load(params in arb_params(), hlo in 0.01f64..1.0) {
        let model = QueueModel::new(params).unwrap();
        let bound = model.max_throughput(ServerKind::LocalityConscious, hlo);
        let low = model
            .solve(ServerKind::LocalityConscious, hlo, bound * 0.2)
            .unwrap();
        let high = model
            .solve(ServerKind::LocalityConscious, hlo, bound * 0.8)
            .unwrap();
        prop_assert!(high.response_s >= low.response_s);
    }

    /// Throughput bounds are monotone in the hit-rate axis for the
    /// oblivious server (fewer disk visits can only help).
    #[test]
    fn oblivious_bound_monotone_in_hit(params in arb_params(), h1 in 0.0f64..1.0, h2 in 0.0f64..1.0) {
        let model = QueueModel::new(params).unwrap();
        let (lo_h, hi_h) = if h1 < h2 { (h1, h2) } else { (h2, h1) };
        let x_lo = model.max_throughput(ServerKind::LocalityOblivious, lo_h);
        let x_hi = model.max_throughput(ServerKind::LocalityOblivious, hi_h);
        prop_assert!(x_hi >= x_lo * (1.0 - 1e-9));
    }

    /// Derived quantities are probabilities and Q respects its formula.
    #[test]
    fn derived_quantities_in_range(params in arb_params(), hlo in 0.0f64..1.0) {
        let model = QueueModel::new(params).unwrap();
        let d = model.derived_from_hlo(ServerKind::LocalityConscious, hlo);
        prop_assert!((0.0..=1.0).contains(&d.hit_rate));
        prop_assert!((0.0..=1.0).contains(&d.replicated_hit));
        prop_assert!((0.0..=1.0).contains(&d.forward_fraction));
        let n = params.nodes as f64;
        let expect_q = (n - 1.0) * (1.0 - d.replicated_hit) / n;
        prop_assert!((d.forward_fraction - expect_q).abs() < 1e-9);
    }
}
