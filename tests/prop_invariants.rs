//! Property-based invariants across the workspace (proptest).

use cluster_server_eval::cluster::{CachePolicy, FileCache};
use cluster_server_eval::devs::EventQueue;
use cluster_server_eval::model::{ModelParams, QueueModel, ServerKind};
use cluster_server_eval::policy::{PolicyKind, PolicyParams};
use cluster_server_eval::prelude::*;
use cluster_server_eval::zipf::{harmonic, ZipfLaw};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event queue always pops in non-decreasing time order, with
    /// FIFO tie-breaking, regardless of the insertion pattern.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last.0);
            if t == last.0 && last.1 != 0 {
                prop_assert!(i > last.1 || last.0 == SimTime::ZERO && last.1 == 0 || i > 0);
            }
            last = (t, i);
        }
    }

    /// The LRU cache never exceeds capacity and its directory never
    /// disagrees with its pool, for arbitrary op sequences.
    #[test]
    fn lru_respects_capacity(ops in prop::collection::vec((0u32..100, 1.0f64..50.0, any::<bool>()), 1..400)) {
        let mut cache = FileCache::new(CachePolicy::Lru, 200.0);
        for (file, kb, is_touch) in ops {
            if is_touch {
                cache.touch(file);
            } else {
                cache.insert(file, kb);
            }
            prop_assert!(cache.used_kb() <= 200.0 + 1e-9);
            prop_assert_eq!(cache.iter_resident().count(), cache.len());
        }
    }

    /// `z(n, F)` is a CDF in `n`: within [0, 1], non-decreasing,
    /// z(F) = 1, for arbitrary populations and exponents.
    #[test]
    fn zipf_z_is_a_cdf(files in 1.0f64..100_000.0, alpha in 0.0f64..2.0) {
        let law = ZipfLaw::new(files, alpha);
        let mut prev = 0.0;
        for k in 0..=20 {
            let n = files * k as f64 / 20.0;
            let z = law.z(n);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&z));
            prop_assert!(z >= prev - 1e-12);
            prev = z;
        }
        prop_assert!((law.z(files) - 1.0).abs() < 1e-9);
    }

    /// The continuous harmonic extension is monotone in `n` and `1/α`.
    #[test]
    fn harmonic_monotonicity(n in 1.0f64..10_000.0, alpha in 0.0f64..2.0) {
        prop_assert!(harmonic(n + 1.0, alpha) >= harmonic(n, alpha));
        prop_assert!(harmonic(n, alpha) >= harmonic(n, alpha + 0.1) - 1e-12);
    }

    /// Conscious hit rate dominates oblivious, and the bound never goes
    /// negative/zero, for arbitrary model operating points.
    #[test]
    fn model_conscious_dominates(
        hlo in 0.01f64..1.0,
        size in 1.0f64..128.0,
        nodes in 1usize..32,
        repl in 0.0f64..1.0,
    ) {
        let params = ModelParams {
            nodes,
            replication: repl,
            avg_file_kb: size,
            ..ModelParams::default()
        };
        let model = QueueModel::new(params).unwrap();
        let lo = model.derived_from_hlo(ServerKind::LocalityOblivious, hlo);
        let lc = model.derived_from_hlo(ServerKind::LocalityConscious, hlo);
        prop_assert!(lc.hit_rate >= lo.hit_rate - 1e-12);
        prop_assert!((0.0..=1.0).contains(&lc.forward_fraction));
        let bound = model.max_throughput_derived(&lc);
        prop_assert!(bound.is_finite() && bound > 0.0);
    }

    /// Every policy keeps its connection accounting consistent under an
    /// arbitrary interleaving of arrivals and completions.
    #[test]
    fn policies_conserve_connections(
        ops in prop::collection::vec((0u32..40, any::<bool>()), 1..300),
        kind_idx in 0usize..5,
    ) {
        let kind = PolicyKind::all()[kind_idx];
        let n = 4;
        let mut policy = kind.build(n, &PolicyParams::default());
        let mut in_flight: Vec<(usize, u32)> = Vec::new();
        let now = SimTime::ZERO;
        for (file, complete) in ops {
            if complete && !in_flight.is_empty() {
                let (node, f) = in_flight.swap_remove(0);
                policy.complete(now, node, f.into());
            } else {
                let initial = policy.arrival_node().unwrap();
                let service = policy.assign(now, initial, file.into());
                prop_assert!(service < n);
                in_flight.push((service, file));
            }
            let total: u32 = (0..n).map(|i| policy.open_connections(i)).sum();
            prop_assert_eq!(total as usize, in_flight.len());
        }
    }
}

proptest! {
    // Whole-simulator property tests are expensive; keep the case count
    // low but the coverage broad.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The simulator completes every injected request and produces sane
    /// aggregates for arbitrary small workloads and cluster shapes.
    #[test]
    fn simulator_total_completion(
        files in 50usize..300,
        requests in 500usize..3_000,
        nodes in 1usize..6,
        kind_idx in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let trace = TraceSpec::clarknet().scaled(files, requests).generate(seed);
        let cfg = SimConfig::quick(nodes, 1_000.0);
        let kind = PolicyKind::all()[kind_idx];
        let report = simulate(&cfg, kind, &trace);
        prop_assert_eq!(report.completed, requests as u64);
        prop_assert!(report.throughput_rps > 0.0);
        prop_assert!((0.0..=1.0).contains(&report.miss_rate));
        let sum: u64 = report.per_node.iter().map(|n| n.completed).sum();
        prop_assert_eq!(sum, report.completed);
    }
}
