//! Cross-crate integration: the analytic model is an *upper bound* on
//! what the simulator can achieve, and the two agree on who the
//! bottleneck is.

use cluster_server_eval::model::{ModelParams, QueueModel, ServerKind};
use cluster_server_eval::prelude::*;
use cluster_server_eval::trace::TraceStats;

fn scaled_trace(seed: u64) -> Trace {
    TraceSpec::calgary().scaled(1_500, 40_000).generate(seed)
}

/// Model parameters matching a simulation configuration and trace.
fn matching_model(stats: &TraceStats, config: &SimConfig, replication: f64) -> QueueModel {
    QueueModel::new(ModelParams {
        nodes: config.nodes,
        replication,
        alpha: stats.alpha.max(0.05),
        cache_kb: config.cache_kb,
        avg_file_kb: stats.avg_request_kb,
    })
    .expect("valid parameters")
}

#[test]
fn simulated_throughput_never_exceeds_model_bound() {
    let trace = scaled_trace(11);
    let stats = TraceStats::compute(&trace);
    for nodes in [2usize, 4, 8] {
        let mut config = SimConfig::paper_default(nodes);
        config.cache_kb = 4_000.0;
        config.max_requests = Some(25_000);
        let model = matching_model(&stats, &config, 0.15);
        let derived =
            model.derived_from_population(ServerKind::LocalityConscious, stats.num_files as f64);
        let bound = model.max_throughput_derived(&derived);
        for kind in [PolicyKind::L2s, PolicyKind::Lard, PolicyKind::Traditional] {
            let report = simulate(&config, kind, &trace);
            assert!(
                report.throughput_rps <= bound * 1.02,
                "{} at {nodes} nodes: {} r/s exceeds model bound {bound}",
                kind.name(),
                report.throughput_rps
            );
        }
    }
}

#[test]
fn l2s_lands_within_a_modest_factor_of_the_bound() {
    // The paper's headline: L2S throughput within ~22% of the model at
    // 16 nodes. At integration-test scale we accept a looser factor but
    // require the same ballpark.
    let trace = scaled_trace(13);
    let stats = TraceStats::compute(&trace);
    let mut config = SimConfig::paper_default(8);
    config.cache_kb = 4_000.0;
    config.max_requests = Some(30_000);
    let model = matching_model(&stats, &config, 0.15);
    let derived =
        model.derived_from_population(ServerKind::LocalityConscious, stats.num_files as f64);
    let bound = model.max_throughput_derived(&derived);
    let report = simulate(&config, PolicyKind::L2s, &trace);
    let ratio = report.throughput_rps / bound;
    assert!(
        ratio > 0.4,
        "L2S at only {:.0}% of the model bound ({} vs {bound})",
        ratio * 100.0,
        report.throughput_rps
    );
}

#[test]
fn oblivious_model_tracks_traditional_server_bottleneck() {
    // The traditional server on a working set >> cache is disk-bound in
    // both the model and the simulator.
    let trace = scaled_trace(17);
    let stats = TraceStats::compute(&trace);
    let mut config = SimConfig::paper_default(4);
    config.cache_kb = 2_000.0;
    config.max_requests = Some(25_000);

    let model = matching_model(&stats, &config, 1.0);
    let derived =
        model.derived_from_population(ServerKind::LocalityOblivious, stats.num_files as f64);
    let lambda = model.max_throughput_derived(&derived) * 0.99;
    let solution = model.solve_derived(&derived, lambda).expect("stable");
    assert_eq!(solution.bottleneck().expect("stations").name, "disk");

    let report = simulate(&config, PolicyKind::Traditional, &trace);
    let max_disk = report
        .per_node
        .iter()
        .map(|n| n.disk_utilization)
        .fold(0.0, f64::max);
    let max_cpu = report
        .per_node
        .iter()
        .map(|n| n.cpu_utilization)
        .fold(0.0, f64::max);
    assert!(
        max_disk > max_cpu,
        "simulator should be disk-bound too (disk {max_disk}, cpu {max_cpu})"
    );
    assert!(max_disk > 0.9, "disk not saturated: {max_disk}");
}

#[test]
fn model_hit_rate_matches_simulated_miss_rate_for_traditional() {
    // For the oblivious server the model's H is z(C/S, F); the simulated
    // LRU under a stationary Zipf stream should land in the same region
    // (LRU is not ideal-capacity, so allow a generous band).
    let trace = scaled_trace(19);
    let stats = TraceStats::compute(&trace);
    let mut config = SimConfig::paper_default(2);
    config.cache_kb = 4_000.0;
    config.max_requests = Some(40_000);
    config.warmup = true;

    let model = matching_model(&stats, &config, 1.0);
    let derived =
        model.derived_from_population(ServerKind::LocalityOblivious, stats.num_files as f64);
    let model_miss = 1.0 - derived.hit_rate;

    let report = simulate(&config, PolicyKind::Traditional, &trace);
    assert!(
        report.miss_rate > model_miss * 0.5 && report.miss_rate < model_miss * 2.5,
        "simulated miss {} vs model miss {model_miss}",
        report.miss_rate
    );
}
