//! Bit-exact digests of simulated results.
//!
//! A digest covers every *modelled* field of a [`SimReport`]: what the
//! simulated cluster did. It excludes `events_handled`, `peak_fel_depth`
//! and `fel_ops`, which describe how the simulator is built (how many
//! events its engine needs, how its queue moved them); a faster queue or
//! a leaner event set must be free to change those without changing the
//! digest. The reports are destructured field by field, so a new
//! `SimReport` or `NodeReport` field fails to compile here until it is
//! classified.

use l2s_sim::{NodeReport, SimReport};

/// 64-bit FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds one report's modelled fields into `h`.
pub fn fold_report(h: &mut Fnv, report: &SimReport) {
    let SimReport {
        policy,
        nodes,
        completed,
        elapsed,
        throughput_rps,
        miss_rate,
        forwarded_fraction,
        cpu_idle,
        router_utilization,
        control_msgs_per_request,
        mean_response_s,
        p99_response_s,
        segment_means_s,
        failed,
        retried,
        unavailability,
        phase_rps,
        // Simulator internals, not modelled results: see the module docs.
        events_handled: _,
        peak_fel_depth: _,
        fel_ops: _,
        per_node,
    } = report;
    h.str(policy);
    h.usize(*nodes);
    h.u64(*completed);
    h.u64(elapsed.as_nanos());
    for v in [
        *throughput_rps,
        *miss_rate,
        *forwarded_fraction,
        *cpu_idle,
        *router_utilization,
        *control_msgs_per_request,
        *mean_response_s,
    ] {
        h.f64(v);
    }
    match p99_response_s {
        Some(p99) => {
            h.u64(1);
            h.f64(*p99);
        }
        None => h.u64(0),
    }
    segment_means_s.iter().for_each(|&v| h.f64(v));
    h.u64(*failed);
    h.u64(*retried);
    h.f64(*unavailability);
    phase_rps.iter().for_each(|&v| h.f64(v));
    h.usize(per_node.len());
    for n in per_node {
        let NodeReport {
            node,
            cpu_utilization,
            disk_utilization,
            completed,
            cache_hits,
            cache_misses,
        } = n;
        h.usize(*node);
        h.f64(*cpu_utilization);
        h.f64(*disk_utilization);
        h.u64(*completed);
        h.u64(*cache_hits);
        h.u64(*cache_misses);
    }
}

/// Digest of a sequence of reports (one workload repetition's cells, in
/// run order).
pub fn digest(reports: &[SimReport]) -> u64 {
    let mut h = Fnv::new();
    for r in reports {
        fold_report(&mut h, r);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2s::PolicyKind;
    use l2s_sim::{simulate, SimConfig};
    use l2s_trace::TraceSpec;

    fn report() -> SimReport {
        let trace = TraceSpec::clarknet().scaled(300, 3_000).generate(5);
        simulate(&SimConfig::quick(4, 500.0), PolicyKind::L2s, &trace)
    }

    #[test]
    fn simulator_internals_do_not_enter_the_digest() {
        let base = report();
        let mut other = base.clone();
        other.events_handled += 17;
        other.peak_fel_depth += 3;
        other.fel_ops.ins_shifted += 1_000;
        other.fel_ops.deferred += 9;
        other.fel_ops.sweeps += 1;
        assert_eq!(digest(&[base]), digest(&[other]));
    }

    #[test]
    fn any_modelled_change_moves_the_digest() {
        let base = report();
        let d = digest(std::slice::from_ref(&base));
        let mut one_hit = base.clone();
        one_hit.per_node[2].cache_hits += 1;
        assert_ne!(d, digest(&[one_hit]), "a single per-node hit");
        let mut ulp = base.clone();
        ulp.mean_response_s = f64::from_bits(ulp.mean_response_s.to_bits() + 1);
        assert_ne!(d, digest(&[ulp]), "one ulp of a modelled float");
        let mut p99 = base.clone();
        p99.p99_response_s = None;
        assert_ne!(d, digest(&[p99]), "a vanished p99");
        let mut failed = base.clone();
        failed.failed += 1;
        assert_ne!(d, digest(&[failed]), "a failed request");
        let mut phase = base.clone();
        phase.phase_rps[2] += 1.0;
        assert_ne!(d, digest(&[phase]), "a phase throughput");
    }

    #[test]
    fn cell_order_matters() {
        let a = report();
        let mut b = a.clone();
        b.completed += 1;
        assert_ne!(
            digest(&[a.clone(), b.clone()]),
            digest(&[b, a]),
            "cells are digested in run order"
        );
    }
}
