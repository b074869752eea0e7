//! Simulation results.

use l2s::{NodeId, PolicyKind};
use l2s_cluster::NodeHardware;
use l2s_util::{cast, SimDuration};

/// `num / den` as a fraction, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        cast::exact_f64(num) / cast::exact_f64(den)
    }
}

/// Per-node measurements over the measurement window.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// CPU utilization (0..1).
    pub cpu_utilization: f64,
    /// Disk utilization (0..1).
    pub disk_utilization: f64,
    /// Requests this node serviced.
    pub completed: u64,
    /// Cache hits at this node.
    pub cache_hits: u64,
    /// Cache misses at this node.
    pub cache_misses: u64,
}

impl NodeReport {
    /// This node's cache miss rate (0 when it saw no lookups).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.cache_misses, self.cache_hits + self.cache_misses)
    }
}

/// Results of one simulation run (measurement window only — the warm-up
/// pass is excluded).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Policy name the run used.
    pub policy: &'static str,
    /// Cluster size.
    pub nodes: usize,
    /// Requests completed in the measurement window.
    pub completed: u64,
    /// Simulated duration of the measurement window.
    pub elapsed: SimDuration,
    /// Sustained throughput in requests per second.
    pub throughput_rps: f64,
    /// Aggregate cache miss rate across serving nodes.
    pub miss_rate: f64,
    /// Fraction of requests handed off between nodes.
    pub forwarded_fraction: f64,
    /// Mean CPU idle fraction over *serving* nodes (LARD's front-end is
    /// excluded, as in the paper's idle-time discussion).
    pub cpu_idle: f64,
    /// Router utilization.
    pub router_utilization: f64,
    /// Small control messages per completed request (load/server-set
    /// dissemination, completion reports).
    pub control_msgs_per_request: f64,
    /// Mean end-to-end response time in seconds.
    pub mean_response_s: f64,
    /// 99th-percentile response time in seconds. `None` when the run
    /// recorded no individual samples — either `response_samples` was
    /// off (lean scaling sweeps) or no request completed at all — so an
    /// absent percentile can never masquerade as a 0.0 s one.
    ///
    /// Two definitions fill this field. The DES interpolates linearly
    /// between the sorted samples at position `0.99·(n−1)`
    /// ([`l2s_util::stats::quantile`]); timed replay (`l2s-replay`)
    /// reports the nearest-rank sample `clamp(⌈0.99·n⌉, 1, n)`
    /// ([`l2s_util::stats::RunningQuantile`]). They can differ by up to
    /// one gap between adjacent samples.
    pub p99_response_s: Option<f64>,
    /// Mean time per lifecycle segment in seconds: `[ingress, handoff,
    /// service]` — client arrival through distribution decision, decision
    /// through readiness at the service node, and readiness through reply
    /// departure. Useful for locating queueing delay.
    pub segment_means_s: [f64; 3],
    /// Requests terminally lost to node crashes (aborted and out of
    /// retries, or aborted with retries disabled). Always 0 on a
    /// healthy run.
    pub failed: u64,
    /// Crash-aborted requests that re-entered the cluster as fresh
    /// arrivals (each retry of the same request counts once). Always 0
    /// on a healthy run.
    pub retried: u64,
    /// Fraction of node capacity lost to downtime: down node-seconds
    /// over `elapsed * nodes`, in `[0, 1]`. 0 on a healthy run.
    pub unavailability: f64,
    /// Throughput (completed requests per second) by cluster phase:
    /// `[healthy, degraded, recovered]` — before the first crash, while
    /// at least one node is down, and after the last recovery. A phase
    /// the run never entered reports 0.
    pub phase_rps: [f64; 3],
    /// Simulator events processed over the whole run (warm-up included) —
    /// the denominator-free unit of simulation work, used by the
    /// `perf_baseline` harness to compute events/sec.
    pub events_handled: u64,
    /// Deepest the future-event list ever grew over the whole run — a
    /// capacity indicator for the event queue.
    pub peak_fel_depth: usize,
    /// Event-queue operation counters over the whole run. Wall-clock-free
    /// evidence of where queue work went (lane mix, insert shift depth,
    /// calendar-wrap refiltering) — the scaling benchmarks report these
    /// to tell an algorithmic regression from a noisy box.
    pub fel_ops: l2s_devs::QueueStats,
    /// Per-node details.
    pub per_node: Vec<NodeReport>,
}

impl SimReport {
    /// The fields every engine derives from its node hardware over a
    /// measurement window of `elapsed`: the per-node rows, the completed
    /// count and throughput, the aggregate miss rate, and the CPU idle
    /// fraction averaged over the `serving` nodes. Every other field is
    /// zero, for the engine to fill in with what it measured.
    pub fn from_hardware(
        policy: PolicyKind,
        hardware: &[NodeHardware],
        serving: &[NodeId],
        elapsed: SimDuration,
    ) -> SimReport {
        let per_node: Vec<NodeReport> = hardware
            .iter()
            .enumerate()
            .map(|(node, hw)| NodeReport {
                node,
                cpu_utilization: hw.cpu.utilization(elapsed),
                disk_utilization: hw.disk.utilization(elapsed),
                completed: hw.completed,
                cache_hits: hw.cache.stats().hits,
                cache_misses: hw.cache.stats().misses,
            })
            .collect();
        let completed = per_node.iter().map(|n| n.completed).sum();
        let hits = per_node.iter().map(|n| n.cache_hits).sum::<u64>();
        let misses = per_node.iter().map(|n| n.cache_misses).sum::<u64>();
        let elapsed_s = elapsed.as_secs_f64();
        SimReport {
            policy: policy.name(),
            nodes: hardware.len(),
            completed,
            elapsed,
            throughput_rps: if elapsed_s > 0.0 {
                cast::exact_f64(completed) / elapsed_s
            } else {
                0.0
            },
            miss_rate: ratio(misses, hits + misses),
            cpu_idle: if serving.is_empty() {
                0.0
            } else {
                serving
                    .iter()
                    .map(|&n| 1.0 - per_node[n].cpu_utilization)
                    .sum::<f64>()
                    / cast::len_f64(serving.len())
            },
            per_node,
            ..SimReport::default()
        }
    }

    /// Coefficient of variation (standard deviation over mean) of
    /// per-node completed-request counts — a load-imbalance indicator:
    /// 0 means every active node completed the same number of requests.
    /// Nodes that saw no work at all are excluded, and fewer than two
    /// active nodes yields 0.
    pub fn completion_imbalance(&self) -> f64 {
        let served: Vec<f64> = self
            .per_node
            .iter()
            .filter(|n| n.completed > 0 || n.cache_hits + n.cache_misses > 0)
            .map(|n| cast::exact_f64(n.completed))
            .collect();
        if served.len() < 2 {
            return 0.0;
        }
        let mean = served.iter().sum::<f64>() / cast::len_f64(served.len());
        if mean == 0.0 {
            return 0.0;
        }
        let var =
            served.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / cast::len_f64(served.len());
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(completed: u64) -> NodeReport {
        NodeReport {
            node: 0,
            cpu_utilization: 0.5,
            disk_utilization: 0.1,
            completed,
            cache_hits: 8,
            cache_misses: 2,
        }
    }

    #[test]
    fn node_miss_rate() {
        let n = node(10);
        assert!((n.miss_rate() - 0.2).abs() < 1e-12);
        let empty = NodeReport {
            cache_hits: 0,
            cache_misses: 0,
            ..n
        };
        assert_eq!(empty.miss_rate(), 0.0);
    }

    #[test]
    fn imbalance_zero_when_balanced() {
        let r = SimReport {
            per_node: vec![node(10), node(10)],
            ..SimReport::default()
        };
        assert_eq!(r.completion_imbalance(), 0.0);
    }

    #[test]
    fn imbalance_positive_when_skewed() {
        let r = SimReport {
            per_node: vec![node(19), node(1)],
            ..SimReport::default()
        };
        assert!(r.completion_imbalance() > 0.5);
    }
}
