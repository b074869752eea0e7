//! Simulation configuration.

use crate::FaultPlan;
use l2s::{L2sConfig, PolicyParams};
use l2s_cluster::{CachePolicy, HeteroSpec, NodeCosts};
use l2s_net::NetConfig;
use l2s_workload::WorkloadMod;

/// Per-node open-connection window: new client requests are admitted
/// while the whole cluster holds fewer than `nodes * WINDOW` outstanding
/// requests (the paper's "as fast as the buffers accept" closed loop).
/// 16 sits between L2S's `t = 10` and `T = 20` thresholds, the operating
/// point the paper's parameter choices imply: nodes hover just below
/// overload, and hot nodes trip the threshold and shed load.
const WINDOW: usize = 16;

/// How client requests enter the cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalMode {
    /// The paper's throughput methodology: trace timing is discarded and
    /// requests are injected as fast as the admission window and router
    /// buffer allow.
    ClosedLoop,
    /// Open-loop Poisson arrivals at a fixed rate (requests/s), for
    /// response-time studies against the analytic M/M/1 model. The
    /// admission window is not applied; offered load beyond capacity
    /// grows queues without bound, as in any open system.
    Poisson {
        /// Total arrival rate in requests per second.
        rate_rps: f64,
    },
}

/// Everything a simulation run needs besides the trace and the policy
/// kind. [`SimConfig::paper_default`] reproduces the Section 5.1 setup.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Main-memory cache per node, in KB (paper default: 32 MB, chosen so
    /// the traces' working sets are significant relative to cache size).
    pub cache_kb: f64,
    /// Inbound request-message size in KB (a typical HTTP/1.0 GET).
    pub request_kb: f64,
    /// Per-operation node costs (Table 1).
    pub costs: NodeCosts,
    /// Shared network fabric parameters.
    pub net: NetConfig,
    /// Per-node inbound-NI buffer in messages. Sizing only: client
    /// admission is governed by [`SimConfig::total_window`] (plus the
    /// router buffer), so in-cluster traffic — hand-offs, control
    /// messages — is never dropped at the NI.
    pub ni_buffer: usize,
    /// How requests arrive (default: the paper's closed loop).
    pub arrivals: ArrivalMode,
    /// Seed for the simulator's own randomness (Poisson interarrivals,
    /// persistent-connection lengths). Runs are deterministic per seed.
    pub seed: u64,
    /// Mean requests per client connection (default 1 = HTTP/1.0, each
    /// request its own connection). Values above 1 model persistent
    /// (HTTP/1.1) connections, which the paper's Section 4 discusses:
    /// after a request completes, the next request of the same
    /// connection arrives at the node currently holding it, which acts
    /// as the initial node. Connection lengths are geometric.
    pub persistent_mean: f64,
    /// When true, misses fetch files through a distributed file system:
    /// each file has a *home* disk (hash-placed) and remote misses pay a
    /// network round trip plus the home node's disk and NI. When false
    /// (default, matching the paper's single `µd` charge), every node
    /// reads missed files from its local disk.
    pub dfs_remote: bool,
    /// Cache replacement policy on every node (default LRU, the paper's;
    /// GreedyDual-Size available as an ablation).
    pub cache_policy: CachePolicy,
    /// Whether to warm caches by simulating the trace once before the
    /// measured run (Section 5.1 does; tests may disable it for speed).
    pub warmup: bool,
    /// Optional cap on the number of trace requests used (both warm-up
    /// and measurement), for quick runs.
    pub max_requests: Option<usize>,
    /// L2S policy parameters (`T = 20`, `t = 10`, broadcast delta 4).
    pub l2s: L2sConfig,
    /// Node crash/recovery schedule applied to the *measured* pass
    /// (the warm-up pass always runs healthy). The default — the empty
    /// plan — reproduces a healthy run byte-for-byte. Fault events
    /// scheduled past the last request extend the measurement window
    /// until they fire.
    pub faults: FaultPlan,
    /// When true (the default), every response time is recorded
    /// individually so the report's p99 is exact. Scaling sweeps over
    /// 10⁸+ requests disable this: the report then carries a streaming
    /// mean (identical workload, O(1) memory) and no p99.
    pub response_samples: bool,
    /// The hardware mix, expanded into per-node CPU speeds and cache
    /// sizes (scaling `cache_kb` as the baseline). The default,
    /// [`HeteroSpec::uniform`], builds the paper's identical nodes.
    pub hetero: HeteroSpec,
    /// Non-stationary workload modulation: an optional arrival-rate
    /// schedule (which overrides Poisson timing when present), flash
    /// crowds, and working-set drift, applied over whatever request
    /// source drives the run. The default — [`WorkloadMod::none`] —
    /// reproduces the stationary run byte for byte.
    pub workload_mod: WorkloadMod,
}

impl SimConfig {
    /// The paper's Section 5.1 configuration for an `n`-node cluster.
    pub fn paper_default(n: usize) -> Self {
        let policy = PolicyParams::default();
        SimConfig {
            nodes: n,
            cache_kb: 32.0 * 1024.0,
            request_kb: l2s_net::REQUEST_KB,
            costs: NodeCosts::default(),
            net: NetConfig::default(),
            ni_buffer: 64,
            arrivals: ArrivalMode::ClosedLoop,
            seed: policy.seed,
            persistent_mean: 1.0,
            dfs_remote: false,
            cache_policy: CachePolicy::Lru,
            warmup: true,
            max_requests: None,
            l2s: policy.l2s,
            faults: FaultPlan::none(),
            response_samples: true,
            hetero: HeteroSpec::uniform(),
            workload_mod: WorkloadMod::none(),
        }
    }

    /// A fast variant for tests and examples: smaller caches scale with
    /// whatever scaled-down trace is in use, no warm-up pass by default.
    pub fn quick(n: usize, cache_kb: f64) -> Self {
        SimConfig {
            cache_kb,
            warmup: false,
            ..Self::paper_default(n)
        }
    }

    /// The parameters this run builds its policy with.
    pub fn policy_params(&self) -> PolicyParams {
        PolicyParams {
            l2s: self.l2s,
            seed: self.seed,
            speeds: Some(self.hetero.speeds(self.nodes)),
        }
    }

    /// Total outstanding-request admission window: 16 requests per
    /// node.
    pub fn total_window(&self) -> usize {
        self.nodes * WINDOW
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be >= 1".into());
        }
        if self.cache_kb <= 0.0 || !self.cache_kb.is_finite() {
            return Err("cache_kb must be positive and finite".into());
        }
        if self.request_kb <= 0.0 || !self.request_kb.is_finite() {
            return Err("request_kb must be positive and finite".into());
        }
        if self.ni_buffer == 0 {
            return Err("ni_buffer must be >= 1".into());
        }
        if self.persistent_mean < 1.0 || !self.persistent_mean.is_finite() {
            return Err("persistent_mean must be >= 1".into());
        }
        if let ArrivalMode::Poisson { rate_rps } = self.arrivals {
            if rate_rps <= 0.0 || !rate_rps.is_finite() {
                return Err("Poisson rate must be positive".into());
            }
        }
        // Construction already validated the classes; re-validating here
        // catches specs mutated through Clone + field access.
        HeteroSpec::new(self.hetero.classes().to_vec())?;
        self.faults.validate(self.nodes)?;
        self.workload_mod.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5() {
        let c = SimConfig::paper_default(16);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.cache_kb, 32.0 * 1024.0);
        assert!(c.warmup);
        assert_eq!(c.l2s.t_high, 20);
        assert_eq!(c.l2s.t_low, 10);
        c.validate().unwrap();
    }

    #[test]
    fn m_via_message_is_19_microseconds() {
        // Section 5.1: a 4-byte message takes 19 µs one way, CPU and NI
        // at each end plus the fabric's switch hop.
        let c = SimConfig::paper_default(2);
        let end = c.costs.msg_cpu() + c.costs.msg_ni();
        let start = l2s_util::SimTime::ZERO;
        let switched = l2s_net::Fabric::new(c.net).switch_transit(start + end);
        assert_eq!((switched + end).as_nanos(), 19_000);
    }

    #[test]
    fn quick_disables_warmup() {
        let c = SimConfig::quick(4, 1024.0);
        assert!(!c.warmup);
        assert_eq!(c.cache_kb, 1024.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut c = SimConfig::paper_default(0);
        assert!(c.validate().is_err());
        c.nodes = 2;
        c.cache_kb = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn arrival_and_persistence_validation() {
        let mut c = SimConfig::paper_default(2);
        assert_eq!(c.arrivals, ArrivalMode::ClosedLoop);
        assert_eq!(c.persistent_mean, 1.0);
        assert!(!c.dfs_remote);
        c.persistent_mean = 0.5;
        assert!(c.validate().is_err());
        c.persistent_mean = 4.0;
        c.arrivals = ArrivalMode::Poisson { rate_rps: -1.0 };
        assert!(c.validate().is_err());
        c.arrivals = ArrivalMode::Poisson { rate_rps: 100.0 };
        c.validate().unwrap();
    }

    #[test]
    fn fault_config_is_validated() {
        let mut c = SimConfig::paper_default(4);
        assert!(c.faults.is_empty(), "default plan is healthy");
        c.validate().unwrap();
        c.faults = crate::FaultPlan::crash_recover(2, 1.0, 3.0);
        c.validate().unwrap();
        c.faults = crate::FaultPlan::crash_recover(9, 1.0, 3.0);
        assert!(c.validate().is_err(), "plan must fit the cluster");
    }

    #[test]
    fn hetero_mix_is_validated() {
        let mut c = SimConfig::paper_default(8);
        assert_eq!(
            c.hetero,
            HeteroSpec::uniform(),
            "default cluster is homogeneous"
        );
        c.hetero = HeteroSpec::extreme();
        c.validate().unwrap();
    }

    #[test]
    fn workload_mod_is_validated() {
        let mut c = SimConfig::paper_default(4);
        assert!(c.workload_mod.is_none(), "default run is stationary");
        c.validate().unwrap();
        c.workload_mod.drift = Some(l2s_workload::DriftSpec {
            period_s: 0.0,
            step: 1,
        });
        assert!(c.validate().is_err(), "zero drift period is nonsense");
        c.workload_mod.drift = Some(l2s_workload::DriftSpec {
            period_s: 60.0,
            step: 3,
        });
        c.validate().unwrap();
    }

    #[test]
    fn total_window_is_16_per_node() {
        assert_eq!(SimConfig::paper_default(8).total_window(), 128);
    }
}
