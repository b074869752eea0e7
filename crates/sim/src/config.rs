//! Simulation configuration.

use crate::FaultPlan;
use l2s::{L2sConfig, LardConfig, PolicyParams};
use l2s_cluster::{CachePolicy, HeteroSpec, NodeCosts};
use l2s_net::NetConfig;
use l2s_workload::WorkloadMod;

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
    /// Per-node open-connection window: new client requests are admitted
    /// while the whole cluster holds fewer than `nodes * window`
    /// outstanding requests (the paper's "as fast as the buffers accept"
    /// closed loop). The default (16) sits between L2S's `t = 10` and
    /// `T = 20` thresholds, the operating point the paper's parameter
    /// choices imply: nodes hover just below overload, and hot nodes
    /// trip the threshold and shed load.
    pub window: usize,
    /// Per-node inbound-NI buffer in messages. Sizing only: client
    /// admission is governed by `window` (plus the router buffer), so
    /// in-cluster traffic — hand-offs, control messages — is never
    /// dropped at the NI.
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
    /// LARD policy parameters (`T_low = 25`, `T_high = 65`, batch 4).
    pub lard: LardConfig,
    /// Node crash/recovery schedule applied to the *measured* pass
    /// (the warm-up pass always runs healthy). The default — the empty
    /// plan — reproduces a healthy run byte-for-byte. Fault events
    /// scheduled past the last request extend the measurement window
    /// until they fire.
    pub faults: FaultPlan,
    /// How many times a request aborted by a crash is retried — as a
    /// fresh arrival through the router, after the engine's fixed 0.5 s
    /// client timeout — before it is counted as failed. Default 1.
    pub fault_retries: u32,
    /// When true (the default), every response time is recorded
    /// individually so the report's p99 is exact. Scaling sweeps over
    /// 10⁸+ requests disable this: the report then carries a streaming
    /// mean (identical workload, O(1) memory) and no p99.
    pub response_samples: bool,
    /// The hardware mix, expanded into per-node CPU speeds, cache sizes,
    /// and NI buffers (scaling `cache_kb` / `ni_buffer` as the baseline).
    /// The default, [`HeteroSpec::uniform`], builds the paper's identical
    /// nodes.
    pub hetero: HeteroSpec,
    /// Number of nodes JSQ(d) samples per arrival (default 2, the
    /// power-of-two-choices operating point). Ignored by other policies.
    pub jsq_d: u32,
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
            request_kb: 0.3,
            costs: NodeCosts::default(),
            net: NetConfig::default(),
            window: 16,
            ni_buffer: 64,
            arrivals: ArrivalMode::ClosedLoop,
            seed: policy.seed,
            persistent_mean: 1.0,
            dfs_remote: false,
            cache_policy: CachePolicy::Lru,
            warmup: true,
            max_requests: None,
            l2s: policy.l2s,
            lard: policy.lard,
            faults: FaultPlan::none(),
            fault_retries: 1,
            response_samples: true,
            hetero: HeteroSpec::uniform(),
            jsq_d: policy.jsq_d,
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
            lard: self.lard,
            jsq_d: self.jsq_d,
            seed: self.seed,
            speeds: Some(self.hetero.speeds(self.nodes)),
        }
    }

    /// Total outstanding-request admission window.
    pub fn total_window(&self) -> usize {
        self.nodes * self.window
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be >= 1".into());
        }
        if self.cache_kb <= 0.0 || !self.cache_kb.is_finite() {
            return Err("cache_kb must be positive".into());
        }
        if self.request_kb <= 0.0 || !self.request_kb.is_finite() {
            return Err("request_kb must be positive".into());
        }
        if self.window == 0 {
            return Err("window must be >= 1".into());
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
        if self.jsq_d == 0 {
            return Err("jsq_d must be >= 1".into());
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
        assert_eq!(c.lard.t_low, 25);
        assert_eq!(c.lard.t_high, 65);
        c.validate().unwrap();
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
        c.window = 0;
        assert!(c.validate().is_err());
        c.window = 8;
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
    fn hetero_and_jsq_knobs_are_validated() {
        let mut c = SimConfig::paper_default(8);
        assert_eq!(
            c.hetero,
            HeteroSpec::uniform(),
            "default cluster is homogeneous"
        );
        assert_eq!(c.jsq_d, 2, "power-of-two choices by default");
        c.hetero = HeteroSpec::extreme();
        c.validate().unwrap();
        c.jsq_d = 0;
        assert!(c.validate().is_err(), "JSQ(0) samples nothing");
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
    fn total_window_scales_with_nodes() {
        let c = SimConfig::paper_default(8);
        assert_eq!(c.total_window(), 8 * c.window);
    }
}
