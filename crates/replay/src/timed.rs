//! The timed replay engine: policies plus node hardware, no event queue.
//!
//! One [`ReplayEngine`] holds a [`PolicyDriver`] and the per-node
//! [`NodeHardware`] stations. The caller owns the loop (and the clock):
//! it offers requests at their arrival times and the engine models each
//! one through a FIFO station pipeline — NI-in, CPU parse (plus the
//! forwarding charge when the policy handed the request off), disk on a
//! cache miss, CPU reply, NI-out — using the Table 1 [`NodeCosts`].
//! Completions are settled lazily from a min-heap whenever time
//! advances, feeding the policy's `complete` hook exactly as the DES
//! does.
//!
//! This is deliberately a *lighter* contention model than the DES (no
//! router, no switch hops, no per-message NI traffic, no closed-loop
//! admission): the replay front-end answers "how would this policy
//! behave on my live log right now", under either clock, while the
//! closed-loop Section 5.1 experiment remains the DES's
//! (`clusterlab simulate`).

use l2s::{Placement, PolicyDriver, PolicyKind};
use l2s_cluster::{build_nodes, CachePolicy, NodeCosts, NodeHardware};
use l2s_sim::{ratio, SimConfig, SimReport};
use l2s_util::stats::RunningQuantile;
use l2s_util::{cast, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration for a timed replay run.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Policy to drive.
    pub policy: PolicyKind,
    /// Cluster size.
    pub nodes: usize,
    /// Per-node cache capacity in KB.
    pub cache_kb: f64,
    /// Snapshot period in virtual seconds (`<= 0` disables snapshots).
    pub snapshot_every_s: f64,
    /// Stop after this many injected requests (`None` = whole stream).
    pub max_requests: Option<usize>,
}

impl ReplayConfig {
    /// The Section 5.1 cache size for `nodes` nodes under `policy`, with
    /// 10 s snapshots and no request cap. Timed replay runs the policy
    /// with its paper-default parameters
    /// ([`PolicyParams::default`](l2s::PolicyParams)): the L2S
    /// thresholds, the seed JSQ(d) salts, and equally powerful nodes for
    /// SITA. LARD's thresholds and JSQ(d)'s `d = 2` are constants of
    /// their policies.
    pub fn new(policy: PolicyKind, nodes: usize) -> Self {
        ReplayConfig {
            policy,
            nodes,
            cache_kb: SimConfig::paper_default(nodes).cache_kb,
            snapshot_every_s: 10.0,
            max_requests: None,
        }
    }
}

/// One in-flight request: completion time, admission order (the
/// determinism tie-break for simultaneous completions), service node,
/// and file.
type InFlight = Reverse<(SimTime, u64, usize, u32)>;

/// Policies plus node hardware behind an offer/complete interface. See
/// the module docs for the service model.
#[derive(Debug)]
pub struct ReplayEngine {
    policy: PolicyKind,
    costs: NodeCosts,
    driver: PolicyDriver,
    nodes: Vec<NodeHardware>,
    inflight: BinaryHeap<InFlight>,
    peak_inflight: usize,
    seq: u64,
    injected: u64,
    failed: u64,
    forwarded: u64,
    control_msgs: u64,
    response_sum_s: f64,
    p99: RunningQuantile,
    now: SimTime,
}

impl ReplayEngine {
    /// A fresh engine: cold caches, idle stations, policy at its
    /// initial state. Service times are the Table 1 costs of
    /// [`SimConfig::paper_default`], and the response-time p99 is kept
    /// exactly as samples arrive (the DES's interpolated one), so a
    /// snapshot reads it in O(1).
    pub fn new(cfg: ReplayConfig) -> Self {
        let sim = SimConfig::paper_default(cfg.nodes);
        let driver = PolicyDriver::new(cfg.policy, cfg.nodes);
        let nodes = build_nodes(cfg.nodes, CachePolicy::Lru, cfg.cache_kb, sim.ni_buffer);
        ReplayEngine {
            policy: cfg.policy,
            costs: sim.costs,
            driver,
            nodes,
            inflight: BinaryHeap::new(),
            peak_inflight: 0,
            seq: 0,
            injected: 0,
            failed: 0,
            forwarded: 0,
            control_msgs: 0,
            response_sum_s: 0.0,
            p99: RunningQuantile::new(0.99),
            now: SimTime::ZERO,
        }
    }

    /// Requests injected so far (accepted + rejected).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Forwards the file population (count and sizes) to the policy.
    pub fn hint_sizes(&mut self, sizes_kb: &[f64]) {
        self.driver.hint_files(sizes_kb.len());
        self.driver.hint_file_sizes(sizes_kb);
    }

    /// Offers one request for `file` (`size_kb` KB) arriving at `at`.
    /// Returns the serving node, or `None` when every candidate was
    /// down and the request failed.
    pub fn offer(&mut self, at: SimTime, file: u32, size_kb: f64) -> Option<usize> {
        self.advance(at);
        self.injected += 1;
        let (node, forwarded) = match self.driver.place(at.as_nanos(), file) {
            Placement::Serve {
                node, forwarded, ..
            } => (node, forwarded),
            Placement::Rejected => {
                self.failed += 1;
                return None;
            }
        };
        self.collect_messages();
        if forwarded {
            self.forwarded += 1;
        }
        let done = self.schedule_service(at, node, file, size_kb, forwarded);
        let response_s = done.saturating_since(at).as_secs_f64();
        self.response_sum_s += response_s;
        self.p99.push(response_s);
        self.inflight.push(Reverse((done, self.seq, node, file)));
        self.seq += 1;
        self.peak_inflight = self.peak_inflight.max(self.inflight.len());
        Some(node)
    }

    /// Settles every completion due at or before `upto` (public so the
    /// caller can flush before taking a snapshot).
    pub fn drain_due(&mut self, upto: SimTime) {
        self.advance(upto);
    }

    /// Settles all remaining in-flight work and returns the final
    /// report.
    pub fn finish(&mut self) -> SimReport {
        self.advance(SimTime::MAX);
        self.report()
    }

    fn advance(&mut self, upto: SimTime) {
        let mut settled = false;
        while let Some(&Reverse((done, _, node, file))) = self.inflight.peek() {
            if done > upto {
                break;
            }
            self.inflight.pop();
            self.driver.complete(done.as_nanos(), node, file);
            self.nodes[node].completed += 1;
            settled = true;
            if done > self.now {
                self.now = done;
            }
        }
        if settled {
            self.collect_messages();
        }
        if upto > self.now && upto < SimTime::MAX {
            self.now = upto;
        }
    }

    /// Counts the policy's queued control messages, draining the buffer
    /// so it stays bounded over an endless tail.
    fn collect_messages(&mut self) {
        self.control_msgs += cast::len_u64(self.driver.drain_messages().len());
    }

    /// Runs one request through the serving node's station pipeline and
    /// returns its completion time.
    fn schedule_service(
        &mut self,
        at: SimTime,
        node: usize,
        file: u32,
        size_kb: f64,
        forwarded: bool,
    ) -> SimTime {
        let costs = self.costs;
        let hw = &mut self.nodes[node];
        let t_in = hw.ni_in.schedule(at, costs.ni_in());
        let mut cpu_front = costs.parse();
        if forwarded {
            cpu_front += costs.forward();
        }
        let t_parsed = hw.cpu.schedule(t_in, cpu_front);
        let hit = hw.access_file(file, size_kb);
        let t_data = if hit {
            t_parsed
        } else {
            hw.disk.schedule(t_parsed, costs.disk_read(size_kb))
        };
        let t_reply = hw.cpu.schedule(t_data, costs.mem_reply(size_kb));
        hw.ni_out.schedule(t_reply, costs.ni_out(size_kb))
    }

    /// The metrics so far, in the engine's [`SimReport`] shape. Fields
    /// the timed model does not measure (router utilization, lifecycle
    /// segments, fault phases, event-queue statistics) report zero.
    pub fn report(&self) -> SimReport {
        let elapsed = SimDuration::from_nanos(self.now.as_nanos());
        let served = self.injected - self.failed;
        let base = SimReport::from_hardware(
            self.policy,
            &self.nodes,
            &self.driver.serving_nodes(),
            elapsed,
        );
        SimReport {
            forwarded_fraction: ratio(self.forwarded, served),
            control_msgs_per_request: ratio(self.control_msgs, base.completed),
            mean_response_s: if served > 0 {
                self.response_sum_s / cast::exact_f64(served)
            } else {
                0.0
            },
            p99_response_s: self.p99.value(),
            failed: self.failed,
            events_handled: self.injected + base.completed,
            peak_fel_depth: self.peak_inflight,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_completes_and_reports() {
        let mut e = ReplayEngine::new(ReplayConfig::new(PolicyKind::Traditional, 2));
        e.hint_sizes(&[4.0, 8.0]);
        for i in 0..10u32 {
            let at = SimTime::from_secs_f64(f64::from(i) * 0.01);
            assert!(e.offer(at, i % 2, 4.0).is_some());
        }
        let r = e.finish();
        assert_eq!(r.completed, 10);
        assert_eq!(r.failed, 0);
        assert!(r.mean_response_s > 0.0);
        assert!(r.p99_response_s.is_some());
        assert_eq!(r.per_node.len(), 2);
        assert_eq!(
            r.per_node.iter().map(|n| n.completed).sum::<u64>(),
            r.completed
        );
    }
}
