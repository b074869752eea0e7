//! One cluster node's contended stations and cache.

use crate::{CachePolicy, FileCache, FileId};
use l2s_devs::FifoResource;
use l2s_util::SimTime;

/// The hardware of one cluster node: the four contended FIFO stations
/// (CPU, disk, inbound NI, outbound NI) plus the main-memory file cache.
///
/// The simulator owns the event loop; `NodeHardware` provides the
/// stations and bookkeeping so every server flavor (traditional, LARD,
/// L2S) shares identical hardware modeling.
#[derive(Clone, Debug)]
pub struct NodeHardware {
    /// Processor (parse, forward, reply, and message handling).
    pub cpu: FifoResource,
    /// Local disk.
    pub disk: FifoResource,
    /// Inbound network interface.
    pub ni_in: FifoResource,
    /// Outbound network interface.
    pub ni_out: FifoResource,
    /// Main-memory file cache.
    pub cache: FileCache,
    /// Requests this node finished serving (since last stats reset).
    pub completed: u64,
}

impl NodeHardware {
    /// A node with `cache_kb` of main memory run by the given
    /// replacement policy and an inbound NI of capacity `ni_buffer`.
    pub fn with_policy(policy: CachePolicy, cache_kb: f64, ni_buffer: usize) -> Self {
        NodeHardware {
            cpu: FifoResource::new(),
            disk: FifoResource::new(),
            ni_in: FifoResource::with_capacity(ni_buffer),
            ni_out: FifoResource::new(),
            cache: FileCache::new(policy, cache_kb),
            completed: 0,
        }
    }

    /// Looks the file up in the cache (recording hit/miss) and, on a
    /// miss, inserts it after its disk read. Returns whether it hit.
    pub fn access_file(&mut self, file: impl Into<FileId>, kb: f64) -> bool {
        let file = file.into();
        if self.cache.touch(file) {
            true
        } else {
            self.cache.insert(file, kb);
            false
        }
    }

    /// Zeroes all statistics (stations, cache, completion counter)
    /// without disturbing in-flight state or cache contents.
    pub fn reset_stats(&mut self) {
        self.cpu.reset_stats();
        self.disk.reset_stats();
        self.ni_in.reset_stats();
        self.ni_out.reset_stats();
        self.cache.reset_stats();
        self.completed = 0;
    }

    /// The node crashes at `now`: main memory (the file cache) is wiped
    /// and every station discards its queued and in-flight work, so the
    /// node comes back idle and cold when it recovers. Window statistics
    /// (completed count, performed busy time, cache hit/miss counters)
    /// are kept — they describe what happened, not what survives.
    pub fn crash(&mut self, now: SimTime) {
        self.cpu.reset_in_flight(now);
        self.disk.reset_in_flight(now);
        self.ni_in.reset_in_flight(now);
        self.ni_out.reset_in_flight(now);
        self.cache.clear();
    }
}

/// Convenience: builds `n` identical nodes.
pub fn build_nodes(
    n: usize,
    policy: CachePolicy,
    cache_kb: f64,
    ni_buffer: usize,
) -> Vec<NodeHardware> {
    (0..n)
        .map(|_| NodeHardware::with_policy(policy, cache_kb, ni_buffer))
        .collect()
}

/// Builds one node per [`NodeProfile`](crate::NodeProfile) — the
/// heterogeneous-cluster counterpart of [`build_nodes`]. CPU speed is
/// not node hardware state: the engine owns the clock and scales CPU
/// service times by the profile's multiplier when it schedules work.
pub fn build_nodes_profiled(
    profiles: &[crate::NodeProfile],
    policy: CachePolicy,
    ni_buffer: usize,
) -> Vec<NodeHardware> {
    profiles
        .iter()
        .map(|p| NodeHardware::with_policy(policy, p.cache_kb, ni_buffer))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2s_util::SimDuration;

    fn lru_node(cache_kb: f64) -> NodeHardware {
        NodeHardware::with_policy(CachePolicy::Lru, cache_kb, 8)
    }

    #[test]
    fn access_records_hits_and_misses() {
        let mut n = lru_node(100.0);
        assert!(!n.access_file(1, 10.0), "first access misses");
        assert!(n.access_file(1, 10.0), "second access hits");
        let s = n.cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn reset_preserves_cache_contents() {
        let mut n = lru_node(100.0);
        n.access_file(1, 10.0);
        n.completed = 5;
        n.reset_stats();
        assert_eq!(n.completed, 0);
        assert_eq!(n.cache.stats().misses, 0);
        assert!(n.cache.contains(1));
    }

    #[test]
    fn crash_wipes_cache_and_in_flight_work_but_keeps_stats() {
        let mut n = lru_node(100.0);
        n.access_file(1, 10.0);
        n.completed = 3;
        let t = SimTime::from_nanos(500);
        n.cpu.schedule(t, SimDuration::from_millis(10));
        n.ni_in.schedule(t, SimDuration::from_millis(10));
        n.ni_in.schedule(t, SimDuration::from_millis(10));
        assert_eq!(n.ni_in.queue_len(t), 2);
        let crash_at = SimTime::from_nanos(600);
        n.crash(crash_at);
        assert!(n.cache.is_empty(), "main memory wiped");
        assert_eq!(n.ni_in.queue_len(crash_at), 0, "NI backlog dropped");
        assert_eq!(n.cpu.free_at(), crash_at);
        assert_eq!(n.completed, 3, "window stats survive the crash");
        assert_eq!(n.cache.stats().misses, 1);
    }
    #[test]
    fn build_nodes_makes_identical_nodes() {
        let nodes = build_nodes(4, CachePolicy::Lru, 64.0, 16);
        assert_eq!(nodes.len(), 4);
        for n in &nodes {
            assert_eq!(n.cache.capacity_kb(), 64.0);
            assert_eq!(n.cache.policy(), CachePolicy::Lru);
        }
    }

    #[test]
    fn nodes_can_run_gds_caches() {
        let n = NodeHardware::with_policy(CachePolicy::GreedyDualSize, 64.0, 16);
        assert_eq!(n.cache.policy(), CachePolicy::GreedyDualSize);
    }

    #[test]
    fn profiled_nodes_follow_their_profiles() {
        let profiles = crate::HeteroSpec::extreme().profiles(4, 1000.0);
        let nodes = build_nodes_profiled(&profiles, CachePolicy::Lru, 8);
        assert_eq!(nodes.len(), 4);
        for (node, profile) in nodes.iter().zip(&profiles) {
            assert_eq!(node.cache.capacity_kb(), profile.cache_kb);
        }
        // The big node's cache dwarfs the stragglers'.
        assert!(nodes[0].cache.capacity_kb() > nodes[3].cache.capacity_kb());
    }
}
