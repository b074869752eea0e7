//! Property-based tests for the node-hardware substrate.
//!
//! The file cache's accounting invariants are checked under both
//! replacement policies, across crash wipes. Beyond them, each policy
//! is checked against a deliberately naive reference implementation:
//! the LRU's stamp harvest and GreedyDual-Size's lazily invalidated
//! heap must produce the *same eviction sequence* as an O(n)-per-op
//! model across random workloads, so the hot-path data structures
//! cannot silently change simulation results.

use l2s_cluster::{CachePolicy, FileCache, FileId, NodeCosts};
use proptest::prelude::*;

/// Reference LRU: a plain MRU-first vector, O(n) per operation.
struct NaiveLru {
    capacity_kb: f64,
    entries: Vec<(u32, f64)>, // MRU first
}

impl NaiveLru {
    fn new(capacity_kb: f64) -> Self {
        NaiveLru {
            capacity_kb,
            entries: Vec::new(),
        }
    }

    fn used_kb(&self) -> f64 {
        self.entries.iter().map(|&(_, kb)| kb).sum()
    }

    fn touch(&mut self, file: u32) -> bool {
        match self.entries.iter().position(|&(f, _)| f == file) {
            Some(i) => {
                let e = self.entries.remove(i);
                self.entries.insert(0, e);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, file: u32, kb: f64) -> Vec<u32> {
        if self.touch(file) {
            return Vec::new();
        }
        if kb > self.capacity_kb {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used_kb() + kb > self.capacity_kb {
            let (victim, _) = self.entries.pop().expect("used > 0 implies a victim");
            evicted.push(victim);
        }
        self.entries.insert(0, (file, kb));
        evicted
    }
}

/// Reference GDS(1): a flat table scanned for the minimum-priority
/// victim, with the same float arithmetic as the real implementation so
/// priorities compare bit-for-bit.
struct NaiveGds {
    capacity_kb: f64,
    aging: f64,
    entries: Vec<(u32, f64, f64)>, // (file, kb, priority)
}

impl NaiveGds {
    fn new(capacity_kb: f64) -> Self {
        NaiveGds {
            capacity_kb,
            aging: 0.0,
            entries: Vec::new(),
        }
    }

    fn used_kb(&self) -> f64 {
        self.entries.iter().map(|&(_, kb, _)| kb).sum()
    }

    fn touch(&mut self, file: u32) -> bool {
        let aging = self.aging;
        match self.entries.iter_mut().find(|(f, _, _)| *f == file) {
            Some((_, kb, pri)) => {
                *pri = aging + 1.0 / *kb;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, file: u32, kb: f64) -> Vec<u32> {
        if self.touch(file) {
            return Vec::new();
        }
        if kb > self.capacity_kb {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used_kb() + kb > self.capacity_kb {
            // Victim: minimum (priority bits, file id) — the exact key
            // order of the real heap, ties broken by lower file id.
            let i = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(f, _, pri))| (pri.to_bits(), f))
                .map(|(i, _)| i)
                .expect("used > 0 implies a victim");
            let (victim, _, pri) = self.entries.swap_remove(i);
            self.aging = self.aging.max(pri);
            evicted.push(victim);
        }
        self.entries.push((file, kb, self.aging + 1.0 / kb));
        evicted
    }
}

/// Deterministic per-file size so re-inserts always agree with the
/// original size (the equivalence below does not model resizing).
fn file_kb(file: u32) -> f64 {
    1.0 + (file % 23) as f64 * 3.25
}

/// The policy a drawn flag picks.
fn policy(gds: bool) -> CachePolicy {
    if gds {
        CachePolicy::GreedyDualSize
    } else {
        CachePolicy::Lru
    }
}

proptest! {
    /// Under either policy the cache never exceeds capacity, never
    /// double-counts a file, and hit/miss statistics tally with
    /// lookups, across touches, inserts and the occasional crash wipe.
    #[test]
    fn cache_accounting_invariants(
        gds in prop::bool::ANY,
        capacity in 10.0f64..500.0,
        ops in prop::collection::vec((0u32..200, 0.5f64..60.0, 0u8..16), 1..500),
    ) {
        let mut cache = FileCache::new(policy(gds), capacity);
        let mut lookups = 0u64;
        for (file, kb, op) in ops {
            match op {
                0..=6 => {
                    cache.touch(file);
                    lookups += 1;
                }
                7..=14 => {
                    cache.insert(file, kb);
                }
                _ => cache.clear(),
            }
            prop_assert!(cache.used_kb() <= capacity + 1e-9);
            let listed: f64 = cache.iter_resident().map(|(_, s)| s).sum();
            prop_assert!((listed - cache.used_kb()).abs() < 1e-6);
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, lookups);
        }
    }

    /// Under either policy, iteration yields each resident file exactly
    /// once.
    #[test]
    fn resident_iteration_is_a_set(
        gds in prop::bool::ANY,
        ops in prop::collection::vec((0u32..50, 1.0f64..10.0), 1..300),
    ) {
        let mut cache = FileCache::new(policy(gds), 120.0);
        for (file, kb) in ops {
            cache.insert(file, kb);
        }
        let files: Vec<_> = cache.iter_resident().map(|(f, _)| f).collect();
        let mut dedup = files.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), files.len(), "duplicate in resident list");
        for f in files {
            prop_assert!(cache.contains(f));
        }
    }

    /// The stamp-harvest LRU evicts exactly what a naive MRU-vector LRU
    /// evicts, in the same order, across random touch/insert workloads.
    #[test]
    fn lru_matches_naive_reference_evictions(
        capacity in 20.0f64..400.0,
        ops in prop::collection::vec((0u32..80, prop::bool::ANY), 1..600),
    ) {
        let mut real = FileCache::new(CachePolicy::Lru, capacity);
        let mut naive = NaiveLru::new(capacity);
        for (file, is_touch) in ops {
            if is_touch {
                prop_assert_eq!(real.touch(file), naive.touch(file));
            } else {
                let kb = file_kb(file);
                let got: Vec<FileId> = real.insert(file, kb).to_vec();
                let want: Vec<FileId> =
                    naive.insert(file, kb).into_iter().map(FileId::from_raw).collect();
                prop_assert_eq!(got, want, "eviction sequences diverged");
            }
            prop_assert!((real.used_kb() - naive.used_kb()).abs() < 1e-6);
            prop_assert_eq!(real.len(), naive.entries.len());
        }
    }

    /// The lazy-invalidation GDS heap evicts exactly what a naive
    /// scan-for-minimum GDS evicts, in the same order, and tracks the
    /// same aging baseline bit-for-bit.
    #[test]
    fn gds_matches_naive_reference_evictions(
        capacity in 20.0f64..400.0,
        ops in prop::collection::vec((0u32..80, prop::bool::ANY), 1..600),
    ) {
        let mut real = FileCache::new(CachePolicy::GreedyDualSize, capacity);
        let mut naive = NaiveGds::new(capacity);
        for (file, is_touch) in ops {
            if is_touch {
                prop_assert_eq!(real.touch(file), naive.touch(file));
            } else {
                let kb = file_kb(file);
                let got: Vec<FileId> = real.insert(file, kb).to_vec();
                let want: Vec<FileId> =
                    naive.insert(file, kb).into_iter().map(FileId::from_raw).collect();
                prop_assert_eq!(got, want, "eviction sequences diverged");
            }
            prop_assert_eq!(
                real.aging().to_bits(),
                naive.aging.to_bits(),
                "aging baselines diverged"
            );
            prop_assert!((real.used_kb() - naive.used_kb()).abs() < 1e-6);
            prop_assert_eq!(real.len(), naive.entries.len());
        }
    }

    /// Every cost formula is non-negative and monotone in transfer size.
    #[test]
    fn costs_monotone_in_size(a in 0.1f64..1_000.0, b in 0.1f64..1_000.0) {
        let costs = NodeCosts::default();
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(costs.mem_reply(small) <= costs.mem_reply(large));
        prop_assert!(costs.disk_read(small) <= costs.disk_read(large));
        prop_assert!(costs.ni_out(small) <= costs.ni_out(large));
        prop_assert!(costs.disk_read(small).as_nanos() > 0);
    }
}
