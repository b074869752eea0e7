//! GreedyDual-Size caching (Cao & Irani, USENIX Symposium on Internet
//! Technologies and Systems 1997) — the classic WWW cache replacement
//! policy, provided as an ablation against the paper's LRU.
//!
//! Each resident file carries a priority `H(f) = L + cost(f)/size(f)`
//! where `L` is an aging baseline. Eviction removes the minimum-priority
//! file and raises `L` to its priority; a hit refreshes the file's
//! priority with the current `L`. With unit cost (the variant
//! implemented here, "GDS(1)"), small files are preferentially kept —
//! appropriate when the goal is maximizing hit *count*.
//!
//! # Structure
//!
//! Per-file state lives in a packed pool of resident files, located
//! through the same resident [`Directory`] as the LRU's (so it is sized
//! to what is cached, not to the file population); the eviction order
//! lives in a binary min-heap of `(priority bits, FileId)` keys with
//! **lazy invalidation**: refreshing
//! a priority pushes a new key and leaves the old one in the heap to be
//! skipped when popped (a key is live iff its file is resident *and* the
//! bits match the file's current priority). Every live entry's current
//! key is always in the heap, so when eviction pops keys in ascending
//! order and discards the stale ones, the first live key to surface is
//! the true minimum over all live keys. The heap is compacted (rebuilt
//! from the pool) when stale keys outnumber live ones; keys are unique
//! per resident file, so the rebuild order cannot change what pops.

use crate::directory::Directory;
use crate::{CacheStats, FileId};
use l2s_util::{cast, invariant};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Priority key ordered as `(priority bits, file)`. Priorities are
/// non-negative finite floats, so their IEEE-754 bit patterns order
/// identically to their values.
type PriKey = (u64, FileId);

/// One resident file.
#[derive(Clone, Copy, Debug)]
struct GdsEntry {
    file: FileId,
    kb: f64,
    pri: f64,
}

/// A GreedyDual-Size(1) cache with a byte (KB) capacity.
#[derive(Clone, Debug)]
pub struct GdsCache {
    capacity_kb: f64,
    used_kb: f64,
    aging: f64,
    /// Resident files, packed in no particular order.
    entries: Vec<GdsEntry>,
    /// Resident file -> its index in `entries`.
    dir: Directory,
    /// Min-heap of possibly-stale priority keys (see module docs).
    heap: BinaryHeap<Reverse<PriKey>>,
    /// Victims of the latest `insert`, reused so eviction never allocates.
    evicted: Vec<FileId>,
    stats: CacheStats,
}

impl GdsCache {
    /// Creates a cache holding at most `capacity_kb` KB.
    pub fn new(capacity_kb: f64) -> Self {
        l2s_util::invariant!(
            capacity_kb > 0.0 && capacity_kb.is_finite(),
            "capacity must be positive"
        );
        GdsCache {
            capacity_kb,
            used_kb: 0.0,
            aging: 0.0,
            entries: Vec::new(),
            dir: Directory::default(),
            heap: BinaryHeap::new(),
            evicted: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn priority(&self, kb: f64) -> f64 {
        self.aging + 1.0 / kb
    }

    fn key(pri: f64, file: FileId) -> PriKey {
        (pri.to_bits(), file)
    }

    /// Index of `file` in `entries`, or `None` when not resident.
    #[inline]
    fn slot_of(&self, file: FileId) -> Option<usize> {
        self.dir.get(file).map(cast::wide_usize)
    }

    /// Re-keys entry `slot` to its current-aging priority and records
    /// the new key (the heap keeps the old key as a stale duplicate).
    fn refresh(&mut self, slot: usize) {
        let pri = self.priority(self.entries[slot].kb);
        let e = &mut self.entries[slot];
        e.pri = pri;
        self.heap.push(Reverse(Self::key(pri, e.file)));
        self.maybe_compact();
    }

    /// Makes `file` resident at its current-aging priority.
    fn add(&mut self, file: FileId, kb: f64) {
        let slot = self.entries.len();
        self.entries.push(GdsEntry { file, kb, pri: 0.0 });
        self.dir.insert(file, cast::index_u32(slot));
        self.refresh(slot);
    }

    /// Drops entry `slot`, moving the pool's last entry into its place.
    fn remove_at(&mut self, slot: usize) {
        self.dir.remove(self.entries[slot].file);
        self.entries.swap_remove(slot);
        if let Some(moved) = self.entries.get(slot) {
            self.dir.retarget(moved.file, cast::index_u32(slot));
        }
    }

    /// Rebuilds the heap from the pool once stale keys dominate. Every
    /// resident file contributes its one current key, and keys are
    /// unique, so the rebuilt heap pops exactly what the old one would
    /// have after discarding its stale keys.
    fn maybe_compact(&mut self) {
        if self.heap.len() <= 2 * self.entries.len() + 64 {
            return;
        }
        self.heap.clear();
        for e in &self.entries {
            self.heap.push(Reverse(Self::key(e.pri, e.file)));
        }
    }

    /// Configured capacity in KB.
    pub fn capacity_kb(&self) -> f64 {
        self.capacity_kb
    }

    /// Bytes currently resident, in KB.
    pub fn used_kb(&self) -> f64 {
        self.used_kb
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The current aging baseline `L` (for tests).
    pub fn aging(&self) -> f64 {
        self.aging
    }

    /// Whether `file` is resident, without touching priority or stats.
    pub fn contains(&self, file: impl Into<FileId>) -> bool {
        self.slot_of(file.into()).is_some()
    }

    /// Looks up `file`: on a hit, refreshes its priority and returns
    /// `true`. Updates statistics.
    pub fn touch(&mut self, file: impl Into<FileId>) -> bool {
        match self.slot_of(file.into()) {
            Some(slot) => {
                self.stats.hits += 1;
                self.refresh(slot);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Pops heap keys until the minimum *live* one surfaces, and returns
    /// its entry's index. `None` when no live key remains.
    fn pop_min_live(&mut self) -> Option<usize> {
        while let Some(Reverse((bits, file))) = self.heap.pop() {
            match self.slot_of(file) {
                Some(slot) if self.entries[slot].pri.to_bits() == bits => return Some(slot),
                _ => {}
            }
        }
        None
    }

    /// Drops every resident file (a node crash wipes main memory) and
    /// resets the aging baseline — a rebooted node starts cold, exactly
    /// like a fresh cache. Statistics are kept: they describe the
    /// measurement window, not the cache contents.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dir.clear();
        self.heap.clear();
        self.used_kb = 0.0;
        self.aging = 0.0;
        self.evicted.clear();
    }

    /// Inserts `file` of `kb` KB, evicting minimum-priority files until
    /// it fits. Returns the evicted files (a borrow of internal scratch,
    /// valid until the next `insert`). Oversized files are not cached.
    pub fn insert(&mut self, file: impl Into<FileId>, kb: f64) -> &[FileId] {
        let file = file.into();
        l2s_util::invariant!(kb > 0.0 && kb.is_finite(), "file size must be positive");
        self.evicted.clear();
        if let Some(slot) = self.slot_of(file) {
            let old_kb = self.entries[slot].kb;
            if (old_kb - kb).abs() < 1e-12 {
                // Plain refresh.
                self.refresh(slot);
                return &self.evicted;
            }
            // Size changed: drop the stale residency and insert fresh
            // below, so growth goes through the eviction loop.
            self.used_kb -= old_kb;
            self.remove_at(slot);
        }
        if kb > self.capacity_kb {
            return &self.evicted;
        }
        while self.used_kb + kb > self.capacity_kb {
            let Some(victim) = self.pop_min_live() else {
                invariant!(
                    false,
                    "GDS accounting out of sync: {used} KB resident but the priority queue is empty",
                    used = self.used_kb
                );
                break;
            };
            let e = self.entries[victim];
            self.used_kb -= e.kb;
            self.aging = self.aging.max(e.pri);
            self.remove_at(victim);
            self.stats.evictions += 1;
            self.evicted.push(e.file);
        }
        self.add(file, kb);
        self.used_kb += kb;
        self.stats.insertions += 1;
        invariant!(
            self.used_kb <= self.capacity_kb + 1e-9,
            "GDS byte conservation violated: {used} KB resident exceeds capacity {cap} KB",
            used = self.used_kb,
            cap = self.capacity_kb
        );
        &self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_touch_and_stats() {
        let mut c = GdsCache::new(100.0);
        assert!(c.insert(1, 40.0).is_empty());
        assert!(c.touch(1));
        assert!(!c.touch(2));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_kb(), 40.0);
    }

    #[test]
    fn prefers_keeping_small_files() {
        let mut c = GdsCache::new(100.0);
        c.insert(1, 80.0); // large: H = 1/80
        c.insert(2, 10.0); // small: H = 1/10
                           // A new insert that needs room evicts the large file first.
        let evicted = c.insert(3, 50.0);
        assert_eq!(evicted, vec![1], "large file evicted first");
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn aging_lets_new_files_displace_stale_small_ones() {
        let mut c = GdsCache::new(20.0);
        c.insert(1, 10.0); // H = 0.1
                           // Evictions raise L; eventually even files larger than old
                           // residents get in because L grows.
        for f in 2..50u32 {
            c.insert(f, 15.0);
        }
        assert!(c.aging() > 0.0);
        assert!(!c.contains(1), "stale small file aged out");
    }

    #[test]
    fn oversized_files_bypass() {
        let mut c = GdsCache::new(50.0);
        c.insert(1, 20.0);
        assert!(c.insert(2, 60.0).is_empty());
        assert!(!c.contains(2));
        assert!(c.contains(1));
    }

    #[test]
    fn capacity_respected_under_churn() {
        let mut rng = l2s_util::DetRng::new(5);
        let mut c = GdsCache::new(300.0);
        for _ in 0..5_000 {
            let f = FileId::from_raw(rng.below(100) as u32);
            if rng.chance(0.5) {
                c.touch(f);
            } else {
                c.insert(f, 1.0 + rng.f64() * 30.0);
            }
            assert!(c.used_kb() <= 300.0 + 1e-6);
            // Lazy invalidation: the heap may hold stale keys, but
            // compaction bounds them and every live entry stays keyed.
            assert!(c.heap.len() >= c.len(), "live key missing from heap");
            assert!(
                c.heap.len() <= 2 * c.len() + 64,
                "compaction failed to bound stale keys: {} keys for {} live",
                c.heap.len(),
                c.len()
            );
        }
    }

    #[test]
    fn clear_empties_contents_and_resets_aging() {
        let mut c = GdsCache::new(20.0);
        for f in 1..10u32 {
            c.insert(f, 15.0); // churn to raise the aging baseline
        }
        assert!(c.aging() > 0.0);
        let before = c.stats();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_kb(), 0.0);
        assert_eq!(c.aging(), 0.0, "rebooted node starts cold");
        assert_eq!(c.stats(), before, "stats describe the window");
        assert!(c.insert(1, 20.0).is_empty());
        assert!(c.touch(1));
    }

    /// Ids near `u32::MAX` once sized the dense per-file table up to the
    /// id (about 16 GB per cache); a 1 MB cache holding such files stays
    /// KB-sized.
    #[test]
    fn high_file_ids_keep_the_cache_small() {
        use std::mem::size_of;
        let mut c = GdsCache::new(1_024.0);
        for i in 0..2_000u32 {
            c.insert(u32::MAX - i, 8.0);
            c.touch(u32::MAX - i / 2);
        }
        assert_eq!(c.len(), 128);
        let bytes = c.entries.capacity() * size_of::<GdsEntry>()
            + c.dir.heap_bytes()
            + c.heap.capacity() * size_of::<Reverse<PriKey>>()
            + c.evicted.capacity() * size_of::<FileId>();
        assert!(bytes <= 16 * 1_024, "{bytes} bytes");
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = GdsCache::new(100.0);
        c.insert(1, 10.0);
        c.touch(1);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.contains(1));
    }
}
