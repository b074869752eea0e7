//! A byte-capacity LRU cache of whole files.

use crate::directory::Directory;
use crate::FileId;
use l2s_util::{cast, invariant};
use std::collections::BinaryHeap;

/// Stamp marking a slot as free. Live stamps come from a counter that
/// starts at 1, so the sentinel never collides.
const FREE_STAMP: u64 = u64::MAX;

/// Victim candidates gathered per harvest scan. Larger batches amortize
/// the scan over more evictions; smaller ones keep candidates fresher
/// (a touched candidate is discarded at pop time). 64 keeps the scan
/// under 2% of eviction work for the paper's populations.
const HARVEST_BATCH: usize = 64;

#[derive(Clone, Debug)]
struct Slot {
    file: FileId,
    kb: f64,
    /// Recency stamp: strictly increasing across all assignments, so
    /// stamp order *is* recency order and stamps never repeat.
    /// [`FREE_STAMP`] while the slot sits on the free list.
    stamp: u64,
}

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the file resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Files inserted.
    pub insertions: u64,
    /// Files evicted to make room.
    pub evictions: u64,
}

/// An LRU cache of whole files with a byte (KB) capacity — the main
/// memory of one cluster node.
///
/// Files larger than the capacity are never cached (they stream from
/// disk every time), matching how a real server's unified buffer cache
/// behaves for oversized objects.
///
/// Recency is tracked by *stamps*, not a linked list: every hit writes
/// one monotone counter value into the slot it touched, and the LRU
/// victim is the live slot with the smallest stamp. Slots live in a pool
/// located through a `Directory` — an open-addressing table of slot
/// ids sized to the resident files, so a node's bookkeeping follows what
/// it caches rather than the file population (a dense id-indexed array
/// per node grew with nodes × files, and with the largest id inserted).
///
/// A doubly-linked recency list makes a hit splice ~4 random cache
/// lines; at hundreds of nodes the per-node lists sum to tens of MB and
/// that splice traffic dominates the simulator's hot path. The stamp
/// scheme makes a hit exactly one random write. Eviction finds victims
/// with a batched harvest: a sequential scan keeps the
/// `HARVEST_BATCH` oldest stamps in a bounded max-heap, and victims
/// pop in stamp order,
/// each validated against its slot (a candidate touched since the scan
/// has a newer stamp and is discarded). Because stamps are unique and
/// every assignment exceeds all earlier ones, a validated candidate is
/// *the* global minimum — the eviction sequence is exact LRU, identical
/// to the linked-list implementation's.
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity_kb: f64,
    used_kb: f64,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Resident file -> slot holding it.
    dir: Directory,
    /// Monotone recency counter; the last stamp handed out.
    clock: u64,
    /// Pending victim candidates `(stamp, slot)`, at most
    /// [`HARVEST_BATCH`], sorted descending so `pop()` yields the oldest
    /// first. Entries are validated against the slot's current stamp
    /// when popped.
    harvest: Vec<(u64, u32)>,
    /// Victims of the latest `insert`, reused across calls so eviction
    /// never allocates.
    evicted: Vec<FileId>,
    stats: CacheStats,
}

impl LruCache {
    /// Creates a cache holding at most `capacity_kb` KB.
    pub fn new(capacity_kb: f64) -> Self {
        l2s_util::invariant!(
            capacity_kb > 0.0 && capacity_kb.is_finite(),
            "capacity must be positive"
        );
        LruCache {
            capacity_kb,
            used_kb: 0.0,
            slots: Vec::new(),
            free: Vec::new(),
            dir: Directory::default(),
            clock: 0,
            harvest: Vec::new(),
            evicted: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// A fresh, never-before-issued recency stamp.
    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Slot of `file`, or `None` when not resident.
    #[inline]
    fn slot_of(&self, file: FileId) -> Option<usize> {
        self.dir.get(file).map(cast::wide_usize)
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
        self.dir.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.dir.len() == 0
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the statistics (used after cache warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Whether `file` is resident, without touching recency or stats.
    pub fn contains(&self, file: impl Into<FileId>) -> bool {
        self.slot_of(file.into()).is_some()
    }

    /// Looks up `file`: on a hit, moves it to the MRU position and
    /// returns `true`; on a miss returns `false`. Updates statistics.
    pub fn touch(&mut self, file: impl Into<FileId>) -> bool {
        match self.slot_of(file.into()) {
            Some(slot) => {
                self.stats.hits += 1;
                let stamp = self.next_stamp();
                self.slots[slot].stamp = stamp;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Inserts `file` of `kb` KB at the MRU position, evicting LRU files
    /// until it fits. Returns the evicted files (a borrow of internal
    /// scratch, valid until the next `insert`). A file already resident
    /// is just refreshed (touch without stats). A file larger than the
    /// whole cache is not cached and evicts nothing.
    pub fn insert(&mut self, file: impl Into<FileId>, kb: f64) -> &[FileId] {
        let file = file.into();
        l2s_util::invariant!(kb > 0.0 && kb.is_finite(), "file size must be positive");
        self.evicted.clear();
        if let Some(slot) = self.slot_of(file) {
            let stamp = self.next_stamp();
            self.slots[slot].stamp = stamp;
            return &self.evicted;
        }
        if kb > self.capacity_kb {
            return &self.evicted;
        }
        while self.used_kb + kb > self.capacity_kb {
            invariant!(
                !self.is_empty(),
                "cache accounting out of sync: {used} KB used of {cap} KB but no LRU victim",
                used = self.used_kb,
                cap = self.capacity_kb
            );
            if self.is_empty() {
                break; // guard against float drift, like the clamp below
            }
            let lru = self.pop_lru();
            let victim = self.slots[lru].file;
            self.remove_slot(lru);
            self.stats.evictions += 1;
            self.evicted.push(victim);
        }
        let slot = self.alloc(file, kb);
        self.dir.insert(file, cast::index_u32(slot));
        self.used_kb += kb;
        self.stats.insertions += 1;
        invariant!(
            self.used_kb <= self.capacity_kb + 1e-9,
            "cache byte conservation violated: {used} KB resident exceeds capacity {cap} KB",
            used = self.used_kb,
            cap = self.capacity_kb
        );
        &self.evicted
    }

    /// Drops every resident file (a node crash wipes main memory).
    /// Statistics are kept — they describe the measurement window, not
    /// the cache contents.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.dir.clear();
        self.harvest.clear();
        self.used_kb = 0.0;
        self.evicted.clear();
    }

    /// Resident files from most- to least-recently used (stamp
    /// descending). Materializes and sorts a snapshot — O(n log n), for
    /// inspection and tests, not the simulation hot path.
    pub fn iter_mru(&self) -> impl Iterator<Item = (FileId, f64)> + '_ {
        let mut resident: Vec<&Slot> = self
            .slots
            .iter()
            .filter(|s| s.stamp != FREE_STAMP)
            .collect();
        resident.sort_unstable_by(|a, b| b.stamp.cmp(&a.stamp));
        resident.into_iter().map(|s| (s.file, s.kb))
    }

    fn alloc(&mut self, file: FileId, kb: f64) -> usize {
        let stamp = self.next_stamp();
        let slot = Slot { file, kb, stamp };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// The live slot with the globally smallest stamp — the exact LRU
    /// victim. Candidates come from the harvest batch; a popped
    /// candidate whose slot was touched, freed, or reallocated since the
    /// scan carries a different stamp (stamps never repeat) and is
    /// discarded. Every slot left out of a scan was strictly newer than
    /// the whole batch and only gets newer, so a validated candidate is
    /// the true minimum. Caller guarantees the cache is non-empty.
    fn pop_lru(&mut self) -> usize {
        loop {
            match self.harvest.pop() {
                Some((stamp, slot)) => {
                    let s = cast::wide_usize(slot);
                    if self.slots[s].stamp == stamp {
                        return s;
                    }
                }
                None => self.refill_harvest(),
            }
        }
    }

    /// Scans the slot pool sequentially and keeps the
    /// [`HARVEST_BATCH`] oldest live slots, sorted so `pop()` yields
    /// stamp-ascending (LRU-first) order. The selection is a max-heap
    /// bounded to the batch: its top is the newest candidate kept, and
    /// an older slot replaces it. Stamps are unique, so the batch is
    /// exactly the oldest slots whatever the scan order.
    fn refill_harvest(&mut self) {
        // Only called once the last batch is drained: this reuses its
        // (empty) buffer.
        let mut batch = BinaryHeap::from(std::mem::take(&mut self.harvest));
        for (i, s) in self.slots.iter().enumerate() {
            if s.stamp == FREE_STAMP {
                continue;
            }
            let candidate = (s.stamp, cast::index_u32(i));
            if batch.len() < HARVEST_BATCH {
                batch.push(candidate);
            } else if let Some(mut newest) = batch.peek_mut() {
                if candidate < *newest {
                    *newest = candidate;
                }
            }
        }
        self.harvest = batch.into_sorted_vec();
        self.harvest.reverse();
    }

    fn remove_slot(&mut self, slot: usize) {
        let file = self.slots[slot].file;
        self.dir.remove(file);
        self.slots[slot].stamp = FREE_STAMP;
        self.used_kb -= self.slots[slot].kb;
        invariant!(
            self.used_kb > -1e-6,
            "cache byte conservation violated: removing {file} left {used} KB resident",
            used = self.used_kb
        );
        if self.used_kb < 0.0 {
            self.used_kb = 0.0; // guard against float drift
        }
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_touch() {
        let mut c = LruCache::new(100.0);
        assert!(c.insert(1, 40.0).is_empty());
        assert!(c.touch(1));
        assert!(!c.touch(2));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_kb(), 40.0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        // Touch 1 so 2 becomes LRU.
        c.touch(1);
        let evicted = c.insert(3, 40.0);
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn evicts_multiple_to_fit_large_file() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 30.0);
        c.insert(2, 30.0);
        c.insert(3, 30.0);
        // 80 KB only fits once all three 30 KB files are gone
        // (30 + 80 = 110 > 100).
        let evicted = c.insert(4, 80.0);
        assert_eq!(evicted, vec![1, 2, 3]);
        assert_eq!(c.used_kb(), 80.0);
        assert!(c.used_kb() <= 100.0 + 1e-9);
    }

    #[test]
    fn oversized_file_is_not_cached() {
        let mut c = LruCache::new(50.0);
        c.insert(1, 30.0);
        let evicted = c.insert(2, 60.0);
        assert!(evicted.is_empty());
        assert!(!c.contains(2));
        assert!(c.contains(1), "resident files untouched");
    }

    #[test]
    fn reinserting_resident_file_refreshes_recency() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        c.insert(1, 40.0); // refresh, no growth
        assert_eq!(c.used_kb(), 80.0);
        let evicted = c.insert(3, 40.0);
        assert_eq!(evicted, vec![2], "2 was LRU after 1's refresh");
    }

    #[test]
    fn mru_iteration_order() {
        let mut c = LruCache::new(1000.0);
        c.insert(1, 10.0);
        c.insert(2, 10.0);
        c.insert(3, 10.0);
        c.touch(1);
        let order: Vec<FileId> = c.iter_mru().map(|(f, _)| f).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn stats_reset() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 10.0);
        c.touch(1);
        c.touch(9);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.contains(1), "contents survive stats reset");
    }

    #[test]
    fn clear_empties_contents_but_keeps_stats() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        c.touch(1);
        c.touch(9);
        let before = c.stats();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_kb(), 0.0);
        assert!(!c.contains(1) && !c.contains(2));
        assert_eq!(c.iter_mru().count(), 0);
        assert_eq!(c.stats(), before, "stats describe the window, not contents");
        // The cache works normally after the wipe.
        assert!(c.insert(3, 100.0).is_empty());
        assert!(c.touch(3));
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(30.0);
        for i in 0..1000u32 {
            c.insert(i, 10.0);
        }
        // Only 3 files fit; the slot pool must not grow unboundedly.
        assert_eq!(c.len(), 3);
        assert!(c.slots.len() <= 4, "slots = {}", c.slots.len());
    }

    /// Heap bytes the cache's bookkeeping holds.
    fn heap_bytes(c: &LruCache) -> usize {
        use std::mem::size_of;
        c.slots.capacity() * size_of::<Slot>()
            + c.free.capacity() * size_of::<usize>()
            + c.dir.heap_bytes()
            + c.harvest.capacity() * size_of::<(u64, u32)>()
            + c.evicted.capacity() * size_of::<FileId>()
    }

    /// Ids near `u32::MAX` once sized a dense index up to the id (about
    /// 16 GB per cache); a 1 MB cache holding such files stays KB-sized.
    #[test]
    fn high_file_ids_keep_the_cache_small() {
        let mut c = LruCache::new(1_024.0);
        for i in 0..2_000u32 {
            c.insert(u32::MAX - i, 8.0);
            c.touch(u32::MAX - i / 2);
        }
        assert_eq!(c.len(), 128);
        assert!(c.contains(u32::MAX - 1_999));
        assert!(heap_bytes(&c) <= 16 * 1_024, "{} bytes", heap_bytes(&c));
    }

    /// The harvest buffer holds one batch, however many files are
    /// resident.
    #[test]
    fn harvest_stays_one_batch() {
        let mut c = LruCache::new(10_000.0);
        for i in 0..20_000u32 {
            c.insert(i, 1.0);
        }
        assert_eq!(c.len(), 10_000);
        assert!(
            c.harvest.capacity() <= HARVEST_BATCH,
            "{}",
            c.harvest.capacity()
        );
    }

    #[test]
    fn stress_consistency() {
        let mut rng = l2s_util::DetRng::new(77);
        let mut c = LruCache::new(500.0);
        for _ in 0..20_000 {
            let f = FileId::from_raw(rng.below(200) as u32);
            if rng.chance(0.5) {
                c.touch(f);
            } else {
                c.insert(f, 1.0 + rng.f64() * 20.0);
            }
            assert!(c.used_kb() <= 500.0 + 1e-6);
        }
        // Index and list agree.
        assert_eq!(c.iter_mru().count(), c.len());
        let listed: f64 = c.iter_mru().map(|(_, kb)| kb).sum();
        assert!((listed - c.used_kb()).abs() < 1e-6);
    }
}
