//! The main-memory file cache of one node: whole files under a byte
//! capacity, replaced by LRU (the paper's policy) or by GreedyDual-Size
//! (Cao & Irani, USENIX Symposium on Internet Technologies and Systems
//! 1997) as an ablation.

use crate::directory::Directory;
use crate::FileId;
use l2s_util::{cast, invariant};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// LRU victim candidates gathered per harvest scan. Larger batches
/// amortize the scan over more evictions; smaller ones keep candidates
/// fresher (a refreshed candidate is discarded at pop time). 64 keeps
/// the scan under 2% of eviction work for the paper's populations.
const HARVEST_BATCH: usize = 64;

/// Which replacement policy a node's main-memory cache runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Least-recently-used over whole files (the paper's policy).
    #[default]
    Lru,
    /// GreedyDual-Size(1) (Cao & Irani 1997) — ablation.
    GreedyDualSize,
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

/// One resident file.
#[derive(Clone, Copy, Debug)]
struct Slot {
    file: FileId,
    kb: f64,
    /// Replacement key: the resident file with the smallest
    /// `(key, file)` is the next victim.
    key: u64,
}

/// What the policy decides: the key a refreshed file gets, and where
/// the smallest key is found. Candidates from either source may be
/// stale; the cache checks each against its file's current key.
#[derive(Clone, Debug)]
enum Order {
    /// LRU: a refresh stamps the counter's next value, so key order is
    /// recency order and keys never repeat.
    Lru {
        /// The last stamp handed out.
        clock: u64,
        /// At most [`HARVEST_BATCH`] `(key, file)` candidates from the
        /// last scan of the pool, sorted descending so `pop()` yields
        /// the oldest first.
        harvest: Vec<(u64, FileId)>,
    },
    /// GreedyDual-Size(1): a refresh stamps the priority
    /// `H = aging + 1/kb` (unit cost, so small files are kept). Its
    /// IEEE-754 bits order like the value, since `H` is positive and
    /// finite.
    Gds {
        /// The aging baseline `L`: the highest priority evicted so far.
        aging: f64,
        /// Min-heap of every key handed out, lazily invalidated: a
        /// refresh pushes the new key and leaves the old one to be
        /// skipped when it pops.
        heap: BinaryHeap<Reverse<(u64, FileId)>>,
    },
}

impl Order {
    fn new(policy: CachePolicy) -> Self {
        match policy {
            CachePolicy::Lru => Order::Lru {
                clock: 0,
                harvest: Vec::new(),
            },
            CachePolicy::GreedyDualSize => Order::Gds {
                aging: 0.0,
                heap: BinaryHeap::new(),
            },
        }
    }
}

/// A cache of whole files with a byte (KB) capacity — the main memory
/// of one cluster node.
///
/// Files larger than the capacity are never cached (they stream from
/// disk every time), matching how a real server's unified buffer cache
/// behaves for oversized objects.
///
/// Resident files sit in a packed pool, found through a `Directory` —
/// an open-addressing table sized to the resident files, so a node's
/// bookkeeping follows what it caches rather than the file population.
/// Every resident file carries a `u64` key, and the victim is always
/// the resident file with the smallest `(key, file)`; the policy only
/// decides the key a hit stamps and how the smallest one is found.
///
/// * **LRU** stamps a monotone counter, so a hit is exactly one random
///   write (a linked recency list would splice ~4 cache lines, and at
///   hundreds of nodes that traffic dominates the simulator's hot
///   path). Victims come from a batched harvest: a sequential scan
///   keeps the 64 smallest keys in a bounded max-heap, and they pop in
///   key order. Every file left out of a scan was newer than the whole
///   batch and only gets newer, so a candidate whose file still holds
///   its key is the global minimum: exact LRU.
/// * **GreedyDual-Size** pushes every key it stamps onto a min-heap and
///   pops it with lazy invalidation; every resident file's current key
///   is in the heap, so the first candidate that still matches its file
///   is the global minimum: exact GDS(1). Evicting raises the aging
///   baseline to the victim's priority. The heap is rebuilt from the
///   pool once stale keys outnumber live ones; keys are unique per
///   resident file, so the rebuild cannot change what pops.
#[derive(Clone, Debug)]
pub struct FileCache {
    capacity_kb: f64,
    used_kb: f64,
    /// Resident files, packed in no particular order.
    slots: Vec<Slot>,
    /// Resident file -> its index in `slots`.
    dir: Directory,
    order: Order,
    /// Victims of the latest `insert`, reused so eviction never
    /// allocates.
    evicted: Vec<FileId>,
    stats: CacheStats,
}

impl FileCache {
    /// Creates a cache of `capacity_kb` KB with the given policy.
    pub fn new(policy: CachePolicy, capacity_kb: f64) -> Self {
        invariant!(
            capacity_kb > 0.0 && capacity_kb.is_finite(),
            "capacity must be positive"
        );
        FileCache {
            capacity_kb,
            used_kb: 0.0,
            slots: Vec::new(),
            dir: Directory::default(),
            order: Order::new(policy),
            evicted: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> CachePolicy {
        match self.order {
            Order::Lru { .. } => CachePolicy::Lru,
            Order::Gds { .. } => CachePolicy::GreedyDualSize,
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
        self.dir.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the statistics (used after cache warm-up), keeping
    /// contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// GreedyDual-Size's aging baseline `L`; 0 under LRU.
    pub fn aging(&self) -> f64 {
        match self.order {
            Order::Lru { .. } => 0.0,
            Order::Gds { aging, .. } => aging,
        }
    }

    /// Slot of `file`, or `None` when not resident.
    #[inline]
    fn slot_of(&self, file: FileId) -> Option<usize> {
        self.dir.get(file).map(cast::wide_usize)
    }

    /// Whether `file` is resident, without touching its key or stats.
    pub fn contains(&self, file: impl Into<FileId>) -> bool {
        self.slot_of(file.into()).is_some()
    }

    /// Looks up `file`: on a hit, refreshes its key and returns `true`;
    /// on a miss returns `false`. Updates statistics.
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

    /// Inserts `file` of `kb` KB, evicting smallest-key files until it
    /// fits. Returns the evicted files (a borrow of internal scratch,
    /// valid until the next `insert`). A file already resident is just
    /// refreshed (a touch without stats), keeping its size. A file
    /// larger than the whole cache is not cached and evicts nothing.
    pub fn insert(&mut self, file: impl Into<FileId>, kb: f64) -> &[FileId] {
        let file = file.into();
        invariant!(kb > 0.0 && kb.is_finite(), "file size must be positive");
        self.evicted.clear();
        if let Some(slot) = self.slot_of(file) {
            self.refresh(slot);
            return &self.evicted;
        }
        if kb > self.capacity_kb {
            return &self.evicted;
        }
        while self.used_kb + kb > self.capacity_kb {
            let Some(slot) = self.pop_victim() else {
                invariant!(
                    false,
                    "cache accounting out of sync: {used} KB used of {cap} KB but no victim",
                    used = self.used_kb,
                    cap = self.capacity_kb
                );
                break; // guard against float drift, like the clamp in `remove`
            };
            let victim = self.slots[slot];
            if let Order::Gds { aging, .. } = &mut self.order {
                *aging = aging.max(f64::from_bits(victim.key));
            }
            self.remove(slot);
            self.stats.evictions += 1;
            self.evicted.push(victim.file);
        }
        self.dir.insert(file, cast::index_u32(self.slots.len()));
        self.slots.push(Slot { file, kb, key: 0 });
        self.refresh(self.slots.len() - 1);
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

    /// Drops every resident file (a node crash wipes main memory) and
    /// resets the policy's order, so a rebooted node starts exactly like
    /// a fresh cache. Statistics are kept — they describe the
    /// measurement window, not the cache contents.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.dir.clear();
        self.used_kb = 0.0;
        self.evicted.clear();
        self.order = Order::new(self.policy());
    }

    /// Resident files and their sizes, the last to be evicted first:
    /// most- to least-recently used under LRU, highest priority first
    /// under GreedyDual-Size. Materializes and sorts a snapshot —
    /// O(n log n), for inspection and tests, not the hot path.
    pub fn iter_resident(&self) -> impl Iterator<Item = (FileId, f64)> + '_ {
        let mut resident: Vec<&Slot> = self.slots.iter().collect();
        resident.sort_unstable_by_key(|s| Reverse((s.key, s.file)));
        resident.into_iter().map(|s| (s.file, s.kb))
    }

    /// Stamps the file in `slot` with the key a refresh earns. Under
    /// LRU that is one write; under GDS the key also goes on the heap.
    #[inline]
    fn refresh(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        match &mut self.order {
            Order::Lru { clock, .. } => {
                *clock += 1;
                s.key = *clock;
            }
            Order::Gds { aging, heap } => {
                s.key = (*aging + 1.0 / s.kb).to_bits();
                heap.push(Reverse((s.key, s.file)));
                if heap.len() > 2 * self.slots.len() + 64 {
                    heap.clear();
                    heap.extend(self.slots.iter().map(|s| Reverse((s.key, s.file))));
                }
            }
        }
    }

    /// The resident file with the smallest `(key, file)` — the exact
    /// victim. A candidate whose file was refreshed or evicted since it
    /// was taken carries a key its file no longer holds, and is
    /// discarded. `None` only when nothing is resident.
    fn pop_victim(&mut self) -> Option<usize> {
        loop {
            let (key, file) = match &mut self.order {
                Order::Lru { harvest, .. } => {
                    if harvest.is_empty() {
                        refill_harvest(harvest, &self.slots);
                    }
                    harvest.pop()?
                }
                Order::Gds { heap, .. } => heap.pop()?.0,
            };
            match self.slot_of(file) {
                Some(slot) if self.slots[slot].key == key => return Some(slot),
                _ => {}
            }
        }
    }

    /// Drops the file in `slot`, moving the pool's last file into its
    /// place.
    fn remove(&mut self, slot: usize) {
        let gone = self.slots.swap_remove(slot);
        self.dir.remove(gone.file);
        if let Some(moved) = self.slots.get(slot) {
            self.dir.retarget(moved.file, cast::index_u32(slot));
        }
        self.used_kb -= gone.kb;
        invariant!(
            self.used_kb > -1e-6,
            "cache byte conservation violated: removing {file} left {used} KB resident",
            file = gone.file,
            used = self.used_kb
        );
        if self.used_kb < 0.0 {
            self.used_kb = 0.0; // guard against float drift
        }
    }
}

/// Refills an empty `harvest` with the [`HARVEST_BATCH`] smallest
/// `(key, file)` of the pool, sorted so `pop()` yields them smallest
/// first. The selection is a max-heap bounded to the batch: its top is
/// the largest candidate kept, and a smaller one replaces it. Keys are
/// unique under LRU, so the batch is exactly the oldest files whatever
/// the pool's order.
fn refill_harvest(harvest: &mut Vec<(u64, FileId)>, slots: &[Slot]) {
    // Reuses the drained batch's buffer.
    let mut batch = BinaryHeap::from(std::mem::take(harvest));
    for s in slots {
        let candidate = (s.key, s.file);
        if batch.len() < HARVEST_BATCH {
            batch.push(candidate);
        } else if let Some(mut largest) = batch.peek_mut() {
            if candidate < *largest {
                *largest = candidate;
            }
        }
    }
    *harvest = batch.into_sorted_vec();
    harvest.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [CachePolicy; 2] = [CachePolicy::Lru, CachePolicy::GreedyDualSize];

    fn lru(capacity_kb: f64) -> FileCache {
        FileCache::new(CachePolicy::Lru, capacity_kb)
    }

    fn gds(capacity_kb: f64) -> FileCache {
        FileCache::new(CachePolicy::GreedyDualSize, capacity_kb)
    }

    #[test]
    fn insert_touch_and_stats() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 100.0);
            assert_eq!(c.policy(), policy);
            assert!(c.is_empty());
            assert!(c.insert(1, 40.0).is_empty());
            assert!(c.contains(1));
            assert!(c.touch(1));
            assert!(!c.touch(2));
            let s = c.stats();
            assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1), "{policy:?}");
            assert_eq!(c.len(), 1);
            assert_eq!(c.used_kb(), 40.0);
            assert_eq!(c.capacity_kb(), 100.0);
        }
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(CachePolicy::default(), CachePolicy::Lru);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = lru(100.0);
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
        let mut c = lru(100.0);
        c.insert(1, 30.0);
        c.insert(2, 30.0);
        c.insert(3, 30.0);
        // 80 KB only fits once all three 30 KB files are gone
        // (30 + 80 = 110 > 100).
        let evicted = c.insert(4, 80.0);
        assert_eq!(evicted, vec![1, 2, 3]);
        assert_eq!(c.used_kb(), 80.0);
    }

    #[test]
    fn gds_prefers_keeping_small_files() {
        let mut c = gds(100.0);
        c.insert(1, 80.0); // large: H = 1/80
        c.insert(2, 10.0); // small: H = 1/10
        let evicted = c.insert(3, 50.0);
        assert_eq!(
            evicted,
            vec![1],
            "a file that needs room evicts the large one first"
        );
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn gds_aging_lets_new_files_displace_stale_small_ones() {
        let mut c = gds(20.0);
        // Evictions raise L; eventually even files larger than old
        // residents get in because L grows.
        c.insert(1, 10.0); // H = 0.1
        for f in 2..50u32 {
            c.insert(f, 15.0);
        }
        assert!(c.aging() > 0.0);
        assert!(!c.contains(1), "stale small file aged out");
    }

    #[test]
    fn policies_differ_on_size_skewed_eviction() {
        // One big + small files; a new insert evicts differently.
        let build = |policy| {
            let mut c = FileCache::new(policy, 100.0);
            c.insert(1, 70.0); // big, oldest
            c.insert(2, 10.0);
            c.insert(3, 10.0);
            // Touch 1 so it is MRU for LRU purposes.
            c.touch(1);
            c.insert(4, 30.0).to_vec()
        };
        // LRU evicts by recency (2 then 3); GDS evicts the big file.
        assert_eq!(build(CachePolicy::Lru), vec![2, 3]);
        assert_eq!(build(CachePolicy::GreedyDualSize), vec![1]);
    }

    #[test]
    fn inserting_a_resident_file_refreshes_it() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 30.0);
            c.insert(1, 10.0);
            c.insert(2, 10.0);
            // Evicts 1: the older file under LRU, the lower id of two
            // equal priorities under GDS (which raises L to 0.1).
            assert_eq!(c.insert(3, 20.0), vec![1], "{policy:?}");
            // 2 is now the victim under both policies (LRU: older than
            // 3; GDS: H = 0.1 against 3's 0.15) until it is re-inserted.
            // The re-insert refreshes it at its resident size.
            let before = c.stats();
            assert!(c.insert(2, 25.0).is_empty());
            assert_eq!(c.used_kb(), 30.0, "{policy:?}");
            assert_eq!(c.stats(), before, "a refresh counts nothing");
            assert_eq!(c.insert(4, 10.0), vec![3], "{policy:?}");
        }
    }

    #[test]
    fn oversized_file_is_not_cached() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 50.0);
            c.insert(1, 30.0);
            assert!(c.insert(2, 60.0).is_empty());
            assert!(!c.contains(2));
            assert!(c.contains(1), "resident files untouched");
        }
    }

    #[test]
    fn mru_iteration_order() {
        let mut c = lru(1000.0);
        c.insert(1, 10.0);
        c.insert(2, 10.0);
        c.insert(3, 10.0);
        c.touch(1);
        let order: Vec<FileId> = c.iter_resident().map(|(f, _)| f).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 100.0);
            c.insert(1, 10.0);
            c.touch(1);
            c.touch(9);
            c.reset_stats();
            assert_eq!(c.stats(), CacheStats::default());
            assert!(c.contains(1), "contents survive stats reset");
        }
    }

    #[test]
    fn clear_empties_contents_and_order_but_keeps_stats() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 20.0);
            for f in 1..10u32 {
                c.insert(f, 15.0); // churn: raises GDS's aging baseline
            }
            c.touch(9);
            c.touch(1);
            assert_eq!(c.aging() > 0.0, policy == CachePolicy::GreedyDualSize);
            let before = c.stats();
            c.clear();
            assert!(c.is_empty());
            assert_eq!(c.used_kb(), 0.0);
            assert!(!c.contains(9));
            assert_eq!(c.iter_resident().count(), 0);
            assert_eq!(c.aging(), 0.0, "a rebooted node starts cold");
            assert_eq!(c.stats(), before, "stats describe the window, not contents");
            // The cache works normally after the wipe.
            assert!(c.insert(3, 20.0).is_empty());
            assert!(c.touch(3));
        }
    }

    #[test]
    fn pool_is_reused_after_eviction() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 30.0);
            for i in 0..1000u32 {
                c.insert(i, 10.0);
            }
            // Only 3 files fit; the pool must not grow unboundedly.
            assert_eq!(c.len(), 3);
            assert!(c.slots.capacity() <= 4, "{}", c.slots.capacity());
        }
    }

    /// Heap bytes the cache's bookkeeping holds.
    fn heap_bytes(c: &FileCache) -> usize {
        use std::mem::size_of;
        let order = match &c.order {
            Order::Lru { harvest, .. } => harvest.capacity() * size_of::<(u64, FileId)>(),
            Order::Gds { heap, .. } => heap.capacity() * size_of::<Reverse<(u64, FileId)>>(),
        };
        c.slots.capacity() * size_of::<Slot>()
            + c.dir.heap_bytes()
            + order
            + c.evicted.capacity() * size_of::<FileId>()
    }

    /// Ids near `u32::MAX` once sized a dense per-file table up to the
    /// id (about 16 GB per cache); a 1 MB cache holding such files
    /// stays KB-sized.
    #[test]
    fn high_file_ids_keep_the_cache_small() {
        for policy in BOTH {
            let mut c = FileCache::new(policy, 1_024.0);
            for i in 0..2_000u32 {
                c.insert(u32::MAX - i, 8.0);
                c.touch(u32::MAX - i / 2);
            }
            assert_eq!(c.len(), 128);
            assert!(c.contains(u32::MAX - 1_999));
            assert!(heap_bytes(&c) <= 16 * 1_024, "{} bytes", heap_bytes(&c));
        }
    }

    /// The harvest buffer holds one batch, however many files are
    /// resident.
    #[test]
    fn harvest_stays_one_batch() {
        let mut c = lru(10_000.0);
        for i in 0..20_000u32 {
            c.insert(i, 1.0);
        }
        assert_eq!(c.len(), 10_000);
        let Order::Lru { harvest, .. } = &c.order else {
            unreachable!()
        };
        assert!(
            harvest.capacity() <= HARVEST_BATCH,
            "{}",
            harvest.capacity()
        );
    }

    #[test]
    fn churn_keeps_the_accounting() {
        for policy in BOTH {
            let mut rng = l2s_util::DetRng::new(77);
            let mut c = FileCache::new(policy, 500.0);
            for _ in 0..20_000 {
                let f = FileId::from_raw(rng.below(200) as u32);
                if rng.chance(0.5) {
                    c.touch(f);
                } else {
                    c.insert(f, 1.0 + rng.f64() * 20.0);
                }
                assert!(c.used_kb() <= 500.0 + 1e-6);
                // Lazy invalidation: the heap may hold stale keys, but
                // compaction bounds them and every resident file stays
                // keyed.
                if let Order::Gds { heap, .. } = &c.order {
                    assert!(heap.len() >= c.len(), "live key missing from heap");
                    assert!(heap.len() <= 2 * c.len() + 64, "{} keys", heap.len());
                }
            }
            // Directory and pool agree.
            assert_eq!(c.iter_resident().count(), c.len());
            let listed: f64 = c.iter_resident().map(|(_, kb)| kb).sum();
            assert!((listed - c.used_kb()).abs() < 1e-6);
        }
    }
}
