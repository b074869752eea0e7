//! An incrementally maintained least-loaded index.
//!
//! Every policy decision of the form "pick the least-loaded node" used
//! to rescan its candidate list, costing O(nodes) per request and
//! making events/s fall with cluster size. [`LoadIndex`] keeps the
//! candidates in a segment tree keyed by the packed pair
//! `(load << 32) | node`, so the minimum — and therefore the exact node
//! the naive scan would have picked, including its lowest-id
//! tie-breaking — is maintained under point updates in O(log n).
//!
//! The rotating variant ([`LoadIndex::argmin_rotating`]) reproduces
//! `argmin_rotating`'s cyclic scan: the present nodes, in ascending id
//! order, *are* the candidate slice the naive scan walks, so "first
//! strict minimum starting from the cursor's node, wrapping" decomposes
//! into two range-minimum queries. Equivalence is pinned by unit tests
//! here and by the property tests in `tests/props.rs`.

use crate::NodeId;
use l2s_util::{cast, invariant};

/// Packed comparison key: load in the high 32 bits, node id in the low
/// 32, so `min` over keys is lexicographic `(load, node)` — least load
/// first, lowest node id on ties, exactly like the naive scans.
fn key(node: NodeId, load: u32) -> u64 {
    (u64::from(load) << 32) | cast::len_u64(node)
}

/// Node id part of a packed key.
fn key_node(key: u64) -> NodeId {
    cast::index_usize(key & 0xFFFF_FFFF)
}

/// Load part of a packed key.
fn key_load(key: u64) -> u64 {
    key >> 32
}

/// Sentinel for an absent leaf; compares greater than every real key.
const ABSENT: u64 = u64::MAX;

/// A segment tree over node ids `0..capacity` answering least-loaded
/// queries in O(log n) under point insert/update/remove.
///
/// Leaves sit in node-id order; each internal node stores the minimum
/// packed key and the count of present leaves in its subtree. Absent
/// nodes (dead, or not part of the candidate set) hold `ABSENT` and
/// count 0, so they never win a minimum and are skipped by the order
/// statistics used for rotation.
#[derive(Clone, Debug)]
pub struct LoadIndex {
    /// Leaf span: capacity rounded up to a power of two (≥ 1).
    size: usize,
    /// 1-based heap layout; `min_key[1]` is the root, leaf for node `i`
    /// is `min_key[size + i]`.
    min_key: Vec<u64>,
    /// Present-leaf counts per subtree, same layout as `min_key`.
    count: Vec<u32>,
}

impl LoadIndex {
    /// An empty index able to hold nodes `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        invariant!(capacity >= 1, "load index needs capacity for one node");
        let size = capacity.next_power_of_two();
        LoadIndex {
            size,
            min_key: vec![ABSENT; 2 * size],
            count: vec![0; 2 * size],
        }
    }

    /// Number of present nodes.
    pub fn len(&self) -> usize {
        cast::wide_usize(self.count[1])
    }

    /// Whether no node is present.
    pub fn is_empty(&self) -> bool {
        self.count[1] == 0
    }

    /// Whether `node` is currently present.
    pub fn contains(&self, node: NodeId) -> bool {
        self.count[self.size + node] != 0
    }

    /// Recomputes the path from `node`'s leaf to the root.
    fn pull_up(&mut self, node: NodeId) {
        let mut i = (self.size + node) / 2;
        while i >= 1 {
            let (l, r) = (2 * i, 2 * i + 1);
            self.min_key[i] = self.min_key[l].min(self.min_key[r]);
            self.count[i] = self.count[l] + self.count[r];
            i /= 2;
        }
    }

    /// Adds `node` with the given load. The node must be absent.
    pub fn insert(&mut self, node: NodeId, load: u32) {
        let leaf = self.size + node;
        invariant!(self.count[leaf] == 0, "inserting node {node} twice");
        self.min_key[leaf] = key(node, load);
        self.count[leaf] = 1;
        self.pull_up(node);
    }

    /// Removes `node`. The node must be present.
    pub fn remove(&mut self, node: NodeId) {
        let leaf = self.size + node;
        invariant!(self.count[leaf] == 1, "removing absent node {node}");
        self.min_key[leaf] = ABSENT;
        self.count[leaf] = 0;
        self.pull_up(node);
    }

    /// Sets the load of a present `node`.
    pub fn update(&mut self, node: NodeId, load: u32) {
        let leaf = self.size + node;
        invariant!(self.count[leaf] == 1, "updating absent node {node}");
        self.min_key[leaf] = key(node, load);
        self.pull_up(node);
    }

    /// Sets the load of `node` if it is present; no-op otherwise. Load
    /// accounting and membership change on different hooks (completions
    /// keep settling on crashed nodes), so most write sites want this.
    pub fn set_if_present(&mut self, node: NodeId, load: u32) {
        if self.contains(node) {
            self.update(node, load);
        }
    }

    /// The present node with the least load, lowest node id winning
    /// ties — identical to the naive lowest-index-first scan. `None`
    /// when no node is present.
    pub fn argmin(&self) -> Option<NodeId> {
        if self.count[1] == 0 {
            None
        } else {
            Some(key_node(self.min_key[1]))
        }
    }

    /// Least-loaded choice with rotating tie-breaking, selection-
    /// identical to `argmin_rotating` over the present nodes in
    /// ascending id order (the sorted live list every caller maintains).
    ///
    /// The naive scan starts at candidate `cursor % len` and takes the
    /// *first* strict minimum in cyclic order. Split the cycle at the
    /// start node `s`: if the suffix `[s, capacity)` attains the global
    /// minimum load, the winner is its leftmost minimum-key leaf
    /// (smallest id at that load ≥ `s`); otherwise the winner is the
    /// global minimum, which then lies wholly in the prefix.
    pub fn argmin_rotating(&self, cursor: &mut usize) -> Option<NodeId> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let start = *cursor % n;
        *cursor = cursor.wrapping_add(1);
        let s = self.kth_present(start);
        let suffix = self.range_min(s, self.size);
        let root = self.min_key[1];
        let winner = if key_load(suffix) == key_load(root) {
            suffix
        } else {
            root
        };
        Some(key_node(winner))
    }

    /// Node id of the `k`-th present node (0-based, in ascending id
    /// order) — the order statistic JSQ(d) draws its random sample over:
    /// a uniform rank in `[0, len())` maps to a uniform present node in
    /// O(log n), with no rejection loop over dead ids.
    pub fn nth_present(&self, k: usize) -> NodeId {
        self.kth_present(k)
    }

    /// The load recorded for `node`, or `None` when it is absent.
    pub fn load_of(&self, node: NodeId) -> Option<u32> {
        if self.contains(node) {
            let load = key_load(self.min_key[self.size + node]);
            Some(cast::index_u32(cast::index_usize(load)))
        } else {
            None
        }
    }

    /// Node id of the `k`-th present leaf (0-based, ascending id).
    fn kth_present(&self, mut k: usize) -> NodeId {
        invariant!(k < self.len(), "rank {k} out of range");
        let mut i = 1;
        while i < self.size {
            let left = 2 * i;
            let on_left = cast::wide_usize(self.count[left]);
            if k < on_left {
                i = left;
            } else {
                k -= on_left;
                i = left + 1;
            }
        }
        i - self.size
    }

    /// Minimum key over leaves `[from, to)`; [`ABSENT`] if empty.
    fn range_min(&self, from: usize, to: usize) -> u64 {
        let mut l = from + self.size;
        let mut r = to + self.size;
        let mut best = ABSENT;
        while l < r {
            if l & 1 == 1 {
                best = best.min(self.min_key[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                best = best.min(self.min_key[r]);
            }
            l /= 2;
            r /= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{argmin, argmin_rotating};

    fn full(n: usize) -> LoadIndex {
        let mut ix = LoadIndex::new(n);
        for node in 0..n {
            ix.insert(node, 0);
        }
        ix
    }

    #[test]
    fn argmin_matches_naive_lowest_id_tiebreak() {
        let loads = [3u32, 1, 1, 2, 1];
        let mut ix = full(5);
        for (node, &l) in loads.iter().enumerate() {
            ix.update(node, l);
        }
        let naive = argmin(loads.iter().copied().enumerate());
        assert_eq!(ix.argmin(), Some(naive));
        assert_eq!(ix.argmin(), Some(1));
    }

    #[test]
    fn empty_index_has_no_argmin() {
        let mut ix = full(3);
        for node in 0..3 {
            ix.remove(node);
        }
        assert_eq!(ix.argmin(), None);
        let mut cursor = 7;
        assert_eq!(ix.argmin_rotating(&mut cursor), None);
        assert_eq!(cursor, 7, "cursor must not advance on empty index");
    }

    #[test]
    fn removal_excludes_and_reinsert_readmits() {
        let mut ix = full(4);
        ix.update(2, 5);
        ix.remove(0);
        ix.remove(1);
        assert_eq!(ix.argmin(), Some(3));
        assert!(!ix.contains(0));
        ix.insert(0, 1);
        assert_eq!(ix.argmin(), Some(3), "node 3 still idle");
        ix.update(3, 2);
        assert_eq!(ix.argmin(), Some(0));
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn set_if_present_ignores_absent_nodes() {
        let mut ix = full(2);
        ix.remove(1);
        ix.set_if_present(1, 9);
        assert!(!ix.contains(1));
        ix.set_if_present(0, 4);
        assert_eq!(ix.argmin(), Some(0));
    }

    #[test]
    fn rotating_matches_naive_over_live_list_exhaustively() {
        // Every membership mask over 6 nodes, every load pattern drawn
        // from a small base, every starting cursor: the index and the
        // naive cyclic scan must pick the same node and leave the same
        // cursor behind.
        let base = [2u32, 0, 1, 0, 2, 0];
        for mask in 1u32..64 {
            let members: Vec<usize> = (0..6).filter(|i| mask & (1 << i) != 0).collect();
            let mut ix = LoadIndex::new(6);
            for &m in &members {
                ix.insert(m, base[m]);
            }
            for start in 0..2 * members.len() {
                let mut c1 = start;
                let mut c2 = start;
                let naive = argmin_rotating(&members, |i| base[i], &mut c1);
                let fast = ix.argmin_rotating(&mut c2);
                assert_eq!(fast, Some(naive), "mask={mask:#b} start={start}");
                assert_eq!(c1, c2);
            }
        }
    }

    #[test]
    fn nth_present_walks_live_nodes_in_id_order() {
        let mut ix = full(6);
        ix.remove(1);
        ix.remove(4);
        // Present: 0, 2, 3, 5.
        assert_eq!(ix.nth_present(0), 0);
        assert_eq!(ix.nth_present(1), 2);
        assert_eq!(ix.nth_present(2), 3);
        assert_eq!(ix.nth_present(3), 5);
    }

    #[test]
    fn load_of_reports_present_loads_only() {
        let mut ix = full(3);
        ix.update(1, 7);
        assert_eq!(ix.load_of(0), Some(0));
        assert_eq!(ix.load_of(1), Some(7));
        ix.remove(2);
        assert_eq!(ix.load_of(2), None);
    }

    #[test]
    fn non_power_of_two_capacity_works() {
        let mut ix = LoadIndex::new(5);
        for node in 0..5 {
            ix.insert(node, 7);
        }
        assert_eq!(ix.argmin(), Some(0), "ties break to the lowest id");
        ix.update(0, 9);
        assert_eq!(ix.argmin(), Some(1));
        ix.update(4, 2);
        assert_eq!(ix.argmin(), Some(4));
    }
}
