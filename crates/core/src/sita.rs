//! SITA — size-interval task assignment (Harchol-Balter et al.).
//!
//! Each node owns a contiguous band of the file-size distribution:
//! requests for small files go to the low bands, large files to the
//! high bands, so short jobs never queue behind multi-megabyte replies
//! — the task-size variance reduction that makes SITA competitive on
//! heavy-tailed web workloads. Band boundaries are chosen up front from
//! the workload's file population (the engine hints per-file sizes once
//! per run) so that every band carries an equal share of the total
//! bytes; on heterogeneous clusters the shares are weighted by per-node
//! CPU speed, giving fast nodes proportionally wider bands.
//!
//! Like the pure-locality baseline, arrivals land by round-robin DNS and
//! are handed off to the owning node after parsing; the split itself is
//! static, so the policy sends no control messages. When a band's owner
//! is down its traffic drains to a deterministic live stand-in and moves
//! back on recovery. Files whose sizes were never hinted (or that fall
//! outside the hinted population) fall back to hash placement over the
//! live nodes.

use crate::ledger::{Dispatch, Ledger};
use crate::{NodeId, PolicyKind};
use l2s_cluster::FileId;
use l2s_util::{cast, invariant};

/// The size-interval splitter. See the module docs.
#[derive(Clone, Debug)]
pub struct Sita {
    /// Its live ring holds the stand-ins for dead owners and the hash
    /// placement of unhinted files.
    ledger: Ledger,
    /// Relative service capacity per node; uniform for homogeneous
    /// clusters, per-node CPU speed for heterogeneous ones.
    weights: Vec<f64>,
    /// Owning band (node id) per interned file id; empty until sizes
    /// are hinted.
    band_of_file: Vec<u32>,
}

impl Sita {
    /// A SITA splitter over `n` equally powerful nodes.
    pub fn new(n: usize) -> Self {
        Self::weighted(n, vec![1.0; n])
    }

    /// A SITA splitter whose band widths are proportional to `weights`
    /// (one positive, finite weight per node — per-node CPU speed on a
    /// heterogeneous cluster).
    pub fn weighted(n: usize, weights: Vec<f64>) -> Self {
        invariant!(
            weights.len() == n,
            "need one weight per node ({got} for {n})",
            got = weights.len()
        );
        invariant!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "SITA weights must be positive and finite"
        );
        Sita {
            ledger: Ledger::new(n),
            weights,
            band_of_file: Vec::new(),
        }
    }

    /// Recomputes the size bands for a file population. `sizes[i]` is
    /// the size in KB of the file with interned id `i`. Files are walked
    /// in ascending size order (id-ordered on ties) and cut into one
    /// contiguous band per node so each band's share of the total bytes
    /// is proportional to the node's weight.
    fn rebuild_bands(&mut self, sizes: &[f64]) {
        let n = self.ledger.nodes();
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by(|&a, &b| sizes[a].total_cmp(&sizes[b]).then(a.cmp(&b)));
        let total: f64 = sizes.iter().sum();
        let weight_total: f64 = self.weights.iter().sum();
        self.band_of_file = vec![0; sizes.len()];
        let mut carried = 0.0;
        let mut band = 0usize;
        let mut boundary = total * self.weights[0] / weight_total;
        for &file in &order {
            self.band_of_file[file] = cast::index_u32(band);
            carried += sizes[file];
            if carried >= boundary && band + 1 < n {
                band += 1;
                boundary += total * self.weights[band] / weight_total;
            }
        }
    }

    /// The node currently serving `file`'s size band (its band owner
    /// while that node is alive, a deterministic live stand-in while it
    /// is down, hash placement when no size information exists).
    pub fn owner(&self, file: impl Into<FileId>) -> NodeId {
        let file = file.into();
        let band = self.band_of_file.get(file.index());
        match band.map(|&b| cast::wide_usize(b)) {
            Some(band) if self.ledger.live().contains(band) => band,
            Some(band) => self.ledger.ring(cast::len_u64(band)),
            None => self.ledger.hashed(file),
        }
    }
}

impl Dispatch for Sita {
    const KIND: PolicyKind = PolicyKind::Sita;
    const SWITCH: bool = false;

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn hint_sizes(&mut self, sizes: &[f64]) {
        self.rebuild_bands(sizes);
    }

    fn arrival(&mut self) -> Option<NodeId> {
        // Round-robin DNS; the owner is only known after parsing.
        self.ledger.rotate()
    }

    fn service(&self, _initial: NodeId, file: FileId) -> NodeId {
        self.owner(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distributor;
    use l2s_util::SimTime;

    /// Sizes with ids in shuffled size order, so band assignment has to
    /// actually sort: ids 0..8 sized 8, 1, 6, 3, 2, 7, 4, 5 KB.
    const SIZES: [f64; 8] = [8.0, 1.0, 6.0, 3.0, 2.0, 7.0, 4.0, 5.0];

    fn hinted(n: usize) -> Sita {
        let mut s = Sita::new(n);
        s.hint_file_sizes(&SIZES);
        s
    }

    #[test]
    fn bands_are_contiguous_in_size_and_cover_every_node() {
        let s = hinted(4);
        // Walk files in ascending size order; band must be monotone.
        let mut order: Vec<usize> = (0..SIZES.len()).collect();
        order.sort_by(|&a, &b| SIZES[a].total_cmp(&SIZES[b]));
        let bands: Vec<NodeId> = order.iter().map(|&f| s.owner(cast::index_u32(f))).collect();
        let mut sorted = bands.clone();
        sorted.sort_unstable();
        assert_eq!(bands, sorted, "bands must be monotone in file size");
        let mut seen = [false; 4];
        for &b in &bands {
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "some node owns no band");
    }

    #[test]
    fn equal_weights_split_bytes_evenly() {
        let s = hinted(2);
        let per_band: Vec<f64> = (0..2)
            .map(|node| {
                (0..SIZES.len())
                    .filter(|&f| s.owner(cast::index_u32(f)) == node)
                    .map(|f| SIZES[f])
                    .sum()
            })
            .collect();
        // 36 KB total; the greedy cut lands within one file of 18/18.
        assert!(
            (per_band[0] - per_band[1]).abs() <= 8.0,
            "bands {per_band:?} too skewed"
        );
    }

    #[test]
    fn weights_widen_the_fast_nodes_band() {
        let mut s = Sita::weighted(2, vec![3.0, 1.0]);
        s.hint_file_sizes(&SIZES);
        let band0_kb: f64 = (0..SIZES.len())
            .filter(|&f| s.owner(cast::index_u32(f)) == 0)
            .map(|f| SIZES[f])
            .sum();
        assert!(
            band0_kb > 18.0,
            "node 0 at weight 3 must own more than half the bytes, got {band0_kb}"
        );
    }

    #[test]
    fn owner_is_sticky_per_file() {
        let mut s = hinted(4);
        let first = s.assign(SimTime::ZERO, 0, 3.into());
        for _ in 0..10 {
            let initial = s.arrival_node().unwrap();
            let service = s.assign(SimTime::ZERO, initial, 3.into());
            assert_eq!(service, first, "same file, same owner");
        }
    }

    #[test]
    fn unhinted_files_fall_back_to_hash_placement() {
        let s = Sita::new(4);
        let mut seen = [false; 4];
        for f in 0..64u32 {
            seen[s.owner(f)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash fallback left a node unused");
    }

    #[test]
    fn crash_drains_the_band_to_a_live_stand_in_and_back() {
        let mut s = hinted(4);
        let statics: Vec<NodeId> = (0..8u32).map(|f| s.owner(f)).collect();
        let victim = statics[0];
        s.node_down(SimTime::ZERO, victim);
        for f in 0..8u32 {
            let owner = s.owner(f);
            assert_ne!(owner, victim, "dead node still owns file {f}");
            assert!(owner < 4);
        }
        s.node_up(SimTime::ZERO, victim);
        let after: Vec<NodeId> = (0..8u32).map(|f| s.owner(f)).collect();
        assert_eq!(after, statics, "recovery restores the static bands");
    }

    #[test]
    fn requests_are_served_at_the_band_owner() {
        let mut s = hinted(2);
        let owner = s.owner(0u32);
        assert_eq!(s.assign(SimTime::ZERO, owner, 0.into()), owner);
        let other = 1 - owner;
        assert_eq!(s.assign(SimTime::ZERO, other, 0.into()), owner);
    }
}
