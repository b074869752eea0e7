//! The file cache's resident-file directory: `FileId` -> slot.
//!
//! The cache keeps its resident files in a slot pool; the directory
//! finds a file's slot. It is an open-addressing table of `(file, slot)`
//! cells, sized to the files resident rather than to the highest file
//! id ever seen, so a node's directory costs bytes per resident file —
//! not per file in the population, and not per unit of id space (an id
//! near `u32::MAX` costs what id 0 does).
//!
//! * **Hashing.** The Fibonacci hash of the id (a multiply by 2^64/φ)
//!   mapped onto the table by its top 32 bits times the table length, so
//!   the length need not be a power of two.
//! * **Probing.** Linear, wrapping at the end of the table. The table
//!   is grown (rehashed to twice the resident count) before its load
//!   passes 3/4, so it always holds an empty cell and its length stays
//!   between 4/3 and 2 times the peak resident count.
//! * **Deletion.** Backward shift: later entries of the run move into
//!   the hole when that keeps them reachable from their home cell, so
//!   there are no tombstones and probe runs never lengthen with churn.
//!
//! A cell stores its file next to the slot, so a probe compares keys
//! within the table instead of chasing each candidate slot into the
//! cache's pool — a miss walks one contiguous run. The directory is
//! never iterated to produce results, so its layout cannot leak into
//! eviction order.

use crate::FileId;
use l2s_util::cast;

/// Slot id marking an empty cell. Slot ids index a pool in memory, so
/// none reaches it.
const EMPTY: u32 = u32::MAX;

/// Fewest cells a non-empty table has.
const MIN_CELLS: usize = 8;

/// 2^64 / φ: the Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One table cell: a resident file and its slot, or `slot == EMPTY`.
#[derive(Clone, Copy, Debug)]
struct Cell {
    file: FileId,
    slot: u32,
}

const VACANT: Cell = Cell {
    file: FileId::from_raw(0),
    slot: EMPTY,
};

/// Map from resident [`FileId`]s to slot ids in a cache's slot pool.
#[derive(Clone, Debug, Default)]
pub(crate) struct Directory {
    cells: Vec<Cell>,
    /// Occupied cells.
    len: usize,
}

impl Directory {
    /// Number of files in the directory.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Home cell of `file`: the top 32 bits of its Fibonacci hash,
    /// scaled onto the table. Caller guarantees a non-empty table.
    #[inline]
    fn home(&self, file: FileId) -> usize {
        let h = u64::from(file.raw()).wrapping_mul(FIB) >> 32;
        cast::index_usize((h * cast::len_u64(self.cells.len())) >> 32)
    }

    /// The cell after `i`, wrapping at the end of the table.
    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.cells.len() {
            0
        } else {
            i + 1
        }
    }

    /// Cells from `from` forward to `to`, wrapping at the end of the
    /// table.
    #[inline]
    fn gap(&self, from: usize, to: usize) -> usize {
        if to >= from {
            to - from
        } else {
            to + self.cells.len() - from
        }
    }

    /// Cell holding `file`, or `None` when it is not in the directory.
    #[inline]
    fn find(&self, file: FileId) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mut i = self.home(file);
        loop {
            let c = self.cells[i];
            if c.slot == EMPTY {
                return None;
            }
            if c.file == file {
                return Some(i);
            }
            i = self.next(i);
        }
    }

    /// Slot of `file`, or `None` when it is not in the directory.
    #[inline]
    pub(crate) fn get(&self, file: FileId) -> Option<u32> {
        self.find(file).map(|i| self.cells[i].slot)
    }

    /// Adds `file` at `slot`. Caller guarantees `file` is absent.
    pub(crate) fn insert(&mut self, file: FileId, slot: u32) {
        if 4 * (self.len + 1) > 3 * self.cells.len() {
            self.grow();
        }
        self.place(Cell { file, slot });
        self.len += 1;
    }

    /// Puts `cell` in the first empty cell of its file's run.
    fn place(&mut self, cell: Cell) {
        let mut i = self.home(cell.file);
        while self.cells[i].slot != EMPTY {
            i = self.next(i);
        }
        self.cells[i] = cell;
    }

    /// Rehashes into a table of twice the resident count (plus the
    /// entry about to be added).
    fn grow(&mut self) {
        let cells = MIN_CELLS.max(2 * (self.len + 1));
        let old = std::mem::replace(&mut self.cells, vec![VACANT; cells]);
        for c in old.into_iter().filter(|c| c.slot != EMPTY) {
            self.place(c);
        }
    }

    /// Removes `file` if present, closing the gap by backward shift.
    pub(crate) fn remove(&mut self, file: FileId) {
        let Some(mut hole) = self.find(file) else {
            return;
        };
        let mut j = self.next(hole);
        loop {
            let c = self.cells[j];
            if c.slot == EMPTY {
                break;
            }
            // The entry at `j` may fill the hole only if the hole lies on
            // its probe path, i.e. cyclically within [home, j).
            if self.gap(self.home(c.file), j) >= self.gap(hole, j) {
                self.cells[hole] = c;
                hole = j;
            }
            j = self.next(j);
        }
        self.cells[hole] = VACANT;
        self.len -= 1;
    }

    /// Points `file`'s entry at slot `to` (the cache moved the file
    /// within its pool). A no-op when `file` is absent.
    pub(crate) fn retarget(&mut self, file: FileId, to: u32) {
        if let Some(i) = self.find(file) {
            self.cells[i].slot = to;
        }
    }

    /// Empties the directory. The table keeps its size: a node that was
    /// wiped refills to the same resident level.
    pub(crate) fn clear(&mut self) {
        self.cells.fill(VACANT);
        self.len = 0;
    }

    /// Heap bytes the table holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Cell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The first `n` ids whose hash lands in the top 1/32 of the hash
    /// space: in any table of at most 32 cells they all share the last
    /// cell as home, so their run wraps to the front of the table.
    fn colliding_ids(n: usize) -> Vec<u32> {
        (0u32..)
            .filter(|&id| u64::from(id).wrapping_mul(FIB) >> 59 == 0x1F)
            .take(n)
            .collect()
    }

    /// Drives a directory with recycled slot ids: they go through a free
    /// list, so a slot is reused by other files over time.
    #[derive(Default)]
    struct Pool {
        slots: u32,
        free: Vec<u32>,
        dir: Directory,
    }

    impl Pool {
        fn insert(&mut self, file: FileId) -> u32 {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots += 1;
                self.slots - 1
            });
            self.dir.insert(file, slot);
            slot
        }

        fn remove(&mut self, file: FileId, slot: u32) {
            self.dir.remove(file);
            self.free.push(slot);
        }
    }

    #[test]
    fn colliding_ids_share_the_last_cell() {
        let mut p = Pool::default();
        let ids = colliding_ids(5);
        for &id in &ids {
            p.insert(FileId::from_raw(id));
        }
        assert_eq!(p.dir.cells.len(), MIN_CELLS);
        for &id in &ids {
            assert_eq!(p.dir.home(FileId::from_raw(id)), MIN_CELLS - 1);
        }
        // The run starts in the last cell and wraps to the front.
        assert_ne!(p.dir.cells[MIN_CELLS - 1].slot, EMPTY);
        assert_ne!(p.dir.cells[0].slot, EMPTY);
    }

    #[test]
    fn table_stays_within_twice_the_peak_resident_count() {
        let mut p = Pool::default();
        for id in 0..10_000u32 {
            p.insert(FileId::from_raw(id.wrapping_mul(2_654_435_761)));
            let (cells, len) = (p.dir.cells.len(), p.dir.len());
            assert!(
                cells <= (2 * len).max(MIN_CELLS),
                "{cells} cells for {len} files"
            );
            assert!(4 * len <= 3 * cells, "{len} files overload {cells} cells");
        }
    }

    #[test]
    fn high_ids_cost_what_low_ids_do() {
        let mut p = Pool::default();
        for id in (u32::MAX - 100)..=u32::MAX {
            p.insert(FileId::from_raw(id));
        }
        assert_eq!(p.dir.len(), 101);
        assert!(p.dir.heap_bytes() <= 2_048, "{} bytes", p.dir.heap_bytes());
        assert!(p.dir.get(FileId::from_raw(u32::MAX)).is_some());
        assert!(p.dir.get(FileId::from_raw(7)).is_none());
    }

    proptest! {
        /// The directory agrees with a `BTreeMap` under random insert,
        /// touch, remove and clear traffic over a universe where most ids
        /// collide on the table's last cell, so runs wrap and backward
        /// shifts cross the end of the table.
        #[test]
        fn matches_btreemap_reference(
            ops in prop::collection::vec((0usize..40, 0u8..8), 1..400),
        ) {
            let mut universe = colliding_ids(24);
            universe.extend([0, 1, 2, 3, 1_000, u32::MAX - 1, u32::MAX, 77_777]);
            universe.extend((0..8u32).map(|i| i.wrapping_mul(0x6F4A_7C15)));
            let mut pool = Pool::default();
            let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
            for (pick, op) in ops {
                let id = universe[pick];
                let file = FileId::from_raw(id);
                match op {
                    // Insert (a no-op when already resident).
                    0..=2 => {
                        reference.entry(id).or_insert_with(|| pool.insert(file));
                    }
                    // Touch: a lookup must find exactly the live slot.
                    3 | 4 => prop_assert_eq!(pool.dir.get(file), reference.get(&id).copied()),
                    // Remove.
                    5 | 6 => {
                        if let Some(slot) = reference.remove(&id) {
                            pool.remove(file, slot);
                        }
                    }
                    // Clear.
                    _ => {
                        pool = Pool { dir: pool.dir, ..Pool::default() };
                        pool.dir.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(pool.dir.len(), reference.len());
                for &other in &universe {
                    let f = FileId::from_raw(other);
                    prop_assert_eq!(pool.dir.get(f), reference.get(&other).copied());
                }
            }
        }
    }
}
