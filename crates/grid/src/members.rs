//! Struct-of-arrays member table: every cell's enabled members in one
//! flat `NodeId` pool.
//!
//! The seed kept `members: Vec<Vec<NodeId>>` — one heap allocation per
//! occupied cell, rebuilt from scratch every campaign trial, with cells
//! scattered across the heap. [`MemberTable`] packs all member lists
//! into a single pool with per-cell `(start, len, cap)` slabs:
//!
//! * **reads** are one slab load plus a contiguous slice — cache-dense
//!   row-major sweeps instead of a pointer chase per cell;
//! * **rebuilds** ([`MemberTable::rebuild_with`]) are two counting
//!   passes over the nodes' precomputed cell indices into the reused
//!   pool — zero per-cell allocations and no geometry, which is what
//!   makes the per-trial arena (`GridNetwork::reset_into`) cheap;
//! * **moves** append in place while the slab has headroom; an
//!   overflowing cell relocates to a larger span taken from an intrusive
//!   free list of retired slabs (first-fit with split), so long repair
//!   cascades recycle the pool instead of growing it;
//! * a **spare-availability bitset** (one bit per cell, set ⇔ ≥ 2
//!   members) is maintained on every push/remove, giving word-level
//!   spare scans the same `u64`-block surface as the vacancy kernels.
//!
//! Ordering is load-bearing: `push` appends and `remove` shifts left,
//! exactly the `Vec::push` / `Vec::retain` semantics the protocols'
//! spare-selection order (and therefore the campaign goldens) depend
//! on. Equality is logical — two tables are equal when every cell holds
//! the same members in the same order, regardless of pool layout — so
//! an arena-reset network compares equal to a freshly built one.

use serde::{Deserialize, Serialize};
use wsn_simcore::NodeId;

const WORD_BITS: usize = u64::BITS as usize;
/// Smallest capacity granted when a cell outgrows its slab: small
/// enough to keep dense deployments tight, large enough that a repair
/// hop does not relocate the same cell repeatedly.
const MIN_GROW: u32 = 4;

/// A cell's slab in the pool: `pool[start..start+len]` holds the
/// members, `cap − len` slots of headroom follow.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Slab {
    start: u32,
    len: u32,
    cap: u32,
}

/// A retired span on the free list.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Span {
    start: u32,
    cap: u32,
}

/// Placeholder written into never-yet-assigned pool slots.
const POOL_SENTINEL: NodeId = NodeId::new(u32::MAX);

/// Struct-of-arrays per-cell membership (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MemberTable {
    /// All member ids, cell by cell, with per-slab headroom.
    pool: Vec<NodeId>,
    /// Per-cell slab descriptors, dense row-major.
    slabs: Vec<Slab>,
    /// Spans retired by slab relocations, available for reuse.
    free: Vec<Span>,
    /// One bit per cell, set ⇔ the cell holds ≥ 2 members (i.e. at
    /// least one spare under occupancy accounting).
    multi: Vec<u64>,
}

impl MemberTable {
    /// An empty table over `cells` cells.
    pub(crate) fn new(cells: usize) -> MemberTable {
        MemberTable {
            pool: Vec::new(),
            slabs: vec![Slab::default(); cells],
            free: Vec::new(),
            multi: vec![0u64; cells.div_ceil(WORD_BITS)],
        }
    }

    /// Number of cells tracked.
    #[inline]
    pub(crate) fn cells(&self) -> usize {
        self.slabs.len()
    }

    /// The members of cell `idx`, in insertion order.
    #[inline]
    pub(crate) fn cell(&self, idx: usize) -> &[NodeId] {
        let s = self.slabs[idx];
        &self.pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// Number of members in cell `idx` — one slab load.
    #[inline]
    pub(crate) fn len_of(&self, idx: usize) -> usize {
        self.slabs[idx].len as usize
    }

    /// Total members across all cells (the enabled-node count).
    pub(crate) fn total_members(&self) -> usize {
        self.slabs.iter().map(|s| s.len as usize).sum()
    }

    /// The spare-availability words: one bit per cell, set ⇔ ≥ 2
    /// members, same layout as `HoleSet::words`.
    #[inline]
    pub(crate) fn multi_words(&self) -> &[u64] {
        &self.multi
    }

    /// Appends `id` to cell `idx` (`Vec::push` semantics), relocating
    /// the slab to a larger span when full. Amortized O(1).
    pub(crate) fn push(&mut self, idx: usize, id: NodeId) {
        let Slab { start, len, cap } = self.slabs[idx];
        if len < cap {
            self.pool[(start + len) as usize] = id;
        } else {
            let want = (cap * 2).max(MIN_GROW);
            let new_start = self.allocate(want);
            self.pool
                .copy_within(start as usize..(start + len) as usize, new_start as usize);
            self.pool[(new_start + len) as usize] = id;
            if cap > 0 {
                self.free.push(Span { start, cap });
            }
            self.slabs[idx].start = new_start;
            self.slabs[idx].cap = want;
        }
        self.slabs[idx].len += 1;
        if self.slabs[idx].len == 2 {
            self.multi[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
        }
    }

    /// Removes `id` from cell `idx`, shifting later members left
    /// (`Vec::retain` order semantics). Returns whether it was present.
    pub(crate) fn remove(&mut self, idx: usize, id: NodeId) -> bool {
        let Slab { start, len, .. } = self.slabs[idx];
        let (s, l) = (start as usize, len as usize);
        let Some(pos) = self.pool[s..s + l].iter().position(|&m| m == id) else {
            return false;
        };
        self.pool.copy_within(s + pos + 1..s + l, s + pos);
        self.slabs[idx].len -= 1;
        if self.slabs[idx].len == 1 {
            self.multi[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
        }
        true
    }

    /// Rebuilds the table in place over `cells` cells from
    /// `node_cells`, the dense cell index of each node in id order (node
    /// `i` lives in cell `node_cells[i]`). The caller located every node
    /// once while validating the deployment; this reads those indices
    /// and never recomputes a cell. Two counting passes lay out
    /// exact-fit contiguous slabs in the reused pool — no per-cell
    /// allocation, empty free list. Node order within a cell is
    /// ascending id, identical to pushing nodes in id order.
    pub(crate) fn rebuild_with(&mut self, cells: usize, node_cells: &[u32]) {
        self.slabs.clear();
        self.slabs.resize(cells, Slab::default());
        self.free.clear();
        self.multi.clear();
        self.multi.resize(cells.div_ceil(WORD_BITS), 0u64);
        // Pass 1: count members per cell (cap doubles as the counter).
        for &cell in node_cells {
            self.slabs[cell as usize].cap += 1;
        }
        // Exact-fit prefix layout.
        let mut offset = 0u32;
        for (idx, slab) in self.slabs.iter_mut().enumerate() {
            slab.start = offset;
            offset += slab.cap;
            if slab.cap >= 2 {
                self.multi[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
            }
        }
        self.pool.clear();
        self.pool.resize(node_cells.len(), POOL_SENTINEL);
        // Pass 2: fill in node-id order.
        for (i, &cell) in node_cells.iter().enumerate() {
            let slab = &mut self.slabs[cell as usize];
            self.pool[(slab.start + slab.len) as usize] = NodeId::new(i as u32);
            slab.len += 1;
        }
    }

    /// Takes a span of at least `want` slots: first-fit from the free
    /// list (splitting oversized spans), else fresh pool growth.
    fn allocate(&mut self, want: u32) -> u32 {
        if let Some(i) = self.free.iter().position(|s| s.cap >= want) {
            let span = self.free.swap_remove(i);
            if span.cap > want {
                self.free.push(Span {
                    start: span.start + want,
                    cap: span.cap - want,
                });
            }
            return span.start;
        }
        let start = self.pool.len() as u32;
        self.pool
            .resize(self.pool.len() + want as usize, POOL_SENTINEL);
        start
    }

    /// Verifies slab/free-list/bitset consistency; used by
    /// `GridNetwork::debug_invariants`.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency.
    pub(crate) fn verify(&self) {
        for (idx, s) in self.slabs.iter().enumerate() {
            assert!(s.len <= s.cap, "slab {idx} length exceeds capacity");
            assert!(
                (s.start + s.cap) as usize <= self.pool.len(),
                "slab {idx} spills past the pool"
            );
            let multi = self.multi[idx / WORD_BITS] & (1u64 << (idx % WORD_BITS)) != 0;
            assert_eq!(
                multi,
                s.len >= 2,
                "spare-availability bit for cell {idx} out of sync"
            );
        }
        for span in &self.free {
            assert!(
                span.cap > 0 && (span.start + span.cap) as usize <= self.pool.len(),
                "free span out of range"
            );
        }
    }
}

impl PartialEq for MemberTable {
    /// Logical equality: same cells, same members in the same order —
    /// pool layout (headroom, relocation history) is not observable.
    fn eq(&self, other: &MemberTable) -> bool {
        self.slabs.len() == other.slabs.len()
            && (0..self.slabs.len()).all(|idx| self.cell(idx) == other.cell(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn push_remove_keep_vec_order_semantics() {
        let mut t = MemberTable::new(4);
        let mut oracle: Vec<Vec<NodeId>> = vec![Vec::new(); 4];
        let script: &[(usize, u32)] = &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5), // forces a relocation past MIN_GROW
            (2, 6),
            (2, 7),
            (3, 8),
        ];
        for &(cell, id) in script {
            t.push(cell, NodeId::new(id));
            oracle[cell].push(NodeId::new(id));
        }
        for (cell, want) in oracle.iter().enumerate() {
            assert_eq!(t.cell(cell), want.as_slice(), "cell {cell}");
        }
        // Remove from the middle: later members shift left.
        assert!(t.remove(0, NodeId::new(3)));
        oracle[0].retain(|&m| m != NodeId::new(3));
        assert_eq!(t.cell(0), oracle[0].as_slice());
        assert!(!t.remove(0, NodeId::new(3)));
        assert_eq!(t.total_members(), 7);
        t.verify();
    }

    #[test]
    fn relocation_recycles_retired_spans() {
        let mut t = MemberTable::new(2);
        // Grow cell 0 past two relocations, then grow cell 1: it should
        // reuse cell 0's retired spans instead of growing the pool.
        for i in 0..9 {
            t.push(0, NodeId::new(i));
        }
        let pool_after_cell0 = t.pool.len();
        for i in 100..104 {
            t.push(1, NodeId::new(i));
        }
        assert_eq!(
            t.pool.len(),
            pool_after_cell0,
            "cell 1 should fit in retired spans"
        );
        assert_eq!(t.cell(0), ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8]).as_slice());
        assert_eq!(t.cell(1), ids(&[100, 101, 102, 103]).as_slice());
        t.verify();
    }

    #[test]
    fn rebuild_is_exact_fit_and_id_ordered() {
        let mut t = MemberTable::new(3);
        for i in 0..5 {
            t.push(2, NodeId::new(i)); // dirty state to overwrite
        }
        // Nodes 0..6 alternate between cells 0 and 2.
        t.rebuild_with(3, &[0, 2, 0, 2, 0, 2]);
        assert_eq!(t.cell(0), ids(&[0, 2, 4]).as_slice());
        assert_eq!(t.cell(1), &[] as &[NodeId]);
        assert_eq!(t.cell(2), ids(&[1, 3, 5]).as_slice());
        assert_eq!(t.pool.len(), 6, "rebuild lays out exact fit");
        assert_eq!(t.total_members(), 6);
        t.verify();
    }

    #[test]
    fn equality_is_logical_not_layout() {
        let mut a = MemberTable::new(2);
        let mut b = MemberTable::new(2);
        for i in 0..6 {
            a.push(0, NodeId::new(i)); // relocated layout with headroom
        }
        b.rebuild_with(2, &[0; 6]); // exact-fit layout
        assert_eq!(a, b);
        b.push(1, NodeId::new(9));
        assert_ne!(a, b);
    }

    #[test]
    fn multi_words_track_spare_availability() {
        let mut t = MemberTable::new(70);
        t.push(0, NodeId::new(0));
        assert_eq!(t.multi_words()[0], 0);
        t.push(0, NodeId::new(1));
        assert_eq!(t.multi_words()[0], 1);
        t.push(65, NodeId::new(2));
        t.push(65, NodeId::new(3));
        t.push(65, NodeId::new(4));
        assert_eq!(t.multi_words()[1], 1 << 1);
        t.remove(65, NodeId::new(2));
        t.remove(65, NodeId::new(3));
        assert_eq!(t.multi_words()[1], 0);
        t.verify();
    }
}
