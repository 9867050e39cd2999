//! Per-cell owner counts: how many active replacement processes own
//! each cell.
//!
//! Every round engine asks "does an active process already own this
//! hole?" once per pending hole per round. Scanning the active list for
//! the answer costs O(holes × active) per round — the dominant cost of
//! AR's first rounds on large grids, where every hole spawns up to four
//! processes. [`OwnerCounts`] answers in O(1): the engine adds a cell
//! when a process starts owning it and removes it when the process
//! relays on or ends.

use wsn_grid::{GridCoord, GridSystem};

/// How many active processes own each cell of a grid.
///
/// What "owns" means is the engine's choice (SR: the cell a cascade is
/// refilling; SR-SC: the hole a courier serves; AR: a cascade's current
/// target). The engine keeps the counts in step with its active list and
/// calls [`OwnerCounts::debug_check`] to cross-check them in debug
/// builds.
///
/// ```
/// use wsn_coverage::OwnerCounts;
/// use wsn_grid::{GridCoord, GridSystem};
///
/// let mut owners = OwnerCounts::new(&GridSystem::new(4, 4, 1.0)?);
/// let (a, b) = (GridCoord::new(1, 2), GridCoord::new(3, 0));
/// owners.add(a);
/// owners.add(a);
/// owners.remove(a);
/// assert!(owners.is_owned(a) && !owners.is_owned(b));
/// owners.debug_check([a]);
/// # Ok::<(), wsn_grid::GridError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OwnerCounts {
    cols: usize,
    counts: Vec<u32>,
}

impl OwnerCounts {
    /// A table with no owners over `system`'s cells.
    pub fn new(system: &GridSystem) -> OwnerCounts {
        OwnerCounts {
            cols: usize::from(system.cols()),
            counts: vec![0; system.cell_count()],
        }
    }

    fn index(&self, cell: GridCoord) -> usize {
        usize::from(cell.y) * self.cols + usize::from(cell.x)
    }

    /// Records one more owner of `cell`.
    pub fn add(&mut self, cell: GridCoord) {
        let i = self.index(cell);
        self.counts[i] += 1;
    }

    /// Records that one owner of `cell` relayed on or ended.
    ///
    /// # Panics
    ///
    /// Panics when `cell` has no owner: the engine lost track of its
    /// active list.
    pub fn remove(&mut self, cell: GridCoord) {
        let i = self.index(cell);
        self.counts[i] = self.counts[i]
            .checked_sub(1)
            .expect("removed an owner the table never recorded");
    }

    /// Whether any active process owns `cell`.
    pub fn is_owned(&self, cell: GridCoord) -> bool {
        self.is_owned_at(self.index(cell))
    }

    /// Whether any active process owns the cell at dense row-major
    /// index `index` (as a [`wsn_grid::HoleSet`] sweep yields it), so a
    /// sweep can skip owned holes before it converts the index to a
    /// coordinate.
    pub fn is_owned_at(&self, index: usize) -> bool {
        self.counts[index] > 0
    }

    /// In debug builds, asserts that the counts equal a recount of
    /// `owned` (one entry per active owner). Release builds skip the
    /// O(cells) recount.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) when the counts disagree.
    pub fn debug_check(&self, owned: impl IntoIterator<Item = GridCoord>) {
        if cfg!(debug_assertions) {
            let mut recount = vec![0u32; self.counts.len()];
            for cell in owned {
                recount[self.index(cell)] += 1;
            }
            assert!(
                recount == self.counts,
                "owner counts disagree with a recount of the active processes"
            );
        }
    }
}
