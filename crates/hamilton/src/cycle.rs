//! The serpentine directed Hamilton cycle for grids with an even side.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_grid::GridCoord;

use crate::{HamiltonError, Result};

/// A directed Hamilton cycle over a `cols × rows` grid.
///
/// Exists iff `cols·rows` is even (for grid graphs with both sides ≥ 2,
/// that is iff at least one side is even). The construction, for even
/// `rows` (and its transpose for even `cols`):
///
/// ```text
/// rows = 4, cols = 5 (the paper's Figure 1(b) size):
///
///   y=3  ↓ ← ← ← ←      column 0 carries the southbound return;
///   y=2  ↓ → → → ↑      rows 1..rows-1 serpentine over x ≥ 1;
///   y=1  ↓ ← ← ← ↑      row 0 runs east from the origin.
///   y=0  O → → → ↑
/// ```
///
/// The cycle direction is the paper's "direction of node moving": a
/// replacement spare moves from a cell to its *successor*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HamiltonCycle {
    cols: u16,
    rows: u16,
    /// Cells in cycle order; `order[k+1]` is the successor of `order[k]`
    /// and `order[0]` is the successor of `order.last()`.
    order: Vec<GridCoord>,
    /// Position of each cell (dense row-major index) in `order`.
    position: Vec<u32>,
}

impl HamiltonCycle {
    /// Builds the cycle for a `cols × rows` grid.
    ///
    /// # Errors
    ///
    /// [`HamiltonError::TooSmall`] when either side is below 2, and
    /// [`HamiltonError::BothSidesOdd`] when no Hamilton cycle exists
    /// (both sides odd) — odd×odd grids use
    /// [`crate::DualPathCycle`] instead.
    pub fn build(cols: u16, rows: u16) -> Result<HamiltonCycle> {
        if cols < 2 || rows < 2 {
            return Err(HamiltonError::TooSmall { cols, rows });
        }
        if cols % 2 == 1 && rows % 2 == 1 {
            return Err(HamiltonError::BothSidesOdd { cols, rows });
        }
        let order = if rows.is_multiple_of(2) {
            serpentine(cols, rows, false)
        } else {
            // cols must be even here; build the transposed cycle and swap.
            serpentine(rows, cols, true)
        };
        let mut position = vec![u32::MAX; cols as usize * rows as usize];
        for (k, c) in order.iter().enumerate() {
            position[c.y as usize * cols as usize + c.x as usize] = k as u32;
        }
        debug_assert!(position.iter().all(|&p| p != u32::MAX));
        Ok(HamiltonCycle {
            cols,
            rows,
            order,
            position,
        })
    }

    /// Grid columns.
    #[inline]
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Grid rows.
    #[inline]
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of cells on the cycle (= all cells of the grid).
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Always `false`: a cycle has at least 2×2 cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cells in cycle order.
    #[inline]
    pub fn order(&self) -> &[GridCoord] {
        &self.order
    }

    /// Position of `cell` on the cycle (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid (topologies and networks are
    /// constructed from the same dimensions, so this is a wiring bug).
    pub fn position(&self, cell: GridCoord) -> usize {
        assert!(
            cell.x < self.cols && cell.y < self.rows,
            "cell {cell} outside {}x{} cycle",
            self.cols,
            self.rows
        );
        self.position[cell.y as usize * self.cols as usize + cell.x as usize] as usize
    }

    /// The cell the head of `cell` monitors (next along the cycle).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn successor(&self, cell: GridCoord) -> GridCoord {
        let k = self.position(cell) + 1;
        self.order[if k == self.order.len() { 0 } else { k }]
    }

    /// The cell whose head monitors `cell` (previous along the cycle).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn predecessor(&self, cell: GridCoord) -> GridCoord {
        let k = self.position(cell);
        self.order[if k == 0 { self.order.len() } else { k } - 1]
    }

    /// Forward hop count from `from` to `to` along the cycle direction
    /// (0 when equal).
    ///
    /// # Panics
    ///
    /// Panics if either cell is outside the grid.
    pub fn forward_distance(&self, from: GridCoord, to: GridCoord) -> usize {
        let a = self.position(from);
        let b = self.position(to);
        (b + self.order.len() - a) % self.order.len()
    }

    /// Length `L` of the directed Hamilton *path* deduced by removing one
    /// vacant cell from the cycle, in hops: `m·n − 1` (Theorem 2's `L`).
    pub fn deduced_path_hops(&self) -> usize {
        self.order.len() - 1
    }
}

impl fmt::Display for HamiltonCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hamilton cycle over {}x{}", self.cols, self.rows)
    }
}

/// The serpentine construction for even `rows`; `transpose` swaps x/y in
/// the emitted coordinates (used when only `cols` is even).
fn serpentine(cols: u16, rows: u16, transpose: bool) -> Vec<GridCoord> {
    debug_assert!(rows.is_multiple_of(2) && cols >= 2 && rows >= 2);
    let mut out = Vec::with_capacity(cols as usize * rows as usize);
    let mut push = |x: u16, y: u16| {
        out.push(if transpose {
            GridCoord::new(y, x)
        } else {
            GridCoord::new(x, y)
        });
    };
    // Row 0: east from the origin.
    for x in 0..cols {
        push(x, 0);
    }
    // Rows 1..rows-1 serpentine over x in [1, cols-1]. Row 1 runs west
    // (we arrive at (cols-1, 0) and step north), row 2 east, and so on;
    // with `rows` even the final row `rows-1` runs west and ends at x=1.
    for y in 1..rows {
        if y % 2 == 1 {
            for x in (1..cols).rev() {
                push(x, y);
            }
        } else {
            for x in 1..cols {
                push(x, y);
            }
        }
    }
    // Southbound return down column 0.
    for y in (1..rows).rev() {
        push(0, y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_cycle;

    #[test]
    fn build_validates_dimensions() {
        assert_eq!(
            HamiltonCycle::build(1, 4).unwrap_err(),
            HamiltonError::TooSmall { cols: 1, rows: 4 }
        );
        assert_eq!(
            HamiltonCycle::build(4, 1).unwrap_err(),
            HamiltonError::TooSmall { cols: 4, rows: 1 }
        );
        assert_eq!(
            HamiltonCycle::build(3, 5).unwrap_err(),
            HamiltonError::BothSidesOdd { cols: 3, rows: 5 }
        );
    }

    #[test]
    fn papers_4x5_grid() {
        // Figure 1(b): 4x5 grid system; L = 19 per Figure 3(a).
        let c = HamiltonCycle::build(4, 5).unwrap();
        assert_eq!(c.len(), 20);
        assert_eq!(c.deduced_path_hops(), 19);
        validate_cycle(&c).unwrap();
    }

    #[test]
    fn papers_16x16_grid() {
        let c = HamiltonCycle::build(16, 16).unwrap();
        assert_eq!(c.len(), 256);
        assert_eq!(c.deduced_path_hops(), 255); // Figure 3(b): L = 255
        validate_cycle(&c).unwrap();
    }

    #[test]
    fn all_even_sided_grids_up_to_12_validate() {
        for cols in 2u16..=12 {
            for rows in 2u16..=12 {
                if cols % 2 == 1 && rows % 2 == 1 {
                    continue;
                }
                let c = HamiltonCycle::build(cols, rows)
                    .unwrap_or_else(|e| panic!("{cols}x{rows}: {e}"));
                validate_cycle(&c).unwrap_or_else(|m| panic!("{cols}x{rows}: {m}"));
            }
        }
    }

    #[test]
    fn successor_predecessor_inverse() {
        let c = HamiltonCycle::build(6, 4).unwrap();
        for &cell in c.order() {
            assert_eq!(c.predecessor(c.successor(cell)), cell);
            assert_eq!(c.successor(c.predecessor(cell)), cell);
            assert!(cell.is_adjacent(c.successor(cell)));
        }
    }

    #[test]
    fn forward_distance_wraps() {
        let c = HamiltonCycle::build(2, 2).unwrap();
        let o = c.order().to_vec();
        assert_eq!(c.forward_distance(o[0], o[0]), 0);
        assert_eq!(c.forward_distance(o[0], o[3]), 3);
        assert_eq!(c.forward_distance(o[3], o[0]), 1);
    }

    #[test]
    fn starts_at_origin() {
        // The construction anchors at (0,0), matching Figure 1(b)'s
        // labeled origin.
        let c = HamiltonCycle::build(4, 4).unwrap();
        assert_eq!(c.order()[0], GridCoord::new(0, 0));
        assert_eq!(c.position(GridCoord::new(0, 0)), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn position_out_of_bounds_panics() {
        let c = HamiltonCycle::build(4, 4).unwrap();
        c.position(GridCoord::new(4, 0));
    }

    #[test]
    fn transposed_construction_for_even_cols_odd_rows() {
        let c = HamiltonCycle::build(4, 5).unwrap(); // rows odd, cols even
        validate_cycle(&c).unwrap();
        let c2 = HamiltonCycle::build(6, 3).unwrap();
        validate_cycle(&c2).unwrap();
    }

    #[test]
    fn display_nonempty() {
        assert!(!HamiltonCycle::build(4, 4).unwrap().to_string().is_empty());
    }
}
