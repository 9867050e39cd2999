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
///
/// The serpentine is closed-form: a cell's successor, predecessor and
/// position are a few comparisons on its coordinates, so the cycle keeps
/// no tables, building it costs nothing per cell, and a replacement hop
/// finds its next cell without a memory access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HamiltonCycle {
    cols: u16,
    rows: u16,
    /// `true` when `rows` is odd: the serpentine then runs over the
    /// transposed grid (rows as columns), whose row count `cols` is even.
    transposed: bool,
}

/// The grid as the serpentine sees it: `width × height` with an even
/// `height`, row 0 running east from the origin.
#[derive(Debug, Clone, Copy)]
struct Frame {
    width: u16,
    height: u16,
}

impl Frame {
    /// The cell after `(x, y)` on the serpentine.
    #[inline]
    fn next(self, x: u16, y: u16) -> (u16, u16) {
        let (w, h) = (self.width, self.height);
        if y == 0 {
            // Row 0 east, then up into row 1 at the east edge.
            if x + 1 < w {
                (x + 1, 0)
            } else {
                (x, 1)
            }
        } else if x == 0 {
            // The southbound return down column 0 closes at the origin.
            (0, y - 1)
        } else if y % 2 == 1 {
            // Odd rows run west down to x = 1, then up, except the top
            // row, which turns into the return column.
            if x > 1 {
                (x - 1, y)
            } else if y + 1 < h {
                (1, y + 1)
            } else {
                (0, y)
            }
        } else if x + 1 < w {
            // Even rows (y ≥ 2) run east, then up at the east edge.
            (x + 1, y)
        } else {
            (x, y + 1)
        }
    }

    /// The cell before `(x, y)` on the serpentine: [`Frame::next`]
    /// inverted case by case.
    #[inline]
    fn prev(self, x: u16, y: u16) -> (u16, u16) {
        let (w, h) = (self.width, self.height);
        if y == 0 {
            if x > 0 {
                (x - 1, 0)
            } else {
                (0, 1)
            }
        } else if x == 0 {
            if y + 1 < h {
                (0, y + 1)
            } else {
                (1, y)
            }
        } else if y % 2 == 1 {
            if x + 1 < w {
                (x + 1, y)
            } else {
                (x, y - 1)
            }
        } else if x > 1 {
            (x - 1, y)
        } else {
            (1, y - 1)
        }
    }

    /// The position of `(x, y)` on the serpentine, counted from the
    /// origin: row 0, then the `width − 1` cells of each later row, then
    /// column 0 from the top down.
    #[inline]
    fn position(self, x: u16, y: u16) -> usize {
        let (w, h) = (usize::from(self.width), usize::from(self.height));
        let (x, y) = (usize::from(x), usize::from(y));
        if y == 0 {
            x
        } else if x == 0 {
            w + (h - 1) * (w - 1) + (h - 1 - y)
        } else {
            let along = if y % 2 == 1 { w - 1 - x } else { x - 1 };
            w + (y - 1) * (w - 1) + along
        }
    }

    /// The cell at position `k` ([`Frame::position`] inverted).
    fn cell_at(self, k: usize) -> (u16, u16) {
        let (w, h) = (usize::from(self.width), usize::from(self.height));
        let serpentine = w + (h - 1) * (w - 1);
        let (x, y) = if k < w {
            (k, 0)
        } else if k < serpentine {
            let (row, along) = ((k - w) / (w - 1), (k - w) % (w - 1));
            let y = row + 1;
            (if y % 2 == 1 { w - 1 - along } else { 1 + along }, y)
        } else {
            (0, h - 1 - (k - serpentine))
        };
        (x as u16, y as u16)
    }
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
        Ok(HamiltonCycle {
            cols,
            rows,
            transposed: !rows.is_multiple_of(2),
        })
    }

    /// The serpentine's frame.
    #[inline]
    fn serpentine(&self) -> Frame {
        if self.transposed {
            Frame {
                width: self.rows,
                height: self.cols,
            }
        } else {
            Frame {
                width: self.cols,
                height: self.rows,
            }
        }
    }

    /// The serpentine's frame and `cell` in it.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid (topologies and networks are
    /// constructed from the same dimensions, so this is a wiring bug).
    #[inline]
    fn frame(&self, cell: GridCoord) -> (Frame, u16, u16) {
        assert!(
            cell.x < self.cols && cell.y < self.rows,
            "cell {cell} outside {}x{} cycle",
            self.cols,
            self.rows
        );
        let (x, y) = if self.transposed {
            (cell.y, cell.x)
        } else {
            (cell.x, cell.y)
        };
        (self.serpentine(), x, y)
    }

    /// A frame cell as a grid cell.
    #[inline]
    fn unframe(&self, (x, y): (u16, u16)) -> GridCoord {
        if self.transposed {
            GridCoord::new(y, x)
        } else {
            GridCoord::new(x, y)
        }
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
        usize::from(self.cols) * usize::from(self.rows)
    }

    /// Always `false`: a cycle has at least 2×2 cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cell at position `k` on the cycle; position 0 is the origin.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below [`HamiltonCycle::len`].
    pub fn cell_at(&self, k: usize) -> GridCoord {
        assert!(k < self.len(), "position {k} outside {self}");
        self.unframe(self.serpentine().cell_at(k))
    }

    /// The cells in cycle order, from the origin.
    pub fn order(&self) -> impl Iterator<Item = GridCoord> + '_ {
        (0..self.len()).map(|k| self.cell_at(k))
    }

    /// Position of `cell` on the cycle (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn position(&self, cell: GridCoord) -> usize {
        let (frame, x, y) = self.frame(cell);
        frame.position(x, y)
    }

    /// The cell the head of `cell` monitors (next along the cycle).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    pub fn successor(&self, cell: GridCoord) -> GridCoord {
        let (frame, x, y) = self.frame(cell);
        self.unframe(frame.next(x, y))
    }

    /// The cell whose head monitors `cell` (previous along the cycle).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    pub fn predecessor(&self, cell: GridCoord) -> GridCoord {
        let (frame, x, y) = self.frame(cell);
        self.unframe(frame.prev(x, y))
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
        (b + self.len() - a) % self.len()
    }

    /// Length `L` of the directed Hamilton *path* deduced by removing one
    /// vacant cell from the cycle, in hops: `m·n − 1` (Theorem 2's `L`).
    pub fn deduced_path_hops(&self) -> usize {
        self.len() - 1
    }
}

impl fmt::Display for HamiltonCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hamilton cycle over {}x{}", self.cols, self.rows)
    }
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
    fn papers_figure_order() {
        // The 5-column, 4-row serpentine of the type-level diagram, cell
        // by cell: row 0 east, rows 1-3 over x >= 1, column 0 south.
        let c = HamiltonCycle::build(5, 4).unwrap();
        #[rustfmt::skip]
        let want = [
            (0, 0), (1, 0), (2, 0), (3, 0), (4, 0),
            (4, 1), (3, 1), (2, 1), (1, 1),
            (1, 2), (2, 2), (3, 2), (4, 2),
            (4, 3), (3, 3), (2, 3), (1, 3),
            (0, 3), (0, 2), (0, 1),
        ];
        let got: Vec<(u16, u16)> = c.order().map(|g| (g.x, g.y)).collect();
        assert_eq!(got, want);
        // Only the columns even: the same serpentine, transposed.
        let t = HamiltonCycle::build(4, 5).unwrap();
        let got: Vec<(u16, u16)> = t.order().map(|g| (g.y, g.x)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn successor_predecessor_inverse() {
        let c = HamiltonCycle::build(6, 4).unwrap();
        for cell in c.order() {
            assert_eq!(c.predecessor(c.successor(cell)), cell);
            assert_eq!(c.successor(c.predecessor(cell)), cell);
            assert!(cell.is_adjacent(c.successor(cell)));
        }
    }

    #[test]
    fn forward_distance_wraps() {
        let c = HamiltonCycle::build(2, 2).unwrap();
        let o: Vec<GridCoord> = c.order().collect();
        assert_eq!(c.forward_distance(o[0], o[0]), 0);
        assert_eq!(c.forward_distance(o[0], o[3]), 3);
        assert_eq!(c.forward_distance(o[3], o[0]), 1);
    }

    #[test]
    fn starts_at_origin() {
        // The construction anchors at (0,0), matching Figure 1(b)'s
        // labeled origin.
        let c = HamiltonCycle::build(4, 4).unwrap();
        assert_eq!(c.cell_at(0), GridCoord::new(0, 0));
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
