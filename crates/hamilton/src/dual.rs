//! The Section-4 dual-path construction for odd×odd grids.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_grid::GridCoord;

use crate::{HamiltonError, Result};

/// The paper's dual-path Hamilton structure for grids where **both**
/// sides are odd and no Hamilton cycle exists.
///
/// Two directed Hamilton paths share all cells except the two special
/// cells `A` and `B`:
///
/// * path one: `A → D → (shared chain) → C → B`
/// * path two: `B → D → (shared chain) → C → A`
///
/// where `D` is the common successor and `C` the common predecessor of
/// `A` and `B`. This implementation places the special cells in the
/// bottom-left 2×2 block — `A = (0,0)`, `B = (1,1)`, `C = (1,0)`,
/// `D = (0,1)` — and routes the shared chain as:
///
/// ```text
/// 5 x 5 (the paper's Figure 4 size; D = start, C = end of the chain):
///
///   y=4  → → → → ↓        rows 2..m-1 serpentine over x ≤ n-2,
///   y=3  ↑ ← ← ← ↓        column n-1 returns south,
///   y=2  → → → ↗ ↓        rows 0..1 zigzag west back to C.
///   y=1  D · ↑ ↓ ↑ ↓
///   y=0  A C ← ↑ ← ↘
/// ```
///
/// (`A` and `B` hang off the chain ends: `C → A`, `C → B`, `A → D`,
/// `B → D`.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DualPathCycle {
    cols: u16,
    rows: u16,
    a: GridCoord,
    b: GridCoord,
    c: GridCoord,
    d: GridCoord,
    /// Shared chain from `D` to `C` inclusive (`m·n − 2` cells).
    chain: Vec<GridCoord>,
    /// Position of each cell in `chain` (dense row-major index);
    /// `u32::MAX` for `A` and `B`.
    position: Vec<u32>,
}

impl DualPathCycle {
    /// Builds the dual-path structure for a `cols × rows` grid.
    ///
    /// # Errors
    ///
    /// [`HamiltonError::NotBothOdd`] when either side is even (use
    /// [`crate::HamiltonCycle`] then), and [`HamiltonError::TooSmall`]
    /// below 3×3.
    pub fn build(cols: u16, rows: u16) -> Result<DualPathCycle> {
        if cols.is_multiple_of(2) || rows.is_multiple_of(2) {
            return Err(HamiltonError::NotBothOdd { cols, rows });
        }
        if cols < 3 || rows < 3 {
            return Err(HamiltonError::TooSmall { cols, rows });
        }
        let a = GridCoord::new(0, 0);
        let b = GridCoord::new(1, 1);
        let c = GridCoord::new(1, 0);
        let d = GridCoord::new(0, 1);

        let mut chain = Vec::with_capacity(cols as usize * rows as usize - 2);
        // 1. Start at D and step north onto row 2.
        chain.push(d);
        // 2. Serpentine rows 2..rows-1 over x in [0, cols-2]; row 2 runs
        //    east, row 3 west, ...; rows-1 is even (rows odd) so the last
        //    row runs east and ends at (cols-2, rows-1).
        for y in 2..rows {
            if y % 2 == 0 {
                for x in 0..cols - 1 {
                    chain.push(GridCoord::new(x, y));
                }
            } else {
                for x in (0..cols - 1).rev() {
                    chain.push(GridCoord::new(x, y));
                }
            }
        }
        // 3. Step east to the top-right corner, then south down the last
        //    column to row 1.
        for y in (1..rows).rev() {
            chain.push(GridCoord::new(cols - 1, y));
        }
        // 4. Zigzag west over rows 0..1 for columns cols-1 .. 2, then end
        //    at C = (1, 0). Column cols-1 exits south; after that columns
        //    alternate bottom-to-top and top-to-bottom.
        chain.push(GridCoord::new(cols - 1, 0));
        let mut x = cols - 2;
        while x >= 2 {
            if (cols - 2 - x).is_multiple_of(2) {
                chain.push(GridCoord::new(x, 0));
                chain.push(GridCoord::new(x, 1));
            } else {
                chain.push(GridCoord::new(x, 1));
                chain.push(GridCoord::new(x, 0));
            }
            x -= 1;
        }
        chain.push(c);

        let mut position = vec![u32::MAX; cols as usize * rows as usize];
        for (k, cell) in chain.iter().enumerate() {
            position[cell.y as usize * cols as usize + cell.x as usize] = k as u32;
        }
        Ok(DualPathCycle {
            cols,
            rows,
            a,
            b,
            c,
            d,
            chain,
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

    /// Special cell `A` (start of path one, end of path two).
    #[inline]
    pub fn a(&self) -> GridCoord {
        self.a
    }

    /// Special cell `B` (start of path two, end of path one).
    #[inline]
    pub fn b(&self) -> GridCoord {
        self.b
    }

    /// Common predecessor `C` of `A` and `B`.
    #[inline]
    pub fn c(&self) -> GridCoord {
        self.c
    }

    /// Common successor `D` of `A` and `B`.
    #[inline]
    pub fn d(&self) -> GridCoord {
        self.d
    }

    /// The shared chain from `D` to `C` inclusive (`m·n − 2` cells).
    #[inline]
    pub fn chain(&self) -> &[GridCoord] {
        &self.chain
    }

    /// Path one: `A → D → … → C → B` (`m·n` cells, `m·n − 1` hops —
    /// the paper: "The replacement initiated for these two vacant grids
    /// can stretch as far as (m×n−1) hops").
    pub fn path_one(&self) -> Vec<GridCoord> {
        let mut p = Vec::with_capacity(self.chain.len() + 2);
        p.push(self.a);
        p.extend_from_slice(&self.chain);
        p.push(self.b);
        p
    }

    /// Path two: `B → D → … → C → A`.
    pub fn path_two(&self) -> Vec<GridCoord> {
        let mut p = Vec::with_capacity(self.chain.len() + 2);
        p.push(self.b);
        p.extend_from_slice(&self.chain);
        p.push(self.a);
        p
    }

    /// Position of `cell` on the shared chain, or `None` for `A` and `B`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn chain_position(&self, cell: GridCoord) -> Option<usize> {
        assert!(
            cell.x < self.cols && cell.y < self.rows,
            "cell {cell} outside {}x{} dual-path grid",
            self.cols,
            self.rows
        );
        let p = self.position[cell.y as usize * self.cols as usize + cell.x as usize];
        (p != u32::MAX).then_some(p as usize)
    }

    /// Corollary 2's walk-length parameter `L = m·n − 2`: the shared
    /// chain's length. It is the paper's parameter, not the longest
    /// walk. A hole at `A` whose only spare is in `B` (or the reverse)
    /// walks `m·n − 1` hops: to `C`, back along the whole chain to `D`,
    /// then to the other special cell.
    pub fn corollary_hops(&self) -> usize {
        self.chain.len()
    }
}

impl fmt::Display for DualPathCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dual-path hamilton structure over {}x{} (A={}, B={}, C={}, D={})",
            self.cols, self.rows, self.a, self.b, self.c, self.d
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_dual;

    #[test]
    fn build_validates_dimensions() {
        assert_eq!(
            DualPathCycle::build(4, 5).unwrap_err(),
            HamiltonError::NotBothOdd { cols: 4, rows: 5 }
        );
        assert_eq!(
            DualPathCycle::build(5, 4).unwrap_err(),
            HamiltonError::NotBothOdd { cols: 5, rows: 4 }
        );
        assert_eq!(
            DualPathCycle::build(1, 3).unwrap_err(),
            HamiltonError::TooSmall { cols: 1, rows: 3 }
        );
        assert_eq!(
            DualPathCycle::build(3, 1).unwrap_err(),
            HamiltonError::TooSmall { cols: 3, rows: 1 }
        );
    }

    #[test]
    fn papers_5x5_figure_4() {
        let d = DualPathCycle::build(5, 5).unwrap();
        assert_eq!(d.chain().len(), 23); // m*n - 2
        assert_eq!(d.path_one().len(), 25);
        assert_eq!(d.path_two().len(), 25);
        assert_eq!(d.corollary_hops(), 23);
        validate_dual(&d).unwrap();
    }

    #[test]
    fn smallest_3x3() {
        let d = DualPathCycle::build(3, 3).unwrap();
        assert_eq!(d.chain().len(), 7);
        validate_dual(&d).unwrap();
    }

    #[test]
    fn all_odd_grids_up_to_13_validate() {
        for cols in (3u16..=13).step_by(2) {
            for rows in (3u16..=13).step_by(2) {
                let d = DualPathCycle::build(cols, rows)
                    .unwrap_or_else(|e| panic!("{cols}x{rows}: {e}"));
                validate_dual(&d).unwrap_or_else(|m| panic!("{cols}x{rows}: {m}"));
            }
        }
    }

    #[test]
    fn special_cells_are_bottom_left_block() {
        let d = DualPathCycle::build(7, 9).unwrap();
        assert_eq!(d.a(), GridCoord::new(0, 0));
        assert_eq!(d.b(), GridCoord::new(1, 1));
        assert_eq!(d.c(), GridCoord::new(1, 0));
        assert_eq!(d.d(), GridCoord::new(0, 1));
    }

    #[test]
    fn chain_position_none_for_a_b() {
        let d = DualPathCycle::build(5, 5).unwrap();
        assert_eq!(d.chain_position(d.a()), None);
        assert_eq!(d.chain_position(d.b()), None);
        assert_eq!(d.chain_position(d.d()), Some(0));
        assert_eq!(d.chain_position(d.c()), Some(22));
        for (k, &cell) in d.chain().iter().enumerate() {
            assert_eq!(d.chain_position(cell), Some(k));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn chain_position_out_of_bounds_panics() {
        let d = DualPathCycle::build(3, 3).unwrap();
        d.chain_position(GridCoord::new(3, 0));
    }

    #[test]
    fn display_mentions_specials() {
        let d = DualPathCycle::build(3, 3).unwrap();
        let s = d.to_string();
        assert!(s.contains("A="));
        assert!(s.contains("3x3"));
    }
}
