//! Grid dimensions plus cell geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_geometry::{CellGeometry, Point2, Rect};

use crate::{Direction, GridCoord, GridError, Result};

/// The factor relating communication range to cell side in the GAF model:
/// `R = √5 · r`, i.e. the farthest pair of points in two 4-adjacent cells
/// are `√(r² + (2r)²) = √5·r` apart, so `R = √5·r` lets any node reach
/// every node of a neighboring cell.
pub const COMM_RANGE_FACTOR: f64 = 2.236_067_977_499_79; // √5

/// The larger factor (`2√2`) that diagonal-neighbor surveillance would
/// require; the paper explicitly declines it ("we do not pursue the
/// surveillance of diagonal neighboring grids … which requires a larger
/// communication range R = 2√2·r (> √5·r)").
pub const DIAGONAL_RANGE_FACTOR: f64 = 2.828_427_124_746_19; // 2√2

/// An immutable description of the virtual grid: `cols × rows` cells of
/// side `r`, anchored at the origin.
///
/// ```
/// use wsn_grid::GridSystem;
///
/// let sys = GridSystem::for_comm_range(16, 16, 10.0)?;
/// assert!((sys.cell_side() - 4.4721).abs() < 1e-3); // the paper's r
/// assert_eq!(sys.cell_count(), 256);
/// # Ok::<(), wsn_grid::GridError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridSystem {
    cols: u16,
    rows: u16,
    geom: CellGeometry,
    comm_range: f64,
}

impl GridSystem {
    /// Creates a grid of `cols × rows` cells of side `r`, deriving the
    /// communication range `R = √5·r`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidDimensions`] when either dimension is
    /// zero, and [`GridError::InvalidRange`] when `r` is not positive and
    /// finite.
    pub fn new(cols: u16, rows: u16, r: f64) -> Result<GridSystem> {
        if cols == 0 || rows == 0 {
            return Err(GridError::InvalidDimensions {
                cols: cols as u32,
                rows: rows as u32,
            });
        }
        if !(r.is_finite() && r > 0.0) {
            return Err(GridError::InvalidRange { value: r });
        }
        let geom = CellGeometry::new(Point2::ORIGIN, r)
            .map_err(|_| GridError::InvalidRange { value: r })?;
        Ok(GridSystem {
            cols,
            rows,
            geom,
            comm_range: COMM_RANGE_FACTOR * r,
        })
    }

    /// Creates a grid sized from a node communication range `R`, using
    /// the paper's relation `r = R/√5` (§5 of the paper: `R = 10 m` gives
    /// `4.4721 m × 4.4721 m` cells).
    ///
    /// # Errors
    ///
    /// As for [`GridSystem::new`].
    pub fn for_comm_range(cols: u16, rows: u16, comm_range: f64) -> Result<GridSystem> {
        if !(comm_range.is_finite() && comm_range > 0.0) {
            return Err(GridError::InvalidRange { value: comm_range });
        }
        GridSystem::new(cols, rows, comm_range / COMM_RANGE_FACTOR)
    }

    /// Number of columns (`n` in the paper).
    #[inline]
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Number of rows (`m` in the paper).
    #[inline]
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Cell side `r`, meters.
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.geom.side()
    }

    /// Node communication range `R = √5·r`, meters.
    #[inline]
    pub fn comm_range(&self) -> f64 {
        self.comm_range
    }

    /// The underlying cell geometry helper.
    #[inline]
    pub fn geometry(&self) -> &CellGeometry {
        &self.geom
    }

    /// Whether `coord` addresses a cell of this grid.
    #[inline]
    pub fn contains(&self, coord: GridCoord) -> bool {
        coord.x < self.cols && coord.y < self.rows
    }

    /// Dense row-major index of `coord` (for `Vec`-backed tables).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    #[inline]
    pub fn index_of(&self, coord: GridCoord) -> Result<usize> {
        if !self.contains(coord) {
            return Err(GridError::OutOfBounds {
                coord,
                cols: self.cols,
                rows: self.rows,
            });
        }
        Ok(coord.y as usize * self.cols as usize + coord.x as usize)
    }

    /// Inverse of [`GridSystem::index_of`].
    ///
    /// # Panics
    ///
    /// Panics when `index >= cell_count()` (indices are produced
    /// internally, so an out-of-range index is a caller bug).
    #[inline]
    pub fn coord_of(&self, index: usize) -> GridCoord {
        assert!(index < self.cell_count(), "cell index out of range");
        GridCoord::new(
            (index % self.cols as usize) as u16,
            (index / self.cols as usize) as u16,
        )
    }

    /// The whole surveillance area rectangle.
    pub fn area(&self) -> Rect {
        Rect::from_size(
            Point2::ORIGIN,
            self.cols as f64 * self.cell_side(),
            self.rows as f64 * self.cell_side(),
        )
        .expect("valid by construction")
    }

    /// Rectangle of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn cell_rect(&self, coord: GridCoord) -> Result<Rect> {
        self.index_of(coord)?;
        Ok(self.geom.cell_rect(coord.x as u32, coord.y as u32))
    }

    /// Center point of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn cell_center(&self, coord: GridCoord) -> Result<Point2> {
        Ok(self.cell_rect(coord)?.center())
    }

    /// The cell containing `p`, or `None` when `p` is outside the area.
    pub fn cell_of(&self, p: Point2) -> Option<GridCoord> {
        let (ix, iy) = self.geom.cell_index_of(p);
        if ix < 0 || iy < 0 || ix >= self.cols as i64 || iy >= self.rows as i64 {
            None
        } else {
            Some(GridCoord::new(ix as u16, iy as u16))
        }
    }

    /// The in-bounds neighbor of `coord` in `dir`.
    pub fn neighbor(&self, coord: GridCoord, dir: Direction) -> Option<GridCoord> {
        coord.step(dir).filter(|c| self.contains(*c))
    }

    /// All in-bounds 4-neighbors of `coord` (2 to 4 of them).
    pub fn neighbors(&self, coord: GridCoord) -> Vec<GridCoord> {
        Direction::ALL
            .iter()
            .filter_map(|&d| self.neighbor(coord, d))
            .collect()
    }

    /// Iterates all coordinates in row-major order.
    pub fn iter_coords(&self) -> impl Iterator<Item = GridCoord> + '_ {
        (0..self.cell_count()).map(|i| self.coord_of(i))
    }
}

impl fmt::Display for GridSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} grid, r={:.4} m, R={:.4} m",
            self.cols,
            self.rows,
            self.cell_side(),
            self.comm_range
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(GridSystem::new(0, 4, 1.0).is_err());
        assert!(GridSystem::new(4, 0, 1.0).is_err());
        assert!(GridSystem::new(4, 4, 0.0).is_err());
        assert!(GridSystem::new(4, 4, f64::NAN).is_err());
        assert!(GridSystem::for_comm_range(4, 4, -1.0).is_err());
    }

    #[test]
    fn papers_parameters() {
        // §5: "For the deployed sensors with communication range R = 10m,
        // we determine the grid size 4.4721m x 4.4721m".
        let sys = GridSystem::for_comm_range(16, 16, 10.0).unwrap();
        assert!((sys.cell_side() - 4.4721).abs() < 1e-4);
        assert!((sys.comm_range() - 10.0).abs() < 1e-12);
        assert_eq!(sys.cell_count(), 256);
    }

    #[test]
    fn range_factors() {
        assert!((COMM_RANGE_FACTOR - 5.0_f64.sqrt()).abs() < 1e-12);
        assert!((DIAGONAL_RANGE_FACTOR - 2.0 * 2.0_f64.sqrt()).abs() < 1e-12);
        // The paper's point: diagonal surveillance would need the larger
        // range (compared via integer-scaled constants to satisfy clippy's
        // const-assertion lint).
        assert!((DIAGONAL_RANGE_FACTOR * 1e12) as i64 > (COMM_RANGE_FACTOR * 1e12) as i64);
    }

    #[test]
    fn index_roundtrip_row_major() {
        let sys = GridSystem::new(5, 4, 1.0).unwrap();
        for i in 0..sys.cell_count() {
            let c = sys.coord_of(i);
            assert_eq!(sys.index_of(c).unwrap(), i);
        }
        assert_eq!(sys.index_of(GridCoord::new(1, 1)).unwrap(), 6);
        assert!(sys.index_of(GridCoord::new(5, 0)).is_err());
        assert!(sys.index_of(GridCoord::new(0, 4)).is_err());
    }

    #[test]
    #[should_panic(expected = "cell index out of range")]
    fn coord_of_out_of_range_panics() {
        let sys = GridSystem::new(2, 2, 1.0).unwrap();
        sys.coord_of(4);
    }

    #[test]
    fn cell_of_and_cell_rect_agree() {
        let sys = GridSystem::new(4, 5, 2.0).unwrap();
        for c in sys.iter_coords() {
            let center = sys.cell_center(c).unwrap();
            assert_eq!(sys.cell_of(center), Some(c));
        }
        assert_eq!(sys.cell_of(Point2::new(-0.1, 0.0)), None);
        assert_eq!(sys.cell_of(Point2::new(8.0, 0.0)), None); // right edge open
        assert_eq!(
            sys.cell_of(Point2::new(7.999, 9.999)),
            Some(GridCoord::new(3, 4))
        );
    }

    #[test]
    fn area_covers_all_cells() {
        let sys = GridSystem::new(3, 2, 2.0).unwrap();
        let area = sys.area();
        assert_eq!(area.width(), 6.0);
        assert_eq!(area.height(), 4.0);
        for c in sys.iter_coords() {
            let r = sys.cell_rect(c).unwrap();
            assert!(area.contains_closed(r.min()));
            assert!(area.contains_closed(r.max()));
        }
    }

    #[test]
    fn neighbors_corner_edge_interior() {
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        assert_eq!(sys.neighbors(GridCoord::new(0, 0)).len(), 2);
        assert_eq!(sys.neighbors(GridCoord::new(1, 0)).len(), 3);
        assert_eq!(sys.neighbors(GridCoord::new(1, 1)).len(), 4);
        assert_eq!(sys.neighbor(GridCoord::new(3, 3), Direction::East), None);
    }

    #[test]
    fn comm_range_reaches_neighbor_cells() {
        // Farthest pair of points in 4-adjacent cells is exactly sqrt(5) r.
        let sys = GridSystem::new(2, 1, 4.0).unwrap();
        let a = sys.cell_rect(GridCoord::new(0, 0)).unwrap();
        let b = sys.cell_rect(GridCoord::new(1, 0)).unwrap();
        let far = a.min().distance(b.max());
        assert!(far <= sys.comm_range() + 1e-9);
        assert!((far - sys.comm_range()).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_dims() {
        let sys = GridSystem::new(4, 5, 1.0).unwrap();
        assert!(sys.to_string().contains("4x5"));
    }
}
