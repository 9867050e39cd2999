//! Geometry of a single `r × r` virtual-grid cell, including the paper's
//! *central area* and the per-hop movement-distance bounds.
//!
//! Section 4 of the paper ("Implementation Issue") controls each node
//! movement by sending the moving spare to a point in the **central area**
//! of the target cell. The stated bounds — minimum distance `r/4` and
//! maximum `(√58/4)·r` — pin down the central area exactly: it is the
//! concentric square of side `(3/4)·r`.
//!
//! *Derivation.* Let the central square have side `c`. For two
//! horizontally adjacent cells, the closest pair of central-area points
//! are on the facing edges, at distance `r − c`; the paper's minimum
//! `r/4` forces `c = (3/4)·r`. The farthest pair are opposite outer
//! corners, at distance `√((r + c)² + c²) = (r/4)·√(7² + 3²) =
//! (√58/4)·r`, matching the paper's maximum. The paper uses `1.08·r` as
//! the average; see [`CellGeometry::AVG_MOVE_FACTOR`].

use serde::{Deserialize, Serialize};

use crate::{GeometryError, Point2, Rect, Result};

/// Side fraction of the central area relative to the cell side
/// (`c = CENTRAL_FRACTION · r`), derived from the paper's movement-distance
/// bounds as explained in the module docs.
pub const CENTRAL_FRACTION: f64 = 0.75;

/// Geometry helper for the cells of an `r × r` virtual grid anchored at an
/// origin point.
///
/// This type knows nothing about occupancy or heads — it is pure geometry:
/// cell rectangles, central areas, and the movement-distance model.
///
/// ```
/// use wsn_geometry::{CellGeometry, Point2};
///
/// let g = CellGeometry::new(Point2::ORIGIN, 4.0)?;
/// let cell = g.cell_rect(2, 3);
/// assert_eq!(cell.min(), Point2::new(8.0, 12.0));
/// assert_eq!(g.cell_index_of(Point2::new(9.0, 13.5)), (2, 3));
/// # Ok::<(), wsn_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellGeometry {
    origin: Point2,
    side: f64,
}

impl CellGeometry {
    /// Average per-hop movement distance as a multiple of `r`, for moves
    /// between uniformly distributed points in the central areas of
    /// 4-adjacent cells. The paper adopts `1.08` (its §4); Monte-Carlo
    /// integration of the exact model gives `≈ 1.050` — the ~3% gap does
    /// not affect any comparison shape, since both SR and AR use the same
    /// model. We follow the paper's
    /// constant so analytical overlays reproduce Figures 5 and 8.
    pub const AVG_MOVE_FACTOR: f64 = 1.08;

    /// Minimum per-hop distance as a multiple of `r` (`1/4`).
    pub const MIN_MOVE_FACTOR: f64 = 0.25;

    /// Maximum per-hop distance as a multiple of `r` (`√58/4 ≈ 1.9039`).
    pub const MAX_MOVE_FACTOR: f64 = 1.903_943_276_465_977;

    /// Creates the geometry for a grid of `side × side` cells whose cell
    /// `(0, 0)` has minimum corner `origin`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonPositiveExtent`] when `side <= 0`, and
    /// [`GeometryError::NonFinite`] on non-finite input.
    pub fn new(origin: Point2, side: f64) -> Result<CellGeometry> {
        if !origin.is_finite() || !side.is_finite() {
            return Err(GeometryError::NonFinite {
                context: "CellGeometry::new",
            });
        }
        if side <= 0.0 {
            return Err(GeometryError::NonPositiveExtent {
                context: "CellGeometry::new side",
                value: side,
            });
        }
        Ok(CellGeometry { origin, side })
    }

    /// Cell side length `r`.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Origin (minimum corner of cell `(0, 0)`).
    #[inline]
    pub fn origin(&self) -> Point2 {
        self.origin
    }

    /// Rectangle of the cell at integer grid index `(x, y)`.
    pub fn cell_rect(&self, x: u32, y: u32) -> Rect {
        let min = Point2::new(
            self.origin.x + x as f64 * self.side,
            self.origin.y + y as f64 * self.side,
        );
        // Cannot fail: side > 0 and coordinates finite by invariant.
        Rect::from_size(min, self.side, self.side).expect("cell rect from valid geometry")
    }

    /// Center of the cell at `(x, y)`.
    pub fn cell_center(&self, x: u32, y: u32) -> Point2 {
        self.cell_rect(x, y).center()
    }

    /// Central area of the cell at `(x, y)`: the concentric
    /// `(3/4)r × (3/4)r` square that movement targets are drawn from.
    pub fn central_area(&self, x: u32, y: u32) -> Rect {
        self.cell_rect(x, y)
            .shrunk(CENTRAL_FRACTION)
            .expect("central area from valid geometry")
    }

    /// The point at unit coordinates `(u, v)` of cell `(x, y)`'s central
    /// area: `u = v = 0` is its minimum corner, `u = v = 1` its maximum.
    ///
    /// Bit for bit the point
    /// `sample::point_in_rect(&self.central_area(x, y), u, v)` (and
    /// `sample::point_in_central_area(&self.cell_rect(x, y), u, v)`): it
    /// performs the same float operations in the same order, but builds
    /// no [`Rect`] and validates nothing, so a movement target costs a
    /// few multiply-adds.
    #[inline]
    pub fn central_point(&self, x: u32, y: u32, u: f64, v: f64) -> Point2 {
        Point2::new(
            central_coord(self.origin.x + x as f64 * self.side, self.side, u),
            central_coord(self.origin.y + y as f64 * self.side, self.side, v),
        )
    }

    /// Integer cell index containing point `p`, by floor division, so
    /// the cells are half-open like [`Rect::contains`]. Points left of or
    /// below the origin map to negative indices; nothing is clamped, so
    /// callers holding the grid bounds check the result against them.
    ///
    /// The division rounds down with [`floor_to_i64`], which equals
    /// `f64::floor` followed by `as i64` on every input but needs no
    /// rounding instruction (the baseline x86-64 target has none, and
    /// `f64::floor` becomes a library call there).
    #[inline]
    pub fn cell_index_of(&self, p: Point2) -> (i64, i64) {
        (
            floor_to_i64((p.x - self.origin.x) / self.side),
            floor_to_i64((p.y - self.origin.y) / self.side),
        )
    }

    /// Minimum possible per-hop movement distance, `r/4`.
    #[inline]
    pub fn min_move_distance(&self) -> f64 {
        Self::MIN_MOVE_FACTOR * self.side
    }

    /// Maximum possible per-hop movement distance, `(√58/4)·r`.
    #[inline]
    pub fn max_move_distance(&self) -> f64 {
        Self::MAX_MOVE_FACTOR * self.side
    }

    /// The paper's estimate of the average per-hop movement distance,
    /// `1.08·r` (see [`CellGeometry::AVG_MOVE_FACTOR`]).
    #[inline]
    pub fn avg_move_distance(&self) -> f64 {
        Self::AVG_MOVE_FACTOR * self.side
    }
}

/// One axis of [`CellGeometry::central_point`]: the cell spans
/// `[min, min + side)`, and this is the float sequence of
/// `Rect::from_size`, `Rect::shrunk` and `sample::point_in_rect` on that
/// axis.
#[inline]
fn central_coord(min: f64, side: f64, t: f64) -> f64 {
    let width = (min + side) - min;
    let center = min + width * 0.5;
    let half = width * CENTRAL_FRACTION / 2.0;
    let (lo, hi) = (center - half, center + half);
    lo + t * (hi - lo)
}

/// `x.floor() as i64` for every `f64`, without a rounding instruction:
/// truncate toward zero, then step down once when truncation rounded a
/// negative non-integer up. Like the `as` cast it saturates at
/// `i64::MIN`/`i64::MAX` (so ±∞ and `|x| ≥ 2⁶³` clamp) and maps NaN to 0;
/// `−0.0` and `(−1, 0)` give 0 and −1 as `floor` does.
///
/// ```
/// use wsn_geometry::cell::floor_to_i64;
///
/// assert_eq!(floor_to_i64(2.7), 2);
/// assert_eq!(floor_to_i64(-0.25), -1);
/// assert_eq!(floor_to_i64(-0.0), 0);
/// assert_eq!(floor_to_i64(f64::NAN), 0);
/// assert_eq!(floor_to_i64(f64::NEG_INFINITY), i64::MIN);
/// ```
#[inline]
pub fn floor_to_i64(x: f64) -> i64 {
    let t = x as i64;
    // `t` rounds toward zero, so it lies above `x` exactly when `x` is a
    // negative non-integer or below `i64::MIN`; the latter saturates.
    t.saturating_sub(i64::from((t as f64) > x))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CellGeometry {
        CellGeometry::new(Point2::ORIGIN, 4.0).unwrap()
    }

    #[test]
    fn constructor_validates() {
        assert!(CellGeometry::new(Point2::ORIGIN, 0.0).is_err());
        assert!(CellGeometry::new(Point2::ORIGIN, -1.0).is_err());
        assert!(CellGeometry::new(Point2::new(f64::NAN, 0.0), 1.0).is_err());
    }

    #[test]
    fn cell_rect_tiles_plane() {
        let g = geom();
        let r00 = g.cell_rect(0, 0);
        let r10 = g.cell_rect(1, 0);
        assert_eq!(r00.max().x, r10.min().x);
        assert_eq!(r00.area(), 16.0);
        assert_eq!(g.cell_center(1, 2), Point2::new(6.0, 10.0));
    }

    #[test]
    fn index_of_roundtrip() {
        let g = geom();
        for x in 0..5u32 {
            for y in 0..5u32 {
                let c = g.cell_center(x, y);
                assert_eq!(g.cell_index_of(c), (x as i64, y as i64));
                // Min corner belongs to the cell (half-open convention).
                let m = g.cell_rect(x, y).min();
                assert_eq!(g.cell_index_of(m), (x as i64, y as i64));
            }
        }
        assert_eq!(g.cell_index_of(Point2::new(-0.1, 0.0)), (-1, 0));
    }

    #[test]
    fn central_area_is_three_quarters() {
        let g = geom();
        let c = g.central_area(0, 0);
        assert!((c.width() - 3.0).abs() < 1e-12);
        assert_eq!(c.center(), g.cell_center(0, 0));
    }

    #[test]
    fn movement_bounds_match_paper() {
        let g = geom(); // r = 4
        assert!((g.min_move_distance() - 1.0).abs() < 1e-12); // r/4
        let max = 58.0_f64.sqrt() / 4.0 * 4.0;
        assert!((g.max_move_distance() - max).abs() < 1e-9);
        assert!((g.avg_move_distance() - 4.32).abs() < 1e-12); // 1.08 r
    }

    #[test]
    fn movement_bounds_are_attained_by_geometry() {
        // Closest pair of central-area points of adjacent cells = r/4;
        // farthest = sqrt(58)/4 * r. Verify against the Rect corners.
        let g = geom();
        let a = g.central_area(0, 0);
        let b = g.central_area(1, 0);
        let closest = a.max().x - b.min().x; // negative means gap
        assert!((b.min().x - a.max().x - g.min_move_distance()).abs() < 1e-12);
        assert!(closest < 0.0);
        let far = Point2::new(a.min().x, a.min().y).distance(b.max());
        assert!((far - g.max_move_distance()).abs() < 1e-9);
    }

    #[test]
    fn max_factor_constant_matches_sqrt58_over_4() {
        assert!((CellGeometry::MAX_MOVE_FACTOR - 58.0_f64.sqrt() / 4.0).abs() < 1e-12);
    }
}
