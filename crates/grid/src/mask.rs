//! Irregular surveillance regions: a bitset mask of enabled cells.
//!
//! The paper assumes a rectangular `n × m` grid, but real deployment
//! surfaces — buildings, corridors, fields with lakes or jammed zones —
//! are not rectangles. [`RegionMask`] lifts that assumption: it marks a
//! subset of a grid's cells as **enabled** (deployable, monitorable,
//! repairable) and the rest as **disabled** (obstacles). Disabled cells
//! never hold nodes, never count as holes, and never appear in occupancy
//! statistics; [`crate::GridNetwork::with_mask`] enforces all three.
//!
//! The mask also carries the *obstacle-aware movement model*: a node
//! moving between two cells whose straight connecting segment crosses a
//! disabled cell must detour around the obstacle, so its billed moving
//! distance is the 4-connected shortest path through enabled cells
//! ([`RegionMask::grid_distance`]) rather than the Euclidean chord
//! ([`crate::GridNetwork::move_node`] applies this automatically).
//!
//! [`RegionShape`] names the preset shapes the scenario and campaign
//! harnesses sweep over (L-shape, rectangular annulus, corridor cross,
//! random rectangular obstacles).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

use wsn_geometry::cell::floor_to_i64;
use wsn_geometry::Point2;
use wsn_simcore::SimRng;

use crate::{GridCoord, GridError, Result};

const WORD_BITS: usize = u64::BITS as usize;

/// A bitset of enabled cells over a `cols × rows` grid (set ⇔ enabled).
///
/// ```
/// use wsn_grid::{GridCoord, RegionMask};
///
/// // A 6×4 grid with the top-right 3×2 corner disabled (an L-shape).
/// let mask = RegionMask::l_shape(6, 4);
/// assert_eq!(mask.cell_count(), 24);
/// assert_eq!(mask.disabled_count(), 6);
/// assert!(mask.is_enabled(GridCoord::new(0, 0)));
/// assert!(!mask.is_enabled(GridCoord::new(5, 3)));
/// assert!(mask.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionMask {
    cols: u16,
    rows: u16,
    /// One bit per cell, dense row-major; set ⇔ enabled. Trailing bits of
    /// the last word stay zero.
    words: Vec<u64>,
    enabled: usize,
}

impl RegionMask {
    /// The full (rectangular) region: every cell enabled.
    pub fn full(cols: u16, rows: u16) -> RegionMask {
        let cells = cols as usize * rows as usize;
        let mut words = vec![!0u64; cells.div_ceil(WORD_BITS)];
        if !cells.is_multiple_of(WORD_BITS) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (cells % WORD_BITS)) - 1;
            }
        }
        RegionMask {
            cols,
            rows,
            words,
            enabled: cells,
        }
    }

    /// A mask built from a per-cell predicate.
    pub fn from_fn(cols: u16, rows: u16, mut enabled: impl FnMut(GridCoord) -> bool) -> RegionMask {
        let mut m = RegionMask::full(cols, rows);
        for y in 0..rows {
            for x in 0..cols {
                if !enabled(GridCoord::new(x, y)) {
                    m.clear_index(y as usize * cols as usize + x as usize);
                }
            }
        }
        m
    }

    /// The L-shape: the full rectangle minus its top-right quadrant
    /// (`⌈cols/2⌉ × ⌈rows/2⌉` cells disabled) — a building footprint.
    pub fn l_shape(cols: u16, rows: u16) -> RegionMask {
        let x0 = cols - cols / 2;
        let y0 = rows - rows / 2;
        RegionMask::full(cols, rows).difference_rect(x0, y0, cols - 1, rows - 1)
    }

    /// The rectangular annulus: the full rectangle minus a centered
    /// courtyard of roughly half the side lengths — a building with an
    /// inner court, or a field around a lake.
    pub fn annulus(cols: u16, rows: u16) -> RegionMask {
        let hole_w = (cols / 2).max(1).min(cols.saturating_sub(2).max(1));
        let hole_h = (rows / 2).max(1).min(rows.saturating_sub(2).max(1));
        let x0 = (cols - hole_w) / 2;
        let y0 = (rows - hole_h) / 2;
        RegionMask::full(cols, rows).difference_rect(x0, y0, x0 + hole_w - 1, y0 + hole_h - 1)
    }

    /// The corridor cross: only a horizontal and a vertical band through
    /// the grid center are enabled (two intersecting hallways). Band
    /// thickness is one quarter of the respective side, at least one
    /// cell.
    pub fn corridor(cols: u16, rows: u16) -> RegionMask {
        let band_h = (rows / 4).max(1);
        let band_w = (cols / 4).max(1);
        let y0 = (rows - band_h) / 2;
        let x0 = (cols - band_w) / 2;
        RegionMask::from_fn(cols, rows, |c| {
            (c.y >= y0 && c.y < y0 + band_h) || (c.x >= x0 && c.x < x0 + band_w)
        })
    }

    /// Random rectangular obstacles: carves deterministic (seeded)
    /// rectangles out of the full region until roughly
    /// `target_disabled_percent` of the cells are disabled, skipping any
    /// carve that would disconnect the enabled region or empty it. The
    /// same `(cols, rows, seed, target)` always produces the same mask.
    pub fn random_obstacles(
        cols: u16,
        rows: u16,
        target_disabled_percent: u16,
        seed: u64,
    ) -> RegionMask {
        let mut mask = RegionMask::full(cols, rows);
        let cells = mask.cell_count();
        let target = cells * target_disabled_percent.min(60) as usize / 100;
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0b57_ac1e_0b57_ac1e);
        let mut attempts = 0;
        while mask.disabled_count() < target && attempts < 64 {
            attempts += 1;
            // Obstacle footprint: up to a quarter of each side.
            let w = 1 + rng.range_usize((cols as usize / 4).max(1)) as u16;
            let h = 1 + rng.range_usize((rows as usize / 4).max(1)) as u16;
            let x0 = rng.range_usize((cols - w + 1) as usize) as u16;
            let y0 = rng.range_usize((rows - h + 1) as usize) as u16;
            let carved = mask.clone().difference_rect(x0, y0, x0 + w - 1, y0 + h - 1);
            if carved.enabled_count() > 0 && carved.is_connected() {
                mask = carved;
            }
        }
        mask
    }

    /// Returns the mask with every cell of the (inclusive, cell-coordinate)
    /// rectangle enabled — the union of this region with a rectangle.
    /// Coordinates are clamped to the grid.
    #[must_use]
    pub fn union_rect(mut self, x0: u16, y0: u16, x1: u16, y1: u16) -> RegionMask {
        for y in y0.min(self.rows - 1)..=y1.min(self.rows - 1) {
            for x in x0.min(self.cols - 1)..=x1.min(self.cols - 1) {
                self.set_index(y as usize * self.cols as usize + x as usize);
            }
        }
        self
    }

    /// Returns the mask with every cell of the (inclusive, cell-coordinate)
    /// rectangle disabled — the difference of this region and a rectangle.
    /// Coordinates are clamped to the grid.
    #[must_use]
    pub fn difference_rect(mut self, x0: u16, y0: u16, x1: u16, y1: u16) -> RegionMask {
        for y in y0.min(self.rows - 1)..=y1.min(self.rows - 1) {
            for x in x0.min(self.cols - 1)..=x1.min(self.cols - 1) {
                self.clear_index(y as usize * self.cols as usize + x as usize);
            }
        }
        self
    }

    fn set_index(&mut self, index: usize) {
        let (w, b) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.enabled += 1;
        }
    }

    fn clear_index(&mut self, index: usize) {
        let (w, b) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        if self.words[w] & b != 0 {
            self.words[w] &= !b;
            self.enabled -= 1;
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

    /// Total cells of the underlying grid (enabled + disabled).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Number of enabled cells.
    #[inline]
    pub fn enabled_count(&self) -> usize {
        self.enabled
    }

    /// Number of disabled cells.
    #[inline]
    pub fn disabled_count(&self) -> usize {
        self.cell_count() - self.enabled
    }

    /// `true` when every cell is enabled (the rectangular special case
    /// the paper assumes).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.enabled == self.cell_count()
    }

    /// Whether the dense row-major cell `index` is enabled.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range (indices are produced by the
    /// owning grid, so a bad index is a caller bug).
    #[inline]
    pub fn index_enabled(&self, index: usize) -> bool {
        assert!(index < self.cell_count(), "cell index out of range");
        self.words[index / WORD_BITS] & (1u64 << (index % WORD_BITS)) != 0
    }

    /// Whether `coord` is an enabled cell (`false` for out-of-grid
    /// coordinates).
    #[inline]
    pub fn is_enabled(&self, coord: GridCoord) -> bool {
        coord.x < self.cols
            && coord.y < self.rows
            && self.index_enabled(coord.y as usize * self.cols as usize + coord.x as usize)
    }

    /// Iterates the enabled cells in row-major order without allocating.
    pub fn iter_enabled(&self) -> impl Iterator<Item = GridCoord> + '_ {
        let cols = self.cols as usize;
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let base = w * WORD_BITS;
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let next = rest & (rest - 1);
                (next != 0).then_some(next)
            })
            .map(move |rest| {
                let i = base + rest.trailing_zeros() as usize;
                GridCoord::new((i % cols) as u16, (i / cols) as u16)
            })
        })
    }

    /// The in-mask 4-neighbors of `coord` (0 to 4 of them).
    pub fn enabled_neighbors(&self, coord: GridCoord) -> impl Iterator<Item = GridCoord> + '_ {
        crate::Direction::ALL
            .iter()
            .filter_map(move |&d| coord.step(d))
            .filter(|&c| self.is_enabled(c))
    }

    /// `true` when the enabled cells form a single 4-connected component
    /// (vacuously true for an empty mask).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.iter_enabled().next() else {
            return true;
        };
        let mut seen = vec![false; self.cell_count()];
        let mut queue = VecDeque::new();
        let idx = |c: GridCoord| c.y as usize * self.cols as usize + c.x as usize;
        seen[idx(start)] = true;
        queue.push_back(start);
        let mut visited = 1usize;
        while let Some(c) = queue.pop_front() {
            for n in self.enabled_neighbors(c) {
                if !seen[idx(n)] {
                    seen[idx(n)] = true;
                    visited += 1;
                    queue.push_back(n);
                }
            }
        }
        visited == self.enabled
    }

    /// Shortest 4-connected hop count from `from` to `to` through enabled
    /// cells (0 when equal), or `None` when either cell is disabled or no
    /// enabled path exists. This is the obstacle-aware distance model:
    /// the detour a mobile node must take around disabled cells.
    pub fn grid_distance(&self, from: GridCoord, to: GridCoord) -> Option<usize> {
        if !self.is_enabled(from) || !self.is_enabled(to) {
            return None;
        }
        if from == to {
            return Some(0);
        }
        let idx = |c: GridCoord| c.y as usize * self.cols as usize + c.x as usize;
        let mut dist = vec![u32::MAX; self.cell_count()];
        let mut queue = VecDeque::new();
        dist[idx(from)] = 0;
        queue.push_back(from);
        while let Some(c) = queue.pop_front() {
            let d = dist[idx(c)];
            for n in self.enabled_neighbors(c) {
                if dist[idx(n)] == u32::MAX {
                    if n == to {
                        return Some(d as usize + 1);
                    }
                    dist[idx(n)] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Whether the straight segment from `a` to `b` (in meters, over a
    /// grid of cells with side `cell_side` anchored at the origin) stays
    /// inside enabled cells. Uses an Amanatides–Woo grid traversal;
    /// points outside the grid count as blocked.
    pub fn segment_clear(&self, cell_side: f64, a: Point2, b: Point2) -> bool {
        // Work in cell units.
        let (ax, ay) = (a.x / cell_side, a.y / cell_side);
        let (bx, by) = (b.x / cell_side, b.y / cell_side);
        let cell_at = |x: f64, y: f64| -> Option<GridCoord> {
            let (cx, cy) = (floor_to_i64(x), floor_to_i64(y));
            (cx >= 0 && cy >= 0 && cx < self.cols as i64 && cy < self.rows as i64)
                .then(|| GridCoord::new(cx as u16, cy as u16))
        };
        let Some(start) = cell_at(ax, ay) else {
            return false;
        };
        let Some(end) = cell_at(bx, by) else {
            return false;
        };
        if !self.is_enabled(start) {
            return false;
        }
        let (dx, dy) = (bx - ax, by - ay);
        let step_x: i64 = if dx > 0.0 { 1 } else { -1 };
        let step_y: i64 = if dy > 0.0 { 1 } else { -1 };
        // Parameter t runs 0..1 along the segment; t_max_* is the t at
        // which the ray crosses the next cell boundary on each axis.
        let mut t_max_x = if dx == 0.0 {
            f64::INFINITY
        } else {
            let next = if dx > 0.0 {
                start.x as f64 + 1.0
            } else {
                start.x as f64
            };
            (next - ax) / dx
        };
        let mut t_max_y = if dy == 0.0 {
            f64::INFINITY
        } else {
            let next = if dy > 0.0 {
                start.y as f64 + 1.0
            } else {
                start.y as f64
            };
            (next - ay) / dy
        };
        let t_delta_x = if dx == 0.0 {
            f64::INFINITY
        } else {
            (1.0 / dx).abs()
        };
        let t_delta_y = if dy == 0.0 {
            f64::INFINITY
        } else {
            (1.0 / dy).abs()
        };
        let (mut cx, mut cy) = (start.x as i64, start.y as i64);
        // Each iteration crosses one cell boundary, so the traversal
        // visits at most cols + rows cells.
        for _ in 0..(self.cols as usize + self.rows as usize + 2) {
            if (cx, cy) == (end.x as i64, end.y as i64) {
                return true;
            }
            if t_max_x < t_max_y {
                cx += step_x;
                t_max_x += t_delta_x;
            } else {
                cy += step_y;
                t_max_y += t_delta_y;
            }
            match cell_at(cx as f64 + 0.5, cy as f64 + 0.5) {
                Some(c) if self.is_enabled(c) => {}
                _ => return false,
            }
        }
        // Numerical fallback: the walk did not land exactly on the end
        // cell; every visited cell was enabled, which is what matters.
        true
    }

    /// Validates that `self` can mask a `cols × rows` grid.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::MaskMismatch`] on a dimension mismatch.
    pub fn check_dims(&self, cols: u16, rows: u16) -> Result<()> {
        if self.cols != cols || self.rows != rows {
            return Err(GridError::MaskMismatch {
                mask_cols: self.cols,
                mask_rows: self.rows,
                cols,
                rows,
            });
        }
        Ok(())
    }
}

impl fmt::Display for RegionMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region mask {}x{}: {} enabled, {} disabled",
            self.cols,
            self.rows,
            self.enabled,
            self.disabled_count()
        )
    }
}

/// The named region shapes the scenario and campaign harnesses sweep
/// over. `Full` is the paper's rectangle; the others are the irregular
/// regions the masked replacement structures were built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RegionShape {
    /// The full rectangle (no cells disabled) — the paper's setting.
    #[default]
    Full,
    /// [`RegionMask::l_shape`]: the top-right quadrant disabled (25%).
    LShape,
    /// [`RegionMask::annulus`]: a centered courtyard disabled (~25%).
    Annulus,
    /// [`RegionMask::corridor`]: only two crossing hallways enabled.
    Corridor,
    /// [`RegionMask::random_obstacles`] at ~20% disabled, fixed seed.
    Obstacles,
}

impl RegionShape {
    /// Every shape, in canonical sweep order.
    pub const ALL: [RegionShape; 5] = [
        RegionShape::Full,
        RegionShape::LShape,
        RegionShape::Annulus,
        RegionShape::Corridor,
        RegionShape::Obstacles,
    ];

    /// The irregular shapes (everything but [`RegionShape::Full`]).
    pub const IRREGULAR: [RegionShape; 4] = [
        RegionShape::LShape,
        RegionShape::Annulus,
        RegionShape::Corridor,
        RegionShape::Obstacles,
    ];

    /// Figure-legend / artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            RegionShape::Full => "full",
            RegionShape::LShape => "l-shape",
            RegionShape::Annulus => "annulus",
            RegionShape::Corridor => "corridor",
            RegionShape::Obstacles => "obstacles",
        }
    }

    /// Parses a [`RegionShape::label`] back into the shape — the wire
    /// direction for configs arriving as campaign JSON (`None` for
    /// unknown labels).
    pub fn from_label(label: &str) -> Option<RegionShape> {
        RegionShape::ALL
            .iter()
            .copied()
            .find(|s| s.label() == label)
    }

    /// Stable numeric id used in RNG stream paths (never reordered).
    pub fn stream_id(&self) -> u64 {
        match self {
            RegionShape::Full => 0,
            RegionShape::LShape => 1,
            RegionShape::Annulus => 2,
            RegionShape::Corridor => 3,
            RegionShape::Obstacles => 4,
        }
    }

    /// Builds the shape's mask for a `cols × rows` grid.
    pub fn build_mask(&self, cols: u16, rows: u16) -> RegionMask {
        match self {
            RegionShape::Full => RegionMask::full(cols, rows),
            RegionShape::LShape => RegionMask::l_shape(cols, rows),
            RegionShape::Annulus => RegionMask::annulus(cols, rows),
            RegionShape::Corridor => RegionMask::corridor(cols, rows),
            RegionShape::Obstacles => RegionMask::random_obstacles(cols, rows, 20, 0xD15A_B1ED),
        }
    }
}

impl fmt::Display for RegionShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_enables_everything() {
        let m = RegionMask::full(10, 7);
        assert!(m.is_full());
        assert_eq!(m.enabled_count(), 70);
        assert_eq!(m.disabled_count(), 0);
        assert_eq!(m.iter_enabled().count(), 70);
        assert!(m.is_connected());
        assert!(!m.to_string().is_empty());
    }

    #[test]
    fn l_shape_disables_top_right_quadrant() {
        let m = RegionMask::l_shape(8, 8);
        assert_eq!(m.disabled_count(), 16);
        assert!(!m.is_enabled(GridCoord::new(7, 7)));
        assert!(!m.is_enabled(GridCoord::new(4, 4)));
        assert!(m.is_enabled(GridCoord::new(3, 7)));
        assert!(m.is_enabled(GridCoord::new(7, 3)));
        assert!(m.is_connected());
    }

    #[test]
    fn annulus_keeps_a_ring() {
        let m = RegionMask::annulus(8, 8);
        assert!(!m.is_enabled(GridCoord::new(4, 4)));
        assert!(m.is_enabled(GridCoord::new(0, 0)));
        assert!(m.is_enabled(GridCoord::new(7, 7)));
        assert!(m.is_connected());
        assert!(m.disabled_count() * 100 >= m.cell_count() * 15);
    }

    #[test]
    fn corridor_is_a_connected_cross() {
        let m = RegionMask::corridor(16, 16);
        assert!(m.is_connected());
        assert!(m.disabled_count() * 100 >= m.cell_count() * 15);
        // The corner is not part of either hallway.
        assert!(!m.is_enabled(GridCoord::new(0, 0)));
    }

    #[test]
    fn random_obstacles_hit_target_and_stay_connected() {
        let m = RegionMask::random_obstacles(32, 32, 20, 7);
        assert!(m.is_connected());
        assert!(m.enabled_count() > 0);
        assert!(
            m.disabled_count() * 100 >= m.cell_count() * 10,
            "expected substantial obstacles, got {}",
            m.disabled_count()
        );
        // Deterministic per (dims, seed).
        assert_eq!(m, RegionMask::random_obstacles(32, 32, 20, 7));
        assert_ne!(m, RegionMask::random_obstacles(32, 32, 20, 8));
    }

    #[test]
    fn rect_union_and_difference_roundtrip() {
        let m = RegionMask::full(6, 6).difference_rect(1, 1, 4, 4);
        assert_eq!(m.disabled_count(), 16);
        let m = m.union_rect(2, 2, 3, 3);
        assert_eq!(m.disabled_count(), 12);
        // Clamping: rects beyond the grid are truncated.
        let m = RegionMask::full(4, 4).difference_rect(3, 3, 99, 99);
        assert_eq!(m.disabled_count(), 1);
    }

    #[test]
    fn connectivity_detects_a_split() {
        // A full-height wall splits the region.
        let m = RegionMask::full(8, 8).difference_rect(4, 0, 4, 7);
        assert!(!m.is_connected());
        // An empty mask is vacuously connected.
        let empty = RegionMask::full(4, 4).difference_rect(0, 0, 3, 3);
        assert_eq!(empty.enabled_count(), 0);
        assert!(empty.is_connected());
    }

    #[test]
    fn grid_distance_detours_around_obstacles() {
        // A wall with a gap at the bottom: crossing it costs a detour.
        let m = RegionMask::full(9, 9).difference_rect(4, 1, 4, 8);
        let a = GridCoord::new(0, 8);
        let b = GridCoord::new(8, 8);
        // Straight-line Manhattan distance would be 8; the detour through
        // the gap at (4, 0) costs 8 + 2*8 = 24.
        assert_eq!(m.grid_distance(a, b), Some(24));
        assert_eq!(m.grid_distance(a, a), Some(0));
        assert_eq!(m.grid_distance(a, GridCoord::new(4, 4)), None);
        // Unreachable across a sealed wall.
        let sealed = RegionMask::full(9, 9).difference_rect(4, 0, 4, 8);
        assert_eq!(sealed.grid_distance(a, b), None);
    }

    #[test]
    fn segment_clear_traverses_cells() {
        let m = RegionMask::full(8, 8).difference_rect(3, 3, 4, 4);
        let side = 2.0;
        // A segment well away from the obstacle.
        assert!(m.segment_clear(side, Point2::new(1.0, 1.0), Point2::new(13.0, 1.0)));
        // A segment straight through the disabled block.
        assert!(!m.segment_clear(side, Point2::new(1.0, 1.0), Point2::new(15.0, 15.0)));
        // Vertical and horizontal degenerate directions.
        assert!(m.segment_clear(side, Point2::new(1.0, 1.0), Point2::new(1.0, 15.0)));
        assert!(!m.segment_clear(side, Point2::new(7.0, 1.0), Point2::new(7.0, 15.0)));
        // Same-cell segment.
        assert!(m.segment_clear(side, Point2::new(0.5, 0.5), Point2::new(1.5, 1.5)));
        // Points outside the grid are blocked.
        assert!(!m.segment_clear(side, Point2::new(-1.0, 0.0), Point2::new(1.0, 1.0)));
    }

    #[test]
    fn shapes_build_nonempty_connected_masks() {
        for shape in RegionShape::ALL {
            for (cols, rows) in [(16u16, 16u16), (64, 64), (33, 17)] {
                let m = shape.build_mask(cols, rows);
                assert!(m.enabled_count() > 0, "{shape} {cols}x{rows}");
                assert!(m.is_connected(), "{shape} {cols}x{rows}");
                if shape != RegionShape::Full && cols >= 16 && rows >= 16 {
                    assert!(
                        m.disabled_count() * 100 >= m.cell_count() * 15,
                        "{shape} {cols}x{rows}: only {} of {} disabled",
                        m.disabled_count(),
                        m.cell_count()
                    );
                }
            }
        }
        assert_eq!(RegionShape::default(), RegionShape::Full);
        let ids: std::collections::HashSet<u64> =
            RegionShape::ALL.iter().map(|s| s.stream_id()).collect();
        assert_eq!(ids.len(), RegionShape::ALL.len());
    }

    #[test]
    fn shape_labels_round_trip_through_from_label() {
        for shape in RegionShape::ALL {
            assert_eq!(RegionShape::from_label(shape.label()), Some(shape));
        }
        assert_eq!(RegionShape::from_label("moon-base"), None);
        assert_eq!(RegionShape::from_label(""), None);
    }

    #[test]
    fn check_dims_rejects_mismatch() {
        let m = RegionMask::full(4, 4);
        assert!(m.check_dims(4, 4).is_ok());
        assert!(m.check_dims(5, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "cell index out of range")]
    fn index_out_of_range_panics() {
        RegionMask::full(2, 2).index_enabled(4);
    }
}
