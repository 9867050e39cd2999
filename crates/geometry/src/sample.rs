//! RNG-free uniform sampling helpers.
//!
//! This crate deliberately carries no random-number dependency: callers
//! supply uniform variates in `[0, 1)` (typically from
//! `wsn_simcore::rng::SimRng`) and these helpers map them into geometric
//! regions. Keeping the mapping here — next to the shapes — guarantees
//! every crate samples cells and central areas identically.

use crate::{Point2, Rect};

/// Maps two independent uniform variates `u, v ∈ [0, 1)` to a uniformly
/// distributed point in `rect`.
///
/// Inputs outside `[0, 1)` are mapped affinely all the same (the function
/// is total); passing non-uniform values simply produces a non-uniform
/// point. Degenerate rectangles (zero width/height) collapse the
/// corresponding coordinate.
#[inline]
pub fn point_in_rect(rect: &Rect, u: f64, v: f64) -> Point2 {
    Point2::new(
        rect.min().x + u * rect.width(),
        rect.min().y + v * rect.height(),
    )
}

/// Maps uniform variates to a point in the *central area* of `cell`
/// (the concentric square scaled by [`crate::cell::CENTRAL_FRACTION`]).
///
/// This is the paper's movement-target distribution: "each movement of
/// node *u* from one grid to its neighbor will randomly select the
/// destination location in the central area of the target grid" (§5).
///
/// The movers call [`CellGeometry::central_point`](crate::CellGeometry::central_point),
/// which yields the same bits for a grid cell without building or
/// validating rectangles; this function is the reference the property
/// tests hold it to.
#[inline]
pub fn point_in_central_area(cell: &Rect, u: f64, v: f64) -> Point2 {
    let central = cell
        .shrunk(crate::cell::CENTRAL_FRACTION)
        .expect("central fraction is a valid constant");
    point_in_rect(&central, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point2;

    #[test]
    fn corners_of_unit_interval_map_to_rect_corners() {
        let r = Rect::from_size(Point2::new(1.0, 2.0), 3.0, 4.0).unwrap();
        assert_eq!(point_in_rect(&r, 0.0, 0.0), r.min());
        let p = point_in_rect(&r, 1.0, 1.0);
        assert_eq!(p, r.max());
        assert_eq!(point_in_rect(&r, 0.5, 0.5), r.center());
    }

    #[test]
    fn central_area_points_stay_in_central_area() {
        let cell = Rect::from_size(Point2::ORIGIN, 4.0, 4.0).unwrap();
        let central = cell.shrunk(0.75).unwrap();
        for &(u, v) in &[(0.0, 0.0), (0.999, 0.999), (0.25, 0.75), (0.5, 0.5)] {
            let p = point_in_central_area(&cell, u, v);
            assert!(central.contains_closed(p), "{p} outside {central}");
        }
    }

    #[test]
    fn grid_of_variates_is_uniformish() {
        // Coarse uniformity check: quadrant counts of a lattice of
        // variates are exactly balanced.
        let r = Rect::from_size(Point2::ORIGIN, 2.0, 2.0).unwrap();
        let mut quads = [0usize; 4];
        let n = 10;
        for i in 0..n {
            for j in 0..n {
                let p = point_in_rect(&r, (i as f64 + 0.5) / n as f64, (j as f64 + 0.5) / n as f64);
                let q = (p.x >= 1.0) as usize * 2 + (p.y >= 1.0) as usize;
                quads[q] += 1;
            }
        }
        assert_eq!(quads, [25, 25, 25, 25]);
    }
}
