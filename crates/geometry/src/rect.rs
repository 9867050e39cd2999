use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{GeometryError, Point2, Result};

/// An axis-aligned rectangle, the shape of both grid cells and the whole
/// surveillance area.
///
/// Invariant: `min.x <= max.x`, `min.y <= max.y`, all coordinates finite.
/// The invariant is enforced by the constructors, which is why fields are
/// private and access goes through [`Rect::min`] / [`Rect::max`].
///
/// The `contains` convention is half-open: a point on the left/bottom edge
/// is inside, a point on the right/top edge is not. This makes a grid
/// partition of a larger rectangle a true partition (each point belongs to
/// exactly one cell), except for the global top/right boundary which is
/// handled by [`Rect::contains_closed`].
///
/// ```
/// use wsn_geometry::{Point2, Rect};
///
/// let r = Rect::new(Point2::new(0.0, 0.0), Point2::new(2.0, 1.0))?;
/// assert!(r.contains(Point2::new(0.0, 0.0)));
/// assert!(!r.contains(Point2::new(2.0, 1.0)));
/// assert!(r.contains_closed(Point2::new(2.0, 1.0)));
/// # Ok::<(), wsn_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point2,
    max: Point2,
}

impl Rect {
    /// Creates a rectangle from its minimum and maximum corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonFinite`] if any coordinate is NaN or
    /// infinite, and [`GeometryError::InvertedRect`] if `min` exceeds
    /// `max` in either dimension. Zero-width or zero-height rectangles are
    /// allowed (they are useful as degenerate query boxes).
    pub fn new(min: Point2, max: Point2) -> Result<Rect> {
        if !min.is_finite() || !max.is_finite() {
            return Err(GeometryError::NonFinite {
                context: "Rect::new",
            });
        }
        if min.x > max.x || min.y > max.y {
            return Err(GeometryError::InvertedRect {
                min: (min.x, min.y),
                max: (max.x, max.y),
            });
        }
        Ok(Rect { min, max })
    }

    /// Creates a rectangle from its minimum corner and positive extents.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonPositiveExtent`] when `width` or
    /// `height` is not strictly positive, and [`GeometryError::NonFinite`]
    /// on non-finite input.
    pub fn from_size(min: Point2, width: f64, height: f64) -> Result<Rect> {
        if !width.is_finite() || !height.is_finite() {
            return Err(GeometryError::NonFinite {
                context: "Rect::from_size",
            });
        }
        if width <= 0.0 {
            return Err(GeometryError::NonPositiveExtent {
                context: "Rect::from_size width",
                value: width,
            });
        }
        if height <= 0.0 {
            return Err(GeometryError::NonPositiveExtent {
                context: "Rect::from_size height",
                value: height,
            });
        }
        Rect::new(min, Point2::new(min.x + width, min.y + height))
    }

    /// Minimum (bottom-left) corner.
    #[inline]
    pub fn min(&self) -> Point2 {
        self.min
    }

    /// Maximum (top-right) corner.
    #[inline]
    pub fn max(&self) -> Point2 {
        self.max
    }

    /// Width (`max.x − min.x`).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (`max.y − min.y`).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square meters.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// Half-open containment test: left/bottom edges inclusive, right/top
    /// edges exclusive. See the type-level docs for why.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }

    /// Closed containment test: all edges inclusive.
    #[inline]
    pub fn contains_closed(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The point of `self` closest to `p` (i.e. `p` clamped to the
    /// rectangle).
    #[inline]
    pub fn clamp_point(&self, p: Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// The concentric rectangle scaled by `fraction` about the center.
    ///
    /// The paper's *central area* of a grid cell is `shrunk(0.75)`: a
    /// `(3/4)r × (3/4)r` square about the cell center, which yields the
    /// stated per-hop movement-distance bounds `[r/4, (√58/4)·r]`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonPositiveExtent`] when
    /// `fraction <= 0`, and [`GeometryError::NonFinite`] when `fraction`
    /// is not finite.
    pub fn shrunk(&self, fraction: f64) -> Result<Rect> {
        if !fraction.is_finite() {
            return Err(GeometryError::NonFinite {
                context: "Rect::shrunk",
            });
        }
        if fraction <= 0.0 {
            return Err(GeometryError::NonPositiveExtent {
                context: "Rect::shrunk fraction",
                value: fraction,
            });
        }
        let c = self.center();
        let hw = self.width() * fraction / 2.0;
        let hh = self.height() * fraction / 2.0;
        Rect::new(
            Point2::new(c.x - hw, c.y - hh),
            Point2::new(c.x + hw, c.y + hh),
        )
    }

    /// The four corners in counter-clockwise order starting at `min`.
    pub fn corners(&self) -> [Point2; 4] {
        [
            self.min,
            Point2::new(self.max.x, self.min.y),
            self.max,
            Point2::new(self.min.x, self.max.y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point2::new(x0, y0), Point2::new(x1, y1)).unwrap()
    }

    #[test]
    fn constructors_validate() {
        assert!(Rect::new(Point2::new(1.0, 0.0), Point2::new(0.0, 1.0)).is_err());
        assert!(Rect::new(Point2::new(f64::NAN, 0.0), Point2::new(1.0, 1.0)).is_err());
        assert!(Rect::from_size(Point2::ORIGIN, -1.0, 1.0).is_err());
        assert!(Rect::from_size(Point2::ORIGIN, 1.0, 0.0).is_err());
    }

    #[test]
    fn size_and_center() {
        let r = rect(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), Point2::new(2.5, 4.0));
    }

    #[test]
    fn half_open_containment() {
        let r = rect(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(Point2::new(0.0, 0.0)));
        assert!(!r.contains(Point2::new(1.0, 0.5)));
        assert!(!r.contains(Point2::new(0.5, 1.0)));
        assert!(r.contains_closed(Point2::new(1.0, 1.0)));
        assert!(!r.contains_closed(Point2::new(1.0001, 1.0)));
    }

    #[test]
    fn partition_property_no_double_membership() {
        // Two adjacent cells sharing an edge: boundary point belongs to
        // exactly one under the half-open convention.
        let left = rect(0.0, 0.0, 1.0, 1.0);
        let right = rect(1.0, 0.0, 2.0, 1.0);
        let boundary = Point2::new(1.0, 0.5);
        assert!(!left.contains(boundary));
        assert!(right.contains(boundary));
    }

    #[test]
    fn shrunk_central_area_bounds() {
        // r = 4 cell: central area must be the centered 3x3 square.
        let cell = rect(0.0, 0.0, 4.0, 4.0);
        let central = cell.shrunk(0.75).unwrap();
        assert_eq!(central.min(), Point2::new(0.5, 0.5));
        assert_eq!(central.max(), Point2::new(3.5, 3.5));
        assert!(cell.shrunk(0.0).is_err());
        assert!(cell.shrunk(f64::NAN).is_err());
    }

    #[test]
    fn clamp_and_distance() {
        let r = rect(0.0, 0.0, 1.0, 1.0);
        // The clamped point is the nearest point of the rectangle, so its
        // distance is the point's distance to the rectangle.
        let outside = Point2::new(2.0, 0.5);
        assert_eq!(r.clamp_point(outside), Point2::new(1.0, 0.5));
        assert_eq!(r.clamp_point(outside).distance(outside), 1.0);
        let inside = Point2::new(0.5, 0.5);
        assert_eq!(r.clamp_point(inside), inside);
    }

    #[test]
    fn corners_ccw() {
        let r = rect(0.0, 0.0, 1.0, 2.0);
        let c = r.corners();
        assert_eq!(c[0], Point2::new(0.0, 0.0));
        assert_eq!(c[1], Point2::new(1.0, 0.0));
        assert_eq!(c[2], Point2::new(1.0, 2.0));
        assert_eq!(c[3], Point2::new(0.0, 2.0));
    }

    #[test]
    fn display_nonempty() {
        assert!(!rect(0.0, 0.0, 1.0, 1.0).to_string().is_empty());
    }
}
