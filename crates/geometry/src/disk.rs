use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{GeometryError, Point2, Rect, Result};

/// A closed disk: the sensing or communication footprint of a node.
///
/// Used for three purposes in the reproduction:
///
/// * communication reachability (`R = √5·r` between heads of neighboring
///   grid cells, per the GAF model the paper builds on),
/// * geometric coverage checks (what fraction of the surveillance area is
///   inside at least one sensing disk), and
/// * fault footprints (`FaultEvent::KillRegion` and the moving `Jammer`
///   disable every node the disk [`Disk::contains`]).
///
/// **The boundary is closed**: a point exactly on the radius is inside.
/// See [`Disk::contains`] for why this is load-bearing for fault
/// injection.
///
/// ```
/// use wsn_geometry::{Disk, Point2};
///
/// let d = Disk::new(Point2::ORIGIN, 5.0)?;
/// assert!(d.contains(Point2::new(3.0, 4.0)));
/// assert!(!d.contains(Point2::new(3.1, 4.0)));
/// # Ok::<(), wsn_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    center: Point2,
    radius: f64,
}

impl Disk {
    /// Creates a disk from center and radius.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::NonPositiveExtent`] when `radius <= 0`,
    /// and [`GeometryError::NonFinite`] on non-finite input.
    pub fn new(center: Point2, radius: f64) -> Result<Disk> {
        if !center.is_finite() || !radius.is_finite() {
            return Err(GeometryError::NonFinite {
                context: "Disk::new",
            });
        }
        if radius <= 0.0 {
            return Err(GeometryError::NonPositiveExtent {
                context: "Disk::new radius",
                value: radius,
            });
        }
        Ok(Disk { center, radius })
    }

    /// Center of the disk.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.center
    }

    /// Radius of the disk.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Area `π·radius²`.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Closed containment: points exactly on the boundary are **inside**
    /// (`distance² <= radius²`, no square root, so exactly-representable
    /// on-radius points compare without rounding slop).
    ///
    /// This edge inclusivity is part of the fault-model contract, not an
    /// implementation accident: a node sitting exactly on a
    /// `KillRegion`/`Jammer` radius is killed. A moving jammer whose
    /// per-round displacement lands nodes exactly on its rim — easy to
    /// construct with integer velocities on grid-aligned deployments —
    /// must behave identically on every step, never flickering between
    /// hit and miss by one ULP of an open-boundary comparison.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }
}

impl fmt::Display for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk({}, r={:.3})", self.center, self.radius)
    }
}

/// Estimates the fraction of `area` covered by at least one disk, by
/// sampling a `resolution × resolution` lattice of probe points.
///
/// This is the standard Monte-Carlo-style coverage estimator used to
/// validate the GAF guarantee ("a head in every cell ⇒ full coverage")
/// geometrically rather than combinatorially. Accuracy is
/// `O(1/resolution)`; `resolution = 100` (10⁴ probes) is plenty for the
/// assertions in this repository.
///
/// # Panics
///
/// Panics if `resolution == 0` (a caller bug: there is no meaningful
/// zero-probe estimate).
pub fn coverage_fraction(area: &Rect, disks: &[Disk], resolution: usize) -> f64 {
    assert!(resolution > 0, "coverage_fraction: resolution must be > 0");
    let mut covered = 0usize;
    let total = resolution * resolution;
    for iy in 0..resolution {
        for ix in 0..resolution {
            // Probe at cell centers of the sampling lattice.
            let fx = (ix as f64 + 0.5) / resolution as f64;
            let fy = (iy as f64 + 0.5) / resolution as f64;
            let p = Point2::new(
                area.min().x + fx * area.width(),
                area.min().y + fy * area.height(),
            );
            if disks.iter().any(|d| d.contains(p)) {
                covered += 1;
            }
        }
    }
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert!(Disk::new(Point2::ORIGIN, 0.0).is_err());
        assert!(Disk::new(Point2::ORIGIN, -1.0).is_err());
        assert!(Disk::new(Point2::new(f64::NAN, 0.0), 1.0).is_err());
        assert!(Disk::new(Point2::ORIGIN, f64::INFINITY).is_err());
    }

    #[test]
    fn containment_boundary_closed() {
        let d = Disk::new(Point2::ORIGIN, 1.0).unwrap();
        assert!(d.contains(Point2::new(1.0, 0.0)));
        assert!(!d.contains(Point2::new(1.0 + 1e-9, 0.0)));
    }

    #[test]
    fn containment_on_radius_under_jammer_stepping() {
        // A jammer-style disk translated by an integer velocity each
        // round: a node exactly on the rim must be contained at every
        // step, on-axis and on 3-4-5 diagonals alike.
        let radius = 5.0;
        for round in 0..20 {
            let center = Point2::new(round as f64 * 2.0, round as f64);
            let d = Disk::new(center, radius).unwrap();
            // On-axis rim points.
            assert!(d.contains(Point2::new(center.x + radius, center.y)));
            assert!(d.contains(Point2::new(center.x - radius, center.y)));
            assert!(d.contains(Point2::new(center.x, center.y + radius)));
            // Exact Pythagorean rim point (3² + 4² = 5²).
            assert!(d.contains(Point2::new(center.x + 3.0, center.y + 4.0)));
            // One ULP-scale nudge outward falls off the rim.
            assert!(!d.contains(Point2::new(center.x + radius + 1e-9, center.y)));
        }
    }

    #[test]
    fn gaf_range_covers_cell_from_anywhere_inside() {
        // GAF guarantee geometry: a sensor anywhere in an r x r cell with
        // sensing radius >= sqrt(2) * r covers its own whole cell. The
        // worst case is a corner sensor reaching the opposite corner; a
        // disk is convex, so holding every corner covers the cell.
        let r = 4.4721;
        let cell = Rect::from_size(Point2::ORIGIN, r, r).unwrap();
        let corner_sensor = Disk::new(Point2::ORIGIN, r * 2.0_f64.sqrt()).unwrap();
        assert!(cell.corners().iter().all(|&c| corner_sensor.contains(c)));
    }

    #[test]
    fn coverage_fraction_estimates() {
        let area = Rect::from_size(Point2::ORIGIN, 10.0, 10.0).unwrap();
        // One giant disk covering everything.
        let all = vec![Disk::new(Point2::new(5.0, 5.0), 10.0).unwrap()];
        assert_eq!(coverage_fraction(&area, &all, 50), 1.0);
        // No disks: zero.
        assert_eq!(coverage_fraction(&area, &[], 50), 0.0);
        // Half-disk on the left edge: exact area is pi * 25 / 2 of 100.
        let half = vec![Disk::new(Point2::new(0.0, 5.0), 5.0).unwrap()];
        let f = coverage_fraction(&area, &half, 100);
        let exact = std::f64::consts::PI * 25.0 / 2.0 / 100.0;
        assert!((f - exact).abs() < 0.02, "got {f}, exact {exact}");
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn coverage_fraction_zero_resolution_panics() {
        let area = Rect::from_size(Point2::ORIGIN, 1.0, 1.0).unwrap();
        coverage_fraction(&area, &[], 0);
    }

    #[test]
    fn area_and_display() {
        let d = Disk::new(Point2::ORIGIN, 2.0).unwrap();
        assert!((d.area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
        assert!(!d.to_string().is_empty());
    }
}
