use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in the plane, in meters.
///
/// Sensor positions, grid-cell corners and movement targets are all
/// `Point2` values. The difference of two points is a [`Vec2`].
///
/// ```
/// use wsn_geometry::{Point2, Vec2};
///
/// let a = Point2::new(1.0, 2.0);
/// let b = a + Vec2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate (east-positive), meters.
    pub x: f64,
    /// Vertical coordinate (north-positive), meters.
    pub y: f64,
}

/// A displacement vector in the plane, in meters.
///
/// Produced by subtracting two [`Point2`] values; added back to a point to
/// translate it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal component, meters.
    pub x: f64,
    /// Vertical component, meters.
    pub y: f64,
}

impl Point2 {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper than
    /// [`Point2::distance`]; use for comparisons).
    #[inline]
    pub fn distance_squared(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint of two points.
    #[inline]
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2 {
            x: self.x + (other.x - self.x) * 0.5,
            y: self.y + (other.y - self.y) * 0.5,
        }
    }

    /// Displacement vector from `self` to `other` (`other − self`).
    #[inline]
    pub fn to(self, other: Point2) -> Vec2 {
        other - self
    }
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length (magnitude) of the vector.
    #[inline]
    pub fn length(self) -> f64 {
        self.length_squared().sqrt()
    }

    /// Squared length.
    #[inline]
    pub fn length_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Returns a vector with the same direction and length 1, or `None`
    /// for the zero vector (and vectors so short the division would not be
    /// meaningful).
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len <= f64::EPSILON {
            None
        } else {
            Some(Vec2 {
                x: self.x / len,
                y: self.y / len,
            })
        }
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.3}, {:.3}>", self.x, self.y)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vec2> for Point2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
    }

    #[test]
    fn midpoint_is_componentwise() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(3.0, 5.0);
        assert_eq!(a.midpoint(b), Point2::new(2.0, 3.0));
        assert_eq!(b.midpoint(a), a.midpoint(b));
        assert_eq!(a.midpoint(a), a);
    }

    #[test]
    fn vector_arithmetic_roundtrips() {
        let a = Point2::new(2.0, -1.0);
        let v = Vec2::new(0.5, 4.0);
        let b = a + v;
        assert_eq!(b - a, v);
        assert_eq!(b - v, a);
        let mut c = a;
        c += v;
        assert_eq!(c, b);
        c -= v;
        assert_eq!(c, a);
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vec2::new(3.0, 4.0);
        let n = v.normalized().unwrap();
        assert!((n.length() - 1.0).abs() < 1e-12);
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec2::new(1.0, 0.0);
        let y = Vec2::new(0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), 1.0);
        assert_eq!(y.cross(x), -1.0);
    }

    #[test]
    fn scalar_mul_div_neg() {
        let v = Vec2::new(2.0, -6.0);
        assert_eq!(v * 0.5, Vec2::new(1.0, -3.0));
        assert_eq!(v / 2.0, Vec2::new(1.0, -3.0));
        assert_eq!(-v, Vec2::new(-2.0, 6.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point2::new(1.0, 2.0).to_string(), "(1.000, 2.000)");
        assert_eq!(Vec2::new(1.0, 2.0).to_string(), "<1.000, 2.000>");
    }

    #[test]
    fn tuple_conversions() {
        let p: Point2 = (1.0, 2.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.0, 2.0));
        let v: Vec2 = (3.0, 4.0).into();
        assert_eq!(v.length(), 5.0);
    }

    #[test]
    fn finiteness_checks() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(f64::INFINITY, 0.0).is_finite());
    }
}
