//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use wsn_geometry::cell::{floor_to_i64, CENTRAL_FRACTION};
use wsn_geometry::{sample, CellGeometry, Disk, Point2, Rect, Vec2};

fn finite_coord() -> impl Strategy<Value = f64> {
    // Keep magnitudes modest so squared distances stay well inside f64.
    -1e6..1e6f64
}

fn point() -> impl Strategy<Value = Point2> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point2::new(x, y))
}

fn unit() -> impl Strategy<Value = f64> {
    0.0..1.0f64
}

proptest! {
    #[test]
    fn distance_is_symmetric(a in point(), b in point()) {
        prop_assert_eq!(a.distance(b).to_bits(), b.distance(a).to_bits());
    }

    #[test]
    fn distance_nonnegative_and_identity(a in point(), b in point()) {
        prop_assert!(a.distance(b) >= 0.0);
        prop_assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn triangle_inequality(a in point(), b in point(), c in point()) {
        let lhs = a.distance(c);
        let rhs = a.distance(b) + b.distance(c);
        // Allow relative tolerance for floating rounding.
        prop_assert!(lhs <= rhs + 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn vector_add_sub_roundtrip(p in point(), dx in finite_coord(), dy in finite_coord()) {
        let v = Vec2::new(dx, dy);
        let q = p + v;
        let back = q - v;
        prop_assert!((back.x - p.x).abs() <= 1e-9 * (1.0 + p.x.abs()));
        prop_assert!((back.y - p.y).abs() <= 1e-9 * (1.0 + p.y.abs()));
    }

    #[test]
    fn rect_contains_its_center_and_samples(
        x in finite_coord(), y in finite_coord(),
        w in 0.001..1e4f64, h in 0.001..1e4f64,
        u in unit(), v in unit(),
    ) {
        let r = Rect::from_size(Point2::new(x, y), w, h).unwrap();
        prop_assert!(r.contains(r.center()));
        let p = sample::point_in_rect(&r, u, v);
        prop_assert!(r.contains_closed(p));
    }

    #[test]
    fn shrunk_preserves_center_and_scales_area(
        x in -100.0..100.0f64, y in -100.0..100.0f64,
        w in 0.1..50.0f64, h in 0.1..50.0f64,
        f in 0.01..1.0f64,
    ) {
        let r = Rect::from_size(Point2::new(x, y), w, h).unwrap();
        let s = r.shrunk(f).unwrap();
        prop_assert!(s.center().distance(r.center()) < 1e-9 * (1.0 + r.center().distance(Point2::ORIGIN)));
        prop_assert!((s.area() - r.area() * f * f).abs() < 1e-6 * (1.0 + r.area()));
    }

    #[test]
    fn disk_contains_implies_rect_distance_within_radius(
        cx in -100.0..100.0f64, cy in -100.0..100.0f64,
        r in 0.1..50.0f64,
        px in -100.0..100.0f64, py in -100.0..100.0f64,
    ) {
        let d = Disk::new(Point2::new(cx, cy), r).unwrap();
        let p = Point2::new(px, py);
        prop_assert_eq!(d.contains(p), d.center().distance(p) <= r);
    }

    #[test]
    fn central_area_sample_respects_move_bounds(
        r in 0.5..20.0f64,
        u1 in unit(), v1 in unit(), u2 in unit(), v2 in unit(),
    ) {
        // The paper's movement model: source in central area of one cell,
        // target in central area of a 4-adjacent cell. Distance must lie
        // in [r/4, sqrt(58)/4 * r].
        let g = CellGeometry::new(Point2::ORIGIN, r).unwrap();
        let from = sample::point_in_central_area(&g.cell_rect(0, 0), u1, v1);
        let to = sample::point_in_central_area(&g.cell_rect(1, 0), u2, v2);
        let d = from.distance(to);
        prop_assert!(d >= g.min_move_distance() - 1e-9, "d={} < min={}", d, g.min_move_distance());
        prop_assert!(d <= g.max_move_distance() + 1e-9, "d={} > max={}", d, g.max_move_distance());
    }

    #[test]
    fn cell_index_roundtrip(
        r in 0.5..20.0f64,
        x in 0u32..64, y in 0u32..64,
        u in unit(), v in unit(),
    ) {
        let g = CellGeometry::new(Point2::ORIGIN, r).unwrap();
        let p = sample::point_in_rect(&g.cell_rect(x, y), u, v);
        // Half-open convention: any sampled point with u,v < 1 maps back.
        let (ix, iy) = g.cell_index_of(p);
        prop_assert!((ix - x as i64).abs() <= 0);
        prop_assert!((iy - y as i64).abs() <= 0);
    }

    #[test]
    fn floor_to_i64_equals_floor_cast_on_any_bits(
        bits in 0u64..u64::MAX, near in -1e6..1e6f64, frac in 0u64..(1 << 20),
    ) {
        // Uniform bit patterns are mostly huge, tiny or NaN; `near` and
        // `near ± frac/2²⁰` keep the cases where the fraction matters.
        let x = f64::from_bits(bits);
        prop_assert_eq!(floor_to_i64(x), x.floor() as i64, "bits {:#x}", bits);
        for y in [near, near.trunc() + frac as f64 / (1 << 20) as f64, near.trunc() - frac as f64 / (1 << 20) as f64] {
            prop_assert_eq!(floor_to_i64(y), y.floor() as i64, "y = {:e}", y);
        }
    }

    #[test]
    fn central_point_is_bit_identical_to_the_central_area_sample(
        ox in -1e3..1e3f64, oy in -1e3..1e3f64, r in 0.01..50.0f64,
        x in 0u32..4096, y in 0u32..4096, u in unit(), v in unit(),
    ) {
        let g = CellGeometry::new(Point2::new(ox, oy), r).unwrap();
        let want = sample::point_in_rect(&g.central_area(x, y), u, v);
        let got = g.central_point(x, y, u, v);
        prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
        prop_assert_eq!(got.y.to_bits(), want.y.to_bits());
        let oracle = sample::point_in_central_area(&g.cell_rect(x, y), u, v);
        prop_assert_eq!((got.x.to_bits(), got.y.to_bits()), (oracle.x.to_bits(), oracle.y.to_bits()));
    }
}

#[test]
fn floor_to_i64_equals_floor_cast_at_the_edges() {
    let two63 = 2f64.powi(63);
    let mut edges = vec![
        0.0,
        -0.0,
        -0.5,
        -1.0,
        1.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        2f64.powi(52),
        -(2f64.powi(52)),
        two63,
        -two63,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    // Each edge's neighbours: (−1, 0) from both ends, the last fractions
    // below 2⁵², and the last values inside and first outside ±2⁶³.
    for x in edges.clone() {
        edges.extend([x.next_up(), x.next_down()]);
    }
    for x in edges {
        assert_eq!(
            floor_to_i64(x),
            x.floor() as i64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }
}

#[test]
fn central_fraction_is_locked_to_paper() {
    // Changing this constant silently breaks the movement-distance bounds
    // of the paper; this test pins it.
    assert_eq!(CENTRAL_FRACTION, 0.75);
}
