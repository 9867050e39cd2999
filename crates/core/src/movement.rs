//! Mobility control for a single replacement hop (the paper's §4
//! "Implementation Issue").
//!
//! "To control the moving distance, each spare node moves straightforward
//! to the central area of the target grid" — the destination is drawn
//! uniformly from the concentric `(3/4)r × (3/4)r` square of the target
//! cell, which bounds every hop between `r/4` and `(√58/4)·r` and
//! averages ≈ `1.08·r` (see [`wsn_geometry::CellGeometry`] for the
//! derivation).

use wsn_geometry::Point2;
use wsn_grid::{GridCoord, GridSystem};
use wsn_simcore::SimRng;

/// Draws a movement destination in the central area of `target`
/// (§5 of the paper: "each movement of node u from one grid to its
/// neighbor will randomly select the destination location in the central
/// area of the target grid").
///
/// Draws `u` and then `v` uniformly and returns
/// [`CellGeometry::central_point`](wsn_geometry::CellGeometry::central_point)
/// of `target` at `(u, v)`. The replacement protocols make the same two
/// draws in the same order and hand them to
/// [`GridNetwork::move_into_cell`](wsn_grid::GridNetwork::move_into_cell),
/// which computes this point itself while it moves the node.
///
/// # Panics
///
/// Panics when `target` is outside `system` (protocol and network are
/// built from the same dimensions, so this indicates a wiring bug).
pub fn movement_target(system: &GridSystem, target: GridCoord, rng: &mut SimRng) -> Point2 {
    assert!(
        system.contains(target),
        "movement target must be a grid cell"
    );
    let (u, v) = (rng.uniform_f64(), rng.uniform_f64());
    system
        .geometry()
        .central_point(u32::from(target.x), u32::from(target.y), u, v)
}

/// Empirical mean per-hop distance between uniform central-area points of
/// 4-adjacent cells, estimated with `samples` Monte-Carlo draws.
///
/// The paper adopts `1.08·r`; this estimator lets tests quantify the
/// (small) gap between that constant and the exact model.
pub fn empirical_avg_hop_distance(r: f64, samples: usize, rng: &mut SimRng) -> f64 {
    assert!(r.is_finite() && r > 0.0, "cell side must be positive");
    assert!(samples > 0, "need at least one sample");
    let geom = wsn_geometry::CellGeometry::new(Point2::ORIGIN, r).expect("valid side");
    let mut total = 0.0;
    for _ in 0..samples {
        let a = geom.central_point(0, 0, rng.uniform_f64(), rng.uniform_f64());
        let b = geom.central_point(1, 0, rng.uniform_f64(), rng.uniform_f64());
        total += a.distance(b);
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geometry::CellGeometry;

    #[test]
    fn targets_land_in_central_area() {
        let sys = GridSystem::new(4, 4, 4.0).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let cell = GridCoord::new(2, 1);
        let central = sys.cell_rect(cell).unwrap().shrunk(0.75).unwrap();
        for _ in 0..500 {
            let p = movement_target(&sys, cell, &mut rng);
            assert!(central.contains_closed(p), "{p} outside {central}");
        }
    }

    #[test]
    fn hop_distance_within_paper_bounds() {
        let r = 4.4721;
        let sys = GridSystem::new(3, 3, r).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let geom = sys.geometry();
        for _ in 0..500 {
            let a = movement_target(&sys, GridCoord::new(0, 0), &mut rng);
            let b = movement_target(&sys, GridCoord::new(1, 0), &mut rng);
            let d = a.distance(b);
            assert!(d >= geom.min_move_distance() - 1e-9);
            assert!(d <= geom.max_move_distance() + 1e-9);
        }
    }

    #[test]
    fn empirical_average_near_papers_constant() {
        let mut rng = SimRng::seed_from_u64(3);
        let r = 10.0;
        let avg = empirical_avg_hop_distance(r, 200_000, &mut rng);
        let factor = avg / r;
        // The paper uses 1.08; the exact model (uniform central-area
        // endpoints in 4-adjacent cells) gives about 1.050. We follow the
        // paper's constant in the analytical overlays and pin the 3% gap
        // here.
        assert!(
            (factor - 1.050).abs() < 0.01,
            "empirical factor {factor} too far from exact 1.050"
        );
        assert!(
            (factor - CellGeometry::AVG_MOVE_FACTOR).abs() < 0.04,
            "empirical factor {factor} too far from the paper's 1.08"
        );
        assert!(factor > CellGeometry::MIN_MOVE_FACTOR);
        assert!(factor < CellGeometry::MAX_MOVE_FACTOR);
    }

    #[test]
    #[should_panic(expected = "grid cell")]
    fn out_of_bounds_target_panics() {
        let sys = GridSystem::new(2, 2, 1.0).unwrap();
        let mut rng = SimRng::seed_from_u64(4);
        movement_target(&sys, GridCoord::new(5, 5), &mut rng);
    }
}
