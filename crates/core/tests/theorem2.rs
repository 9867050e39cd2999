//! Monte-Carlo validation of Theorem 2: the simulated number of node
//! movements per replacement matches the analytical model `M(L, N)`
//! (the correctness check the paper's §5 performs by overlaying Figures
//! 7(a)/7(b) and 8(a)/8(b)).

use wsn_coverage::{analysis, DriveMode, ReplacementScheme, Sr};
use wsn_grid::{deploy, GridNetwork, GridSystem};
use wsn_simcore::SimRng;

/// Runs one single-hole replacement with exactly `n` spares placed
/// uniformly over the non-hole cells, returning the hop count of the
/// (single) converged process.
fn simulate_single_replacement(cols: u16, rows: u16, n: usize, seed: u64) -> u64 {
    let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    // One node in every cell except the hole...
    let hole = sys.coord_of(rng.range_usize(sys.cell_count()));
    let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
    // ...plus n spares in uniformly random non-hole cells (the model's
    // "N spare nodes uniformly distributed over the path").
    let occupied: Vec<_> = sys.iter_coords().filter(|c| *c != hole).collect();
    for _ in 0..n {
        let cell = occupied[rng.range_usize(occupied.len())];
        let rect = sys.cell_rect(cell).unwrap();
        pos.push(wsn_geometry::sample::point_in_rect(
            &rect,
            rng.uniform_f64(),
            rng.uniform_f64(),
        ));
    }
    let mut net = GridNetwork::new(sys, &pos);
    assert_eq!(net.total_spares(), n);
    let report = Sr::new().run(&mut net, seed, DriveMode::Classic).unwrap();
    assert!(report.fully_covered, "a spare exists, so SR must converge");
    assert_eq!(report.metrics.processes_converged, 1);
    report.processes[0].hops
}

fn mean_simulated_moves(cols: u16, rows: u16, n: usize, trials: u64, seed0: u64) -> f64 {
    let total: u64 = (0..trials)
        .map(|t| simulate_single_replacement(cols, rows, n, seed0 + t))
        .sum();
    total as f64 / trials as f64
}

#[test]
fn theorem_2_matches_simulation_4x5() {
    // The paper's Figure 3(a) setting: 4x5 grid, L = 19.
    for &(n, trials, tol) in &[(3usize, 400u64, 0.35), (12, 400, 0.12), (40, 300, 0.06)] {
        let analytical = analysis::expected_moves(19, n);
        let simulated = mean_simulated_moves(4, 5, n, trials, 1000 + n as u64);
        assert!(
            (simulated - analytical).abs() / analytical < tol,
            "N={n}: simulated {simulated:.3} vs analytical {analytical:.3}"
        );
    }
}

#[test]
fn theorem_2_matches_simulation_16x16() {
    // Figure 3(b) setting: 16x16 grid, L = 255. Fewer trials (larger
    // runs), looser tolerance.
    for &(n, trials, tol) in &[(55usize, 200u64, 0.25), (200, 400, 0.12)] {
        let analytical = analysis::expected_moves(255, n);
        let simulated = mean_simulated_moves(16, 16, n, trials, 9000 + n as u64);
        assert!(
            (simulated - analytical).abs() / analytical < tol,
            "N={n}: simulated {simulated:.3} vs analytical {analytical:.3}"
        );
    }
}

#[test]
fn corollary_2_matches_simulation_5x5_dual() {
    // Dual-path grids follow M(m*n - 2) (Corollary 2).
    let n = 10usize;
    let analytical = analysis::expected_moves_dual(5, 5, n);
    let simulated = mean_simulated_moves(5, 5, n, 400, 4242);
    assert!(
        (simulated - analytical).abs() / analytical < 0.15,
        "simulated {simulated:.3} vs analytical {analytical:.3}"
    );
}

#[test]
fn paper_example_two_movements_at_n12() {
    // "in most cases, the replacement process will converge within 2
    // movements" (4x5, N = 12).
    let simulated = mean_simulated_moves(4, 5, 12, 500, 77);
    assert!(
        (1.6..=2.5).contains(&simulated),
        "mean movements {simulated}"
    );
}

#[test]
fn distance_tracks_moves_times_hop_factor() {
    // Figure 5/8 logic: total distance ~ 1.08 r * moves, within the gap
    // between the paper's 1.08 and the exact 1.050 factor.
    let sys = GridSystem::new(8, 8, 10.0).unwrap();
    let mut rng = SimRng::seed_from_u64(31415);
    let mut total_moves = 0u64;
    let mut total_distance = 0.0f64;
    for t in 0..120u64 {
        let mut pos = deploy::per_cell_exact(&sys, 1, &mut rng);
        // 6 extra spares, then three holes.
        for _ in 0..6 {
            let cell = sys.coord_of(rng.range_usize(sys.cell_count()));
            let rect = sys.cell_rect(cell).unwrap();
            pos.push(wsn_geometry::sample::point_in_rect(
                &rect,
                rng.uniform_f64(),
                rng.uniform_f64(),
            ));
        }
        let mut net = GridNetwork::new(sys, &pos);
        for idx in rng.sample_indices(sys.cell_count(), 3) {
            for id in net.members(sys.coord_of(idx)).unwrap().to_vec() {
                net.disable_node(id).unwrap();
            }
        }
        let report = Sr::new().run(&mut net, t, DriveMode::Classic).unwrap();
        total_moves += report.metrics.moves;
        total_distance += report.metrics.distance;
    }
    let per_hop = total_distance / total_moves as f64 / 10.0; // factor of r
    assert!((0.95..=1.15).contains(&per_hop), "per-hop factor {per_hop}");
}
