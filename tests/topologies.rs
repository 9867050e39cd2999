//! Recovery across grid shapes: even×even, even×odd, odd×odd (dual
//! path), skinny grids, and the paper's two reference sizes.

use wsn::prelude::*;

fn recover_everything(cols: u16, rows: u16, seed: u64) -> SchemeReport {
    let system = GridSystem::for_comm_range(cols, rows, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let positions = deploy::per_cell_exact(&system, 2, &mut rng);
    let mut net = GridNetwork::new(system, &positions);
    // Punch holes in ~20% of the cells.
    let n_holes = (system.cell_count() / 5).max(1);
    for idx in rng.sample_indices(system.cell_count(), n_holes) {
        for id in net.members(system.coord_of(idx)).unwrap().to_vec() {
            net.disable_node(id).unwrap();
        }
    }
    let report = Sr::new().run(&mut net, seed, DriveMode::Classic).unwrap();
    net.debug_invariants();
    report
}

#[test]
fn papers_reference_grids() {
    // 4x5 (Figures 1(b), 3(a), 5(a)) and 16x16 (everything else).
    for (cols, rows) in [(4u16, 5u16), (16, 16)] {
        let report = recover_everything(cols, rows, 42);
        assert!(report.fully_covered, "{cols}x{rows}");
        assert_eq!(report.metrics.success_rate_percent(), 100.0);
    }
}

#[test]
fn dual_path_grids_recover() {
    for (cols, rows) in [(3u16, 3u16), (5, 5), (7, 9), (11, 11)] {
        let report = recover_everything(cols, rows, 7);
        assert!(report.fully_covered, "{cols}x{rows}");
        assert_eq!(report.metrics.processes_failed, 0, "{cols}x{rows}");
    }
}

#[test]
fn skinny_grids_recover() {
    for (cols, rows) in [(2u16, 2u16), (2, 9), (16, 2), (3, 4)] {
        let report = recover_everything(cols, rows, 3);
        assert!(report.fully_covered, "{cols}x{rows}");
    }
}

#[test]
fn one_dimensional_grids_are_rejected_cleanly() {
    let system = GridSystem::for_comm_range(1, 8, 10.0).unwrap();
    let mut net = GridNetwork::new(system, &[]);
    let sr = Sr::new();
    assert!(sr.supports(&NetworkSpec::of(&net)).is_err());
    let err = sr.run(&mut net, 0, DriveMode::Classic).unwrap_err();
    assert_eq!(err.scheme, "sr");
}

#[test]
fn walk_lengths_match_theorem_parameters() {
    // Theorem 2's L for single cycles (m*n - 1) and Corollary 2's for
    // dual paths (m*n - 2) — through the public topology API.
    assert_eq!(CycleTopology::build(4, 5).unwrap().max_walk_hops(), 19);
    assert_eq!(CycleTopology::build(16, 16).unwrap().max_walk_hops(), 255);
    assert_eq!(CycleTopology::build(5, 5).unwrap().max_walk_hops(), 23);
    assert_eq!(CycleTopology::build(11, 9).unwrap().max_walk_hops(), 97);
}

#[test]
fn worst_case_walk_uses_every_hop() {
    // One spare placed at the cycle-farthest cell from the hole: the
    // replacement must walk nearly the whole structure and still succeed.
    let system = GridSystem::for_comm_range(6, 6, 10.0).unwrap();
    let topo = CycleTopology::build(6, 6).unwrap();
    let CycleTopology::Single(cycle) = &topo else {
        panic!("6x6 is even-sided");
    };
    let mut rng = SimRng::seed_from_u64(9);
    let hole = cycle.order()[20];
    // The farthest-backward cell is the hole's successor on the cycle.
    let far = cycle.successor(hole);
    let mut positions = deploy::with_holes(&system, &[hole], 1, &mut rng);
    positions.push(system.cell_rect(far).unwrap().center());
    let mut net = GridNetwork::new(system, &positions);
    let report = Sr::new().run(&mut net, 9, DriveMode::Classic).unwrap();
    assert!(report.fully_covered);
    assert_eq!(report.processes.len(), 1);
    assert_eq!(
        report.processes[0].hops as usize,
        topo.max_walk_hops(),
        "the walk must stretch the full deduced path"
    );
}

/// Hops of SR's one process on a `cols × rows` grid with one node in
/// every cell but `hole` and a second node in `spare`.
fn single_spare_walk(cols: u16, rows: u16, hole: GridCoord, spare: GridCoord) -> u64 {
    let system = GridSystem::for_comm_range(cols, rows, 10.0).unwrap();
    let mut rng = SimRng::seed_from_u64(11);
    let mut positions = deploy::with_holes(&system, &[hole], 1, &mut rng);
    positions.push(system.cell_rect(spare).unwrap().center());
    let mut net = GridNetwork::new(system, &positions);
    let report = Sr::new().run(&mut net, 11, DriveMode::Classic).unwrap();
    assert!(
        report.fully_covered,
        "{cols}x{rows} hole {hole} spare {spare}"
    );
    assert_eq!(report.processes.len(), 1, "{cols}x{rows} hole {hole}");
    report.processes[0].hops
}

#[test]
fn dual_path_walk_from_a_special_cell_takes_one_hop_more_than_l() {
    // Corollary 2's L = m*n - 2 is the shared chain. A hole at A = (0, 0)
    // whose only spare is in B = (1, 1) walks back through C, the whole
    // chain to D, and then to B: m*n - 1 hops.
    let topo = CycleTopology::build(5, 5).unwrap();
    let (a, b) = (GridCoord::new(0, 0), GridCoord::new(1, 1));
    assert_eq!(single_spare_walk(5, 5, a, b), 24);
    assert_eq!(single_spare_walk(5, 5, b, a), 24);
    assert_eq!(topo.max_walk_hops() + 1, 24);
}

#[test]
fn dual_path_walks_peak_at_one_hop_past_l() {
    // Every single-hole, single-spare placement (72 runs on 3x3, 600 on
    // 5x5): the longest walk is m*n - 1, one hop past Corollary 2's L.
    for side in [3u16, 5] {
        let system = GridSystem::for_comm_range(side, side, 10.0).unwrap();
        let cells: Vec<GridCoord> = system.iter_coords().collect();
        let (mut longest, mut total) = (0, 0);
        for &hole in &cells {
            for &spare in cells.iter().filter(|&&s| s != hole) {
                let hops = single_spare_walk(side, side, hole, spare);
                longest = longest.max(hops);
                total += hops;
            }
        }
        assert_eq!(longest as usize, cells.len() - 1, "{side}x{side}");
        let topo = CycleTopology::build(side, side).unwrap();
        assert_eq!(longest as usize, topo.max_walk_hops() + 1, "{side}x{side}");
        if side == 5 {
            // The exact N = 1 mean, 12.0433 hops, against Corollary 2's
            // M(23, 1) = 12.
            assert_eq!(total, 7226);
        }
    }
}
