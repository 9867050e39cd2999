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
