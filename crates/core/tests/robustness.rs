//! Robustness property tests: SR under randomized fault plans, the
//! asynchronous extension, battery dynamics, and the SR-SC shortcut.

use proptest::prelude::*;
use wsn_coverage::{DriveMode, ReplacementScheme, Sr, SrConfig, SrSc};
use wsn_grid::{deploy, GridNetwork, GridSystem};
use wsn_simcore::fault::{FaultEvent, FaultPlan};
use wsn_simcore::SimRng;

fn dense_network(cols: u16, rows: u16, per_cell: usize, seed: u64) -> GridNetwork {
    let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    let pos = deploy::per_cell_exact(&sys, per_cell, &mut rng);
    GridNetwork::new(sys, &pos)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_fault_plans_never_break_invariants(
        cols in 3u16..8, rows in 3u16..8,
        seed in 0u64..5_000,
        events in proptest::collection::vec((0u64..40, 1usize..12), 0..6),
    ) {
        let mut net = dense_network(cols, rows, 3, seed);
        let mut plan = FaultPlan::new();
        for (round, kills) in events {
            plan = plan.at(round, FaultEvent::KillRandomEnabled { count: kills });
        }
        let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
        let report = sr.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.run.is_quiescent(), "must terminate: {}", report);
        net.debug_invariants();
        // Process accounting always balances.
        prop_assert_eq!(
            report.metrics.processes_initiated,
            report.metrics.processes_converged + report.metrics.processes_failed
        );
        // With 3 nodes/cell and at most ~66 kills, spares usually
        // suffice; whenever they did, coverage must be complete.
        if report.final_stats.spares > 0 {
            prop_assert!(report.fully_covered, "spares left over but holes remain");
        }
    }

    #[test]
    fn async_activation_converges_to_same_coverage(
        seed in 0u64..2_000,
        p in 0.15f64..1.0,
        holes in 1usize..6,
    ) {
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        for idx in rng.sample_indices(sys.cell_count(), holes) {
            for id in net.members(sys.coord_of(idx)).unwrap().to_vec() {
                net.disable_node(id).unwrap();
            }
        }
        let sr = Sr::from_config(SrConfig::default().with_activation_probability(p));
        let report = sr.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.fully_covered, "async SR must still recover");
        prop_assert_eq!(report.metrics.processes_failed, 0);
        net.debug_invariants();
    }

    #[test]
    fn battery_dynamics_terminate_and_keep_invariants(
        seed in 0u64..2_000,
        capacity in 3.0f64..60.0,
        holes in 1usize..5,
    ) {
        // Nodes with batteries from "dies after one hop" to "plenty":
        // recovery must terminate cleanly either way.
        use wsn_geometry::sample;
        use wsn_simcore::{Battery, SensorNode, NodeId};
        let sys = GridSystem::new(5, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        // Hand-build nodes with the chosen battery capacity.
        let mut positions = Vec::new();
        for coord in sys.iter_coords() {
            let rect = sys.cell_rect(coord).unwrap();
            for _ in 0..2 {
                positions.push(sample::point_in_rect(&rect, rng.uniform_f64(), rng.uniform_f64()));
            }
        }
        let mut net = GridNetwork::new(sys, &positions);
        // Note: GridNetwork::new uses default batteries; drain them down
        // to the chosen capacity through the public API.
        let node_count = net.node_count();
        for i in 0..node_count {
            let id = NodeId::new(i as u32);
            let full = net.node(id).unwrap().battery().charge();
            net.draw_battery(id, full - capacity).unwrap();
        }
        let _ = SensorNode::with_battery(
            NodeId::new(0),
            wsn_geometry::Point2::ORIGIN,
            Battery::new(capacity),
        );
        for idx in rng.sample_indices(sys.cell_count(), holes) {
            for id in net.members(sys.coord_of(idx)).unwrap().to_vec() {
                net.disable_node(id).unwrap();
            }
        }
        let sr = Sr::from_config(SrConfig::default().with_battery_dynamics(true));
        let report = sr.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.run.is_quiescent(), "must terminate");
        net.debug_invariants();
    }

    #[test]
    fn shortcut_equals_sr_coverage_with_fewer_moves(
        seed in 0u64..2_000,
        holes in 1usize..6,
    ) {
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        for idx in rng.sample_indices(sys.cell_count(), holes) {
            for id in net.members(sys.coord_of(idx)).unwrap().to_vec() {
                net.disable_node(id).unwrap();
            }
        }
        let sr = Sr::new().run(&mut net.clone(), seed, DriveMode::Classic).unwrap();
        let sc = SrSc::new().run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert_eq!(sr.fully_covered, sc.fully_covered);
        prop_assert!(sc.metrics.moves <= sr.metrics.moves);
        // SR-SC makes exactly one move per converged process.
        prop_assert_eq!(sc.metrics.moves, sc.metrics.processes_converged);
    }
}
