//! Property-based tests for the baseline schemes.

use proptest::prelude::*;
use wsn_baselines::{Ar, Smart, Vf, VfConfig};
use wsn_coverage::{DriveMode, ReplacementScheme};
use wsn_grid::{deploy, GridNetwork, GridSystem};
use wsn_simcore::SimRng;

fn random_network(cols: u16, rows: u16, count: usize, seed: u64) -> GridNetwork {
    let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    let pos = deploy::uniform(&sys, count, &mut rng);
    GridNetwork::new(sys, &pos)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ar_terminates_and_accounts_every_process(
        cols in 3u16..9, rows in 3u16..9,
        count in 0usize..250, seed in 0u64..5_000,
    ) {
        let mut net = random_network(cols, rows, count, seed);
        let report = Ar::new().run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.run.is_quiescent(), "AR must terminate");
        prop_assert_eq!(
            report.metrics.processes_initiated,
            report.metrics.processes_converged + report.metrics.processes_failed
        );
        net.debug_invariants();
        // Node conservation: AR never creates or destroys nodes.
        prop_assert_eq!(report.final_stats.enabled, report.initial_stats.enabled);
    }

    #[test]
    fn ar_with_plentiful_spares_fully_covers(
        cols in 3u16..8, rows in 3u16..8, seed in 0u64..2_000,
    ) {
        // The 4x density regime AR is designed for: recovery succeeds.
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 4, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        // One hole.
        let idx = rng.range_usize(sys.cell_count());
        for id in net.members(sys.coord_of(idx)).unwrap().to_vec() {
            net.disable_node(id).unwrap();
        }
        let report = Ar::new().run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.fully_covered, "4/cell density must recover");
        prop_assert!(report.metrics.processes_converged >= 1);
    }

    #[test]
    fn smart_coverage_follows_density(
        cols in 2u16..9, rows in 2u16..9,
        count in 1usize..300, seed in 0u64..5_000,
    ) {
        // Two sequential scans balance approximately (each scan rounds),
        // which is why the paper says scan methods need several-x density
        // to *guarantee* coverage. At >= 2 nodes/cell they always cover;
        // below 1 node/cell they never can.
        let mut net = random_network(cols, rows, count, seed);
        let cells = net.system().cell_count();
        let report = Smart.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert_eq!(report.final_stats.enabled, count);
        if count >= 2 * cells {
            prop_assert!(report.fully_covered, "2x density must cover");
        }
        if count < cells {
            prop_assert!(!report.fully_covered);
        }
    }

    #[test]
    fn smart_move_count_is_bounded_by_two_scans(
        cols in 2u16..8, rows in 2u16..8,
        count in 1usize..200, seed in 0u64..2_000,
    ) {
        // Each unit of flow crosses each row boundary at most once per
        // scan; total moves are bounded by count * (cols + rows) hops.
        let mut net = random_network(cols, rows, count, seed);
        let report = Smart.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(
            report.metrics.moves <= (count * (cols as usize + rows as usize)) as u64,
            "moves {} exceed the scan bound",
            report.metrics.moves
        );
    }

    #[test]
    fn vf_terminates_and_conserves_nodes(
        cols in 2u16..7, rows in 2u16..7,
        count in 0usize..120, seed in 0u64..2_000,
    ) {
        let mut net = random_network(cols, rows, count, seed);
        let vf = Vf::from_config(VfConfig { max_rounds: 80, ..VfConfig::default() });
        let report = vf.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.metrics.rounds <= 80);
        prop_assert_eq!(report.final_stats.enabled, count);
        // VF never tears a node out of the surveillance area.
        prop_assert!(report.metrics.distance.is_finite());
    }

    #[test]
    fn vf_never_reduces_occupancy_catastrophically(
        seed in 0u64..1_000,
    ) {
        // Repulsion spreads nodes; occupied-cell count should not
        // collapse (allow small jitter-induced dips).
        let mut net = random_network(6, 6, 100, seed);
        let before = net.stats().occupied;
        let vf = Vf::from_config(VfConfig { max_rounds: 80, ..VfConfig::default() });
        let report = vf.run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(
            report.final_stats.occupied + 3 >= before,
            "occupancy collapsed {} -> {}",
            before,
            report.final_stats.occupied
        );
    }
}
