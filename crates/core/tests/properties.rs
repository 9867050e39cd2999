//! Property-based tests for the SR protocol: Theorem 1 / Corollary 1
//! (complete recovery whenever spares exist) over randomized networks,
//! hole patterns and grid parities.

use proptest::prelude::*;
use wsn_coverage::{DriveMode, ReplacementScheme, SpareSelection, Sr, SrConfig};
use wsn_grid::{deploy, GridNetwork, GridSystem, HeadElection};
use wsn_simcore::SimRng;

fn usable_dims() -> impl Strategy<Value = (u16, u16)> {
    // Dimensions for which a topology exists: >= 2x2, and odd x odd only
    // from 3x3 up.
    (2u16..9, 2u16..9).prop_filter("odd x odd needs >= 3", |(c, r)| {
        !(c % 2 == 1 && r % 2 == 1) || (*c >= 3 && *r >= 3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn theorem_1_all_holes_recover_when_spares_suffice(
        (cols, rows) in usable_dims(),
        seed in 0u64..10_000,
        holes_frac in 0.05f64..0.45,
    ) {
        // Build a fully occupied network with 2 nodes per cell, then
        // punch random holes by disabling whole cells. Spares (one per
        // surviving cell) always outnumber holes for holes_frac < 0.5.
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let n_holes = ((sys.cell_count() as f64 * holes_frac) as usize).max(1);
        let cell_idx = rng.sample_indices(sys.cell_count(), n_holes);
        for idx in cell_idx {
            let coord = sys.coord_of(idx);
            for id in net.members(coord).unwrap().to_vec() {
                net.disable_node(id).unwrap();
            }
        }
        let spares_before = net.total_spares();
        let holes_before = net.vacant_count();
        prop_assume!(spares_before >= holes_before);

        let report = Sr::new().run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.run.is_quiescent(), "must reach quiescence");
        prop_assert!(report.fully_covered, "all holes must be filled");
        prop_assert_eq!(report.metrics.processes_failed, 0);
        prop_assert_eq!(report.metrics.success_rate_percent(), 100.0);
        net.debug_invariants();
        // Spare conservation: each filled hole consumed exactly one spare.
        prop_assert_eq!(
            report.final_stats.spares,
            spares_before - holes_before
        );
    }

    #[test]
    fn recovery_is_deterministic_per_seed(
        (cols, rows) in usable_dims(),
        seed in 0u64..1_000,
    ) {
        let run = |seed: u64| {
            let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            let pos = deploy::uniform(&sys, sys.cell_count() * 2, &mut rng);
            let mut net = GridNetwork::new(sys, &pos);
            Sr::new().run(&mut net, seed, DriveMode::Classic).unwrap()
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn policies_do_not_affect_correctness(
        (cols, rows) in usable_dims(),
        seed in 0u64..1_000,
        election_idx in 0usize..4,
        spare_idx in 0usize..3,
    ) {
        let election = [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ][election_idx];
        let spare = [
            SpareSelection::ClosestToTarget,
            SpareSelection::FirstId,
            SpareSelection::MaxEnergy,
        ][spare_idx];
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        // One hole.
        let idx = rng.range_usize(sys.cell_count());
        for id in net.members(sys.coord_of(idx)).unwrap().to_vec() {
            net.disable_node(id).unwrap();
        }
        let cfg = SrConfig::default()
            .with_election(election)
            .with_spare_selection(spare);
        let report = Sr::from_config(cfg).run(&mut net, seed, DriveMode::Classic).unwrap();
        prop_assert!(report.fully_covered);
        prop_assert_eq!(report.metrics.processes_initiated, 1);
        // The monitor cell always has a spare here (2 per cell), so the
        // replacement is a single move regardless of policy (Theorem 2's
        // i = 1 case).
        prop_assert_eq!(report.metrics.moves, 1);
    }

    #[test]
    fn movement_distances_respect_paper_bounds(
        (cols, rows) in usable_dims(),
        seed in 0u64..1_000,
    ) {
        let r = 4.4721;
        let sys = GridSystem::new(cols, rows, r).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, sys.cell_count() * 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        let (report, trace) = Sr::new().run_traced(&mut net, seed, DriveMode::Classic).unwrap();
        let geom = *net.system().geometry();
        for rec in trace.of_kind("node_moved") {
            if let wsn_simcore::TraceEvent::NodeMoved { distance, .. } = &rec.event {
                // Source nodes start anywhere in their cell (not only the
                // central area), so the lower bound is 0; the upper bound
                // is the corner-to-far-central-corner maximum.
                prop_assert!(*distance <= geom.max_move_distance() + 1e-9);
                prop_assert!(*distance >= 0.0);
            }
        }
        let _ = report;
    }
}
