//! Irregular-region acceptance: the masked 64×64 scenarios run SR,
//! SR-SC, and AR to full coverage of the enabled cells with zero
//! placements in disabled cells.
//!
//! This is the end-to-end proof of the masked replacement stack: mask →
//! masked deployment → masked virtual ring → protocol runs. The 64×64
//! presets each disable ≥15% of the grid ([`Scenario::masked_presets`]
//! pins that); holes are crafted by killing every member of a spread of
//! enabled cells, so each scheme must fill exactly those cells and
//! nothing else.

use wsn_baselines::Ar;
use wsn_bench::scenarios::Scenario;
use wsn_coverage::{DriveMode, ReplacementScheme, Sr, SrSc};
use wsn_grid::{GridCoord, GridNetwork, RegionShape};
use wsn_simcore::{FaultEvent, NodeId};

/// Builds a masked preset's network and knocks out every member of every
/// `stride`-th enabled cell, returning the network and the holes.
fn holed_network(scenario: &Scenario, stride: usize) -> (GridNetwork, Vec<GridCoord>) {
    let mut net = scenario.build_network();
    let mask = net.mask().clone();
    let holes: Vec<GridCoord> = mask.iter_enabled().step_by(stride).collect();
    let mut rng = wsn_simcore::SimRng::seed_from_u64(scenario.seed ^ 0xb0);
    let victims: Vec<NodeId> = holes
        .iter()
        .flat_map(|&h| net.members(h).expect("in bounds").to_vec())
        .collect();
    net.apply_fault(&FaultEvent::KillNodes(victims), &mut rng);
    assert_eq!(net.stats().vacant, holes.len());
    (net, holes)
}

fn assert_confined(net: &GridNetwork) {
    let mask = net.mask();
    let sys = net.system();
    for node in net.nodes() {
        if node.status().is_enabled() {
            let cell = sys.cell_of(node.position()).expect("in area");
            assert!(
                mask.is_enabled(cell),
                "enabled node {} sits in disabled cell {cell}",
                node.id()
            );
        }
    }
    net.debug_invariants();
}

#[test]
fn masked_64x64_presets_fully_recover_under_sr() {
    for scenario in Scenario::masked_presets()
        .into_iter()
        .filter(|s| s.cols == 64)
    {
        let (mut net, holes) = holed_network(&scenario, 97);
        let report = Sr::new()
            .run(&mut net, scenario.seed, DriveMode::Classic)
            .unwrap();
        assert!(report.fully_covered, "{}: {report}", scenario.name);
        assert_eq!(report.metrics.processes_failed, 0, "{}", scenario.name);
        // One process per hole: synchronization survives the mask.
        assert_eq!(
            report.metrics.processes_initiated,
            holes.len() as u64,
            "{}",
            scenario.name
        );
        assert_confined(&net);
    }
}

#[test]
fn masked_64x64_presets_fully_recover_under_sr_sc() {
    for scenario in Scenario::masked_presets()
        .into_iter()
        .filter(|s| s.cols == 64)
    {
        let (mut net, holes) = holed_network(&scenario, 131);
        let report = SrSc::new()
            .run(&mut net, scenario.seed, DriveMode::Classic)
            .unwrap();
        assert!(report.fully_covered, "{}: {report}", scenario.name);
        // The SR-SC headline survives masking: one movement per hole.
        assert_eq!(
            report.metrics.moves,
            holes.len() as u64,
            "{}",
            scenario.name
        );
        assert_confined(&net);
    }
}

#[test]
fn masked_64x64_presets_fully_recover_under_ar() {
    for scenario in Scenario::masked_presets()
        .into_iter()
        .filter(|s| s.cols == 64)
    {
        let (mut net, _) = holed_network(&scenario, 113);
        let report = Ar::new()
            .run(&mut net, scenario.seed, DriveMode::Classic)
            .unwrap();
        assert!(report.run.is_quiescent(), "{}", scenario.name);
        assert!(report.fully_covered, "{}: {report}", scenario.name);
        assert_confined(&net);
    }
}

#[test]
fn masked_128x128_preset_recovers_under_sr() {
    // One 128×128 shape end-to-end (the full set is bench territory).
    let scenario = Scenario::masked_presets()
        .into_iter()
        .find(|s| s.cols == 128 && s.region == RegionShape::LShape)
        .expect("preset exists");
    let (mut net, holes) = holed_network(&scenario, 211);
    let report = Sr::new()
        .run(&mut net, scenario.seed, DriveMode::Classic)
        .unwrap();
    assert!(report.fully_covered, "{report}");
    assert_eq!(report.metrics.processes_initiated, holes.len() as u64);
    assert_confined(&net);
}
