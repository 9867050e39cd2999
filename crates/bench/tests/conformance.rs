//! Registry conformance: every registered scheme drives generically
//! through [`ReplacementScheme`], with no per-scheme code in the loop.
//! Classic runs recover a seeded scenario in place; schemes with an
//! event engine reproduce their classic report byte for byte under
//! [`DriveMode::EventDriven`] with ideal weather; schemes without one
//! refuse that mode without touching the network; under every drive a
//! scheme runs, a traced run returns the untraced report and network
//! and records a non-empty trace; and [`ReplacementScheme::supports`]
//! is honored on masked regions.
//!
//! A classic-vs-event mismatch is reported through
//! [`replay::divergence_message`]: paired trace artifacts, the first
//! divergent event, and (when a fault schedule is involved) the shrunk
//! schedule.
//!
//! [`ReplacementScheme`]: wsn_coverage::scheme::ReplacementScheme
//! [`ReplacementScheme::supports`]: wsn_coverage::scheme::ReplacementScheme::supports

use std::path::Path;

use wsn_baselines::builtins;
use wsn_bench::replay::{self, ReplaySpec};
use wsn_coverage::scheme::{DriveMode, NetworkSpec, ReplacementScheme, SchemeReport};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem, RegionMask, RegionShape};
use wsn_simcore::{NetModelSpec, SimRng};

const IDEAL: DriveMode = DriveMode::EventDriven {
    net: NetModelSpec::Ideal,
};

/// Deterministically punches `holes` distinct cells out of a
/// `per_cell`-dense deployment.
fn seeded_network(cols: u16, rows: u16, holes: usize, per_cell: usize, seed: u64) -> GridNetwork {
    let sys = GridSystem::for_comm_range(cols, rows, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let hole_coords: Vec<GridCoord> = rng
        .sample_indices(sys.cell_count(), holes)
        .into_iter()
        .map(|i| sys.coord_of(i))
        .collect();
    let pos = deploy::with_holes(&sys, &hole_coords, per_cell, &mut rng);
    GridNetwork::new(sys, &pos)
}

/// On-divergence reporting: instead of a bare failed assert, re-record
/// the classic and the ideal-weather event run traced through the replay
/// harness, drop paired `replay_<coord>.trace` artifacts into
/// `results/`, and return the first divergent event and the artifact
/// paths.
fn conformance_divergence(
    tag: &str,
    scheme: &str,
    grid: (u16, u16),
    holes: usize,
    per_cell: usize,
    seed: u64,
) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let left = ReplaySpec::scenario(scheme, grid, holes, per_cell, seed);
    let right = left.clone().with_drive(IDEAL);
    replay::divergence_message(&dir, tag, &left, &right)
        .unwrap_or_else(|e| format!("{tag}: drives diverged (and replay reporting failed: {e})"))
}

/// Tracing is observation, never perturbation: `run_traced` from
/// `start` returns the `untraced` report (health included), leaves a
/// network equal to `after`, and records a non-empty trace.
fn assert_traced_run_matches(
    scheme: &dyn ReplacementScheme,
    mut start: GridNetwork,
    seed: u64,
    drive: DriveMode,
    untraced: &SchemeReport,
    after: &GridNetwork,
    tag: &str,
) {
    let (report, trace) = scheme
        .run_traced(&mut start, seed, drive)
        .unwrap_or_else(|e| panic!("{tag} {drive}: {e}"));
    assert_eq!(&report, untraced, "{tag} {drive}: traced report differs");
    assert_eq!(report.health, untraced.health, "{tag} {drive}: health");
    assert!(start == *after, "{tag} {drive}: traced network differs");
    assert!(
        !trace.is_empty(),
        "{tag} {drive}: traced run recorded nothing"
    );
}

#[test]
fn every_registered_scheme_drives_generically_through_the_registry() {
    // The uniform API: no per-scheme code in this loop at all. Every
    // registered scheme runs classic on a full region; schemes with an
    // event engine must reproduce the classic report under ideal
    // weather, and schemes without one must refuse it without touching
    // the network.
    let registry = builtins();
    let ids: Vec<String> = registry.ids().iter().map(ToString::to_string).collect();
    assert_eq!(ids, ["sr", "sr-sc", "ar", "vf", "smart"]);
    for scheme in registry.iter() {
        for seed in [11u64, 47] {
            // 8x8 keeps every built-in in-spec (SR-SC needs an even side).
            let mk = || seeded_network(8, 8, 3, 2, seed);
            let tag = format!("{} seed={seed}", scheme.id());
            scheme
                .supports(&NetworkSpec::full(8, 8))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let mut net = mk();
            let before = net.stats();
            let classic = scheme
                .run(&mut net, seed, DriveMode::Classic)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            // The &mut contract: paired before/after inspection without
            // cloning.
            assert_eq!(classic.initial_stats, before, "{tag}");
            assert_eq!(classic.final_stats, net.stats(), "{tag}");
            net.debug_invariants();
            assert_traced_run_matches(scheme, mk(), seed, DriveMode::Classic, &classic, &net, &tag);
            let mut net2 = mk();
            if scheme.supports_event_driven() {
                let event = scheme
                    .run(&mut net2, seed, IDEAL)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                if event != classic {
                    panic!(
                        "{}",
                        conformance_divergence(&tag, scheme.id(), (8, 8), 3, 2, seed)
                    );
                }
                assert_eq!(net2.stats(), net.stats(), "{tag}");
                assert_traced_run_matches(scheme, mk(), seed, IDEAL, &event, &net2, &tag);
            } else {
                let untouched = net2.stats();
                assert!(
                    scheme.run(&mut net2, seed, IDEAL).is_err(),
                    "{tag}: unsupported mode must be refused"
                );
                assert_eq!(net2.stats(), untouched, "{tag}: refusal must not mutate");
            }
        }
    }
}

#[test]
fn supports_is_honored_on_masked_regions() {
    let registry = builtins();
    // Every built-in supports the masked L-shape (the virtual ring
    // serves SR/SR-SC; AR/VF/SMART are structure-free) and actually
    // drives it without placing nodes in disabled cells.
    let mask = RegionMask::l_shape(8, 8);
    let spec = NetworkSpec::masked(mask.clone());
    for scheme in registry.iter() {
        scheme
            .supports(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.id()));
        let sys = GridSystem::for_comm_range(8, 8, 10.0).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes = vec![enabled[7]];
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let report = scheme.run(&mut net, 5, DriveMode::Classic).unwrap();
        assert_eq!(report.final_stats, net.stats(), "{}", scheme.id());
        net.debug_invariants();
        for node in net.nodes() {
            if node.status().is_enabled() {
                let cell = sys.cell_of(node.position()).unwrap();
                assert!(
                    mask.is_enabled(cell),
                    "{}: node in disabled {cell}",
                    scheme.id()
                );
            }
        }
    }
    // ...and a region a scheme cannot serve is refused up front: odd x odd
    // full grids have no single Hamilton cycle for SR-SC, and 1xN strips
    // have no replacement structure for SR at all.
    let sr_sc = registry.get("sr-sc").unwrap();
    assert!(sr_sc.supports(&NetworkSpec::full(5, 5)).is_err());
    let sr = registry.get("sr").unwrap();
    assert!(sr.supports(&NetworkSpec::full(1, 4)).is_err());
    // Structure-free schemes shrug at both.
    for id in ["ar", "vf", "smart"] {
        let scheme = registry.get(id).unwrap();
        assert!(scheme.supports(&NetworkSpec::full(5, 5)).is_ok(), "{id}");
        for shape in RegionShape::IRREGULAR {
            let spec = NetworkSpec::masked(shape.build_mask(10, 10));
            assert!(scheme.supports(&spec).is_ok(), "{id}@{shape}");
        }
    }
}
