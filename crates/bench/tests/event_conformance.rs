//! Conformance battery for the event drive.
//!
//! SR, SR-SC and AR each have one engine. The classic drive runs it
//! with no link; the event drive gives it a network link, so every
//! inter-cell exchange becomes a typed envelope ([`wsn_coverage::actor`])
//! routed through a network model and queued on a virtual clock. The
//! honesty argument: under [`NetModelSpec::Ideal`] every envelope
//! arrives at the start of the next round, which is exactly when the
//! classic drive's axiomatic delivery would have acted on it, so the
//! link and queue must reproduce the classic reports **byte for byte**
//! — same metrics (including `rounds`), same per-process summaries,
//! same RNG draw order. This suite pins that equivalence across a seeded
//! scenario grid (single-cycle and dual-path grids, masked regions,
//! mid-run faults) on which every classic run fully recovers, then pins
//! the paper's two message-complexity claims as trace-count equalities,
//! and finally checks the engine is honest about *degraded* weather: a
//! seeded 30%-loss run must report the pathologies (duplicate
//! initiations, lost cascades) that the paper's reliable-channel
//! assumption defines away.
//!
//! A mismatch on a full-region scenario is reported through
//! [`replay::divergence_message`]: paired trace artifacts of the classic
//! and the event run, the first divergent event, and — when a fault
//! schedule is involved — its ddmin-shrunk minimum.

use std::path::Path;

use proptest::prelude::*;
use wsn_baselines::{builtins, Ar};
use wsn_bench::replay::{self, ReplaySpec};
use wsn_coverage::scheme::{DriveMode, NetworkSpec, ReplacementScheme, SchemeReport};
use wsn_coverage::{Sr, SrConfig, SrSc};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem, RegionMask};
use wsn_simcore::{FaultEvent, FaultPlan, NetModelSpec, SimRng, TraceEvent};

const IDEAL: DriveMode = DriveMode::EventDriven {
    net: NetModelSpec::Ideal,
};

/// The scenario grid: `(cols, rows, holes, per_cell)` per entry, each
/// run under several seeds. Deployments are dense enough that SR, SR-SC
/// and AR all reach full coverage. Includes the dual-path structures
/// (odd × odd and odd × odd non-square) that Algorithm 2 serves.
fn scenario_grid() -> Vec<(u16, u16, usize, usize)> {
    vec![
        (4, 4, 1, 2),
        (6, 6, 2, 2),
        (6, 6, 4, 3),
        (8, 8, 3, 2),
        (5, 5, 2, 2), // dual-path structure (odd x odd)
        (7, 5, 3, 3), // dual-path, non-square
    ]
}

/// Deterministically punches `holes` distinct cells out of a
/// `per_cell`-dense deployment — the deployment
/// [`ReplaySpec::scenario`] rebuilds for the same arguments.
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

/// A sparse topology that forces long backward cascades: one node per
/// cell, a hole in the middle, and the only spare parked in the corner.
fn cascade_network(seed: u64) -> GridNetwork {
    let sys = GridSystem::for_comm_range(8, 8, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pos = deploy::with_holes(&sys, &[GridCoord::new(4, 4)], 1, &mut rng);
    pos.push(
        sys.cell_rect(GridCoord::new(0, 0))
            .expect("in bounds")
            .center(),
    );
    GridNetwork::new(sys, &pos)
}

/// On-divergence reporting: re-records the classic and the
/// ideal-weather event run of a scenario traced through the replay
/// harness, drops paired `replay_<coord>.trace` artifacts (plus the
/// shrunk fault schedule when one is involved) into `results/`, and
/// returns the first divergent event and the artifact paths.
fn divergence(
    tag: &str,
    scheme: &str,
    (cols, rows, holes, per_cell): (u16, u16, usize, usize),
    seed: u64,
    plan: FaultPlan,
) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let classic = ReplaySpec::scenario(scheme, (cols, rows), holes, per_cell, seed).with_plan(plan);
    let event = classic.clone().with_drive(IDEAL);
    replay::divergence_message(&dir, tag, &classic, &event)
        .unwrap_or_else(|e| format!("{tag}: drives diverged (and replay reporting failed: {e})"))
}

/// Runs `scheme` classic and under ideal weather on the same scenario
/// deployment and returns both reports.
fn classic_and_ideal(
    scheme: &dyn ReplacementScheme,
    (cols, rows, holes, per_cell): (u16, u16, usize, usize),
    seed: u64,
) -> (SchemeReport, SchemeReport) {
    let mk = || seeded_network(cols, rows, holes, per_cell, seed);
    let classic = scheme
        .run(&mut mk(), seed, DriveMode::Classic)
        .expect("scheme supports the scenario");
    let event = scheme
        .run(&mut mk(), seed, IDEAL)
        .expect("scheme supports the scenario");
    (classic, event)
}

/// The kill-a-whole-cell fault schedule of the mid-run tests: cell
/// (3, 3) of the 6×6 scenario dies at round 3, after the initial hole
/// is already repaired.
fn mid_run_fault_plan(net: &GridNetwork) -> FaultPlan {
    let victims = net
        .members(GridCoord::new(3, 3))
        .expect("in bounds")
        .to_vec();
    FaultPlan::new().at(3, FaultEvent::KillNodes(victims))
}

#[test]
fn sr_classic_run_fully_covers_the_scenario_grid() {
    // The premise of the conformance grid: every classic SR run on it
    // recovers, so the event drive is compared on complete repairs.
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47, 1009] {
            let report = Sr::new()
                .run(
                    &mut seeded_network(cols, rows, holes, per_cell, seed),
                    seed,
                    DriveMode::Classic,
                )
                .expect("topology exists");
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            assert!(report.fully_covered, "{tag}: classic must recover");
        }
    }
}

#[test]
fn sr_classic_run_recovers_from_mid_run_faults() {
    // A whole cell killed at round 3 re-opens recovery; the classic
    // runner must execute the fault round and repair the new hole.
    for seed in [5u64, 21] {
        let mut net = seeded_network(6, 6, 1, 2, seed);
        let plan = mid_run_fault_plan(&net);
        let report = Sr::from_config(SrConfig::default().with_fault_plan(plan))
            .run(&mut net, seed, DriveMode::Classic)
            .expect("topology");
        assert!(report.fully_covered, "seed {seed}: classic must recover");
        assert!(report.metrics.rounds > 3, "seed {seed}: fault round ran");
    }
}

#[test]
fn sr_event_ideal_reproduces_the_classic_report_across_the_scenario_grid() {
    for scenario in scenario_grid() {
        let (cols, rows, holes, _) = scenario;
        for seed in [11u64, 47, 1009] {
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            let (classic, event) = classic_and_ideal(&Sr::new(), scenario, seed);
            // SchemeReport equality covers metrics (rounds included),
            // coverage verdict, per-process summaries and final stats —
            // the full byte-identical contract.
            if classic != event {
                panic!(
                    "{}",
                    divergence(&tag, "sr", scenario, seed, FaultPlan::new())
                );
            }
            assert!(event.health.is_clean(), "{tag}: ideal weather is clean");
        }
    }
}

#[test]
fn ar_event_ideal_reproduces_the_classic_report_across_the_scenario_grid() {
    for scenario in scenario_grid() {
        let (cols, rows, holes, _) = scenario;
        for seed in [11u64, 47, 1009] {
            let tag = format!("AR {cols}x{rows} holes={holes} seed={seed}");
            let (classic, event) = classic_and_ideal(&Ar::new(), scenario, seed);
            assert!(classic.fully_covered, "{tag}: classic must recover");
            if classic != event {
                panic!(
                    "{}",
                    divergence(&tag, "ar", scenario, seed, FaultPlan::new())
                );
            }
            // AR's only ledger entries under ideal weather are its own
            // redundant initiations; nothing is lost or stalled.
            assert_eq!(event.health.lost_cascades, 0, "{tag}");
            assert_eq!(event.health.stalled_repairs, 0, "{tag}");
        }
    }
}

#[test]
fn sr_sc_event_ideal_reproduces_the_classic_report_on_cycle_grids() {
    // SR-SC needs a single Hamilton cycle (one even side), so the
    // dual-path entries of the grid are out of spec by construction.
    for scenario in scenario_grid() {
        let (cols, rows, holes, _) = scenario;
        if cols % 2 == 1 && rows % 2 == 1 {
            continue;
        }
        for seed in [11u64, 47, 1009] {
            let tag = format!("SR-SC {cols}x{rows} holes={holes} seed={seed}");
            let (classic, event) = classic_and_ideal(&SrSc::new(), scenario, seed);
            if classic != event {
                panic!(
                    "{}",
                    divergence(&tag, "sr-sc", scenario, seed, FaultPlan::new())
                );
            }
            assert!(event.health.is_clean(), "{tag}: ideal weather is clean");
        }
    }
}

#[test]
fn sr_event_ideal_conformance_holds_under_mid_run_faults() {
    // Killing a whole cell at round 3 re-opens recovery after the
    // initial holes are already repaired; the event engine must keep
    // pace with the classic runner through the fault keepalive.
    let scenario = (6, 6, 1, 2);
    for seed in [5u64, 21] {
        let net = seeded_network(6, 6, 1, 2, seed);
        let plan = mid_run_fault_plan(&net);
        let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan.clone()));
        let classic = sr.run(&mut net.clone(), seed, DriveMode::Classic).unwrap();
        let event = sr.run(&mut net.clone(), seed, IDEAL).unwrap();
        if classic != event {
            // This comparison involves a fault schedule, so the report
            // also ships a ddmin-shrunk version of it.
            let tag = format!("SR mid-run faults seed={seed}");
            panic!("{}", divergence(&tag, "sr", scenario, seed, plan));
        }
        assert!(event.metrics.rounds > 3, "seed {seed}: fault round ran");
    }
}

#[test]
fn event_ideal_conformance_holds_on_masked_regions_via_the_registry() {
    // The uniform API on an irregular region: classic vs
    // EventDriven{Ideal} through ReplacementScheme::run, no per-scheme
    // code. VF and SMART must refuse the mode without touching the
    // network.
    let registry = builtins();
    let mask = RegionMask::l_shape(8, 8);
    let mk = |seed: u64| {
        let sys = GridSystem::for_comm_range(8, 8, 10.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes = vec![enabled[7], enabled[19]];
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap()
    };
    for scheme in registry.iter() {
        for seed in [11u64, 47] {
            let tag = format!("{} seed={seed}", scheme.id());
            scheme
                .supports(&NetworkSpec::masked(mask.clone()))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            if scheme.supports_event_driven() {
                let mut net_c = mk(seed);
                let classic = scheme
                    .run(&mut net_c, seed, DriveMode::Classic)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let mut net_e = mk(seed);
                let event = scheme
                    .run(
                        &mut net_e,
                        seed,
                        DriveMode::EventDriven {
                            net: NetModelSpec::Ideal,
                        },
                    )
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(classic, event, "{tag}");
                assert_eq!(net_c.stats(), net_e.stats(), "{tag}");
                net_e.debug_invariants();
            } else {
                let mut net = mk(seed);
                let untouched = net.stats();
                assert!(
                    scheme
                        .run(
                            &mut net,
                            seed,
                            DriveMode::EventDriven {
                                net: NetModelSpec::Ideal,
                            },
                        )
                        .is_err(),
                    "{tag}: classic-only scheme must refuse the event driver"
                );
                assert_eq!(net.stats(), untouched, "{tag}: refusal must not mutate");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property form of the conformance claim: on arbitrary small
    /// grids, hole counts, densities and seeds, SR under
    /// EventDriven+Ideal is report-identical to the classic runner —
    /// whether or not the scenario is recoverable.
    #[test]
    fn sr_event_ideal_matches_classic_on_arbitrary_scenarios(
        cols in 4u16..9,
        rows in 4u16..9,
        holes in 1usize..4,
        per_cell in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let scenario = (cols, rows, holes, per_cell);
        let (classic, event) = classic_and_ideal(&Sr::new(), scenario, seed);
        prop_assert!(
            classic == event,
            "{}",
            divergence(&format!("SR {cols}x{rows} holes={holes} per_cell={per_cell} seed={seed}"), "sr", scenario, seed, FaultPlan::new())
        );
    }
}

#[test]
fn one_message_per_backward_hop_under_ideal_weather() {
    // Theorem anchor (paper §IV): a snake-like replacement notifies
    // exactly once per backward hop. In the event engine every
    // backward hop is one `hole_announce` envelope, so the traced
    // envelope count must equal the classic runner's `messages`
    // counter — the classic counter *is* the hop count.
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47] {
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            let mk = || seeded_network(cols, rows, holes, per_cell, seed);
            let classic = Sr::new()
                .run(&mut mk(), seed, DriveMode::Classic)
                .expect("topology");
            let (report, trace) = Sr::new()
                .run_traced(&mut mk(), seed, IDEAL)
                .expect("topology");
            let announces = trace
                .records()
                .iter()
                .filter(|r| {
                    matches!(&r.event, TraceEvent::NetMessage { msg, .. } if msg == "hole_announce")
                })
                .count() as u64;
            assert_eq!(announces, classic.metrics.messages, "{tag}");
            assert_eq!(report.metrics.messages, classic.metrics.messages, "{tag}");
        }
    }
}

#[test]
fn single_initiation_per_hole_under_ideal_weather() {
    // Theorem anchor (Lemma 1 / Theorem 1): each vacant cell is
    // monitored by exactly one head, so exactly one process is
    // initiated per deployment hole — observable as a trace-count
    // equality, with a zero duplicate ledger to match.
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47] {
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            let (report, trace) = Sr::new()
                .run_traced(
                    &mut seeded_network(cols, rows, holes, per_cell, seed),
                    seed,
                    IDEAL,
                )
                .expect("topology");
            let initiated = trace.count_kind("process_initiated") as u64;
            assert_eq!(initiated, holes as u64, "{tag}");
            assert_eq!(report.metrics.processes_initiated, holes as u64, "{tag}");
            assert_eq!(report.health.duplicate_initiations, 0, "{tag}");
        }
    }
}

#[test]
fn seeded_lossy_weather_breaks_the_single_initiation_guarantee() {
    // The CI-pinned honesty check: under a seeded Bernoulli 30%-loss
    // model the engine must *report* duplicate initiations and lost
    // cascades instead of silently preserving the paper's guarantees.
    let drive = DriveMode::EventDriven {
        net: NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 1,
        },
    };
    let mut duplicates = 0u64;
    let mut lost = 0u64;
    let mut dropped = 0u64;
    for seed in 0..24 {
        let report = Sr::new()
            .run(&mut cascade_network(seed), seed, drive)
            .expect("topology");
        duplicates += report.health.duplicate_initiations;
        lost += report.health.lost_cascades;
        dropped += report.health.messages_dropped;
    }
    assert!(dropped > 0, "30% loss must drop messages");
    assert!(
        lost > 0,
        "some dropped message must be a cascade notification"
    );
    assert!(
        duplicates >= 1,
        "a lost baton must provoke at least one duplicate initiation"
    );
}

/// Runs registered scheme `id` on the event drive under the weather
/// `token`, on `seed`'s uniform deployment of `enabled + 12` nodes over
/// `mask`'s region.
fn event_report(id: &str, token: &str, mask: &RegionMask, seed: u64) -> SchemeReport {
    let net = NetModelSpec::parse_token(token).expect("valid token");
    let sys = GridSystem::for_comm_range(mask.cols(), mask.rows(), 10.0).unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    let pos = deploy::uniform_masked(&sys, mask, mask.enabled_count() + 12, &mut rng);
    let mut grid = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
    builtins()
        .get(id)
        .expect("registered")
        .run(&mut grid, seed, DriveMode::EventDriven { net })
        .unwrap_or_else(|e| panic!("{id} {token}: {e}"))
}

#[test]
fn lossy_and_jammed_reports_hold_past_one_bitset_word() {
    // SR-SC routes one beacon per spareless head every round under
    // lossy weather, enumerated from the grid's 64-cell bitset words.
    // 8×8 is exactly one word; 10×13 (130 cells) ends in a partial word
    // and the masked L-shape clears bits inside and across words, so a
    // word-boundary slip or a mask leak changes the routed beacons and
    // with them these reports. The values are pinned.
    let expected = [
        "10x13 sr loss300000-lat2: Metrics { moves: 315, distance: 1508.7300691574858, processes_initiated: 250, processes_converged: 42, processes_failed: 208, messages: 273, energy: 1509.0030691574802, rounds: 113, cells_scanned: 692 } | sent 747 dropped 197 duplicates 208 lost 80 stalled 80 superseded 128",
        "10x13 sr jam6708x42484r1000: Metrics { moves: 315, distance: 1524.481401160377, processes_initiated: 42, processes_converged: 42, processes_failed: 0, messages: 273, energy: 1524.7544011603716, rounds: 53, cells_scanned: 336 } | sent 441 dropped 0 duplicates 0 lost 0 stalled 0 superseded 0",
        "10x13 sr-sc loss300000-lat2: Metrics { moves: 24, distance: 162.52598588453128, processes_initiated: 38, processes_converged: 24, processes_failed: 14, messages: 36, energy: 162.5619858845314, rounds: 19, cells_scanned: 2470 } | sent 1745 dropped 492 duplicates 0 lost 12 stalled 12 superseded 0",
        "10x13 sr-sc jam6708x42484r1000: Metrics { moves: 42, distance: 590.3122399770765, processes_initiated: 42, processes_converged: 42, processes_failed: 0, messages: 273, energy: 590.5852399770719, rounds: 200, cells_scanned: 26000 } | sent 23364 dropped 395 duplicates 0 lost 0 stalled 0 superseded 0",
        "10x13 ar loss300000-lat2: Metrics { moves: 237, distance: 1072.3544052190916, processes_initiated: 167, processes_converged: 110, processes_failed: 57, messages: 127, energy: 1072.4814052190895, rounds: 21, cells_scanned: 506 } | sent 350 dropped 90 duplicates 92 lost 34 stalled 0 superseded 0",
        "10x13 ar jam6708x42484r1000: Metrics { moves: 151, distance: 693.1103646943153, processes_initiated: 108, processes_converged: 73, processes_failed: 35, messages: 78, energy: 693.1883646943141, rounds: 9, cells_scanned: 229 } | sent 188 dropped 2 duplicates 66 lost 0 stalled 0 superseded 0",
        "l-shape 12x12 sr loss300000-lat2: Metrics { moves: 341, distance: 1593.9916121164717, processes_initiated: 267, processes_converged: 37, processes_failed: 230, messages: 304, energy: 1594.2956121164657, rounds: 163, cells_scanned: 745 } | sent 790 dropped 209 duplicates 230 lost 90 stalled 90 superseded 140",
        "l-shape 12x12 sr jam6708x42484r1000: Metrics { moves: 341, distance: 1608.7448648981483, processes_initiated: 37, processes_converged: 37, processes_failed: 0, messages: 304, energy: 1609.048864898142, rounds: 77, cells_scanned: 364 } | sent 452 dropped 0 duplicates 0 lost 0 stalled 0 superseded 0",
        "l-shape 12x12 sr-sc loss300000-lat2: Metrics { moves: 21, distance: 158.1856613725565, processes_initiated: 31, processes_converged: 21, processes_failed: 10, messages: 45, energy: 158.23066137255663, rounds: 24, cells_scanned: 2592 } | sent 1720 dropped 497 duplicates 0 lost 7 stalled 7 superseded 0",
        "l-shape 12x12 sr-sc jam6708x42484r1000: Metrics { moves: 37, distance: 483.5636223210618, processes_initiated: 37, processes_converged: 37, processes_failed: 0, messages: 304, energy: 483.8676223210568, rounds: 218, cells_scanned: 23544 } | sent 20907 dropped 436 duplicates 0 lost 0 stalled 0 superseded 0",
        "l-shape 12x12 ar loss300000-lat2: Metrics { moves: 154, distance: 688.7214359041195, processes_initiated: 107, processes_converged: 67, processes_failed: 40, messages: 87, energy: 688.8084359041184, rounds: 22, cells_scanned: 424 } | sent 236 dropped 62 duplicates 51 lost 20 stalled 0 superseded 0",
        "l-shape 12x12 ar jam6708x42484r1000: Metrics { moves: 116, distance: 552.154092234165, processes_initiated: 87, processes_converged: 54, processes_failed: 33, messages: 62, energy: 552.2160922341643, rounds: 11, cells_scanned: 198 } | sent 151 dropped 2 duplicates 50 lost 0 stalled 0 superseded 0",
    ];
    let regions = [
        ("10x13", RegionMask::full(10, 13)),
        ("l-shape 12x12", RegionMask::l_shape(12, 12)),
    ];
    let mut got = Vec::new();
    for (region, mask) in &regions {
        for id in ["sr", "sr-sc", "ar"] {
            for token in ["loss300000-lat2", "jam6708x42484r1000"] {
                let report = event_report(id, token, mask, 5);
                got.push(format!(
                    "{region} {id} {token}: {:?} | {}",
                    report.metrics, report.health
                ));
            }
        }
    }
    for (got, expected) in got.iter().zip(expected) {
        assert_eq!(got, expected);
    }
    assert_eq!(got.len(), expected.len());
}

#[test]
fn zero_loss_bernoulli_reports_equal_fixed_latency() {
    // `loss0-lat2` cannot drop a message, so it is the `lat2` weather:
    // the same report and the same health counters, for every scheme
    // on the event drive, on a grid past one bitset word.
    let mask = RegionMask::full(10, 13);
    for id in ["sr", "sr-sc", "ar"] {
        let zero_loss = event_report(id, "loss0-lat2", &mask, 5);
        let fixed = event_report(id, "lat2", &mask, 5);
        assert_eq!(zero_loss, fixed, "{id}");
        assert_eq!(zero_loss.health, fixed.health, "{id}");
        assert!(zero_loss.health.messages_sent > 0, "{id}");
    }
}
