//! Cross-crate fault-injection scenarios: dynamic holes appearing during
//! recovery, jammer sweeps, repeated strikes, and the interplay of local
//! head repair with the replacement protocol.

use wsn::prelude::*;

fn dense_network(cols: u16, rows: u16, per_cell: usize, seed: u64) -> GridNetwork {
    let system = GridSystem::for_comm_range(cols, rows, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let positions = deploy::per_cell_exact(&system, per_cell, &mut rng);
    GridNetwork::new(system, &positions)
}

#[test]
fn staggered_random_kills_are_absorbed() {
    let mut net = dense_network(10, 10, 3, 1);
    let plan = FaultPlan::new()
        .at(0, FaultEvent::KillRandomEnabled { count: 30 })
        .at(10, FaultEvent::KillRandomEnabled { count: 30 })
        .at(20, FaultEvent::KillRandomEnabled { count: 30 })
        .at(30, FaultEvent::KillRandomEnabled { count: 30 });
    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let report = sr.run(&mut net, 1, DriveMode::Classic).unwrap();
    assert!(report.run.is_quiescent());
    assert!(report.fully_covered, "{report}");
    assert_eq!(report.final_stats.enabled, 300 - 120);
    net.debug_invariants();
}

#[test]
fn moving_jammer_sweep_is_repaired_online() {
    let mut net = dense_network(12, 12, 4, 2);
    let r = net.system().cell_side();
    let jammer = Jammer {
        start: Point2::new(0.0, net.system().area().height() / 2.0),
        velocity: Vec2::new(0.5 * r, 0.0),
        radius: 1.2 * r,
    };
    let plan = jammer.plan(0, 40).unwrap();
    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let report = sr.run(&mut net, 2, DriveMode::Classic).unwrap();
    assert!(report.fully_covered);
    assert_eq!(report.metrics.success_rate_percent(), 100.0);
    assert!(report.metrics.processes_initiated > 0);
    let verdict = coverage_verdict(&net, 80);
    assert!(verdict.is_complete());
}

#[test]
fn strike_on_the_same_region_twice_drains_and_recovers() {
    // Two strikes on the same neighborhood: the first consumes nearby
    // spares, the second forces longer walks. Both must be absorbed.
    let mut net = dense_network(8, 8, 3, 3);
    let center = Point2::new(
        net.system().area().width() / 2.0,
        net.system().area().height() / 2.0,
    );
    let strike = Disk::new(center, 1.5 * net.system().cell_side()).unwrap();
    let plan = FaultPlan::new()
        .at(0, FaultEvent::KillRegion(strike))
        .at(25, FaultEvent::KillRegion(strike));
    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let (report, trace) = sr.run_traced(&mut net, 3, DriveMode::Classic).unwrap();
    assert!(report.fully_covered, "{report}");
    // The second strike must have disabled freshly-moved-in nodes too.
    let kills = trace.count_kind("node_disabled");
    assert!(kills > 0);
    net.debug_invariants();
}

#[test]
fn overwhelming_attack_fails_gracefully() {
    // Kill far more nodes than spares exist: recovery must terminate,
    // report incomplete coverage, and keep invariants.
    let mut net = dense_network(6, 6, 2, 4);
    let plan = FaultPlan::new().at(0, FaultEvent::KillRandomEnabled { count: 60 });
    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let report = sr.run(&mut net, 4, DriveMode::Classic).unwrap();
    assert!(report.run.is_quiescent(), "must terminate");
    assert_eq!(report.final_stats.enabled, 12);
    // 12 nodes cannot head 36 cells.
    assert!(!report.fully_covered);
    assert!(report.final_stats.occupied <= 12);
    net.debug_invariants();
}

#[test]
fn head_assassination_never_triggers_movement() {
    // Disabling only heads (always leaving spares) is repaired by local
    // re-election in every round, with zero movement cost.
    let mut net = dense_network(6, 6, 3, 5);
    let mut plan = FaultPlan::new();
    // Schedule: at each of 5 rounds, kill three current... we cannot know
    // future head ids statically, so kill specific node ids that start as
    // heads (FirstId election elects the lowest id per cell, which for
    // per_cell_exact(3) is node 3*k of cell k).
    for round in 0..5u64 {
        let ids: Vec<NodeId> = (0..3)
            .map(|i| NodeId::new((round as u32 * 3 + i) * 3))
            .collect();
        plan = plan.at(round, FaultEvent::KillNodes(ids));
    }
    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let report = sr.run(&mut net, 5, DriveMode::Classic).unwrap();
    assert!(report.fully_covered);
    assert_eq!(report.metrics.moves, 0, "repairs must be local elections");
    assert_eq!(report.metrics.processes_initiated, 0);
}

#[test]
fn fault_plan_pending_rounds_keep_run_alive() {
    // A fault scheduled far in the future must be waited for, then
    // repaired, then the run ends.
    let mut net = dense_network(4, 4, 2, 6);
    let victims: Vec<NodeId> = net.members(GridCoord::new(2, 2)).unwrap().to_vec();
    let plan = FaultPlan::new().at(50, FaultEvent::KillNodes(victims));
    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let report = sr.run(&mut net, 6, DriveMode::Classic).unwrap();
    assert!(report.run.rounds > 50);
    assert!(report.fully_covered);
    assert_eq!(report.metrics.processes_initiated, 1);
}
