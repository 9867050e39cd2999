//! A moving jammer sweeps across the surveillance area (the attack of Xu
//! et al., the paper's reference [8]), disabling every sensor in its
//! footprint round after round. SR runs *concurrently with the attack*,
//! refilling cells as they are emptied — the dynamic-hole scenario the
//! paper motivates in its introduction.
//!
//! ```text
//! cargo run --example jammer_attack
//! ```

use wsn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = GridSystem::for_comm_range(12, 12, 10.0)?;
    let mut rng = SimRng::seed_from_u64(7);

    // Dense deployment: the jammer will consume spares as it moves.
    let positions = deploy::per_cell_exact(&system, 4, &mut rng);
    let mut network = GridNetwork::new(system, &positions);
    println!("before attack: {network}");

    // The jammer enters at the west edge and drives east across the
    // middle of the area, one half-cell per round, for 40 rounds.
    let r = system.cell_side();
    let jammer = Jammer {
        start: Point2::new(0.0, system.area().height() / 2.0),
        velocity: Vec2::new(0.5 * r, 0.0),
        radius: 1.2 * r,
    };
    println!(
        "attack       : {jammer}, active rounds 0..40 (covers ~{:.0} cells total)",
        (jammer.velocity.x * 40.0 + 2.0 * jammer.radius) * (2.0 * jammer.radius) / (r * r)
    );
    let plan = jammer.plan(0, 40)?;

    let sr = Sr::from_config(SrConfig::default().with_fault_plan(plan));
    let report = sr.run(&mut network, 7, DriveMode::Classic)?;

    println!("\n--- outcome ---");
    println!("{report}");
    println!(
        "jammer kills were repaired by {} replacement processes ({} moves, {:.1} m)",
        report.metrics.processes_initiated, report.metrics.moves, report.metrics.distance
    );
    let verdict = coverage_verdict(&network, 100);
    println!("coverage     : {verdict}");

    assert!(
        report.fully_covered,
        "with 3 spares per cell the sweep must be fully absorbed"
    );
    assert_eq!(report.metrics.success_rate_percent(), 100.0);

    // Show the per-cell occupancy after the attack: the corridor the
    // jammer burned through (row 6) is thinner but never vacant.
    println!("\noccupancy map after the attack (north up):");
    print!("{}", render::occupancy_map(&network));
    Ok(())
}
