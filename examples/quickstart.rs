//! Quickstart: create a network, punch a hole, watch SR repair it —
//! through the uniform scheme API ([`ReplacementScheme`]).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use wsn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's physical parameters: communication range R = 10 m gives
    // virtual-grid cells of r = R/sqrt(5) = 4.4721 m (GAF model).
    let system = GridSystem::for_comm_range(8, 8, 10.0)?;
    println!("grid system : {system}");

    // Deploy two sensors in every cell: one future head + one spare.
    let mut rng = SimRng::seed_from_u64(2008);
    let positions = deploy::per_cell_exact(&system, 2, &mut rng);
    let mut network = GridNetwork::new(system, &positions);
    println!("deployed    : {network}");

    // An attacker (or plain battery death) takes out every node of two
    // cells — the paper's "holes".
    for hole in [GridCoord::new(2, 5), GridCoord::new(6, 1)] {
        for node in network.members(hole)?.to_vec() {
            network.disable_node(node)?;
        }
    }
    println!("after fault : {network}");
    let verdict_before = coverage_verdict(&network, 80);
    println!("coverage    : {verdict_before}");

    // SR recovery through the scheme API: build a configured scheme,
    // check the region, and drive the network in place. (The same three
    // lines run any registered scheme — see the baseline_faceoff
    // example; for protocol traces, call `run_traced` instead.)
    let selection = SpareSelection::ClosestToTarget;
    let sr = Sr::from_config(SrConfig::default().with_spare_selection(selection));
    sr.supports(&NetworkSpec::of(&network))?;
    let report = sr.run(&mut network, 2008, DriveMode::Classic)?;

    println!("\n--- result ---");
    println!("{report}");
    let verdict_after = coverage_verdict(&network, 80);
    println!("coverage    : {verdict_after}");
    assert!(report.fully_covered, "Theorem 1: holes must be repaired");
    assert_eq!(
        report.metrics.processes_initiated, 2,
        "synchronization: exactly one process per hole"
    );
    for p in &report.processes {
        println!(
            "process {} : hole {} repaired in {} hops ({} moves, {:.1} m)",
            p.id, p.hole, p.hops, p.moves, p.distance
        );
    }

    // Theorem 2 cross-check: what the analysis predicts for this network.
    let l = 8 * 8 - 1;
    let n = report.final_stats.spares;
    println!(
        "analysis    : with N = {n} spares left, the next replacement would take {:.3} moves on average",
        analysis::expected_moves(l, n.max(1)),
    );
    Ok(())
}
