//! The odd×odd case: no Hamilton cycle exists in a 5×5 grid, so SR uses
//! the paper's Section-4 **dual-path** structure (Figure 4) and
//! Algorithm 2's case analysis. This example prints the structure and
//! exercises its three hard cases, including the one that needs the
//! "grid A with spare nodes is always preferred" rule.
//!
//! ```text
//! cargo run --example dual_path_grid
//! ```

use wsn::prelude::*;

fn render_structure(dual: &DualPathCycle) -> String {
    let mut out = String::new();
    for y in (0..dual.rows()).rev() {
        out.push_str("  ");
        for x in 0..dual.cols() {
            let c = GridCoord::new(x, y);
            let tag = if c == dual.a() {
                "  A".into()
            } else if c == dual.b() {
                "  B".into()
            } else if c == dual.c() {
                "  C".into()
            } else if c == dual.d() {
                "  D".into()
            } else {
                format!("{:>3}", dual.chain_position(c).expect("chain cell"))
            };
            out.push_str(&tag);
        }
        out.push('\n');
    }
    out
}

fn recover_one(hole: GridCoord, extra_spare_in: Option<GridCoord>, seed: u64) {
    let system = GridSystem::for_comm_range(5, 5, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    // One node per cell except the hole...
    let mut positions = deploy::with_holes(&system, &[hole], 1, &mut rng);
    // ...plus spares: either everywhere (easy case) or in exactly one
    // chosen cell (the adversarial case).
    match extra_spare_in {
        Some(cell) => {
            let rect = system.cell_rect(cell).expect("in bounds");
            positions.push(rect.center());
        }
        None => {
            let more = deploy::with_holes(&system, &[hole], 1, &mut rng);
            positions.extend(more);
        }
    }
    let mut network = GridNetwork::new(system, &positions);
    let spares = network.stats().spares;
    let (report, trace) = Sr::new()
        .run_traced(&mut network, seed, DriveMode::Classic)
        .expect("5x5 has a dual-path topology");
    println!(
        "hole at {hole} with {spares} spare(s){}:",
        match extra_spare_in {
            Some(c) => format!(" (only in {c})"),
            None => String::new(),
        }
    );
    for line in trace.render().lines() {
        println!("    {line}");
    }
    assert!(report.fully_covered, "Corollary 1: must recover");
    println!(
        "    -> recovered in {} moves, {:.1} m\n",
        report.metrics.moves, report.metrics.distance
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = CycleTopology::build(5, 5)?;
    let CycleTopology::Dual(ref dual) = topo else {
        unreachable!("5x5 is odd x odd");
    };
    println!("5x5 dual-path structure (chain positions; D = start, C = end):");
    print!("{}", render_structure(dual));
    println!("paths: one = A -> D -> ... -> C -> B;  two = B -> D -> ... -> C -> A\n");

    // Case one: a special endpoint cell becomes vacant; C initiates.
    recover_one(dual.a(), None, 1);

    // Case two, adversarial: D vacant and the ONLY spare hides in A.
    // B initiates, the cascade reaches C, and the A-preference rule is
    // what finds the spare (Corollary 1's hard case).
    recover_one(dual.d(), Some(dual.a()), 2);

    // Case three: an ordinary chain cell; the walk crosses the A/B fork.
    recover_one(dual.chain()[12], Some(dual.b()), 3);

    // Corollary 2: expected movements use L = m*n - 2 on dual grids.
    println!(
        "Corollary 2: M(5x5 dual, N = 6) = {:.3} expected moves",
        analysis::expected_moves_dual(5, 5, 6)
    );
    Ok(())
}
