//! Structural validation of Hamilton constructions.
//!
//! Used by unit tests, property tests and the `figures` harness sanity
//! pass. Validation returns a human-readable description of the first
//! violation, which makes proptest shrinking output immediately
//! actionable.

use std::collections::HashSet;

use wsn_grid::{GridCoord, RegionMask};

use crate::{DualPathCycle, HamiltonCycle, MaskedCycle};

/// Checks that `seq` is a Hamilton *path* over exactly the cells in
/// `expected`: consecutive cells 4-adjacent, no repeats, full coverage.
pub fn validate_path(seq: &[GridCoord], expected: &HashSet<GridCoord>) -> Result<(), String> {
    if seq.len() != expected.len() {
        return Err(format!(
            "path visits {} cells, expected {}",
            seq.len(),
            expected.len()
        ));
    }
    let mut seen = HashSet::with_capacity(seq.len());
    for (i, &c) in seq.iter().enumerate() {
        if !expected.contains(&c) {
            return Err(format!("cell {c} at index {i} not in expected set"));
        }
        if !seen.insert(c) {
            return Err(format!("cell {c} visited twice (index {i})"));
        }
        if i > 0 && !seq[i - 1].is_adjacent(c) {
            return Err(format!(
                "cells {} (index {}) and {c} (index {i}) not adjacent",
                seq[i - 1],
                i - 1
            ));
        }
    }
    Ok(())
}

/// Checks that `cycle` is a directed Hamilton cycle: a Hamilton path over
/// all cells whose last cell is adjacent to its first, whose position,
/// successor and predecessor agree with its order.
pub fn validate_cycle(cycle: &HamiltonCycle) -> Result<(), String> {
    let all: HashSet<GridCoord> = (0..cycle.cols())
        .flat_map(|x| (0..cycle.rows()).map(move |y| GridCoord::new(x, y)))
        .collect();
    let order: Vec<GridCoord> = cycle.order().collect();
    validate_path(&order, &all)?;
    let first = order[0];
    let last = *order.last().expect("cycles are nonempty");
    if !last.is_adjacent(first) {
        return Err(format!("cycle does not close: {last} !~ {first}"));
    }
    for (k, &c) in order.iter().enumerate() {
        if cycle.position(c) != k {
            return Err(format!("position index wrong for {c}"));
        }
        let next = order[(k + 1) % order.len()];
        if cycle.successor(c) != next || cycle.predecessor(next) != c {
            return Err(format!("successor of {c} is not {next}"));
        }
    }
    Ok(())
}

/// Checks the paper's Section-4 dual-path structure:
///
/// * path one (`A → D → … → C → B`) and path two (`B → D → … → C → A`)
///   are both Hamilton paths over the full grid;
/// * they share exactly the `m·n − 2` chain cells;
/// * `C` is the common predecessor of `A` and `B` (i.e. `C` is adjacent
///   to both and immediately precedes them on the respective paths) and
///   `D` the common successor.
pub fn validate_dual(dual: &DualPathCycle) -> Result<(), String> {
    let all: HashSet<GridCoord> = (0..dual.cols())
        .flat_map(|x| (0..dual.rows()).map(move |y| GridCoord::new(x, y)))
        .collect();
    let p1 = dual.path_one();
    let p2 = dual.path_two();
    validate_path(&p1, &all).map_err(|e| format!("path one: {e}"))?;
    validate_path(&p2, &all).map_err(|e| format!("path two: {e}"))?;

    let (a, b, c, d) = (dual.a(), dual.b(), dual.c(), dual.d());
    if p1[0] != a || *p1.last().expect("nonempty") != b {
        return Err("path one must run from A to B".into());
    }
    if p2[0] != b || *p2.last().expect("nonempty") != a {
        return Err("path two must run from B to A".into());
    }
    if p1[1] != d || p2[1] != d {
        return Err("D must be the common successor of A and B".into());
    }
    if p1[p1.len() - 2] != c || p2[p2.len() - 2] != c {
        return Err("C must be the common predecessor of A and B".into());
    }
    // Shared chain: everything except the endpoints, identical on both
    // paths and of length m*n - 2.
    let chain1 = &p1[1..p1.len() - 1];
    let chain2 = &p2[1..p2.len() - 1];
    if chain1 != chain2 {
        return Err("paths do not share the interior chain".into());
    }
    if chain1.len() != all.len() - 2 {
        return Err(format!(
            "shared chain has {} cells, expected {}",
            chain1.len(),
            all.len() - 2
        ));
    }
    if chain1 != dual.chain() {
        return Err("stored chain differs from path interiors".into());
    }
    // A, B, C, D mutual adjacency as required by the construction.
    for (x, y, name) in [(a, d, "A-D"), (b, d, "B-D"), (a, c, "A-C"), (b, c, "B-C")] {
        if !x.is_adjacent(y) {
            return Err(format!("{name} not adjacent ({x} !~ {y})"));
        }
    }
    Ok(())
}

/// Checks the masked ring against its region: the proof obligation of
/// the irregular-region construction.
///
/// * every **enabled** cell of `mask` is on exactly one directed path of
///   the cover (equivalently: appears exactly once in the ring order);
/// * no disabled cell appears anywhere;
/// * within each path, consecutive cells are 4-adjacent;
/// * the position index is consistent with the ring order;
/// * every virtual connector sits at a path boundary (inside a path all
///   steps are adjacent).
pub fn validate_masked(ring: &MaskedCycle, mask: &RegionMask) -> Result<(), String> {
    if ring.cols() != mask.cols() || ring.rows() != mask.rows() {
        return Err(format!(
            "ring is {}x{} but mask is {}x{}",
            ring.cols(),
            ring.rows(),
            mask.cols(),
            mask.rows()
        ));
    }
    let enabled: HashSet<GridCoord> = mask.iter_enabled().collect();
    if ring.len() != enabled.len() {
        return Err(format!(
            "ring visits {} cells, mask enables {}",
            ring.len(),
            enabled.len()
        ));
    }
    let mut seen = HashSet::with_capacity(ring.len());
    for (k, &c) in ring.order().iter().enumerate() {
        if !enabled.contains(&c) {
            return Err(format!("disabled cell {c} at ring position {k}"));
        }
        if !seen.insert(c) {
            return Err(format!("cell {c} on two paths (ring position {k})"));
        }
        if ring.position(c) != k {
            return Err(format!("position index wrong for {c}"));
        }
    }
    // seen == enabled now follows from equal sizes + subset.
    let mut covered = 0usize;
    for segment in ring.segments() {
        if segment.is_empty() {
            return Err("empty path in the cover".into());
        }
        for w in segment.windows(2) {
            if !w[0].is_adjacent(w[1]) {
                return Err(format!(
                    "non-adjacent step {} -> {} inside a path",
                    w[0], w[1]
                ));
            }
        }
        covered += segment.len();
    }
    if covered != ring.len() {
        return Err(format!(
            "paths cover {covered} cells, ring has {}",
            ring.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_path_rejects_gaps_and_repeats() {
        let cells: HashSet<GridCoord> = [
            GridCoord::new(0, 0),
            GridCoord::new(1, 0),
            GridCoord::new(1, 1),
        ]
        .into_iter()
        .collect();
        // Good path.
        assert!(validate_path(
            &[
                GridCoord::new(0, 0),
                GridCoord::new(1, 0),
                GridCoord::new(1, 1)
            ],
            &cells
        )
        .is_ok());
        // Non-adjacent jump.
        assert!(validate_path(
            &[
                GridCoord::new(0, 0),
                GridCoord::new(1, 1),
                GridCoord::new(1, 0)
            ],
            &cells
        )
        .is_err());
        // Repeat.
        assert!(validate_path(
            &[
                GridCoord::new(0, 0),
                GridCoord::new(1, 0),
                GridCoord::new(0, 0)
            ],
            &cells
        )
        .is_err());
        // Wrong length.
        assert!(validate_path(&[GridCoord::new(0, 0)], &cells).is_err());
        // Foreign cell.
        assert!(validate_path(
            &[
                GridCoord::new(0, 0),
                GridCoord::new(0, 1),
                GridCoord::new(1, 1)
            ],
            &cells
        )
        .is_err());
    }
}
