//! The paper's analytical cost model: Theorem 2 and Corollaries 1–2.
//!
//! **Theorem 2.** For a converged replacement process with `N` spare
//! nodes uniformly distributed over a deduced Hamilton path of `L` hops,
//! the expected number of node movements is `M = Σ_{i=1..L} i·P(i)`,
//! where `P(i)` (Equation 1 of the paper) is the probability that the
//! nearest spare, walking backward from the hole, is `i` hops away:
//!
//! ```text
//! P(i) = 1 − ((L−1)/L)^N                                  i = 1
//! P(i) = Π_{k=1..i−1} ((L−k)/(L−k+1))^N                   i = L
//! P(i) = (1 − ((L−i)/(L−i+1))^N) · Π_{k=1..i−1} (…)^N     otherwise
//! ```
//!
//! The product telescopes — `Π_{k=1..i−1} ((L−k)/(L−k+1))^N =
//! ((L−i+1)/L)^N` — giving the closed forms implemented here:
//!
//! ```text
//! P(i) = ((L−i+1)/L)^N − ((L−i)/L)^N
//! M    = Σ_{j=1..L} (j/L)^N
//! ```
//!
//! Both forms are implemented and property-tested equal; the closed form
//! is used by the figure generators because it is O(L) with no
//! cancellation issues.
//!
//! The paper's spot check: a 4×5 grid (`L = 19`) with `N = 12` spares
//! gives `M ≈ 2.0139` ("the replacement takes 2.0139 movements on
//! average") — pinned by a unit test below.
//!
//! **Corollary 2.** On an odd×odd grid with the dual-path cycle,
//! `M ≅ M(m·n − 2)`. The approximation is the paper's own: the walk
//! forks at the special cells, so some cells share a backward distance
//! and walks from `A` or `B` take one hop more.
//! [`expected_moves_dual_exact`] computes the exact mean from the
//! structure itself; THEORY.md tabulates the gap.
//!
//! **Distance estimate** (paper §4): each hop covers on average
//! `1.08·r` meters, so a replacement moves `1.08·r·M` meters in total
//! (Figures 5 and 8's analytical series).

use wsn_geometry::CellGeometry;
use wsn_grid::GridCoord;
use wsn_hamilton::{BackwardStep, CycleTopology};

/// Probability that a converged replacement needs exactly `i` movements,
/// in the paper's product form (Equation 1).
///
/// # Panics
///
/// Panics when `l < 2`, `n == 0`, or `i` is outside `1..=l` — the model
/// is undefined there (with no spares nothing converges).
pub fn p_moves_paper_form(l: usize, n: usize, i: usize) -> f64 {
    validate(l, n);
    assert!((1..=l).contains(&i), "i must be in 1..=L, got {i}");
    let lf = l as f64;
    let nf = n as i32;
    let prefix: f64 = (1..i)
        .map(|k| ((lf - k as f64) / (lf - k as f64 + 1.0)).powi(nf))
        .product();
    if i == 1 {
        1.0 - ((lf - 1.0) / lf).powi(nf)
    } else if i == l {
        prefix
    } else {
        (1.0 - ((lf - i as f64) / (lf - i as f64 + 1.0)).powi(nf)) * prefix
    }
}

/// Probability that a converged replacement needs exactly `i` movements
/// (telescoped closed form, equal to [`p_moves_paper_form`]).
///
/// # Panics
///
/// As for [`p_moves_paper_form`].
pub fn p_moves(l: usize, n: usize, i: usize) -> f64 {
    validate(l, n);
    assert!((1..=l).contains(&i), "i must be in 1..=L, got {i}");
    let lf = l as f64;
    let nf = n as i32;
    ((lf - i as f64 + 1.0) / lf).powi(nf) - ((lf - i as f64) / lf).powi(nf)
}

/// Theorem 2's expected number of node movements per replacement,
/// `M(L, N) = Σ_{i=1..L} i·P(i) = Σ_{j=1..L} (j/L)^N`.
///
/// # Panics
///
/// Panics when `l < 2` or `n == 0`.
pub fn expected_moves(l: usize, n: usize) -> f64 {
    validate(l, n);
    let lf = l as f64;
    let nf = n as i32;
    // Sum ascending so the tiny terms accumulate first (better rounding).
    (1..=l).map(|j| (j as f64 / lf).powi(nf)).sum()
}

/// Corollary 2: expected movements on an odd×odd `cols × rows` grid with
/// the dual-path Hamilton cycle, `M ≅ M(m·n − 2)`.
///
/// # Panics
///
/// Panics when either side is even, the grid is smaller than 3×3, or
/// `n == 0`.
pub fn expected_moves_dual(cols: u16, rows: u16, n: usize) -> f64 {
    assert!(
        cols % 2 == 1 && rows % 2 == 1,
        "corollary 2 applies to odd-by-odd grids, got {cols}x{rows}"
    );
    assert!(cols >= 3 && rows >= 3, "grid too small: {cols}x{rows}");
    expected_moves(cols as usize * rows as usize - 2, n)
}

/// The exact expected movements of one SR replacement on the dual-path
/// structure of an odd×odd `cols × rows` grid: one node in every cell
/// but the hole, which is uniform over the grid, and `n` spares placed
/// independently and uniformly over the other `m·n − 1` cells.
///
/// A replacement's move count is `D`, the backward distance of the
/// nearest cell holding a spare: the monitor is at distance 1, and each
/// relay adds one. On the dual path some cells share a distance (the
/// `A`/`B` fork, and `A` beside path one's next cell when `C` recovers
/// `D`), so each hole has its own multiset of distances. With
/// `c_j` of its `K = m·n − 1` cells closer than `j`,
/// `P(D ≥ j) = ((K − c_j)/K)^n` and `E = Σ_{j ≥ 1} P(D ≥ j)`; the
/// result is the mean of `E` over the holes. Corollary 2 approximates it
/// by [`expected_moves_dual`].
///
/// # Panics
///
/// As for [`expected_moves_dual`].
pub fn expected_moves_dual_exact(cols: u16, rows: u16, n: usize) -> f64 {
    assert!(
        cols % 2 == 1 && rows % 2 == 1,
        "corollary 2 applies to odd-by-odd grids, got {cols}x{rows}"
    );
    assert!(cols >= 3 && rows >= 3, "grid too small: {cols}x{rows}");
    validate(cols as usize * rows as usize - 2, n);
    let topo = CycleTopology::build(cols, rows).expect("odd grids of 3x3 or more have a dual path");
    let cells = cols as usize * rows as usize;
    let others = (cells - 1) as f64;
    let mut total = 0.0;
    for y in 0..rows {
        for x in 0..cols {
            let at = backward_distance_counts(&topo, GridCoord::new(x, y));
            let mut closer = 0;
            let mut expected = 0.0;
            for count in at {
                expected += ((others - closer as f64) / others).powi(n as i32);
                closer += count;
            }
            total += expected;
        }
    }
    total / cells as f64
}

/// How many cells lie at each backward distance `1, 2, …` from `hole`:
/// the cells SR's walk asks for a spare at that step. A fork asks both
/// specials and a probe asks `A` beside the next cell, so a step can
/// count two cells; the walk relays through `A` (or `next`), as SR does
/// when no asked cell holds a spare. Every cell but the hole is counted
/// once.
fn backward_distance_counts(topo: &CycleTopology, hole: GridCoord) -> Vec<usize> {
    let others = topo.cell_count() - 1;
    let mut seen = vec![hole];
    let mut counts = Vec::new();
    let mut step = |cells: &[GridCoord], seen: &mut Vec<GridCoord>| {
        let fresh: Vec<GridCoord> = cells
            .iter()
            .copied()
            .filter(|c| !seen.contains(c))
            .collect();
        seen.extend(&fresh);
        counts.push(fresh.len());
    };
    let mut asked = topo.monitors(hole);
    step(&[asked], &mut seen);
    while seen.len() <= others {
        asked = match topo.backward_from(asked, hole) {
            Some(BackwardStep::One(p)) => {
                step(&[p], &mut seen);
                p
            }
            Some(BackwardStep::ForkAB { a, b }) => {
                step(&[a, b], &mut seen);
                a
            }
            Some(BackwardStep::ProbeThen { probe, next }) => {
                step(&[probe, next], &mut seen);
                next
            }
            None => break,
        };
    }
    debug_assert_eq!(seen.len(), others + 1, "the walk reaches every cell");
    counts
}

/// The paper's estimate of the total moving distance of a replacement:
/// `1.08 · r · M(L, N)` meters (§4; Figures 5 and 8).
///
/// # Panics
///
/// Panics when `l < 2`, `n == 0`, or `r` is not positive and finite.
pub fn expected_distance(l: usize, n: usize, r: f64) -> f64 {
    assert!(
        r.is_finite() && r > 0.0,
        "cell side must be positive, got {r}"
    );
    CellGeometry::AVG_MOVE_FACTOR * r * expected_moves(l, n)
}

/// Variance of the movement count of a converged replacement,
/// `Var = Σ i²·P(i) − M²` — how spread out the cascades are around
/// Theorem 2's mean (the paper plots only the mean; the variance
/// quantifies the tail the `figpmf` extension figure shows).
///
/// # Panics
///
/// Panics when `l < 2` or `n == 0`.
pub fn moves_variance(l: usize, n: usize) -> f64 {
    validate(l, n);
    let m = expected_moves(l, n);
    let second_moment: f64 = (1..=l).map(|i| (i * i) as f64 * p_moves(l, n, i)).sum();
    (second_moment - m * m).max(0.0)
}

/// Standard deviation of the movement count (square root of
/// [`moves_variance`]).
///
/// # Panics
///
/// Panics when `l < 2` or `n == 0`.
pub fn moves_std_dev(l: usize, n: usize) -> f64 {
    moves_variance(l, n).sqrt()
}

/// The probability that a replacement converges within `budget` moves,
/// `Σ_{i=1..budget} P(i)` (clamped at `budget ≥ L` to 1) — the quantity
/// behind the paper's "in most cases, the replacement process will
/// converge within 2 movements".
///
/// # Panics
///
/// Panics when `l < 2`, `n == 0`, or `budget == 0`.
pub fn p_converges_within(l: usize, n: usize, budget: usize) -> f64 {
    validate(l, n);
    assert!(budget >= 1, "budget must be at least one movement");
    let b = budget.min(l);
    // Telescoping: sum_{i=1..b} P(i) = 1 - ((L-b)/L)^N.
    1.0 - ((l - b) as f64 / l as f64).powi(n as i32)
}

/// The smallest spare count `N` for which `M(L, N) <= target_moves`.
/// Used to reproduce the paper's density observation: "when the density
/// of enabled nodes is kept above 1.68 per grid, the number of node
/// movements can still be controlled to 2 in the 16×16 grid system".
///
/// # Panics
///
/// Panics when `l < 2` or `target_moves < 1` (a converged replacement
/// makes at least one movement).
pub fn spares_needed_for_moves(l: usize, target_moves: f64) -> usize {
    assert!(l >= 2, "L must be at least 2, got {l}");
    assert!(
        target_moves >= 1.0,
        "a converged replacement makes at least 1 movement"
    );
    // M(L, N) is strictly decreasing in N toward 1; binary search.
    let mut lo = 1usize;
    let mut hi = 1usize;
    while expected_moves(l, hi) > target_moves {
        hi *= 2;
        if hi > 1 << 30 {
            break;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if expected_moves(l, mid) <= target_moves {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn validate(l: usize, n: usize) {
    assert!(l >= 2, "L must be at least 2, got {l}");
    assert!(n >= 1, "theorem 2 requires at least one spare (N >= 1)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spot_value_4x5_n12() {
        // "when 12 spare nodes exist in the 4x5 grid system, the
        // replacement takes 2.0139 movements on average" (L = 19).
        let m = expected_moves(19, 12);
        assert!((m - 2.0139).abs() < 1.5e-3, "M(19,12) = {m}");
    }

    #[test]
    fn paper_density_claim_16x16() {
        // "when the density of enabled nodes is kept above 1.68 per grid,
        // the number of node movements can still be controlled to 2 in
        // the 16x16 grid system": density 1.68 over 256 cells means
        // N = (1.68 - 1) * 256 = 174 spares.
        let m = expected_moves(255, 174);
        assert!(m <= 2.05, "M(255,174) = {m}");
        let needed = spares_needed_for_moves(255, 2.0);
        let density = 1.0 + needed as f64 / 256.0;
        assert!(
            (density - 1.68).abs() < 0.05,
            "paper's 1.68 density, got {density} (N = {needed})"
        );
    }

    #[test]
    fn product_and_closed_forms_agree() {
        for &(l, n) in &[
            (19usize, 1usize),
            (19, 12),
            (19, 140),
            (255, 10),
            (255, 300),
        ] {
            for i in 1..=l {
                let a = p_moves_paper_form(l, n, i);
                let b = p_moves(l, n, i);
                assert!(
                    (a - b).abs() < 1e-10,
                    "P({i}) mismatch at L={l}, N={n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn p_is_a_distribution() {
        for &(l, n) in &[(19usize, 5usize), (255, 55), (23, 1)] {
            let total: f64 = (1..=l).map(|i| p_moves(l, n, i)).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "sum P = {total} at L={l}, N={n}"
            );
            assert!((1..=l).all(|i| p_moves(l, n, i) >= -1e-15));
        }
    }

    #[test]
    fn expected_moves_equals_sum_i_p_i() {
        for &(l, n) in &[(19usize, 12usize), (255, 100)] {
            let direct: f64 = (1..=l).map(|i| i as f64 * p_moves(l, n, i)).sum();
            let closed = expected_moves(l, n);
            assert!((direct - closed).abs() < 1e-8, "{direct} vs {closed}");
        }
    }

    #[test]
    fn m_is_monotone_decreasing_in_n() {
        let mut prev = f64::INFINITY;
        for n in [1usize, 2, 5, 10, 50, 100, 500, 1000] {
            let m = expected_moves(255, n);
            assert!(m < prev, "M not decreasing at N = {n}");
            assert!(m >= 1.0);
            prev = m;
        }
    }

    #[test]
    fn m_limits() {
        // N = 1: the single spare is uniform over L cells; expected walk
        // is (L+1)/2.
        let l = 101usize;
        let m = expected_moves(l, 1);
        assert!((m - (l as f64 + 1.0) / 2.0).abs() < 1e-9, "M(L,1) = {m}");
        // Huge N: converges to 1 move.
        assert!((expected_moves(255, 100_000) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dual_corollary_uses_mn_minus_2() {
        let m_dual = expected_moves_dual(5, 5, 10);
        let m_ref = expected_moves(23, 10);
        assert_eq!(m_dual, m_ref);
    }

    #[test]
    fn distance_is_avg_factor_times_moves() {
        // Figure 5 setting: r = 10.
        let d = expected_distance(19, 12, 10.0);
        let m = expected_moves(19, 12);
        assert!((d - 1.08 * 10.0 * m).abs() < 1e-9);
    }

    #[test]
    fn variance_is_consistent_with_pmf() {
        for &(l, n) in &[(19usize, 12usize), (255, 100)] {
            let m = expected_moves(l, n);
            let var = moves_variance(l, n);
            let direct: f64 = (1..=l)
                .map(|i| (i as f64 - m).powi(2) * p_moves(l, n, i))
                .sum();
            assert!((var - direct).abs() < 1e-6, "{var} vs {direct}");
            assert!(moves_std_dev(l, n) >= 0.0);
        }
        // Huge N: nearly deterministic single move, variance ~ 0.
        assert!(moves_variance(255, 100_000) < 1e-3);
    }

    #[test]
    fn convergence_budget_probability() {
        // The paper's "in most cases ... within 2 movements" at N = 12 on
        // the 4x5 grid.
        let p2 = p_converges_within(19, 12, 2);
        assert!(p2 > 0.7, "P(<=2 moves) = {p2}");
        // Equals the PMF prefix sum.
        let direct: f64 = (1..=2).map(|i| p_moves(19, 12, i)).sum();
        assert!((p2 - direct).abs() < 1e-12);
        // Budget >= L is certain convergence.
        assert!((p_converges_within(19, 12, 19) - 1.0).abs() < 1e-12);
        assert!((p_converges_within(19, 12, 100) - 1.0).abs() < 1e-12);
        // Monotone in budget and in N.
        assert!(p_converges_within(19, 12, 1) < p2);
        assert!(p_converges_within(19, 40, 2) > p2);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_panics() {
        p_converges_within(19, 12, 0);
    }

    #[test]
    fn spares_needed_is_threshold() {
        let n = spares_needed_for_moves(255, 2.0);
        assert!(expected_moves(255, n) <= 2.0);
        assert!(expected_moves(255, n - 1) > 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one spare")]
    fn zero_spares_panics() {
        expected_moves(19, 0);
    }

    #[test]
    #[should_panic(expected = "L must be at least 2")]
    fn tiny_l_panics() {
        expected_moves(1, 5);
    }

    #[test]
    fn exact_dual_expectation_matches_the_single_spare_walks() {
        // N = 1: the mean single-spare walk. Over every hole and spare
        // cell of 5x5, SR's walks total 7,226 hops in 600 runs.
        let one = expected_moves_dual_exact(5, 5, 1);
        assert!((one - 7226.0 / 600.0).abs() < 1e-12, "{one}");
        // Corollary 2 reads 12.0 and 8.1739 here.
        assert!((expected_moves_dual(5, 5, 1) - 12.0).abs() < 1e-12);
        let two = expected_moves_dual_exact(5, 5, 2);
        assert!((two - 8.2128).abs() < 5e-5, "{two}");
        // The exact mean is larger: shared distances and the one-hop-
        // longer walks from A and B.
        for n in [1, 2, 5, 20] {
            assert!(expected_moves_dual_exact(7, 5, n) > expected_moves_dual(7, 5, n));
        }
    }

    #[test]
    #[should_panic(expected = "odd-by-odd")]
    fn exact_dual_rejects_even_side() {
        expected_moves_dual_exact(4, 5, 10);
    }

    #[test]
    #[should_panic(expected = "odd-by-odd")]
    fn dual_rejects_even_side() {
        expected_moves_dual(4, 5, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn distance_rejects_bad_r() {
        expected_distance(19, 12, 0.0);
    }

    #[test]
    #[should_panic(expected = "i must be in")]
    fn p_rejects_out_of_range_i() {
        p_moves(19, 12, 0);
    }
}
