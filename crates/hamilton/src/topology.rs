//! The uniform interface the replacement protocol consumes.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_grid::{GridCoord, RegionMask};

use crate::{DualPathCycle, HamiltonCycle, MaskedCycle, Result};

#[cfg(doc)]
use crate::HamiltonError;

/// One step of the backward walk a replacement process makes from a hole
/// toward a spare node. Returned by [`CycleTopology::backward_from`],
/// which is *hole-aware* because Algorithm 2's case analysis changes the
/// step taken at the special cells depending on which cell is being
/// recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackwardStep {
    /// A single predecessor cell: probe it for a spare; otherwise it
    /// relays (its head moves forward) and the walk continues from it.
    One(GridCoord),
    /// The dual-path fork at `D`: both `A` and `B` precede `D`. The
    /// protocol probes **both** for spares (Algorithm 2 case three:
    /// "either A or B will be notified when any of them has at least one
    /// spare node"), preferring `A`, and relays through an occupied
    /// special when neither has spares. A special equal to the hole is
    /// skipped.
    ForkAB {
        /// Special cell `A` (preferred).
        a: GridCoord,
        /// Special cell `B`.
        b: GridCoord,
    },
    /// Algorithm 2 case two, at `C` while recovering hole `D`: "grid A
    /// with spare nodes is always preferred before the replacement
    /// continues to stretch along path one". The protocol probes `probe`
    /// for a spare but does **not** relay through it; if the probe has no
    /// spare the walk continues at `next`.
    ProbeThen {
        /// The spare-probe cell (`A`).
        probe: GridCoord,
        /// Where the walk relays if the probe has no spare.
        next: GridCoord,
    },
}

/// The cycle structure for a grid, hiding the even/odd distinction.
///
/// * Even-sided grids get a true directed [`HamiltonCycle`]
///   (Algorithm 1's setting).
/// * Odd×odd grids get the [`DualPathCycle`] of Section 4
///   (Algorithm 2's setting).
///
/// The replacement protocol needs three questions answered:
///
/// 1. *Who monitors cell `g`?* — [`CycleTopology::monitors`] (the head
///    that watches `g` and initiates when `g` is vacant).
/// 2. *Where does the backward walk for hole `h` go from cell `u`?* —
///    [`CycleTopology::backward_from`].
/// 3. *How long can a walk stretch?* — [`CycleTopology::max_walk_hops`]
///    (Theorem 2's `L`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CycleTopology {
    /// A single directed Hamilton cycle (at least one even side).
    Single(HamiltonCycle),
    /// The dual-path structure (both sides odd).
    Dual(DualPathCycle),
    /// The masked virtual ring for irregular regions (some cells
    /// disabled by a [`RegionMask`]).
    Masked(MaskedCycle),
}

impl CycleTopology {
    /// Builds the appropriate structure for a full `cols × rows` grid.
    ///
    /// # Errors
    ///
    /// [`HamiltonError::TooSmall`] for grids below 2×2 (or odd×odd grids
    /// below 3×3, which have no dual-path structure either).
    pub fn build(cols: u16, rows: u16) -> Result<CycleTopology> {
        if cols % 2 == 1 && rows % 2 == 1 {
            DualPathCycle::build(cols, rows).map(CycleTopology::Dual)
        } else {
            HamiltonCycle::build(cols, rows).map(CycleTopology::Single)
        }
    }

    /// Builds the appropriate structure for an arbitrary region: the
    /// paper's exact constructions when `mask` is the full rectangle,
    /// the masked virtual ring otherwise.
    ///
    /// # Errors
    ///
    /// As for [`CycleTopology::build`] on full masks;
    /// [`HamiltonError::MaskTooSmall`] when fewer than two cells are
    /// enabled.
    pub fn build_masked(mask: &RegionMask) -> Result<CycleTopology> {
        if mask.is_full() {
            CycleTopology::build(mask.cols(), mask.rows())
        } else {
            MaskedCycle::build(mask).map(CycleTopology::Masked)
        }
    }

    /// Grid columns.
    pub fn cols(&self) -> u16 {
        match self {
            CycleTopology::Single(c) => c.cols(),
            CycleTopology::Dual(d) => d.cols(),
            CycleTopology::Masked(m) => m.cols(),
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> u16 {
        match self {
            CycleTopology::Single(c) => c.rows(),
            CycleTopology::Dual(d) => d.rows(),
            CycleTopology::Masked(m) => m.rows(),
        }
    }

    /// Number of cells on the structure: every grid cell for the full
    /// constructions, the enabled cells for a masked ring.
    pub fn cell_count(&self) -> usize {
        match self {
            CycleTopology::Masked(m) => m.len(),
            _ => self.cols() as usize * self.rows() as usize,
        }
    }

    /// The cell whose head monitors `g` and initiates a replacement when
    /// `g` becomes vacant.
    ///
    /// Single cycle: the predecessor of `g` — the paper's "one and only
    /// one" synchronization. Dual paths (Algorithm 2): `A`/`B` are
    /// monitored by `C` (case one); `D` only by `B` (case two: "only B
    /// will initiate"); chain cells by their chain predecessor (case
    /// three). Masked ring: the ring predecessor (the same "one and only
    /// one" property on the irregular region).
    ///
    /// # Panics
    ///
    /// Panics if `g` is outside the grid (or, on masked rings, disabled).
    pub fn monitors(&self, g: GridCoord) -> GridCoord {
        match self {
            CycleTopology::Single(c) => c.predecessor(g),
            CycleTopology::Masked(m) => m.predecessor(g),
            CycleTopology::Dual(d) => {
                if g == d.a() || g == d.b() {
                    d.c()
                } else if g == d.d() {
                    d.b()
                } else {
                    let k = d
                        .chain_position(g)
                        .expect("non-special cells are on the chain");
                    debug_assert!(k > 0, "k = 0 is D, handled above");
                    d.chain()[k - 1]
                }
            }
        }
    }

    /// The cells the head at `u` monitors — the inverse of
    /// [`CycleTopology::monitors`]. Usually one cell; on dual-path grids
    /// `C` watches both `A` and `B`, `B` additionally watches `D`, and
    /// `A` watches nothing (case two gives `D`'s initiation to `B`
    /// alone).
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the grid.
    pub fn monitored_by(&self, u: GridCoord) -> Vec<GridCoord> {
        match self {
            CycleTopology::Single(c) => vec![c.successor(u)],
            CycleTopology::Masked(m) => vec![m.successor(u)],
            CycleTopology::Dual(d) => {
                if u == d.c() {
                    vec![d.a(), d.b()]
                } else if u == d.b() {
                    vec![d.d()]
                } else if u == d.a() {
                    vec![]
                } else {
                    let k = d
                        .chain_position(u)
                        .expect("non-special cells are on the chain");
                    debug_assert!(k + 1 < d.chain().len(), "chain end is C, handled above");
                    vec![d.chain()[k + 1]]
                }
            }
        }
    }

    /// Where the backward walk recovering `hole` proceeds from cell `u`
    /// (the cell a notification is sent to when `u` has no spare).
    ///
    /// Returns `None` when the walk is exhausted: the next cell would be
    /// the hole itself, i.e. the process has gone all the way around
    /// without finding a spare. On dual paths a walk for hole `A` (or
    /// `B`) is exhausted at the other special, the last cell it reaches.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `hole` is outside the grid, or if `u == hole`
    /// (a hole has no head to continue a walk).
    pub fn backward_from(&self, u: GridCoord, hole: GridCoord) -> Option<BackwardStep> {
        assert_ne!(u, hole, "walk cannot continue from the hole itself");
        match self {
            CycleTopology::Single(c) => {
                let p = c.predecessor(u);
                (p != hole).then_some(BackwardStep::One(p))
            }
            CycleTopology::Masked(m) => {
                let p = m.predecessor(u);
                (p != hole).then_some(BackwardStep::One(p))
            }
            CycleTopology::Dual(d) => {
                if u == d.a() || u == d.b() {
                    // A walk for hole A (or B) reaches the other special
                    // last, through C, the chain and D: it has visited
                    // every other cell, so it is exhausted there too.
                    let exhausted = hole == d.c() || hole == d.a() || hole == d.b();
                    (!exhausted).then_some(BackwardStep::One(d.c()))
                } else if u == d.d() {
                    // Both specials precede D. If one of them is the hole
                    // the fork degenerates to the other.
                    if hole == d.a() {
                        Some(BackwardStep::One(d.b()))
                    } else if hole == d.b() {
                        Some(BackwardStep::One(d.a()))
                    } else {
                        Some(BackwardStep::ForkAB { a: d.a(), b: d.b() })
                    }
                } else {
                    let k = d
                        .chain_position(u)
                        .expect("non-special cells are on the chain");
                    if u == d.c() && hole == d.d() {
                        // Algorithm 2 case two: probe A before continuing
                        // along path one.
                        return Some(BackwardStep::ProbeThen {
                            probe: d.a(),
                            next: d.chain()[k - 1],
                        });
                    }
                    debug_assert!(k > 0, "k = 0 is D, handled above");
                    let p = d.chain()[k - 1];
                    (p != hole).then_some(BackwardStep::One(p))
                }
            }
        }
    }

    /// Theorem 2's walk-length parameter `L`. On a single cycle it is
    /// `m·n − 1` and on a masked ring `enabled − 1`: the most hops a
    /// replacement walk can take. On dual paths it is Corollary 2's
    /// `L = m·n − 2`, the shared chain's length, which is the paper's
    /// parameter and not a bound: a walk from `A` or `B` can take one
    /// hop more (see [`DualPathCycle::corollary_hops`]).
    pub fn max_walk_hops(&self) -> usize {
        match self {
            CycleTopology::Single(c) => c.deduced_path_hops(),
            CycleTopology::Dual(d) => d.corollary_hops(),
            CycleTopology::Masked(m) => m.max_walk_hops(),
        }
    }

    /// `true` when this is the dual-path variant.
    pub fn is_dual(&self) -> bool {
        matches!(self, CycleTopology::Dual(_))
    }

    /// `true` when this is the masked-ring variant.
    pub fn is_masked(&self) -> bool {
        matches!(self, CycleTopology::Masked(_))
    }
}

impl fmt::Display for CycleTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleTopology::Single(c) => c.fmt(f),
            CycleTopology::Dual(d) => d.fmt(f),
            CycleTopology::Masked(m) => m.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_picks_variant_by_parity() {
        assert!(!CycleTopology::build(4, 5).unwrap().is_dual());
        assert!(!CycleTopology::build(5, 4).unwrap().is_dual());
        assert!(!CycleTopology::build(16, 16).unwrap().is_dual());
        assert!(CycleTopology::build(5, 5).unwrap().is_dual());
        assert!(CycleTopology::build(1, 1).is_err());
        assert!(CycleTopology::build(2, 1).is_err());
        assert!(CycleTopology::build(1, 3).is_err());
    }

    #[test]
    fn single_monitor_is_unique_predecessor() {
        let t = CycleTopology::build(4, 4).unwrap();
        for x in 0..4u16 {
            for y in 0..4u16 {
                let g = GridCoord::new(x, y);
                let m = t.monitors(g);
                assert_eq!(t.monitored_by(m), vec![g]);
            }
        }
    }

    #[test]
    fn dual_monitors_follow_algorithm_2() {
        let t = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref d) = t else {
            panic!("expected dual")
        };
        // Case one: A and B are monitored by C.
        assert_eq!(t.monitors(d.a()), d.c());
        assert_eq!(t.monitors(d.b()), d.c());
        // Case two: D is monitored only by B.
        assert_eq!(t.monitors(d.d()), d.b());
        // Case three: chain cells by their chain predecessor.
        for k in 1..d.chain().len() {
            assert_eq!(t.monitors(d.chain()[k]), d.chain()[k - 1]);
        }
    }

    #[test]
    fn dual_monitored_by_is_inverse_of_monitors() {
        let t = CycleTopology::build(5, 5).unwrap();
        for x in 0..5u16 {
            for y in 0..5u16 {
                let g = GridCoord::new(x, y);
                let m = t.monitors(g);
                assert!(
                    t.monitored_by(m).contains(&g),
                    "monitor {m} of {g} does not watch it back"
                );
                for w in t.monitored_by(g) {
                    assert_eq!(t.monitors(w), g);
                }
            }
        }
    }

    #[test]
    fn backward_fork_at_d_for_chain_holes() {
        let t = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref d) = t else {
            panic!("expected dual")
        };
        let hole = d.chain()[10];
        assert_eq!(
            t.backward_from(d.d(), hole),
            Some(BackwardStep::ForkAB { a: d.a(), b: d.b() })
        );
        // With A as the hole, the fork degenerates to B (and vice versa).
        assert_eq!(
            t.backward_from(d.d(), d.a()),
            Some(BackwardStep::One(d.b()))
        );
        assert_eq!(
            t.backward_from(d.d(), d.b()),
            Some(BackwardStep::One(d.a()))
        );
        // The walk for A then ends at B, having visited every other
        // cell (and the walk for B at A); for a chain hole it goes on.
        assert_eq!(t.backward_from(d.b(), d.a()), None);
        assert_eq!(t.backward_from(d.a(), d.b()), None);
        assert_eq!(t.backward_from(d.b(), hole), Some(BackwardStep::One(d.c())));
    }

    #[test]
    fn backward_probe_at_c_for_hole_d() {
        // Algorithm 2 case two.
        let t = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref d) = t else {
            panic!("expected dual")
        };
        let chain = d.chain();
        match t.backward_from(d.c(), d.d()) {
            Some(BackwardStep::ProbeThen { probe, next }) => {
                assert_eq!(probe, d.a());
                assert_eq!(next, chain[chain.len() - 2]);
            }
            other => panic!("expected ProbeThen, got {other:?}"),
        }
        // For any other hole, C relays plainly along the chain.
        assert_eq!(
            t.backward_from(d.c(), chain[5]),
            Some(BackwardStep::One(chain[chain.len() - 2]))
        );
    }

    #[test]
    fn backward_walk_terminates_at_hole() {
        let t = CycleTopology::build(4, 4).unwrap();
        let CycleTopology::Single(ref c) = t else {
            panic!("expected single")
        };
        let hole = GridCoord::new(2, 2);
        // Walking backward from the hole's monitor eventually returns None.
        let mut u = t.monitors(hole);
        let mut hops = 1;
        while let Some(BackwardStep::One(p)) = t.backward_from(u, hole) {
            u = p;
            hops += 1;
        }
        assert_eq!(hops, c.deduced_path_hops());
    }

    #[test]
    #[should_panic(expected = "hole itself")]
    fn backward_from_hole_panics() {
        let t = CycleTopology::build(4, 4).unwrap();
        let g = GridCoord::new(1, 1);
        let _ = t.backward_from(g, g);
    }

    #[test]
    fn max_walk_hops_matches_paper() {
        // 4x5: L = 19 (Figure 3a). 16x16: L = 255 (Figure 3b).
        assert_eq!(CycleTopology::build(4, 5).unwrap().max_walk_hops(), 19);
        assert_eq!(CycleTopology::build(16, 16).unwrap().max_walk_hops(), 255);
        // 5x5 dual: m*n - 2 = 23 (Corollary 2).
        assert_eq!(CycleTopology::build(5, 5).unwrap().max_walk_hops(), 23);
    }

    #[test]
    fn masked_topology_has_unique_monitors_and_terminating_walks() {
        let mask = RegionMask::l_shape(8, 8);
        let t = CycleTopology::build_masked(&mask).unwrap();
        assert!(t.is_masked());
        assert!(!t.is_dual());
        assert_eq!(t.cell_count(), mask.enabled_count());
        assert_eq!(t.max_walk_hops(), mask.enabled_count() - 1);
        // One and only one monitor per enabled cell; inverse holds.
        for g in mask.iter_enabled() {
            let m = t.monitors(g);
            assert!(mask.is_enabled(m));
            assert_eq!(t.monitored_by(m), vec![g]);
        }
        // A backward walk for any hole visits every other enabled cell.
        let hole = mask.iter_enabled().nth(7).unwrap();
        let mut u = t.monitors(hole);
        let mut hops = 1;
        while let Some(BackwardStep::One(p)) = t.backward_from(u, hole) {
            u = p;
            hops += 1;
        }
        assert_eq!(hops, t.max_walk_hops());
    }

    #[test]
    fn build_masked_on_full_mask_is_the_paper_structure() {
        let full = RegionMask::full(6, 6);
        assert!(matches!(
            CycleTopology::build_masked(&full).unwrap(),
            CycleTopology::Single(_)
        ));
        let odd = RegionMask::full(5, 5);
        assert!(matches!(
            CycleTopology::build_masked(&odd).unwrap(),
            CycleTopology::Dual(_)
        ));
        let empty = RegionMask::full(3, 3).difference_rect(0, 0, 2, 2);
        assert!(CycleTopology::build_masked(&empty).is_err());
    }

    #[test]
    fn dims_and_display() {
        let t = CycleTopology::build(5, 4).unwrap();
        assert_eq!((t.cols(), t.rows()), (5, 4));
        assert_eq!(t.cell_count(), 20);
        assert!(!t.to_string().is_empty());
        let d = CycleTopology::build(3, 3).unwrap();
        assert_eq!(d.cell_count(), 9);
        assert!(!d.to_string().is_empty());
    }
}
