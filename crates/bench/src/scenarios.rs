//! Irregular-region deployment presets at the grid sizes the paper does
//! not reach.
//!
//! The paper evaluates on a 16×16 rectangle. [`Scenario::masked_presets`]
//! puts every irregular [`RegionShape`] on 64×64 and 128×128 grids with
//! two nodes per enabled cell; `tests/masked.rs` knocks holes into them
//! and drives SR, SR-SC and AR to full coverage of the enabled cells.

use wsn_grid::{deploy, GridNetwork, GridSystem, RegionShape};
use wsn_simcore::SimRng;

/// A reproducible deployment on a (possibly masked) grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable id, e.g. `masked_annulus_64x64`.
    pub name: String,
    /// Grid columns.
    pub cols: u16,
    /// Grid rows.
    pub rows: u16,
    /// Surveillance region shape ([`RegionShape::Full`] for the paper's
    /// rectangle; irregular shapes deploy only into enabled cells).
    pub region: RegionShape,
    /// Nodes deployed per enabled cell (per-cell-exact deployment, so
    /// the spare budget is `(per_cell - 1) · enabled`).
    pub per_cell: usize,
    /// Deployment seed.
    pub seed: u64,
}

impl Scenario {
    /// Irregular-region presets: every [`RegionShape::IRREGULAR`] shape
    /// at 64×64 **and** 128×128 (eight scenarios), two nodes per enabled
    /// cell. Each shape disables ≥15% of the grid's cells.
    pub fn masked_presets() -> Vec<Scenario> {
        let mut out = Vec::new();
        for (cols, rows) in [(64u16, 64u16), (128, 128)] {
            for shape in RegionShape::IRREGULAR {
                out.push(Scenario {
                    name: format!("masked_{}_{cols}x{rows}", shape.label()),
                    cols,
                    rows,
                    region: shape,
                    per_cell: 2,
                    seed: 64_001,
                });
            }
        }
        out
    }

    /// Deploys the scenario's network: per-cell-exact over the enabled
    /// region with the paper's cell geometry (`R = 10 m`), so every
    /// enabled cell starts covered.
    pub fn build_network(&self) -> GridNetwork {
        let sys = GridSystem::for_comm_range(self.cols, self.rows, 10.0)
            .expect("preset dimensions are valid");
        let mask = self.region.build_mask(self.cols, self.rows);
        let mut rng = SimRng::seed_from_u64(self.seed);
        let pos = deploy::per_cell_exact_masked(&sys, &mask, self.per_cell, &mut rng);
        GridNetwork::with_mask(sys, mask, &pos).expect("masked generator respects the mask")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_network_is_fully_covered_before_faults() {
        let s = Scenario {
            name: "full_16x16".into(),
            cols: 16,
            rows: 16,
            region: RegionShape::Full,
            per_cell: 2,
            seed: 64_001,
        };
        let net = s.build_network();
        assert_eq!(net.vacant_count(), 0);
        assert_eq!(net.total_spares(), 16 * 16);
        net.debug_invariants();
    }

    #[test]
    fn masked_presets_cover_both_tiers_with_heavy_masks() {
        let presets = Scenario::masked_presets();
        assert_eq!(presets.len(), 8);
        for s in &presets {
            assert_ne!(s.region, RegionShape::Full);
            let mask = s.region.build_mask(s.cols, s.rows);
            assert!(
                mask.disabled_count() * 100 >= mask.cell_count() * 15,
                "{}: only {} of {} cells disabled",
                s.name,
                mask.disabled_count(),
                mask.cell_count()
            );
        }
        assert!(presets.iter().any(|s| (s.cols, s.rows) == (64, 64)));
        assert!(presets.iter().any(|s| (s.cols, s.rows) == (128, 128)));
    }

    #[test]
    fn masked_scenario_repairs_only_enabled_cells() {
        // The deployment half: every enabled cell starts covered and no
        // node lands in a disabled one. `tests/masked.rs` drives SR,
        // SR-SC and AR over holes knocked into these deployments.
        let s = Scenario {
            name: "masked_annulus_24x24".into(),
            cols: 24,
            rows: 24,
            region: RegionShape::Annulus,
            per_cell: 2,
            seed: 64_001,
        };
        let mask = s.region.build_mask(24, 24);
        let net = s.build_network();
        net.debug_invariants();
        assert_eq!(net.stats().vacant, 0);
        assert_eq!(net.enabled_count(), mask.enabled_count() * s.per_cell);
    }
}
