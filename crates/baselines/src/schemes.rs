//! [`builtins`] — the registry of all five built-in schemes (SR and
//! SR-SC from [`wsn_coverage`], AR, VF and SMART from this crate).
//!
//! This crate is the lowest point in the dependency graph that can see
//! every built-in scheme, which is why the full registry is assembled
//! here rather than in `wsn_coverage`.

use wsn_coverage::scheme::{SchemeRegistry, Sr, SrSc};

use crate::{Ar, Smart, Vf};

/// The registry of the five built-in schemes, in stable order:
/// `sr`, `sr-sc`, `ar`, `vf`, `smart` — all with default
/// configurations. Register plugins on top, or build a custom registry
/// from individually configured schemes:
///
/// ```
/// use wsn_baselines::builtins;
///
/// let registry = builtins();
/// let ids: Vec<String> = registry.ids().iter().map(|id| id.to_string()).collect();
/// assert_eq!(ids, ["sr", "sr-sc", "ar", "vf", "smart"]);
/// assert_eq!(registry.get("ar").unwrap().label(), "AR");
/// ```
pub fn builtins() -> SchemeRegistry {
    let mut registry = SchemeRegistry::new();
    registry
        .register(Sr::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(SrSc::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(Ar::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(Vf::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(Smart)
        .expect("built-in ids are valid and unique");
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArConfig, ArProtocol};
    use wsn_coverage::scheme::{run_to_quiescence, DriveMode, NetworkSpec, ReplacementScheme};
    use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem, RegionMask};
    use wsn_simcore::{NetModelSpec, SimRng, TraceLog};

    fn holed_network(seed: u64) -> GridNetwork {
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(2, 2)], 2, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn builtins_register_all_five_in_stable_order() {
        let reg = builtins();
        assert_eq!(reg.len(), 5);
        let ids: Vec<String> = reg.ids().iter().map(ToString::to_string).collect();
        assert_eq!(ids, ["sr", "sr-sc", "ar", "vf", "smart"]);
        let labels: Vec<&str> = reg.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["SR", "SR-SC", "AR", "VF", "SMART"]);
    }

    #[test]
    fn every_builtin_drives_a_single_hole_in_place() {
        for scheme in builtins().iter() {
            let mut net = holed_network(11);
            scheme
                .supports(&NetworkSpec::of(&net))
                .unwrap_or_else(|e| panic!("{e}"));
            let before = net.stats();
            let report = scheme.run(&mut net, 11, DriveMode::Classic).unwrap();
            assert_eq!(report.initial_stats, before, "{}", scheme.id());
            assert_eq!(report.final_stats, net.stats(), "{}", scheme.id());
            assert!(report.metrics.moves >= 1, "{}", scheme.id());
            // VF is best-effort (density gradients, no guarantee — the
            // paper's criticism); every replacement scheme must close
            // the hole.
            if scheme.id() != "vf" {
                assert!(report.fully_covered, "{}: {report}", scheme.id());
            }
            net.debug_invariants();
        }
    }

    #[test]
    fn vf_and_smart_reject_non_classic_modes_without_touching_the_network() {
        let mut net = holed_network(7);
        let before = net.stats();
        for id in ["vf", "smart"] {
            let reg = builtins();
            let scheme = reg.get(id).unwrap();
            assert!(!scheme.supports_event_driven());
            let mode = DriveMode::EventDriven {
                net: NetModelSpec::Ideal,
            };
            let err = scheme.run(&mut net, 7, mode).unwrap_err();
            assert_eq!(err.scheme, id);
            assert_eq!(net.stats(), before, "{id} must not touch the network");
            let err = scheme.run_traced(&mut net, 7, mode).unwrap_err();
            assert_eq!(err.scheme, id);
            assert_eq!(net.stats(), before, "{id} must not touch the network");
        }
    }

    #[test]
    fn ar_scheme_matches_direct_classic_driver() {
        let mut net = holed_network(5);
        let via_trait = Ar::new().run(&mut net, 5, DriveMode::Classic).unwrap();
        let mut direct_net = holed_network(5);
        let protocol = ArProtocol::new(
            &mut direct_net,
            ArConfig::default(),
            5,
            DriveMode::Classic,
            TraceLog::disabled(),
        );
        let (direct, _) = run_to_quiescence(protocol, ArConfig::default().max_rounds);
        assert_eq!(via_trait, direct);
        assert_eq!(net.stats(), direct_net.stats());
        assert!(direct.health.is_clean(), "classic runs keep no ledger");
    }

    #[test]
    fn ar_event_driven_matches_direct_event_driver() {
        let ar = Ar::new();
        assert!(ar.supports_event_driven());
        let ideal = DriveMode::EventDriven {
            net: NetModelSpec::Ideal,
        };
        let mut net = holed_network(5);
        let via_trait = ar.run(&mut net, 5, ideal).unwrap();
        let mut direct_net = holed_network(5);
        let protocol = ArProtocol::new(
            &mut direct_net,
            ArConfig::default(),
            5,
            ideal,
            TraceLog::disabled(),
        );
        let (direct, _) = run_to_quiescence(protocol, ArConfig::default().max_rounds);
        assert_eq!(via_trait, direct);
        assert_eq!(via_trait.health, direct.health);
        assert_eq!(net.stats(), direct_net.stats());
        // And Ideal event runs match classic runs (same weather-free axioms).
        let classic = ar
            .run(&mut holed_network(5), 5, DriveMode::Classic)
            .unwrap();
        assert_eq!(via_trait, classic);
        assert_eq!(via_trait.metrics, classic.metrics);
    }

    #[test]
    fn baselines_support_masked_regions() {
        let spec = NetworkSpec::masked(RegionMask::annulus(8, 8));
        for scheme in builtins().iter() {
            assert!(
                scheme.supports(&spec).is_ok(),
                "{} must support the annulus",
                scheme.id()
            );
        }
    }
}
