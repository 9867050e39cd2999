//! Property tests for the scheme registry: duplicate registration is
//! always rejected, iteration order is always registration order, and
//! id validation round-trips through `FromStr`/`Display`.

use proptest::prelude::*;
use wsn_coverage::scheme::{
    DriveMode, NetworkSpec, RegistryError, ReplacementScheme, SchemeId, SchemeRegistry,
    SchemeReport, Unsupported,
};
use wsn_grid::GridNetwork;
use wsn_simcore::TraceLog;

/// A do-nothing scheme carrying an arbitrary id, for registry-shape
/// tests (it is never run here).
#[derive(Debug)]
struct Named {
    id: String,
}

impl ReplacementScheme for Named {
    fn id(&self) -> &str {
        &self.id
    }
    fn label(&self) -> &str {
        "NAMED"
    }
    fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
        Ok(())
    }
    fn run_with(
        &self,
        _net: &mut GridNetwork,
        _seed: u64,
        _mode: DriveMode,
        _trace: TraceLog,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        Err(Unsupported::new(self.id(), "test stub never runs"))
    }
}

/// Decodes a number into a valid id from a small pool, so random
/// sequences contain plenty of duplicates.
fn id_from(n: usize) -> String {
    let pool = [
        "sr", "sr-sc", "ar", "vf", "smart", "oracle", "x1", "plugin-b",
    ];
    pool[n % pool.len()].to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn registration_order_is_iteration_order_and_duplicates_rejected(
        picks in proptest::collection::vec(0usize..8, 1..14),
    ) {
        let ids: Vec<String> = picks.into_iter().map(id_from).collect();
        let mut registry = SchemeRegistry::new();
        let mut accepted: Vec<String> = Vec::new();
        for id in &ids {
            match registry.register(Named { id: id.clone() }) {
                Ok(token) => {
                    prop_assert_eq!(token.as_str(), id.as_str());
                    prop_assert!(!accepted.contains(id), "duplicate must be rejected");
                    accepted.push(id.clone());
                }
                Err(RegistryError::Duplicate { id: dup }) => {
                    prop_assert_eq!(&dup, id);
                    prop_assert!(accepted.contains(id), "only real duplicates are rejected");
                }
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }
        // Iteration order is exactly first-registration order, stably.
        let listed: Vec<String> = registry.ids().iter().map(ToString::to_string).collect();
        prop_assert_eq!(&listed, &accepted);
        let relisted: Vec<String> = registry.iter().map(|s| s.id().to_owned()).collect();
        prop_assert_eq!(&relisted, &accepted);
        prop_assert_eq!(registry.len(), accepted.len());
        // Every accepted id resolves; lookups agree with iteration.
        for id in &accepted {
            prop_assert!(registry.contains(id));
            prop_assert_eq!(registry.get(id).unwrap().id(), id.as_str());
        }
    }

    #[test]
    fn scheme_ids_round_trip_from_str_display(
        a in 0usize..8,
        b in 0usize..8,
        suffix in 0u32..1000,
    ) {
        // Compose valid ids like "ar-smart-17" from pool segments.
        let id = format!("{}-{}-{}", id_from(a), id_from(b), suffix);
        let parsed: SchemeId = id.parse().expect("composed ids are valid");
        prop_assert_eq!(parsed.to_string(), id.clone());
        let reparsed: SchemeId = parsed.to_string().parse().unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    #[test]
    fn malformed_ids_never_register(pick in 0usize..7, n in 0u32..100) {
        let raw = match pick {
            0 => String::new(),
            1 => format!("UPPER{n}"),
            2 => format!("has space{n}"),
            3 => format!("-leading{n}"),
            4 => format!("trailing{n}-"),
            5 => format!("under_score{n}"),
            _ => "x".repeat(65 + n as usize),
        };
        let mut registry = SchemeRegistry::new();
        prop_assert!(raw.parse::<SchemeId>().is_err());
        let outcome = registry.register(Named { id: raw });
        let rejected = matches!(outcome, Err(RegistryError::InvalidId(_)));
        prop_assert!(rejected);
        prop_assert!(registry.is_empty());
    }
}
