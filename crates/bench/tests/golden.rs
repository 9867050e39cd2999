//! Golden-file regression for the machine-readable result artifacts.
//!
//! Five campaign fixtures are checked in under `tests/golden/`:
//!
//! * `campaign_quick16.json` — the artifact behind `figures --quick`
//!   Figures 6–8 (SR and AR on the paper's 16×16 grid, 4 targets, 10
//!   seeds), pinning the simulation outcomes the paper figures plot:
//!   any change to the RNG stream, deployment, SR/AR behavior or JSON
//!   rendering shows up as a diff here before it silently rewrites
//!   history in `results/`.
//! * `campaign_smoke8.json` — the smoke campaign artifact, pinning the
//!   `wsn-campaign/3` schema (scheme axis as registry *ids*, all five
//!   built-ins): config echo (without the worker count, which must
//!   never leak into results), per-cell streaming summaries, confidence
//!   intervals and histograms, all with normalized
//!   (shortest-round-trip) float formatting.
//! * `campaign_masked8.json` — the irregular-region smoke campaign (all
//!   five schemes on the 8×8 L-shape and annulus), pinning the region
//!   axis end to end: masked deployment, masked replacement rings, and
//!   the `region` fields of the artifact.
//! * `event_smoke8.json` — the degraded-mode smoke campaign (AR, SR and
//!   SR-SC on the 8×8 grid over a 2×2 latency × loss weather matrix),
//!   pinning the event-driven engine end to end: the arrival rounds
//!   messages carry, the network models' coordinate-addressed RNG
//!   streams, the per-cell `net` and `health` blocks, and the
//!   Ideal-weather cells' byte-equality with the classic engine.
//! * `recover256.json` — SR and AR full recovery on 256×256 at N = 100
//!   and N = 1000, one trial per cell: the repair hop at the scale of
//!   the repository benchmark's `recover-256` workload, where one SR
//!   trial makes millions of moves. Ignored by default (about 2 s in a
//!   release build, far longer in debug); CI's release step runs it.
//!
//! When a change is *intentional* (new metric field, schema bump),
//! regenerate the fixture and say so in the commit: the diff is the
//! review artifact.

use wsn_bench::campaign::{run_campaign, CampaignConfig};
use wsn_coverage::SchemeId;

const QUICK_GOLDEN: &str = include_str!("golden/campaign_quick16.json");
const CAMPAIGN_GOLDEN: &str = include_str!("golden/campaign_smoke8.json");
const MASKED_GOLDEN: &str = include_str!("golden/campaign_masked8.json");
const EVENT_GOLDEN: &str = include_str!("golden/event_smoke8.json");
const RECOVER_GOLDEN: &str = include_str!("golden/recover256.json");

#[test]
fn quick_campaign_reproduces_the_checked_in_artifact() {
    let result = run_campaign(&CampaignConfig::quick()).expect("quick matrix is valid");
    let rendered = result.to_json().to_file_string();
    assert_eq!(
        rendered, QUICK_GOLDEN,
        "campaign_quick16.json drifted; regenerate the fixture if intentional"
    );
}

#[test]
fn smoke_campaign_reproduces_the_checked_in_artifact() {
    let result = run_campaign(&CampaignConfig::smoke()).expect("smoke matrix is valid");
    let rendered = result.to_json().to_file_string();
    assert_eq!(
        rendered, CAMPAIGN_GOLDEN,
        "campaign_smoke8.json drifted; regenerate the fixture if intentional"
    );
}

#[test]
fn masked_campaign_reproduces_the_checked_in_artifact() {
    let result = run_campaign(&CampaignConfig::masked_smoke()).expect("masked matrix is valid");
    let rendered = result.to_json().to_file_string();
    assert_eq!(
        rendered, MASKED_GOLDEN,
        "campaign_masked8.json drifted; regenerate the fixture if intentional"
    );
}

#[test]
fn degraded_campaign_reproduces_the_checked_in_artifact() {
    let result = run_campaign(&CampaignConfig::degraded_smoke()).expect("degraded matrix is valid");
    let rendered = result.to_json().to_file_string();
    assert_eq!(
        rendered, EVENT_GOLDEN,
        "event_smoke8.json drifted; regenerate the fixture if intentional"
    );
}

#[test]
#[ignore = "about 2 s in release, far longer in debug; CI runs it with --include-ignored"]
fn recover256_campaign_reproduces_the_checked_in_artifact() {
    let cfg = CampaignConfig {
        name: "recover256".into(),
        schemes: SchemeId::list(&["sr", "ar"]),
        grids: vec![(256, 256)],
        targets: vec![100, 1000],
        seeds_per_cell: 1,
        ..CampaignConfig::paper()
    };
    let result = run_campaign(&cfg).expect("recover256 matrix is valid");
    let rendered = result.to_json().to_file_string();
    assert_eq!(
        rendered, RECOVER_GOLDEN,
        "recover256.json drifted; regenerate the fixture if intentional"
    );
}

#[test]
fn degraded_schema_has_the_advertised_shape() {
    assert!(EVENT_GOLDEN.starts_with("{\"schema\":\"wsn-campaign/3\""));
    for key in [
        "\"mode\":\"degraded\"",
        "\"degraded\":{\"latencies\":[1,3],\"loss_ppms\":[0,300000]}",
        "\"schemes\":[\"ar\",\"sr\",\"sr-sc\"]",
        "\"net\":\"ideal\"",
        "\"net\":\"lat3\"",
        "\"net\":\"loss300000-lat1\"",
        "\"net\":\"loss300000-lat3\"",
        "\"health\":{\"messages_sent\"",
        "\"duplicate_initiations\"",
        "\"lost_cascades\"",
        "\"stalled_repairs\"",
    ] {
        assert!(EVENT_GOLDEN.contains(key), "missing {key}");
    }
    assert!(!EVENT_GOLDEN.contains("NaN"));
    assert!(!EVENT_GOLDEN.contains("inf"));
    assert!(EVENT_GOLDEN.ends_with("}\n"));
    // The closed-mode fixtures are untouched by the degraded axis: no
    // net or health fields anywhere.
    for golden in [CAMPAIGN_GOLDEN, MASKED_GOLDEN] {
        assert!(!golden.contains("\"net\":"));
        assert!(!golden.contains("\"health\":"));
        assert!(!golden.contains("\"degraded\""));
    }
}

#[test]
fn campaign_schema_has_the_advertised_shape() {
    // Cheap structural assertions on the fixture itself, so schema
    // violations fail with a readable message even when the byte diff
    // is large.
    assert!(CAMPAIGN_GOLDEN.starts_with("{\"schema\":\"wsn-campaign/3\""));
    for key in [
        "\"config\":",
        "\"schemes\":[\"ar\",\"sr\",\"sr-sc\",\"vf\",\"smart\"]",
        "\"regions\":[\"full\"]",
        "\"cells\":",
        "\"scheme\":\"ar\"",
        "\"scheme\":\"sr\"",
        "\"scheme\":\"sr-sc\"",
        "\"scheme\":\"vf\"",
        "\"scheme\":\"smart\"",
        "\"region\":\"full\"",
        "\"metrics\":",
        "\"moves\":",
        "\"ci\":{\"level\":0.95",
        "\"histogram\":",
        "\"covered_trials\":",
    ] {
        assert!(CAMPAIGN_GOLDEN.contains(key), "missing {key}");
    }
    // The masked fixture carries the irregular region axis and all five
    // schemes.
    assert!(MASKED_GOLDEN.starts_with("{\"schema\":\"wsn-campaign/3\""));
    for key in [
        "\"regions\":[\"l-shape\",\"annulus\"]",
        "\"region\":\"l-shape\"",
        "\"region\":\"annulus\"",
        "\"scheme\":\"sr-sc\"",
        "\"scheme\":\"vf\"",
        "\"scheme\":\"smart\"",
    ] {
        assert!(MASKED_GOLDEN.contains(key), "missing {key}");
    }
    // Floats are normalized: no NaN/Infinity tokens, newline-terminated.
    for golden in [QUICK_GOLDEN, CAMPAIGN_GOLDEN, MASKED_GOLDEN] {
        assert!(!golden.contains("NaN"));
        assert!(!golden.contains("inf"));
        assert!(golden.ends_with("}\n"));
    }
}
