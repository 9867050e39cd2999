//! Experiment harness: regenerates every evaluation figure of the paper.
//!
//! The paper's evaluation (its §5) compares **SR** (this repository's
//! [`wsn_coverage`]) against **AR** ([`wsn_baselines::ar`]) on a 16×16
//! virtual grid with `R = 10 m` (`r = 4.4721 m`), uniform deployment, and
//! "number of spare sensors N" swept from 10 to 1000. Figures 3 and 5 are
//! purely analytical (Theorem 2); Figures 6–8 are Monte-Carlo.
//!
//! | Figure | Content | Generator |
//! |---|---|---|
//! | 3(a)/3(b) | analytical #moves vs N (4×5, 16×16) | [`figures::fig3`] |
//! | 5(a)/5(b) | analytical distance vs N (r = 10) | [`figures::fig5`] |
//! | 6(a) | #processes initiated, AR vs SR | [`figures::fig6a`] |
//! | 6(b) | success rate (%), AR vs SR | [`figures::fig6b`] |
//! | 7(a)/(b) | #node moves, experimental + analytical | [`figures::fig7`] |
//! | 8(a)/(b) | total moving distance, experimental + analytical | [`figures::fig8`] |
//!
//! Deployment methodology (from the paper): with `(N + m·n)` enabled
//! nodes dropped uniformly, the network holds `N + holes` spares and
//! `holes` vacant cells; each replacement consumes exactly one spare, so
//! `N` spares remain after full recovery.
//!
//! Every Monte-Carlo figure runs on one engine, [`campaign`]: it expands
//! the experiment matrix (scheme × region shape × grid × `N` × seed)
//! lazily, hands its deployments to worker threads through one shared
//! cursor, runs every scheme on its own copy of the same deployment, and
//! folds trials into streaming per-cell statistics with confidence
//! intervals. Figures 6–8 plot a
//! [`CampaignConfig::paper`](campaign::CampaignConfig::paper) campaign
//! (or its `quick`/`smoke` reductions) with 95% CI whiskers, and
//! `figures --masked` adds the irregular-region comparison over
//! [`wsn_grid::RegionShape`] ([`scenarios`] holds the matching
//! 64×64/128×128 masked presets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod perf;
pub mod replay;
pub mod scenarios;
pub mod steady;

pub use campaign::{
    run_campaign, run_campaign_resumable, run_campaign_resumable_with, run_campaign_with,
    CampaignCheckpoint, CampaignConfig, CampaignError, CampaignMode, CampaignObserver,
    CampaignResult, CampaignRun, CancelAfter, CellStats,
};
pub use replay::{
    record, scheme_with_plan, shrink_between, Recording, ReplayArtifact, ReplayError, ReplaySpec,
};
pub use scenarios::Scenario;
pub use steady::{run_steady_trial, SpareRotation, SteadyOutcome, SteadyParams, SteadySummary};
