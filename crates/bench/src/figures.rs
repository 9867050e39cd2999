//! Per-figure series generators and rendering.

use std::io;
use std::path::Path;

use wsn_coverage::analysis;
use wsn_coverage::scheme::{DriveMode, ReplacementScheme};
use wsn_coverage::Sr;
use wsn_grid::RegionShape;
use wsn_stats::{csv, plot::AsciiPlot, Series};

use crate::campaign::{build_trial_network, trial_stream_seed, CampaignMode, CampaignResult};
use crate::steady::SteadySummary;
use wsn_stats::StreamingStat;

/// `L` for the paper's 4×5 grid (Figure 3(a)).
pub const L_4X5: usize = 19;
/// `L` for the paper's 16×16 grid (Figure 3(b)).
pub const L_16X16: usize = 255;

/// Figure 3: analytical number of movements per replacement vs `N`.
/// Returns `(fig3a, fig3b)` — the 4×5 (`L = 19`, N ≤ 140) and 16×16
/// (`L = 255`, N ≤ 1400) curves.
pub fn fig3() -> (Vec<Series>, Vec<Series>) {
    let a = Series::from_points(
        "analytical M(19, N)",
        (1..=140)
            .map(|n| (n as f64, analysis::expected_moves(L_4X5, n)))
            .collect(),
    );
    let b = Series::from_points(
        "analytical M(255, N)",
        (1..=1400)
            .step_by(5)
            .map(|n| (n as f64, analysis::expected_moves(L_16X16, n)))
            .collect(),
    );
    (vec![a], vec![b])
}

/// Figure 5: analytical total moving distance per replacement vs `N`,
/// with the paper's `r = 10` (its Figure 5 caption). Returns
/// `(fig5a, fig5b)`.
pub fn fig5() -> (Vec<Series>, Vec<Series>) {
    let r = 10.0;
    let a = Series::from_points(
        "estimate 1.08*r*M(19, N)",
        (1..=140)
            .map(|n| (n as f64, analysis::expected_distance(L_4X5, n, r)))
            .collect(),
    );
    let b = Series::from_points(
        "estimate 1.08*r*M(255, N)",
        (1..=1000)
            .step_by(5)
            .map(|n| (n as f64, analysis::expected_distance(L_16X16, n, r)))
            .collect(),
    );
    (vec![a], vec![b])
}

/// One metric of one grid of a completed campaign as figure series: per
/// scheme (legend order = campaign scheme order) the mean curve over
/// `N`, plus — when `whiskers` is set — the lower/upper bounds of the
/// campaign's confidence interval as `"<scheme> loXX"` / `"<scheme>
/// hiXX"` companion curves. This is how the paper's point-estimate
/// figures gain error bars: a ≥30-seed campaign makes the
/// normal-approximation interval defensible per cell.
///
/// # Panics
///
/// Panics when the campaign lacks a cell of the requested grid or
/// `metric` is not a [`wsn_simcore::Metrics::FIELD_NAMES`] entry.
pub fn campaign_series(
    res: &CampaignResult,
    cols: u16,
    rows: u16,
    metric: &str,
    whiskers: bool,
) -> Vec<Series> {
    let level_pct = (res.config.ci_level * 100.0).round() as u32;
    let mut out = Vec::new();
    for scheme in &res.config.schemes {
        // Legends use the registry label carried by the cells (e.g.
        // "SR-SC" for id sr-sc).
        let label = res
            .cells
            .iter()
            .find(|c| c.scheme == *scheme)
            .expect("campaign contains every configured scheme")
            .label
            .clone();
        let mut mean = Series::new(label.clone());
        let mut lo = Series::new(format!("{label} lo{level_pct}"));
        let mut hi = Series::new(format!("{label} hi{level_pct}"));
        for &n in &res.config.targets {
            let cell = res
                .cell(scheme.as_str(), cols, rows, n)
                .expect("campaign contains the requested grid");
            let ci = cell
                .metric(metric)
                .expect("metric is a Metrics field")
                .ci(res.config.ci_level);
            mean.push(n as f64, ci.mean);
            lo.push(n as f64, ci.low());
            hi.push(n as f64, ci.high());
        }
        out.push(mean);
        if whiskers {
            out.push(lo);
            out.push(hi);
        }
    }
    out
}

/// Figure 6(a): processes initiated per scheme, with CI whiskers. Uses
/// the campaign's first grid (the paper's 16×16 for
/// [`crate::campaign::CampaignConfig::paper`]).
pub fn fig6a(res: &CampaignResult) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    campaign_series(res, cols, rows, "processes_initiated", true)
}

/// Figure 6(b): per-process success rate (%), with CI whiskers.
pub fn fig6b(res: &CampaignResult) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    campaign_series(res, cols, rows, "success_rate_percent", true)
}

/// The Theorem-2 overlay, as the paper plots it (Figure 7(b)): each of
/// a cell's mean `holes` replacements costs `M(L, N)` movements at the
/// cell's spare target `N`, with `L = cols·rows − 1` (each replacement
/// walks the single Hamilton cycle minus its own hole). `None` when the
/// campaign has no SR cells to anchor the overlay (Theorem 2 is SR's
/// closed form).
///
/// This is an upper-ish estimate: during recovery the live spare count
/// ranges from `N + holes` down to `N`, so experimental totals sit
/// somewhat below the overlay at low `N` — the same relationship
/// visible between the paper's Figures 7(a) and 7(b).
fn campaign_analytical_moves(res: &CampaignResult, cols: u16, rows: u16) -> Option<Series> {
    let l = cols as usize * rows as usize - 1;
    if !res.config.schemes.iter().any(|s| s.as_str() == "sr") {
        return None;
    }
    let mut overlay = Series::new("SR analytical");
    for &n in &res.config.targets {
        let cell = res.cell("sr", cols, rows, n).expect("grid in campaign");
        let holes = cell.holes.summary().mean();
        overlay.push(n as f64, holes * analysis::expected_moves(l, n.max(1)));
    }
    Some(overlay)
}

/// Figure 7: total node movements with CI whiskers (7(a)), plus the
/// analytical SR overlay (7(b)) when SR is in the matrix.
pub fn fig7(res: &CampaignResult) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    let mut series = campaign_series(res, cols, rows, "moves", true);
    series.extend(campaign_analytical_moves(res, cols, rows));
    series
}

/// Figure 8: total moving distance in meters with CI whiskers (8(a)),
/// plus the analytical SR overlay (`1.08 · r · Σ M`, 8(b)) when SR is
/// in the matrix.
pub fn fig8(res: &CampaignResult) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    let mut series = campaign_series(res, cols, rows, "distance", true);
    let r = res.config.comm_range / 5f64.sqrt();
    series.extend(campaign_analytical_moves(res, cols, rows).map(|moves| {
        Series::from_points(
            "SR analytical",
            moves
                .points()
                .iter()
                .map(|&(x, y)| (x, wsn_geometry::CellGeometry::AVG_MOVE_FACTOR * r * y))
                .collect(),
        )
    }));
    series
}

/// One mean curve (plus CI whiskers) per scheme over the spare targets,
/// reading a per-trial [`StreamingStat`] out of each cell's
/// [`SteadySummary`] — the steady-state analog of [`campaign_series`].
///
/// # Panics
///
/// Panics when the campaign was not run under
/// [`CampaignMode::SteadyState`](crate::campaign::CampaignMode) (no
/// cell carries a summary).
fn steady_stat_series(
    res: &CampaignResult,
    pick: impl Fn(&SteadySummary) -> &StreamingStat,
) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    let level_pct = (res.config.ci_level * 100.0).round() as u32;
    let mut out = Vec::new();
    for scheme in &res.config.schemes {
        let label = res
            .cells
            .iter()
            .find(|c| c.scheme == *scheme)
            .expect("campaign contains every configured scheme")
            .label
            .clone();
        let mut mean = Series::new(label.clone());
        let mut lo = Series::new(format!("{label} lo{level_pct}"));
        let mut hi = Series::new(format!("{label} hi{level_pct}"));
        for &n in &res.config.targets {
            let cell = res
                .cell(scheme.as_str(), cols, rows, n)
                .expect("campaign contains the requested grid");
            let summary = cell
                .steady
                .as_ref()
                .expect("steady figures need a steady-state campaign");
            let ci = pick(summary).ci(res.config.ci_level);
            mean.push(n as f64, ci.mean);
            lo.push(n as f64, ci.low());
            hi.push(n as f64, ci.high());
        }
        out.push(mean);
        out.push(lo);
        out.push(hi);
    }
    out
}

/// Steady-state coverage availability per scheme vs spare target `N`,
/// with CI whiskers: the fraction of ticks whose post-repair coverage
/// met the SLA of the campaign's [`crate::steady::SteadyParams`].
pub fn figavail_availability(res: &CampaignResult) -> Vec<Series> {
    steady_stat_series(res, |s| &s.availability)
}

/// Hole-lifetime tail percentiles per scheme vs spare target `N`: p50
/// and p99 from the merged per-cell histograms (`"<label> p50"` /
/// `"<label> p99"`; cells with no repaired hole plot at 0).
pub fn figavail_holelife(res: &CampaignResult) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    let mut out = Vec::new();
    for scheme in &res.config.schemes {
        let label = res
            .cells
            .iter()
            .find(|c| c.scheme == *scheme)
            .expect("campaign contains every configured scheme")
            .label
            .clone();
        let mut p50 = Series::new(format!("{label} p50"));
        let mut p99 = Series::new(format!("{label} p99"));
        for &n in &res.config.targets {
            let cell = res
                .cell(scheme.as_str(), cols, rows, n)
                .expect("campaign contains the requested grid");
            let summary = cell
                .steady
                .as_ref()
                .expect("steady figures need a steady-state campaign");
            p50.push(n as f64, summary.lifetime_percentile(50.0).unwrap_or(0.0));
            p99.push(n as f64, summary.lifetime_percentile(99.0).unwrap_or(0.0));
        }
        out.push(p50);
        out.push(p99);
    }
    out
}

/// Energy burn rate (joules per tick, movement + messages + idle) per
/// scheme vs spare target `N`, with CI whiskers.
pub fn figavail_energy(res: &CampaignResult) -> Vec<Series> {
    steady_stat_series(res, |s| &s.energy_rate)
}

/// Degraded-network comparison from a [`CampaignMode::Degraded`]
/// campaign: one mean curve per `(scheme, network model)` pair for
/// `metric` over the spare targets. Labels read `"<label>@<net token>"`
/// (e.g. `"SR@loss300000-lat1"`), so the figure shows at a glance how
/// each scheme degrades as the weather worsens.
///
/// [`CampaignMode::Degraded`]: crate::campaign::CampaignMode::Degraded
///
/// # Panics
///
/// Panics when the campaign was not run in degraded mode or `metric`
/// is not a [`wsn_simcore::Metrics::FIELD_NAMES`] entry.
pub fn campaign_net_series(res: &CampaignResult, metric: &str) -> Vec<Series> {
    let mut out = Vec::new();
    for scheme in &res.config.schemes {
        let label = res
            .cells
            .iter()
            .find(|c| c.scheme == *scheme)
            .expect("campaign contains every configured scheme")
            .label
            .clone();
        for combo in 0..res.config.degraded.combo_count() {
            let net = res.config.degraded.spec(combo);
            let mut series = Series::new(format!("{}@{}", label, net.token()));
            for &n in &res.config.targets {
                let cell = res
                    .cell_with_net(scheme.as_str(), n, net)
                    .expect("degraded campaign contains every weather cell");
                let mean = cell
                    .metric(metric)
                    .expect("metric is a Metrics field")
                    .summary()
                    .mean();
                series.push(n as f64, mean);
            }
            out.push(series);
        }
    }
    out
}

/// Degraded sweep: total node movements per `(scheme, network model)`.
pub fn figdeg_moves(res: &CampaignResult) -> Vec<Series> {
    campaign_net_series(res, "moves")
}

/// Degraded sweep: success rate (%) per `(scheme, network model)`.
pub fn figdeg_success(res: &CampaignResult) -> Vec<Series> {
    campaign_net_series(res, "success_rate_percent")
}

/// Degraded sweep: the distributed-health ledger — mean duplicate
/// initiations (`"<label>@<net> dup"`) and lost cascades
/// (`"<label>@<net> lost"`) per `(scheme, network model)` over the
/// spare targets. Under ideal weather every curve sits at zero; the
/// figure is the cost of weather in protocol pathologies rather than
/// raw coverage.
///
/// # Panics
///
/// Panics when the campaign was not run in degraded mode.
pub fn figdeg_health(res: &CampaignResult) -> Vec<Series> {
    let mut out = Vec::new();
    for scheme in &res.config.schemes {
        let label = res
            .cells
            .iter()
            .find(|c| c.scheme == *scheme)
            .expect("campaign contains every configured scheme")
            .label
            .clone();
        for combo in 0..res.config.degraded.combo_count() {
            let net = res.config.degraded.spec(combo);
            let mut dup = Series::new(format!("{}@{} dup", label, net.token()));
            let mut lost = Series::new(format!("{}@{} lost", label, net.token()));
            for &n in &res.config.targets {
                let health = res
                    .cell_with_net(scheme.as_str(), n, net)
                    .expect("degraded campaign contains every weather cell")
                    .health
                    .as_ref()
                    .expect("degraded cells carry health aggregates");
                dup.push(n as f64, health.duplicate_initiations.summary().mean());
                lost.push(n as f64, health.lost_cascades.summary().mean());
            }
            out.push(dup);
            out.push(lost);
        }
    }
    out
}

/// Irregular-region comparison from a multi-region campaign: one mean
/// curve per `(scheme, region)` pair for `metric` over the spare
/// targets, on the campaign's first grid. Labels read
/// `"<scheme>@<region>"` (e.g. `"SR@annulus"`), so the figure shows at a
/// glance how each scheme degrades (or does not) as the region gets
/// harder.
///
/// # Panics
///
/// Panics when the campaign lacks a requested cell or `metric` is not a
/// [`wsn_simcore::Metrics::FIELD_NAMES`] entry.
pub fn campaign_region_series(res: &CampaignResult, metric: &str) -> Vec<Series> {
    let (cols, rows) = res.config.grids[0];
    let mut out = Vec::new();
    for scheme in &res.config.schemes {
        for &region in &res.config.regions {
            let label = res
                .cells
                .iter()
                .find(|c| c.scheme == *scheme)
                .expect("campaign contains every configured scheme")
                .label
                .clone();
            let mut series = Series::new(format!("{}@{}", label, region.label()));
            for &n in &res.config.targets {
                let cell = res
                    .cell_in_region(scheme.as_str(), region, cols, rows, n)
                    .expect("campaign contains every (scheme, region, grid, N) cell");
                let mean = cell
                    .metric(metric)
                    .expect("metric is a Metrics field")
                    .summary()
                    .mean();
                series.push(n as f64, mean);
            }
            out.push(series);
        }
    }
    out
}

/// Extension figure `figpmf`: the *distribution* of movement counts, not
/// just the mean — empirical hop frequencies over `trials` single
/// replacements on the paper's 4×5 grid with `N = 12`, against Theorem
/// 2's `P(i)`. Each trial is the campaign's own
/// [`CampaignMode::SingleReplacement`] deployment (one hole, one node in
/// every other cell, `N` uniform spares), addressed by its stream seed
/// under `master_seed`.
///
/// The hop counts come straight from SR's converged process, not from a
/// campaign's `moves` histogram: on 4×5 that histogram's bins are 5
/// moves wide.
pub fn fig_pmf(trials: u64, master_seed: u64) -> Vec<Series> {
    let (l, n, grid) = (L_4X5, 12usize, (4, 5));
    let mut counts = vec![0u64; l + 1];
    for t in 0..trials {
        let seed = trial_stream_seed(master_seed, RegionShape::Full, grid, n, t);
        let mut net = build_trial_network(
            CampaignMode::SingleReplacement,
            10.0,
            RegionShape::Full,
            grid,
            n,
            seed,
        );
        let report = Sr::new()
            .run(&mut net, seed, DriveMode::Classic)
            .expect("the 4x5 grid has a Hamilton cycle");
        assert!(report.fully_covered, "a spare exists, so SR converges");
        counts[(report.processes[0].hops as usize).min(l)] += 1;
    }
    let mut empirical = Series::new("simulated frequency");
    for (i, &c) in counts.iter().enumerate().skip(1) {
        empirical.push(i as f64, c as f64 / trials as f64);
    }
    let analytical = Series::from_points(
        "analytical P(i)",
        (1..=l)
            .map(|i| (i as f64, analysis::p_moves(l, n, i)))
            .collect(),
    );
    vec![empirical, analytical]
}

/// Extension figure `figsc`: the paper's future-work short-cut. Mean
/// total node movements and moving distance per scheme over the spare
/// targets of an `sr,sr-sc` campaign, returned as `(moves, distance)` —
/// the prediction being that SR-SC "reduce\[s\] the cost of SR greatly
/// in the cases when N < 55". Uses the campaign's first grid.
pub fn fig_shortcut(res: &CampaignResult) -> (Vec<Series>, Vec<Series>) {
    let (cols, rows) = res.config.grids[0];
    (
        campaign_series(res, cols, rows, "moves", false),
        campaign_series(res, cols, rows, "distance", false),
    )
}

/// Renders a figure as an ASCII plot, optionally writing `<id>.txt` and
/// `<id>.csv` under `out_dir`. Returns the plot text.
///
/// # Errors
///
/// Propagates filesystem errors when `out_dir` is given.
pub fn render(
    id: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    out_dir: Option<&Path>,
) -> io::Result<String> {
    let text = AsciiPlot::new(title, x_label, y_label).render(series);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{id}.txt")), &text)?;
        csv::save_series(&dir.join(format!("{id}.csv")), series)?;
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use wsn_coverage::SchemeId;

    /// Index of a scheme's mean curve in a whiskered figure: each
    /// scheme contributes `(mean, lo, hi)` in campaign scheme order.
    const AR: usize = 0;
    const SR: usize = 3;

    #[test]
    fn fig3_shapes_match_paper() {
        let (a, b) = fig3();
        // Figure 3(a): starts near (L+1)/2 = 10 at N = 1, falls toward 1.
        let pts = a[0].points();
        assert!((pts[0].1 - 10.0).abs() < 1e-9);
        assert!(pts.last().unwrap().1 < 1.2);
        // The paper's spot value at N = 12.
        let at12 = pts.iter().find(|p| p.0 == 12.0).unwrap().1;
        assert!((at12 - 2.0139).abs() < 2e-3);
        // Figure 3(b): monotone decreasing from 128 toward 1.
        let ptsb = b[0].points();
        assert!((ptsb[0].1 - 128.0).abs() < 1e-9);
        assert!(ptsb.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12));
    }

    #[test]
    fn fig5_is_fig3_scaled() {
        let (m, _) = fig3();
        let (d, _) = fig5();
        for (pm, pd) in m[0].points().iter().zip(d[0].points()) {
            assert!((pd.1 - 1.08 * 10.0 * pm.1).abs() < 1e-9);
        }
    }

    #[test]
    fn monte_carlo_figures_have_expected_relations() {
        let res = run_campaign(&CampaignConfig::quick()).unwrap();
        let f6a = fig6a(&res);
        let f6b = fig6b(&res);
        let f7 = fig7(&res);
        let f8 = fig8(&res);
        // Series order and labels.
        assert_eq!(f6a[AR].label(), "AR");
        assert_eq!(f6a[SR].label(), "SR");
        assert_eq!(f7[6].label(), "SR analytical");
        // SR initiates fewer processes than AR at every swept N.
        for (ar, sr) in f6a[AR].points().iter().zip(f6a[SR].points()) {
            assert!(sr.1 <= ar.1, "SR {} vs AR {} at N={}", sr.1, ar.1, sr.0);
        }
        // SR success rate is 100% everywhere; AR's never exceeds it.
        for (ar, sr) in f6b[AR].points().iter().zip(f6b[SR].points()) {
            assert_eq!(sr.1, 100.0);
            assert!(ar.1 <= 100.0);
        }
        // Moves and distance decrease with N for SR (more spares =>
        // shorter walks).
        let srm = f7[SR].points();
        assert!(srm.first().unwrap().1 >= srm.last().unwrap().1);
        // Distance ~ 1.05-1.08 r per move, over all of SR's moves. Per
        // target the ratio falls below the band where spares abound: at
        // N = 1000 a trial makes about two moves, each by the spare
        // closest to its target out of ~5 per cell.
        let r = res.config.comm_range / 5f64.sqrt();
        let total = |s: &Series| s.points().iter().map(|p| p.1).sum::<f64>();
        let per_hop = total(&f8[SR]) / total(&f7[SR]) / r;
        assert!((0.9..=1.2).contains(&per_hop), "per-hop {per_hop}");
    }

    #[test]
    fn analytical_overlay_tracks_experiment() {
        let res = run_campaign(&CampaignConfig {
            targets: vec![200, 600],
            seeds_per_cell: 6,
            ..CampaignConfig::quick()
        })
        .unwrap();
        let f7 = fig7(&res);
        let (sr, overlay) = (f7[SR].points(), f7[6].points());
        for (s, o) in sr.iter().zip(overlay) {
            let rel = (s.1 - o.1).abs() / o.1.max(1.0);
            assert!(
                rel < 0.45,
                "experimental {} vs analytical {} at N={}",
                s.1,
                o.1,
                s.0
            );
        }
    }

    #[test]
    fn pmf_extension_matches_theorem_2_distribution() {
        let series = fig_pmf(400, 1234);
        let empirical = &series[0];
        let analytical = &series[1];
        // Total variation distance between the empirical and analytical
        // PMFs must be small.
        let mut tv = 0.0;
        for (e, a) in empirical.points().iter().zip(analytical.points()) {
            assert_eq!(e.0, a.0);
            tv += (e.1 - a.1).abs();
        }
        tv /= 2.0;
        assert!(tv < 0.12, "total variation distance {tv}");
    }

    #[test]
    fn shortcut_extension_wins_on_moves_everywhere() {
        let res = run_campaign(&CampaignConfig {
            schemes: SchemeId::list(&["sr", "sr-sc"]),
            targets: vec![10, 200],
            seeds_per_cell: 2,
            ..CampaignConfig::quick()
        })
        .unwrap();
        let (moves, dist) = fig_shortcut(&res);
        for (sr, sc) in moves[0].points().iter().zip(moves[1].points()) {
            assert!(
                sc.1 < sr.1,
                "SR-SC must move less: {} vs {} at N={}",
                sc.1,
                sr.1,
                sr.0
            );
        }
        // The win is biggest at low N, as the paper predicts.
        let gain_low = moves[0].points()[0].1 / moves[1].points()[0].1.max(1.0);
        let gain_high = moves[0].points()[1].1 / moves[1].points()[1].1.max(1.0);
        assert!(gain_low > gain_high, "gain {gain_low} vs {gain_high}");
        assert_eq!(moves[1].label(), "SR-SC");
        assert_eq!(dist[0].label(), "SR");
    }

    #[test]
    fn campaign_figures_carry_ci_whiskers() {
        let cfg = CampaignConfig {
            name: "figtest".into(),
            grids: vec![(6, 6)],
            targets: vec![5, 20],
            seeds_per_cell: 4,
            ..CampaignConfig::paper()
        };
        let res = run_campaign(&cfg).unwrap();
        let f6a = fig6a(&res);
        // 2 schemes × (mean, lo, hi).
        assert_eq!(f6a.len(), 6);
        assert_eq!(f6a[0].label(), "AR");
        assert_eq!(f6a[1].label(), "AR lo95");
        assert_eq!(f6a[2].label(), "AR hi95");
        assert_eq!(f6a[3].label(), "SR");
        // Whiskers bracket the mean at every N.
        for s in [0, 3] {
            for ((m, lo), hi) in f6a[s]
                .points()
                .iter()
                .zip(f6a[s + 1].points())
                .zip(f6a[s + 2].points())
            {
                assert!(lo.1 <= m.1 && m.1 <= hi.1);
            }
        }
        // Figures 7/8 add the analytical overlay as the final series.
        let f7 = fig7(&res);
        assert_eq!(f7.len(), 7);
        assert_eq!(f7.last().unwrap().label(), "SR analytical");
        let f8 = fig8(&res);
        let r = cfg.comm_range / 5f64.sqrt();
        for (m, d) in f7
            .last()
            .unwrap()
            .points()
            .iter()
            .zip(f8.last().unwrap().points())
        {
            assert!((d.1 - 1.08 * r * m.1).abs() < 1e-9);
        }
        // Success rate: SR pinned at 100 with zero-width whiskers.
        let f6b = fig6b(&res);
        for p in f6b[3].points() {
            assert_eq!(p.1, 100.0);
        }
    }

    #[test]
    fn region_series_cover_every_scheme_shape_pair() {
        let cfg = CampaignConfig {
            seeds_per_cell: 2,
            ..CampaignConfig::masked_smoke()
        };
        let res = run_campaign(&cfg).unwrap();
        let series = campaign_region_series(&res, "moves");
        assert_eq!(series.len(), cfg.schemes.len() * cfg.regions.len());
        assert_eq!(series[0].label(), "AR@l-shape");
        assert_eq!(series[1].label(), "AR@annulus");
        assert!(series.iter().all(|s| s.points().len() == cfg.targets.len()));
        // SR success rate is 100% on every region shape.
        let success = campaign_region_series(&res, "success_rate_percent");
        for s in success.iter().filter(|s| s.label().starts_with("SR@")) {
            for p in s.points() {
                assert_eq!(p.1, 100.0, "{}", s.label());
            }
        }
    }

    #[test]
    fn avail_figures_cover_every_scheme() {
        use crate::steady::SteadyParams;
        let cfg = CampaignConfig {
            steady: SteadyParams {
                ticks: 12,
                fault_rate: 2.0,
                ..CampaignConfig::avail_smoke().steady
            },
            ..CampaignConfig::avail_smoke()
        };
        let res = run_campaign(&cfg).unwrap();
        // Availability/energy: mean + lo + hi per scheme.
        let avail = figavail_availability(&res);
        assert_eq!(avail.len(), cfg.schemes.len() * 3);
        assert_eq!(avail[0].label(), "AR");
        assert_eq!(avail[1].label(), "AR lo95");
        for s in 0..cfg.schemes.len() {
            for ((m, lo), hi) in avail[3 * s]
                .points()
                .iter()
                .zip(avail[3 * s + 1].points())
                .zip(avail[3 * s + 2].points())
            {
                assert!(lo.1 <= m.1 && m.1 <= hi.1);
                assert!((0.0..=1.0).contains(&m.1));
            }
        }
        let energy = figavail_energy(&res);
        assert_eq!(energy.len(), cfg.schemes.len() * 3);
        assert!(energy[0].points().iter().all(|p| p.1 > 0.0));
        // Hole lifetimes: p50 + p99 per scheme, p50 <= p99.
        let life = figavail_holelife(&res);
        assert_eq!(life.len(), cfg.schemes.len() * 2);
        for s in 0..cfg.schemes.len() {
            assert!(life[2 * s].label().ends_with(" p50"));
            for (p50, p99) in life[2 * s].points().iter().zip(life[2 * s + 1].points()) {
                assert!(p50.1 <= p99.1);
            }
        }
    }

    #[test]
    fn render_writes_files() {
        let dir = std::env::temp_dir().join("wsn_bench_render_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (a, _) = fig3();
        let text = render("fig3a", "Fig 3(a)", "N", "moves", &a, Some(&dir)).unwrap();
        assert!(text.contains("Fig 3(a)"));
        assert!(dir.join("fig3a.txt").exists());
        assert!(dir.join("fig3a.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
