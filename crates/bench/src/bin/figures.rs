//! Regenerates every evaluation figure of the paper.
//!
//! ```text
//! cargo run -p wsn-bench --bin figures --release                 # Figures 3, 5, 6, 7, 8
//! cargo run -p wsn-bench --bin figures --release -- fig6         # one figure group
//! cargo run -p wsn-bench --bin figures --release -- fig6b        # one figure
//! cargo run -p wsn-bench --bin figures --release -- --quick      # 4 targets, 10 seeds per cell
//! cargo run -p wsn-bench --bin figures --release -- --smoke      # CI smoke: 8x8 grid, seconds
//! cargo run -p wsn-bench --bin figures --release -- figpmf figsc # extension figures
//! cargo run -p wsn-bench --bin figures --release -- --masked     # + irregular-region axis
//! cargo run -p wsn-bench --bin figures --release -- --avail      # + steady-state availability
//! cargo run -p wsn-bench --bin figures --release -- --degraded   # + latency x loss weather sweep
//! cargo run -p wsn-bench --bin figures --release -- --schemes sr,ar,vf,smart # scheme axis
//! ```
//!
//! Every Monte-Carlo figure runs on the campaign engine. Figures 6–8
//! plot one [`CampaignConfig::paper`] campaign (`--quick`:
//! [`CampaignConfig::quick`], `--smoke`: [`CampaignConfig::smoke`]) with
//! 95% CI whiskers on every experimental series; `figsc` runs the same
//! preset with SR and SR-SC; `figpmf` samples the campaign's
//! single-replacement trials on the paper's 4×5 grid.
//!
//! Arguments are figure ids — a group id such as `fig6` names all of its
//! figures, a figure id such as `fig6b` names one — plus the flags
//! above; anything else exits 1 with the known list. With no ids, the
//! paper's figures run, plus the group of each of `--masked`, `--avail`
//! and `--degraded` given; `figpmf` and `figsc` run only when named.
//! The `figmasked`, `figavail` and `figdeg` ids need their flag.
//! `--schemes` takes a comma-separated list of registry ids (see
//! `wsn_baselines::builtins`) and overrides the scheme axis of every
//! campaign except `figsc`'s; unknown ids abort with the registered
//! list.
//!
//! ASCII plots go to stdout; `<fig>.txt` and `<fig>.csv` land in
//! `results/` at the workspace root (or `$WSN_RESULTS_DIR`), next to
//! each campaign's `campaign_<name>.json` + `.csv`, so behavior
//! trajectories can be diffed across revisions.

use std::path::PathBuf;
use std::process::ExitCode;

use wsn_baselines::builtins;
use wsn_bench::campaign::{
    run_campaign_resumable, CampaignCheckpoint, CampaignConfig, CampaignObserver, CampaignResult,
    CampaignRun,
};
use wsn_bench::figures;
use wsn_coverage::SchemeId;
use wsn_simcore::shutdown;
use wsn_stats::Series;

fn out_dir() -> PathBuf {
    std::env::var_os("WSN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Winds the campaign down at the next trial boundary after
/// SIGINT/SIGTERM.
struct SignalObserver;

impl CampaignObserver for SignalObserver {
    fn cancel_requested(&self) -> bool {
        shutdown::requested()
    }
}

/// Runs a campaign under the process shutdown flag. A signal flushes a
/// resumable checkpoint to `<dir>/<name>.checkpoint.json` instead of
/// discarding the completed trials; a matching checkpoint left by an
/// earlier interrupted run is picked up automatically and removed once
/// the campaign completes.
fn run_campaign_graceful(cfg: &CampaignConfig, dir: &PathBuf) -> Result<CampaignResult, String> {
    let checkpoint_path = dir.join(format!("{}.checkpoint.json", cfg.name));
    let start = match std::fs::read_to_string(&checkpoint_path) {
        Ok(text) => match CampaignCheckpoint::from_json_str(&text) {
            Ok(cp) if cp.config.to_json().to_string() == cfg.to_json().to_string() => {
                eprintln!(
                    "resuming '{}' from {} ({} of {} trials done)",
                    cfg.name,
                    checkpoint_path.display(),
                    cp.trials_done(),
                    cfg.trial_count()
                );
                Some(cp)
            }
            Ok(_) => {
                eprintln!(
                    "ignoring {}: it snapshots a different campaign",
                    checkpoint_path.display()
                );
                None
            }
            Err(e) => {
                eprintln!("ignoring {}: {e}", checkpoint_path.display());
                None
            }
        },
        Err(_) => None,
    };
    match run_campaign_resumable(cfg, start, &SignalObserver).map_err(|e| e.to_string())? {
        CampaignRun::Complete(result) => {
            let _unused = std::fs::remove_file(&checkpoint_path);
            Ok(result)
        }
        CampaignRun::Interrupted(cp) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(&checkpoint_path, cp.to_json().to_file_string())
                .map_err(|e| e.to_string())?;
            Err(format!(
                "interrupted by signal after {} of {} trials; resumable checkpoint flushed to {} \
                 (rerun the same command to finish)",
                cp.trials_done(),
                cfg.trial_count(),
                checkpoint_path.display()
            ))
        }
    }
}

/// Parses `--schemes a,b,c` / `--schemes=a,b,c` against the built-in
/// registry, consuming the flag (and its value) from `args`. `Ok(None)`
/// when the flag is absent; `Err` with a CLI-ready message otherwise.
fn parse_schemes_flag(args: &mut Vec<String>) -> Result<Option<Vec<SchemeId>>, String> {
    let mut value: Option<String> = None;
    // Consume every occurrence, so a repeated flag errors instead of
    // leaking its value into the positional figure filter.
    loop {
        let next = if let Some(i) = args.iter().position(|a| a == "--schemes") {
            if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                return Err("--schemes needs a comma-separated id list".into());
            }
            let v = args.remove(i + 1);
            args.remove(i);
            v
        } else if let Some(i) = args.iter().position(|a| a.starts_with("--schemes=")) {
            args.remove(i)["--schemes=".len()..].to_owned()
        } else {
            break;
        };
        if value.is_some() {
            return Err("--schemes given more than once".into());
        }
        value = Some(next);
    }
    let Some(value) = value else { return Ok(None) };
    let registry = builtins();
    let registered = || {
        registry
            .ids()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut ids = Vec::new();
    for token in value.split(',').filter(|t| !t.is_empty()) {
        let id: SchemeId = token
            .parse()
            .map_err(|e| format!("{e}; registered ids: {}", registered()))?;
        if !registry.contains(id.as_str()) {
            return Err(format!(
                "unknown scheme id '{id}'; registered ids: {}",
                registered()
            ));
        }
        ids.push(id);
    }
    if ids.is_empty() {
        return Err(format!(
            "--schemes needs at least one id; registered ids: {}",
            registered()
        ));
    }
    Ok(Some(ids))
}

/// When a figure group runs without being named.
#[derive(Clone, Copy)]
enum Kind {
    /// A paper figure: runs when no id is given.
    Paper,
    /// An extension figure: runs only when named.
    Extension,
    /// Runs when its flag is given, and cannot run without it.
    Flagged(&'static str),
}

use Kind::{Extension, Flagged, Paper};

/// A figure group: the id that names all of its figures, when it runs,
/// and the ids of the figures it emits.
struct Group {
    id: &'static str,
    kind: Kind,
    figures: &'static [&'static str],
}

impl Group {
    const fn new(id: &'static str, kind: Kind, figures: &'static [&'static str]) -> Group {
        Group { id, kind, figures }
    }
}

const GROUPS: [Group; 10] = [
    Group::new("fig3", Paper, &["fig3a", "fig3b"]),
    Group::new("fig5", Paper, &["fig5a", "fig5b"]),
    Group::new("fig6", Paper, &["fig6a", "fig6b"]),
    Group::new("fig7", Paper, &["fig7"]),
    Group::new("fig8", Paper, &["fig8"]),
    Group::new("figpmf", Extension, &["figpmf"]),
    Group::new("figsc", Extension, &["figsc_moves", "figsc_dist"]),
    Group::new(
        "figmasked",
        Flagged("--masked"),
        &["figmasked_moves", "figmasked_success", "figmasked_procs"],
    ),
    Group::new(
        "figavail",
        Flagged("--avail"),
        &[
            "figavail_availability",
            "figavail_holelife",
            "figavail_energy",
        ],
    ),
    Group::new(
        "figdeg",
        Flagged("--degraded"),
        &["figdeg_moves", "figdeg_success", "figdeg_health"],
    ),
];

/// Every flag `figures` accepts.
const FLAGS: [&str; 6] = [
    "--smoke",
    "--quick",
    "--masked",
    "--avail",
    "--degraded",
    "--schemes",
];

/// Campaign size: `--smoke` wins over `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Paper,
    Quick,
    Smoke,
}

impl Size {
    fn pick<T>(self, paper: T, quick: T, smoke: T) -> T {
        match self {
            Size::Paper => paper,
            Size::Quick => quick,
            Size::Smoke => smoke,
        }
    }
}

/// One `figures` invocation, parsed.
#[derive(Debug)]
struct Options {
    size: Size,
    schemes: Option<Vec<SchemeId>>,
    /// The ids of the figures to emit, in [`GROUPS`] order.
    figures: Vec<&'static str>,
}

impl Options {
    fn wants(&self, figure: &str) -> bool {
        self.figures.contains(&figure)
    }

    /// Whether any figure of group `id` is selected, so its campaign
    /// must run.
    fn runs(&self, id: &str) -> bool {
        GROUPS
            .iter()
            .filter(|g| g.id == id)
            .flat_map(|g| g.figures)
            .any(|f| self.wants(f))
    }
}

/// The known ids, as the error messages list them.
fn known_ids() -> String {
    GROUPS
        .iter()
        .map(|g| {
            let mut text = g.id.to_owned();
            if g.figures != [g.id] {
                text += &format!(" ({})", g.figures.join(", "));
            }
            if let Flagged(flag) = g.kind {
                text += &format!(" [needs {flag}]");
            }
            text
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses the command line (without the program name). `Err` carries a
/// CLI-ready message: an unknown flag, an unknown figure id, or a
/// figure id whose flag is missing.
fn parse_args(mut args: Vec<String>) -> Result<Options, String> {
    let schemes = parse_schemes_flag(&mut args)?;
    let mut flags = Vec::new();
    let mut ids = Vec::new();
    for arg in &args {
        if let Some(&flag) = FLAGS.iter().find(|&&f| f == arg) {
            flags.push(flag);
        } else if arg.starts_with("--") {
            return Err(format!(
                "unknown flag '{arg}'; known flags: {}",
                FLAGS.join(", ")
            ));
        } else {
            ids.push(arg.as_str());
        }
    }
    let has = |flag: &str| flags.contains(&flag);
    let size = if has("--smoke") {
        Size::Smoke
    } else if has("--quick") {
        Size::Quick
    } else {
        Size::Paper
    };
    for id in &ids {
        let group = GROUPS
            .iter()
            .find(|g| g.id == *id || g.figures.contains(id))
            .ok_or_else(|| format!("unknown figure id '{id}'; known: {}", known_ids()))?;
        if let Flagged(flag) = group.kind {
            if !has(flag) {
                return Err(format!("figure id '{id}' needs {flag}"));
            }
        }
    }
    let figures = GROUPS
        .iter()
        .flat_map(|g| g.figures.iter().map(move |&f| (g, f)))
        .filter(|&(g, f)| {
            if ids.is_empty() {
                match g.kind {
                    Paper => true,
                    Extension => false,
                    Flagged(flag) => has(flag),
                }
            } else {
                ids.iter().any(|id| *id == g.id || *id == f)
            }
        })
        .map(|(_, f)| f)
        .collect();
    Ok(Options {
        size,
        schemes,
        figures,
    })
}

/// Runs a campaign (see [`run_campaign_graceful`]) and saves its
/// artifacts under `dir`, logging both to stderr.
fn run_and_save(cfg: &CampaignConfig, dir: &PathBuf) -> Result<CampaignResult, String> {
    eprintln!(
        "running campaign '{}': {} cells x {} seeds ({} trials) ...",
        cfg.name,
        cfg.cell_count(),
        cfg.seeds_per_cell,
        cfg.trial_count()
    );
    let result =
        run_campaign_graceful(cfg, dir).map_err(|e| format!("campaign '{}': {e}", cfg.name))?;
    match result.save(dir) {
        Ok((json_path, csv_path)) => eprintln!(
            "campaign artifacts: {} + {}",
            json_path.display(),
            csv_path.display()
        ),
        Err(e) => eprintln!("failed to write campaign artifacts: {e}"),
    }
    Ok(result)
}

fn main() -> ExitCode {
    // SIGINT/SIGTERM wind campaigns down at the next trial boundary and
    // flush a resumable checkpoint instead of dying mid-matrix.
    shutdown::install_signal_traps();
    match parse_args(std::env::args().skip(1).collect()).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let dir = out_dir();
    let size = opts.size;
    let with_schemes = |mut cfg: CampaignConfig| {
        if let Some(ids) = &opts.schemes {
            cfg.schemes = ids.clone();
        }
        cfg
    };
    let emit = |id: &str, title: &str, x: &str, y: &str, series: &[Series]| {
        assert!(
            GROUPS.iter().any(|g| g.figures.contains(&id)),
            "figure '{id}' is missing from GROUPS"
        );
        if !opts.wants(id) {
            return;
        }
        match figures::render(id, title, x, y, series, Some(&dir)) {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("failed to write {id}: {e}"),
        }
    };
    const SPARES_LEFT: &str = "# of spare nodes left in networks (N)";

    let (a3, b3) = figures::fig3();
    emit(
        "fig3a",
        "Figure 3(a): # of moves, 4x5 grid (L=19), analytical",
        SPARES_LEFT,
        "# of moves",
        &a3,
    );
    emit(
        "fig3b",
        "Figure 3(b): # of moves, 16x16 grid (L=255), analytical",
        SPARES_LEFT,
        "# of moves",
        &b3,
    );
    let (a5, b5) = figures::fig5();
    emit(
        "fig5a",
        "Figure 5(a): total moving distance, 4x5 grid, r=10, estimate",
        SPARES_LEFT,
        "total moving distance",
        &a5,
    );
    emit(
        "fig5b",
        "Figure 5(b): total moving distance, 16x16 grid, r=10, estimate",
        SPARES_LEFT,
        "total moving distance",
        &b5,
    );

    let paper_preset = size.pick(
        CampaignConfig::paper(),
        CampaignConfig::quick(),
        CampaignConfig::smoke(),
    );
    if opts.runs("fig6") || opts.runs("fig7") || opts.runs("fig8") {
        let cfg = with_schemes(paper_preset.clone());
        let result = run_and_save(&cfg, &dir)?;
        let (cols, rows) = cfg.grids[0];
        let pct = (cfg.ci_level * 100.0).round();
        emit(
            "fig6a",
            &format!("Figure 6(a): # of processes initiated ({cols}x{rows}, {pct}% CI whiskers)"),
            SPARES_LEFT,
            "# of processes",
            &figures::fig6a(&result),
        );
        emit(
            "fig6b",
            &format!("Figure 6(b): success rate (%) ({cols}x{rows}, {pct}% CI whiskers)"),
            SPARES_LEFT,
            "percentage",
            &figures::fig6b(&result),
        );
        emit(
            "fig7",
            &format!(
                "Figure 7: # of node movements ({cols}x{rows}, {pct}% CI whiskers + analytical)"
            ),
            SPARES_LEFT,
            "# of node moves",
            &figures::fig7(&result),
        );
        emit(
            "fig8",
            &format!(
                "Figure 8: total moving distance ({cols}x{rows}, {pct}% CI whiskers + analytical)"
            ),
            SPARES_LEFT,
            "total moving distance",
            &figures::fig8(&result),
        );
    }

    if opts.runs("figmasked") {
        // The irregular-region axis: SR vs AR (all five schemes in the
        // smoke matrix) across region shapes, mean curves per (scheme,
        // region).
        let cfg = with_schemes(size.pick(
            CampaignConfig::masked(),
            CampaignConfig::masked().with_seeds_per_cell(10),
            CampaignConfig::masked_smoke(),
        ));
        let result = run_and_save(&cfg, &dir)?;
        let (cols, rows) = cfg.grids[0];
        emit(
            "figmasked_moves",
            &format!("Irregular regions: # of node movements by shape ({cols}x{rows})"),
            SPARES_LEFT,
            "# of node moves",
            &figures::campaign_region_series(&result, "moves"),
        );
        emit(
            "figmasked_success",
            &format!("Irregular regions: success rate (%) by shape ({cols}x{rows})"),
            SPARES_LEFT,
            "percentage",
            &figures::campaign_region_series(&result, "success_rate_percent"),
        );
        emit(
            "figmasked_procs",
            &format!("Irregular regions: # of processes initiated by shape ({cols}x{rows})"),
            SPARES_LEFT,
            "# of processes",
            &figures::campaign_region_series(&result, "processes_initiated"),
        );
    }

    if opts.runs("figavail") {
        // The open-system availability axis: all five schemes under
        // Poisson faults, Poisson arrivals and recurring jammer weather.
        let cfg = with_schemes(size.pick(
            CampaignConfig::avail(),
            CampaignConfig::avail().with_seeds_per_cell(1),
            CampaignConfig::avail_smoke(),
        ));
        let result = run_and_save(&cfg, &dir)?;
        let (cols, rows) = cfg.grids[0];
        let pct = (cfg.ci_level * 100.0).round();
        let sla = cfg.steady.coverage_sla * 100.0;
        const SPARES_DEPLOYED: &str = "# of spare nodes in the initial deployment (N)";
        emit(
            "figavail_availability",
            &format!(
                "Steady state: coverage availability at the {sla}% SLA ({cols}x{rows}, {pct}% CI whiskers)"
            ),
            SPARES_DEPLOYED,
            "availability (fraction of ticks)",
            &figures::figavail_availability(&result),
        );
        emit(
            "figavail_holelife",
            &format!("Steady state: hole-lifetime percentiles ({cols}x{rows})"),
            SPARES_DEPLOYED,
            "hole lifetime (ticks)",
            &figures::figavail_holelife(&result),
        );
        emit(
            "figavail_energy",
            &format!("Steady state: energy burn rate ({cols}x{rows}, {pct}% CI whiskers)"),
            SPARES_DEPLOYED,
            "joules per tick",
            &figures::figavail_energy(&result),
        );
    }

    if opts.runs("figdeg") {
        // The degraded-network axis: the event-capable schemes driven
        // through the latency x loss weather matrix.
        let cfg = with_schemes(size.pick(
            CampaignConfig::degraded(),
            CampaignConfig::degraded().with_seeds_per_cell(3),
            CampaignConfig::degraded_smoke(),
        ));
        let result = run_and_save(&cfg, &dir)?;
        let (cols, rows) = cfg.grids[0];
        emit(
            "figdeg_moves",
            &format!("Degraded network: # of node movements by weather ({cols}x{rows})"),
            SPARES_LEFT,
            "# of node moves",
            &figures::figdeg_moves(&result),
        );
        emit(
            "figdeg_success",
            &format!("Degraded network: success rate (%) by weather ({cols}x{rows})"),
            SPARES_LEFT,
            "percentage",
            &figures::figdeg_success(&result),
        );
        emit(
            "figdeg_health",
            &format!("Degraded network: duplicate initiations and lost cascades ({cols}x{rows})"),
            SPARES_LEFT,
            "# of pathologies per run",
            &figures::figdeg_health(&result),
        );
    }

    // Extension figures (not in the paper).
    if opts.runs("figpmf") {
        let trials = size.pick(2000, 300, 100);
        eprintln!("simulating {trials} single replacements for the P(i) distribution ...");
        emit(
            "figpmf",
            "Extension: movement-count distribution vs Theorem 2's P(i) (4x5, N=12)",
            "movements i",
            "probability",
            &figures::fig_pmf(trials, 777_000),
        );
    }
    if opts.runs("figsc") {
        // The paper's preset with the short-cut beside SR, saved under
        // its own name so it never overwrites the Figure 6-8 artifact.
        let cfg = CampaignConfig {
            name: format!("{}_sc", paper_preset.name),
            schemes: SchemeId::list(&["sr", "sr-sc"]),
            ..paper_preset
        };
        let result = run_and_save(&cfg, &dir)?;
        let (cols, rows) = cfg.grids[0];
        let (moves, dist) = figures::fig_shortcut(&result);
        emit(
            "figsc_moves",
            &format!("Extension: SR vs SR-SC shortcut, total node movements ({cols}x{rows})"),
            SPARES_LEFT,
            "# of node moves",
            &moves,
        );
        emit(
            "figsc_dist",
            &format!("Extension: SR vs SR-SC shortcut, total moving distance ({cols}x{rows})"),
            SPARES_LEFT,
            "total moving distance",
            &dist,
        );
    }

    eprintln!("figures written to {}", dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()).collect())
    }

    fn figures_of(args: &[&str]) -> Vec<&'static str> {
        parse(args).unwrap().figures
    }

    #[test]
    fn unknown_flags_exit_with_the_flag_list() {
        for args in [
            &["--smok", "--bogus", "fig3"][..],
            &["--campaign"],
            &["fig6", "--quick=1"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with("unknown flag '--"), "{err}");
            for flag in FLAGS {
                assert!(err.contains(flag), "{err} lacks {flag}");
            }
        }
    }

    #[test]
    fn every_accepted_id_emits_exactly_the_figures_it_names() {
        for group in &GROUPS {
            let flag = match group.kind {
                Flagged(flag) => vec![flag],
                Paper | Extension => vec![],
            };
            let with_flag = |id: &'static str| [flag.as_slice(), &[id]].concat();
            assert_eq!(figures_of(&with_flag(group.id)), group.figures);
            for &figure in group.figures {
                assert_eq!(figures_of(&with_flag(figure)), [figure]);
                assert!(parse(&with_flag(figure)).unwrap().runs(group.id));
            }
        }
        // The ids that used to pass validation and emit nothing.
        assert_eq!(figures_of(&["--smoke", "fig6a"]), ["fig6a"]);
        assert_eq!(figures_of(&["fig3a"]), ["fig3a"]);
        assert_eq!(figures_of(&["fig5b"]), ["fig5b"]);
        assert_eq!(
            figures_of(&["--masked", "--smoke", "figmasked_moves"]),
            ["figmasked_moves"]
        );
        // Several ids select their union, in figure order.
        assert_eq!(figures_of(&["fig8", "fig6b", "fig8"]), ["fig6b", "fig8"]);
        let opts = parse(&["fig7"]).unwrap();
        assert!(opts.runs("fig7") && !opts.runs("fig6") && !opts.runs("fig8"));
    }

    #[test]
    fn unknown_figure_ids_are_rejected() {
        for id in ["fig9", "fig3x", "fig", "figsc_", "-x"] {
            let err = parse(&[id]).unwrap_err();
            assert!(err.starts_with("unknown figure id"), "{err}");
            assert!(err.contains("figmasked_moves"), "{err}");
        }
    }

    #[test]
    fn flagged_ids_name_their_missing_flag() {
        for (id, flag) in [
            ("figmasked", "--masked"),
            ("figmasked_moves", "--masked"),
            ("figavail", "--avail"),
            ("figdeg_health", "--degraded"),
        ] {
            assert_eq!(
                parse(&["--smoke", id]).unwrap_err(),
                format!("figure id '{id}' needs {flag}")
            );
        }
        assert!(parse(&["--avail", "figmasked"]).is_err());
    }

    #[test]
    fn no_ids_select_the_paper_figures_plus_each_flagged_group() {
        let paper = [
            "fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7", "fig8",
        ];
        assert_eq!(figures_of(&[]), paper);
        assert_eq!(figures_of(&["--smoke", "--quick"]), paper);
        assert_eq!(
            figures_of(&["--avail"]),
            [
                &paper[..],
                &[
                    "figavail_availability",
                    "figavail_holelife",
                    "figavail_energy"
                ]
            ]
            .concat()
        );
        let all = figures_of(&["--masked", "--degraded"]);
        assert!(all.contains(&"figmasked_procs") && all.contains(&"figdeg_moves"));
        assert!(!all.contains(&"figavail_energy"));
        // The extension figures run only when named.
        assert!(!all.contains(&"figpmf") && !all.contains(&"figsc_moves"));
    }

    #[test]
    fn size_and_schemes_flags_parse() {
        assert_eq!(parse(&[]).unwrap().size, Size::Paper);
        assert_eq!(parse(&["--quick"]).unwrap().size, Size::Quick);
        assert_eq!(parse(&["--quick", "--smoke"]).unwrap().size, Size::Smoke);
        let opts = parse(&["--schemes", "sr,ar", "fig6"]).unwrap();
        assert_eq!(opts.schemes, Some(SchemeId::list(&["sr", "ar"])));
        assert_eq!(opts.figures, ["fig6a", "fig6b"]);
        assert_eq!(
            parse(&["--schemes=vf"]).unwrap().schemes,
            Some(SchemeId::list(&["vf"]))
        );
        assert!(parse(&["--schemes", "sr,bogus"])
            .unwrap_err()
            .contains("registered ids"));
        assert!(parse(&["--schemes"]).is_err());
    }
}
