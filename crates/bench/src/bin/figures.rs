//! Regenerates every evaluation figure of the paper.
//!
//! ```text
//! cargo run -p wsn-bench --bin figures --release               # all figures
//! cargo run -p wsn-bench --bin figures --release -- fig6       # one figure
//! cargo run -p wsn-bench --bin figures --release -- --quick    # reduced sweep
//! cargo run -p wsn-bench --bin figures --release -- --smoke    # CI smoke: tiny grid, seconds
//! cargo run -p wsn-bench --bin figures --release -- --campaign # Figures 6-8 with CI whiskers
//! cargo run -p wsn-bench --bin figures --release -- --campaign --masked # irregular-region axis
//! cargo run -p wsn-bench --bin figures --release -- --avail    # steady-state availability
//! cargo run -p wsn-bench --bin figures --release -- --degraded # latency x loss weather sweep
//! cargo run -p wsn-bench --bin figures --release -- --schemes sr,ar,vf,smart # scheme axis
//! ```
//!
//! `--schemes` takes a comma-separated list of registry ids (see
//! `wsn_baselines::builtins`) and overrides the campaign's scheme axis;
//! it implies `--campaign`. Unknown ids abort with the registered list.
//!
//! ASCII plots go to stdout; `<fig>.txt` and `<fig>.csv` land in
//! `results/` at the workspace root (or `$WSN_RESULTS_DIR`), and every
//! Monte-Carlo sweep additionally writes machine-readable
//! `sweep_<cols>x<rows>.json` so perf/behavior trajectories can be
//! diffed across revisions.
//!
//! `--campaign` swaps the single-grid sweep behind Figures 6–8 for the
//! campaign engine: 30 seeds per matrix cell, streaming statistics, and
//! 95% CI whisker curves on every experimental series, exported as
//! `campaign_<name>.json` + `.csv` (combine with `--quick`/`--smoke`
//! for the reduced matrices).

use std::path::PathBuf;
use std::process::ExitCode;

use wsn_baselines::builtins;
use wsn_bench::campaign::{
    run_campaign_resumable, CampaignCheckpoint, CampaignConfig, CampaignObserver, CampaignResult,
    CampaignRun,
};
use wsn_bench::cli::results_dir;
use wsn_bench::figures;
use wsn_bench::sweep::{run_sweep, sweep_to_json, SweepConfig};
use wsn_coverage::SchemeId;
use wsn_simcore::shutdown;
use wsn_stats::table::TextTable;

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

/// The CI smoke configuration: an 8×8 grid, two targets, one trial —
/// every sweep code path exercised in well under a minute.
fn smoke_config() -> SweepConfig {
    SweepConfig {
        cols: 8,
        rows: 8,
        targets: vec![10, 100],
        trials: 1,
        ..SweepConfig::default()
    }
}

fn main() -> ExitCode {
    // SIGINT/SIGTERM wind campaigns down at the next trial boundary and
    // flush a resumable checkpoint instead of dying mid-matrix.
    shutdown::install_signal_traps();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let schemes = match parse_schemes_flag(&mut args) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let args = args;
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = args.iter().any(|a| a == "--quick");
    // --masked and --schemes are campaign axes; passing either alone
    // implies --campaign.
    let masked = args.iter().any(|a| a == "--masked");
    let avail = args.iter().any(|a| a == "--avail");
    let degraded = args.iter().any(|a| a == "--degraded");
    let campaign = masked || schemes.is_some() || args.iter().any(|a| a == "--campaign");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |id: &str| wanted.is_empty() || wanted.iter().any(|w| id.starts_with(w));
    let known = [
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "figpmf",
        "figsc",
        "figmasked",
        "figavail",
        "figdeg",
    ];
    for w in &wanted {
        if !known.iter().any(|k| w.starts_with(k)) {
            eprintln!("unknown figure id '{w}'; known: {}", known.join(", "));
            return ExitCode::FAILURE;
        }
    }

    let dir = results_dir();
    let emit = |id: &str, title: &str, x: &str, y: &str, series: &[wsn_stats::Series]| {
        match figures::render(id, title, x, y, series, Some(&dir)) {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("failed to write {id}: {e}"),
        }
    };

    if want("fig3") || want("fig5") {
        let (a3, b3) = figures::fig3();
        if want("fig3") {
            emit(
                "fig3a",
                "Figure 3(a): # of moves, 4x5 grid (L=19), analytical",
                "# of spare nodes left in networks (N)",
                "# of moves",
                &a3,
            );
            emit(
                "fig3b",
                "Figure 3(b): # of moves, 16x16 grid (L=255), analytical",
                "# of spare nodes left in networks (N)",
                "# of moves",
                &b3,
            );
        }
        if want("fig5") {
            let (a5, b5) = figures::fig5();
            emit(
                "fig5a",
                "Figure 5(a): total moving distance, 4x5 grid, r=10, estimate",
                "# of spare nodes left in networks (N)",
                "total moving distance",
                &a5,
            );
            emit(
                "fig5b",
                "Figure 5(b): total moving distance, 16x16 grid, r=10, estimate",
                "# of spare nodes left in networks (N)",
                "total moving distance",
                &b5,
            );
        }
    }

    if campaign && masked && want("figmasked") {
        // The irregular-region axis: SR vs AR (and SR-SC in the smoke
        // matrix) across region shapes, mean curves per (scheme, region).
        let mut cfg = if smoke {
            CampaignConfig::masked_smoke()
        } else if quick {
            CampaignConfig::masked().with_seeds_per_cell(10)
        } else {
            CampaignConfig::masked()
        };
        if let Some(ids) = schemes.clone() {
            cfg.schemes = ids;
        }
        eprintln!(
            "running masked campaign '{}': {} cells x {} seeds ({} trials) ...",
            cfg.name,
            cfg.cell_count(),
            cfg.seeds_per_cell,
            cfg.trial_count()
        );
        let result = match run_campaign_graceful(&cfg, &dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("masked campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match result.save(&dir) {
            Ok((json_path, csv_path)) => eprintln!(
                "campaign artifacts: {} + {}",
                json_path.display(),
                csv_path.display()
            ),
            Err(e) => eprintln!("failed to write campaign artifacts: {e}"),
        }
        let (cols, rows) = cfg.grids[0];
        if want("figmasked_moves") {
            emit(
                "figmasked_moves",
                &format!("Irregular regions: # of node movements by shape ({cols}x{rows})"),
                "# of spare nodes left in networks (N)",
                "# of node moves",
                &figures::campaign_region_series(&result, "moves"),
            );
        }
        if want("figmasked_success") {
            emit(
                "figmasked_success",
                &format!("Irregular regions: success rate (%) by shape ({cols}x{rows})"),
                "# of spare nodes left in networks (N)",
                "percentage",
                &figures::campaign_region_series(&result, "success_rate_percent"),
            );
        }
        if want("figmasked_procs") {
            emit(
                "figmasked_procs",
                &format!("Irregular regions: # of processes initiated by shape ({cols}x{rows})"),
                "# of spare nodes left in networks (N)",
                "# of processes",
                &figures::campaign_region_series(&result, "processes_initiated"),
            );
        }
    } else if campaign && !masked && (want("fig6") || want("fig7") || want("fig8")) {
        let mut cfg = if smoke {
            CampaignConfig::smoke()
        } else if quick {
            CampaignConfig::quick()
        } else {
            CampaignConfig::paper()
        };
        if let Some(ids) = schemes.clone() {
            cfg.schemes = ids;
        }
        eprintln!(
            "running campaign '{}': {} cells x {} seeds ({} trials) ...",
            cfg.name,
            cfg.cell_count(),
            cfg.seeds_per_cell,
            cfg.trial_count()
        );
        let result = match run_campaign_graceful(&cfg, &dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match result.save(&dir) {
            Ok((json_path, csv_path)) => eprintln!(
                "campaign artifacts: {} + {}",
                json_path.display(),
                csv_path.display()
            ),
            Err(e) => eprintln!("failed to write campaign artifacts: {e}"),
        }
        let (cols, rows) = cfg.grids[0];
        let pct = (cfg.ci_level * 100.0).round();
        if want("fig6") {
            emit(
                "fig6a_campaign",
                &format!(
                    "Figure 6(a): # of processes initiated ({cols}x{rows}, {pct}% CI whiskers)"
                ),
                "# of spare nodes left in networks (N)",
                "# of processes",
                &figures::fig6a_campaign(&result),
            );
            emit(
                "fig6b_campaign",
                &format!("Figure 6(b): success rate (%) ({cols}x{rows}, {pct}% CI whiskers)"),
                "# of spare nodes left in networks (N)",
                "percentage",
                &figures::fig6b_campaign(&result),
            );
        }
        if want("fig7") {
            emit(
                "fig7_campaign",
                &format!(
                    "Figure 7: # of node movements ({cols}x{rows}, {pct}% CI whiskers + analytical)"
                ),
                "# of spare nodes left in networks (N)",
                "# of node moves",
                &figures::fig7_campaign(&result),
            );
        }
        if want("fig8") {
            emit(
                "fig8_campaign",
                &format!(
                    "Figure 8: total moving distance ({cols}x{rows}, {pct}% CI whiskers + analytical)"
                ),
                "# of spare nodes left in networks (N)",
                "total moving distance",
                &figures::fig8_campaign(&result),
            );
        }
    } else if want("fig6") || want("fig7") || want("fig8") {
        let cfg = if smoke {
            smoke_config()
        } else if quick {
            SweepConfig::quick()
        } else {
            SweepConfig::default()
        };
        eprintln!(
            "running Monte-Carlo sweep: {} targets x {} trials on {}x{} ...",
            cfg.targets.len(),
            cfg.trials,
            cfg.cols,
            cfg.rows
        );
        let results = run_sweep(&cfg);
        let json_name = format!("sweep_{}x{}.json", cfg.cols, cfg.rows);
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                dir.join(&json_name),
                sweep_to_json(&cfg, &results).to_file_string(),
            )
        }) {
            eprintln!("failed to write {json_name}: {e}");
        }

        // A summary table in the spirit of the paper's observations.
        let mut table = TextTable::new(vec![
            "N", "holes", "SR proc", "AR proc", "SR ok%", "AR ok%", "SR moves", "AR moves",
            "SR dist", "AR dist",
        ]);
        for &t in &cfg.targets {
            let rows: Vec<_> = results.iter().filter(|r| r.n_target == t).collect();
            let n = rows.len() as f64;
            let mean =
                |f: &dyn Fn(&&wsn_bench::TrialResult) -> f64| rows.iter().map(f).sum::<f64>() / n;
            table.add_numeric_row(
                t.to_string(),
                &[
                    mean(&|r| r.holes as f64),
                    mean(&|r| r.sr.processes_initiated as f64),
                    mean(&|r| r.ar.processes_initiated as f64),
                    mean(&|r| r.sr.success_rate_percent()),
                    mean(&|r| r.ar.success_rate_percent()),
                    mean(&|r| r.sr.moves as f64),
                    mean(&|r| r.ar.moves as f64),
                    mean(&|r| r.sr.distance),
                    mean(&|r| r.ar.distance),
                ],
                1,
            );
        }
        println!("{table}");
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("sweep_summary.txt"), table.to_string()))
        {
            eprintln!("failed to write sweep summary: {e}");
        }

        if want("fig6") {
            emit(
                "fig6a",
                "Figure 6(a): # of replacement processes initiated (16x16)",
                "# of spare nodes left in networks (N)",
                "# of processes",
                &figures::fig6a(&results),
            );
            emit(
                "fig6b",
                "Figure 6(b): success rate (%) (16x16)",
                "# of spare nodes left in networks (N)",
                "percentage",
                &figures::fig6b(&results),
            );
        }
        if want("fig7") {
            emit(
                "fig7",
                "Figure 7: # of node movements (16x16, experimental + analytical)",
                "# of spare nodes left in networks (N)",
                "# of node moves",
                &figures::fig7(&results),
            );
        }
        if want("fig8") {
            emit(
                "fig8",
                "Figure 8: total moving distance in meters (16x16, experimental + analytical)",
                "# of spare nodes left in networks (N)",
                "total moving distance",
                &figures::fig8(&results),
            );
        }
    }

    if avail && want("figavail") {
        // The open-system availability axis: all five schemes under
        // Poisson faults, Poisson arrivals and recurring jammer weather.
        let mut cfg = if smoke {
            CampaignConfig::avail_smoke()
        } else if quick {
            CampaignConfig::avail().with_seeds_per_cell(1)
        } else {
            CampaignConfig::avail()
        };
        if let Some(ids) = schemes.clone() {
            cfg.schemes = ids;
        }
        eprintln!(
            "running steady-state campaign '{}': {} cells x {} seeds x {} ticks ...",
            cfg.name,
            cfg.cell_count(),
            cfg.seeds_per_cell,
            cfg.steady.ticks
        );
        let result = match run_campaign_graceful(&cfg, &dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("steady-state campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match result.save(&dir) {
            Ok((json_path, csv_path)) => eprintln!(
                "campaign artifacts: {} + {}",
                json_path.display(),
                csv_path.display()
            ),
            Err(e) => eprintln!("failed to write campaign artifacts: {e}"),
        }
        let (cols, rows) = cfg.grids[0];
        let pct = (cfg.ci_level * 100.0).round();
        let sla = cfg.steady.coverage_sla * 100.0;
        emit(
            "figavail_availability",
            &format!(
                "Steady state: coverage availability at the {sla}% SLA ({cols}x{rows}, {pct}% CI whiskers)"
            ),
            "# of spare nodes in the initial deployment (N)",
            "availability (fraction of ticks)",
            &figures::figavail_availability(&result),
        );
        emit(
            "figavail_holelife",
            &format!("Steady state: hole-lifetime percentiles ({cols}x{rows})"),
            "# of spare nodes in the initial deployment (N)",
            "hole lifetime (ticks)",
            &figures::figavail_holelife(&result),
        );
        emit(
            "figavail_energy",
            &format!("Steady state: energy burn rate ({cols}x{rows}, {pct}% CI whiskers)"),
            "# of spare nodes in the initial deployment (N)",
            "joules per tick",
            &figures::figavail_energy(&result),
        );
    }

    if degraded && want("figdeg") {
        // The degraded-network axis: the event-capable schemes driven
        // through the latency x loss weather matrix.
        let mut cfg = if smoke {
            CampaignConfig::degraded_smoke()
        } else if quick {
            CampaignConfig::degraded().with_seeds_per_cell(3)
        } else {
            CampaignConfig::degraded()
        };
        if let Some(ids) = schemes.clone() {
            cfg.schemes = ids;
        }
        eprintln!(
            "running degraded campaign '{}': {} cells x {} seeds ({} trials) ...",
            cfg.name,
            cfg.cell_count(),
            cfg.seeds_per_cell,
            cfg.trial_count()
        );
        let result = match run_campaign_graceful(&cfg, &dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("degraded campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match result.save(&dir) {
            Ok((json_path, csv_path)) => eprintln!(
                "campaign artifacts: {} + {}",
                json_path.display(),
                csv_path.display()
            ),
            Err(e) => eprintln!("failed to write campaign artifacts: {e}"),
        }
        let (cols, rows) = cfg.grids[0];
        emit(
            "figdeg_moves",
            &format!("Degraded network: # of node movements by weather ({cols}x{rows})"),
            "# of spare nodes left in networks (N)",
            "# of node moves",
            &figures::figdeg_moves(&result),
        );
        emit(
            "figdeg_success",
            &format!("Degraded network: success rate (%) by weather ({cols}x{rows})"),
            "# of spare nodes left in networks (N)",
            "percentage",
            &figures::figdeg_success(&result),
        );
        emit(
            "figdeg_health",
            &format!("Degraded network: duplicate initiations and lost cascades ({cols}x{rows})"),
            "# of spare nodes left in networks (N)",
            "# of pathologies per run",
            &figures::figdeg_health(&result),
        );
    }

    // Extension figures (not in the paper; see EXPERIMENTS.md).
    if wanted.iter().any(|w| w.starts_with("figpmf")) {
        let trials = if smoke {
            100
        } else if quick {
            300
        } else {
            2000
        };
        eprintln!("simulating {trials} single replacements for the P(i) distribution ...");
        emit(
            "figpmf",
            "Extension: movement-count distribution vs Theorem 2's P(i) (4x5, N=12)",
            "movements i",
            "probability",
            &figures::fig_pmf(trials, 777_000),
        );
    }
    if wanted.iter().any(|w| w.starts_with("figsc")) {
        let cfg = if smoke {
            smoke_config()
        } else if quick {
            SweepConfig::quick()
        } else {
            SweepConfig::default()
        };
        eprintln!("running SR vs SR-SC shortcut sweep ...");
        let (moves, dist) = figures::fig_shortcut(&cfg);
        emit(
            "figsc_moves",
            "Extension: SR vs SR-SC shortcut, total node movements (16x16)",
            "# of spare nodes left in networks (N)",
            "# of node moves",
            &moves,
        );
        emit(
            "figsc_dist",
            "Extension: SR vs SR-SC shortcut, total moving distance (16x16)",
            "# of spare nodes left in networks (N)",
            "total moving distance",
            &dist,
        );
    }

    eprintln!("figures written to {}", dir.display());
    ExitCode::SUCCESS
}
