//! The traced run of the campaign workloads.
//!
//! It re-executes every trial of the checked jobs from its campaign
//! coordinate (`ReplaySpec::for_campaign_trial` gives the engine's own
//! coordinate decoding and stream seed), calling each layer's public
//! entry point itself so a span can sit around each call:
//!
//! | span | call |
//! |---|---|
//! | `grid.deploy` | `GridSystem::for_comm_range`, `RegionShape::build_mask`, `wsn_grid::deploy::*` |
//! | `grid.network_build` | `GridNetwork::with_mask` + `stats` |
//! | `hamilton.topology_build` | `CycleTopology::build_masked` (SR) |
//! | `coverage.sr_init` | `SrProtocol::new` |
//! | `coverage.round` | one `RoundProtocol::execute_round` of SR |
//! | `coverage.finish` | `SrProtocol::fail_remaining` |
//! | `scheme.<id>.run` | `ReplacementScheme::run`, classic drive (AR, SR-SC, …) |
//! | `event.<id>.run` | `ReplacementScheme::run`, `DriveMode::EventDriven` |
//! | `stats.fold` | `StreamingStat::push` of one trial into its cell |
//! | `campaign.artifact_serialize` | `CampaignResult::to_json().to_file_string()` |
//!
//! The traced outcomes are folded exactly as the engine folds them and
//! the folded statistics must render byte-identical to the untraced
//! artifact's cells — which also proves the traced trials ran the same
//! deployments.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsn_baselines::builtins;
use wsn_bench::campaign::{CampaignConfig, CampaignMode, CellStats};
use wsn_bench::replay::ReplaySpec;
use wsn_coverage::scheme::{DriveMode, SchemeRegistry};
use wsn_coverage::{SrConfig, SrProtocol};
use wsn_geometry::Point2;
use wsn_grid::{deploy, GridNetwork, GridSystem, NetworkStats, RegionMask};
use wsn_hamilton::CycleTopology;
use wsn_simcore::{
    Metrics, NetModelSpec, ProtocolHealth, Round, RoundOutcome, RoundProtocol, RoundRunner, SimRng,
};
use wsn_stats::{Histogram, StreamingStat};

use crate::engine::JobOutput;
use crate::trace::Tracer;
use crate::{Metric, Report};

/// Share of a trial's traced wall time that may fall outside every
/// layer span (the trial span's own self time).
const RECONCILE_FRACTION: f64 = 0.05;

/// Absolute floor of the reconciliation tolerance, ns: a few span
/// boundaries cost this much on trials of a few microseconds.
const RECONCILE_FLOOR_NS: f64 = 10_000.0;

/// Re-executions of a trial whose spans miss the reconciliation (the
/// thread was descheduled between two spans); its spans are replaced.
const RECONCILE_RETRIES: usize = 2;

/// One trial to re-execute.
struct Task {
    job: usize,
    config: usize,
    cell: usize,
    spec: ReplaySpec,
}

/// What one traced trial observed.
#[derive(Debug, Clone)]
struct Outcome {
    holes: usize,
    spares: usize,
    cells: usize,
    covered: bool,
    metrics: Metrics,
    health: Option<ProtocolHealth>,
    /// `Some(progress rounds)` for classic SR trials (the coverage layer).
    sr_progress: Option<u64>,
    /// The `scheme.*`/`event.*` span of other trials, with its duration.
    run: Option<(&'static str, u64)>,
    wall_ns: u64,
    root_self_ns: u64,
    retries: usize,
}

impl Outcome {
    /// Whether the layer spans cover the trial span within tolerance.
    fn reconciles(&self) -> bool {
        let tolerance = (RECONCILE_FRACTION * self.wall_ns as f64).max(RECONCILE_FLOOR_NS);
        self.root_self_ns as f64 <= tolerance
    }
}

/// Deployment positions of a matrix trial — the campaign's generator,
/// rebuilt from the public `deploy` API.
fn positions(
    mode: CampaignMode,
    sys: &GridSystem,
    mask: &RegionMask,
    n_target: usize,
    seed: u64,
) -> Vec<Point2> {
    let mut rng = SimRng::seed_from_u64(seed);
    match mode {
        CampaignMode::FullRecovery | CampaignMode::SteadyState | CampaignMode::Degraded => {
            deploy::uniform_masked(sys, mask, n_target + mask.enabled_count(), &mut rng)
        }
        CampaignMode::SingleReplacement => {
            let enabled: Vec<_> = mask.iter_enabled().collect();
            let hole = enabled[rng.range_usize(enabled.len())];
            let mut pos = deploy::with_holes_masked(sys, mask, &[hole], 1, &mut rng);
            let occupied: Vec<_> = enabled.into_iter().filter(|c| *c != hole).collect();
            for _ in 0..n_target {
                let cell = occupied[rng.range_usize(occupied.len())];
                let rect = sys.cell_rect(cell).expect("occupied cells are in the grid");
                pos.push(wsn_geometry::sample::point_in_rect(
                    &rect,
                    rng.uniform_f64(),
                    rng.uniform_f64(),
                ));
            }
            pos
        }
    }
}

/// Builds a trial's network from its spec (deploy, then network build)
/// and reads its initial occupancy.
fn build(
    tr: &mut Tracer,
    mode: CampaignMode,
    comm_range: f64,
    spec: &ReplaySpec,
) -> (GridNetwork, NetworkStats) {
    let (cols, rows) = spec.grid;
    let (sys, mask, pos) = tr.span("grid.deploy", || {
        let sys = GridSystem::for_comm_range(cols, rows, comm_range).expect("validated grid");
        let mask = spec.region.build_mask(cols, rows);
        let pos = positions(mode, &sys, &mask, spec.n_target, spec.stream_seed());
        (sys, mask, pos)
    });
    tr.span("grid.network_build", || {
        let net =
            GridNetwork::with_mask(sys, mask, &pos).expect("generated positions respect the mask");
        let stats = net.stats();
        (net, stats)
    })
}

/// The span name of a scheme-layer (`event == false`) or event-layer
/// run of scheme `id`.
fn run_span(id: &str, event: bool) -> &'static str {
    match (id, event) {
        ("ar", false) => "scheme.ar.run",
        ("sr", false) => "scheme.sr.run",
        ("sr-sc", false) => "scheme.sr-sc.run",
        ("ar", true) => "event.ar.run",
        ("sr", true) => "event.sr.run",
        ("sr-sc", true) => "event.sr-sc.run",
        (_, false) => "scheme.other.run",
        (_, true) => "event.other.run",
    }
}

/// SR's rounds with a span around each `execute_round`.
struct TimedRounds<'a> {
    protocol: &'a mut SrProtocol,
    tracer: &'a mut Tracer,
    progress: u64,
}

impl RoundProtocol for TimedRounds<'_> {
    fn execute_round(&mut self, round: Round) -> RoundOutcome {
        let id = self.tracer.enter("coverage.round");
        let outcome = self.protocol.execute_round(round);
        self.tracer.exit(id);
        self.progress += u64::from(outcome == RoundOutcome::Progress);
        outcome
    }
}

/// Executes one trial under a `trial` span.
fn traced_trial(
    tr: &mut Tracer,
    cfg: &CampaignConfig,
    registry: &SchemeRegistry,
    spec: &ReplaySpec,
) -> Outcome {
    let seed = spec.stream_seed();
    let root = tr.enter("trial");
    let (mut net, stats) = build(tr, cfg.mode, cfg.comm_range, spec);
    let cells = net.system().cell_count();
    let (covered, metrics, health, sr_progress, run) = match spec.drive {
        DriveMode::Classic if spec.scheme == "sr" => {
            // `Sr::run`'s classic path, one layer call at a time.
            let topo = tr.span("hamilton.topology_build", || {
                CycleTopology::build_masked(net.mask()).expect("validated SR region")
            });
            let (runner, mut protocol) = tr.span("coverage.sr_init", || {
                let config = SrConfig::default().with_seed(seed);
                let runner =
                    RoundRunner::with_quiescence(config.max_rounds, config.quiescent_rounds)
                        .expect("default round caps are valid");
                (runner, SrProtocol::new(net, topo, config))
            });
            let mut rounds = TimedRounds {
                protocol: &mut protocol,
                tracer: tr,
                progress: 0,
            };
            let run = runner.run(&mut rounds);
            let progress = rounds.progress;
            // Dropping the protocol (and its network) is part of the run.
            let (covered, metrics) = tr.span("coverage.finish", move || {
                protocol.fail_remaining(run.rounds);
                (protocol.network().vacant_count() == 0, *protocol.metrics())
            });
            (covered, metrics, None, Some(progress), None)
        }
        drive => {
            let event = matches!(drive, DriveMode::EventDriven { .. });
            let scheme = registry.get(&spec.scheme).expect("validated scheme id");
            let span = run_span(&spec.scheme, event);
            let id = tr.enter(span);
            let report = scheme
                .run(&mut net, seed, drive)
                .expect("validated scheme supports the cell");
            drop(net);
            tr.exit(id);
            (
                report.fully_covered,
                report.metrics,
                event.then_some(report.health),
                None,
                Some((span, tr.spans()[id].dur_ns())),
            )
        }
    };
    tr.exit(root);
    let wall_ns = tr.spans()[root].dur_ns();
    Outcome {
        holes: stats.vacant,
        spares: stats.spares,
        cells,
        covered,
        metrics,
        health,
        sr_progress,
        run,
        wall_ns,
        root_self_ns: tr.self_time_ns(root),
        retries: 0,
    }
}

/// [`traced_trial`], re-executed (spans replaced) while it fails to
/// reconcile, up to [`RECONCILE_RETRIES`] times. A re-execution must
/// reproduce the first one's outcome exactly.
fn reconciled_trial(
    tr: &mut Tracer,
    cfg: &CampaignConfig,
    registry: &SchemeRegistry,
    spec: &ReplaySpec,
) -> (Outcome, bool) {
    let mark = tr.spans().len();
    let mut outcome = traced_trial(tr, cfg, registry, spec);
    let mut same = true;
    while !outcome.reconciles() && outcome.retries < RECONCILE_RETRIES {
        tr.truncate(mark);
        let again = traced_trial(tr, cfg, registry, spec);
        same &= (again.metrics, again.health, again.covered)
            == (outcome.metrics, outcome.health, outcome.covered);
        outcome = Outcome {
            retries: outcome.retries + 1,
            ..again
        };
    }
    (outcome, same)
}

/// A cell aggregate folded the way the campaign engine folds one.
struct CellAcc {
    trials: u64,
    covered: u64,
    holes: StreamingStat,
    spares: StreamingStat,
    metrics: Vec<StreamingStat>,
    health: Option<Vec<StreamingStat>>,
}

impl CellAcc {
    fn new(cfg: &CampaignConfig, cell: &CellStats) -> CellAcc {
        let cells = cell.region.build_mask(cell.cols, cell.rows).enabled_count();
        let side = cfg.comm_range / 5f64.sqrt();
        let metrics = Metrics::FIELD_NAMES
            .iter()
            .map(|&name| match name {
                "moves" => StreamingStat::with_histogram(
                    Histogram::new(0.0, (8 * cells) as f64, 32).expect("positive range"),
                ),
                "distance" => StreamingStat::with_histogram(
                    Histogram::new(0.0, (8 * cells) as f64 * 2.0 * side, 32)
                        .expect("positive range"),
                ),
                _ => StreamingStat::new(),
            })
            .collect();
        CellAcc {
            trials: 0,
            covered: 0,
            holes: StreamingStat::new(),
            spares: StreamingStat::new(),
            metrics,
            health: (cfg.mode == CampaignMode::Degraded)
                .then(|| (0..6).map(|_| StreamingStat::new()).collect()),
        }
    }

    fn push(&mut self, o: &Outcome) {
        self.trials += 1;
        self.covered += u64::from(o.covered);
        self.holes.push(o.holes as f64);
        self.spares.push(o.spares as f64);
        for (stat, value) in self.metrics.iter_mut().zip(o.metrics.field_values()) {
            stat.push(value);
        }
        if let (Some(stats), Some(h)) = (self.health.as_mut(), o.health.as_ref()) {
            let values = [
                h.messages_sent,
                h.messages_dropped,
                h.duplicate_initiations,
                h.lost_cascades,
                h.stalled_repairs,
                h.superseded_repairs,
            ];
            for (stat, v) in stats.iter_mut().zip(values) {
                stat.push(v as f64);
            }
        }
    }

    /// The first field that renders differently from the artifact's
    /// cell, if any.
    fn mismatch(&self, cell: &CellStats, ci: f64) -> Option<String> {
        let render = |s: &StreamingStat| s.to_json(ci).to_string();
        if (self.trials, self.covered) != (cell.trials, cell.covered_trials) {
            return Some("trial or covered count".into());
        }
        if render(&self.holes) != render(&cell.holes)
            || render(&self.spares) != render(&cell.spares)
        {
            return Some("holes/spares (deployment differs)".into());
        }
        for (name, stat) in Metrics::FIELD_NAMES.iter().zip(&self.metrics) {
            if cell.metric(name).map(render) != Some(render(stat)) {
                return Some(format!("metric {name}"));
            }
        }
        if let (Some(mine), Some(theirs)) = (&self.health, &cell.health) {
            let theirs = [
                &theirs.messages_sent,
                &theirs.messages_dropped,
                &theirs.duplicate_initiations,
                &theirs.lost_cascades,
                &theirs.stalled_repairs,
                &theirs.superseded_repairs,
            ];
            if mine.iter().zip(theirs).any(|(a, b)| render(a) != render(b)) {
                return Some("health ledger".into());
            }
        }
        None
    }
}

/// What the untraced run measured on the same jobs.
pub struct Untraced<'a> {
    /// The checked jobs' results and artifacts.
    pub jobs: &'a [JobOutput],
    /// The untraced mean per-trial service time, ms.
    pub trial_mean_ms: f64,
}

/// Runs the traced pass over `untraced.jobs` on `workers` threads and
/// returns the per-layer metrics plus the merged spans.
pub fn traced_run(
    untraced: &Untraced<'_>,
    workers: usize,
    report: &mut Report,
) -> (Vec<Metric>, Tracer) {
    let registry = builtins();
    let mut tasks = Vec::new();
    for (j, job) in untraced.jobs.iter().enumerate() {
        for (c, cfg) in job.configs.iter().enumerate() {
            for cell in 0..cfg.cell_count() {
                for trial in 0..cfg.seeds_per_cell {
                    let spec = ReplaySpec::for_campaign_trial(cfg, cell, trial)
                        .expect("cell index is in the matrix");
                    tasks.push(Task {
                        job: j,
                        config: c,
                        cell,
                        spec,
                    });
                }
            }
        }
    }
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, (Outcome, bool))>> = Mutex::new(Vec::with_capacity(tasks.len()));
    let tracers: Mutex<Vec<Tracer>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut tr = Tracer::new(origin);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    tr.set_trial(i as u64);
                    let cfg = &untraced.jobs[task.job].configs[task.config];
                    mine.push((i, reconciled_trial(&mut tr, cfg, &registry, &task.spec)));
                }
                done.lock().expect("outcome lock").extend(mine);
                tracers.lock().expect("tracer lock").push(tr);
            });
        }
    });
    let mut finished = done.into_inner().expect("outcome lock");
    finished.sort_by_key(|(i, _)| *i);
    let mut outcomes = Vec::with_capacity(finished.len());
    for (i, (outcome, same)) in finished {
        report.check(same, || {
            format!("trial {i}: a traced re-execution changed its outcome")
        });
        outcomes.push((i, outcome));
    }
    let mut main = Tracer::new(origin);
    // Fold in task order, which is each cell's trial order.
    let mut accs: Vec<Vec<Vec<CellAcc>>> = untraced
        .jobs
        .iter()
        .map(|job| {
            job.configs
                .iter()
                .zip(&job.results)
                .map(|(cfg, result)| {
                    result
                        .cells
                        .iter()
                        .map(|cell| CellAcc::new(cfg, cell))
                        .collect()
                })
                .collect()
        })
        .collect();
    for (i, outcome) in &outcomes {
        let task = &tasks[*i];
        main.set_trial(*i as u64);
        main.span("stats.fold", || {
            accs[task.job][task.config][task.cell].push(outcome)
        });
    }
    let mut artifact_bytes = Vec::new();
    for job in untraced.jobs {
        for result in &job.results {
            let text = main.span("campaign.artifact_serialize", || {
                result.to_json().to_file_string()
            });
            artifact_bytes.push(text.len() as f64);
        }
    }
    let ideal = ideal_references(untraced, &tasks, &outcomes, &mut main, &registry, report);
    for (j, job) in untraced.jobs.iter().enumerate() {
        for (c, result) in job.results.iter().enumerate() {
            for (acc, cell) in accs[j][c].iter().zip(&result.cells) {
                let bad = acc.mismatch(cell, result.config.ci_level);
                report.check(bad.is_none(), || {
                    format!(
                        "traced fold of {} {}x{} N={} differs from the artifact: {}",
                        cell.scheme,
                        cell.cols,
                        cell.rows,
                        cell.n_target,
                        bad.clone().unwrap_or_default()
                    )
                });
            }
        }
    }
    for tr in tracers.into_inner().expect("tracer lock") {
        main.absorb(tr);
    }
    let untraced_wall: Duration = untraced.jobs.iter().map(|j| j.wall).sum();
    let metrics = layer_metrics(
        &LayerInputs {
            tracer: &main,
            outcomes: &outcomes,
            artifact_bytes: &artifact_bytes,
            untraced_wall,
            untraced_trial_mean_ms: untraced.trial_mean_ms,
            workers,
            ideal,
        },
        report,
    );
    (metrics, main)
}

/// Event-engine cost under `Ideal` relative to the classic drive, per
/// scheme: (event ns, classic ns).
type IdealCost = Vec<(&'static str, u64, u64)>;

/// Re-runs every `Ideal` event trial through the classic drive on an
/// identical deployment: the classic report must match the event one
/// (the conformance contract) and the two run spans give the event
/// engine's overhead.
fn ideal_references(
    untraced: &Untraced<'_>,
    tasks: &[Task],
    outcomes: &[(usize, Outcome)],
    tr: &mut Tracer,
    registry: &SchemeRegistry,
    report: &mut Report,
) -> IdealCost {
    let mut cost: IdealCost = Vec::new();
    for (i, outcome) in outcomes {
        let task = &tasks[*i];
        if task.spec.drive
            != (DriveMode::EventDriven {
                net: NetModelSpec::Ideal,
            })
        {
            continue;
        }
        let cfg = &untraced.jobs[task.job].configs[task.config];
        let event_span = run_span(&task.spec.scheme, true);
        let classic_span = match task.spec.scheme.as_str() {
            "ar" => "event.ar.classic_ref",
            "sr" => "event.sr.classic_ref",
            "sr-sc" => "event.sr-sc.classic_ref",
            _ => "event.other.classic_ref",
        };
        tr.set_trial(*i as u64);
        let root = tr.enter("ideal_ref");
        let (mut net, _) = build(tr, cfg.mode, cfg.comm_range, &task.spec);
        let scheme = registry
            .get(&task.spec.scheme)
            .expect("validated scheme id");
        let id = tr.enter(classic_span);
        let classic = scheme
            .run(&mut net, task.spec.stream_seed(), DriveMode::Classic)
            .expect("validated scheme supports the cell");
        tr.exit(id);
        tr.exit(root);
        report.check(classic.metrics == outcome.metrics, || {
            format!(
                "{} N={} trial {}: event-Ideal metrics differ from classic",
                task.spec.scheme, task.spec.n_target, task.spec.trial
            )
        });
        let classic_ns = tr.spans()[id].dur_ns();
        let event_ns = outcome.run.map_or(0, |(_, ns)| ns);
        match cost.iter_mut().find(|(n, _, _)| *n == event_span) {
            Some(entry) => {
                entry.1 += event_ns;
                entry.2 += classic_ns;
            }
            None => cost.push((event_span, event_ns, classic_ns)),
        }
    }
    cost
}

struct LayerInputs<'a> {
    tracer: &'a Tracer,
    outcomes: &'a [(usize, Outcome)],
    artifact_bytes: &'a [f64],
    untraced_wall: Duration,
    untraced_trial_mean_ms: f64,
    workers: usize,
    ideal: IdealCost,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the campaign layers, plus the traced-run
/// integrity checks (self-time reconciliation per trial).
fn layer_metrics(inp: &LayerInputs<'_>, report: &mut Report) -> Vec<Metric> {
    let tr = inp.tracer;
    let sum = |name: &str| tr.durations_ns(name).iter().sum::<f64>();
    let mean = |name: &str| {
        let d = tr.durations_ns(name);
        ratio(d.iter().sum(), d.len() as f64)
    };
    let trials = inp.outcomes.len() as f64;
    let cells: f64 = inp.outcomes.iter().map(|(_, o)| o.cells as f64).sum();
    let sr: Vec<&Outcome> = inp
        .outcomes
        .iter()
        .map(|(_, o)| o)
        .filter(|o| o.sr_progress.is_some())
        .collect();
    let sr_total = |f: fn(&Metrics) -> u64| sr.iter().map(|o| f(&o.metrics)).sum::<u64>();
    let rounds = tr.durations_ns("coverage.round");
    let round_cells: f64 = sr
        .iter()
        .map(|o| o.metrics.rounds as f64 * o.cells as f64)
        .sum();
    let progress: u64 = sr.iter().filter_map(|o| o.sr_progress).sum();
    let scheme_per_round = |span: &str| {
        let (ns, rounds) = inp
            .outcomes
            .iter()
            .filter_map(|(_, o)| {
                o.run
                    .filter(|(s, _)| *s == span)
                    .map(|(_, ns)| (ns, o.metrics.rounds))
            })
            .fold((0u64, 0u64), |(a, b), (ns, r)| (a + ns, b + r));
        ratio(ns as f64, rounds as f64)
    };
    let events: Vec<&ProtocolHealth> = inp
        .outcomes
        .iter()
        .filter_map(|(_, o)| o.health.as_ref())
        .collect();
    let health_total = |f: fn(&ProtocolHealth) -> u64| events.iter().map(|h| f(h)).sum::<u64>();
    let event_ns: f64 = [
        "event.ar.run",
        "event.sr.run",
        "event.sr-sc.run",
        "event.other.run",
    ]
    .iter()
    .map(|n| sum(n))
    .sum();
    let overhead = |span: &str| {
        inp.ideal
            .iter()
            .find(|(n, _, _)| *n == span)
            .map_or(0.0, |&(_, e, c)| ratio(e as f64, c as f64))
    };
    let sent = health_total(|h| h.messages_sent) as f64;
    let dropped = health_total(|h| h.messages_dropped) as f64;
    let trial_ns: f64 = inp.outcomes.iter().map(|(_, o)| o.wall_ns as f64).sum();
    // Traced ÷ untraced trials per worker-second: the engine's own
    // schedule is not reproduced, so compare per-trial service times.
    let traced_trial_mean_ms = ratio(trial_ns / 1e6, trials);

    // Reconciliation: the layer spans must cover the trial span.
    let mut worst = 0.0f64;
    let mut unreconciled = 0u64;
    let mut retried = 0u64;
    for (_, o) in inp.outcomes {
        worst = worst.max(ratio(o.root_self_ns as f64, o.wall_ns as f64));
        unreconciled += u64::from(!o.reconciles());
        retried += u64::from(o.retries > 0);
    }
    report.attempted += inp.outcomes.len() as u64;
    report.failed += unreconciled;
    if unreconciled > 0 {
        eprintln!(
            "check failed: {unreconciled} traced trials left more than {:.0}% of their wall time outside layer spans",
            RECONCILE_FRACTION * 100.0
        );
    }

    vec![
        Metric::new(
            "grid.deploy_ns_per_trial",
            ratio(sum("grid.deploy"), trials),
            "ns",
        ),
        Metric::new(
            "grid.network_build_ns_per_trial",
            ratio(sum("grid.network_build"), trials),
            "ns",
        ),
        Metric::new(
            "grid.network_build_ns_per_cell",
            ratio(sum("grid.network_build"), cells),
            "ns",
        ),
        Metric::new(
            "hamilton.topology_build_ns",
            mean("hamilton.topology_build"),
            "ns",
        ),
        Metric::new("coverage.sr_init_ns", mean("coverage.sr_init"), "ns"),
        Metric::new("coverage.round_ns_p50", crate::median(&rounds), "ns"),
        Metric::new("coverage.round_ns_mean", mean("coverage.round"), "ns"),
        Metric::new(
            "coverage.round_ns_per_cell",
            ratio(sum("coverage.round"), round_cells),
            "ns",
        ),
        Metric::new(
            "coverage.round_ns_per_move",
            ratio(sum("coverage.round"), sr_total(|m| m.moves) as f64),
            "ns",
        ),
        Metric::new(
            "coverage.progress_ratio",
            ratio(progress as f64, rounds.len() as f64),
            "ratio",
        ),
        Metric::new(
            "scheme.sr-sc.run_ns_per_round",
            scheme_per_round("scheme.sr-sc.run"),
            "ns",
        ),
        Metric::new(
            "scheme.ar.run_ns_per_round",
            scheme_per_round("scheme.ar.run"),
            "ns",
        ),
        Metric::new(
            "event.sr.ideal_overhead_ratio",
            overhead("event.sr.run"),
            "ratio",
        ),
        Metric::new(
            "event.ar.ideal_overhead_ratio",
            overhead("event.ar.run"),
            "ratio",
        ),
        Metric::new(
            "event.sr-sc.ideal_overhead_ratio",
            overhead("event.sr-sc.run"),
            "ratio",
        ),
        Metric::new(
            "event.run_ns_per_trial",
            ratio(event_ns, events.len() as f64),
            "ns",
        ),
        Metric::new(
            "event.delivered_ratio",
            ratio(sent - dropped, sent),
            "ratio",
        ),
        Metric::new(
            "stats.fold_ns_per_trial",
            ratio(sum("stats.fold"), trials),
            "ns",
        ),
        Metric::new(
            "campaign.artifact_serialize_ns",
            mean("campaign.artifact_serialize"),
            "ns",
        ),
        Metric::new(
            "campaign.artifact_bytes",
            ratio(
                inp.artifact_bytes.iter().sum(),
                inp.artifact_bytes.len() as f64,
            ),
            "bytes",
        ),
        Metric::new(
            "campaign.parallel_eff",
            ratio(
                trial_ns / 1e9,
                inp.workers as f64 * inp.untraced_wall.as_secs_f64(),
            ),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            ratio(inp.untraced_trial_mean_ms, traced_trial_mean_ms),
            "ratio",
        ),
        Metric::new("trace.unattributed_frac_max", worst, "ratio"),
        Metric::new("trace.unreconciled_trials", unreconciled as f64, "count"),
        Metric::new("trace.retried_trials", retried as f64, "count"),
        Metric::new("trace.trials", trials, "count"),
        Metric::new("coverage.rounds", sr_total(|m| m.rounds) as f64, "count"),
        Metric::new("coverage.moves", sr_total(|m| m.moves) as f64, "count"),
        Metric::new(
            "coverage.messages",
            sr_total(|m| m.messages) as f64,
            "count",
        ),
        Metric::new(
            "coverage.cells_scanned",
            sr_total(|m| m.cells_scanned) as f64,
            "count",
        ),
        Metric::new("event.messages_sent", sent, "count"),
        Metric::new("event.messages_dropped", dropped, "count"),
        Metric::new(
            "event.duplicate_initiations",
            health_total(|h| h.duplicate_initiations) as f64,
            "count",
        ),
        Metric::new(
            "event.lost_cascades",
            health_total(|h| h.lost_cascades) as f64,
            "count",
        ),
        Metric::new(
            "event.stalled_repairs",
            health_total(|h| h.stalled_repairs) as f64,
            "count",
        ),
    ]
}
