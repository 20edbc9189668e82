//! The untraced end-to-end runs of the campaign workloads: jobs go
//! through `CampaignConfig::from_json_str` and the public campaign
//! engine exactly as a user's would, with nothing timed inside them but
//! one timestamp per trial boundary taken through the engine's own
//! observer hook.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use wsn_baselines::builtins;
use wsn_bench::campaign::{
    run_campaign_resumable, CampaignConfig, CampaignObserver, CampaignResult, CampaignRun,
    CellStats,
};
use wsn_coverage::scheme::SchemeRegistry;

use crate::workloads::{theorem1_applies, Workload, DEFAULT_SEED};
use crate::{digest, median, ms, percentile, timed, Report};

/// Per-trial service latency, read through the engine's observer hooks.
/// The engine asks each worker whether to cancel exactly once before
/// each trial, so consecutive asks on one thread bracket one trial plus
/// its fold; a worker's last trial ends at its last fold.
#[derive(Default)]
struct TrialClock {
    /// Per worker thread: its last poll and its last fold since then.
    workers: Mutex<HashMap<ThreadId, (Instant, Option<Instant>)>>,
    samples_ms: Mutex<Vec<f64>>,
}

impl TrialClock {
    /// The samples, closing each worker's last trial at its last fold.
    fn into_samples(self) -> Vec<f64> {
        let mut samples = self.samples_ms.into_inner().expect("trial clock lock");
        for (poll, fold) in self
            .workers
            .into_inner()
            .expect("trial clock lock")
            .into_values()
        {
            if let Some(fold) = fold {
                samples.push(ms(fold - poll));
            }
        }
        samples
    }
}

impl CampaignObserver for TrialClock {
    fn trial_folded(&self, _cell: usize, _done: u64, _stats: &CellStats) {
        let now = Instant::now();
        let mut workers = self.workers.lock().expect("trial clock lock");
        if let Some(entry) = workers.get_mut(&std::thread::current().id()) {
            entry.1 = Some(now);
        }
    }

    fn cancel_requested(&self) -> bool {
        let now = Instant::now();
        let previous = self
            .workers
            .lock()
            .expect("trial clock lock")
            .insert(std::thread::current().id(), (now, None));
        if let Some((poll, _)) = previous {
            self.samples_ms
                .lock()
                .expect("trial clock lock")
                .push(ms(now - poll));
        }
        false
    }
}

/// Timed re-renders of each finished artifact (`replay_ms_p50`).
const RENDER_REPEATS: usize = 5;

/// One finished job: its configs' results and rendered artifacts.
pub struct JobOutput {
    /// Per config: the decoded config (with the run's worker count).
    pub configs: Vec<CampaignConfig>,
    /// Per config: the campaign result.
    pub results: Vec<CampaignResult>,
    /// Per config: `to_json().to_file_string()`.
    pub artifacts: Vec<String>,
    /// Wall time from wire decode to rendered artifacts.
    pub wall: Duration,
}

/// Everything an untraced campaign-workload run measured.
#[derive(Default)]
pub struct CampaignMeasure {
    /// Median decode + validate time of the job-0 configs over the run,
    /// seconds.
    pub setup_s: f64,
    /// Trials completed.
    pub trials: u64,
    /// Summed job wall time.
    pub wall: Duration,
    /// Wall time per job, seconds.
    pub job_s: Vec<f64>,
    /// Median per-trial service latency per job, ms.
    pub job_trial_p50_ms: Vec<f64>,
    /// 99th-percentile per-trial service latency per job, ms.
    pub job_trial_p99_ms: Vec<f64>,
    /// Per-trial latency samples taken.
    pub trial_samples: usize,
    /// Summed per-trial latency samples, ms.
    pub trial_ms_sum: f64,
    /// Artifact render time per config, ms.
    pub render_ms: Vec<f64>,
    /// The checked jobs, kept for the traced run's cross-checks.
    pub checked: Vec<JobOutput>,
}

impl CampaignMeasure {
    /// Mean per-trial service time (a trial plus its fold), ms.
    pub fn trial_mean_ms(&self) -> f64 {
        self.trial_ms_sum / self.trial_samples.max(1) as f64
    }

    /// Completed trials per wall second over the whole run.
    pub fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.wall.as_secs_f64()
    }
}

/// One burst of set-up samples: decode and validate `wires` against
/// `registry`, repeated until 2 ms have passed (at least 3, at most 50
/// times). Bursts run before the first job and after every job, so the
/// median spans the whole run rather than its first moments: a few
/// microseconds of work swing by half with the machine's state.
fn sample_setup(wires: &[String], registry: &SchemeRegistry, samples: &mut Vec<f64>) {
    let start = Instant::now();
    let mut taken = 0;
    while taken < 3 || (taken < 50 && start.elapsed().as_secs_f64() < 0.002) {
        let ((), took) = timed(|| {
            for wire in wires {
                let cfg = CampaignConfig::from_json_str(wire).expect("generated configs decode");
                cfg.validate(registry).expect("generated configs validate");
            }
        });
        samples.push(took.as_secs_f64());
        taken += 1;
    }
}

/// Runs one job: decodes each config from its wire text, runs it on
/// `workers` threads, and renders its artifact.
pub fn run_job(configs: &[CampaignConfig], workers: usize, render_ms: &mut Vec<f64>) -> JobOutput {
    let clock = TrialClock::default();
    run_job_observed(configs, workers, &clock, render_ms)
}

fn run_job_observed(
    configs: &[CampaignConfig],
    workers: usize,
    clock: &TrialClock,
    render_ms: &mut Vec<f64>,
) -> JobOutput {
    let start = Instant::now();
    let mut out = JobOutput {
        configs: Vec::new(),
        results: Vec::new(),
        artifacts: Vec::new(),
        wall: Duration::ZERO,
    };
    for cfg in configs {
        let wire = cfg.to_json().to_string();
        let decoded = CampaignConfig::from_json_str(&wire)
            .expect("generated configs decode")
            .with_workers(workers);
        let result = match run_campaign_resumable(&decoded, None, clock)
            .expect("generated configs validate")
        {
            CampaignRun::Complete(result) => result,
            CampaignRun::Interrupted(_) => unreachable!("the trial clock never cancels"),
        };
        let artifact = result.to_json().to_file_string();
        out.configs.push(decoded);
        out.results.push(result);
        out.artifacts.push(artifact);
    }
    out.wall = start.elapsed();
    // Outside the job's wall time: the render in the job warmed the
    // allocator, and the fastest repeat is the render cost (a render is
    // a few milliseconds of allocation, so interference only adds).
    for result in &out.results {
        let fastest = (0..RENDER_REPEATS)
            .map(|_| ms(timed(|| result.to_json().to_file_string()).1))
            .fold(f64::INFINITY, f64::min);
        render_ms.push(fastest);
    }
    out
}

/// Checks Theorem 1 on every classic SR/SR-SC cell whose trials all had
/// a spare: every trial must end fully covered.
pub fn check_theorem1(result: &CampaignResult, report: &mut Report) {
    for cell in &result.cells {
        if !theorem1_applies(&result.config, cell.scheme.as_str(), cell.region) {
            continue;
        }
        if cell.spares.summary().min().is_some_and(|m| m > 0.0) {
            report.check(cell.covered_trials == cell.trials, || {
                format!(
                    "Theorem 1: {} {}x{} N={} covered {}/{}",
                    cell.scheme,
                    cell.cols,
                    cell.rows,
                    cell.n_target,
                    cell.covered_trials,
                    cell.trials
                )
            });
        }
    }
}

/// The untraced run of a campaign workload: jobs 0, 1, 2, … until
/// `seconds` have passed and every checked job has run, with the
/// output checks of every job.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    workers: usize,
    report: &mut Report,
) -> CampaignMeasure {
    let registry = builtins();
    let wires: Vec<String> = workload
        .job(seed, 0)
        .iter()
        .map(|c| c.to_json().to_string())
        .collect();
    let mut m = CampaignMeasure::default();
    let mut setup_samples = Vec::new();
    sample_setup(&wires, &registry, &mut setup_samples);
    let recorded = workload.recorded_digests();
    // Identical configs (the fixed large_sparse job repeats) must render
    // identical artifacts.
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    let start = Instant::now();
    let mut job = 0u64;
    while job < workload.checked_jobs() || start.elapsed().as_secs_f64() < seconds {
        let clock = TrialClock::default();
        let out = run_job_observed(&workload.job(seed, job), workers, &clock, &mut m.render_ms);
        let samples = clock.into_samples();
        m.trial_samples += samples.len();
        m.trial_ms_sum += samples.iter().sum::<f64>();
        m.job_trial_p50_ms.push(median(&samples));
        m.job_trial_p99_ms.push(percentile(&samples, 0.99));
        m.wall += out.wall;
        m.job_s.push(out.wall.as_secs_f64());
        for (i, (cfg, (result, artifact))) in out
            .configs
            .iter()
            .zip(out.results.iter().zip(&out.artifacts))
            .enumerate()
        {
            m.trials += cfg.trial_count();
            check_theorem1(result, report);
            let hash = digest(artifact);
            let wire = cfg.to_json().to_string();
            if job < workload.checked_jobs() {
                let slot = (job as usize) * out.configs.len() + i;
                let as_recorded = workload.job(DEFAULT_SEED, job)[i].to_json().to_string() == wire;
                match recorded.get(slot) {
                    Some(want) if as_recorded => {
                        report.check(*want == hash, || {
                            format!("job {job} config {i}: digest {hash}, recorded {want}")
                        });
                    }
                    _ => eprintln!("digest {workload} seed {seed} job {job} config {i}: {hash}"),
                }
            }
            if let Some(first) = seen.get(&wire) {
                report.check(*first == hash, || {
                    format!("job {job} config {i}: repeat rendered {hash}, first run {first}")
                });
            } else {
                seen.insert(wire, hash);
            }
        }
        report.attempted += out
            .configs
            .iter()
            .map(CampaignConfig::trial_count)
            .sum::<u64>();
        if job < workload.checked_jobs() {
            m.checked.push(out);
        }
        job += 1;
        sample_setup(&wires, &registry, &mut setup_samples);
    }
    m.setup_s = median(&setup_samples);
    m
}
