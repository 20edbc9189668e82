//! The benchmark's own determinism contract: artifact digests and the
//! traced run's exact counts repeat bit for bit across runs and between
//! one and two campaign workers.

use wsn_benchmark::engine::{run_job, JobOutput};
use wsn_benchmark::layers::{traced_run, Untraced};
use wsn_benchmark::workloads::{Workload, DEFAULT_SEED};
use wsn_benchmark::{digest, Report};

const CAMPAIGN_WORKLOADS: [Workload; 3] = [
    Workload::Paper16,
    Workload::LargeSparse,
    Workload::Degraded32,
];

fn job(workload: Workload, workers: usize) -> JobOutput {
    run_job(&workload.job(DEFAULT_SEED, 0), workers, &mut Vec::new())
}

fn digests(out: &JobOutput) -> Vec<String> {
    out.artifacts.iter().map(|a| digest(a)).collect()
}

/// The traced run's exact counts (unit `count`, minus the span and
/// retry bookkeeping, which depend on timing).
fn exact_counts(out: JobOutput, workers: usize) -> Vec<(&'static str, f64)> {
    let mut report = Report::default();
    let jobs = [out];
    let untraced = Untraced {
        jobs: &jobs,
        trial_mean_ms: 1.0,
    };
    let (metrics, _) = traced_run(&untraced, workers, &mut report);
    // Every failure but a timing one (a descheduled trial that never
    // reconciled) is a determinism failure.
    let unreconciled = metrics
        .iter()
        .find(|m| m.name == "trace.unreconciled_trials")
        .map_or(0.0, |m| m.value);
    assert_eq!(
        report.failed as f64, unreconciled,
        "the traced run's checks pass"
    );
    metrics
        .into_iter()
        .filter(|m| m.unit == "count" && !m.name.starts_with("trace."))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn digests_and_counts_repeat_across_runs_and_worker_counts() {
    for workload in CAMPAIGN_WORKLOADS {
        let one = job(workload, 1);
        let two = job(workload, 2);
        let again = job(workload, 2);
        assert_eq!(digests(&one), digests(&two), "{workload}: 1 vs 2 workers");
        assert_eq!(digests(&two), digests(&again), "{workload}: two runs");
        let recorded: Vec<String> = workload
            .recorded_digests()
            .iter()
            .take(one.artifacts.len())
            .map(|d| d.to_string())
            .collect();
        assert_eq!(digests(&one), recorded, "{workload}: recorded digests");
        let counts_one = exact_counts(one, 1);
        assert!(
            counts_one.iter().any(|(_, v)| *v > 0.0),
            "{workload}: counts measured"
        );
        assert_eq!(counts_one, exact_counts(two, 2), "{workload}: exact counts");
    }
}
