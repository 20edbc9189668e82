//! The workspace benchmark: four workloads driven through the crates'
//! public APIs, end-to-end metrics measured with tracing off, and a
//! separate traced run that records spans around the benchmark's own
//! calls into each layer (see `README.md` for every metric's definition
//! and the end-to-end metric each layer metric should move).

pub mod engine;
pub mod layers;
pub mod served;
pub mod trace;
pub mod workloads;

use std::time::{Duration, Instant};

use wsn_stats::JsonValue;

/// One reported metric: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit token.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one benchmark run reports: the output-check tally plus metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (trials, requests, output checks).
    pub attempted: u64,
    /// Operations that failed (errors, non-2xx, timeouts, mismatches).
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records one output check; a failed check is also logged to stderr
    /// so a `"correct": false` line comes with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// The result line: one JSON object, printed last on stdout.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    JsonValue::obj([
                        // A failed request's latency is +inf; keep the
                        // line valid JSON (the run is incorrect anyway).
                        ("value", JsonValue::from(m.value.min(f64::MAX))),
                        ("unit", JsonValue::from(m.unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::obj([
            ("correct", JsonValue::from(self.failed == 0)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; `0.0`
/// for an empty set (the metric does not apply to the workload).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the lower middle for even counts, as nearest-rank gives it).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` once.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// High-water resident set size of process `pid` (`"self"` for this
/// one) in MiB, from `/proc/<pid>/status`; `None` off Linux.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hex SHA-1 of `text` (artifact digests).
pub fn digest(text: &str) -> String {
    wsn_serve::sha1::sha1(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Worker threads for the campaign engine: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("peak_rss_mb", "MiB"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("job_s_p50", "s"),
    ("replay_ms_p50", "ms"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("grid.deploy_ns_per_trial", "ns"),
    ("grid.network_build_ns_per_trial", "ns"),
    ("grid.network_build_ns_per_cell", "ns"),
    ("hamilton.topology_build_ns", "ns"),
    ("coverage.sr_init_ns", "ns"),
    ("coverage.round_ns_p50", "ns"),
    ("coverage.round_ns_mean", "ns"),
    ("coverage.round_ns_per_cell", "ns"),
    ("coverage.round_ns_per_move", "ns"),
    ("coverage.progress_ratio", "ratio"),
    ("scheme.sr-sc.run_ns_per_round", "ns"),
    ("scheme.ar.run_ns_per_round", "ns"),
    ("event.sr.ideal_overhead_ratio", "ratio"),
    ("event.ar.ideal_overhead_ratio", "ratio"),
    ("event.sr-sc.ideal_overhead_ratio", "ratio"),
    ("event.run_ns_per_trial", "ns"),
    ("event.delivered_ratio", "ratio"),
    ("stats.fold_ns_per_trial", "ns"),
    ("campaign.artifact_serialize_ns", "ns"),
    ("campaign.artifact_bytes", "bytes"),
    ("campaign.parallel_eff", "ratio"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.ttfb_ms_p50", "ms"),
    ("serve.ttfb_ms_p99", "ms"),
    ("serve.ws_upgrade_ms_p50", "ms"),
    ("serve.ws_frame_gap_ms_p99", "ms"),
    ("serve.job_queue_wait_ms_p50", "ms"),
    ("serve.checkpoint_save_ms_p50", "ms"),
    ("serve.checkpoints_per_job", "count"),
    ("serve.loadgen_late_ms_p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_frac_max", "ratio"),
    ("trace.unreconciled_trials", "count"),
    ("trace.retried_trials", "count"),
    ("coverage.rounds", "count"),
    ("coverage.moves", "count"),
    ("coverage.messages", "count"),
    ("coverage.cells_scanned", "count"),
    ("event.messages_sent", "count"),
    ("event.messages_dropped", "count"),
    ("event.duplicate_initiations", "count"),
    ("event.lost_cascades", "count"),
    ("event.stalled_repairs", "count"),
    ("serve.requests", "count"),
    ("serve.requests_failed", "count"),
    ("trace.spans", "count"),
    ("trace.trials", "count"),
];

/// Orders `measured` as `names` lists them; a metric the workload does
/// not exercise reads `0`.
///
/// # Panics
///
/// When `measured` holds a name `names` does not list (a typo).
pub fn complete(names: &[(&'static str, &'static str)], measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} ({}) is not declared",
            m.name,
            m.unit
        );
    }
    names
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric::new(name, 0.0, unit))
        })
        .collect()
}

/// Directory (relative to the checkout root) for run outputs: trace
/// sidecars and the daemon's temporary state directories.
pub const OUT_DIR: &str = ".bench_out";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
