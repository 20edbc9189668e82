//! Command-line entry point of the benchmark.
//!
//! ```text
//! wsn-benchmark --workload <paper16|large_sparse|degraded32|served_mix>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--served <path to the served binary>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced pass and reports the per-layer metrics,
//! writing its spans to `.bench_out/trace-<workload>-<seed>.jsonl` at
//! exit. The last stdout line is the JSON result. Normally started by
//! `run.py`, which builds this binary and the daemon first.

use std::path::PathBuf;
use std::process::ExitCode;

use wsn_benchmark::engine;
use wsn_benchmark::layers::{traced_run, Untraced};
use wsn_benchmark::trace::Tracer;
use wsn_benchmark::workloads::{Workload, DEFAULT_SEED};
use wsn_benchmark::{complete, median, nproc, served, Metric, Report};
use wsn_benchmark::{END_TO_END, OUT_DIR, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    served: Option<PathBuf>,
}

fn parse(mut raw: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Result<Option<String>, String> {
        match raw.iter().position(|a| a == flag) {
            Some(i) if i + 1 < raw.len() => {
                let v = raw.remove(i + 1);
                raw.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let num = |flag: &str, v: Option<String>, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        })
    };
    let workload = take("--workload")?
        .ok_or("--workload is required")?
        .parse()?;
    let seed = num("--seed", take("--seed")?, DEFAULT_SEED)?;
    let seconds = num("--seconds", take("--seconds")?, 10)? as f64;
    let trace = match take("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let served = take("--served")?.map(PathBuf::from);
    if let Some(extra) = raw.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        served,
    })
}

/// A campaign workload: the untraced run, or (traced) the checked jobs
/// untraced and then again under spans.
fn campaign(args: &Args, report: &mut Report) -> (Vec<Metric>, Option<Tracer>) {
    // The traced run's overhead and efficiency ratios compare against an
    // untraced run of half the time in the same process.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let m = engine::measure(args.workload, args.seed, seconds, nproc(), report);
    if !args.trace {
        let metrics = vec![
            Metric::new("setup_s", m.setup_s, "s"),
            Metric::new("trials_per_s", m.trials_per_s(), "trials/s"),
            Metric::new(
                "peak_rss_mb",
                wsn_benchmark::peak_rss_mib("self").unwrap_or(0.0),
                "MiB",
            ),
            Metric::new("req_ms_p50", median(&m.job_trial_p50_ms), "ms"),
            Metric::new("req_ms_p99", median(&m.job_trial_p99_ms), "ms"),
            Metric::new("job_s_p50", median(&m.job_s), "s"),
            Metric::new("replay_ms_p50", median(&m.render_ms), "ms"),
        ];
        eprintln!(
            "{}: {} trials in {} jobs, {} per-trial latency samples; job walls (s): {:.3?}",
            args.workload,
            m.trials,
            m.job_s.len(),
            m.trial_samples,
            m.job_s
        );
        return (metrics, None);
    }
    let (mut metrics, tracer) = traced_run(
        &Untraced {
            jobs: &m.checked,
            trial_mean_ms: m.trial_mean_ms(),
        },
        nproc(),
        report,
    );
    metrics.push(Metric::new(
        "trace.spans",
        tracer.spans().len() as f64,
        "count",
    ));
    (metrics, Some(tracer))
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (metrics, tracer) = match args.workload {
        Workload::ServedMix => {
            let bin = args
                .served
                .as_ref()
                .ok_or("served_mix needs --served <path to the served binary>")?;
            let (metrics, tracer) =
                served::run(bin, args.seed, args.seconds, args.trace, &mut report)
                    .map_err(|e| format!("served_mix: {e}"))?;
            (metrics, Some(tracer))
        }
        _ => campaign(args, &mut report),
    };
    report.metrics = complete(if args.trace { &PER_LAYER } else { &END_TO_END }, metrics);
    if let (true, Some(tracer)) = (args.trace, tracer) {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_sidecar(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans -> {}", path.display());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wsn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wsn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
