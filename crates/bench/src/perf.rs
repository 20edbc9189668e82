//! The perf ledger: fixed-sample benchmarks for the hot paths,
//! with a checked-in baseline comparison gate.
//!
//! Two artifacts, written by `cargo run -p wsn-bench --bin perf -- run`:
//!
//! * `BENCH_core.json` — micro benchmarks of the word-level kernels and
//!   the arena reset: journal fold into a `BTreeSet` (the PR 2 pending
//!   set) vs the [`HoleSet`] word kernel, full `O(cells)` hole scans vs
//!   the bulk word copy, the masked-ring successor walk over the flat
//!   tables, and [`GridNetwork::reset_into`] vs a from-scratch build.
//!   The file also carries `kernel_speedup_min`, the acceptance ratio of
//!   the kernel refactor (word kernel ≥ 5× the `BTreeSet` fold on a
//!   256×256 mass-failure journal).
//! * `BENCH_campaign.json` — end-to-end campaign throughput: the full
//!   engine (deploy → repair → aggregate) on 64×64 and 256×256
//!   full-recovery matrices and a 1024×1024 single-replacement trial.
//!
//! Every entry has the shape `{name, samples, min_ns, mean_ns, max_ns}`
//! ([`bench_entry`] over [`time_ns`]); `replay bench` and `served bench`
//! write theirs through the same two functions. `min_ns` is the
//! comparison statistic: it is the least noisy summary of a loop's cost
//! on a busy machine.
//!
//! The **compare gate** (`perf compare`) parses a fresh `results/`
//! directory against the checked-in `baselines/` directory and fails
//! when any benchmark's `min_ns` regresses by more than the threshold
//! (25% by default). Benchmarks present only in the baseline (e.g. the
//! heavy grids that `--smoke` skips) are reported but never fail the
//! gate, so one baseline file serves both the full and the smoke run.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::time::Instant;

use wsn_grid::{deploy, GridNetwork, GridSystem, HoleSet, RegionShape};
use wsn_hamilton::MaskedCycle;
use wsn_simcore::{FaultEvent, SimRng};
use wsn_stats::JsonValue;

use crate::campaign::{
    build_trial_network, run_campaign, trial_stream_seed, CampaignConfig, CampaignMode, TrialArena,
};

/// Default regression threshold of the compare gate, in percent on
/// `min_ns`.
pub const DEFAULT_THRESHOLD_PERCENT: f64 = 25.0;

/// The ledger files `perf run` writes and `perf compare` checks. The
/// replay bench (`replay bench`) contributes `BENCH_replay.json` in the
/// same shape, the serve bench (`served bench`) `BENCH_serve.json`;
/// `BENCH_avail.json` carries the steady-state availability throughput.
pub const LEDGER_FILES: [&str; 6] = [
    "BENCH_core.json",
    "BENCH_campaign.json",
    "BENCH_replay.json",
    "BENCH_avail.json",
    "BENCH_event.json",
    "BENCH_serve.json",
];

/// Times one closure `samples` times and returns (min, mean, max) in
/// nanoseconds, the statistics of one ledger entry.
pub fn time_ns(samples: usize, mut f: impl FnMut()) -> (f64, f64, f64) {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_nanos() as f64);
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (min, mean, max)
}

/// One ledger entry: `{name, samples, min_ns, mean_ns, max_ns}`, the
/// shape every `BENCH_*.json` file and `perf compare` share.
pub fn bench_entry(name: &str, samples: usize, (min, mean, max): (f64, f64, f64)) -> JsonValue {
    JsonValue::obj([
        ("name", JsonValue::from(name)),
        ("samples", JsonValue::from(samples as u64)),
        ("min_ns", JsonValue::from(min)),
        ("mean_ns", JsonValue::from(mean)),
        ("max_ns", JsonValue::from(max)),
    ])
}

/// A deployment one node per cell, then a 15% random mass failure with
/// the change journal left hot — the post-fault state every hole
/// detector in the ledger folds.
fn mass_failure_state(cols: u16, rows: u16) -> GridNetwork {
    let sys = GridSystem::for_comm_range(cols, rows, 10.0).expect("bench grid is valid");
    let mut rng = SimRng::seed_from_u64(64_001);
    let pos = deploy::per_cell_exact(&sys, 1, &mut rng);
    let mut net = GridNetwork::new(sys, &pos);
    net.clear_changed_cells();
    let kill = net.nodes().len() * 15 / 100;
    net.apply_fault(&FaultEvent::KillRandomEnabled { count: kill }, &mut rng);
    net
}

/// The kernel duel on one grid: journal fold and bulk scan, each as the
/// PR 2 `BTreeSet` representation vs the word kernel. Returns the four
/// ledger entries plus the fold speedup (`btree min / kernel min`).
fn kernel_benches(cols: u16, rows: u16, samples: usize) -> (Vec<JsonValue>, f64) {
    let tag = format!("{cols}x{rows}");
    let net = mass_failure_state(cols, rows);
    let occ = net.occupancy();
    let cells = net.system().cell_count();
    assert!(
        !occ.changed_cells().is_empty(),
        "mass failure must journal changes"
    );

    // PR 2's hole detection: fold the change journal into a BTreeSet
    // pending set, then sweep it in ascending order.
    let journal_fold = time_ns(samples, || {
        let mut pending: BTreeSet<usize> = BTreeSet::new();
        for &c in occ.changed_cells() {
            let c = c as usize;
            if occ.is_vacant(c) {
                pending.insert(c);
            } else {
                pending.remove(&c);
            }
        }
        let mut acc = 0usize;
        for &c in &pending {
            acc = acc.wrapping_add(c);
        }
        assert!(acc > 0);
    });

    // This PR's hole detection: fold the same journal into the word
    // bitset, then sweep it with u64-block iteration.
    let mut holes = HoleSet::new(cells);
    let word_fold = time_ns(samples, || {
        holes.clear();
        holes.fold_changes(occ);
        let mut acc = 0usize;
        for c in holes.iter() {
            acc = acc.wrapping_add(c);
        }
        assert!(acc > 0);
    });

    // Bulk discovery from scratch: ordered set rebuild vs word copy.
    let scan_btree = time_ns(samples, || {
        let pending: BTreeSet<usize> = occ.iter_vacant().collect();
        assert!(!pending.is_empty());
    });
    let scan_words = time_ns(samples, || {
        holes.assign_vacant(occ);
        assert!(!holes.is_empty());
    });

    let speedup = if word_fold.0 > 0.0 {
        journal_fold.0 / word_fold.0
    } else {
        f64::INFINITY
    };
    let entries = vec![
        bench_entry(&format!("hole_fold_btree_{tag}"), samples, journal_fold),
        bench_entry(&format!("hole_fold_word_kernel_{tag}"), samples, word_fold),
        bench_entry(&format!("hole_scan_btree_{tag}"), samples, scan_btree),
        bench_entry(&format!("hole_scan_word_kernel_{tag}"), samples, scan_words),
    ];
    (entries, speedup)
}

/// Runs the core (kernel + arena) benchmarks.
///
/// The 64×64 kernel duel always runs, so the smoke profile shares every
/// benchmark name with the full baseline; the full run adds the 256×256
/// duel, whose fold speedup is the acceptance ratio the file reports as
/// `kernel_speedup_min`.
pub fn bench_core(smoke: bool) -> JsonValue {
    let samples = if smoke { 20 } else { 60 };
    let (mut entries, mut speedup) = kernel_benches(64, 64, samples);
    // The acceptance grid: full runs report the 256×256 ratio and
    // journal size; smoke reports the 64×64 ones.
    let acceptance_grid = if smoke { (64, 64) } else { (256, 256) };
    if !smoke {
        let (big, big_speedup) = kernel_benches(256, 256, samples);
        entries.extend(big);
        speedup = big_speedup;
    }
    let journal_entries = mass_failure_state(acceptance_grid.0, acceptance_grid.1)
        .changed_cells()
        .len();

    // Masked-ring successor queries over the flat tables: one full lap.
    let mask = RegionShape::Annulus.build_mask(64, 64);
    let ring = MaskedCycle::build(&mask).expect("annulus ring exists");
    let start = ring.order()[0];
    let ring_walk = time_ns(samples, || {
        let mut c = start;
        for _ in 0..ring.len() {
            c = ring.successor(c);
        }
        assert_eq!(c, start);
    });

    // Arena reuse: reset_into against a from-scratch trial build on the
    // 64×64 full-recovery deployment.
    let mode = CampaignMode::FullRecovery;
    let grid = (64, 64);
    let seed = trial_stream_seed(20_080_617, RegionShape::Full, grid, 100, 0);
    let build_samples = samples.min(20);
    let fresh_build = time_ns(build_samples, || {
        let net = build_trial_network(mode, 10.0, RegionShape::Full, grid, 100, seed);
        assert!(!net.nodes().is_empty());
    });
    let mut arena = TrialArena::new();
    arena.network(mode, 10.0, RegionShape::Full, grid, 100, seed); // warm the key
    let arena_reset = time_ns(build_samples, || {
        let net = arena.network(mode, 10.0, RegionShape::Full, grid, 100, seed);
        assert!(!net.nodes().is_empty());
    });

    entries.push(bench_entry("masked_ring_walk_64x64", samples, ring_walk));
    entries.push(bench_entry("trial_build_64x64", build_samples, fresh_build));
    entries.push(bench_entry("trial_reset_64x64", build_samples, arena_reset));
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-core/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("journal_entries", JsonValue::from(journal_entries)),
        ("kernel_speedup_min", JsonValue::from(speedup)),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// One end-to-end campaign measurement: run the matrix, report total
/// wall time plus derived trial throughput.
fn campaign_entry(name: &str, samples: usize, cfg: &CampaignConfig) -> JsonValue {
    let trials = cfg.trial_count();
    let timing = time_ns(samples, || {
        let result = run_campaign(cfg).expect("ledger matrices are valid");
        assert_eq!(result.cells.len(), cfg.cell_count());
    });
    let mut entry = bench_entry(name, samples, timing);
    if let JsonValue::Obj(pairs) = &mut entry {
        pairs.push(("trials".into(), JsonValue::from(trials)));
        pairs.push((
            "trials_per_sec".into(),
            JsonValue::from(trials as f64 / (timing.1 / 1e9)),
        ));
    }
    entry
}

/// Runs the end-to-end campaign throughput benchmarks.
///
/// `smoke` keeps only the 64×64 matrix; the full ledger adds the
/// 256×256 full-recovery matrix and the 1024×1024 single-replacement
/// trial (the scale acceptance of the occupancy + kernel work: a
/// million-cell SR trial must complete inside the campaign engine).
pub fn bench_campaign(smoke: bool) -> JsonValue {
    // Fixed worker count: the ledger measures engine cost, not the CI
    // runner's core count.
    let base = CampaignConfig {
        name: "perf".into(),
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr"]),
        regions: vec![RegionShape::Full],
        grids: vec![(64, 64)],
        targets: vec![100],
        seeds_per_cell: 2,
        workers: Some(2),
        ..CampaignConfig::paper()
    };
    let mut entries = vec![campaign_entry(
        "campaign_sr_full_recovery_64x64",
        if smoke { 3 } else { 5 },
        &base,
    )];
    if !smoke {
        let big = CampaignConfig {
            grids: vec![(256, 256)],
            seeds_per_cell: 1,
            ..base.clone()
        };
        entries.push(campaign_entry("campaign_sr_full_recovery_256x256", 2, &big));
        let xl = CampaignConfig {
            grids: vec![(1024, 1024)],
            targets: vec![100],
            seeds_per_cell: 1,
            mode: CampaignMode::SingleReplacement,
            ..base.clone()
        };
        entries.push(campaign_entry(
            "campaign_sr_single_replacement_1024x1024",
            1,
            &xl,
        ));
    }
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-campaign/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// Runs the steady-state availability throughput benchmarks
/// (`BENCH_avail.json`): the open-system workload (Poisson faults +
/// arrivals + jammer, per-tick repair) driven through the campaign
/// engine. The 8×8 SR matrix always runs; the full ledger adds the
/// 64×64 matrix of the `avail` preset's workload.
pub fn bench_avail(smoke: bool) -> JsonValue {
    use crate::steady::SteadyParams;
    let base = CampaignConfig {
        name: "perf-avail".into(),
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr"]),
        regions: vec![RegionShape::Full],
        grids: vec![(8, 8)],
        targets: vec![40],
        seeds_per_cell: 2,
        workers: Some(2),
        mode: CampaignMode::SteadyState,
        steady: SteadyParams {
            ticks: 32,
            jammer_period: 16,
            ..SteadyParams::default()
        },
        ..CampaignConfig::paper()
    };
    let mut entries = vec![campaign_entry(
        "steady_sr_8x8_32ticks",
        if smoke { 3 } else { 5 },
        &base,
    )];
    if !smoke {
        let big = CampaignConfig {
            grids: vec![(64, 64)],
            targets: vec![256],
            seeds_per_cell: 1,
            steady: SteadyParams {
                ticks: 32,
                fault_rate: 4.0,
                arrival_rate: 4.0,
                jammer_period: 16,
                jammer_radius_cells: 2.5,
                ..SteadyParams::default()
            },
            ..base.clone()
        };
        entries.push(campaign_entry("steady_sr_64x64_32ticks", 2, &big));
    }
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-avail/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// Runs the event-engine throughput benchmarks (`BENCH_event.json`):
/// degraded-mode campaigns driven through the message-passing engine.
/// The 8×8 four-weather SR matrix always runs; the full ledger adds a
/// 16×16 matrix over the same weather grid plus a lossy three-scheme
/// matrix (the queue-drain and RNG-stream cost at AR's fan-out).
pub fn bench_event(smoke: bool) -> JsonValue {
    use crate::campaign::DegradedParams;
    let base = CampaignConfig {
        name: "perf-event".into(),
        schemes: wsn_coverage::scheme::SchemeId::list(&["sr"]),
        regions: vec![RegionShape::Full],
        grids: vec![(8, 8)],
        targets: vec![40],
        seeds_per_cell: 2,
        workers: Some(2),
        mode: CampaignMode::Degraded,
        degraded: DegradedParams {
            latencies: vec![1, 3],
            loss_ppms: vec![0, 300_000],
        },
        ..CampaignConfig::paper()
    };
    let mut entries = vec![campaign_entry(
        "degraded_sr_8x8_4weather",
        if smoke { 5 } else { 7 },
        &base,
    )];
    if !smoke {
        let big = CampaignConfig {
            grids: vec![(16, 16)],
            targets: vec![128],
            seeds_per_cell: 1,
            ..base.clone()
        };
        entries.push(campaign_entry("degraded_sr_16x16_4weather", 2, &big));
        let lossy = CampaignConfig {
            schemes: wsn_coverage::scheme::SchemeId::list(&["ar", "sr", "sr-sc"]),
            degraded: DegradedParams {
                latencies: vec![2],
                loss_ppms: vec![300_000],
            },
            ..base.clone()
        };
        entries.push(campaign_entry(
            "degraded_three_schemes_8x8_lossy",
            2,
            &lossy,
        ));
    }
    JsonValue::obj([
        ("schema", JsonValue::from("wsn-bench-event/1")),
        (
            "mode",
            JsonValue::from(if smoke { "smoke" } else { "full" }),
        ),
        ("benchmarks", JsonValue::Arr(entries)),
    ])
}

/// One benchmark's baseline-vs-fresh verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The benchmark name (shared key of baseline and fresh entry).
    pub name: String,
    /// Baseline `min_ns`.
    pub base_min_ns: f64,
    /// Fresh `min_ns`.
    pub fresh_min_ns: f64,
    /// Signed delta in percent (`> 0` = fresh is slower).
    pub delta_percent: f64,
    /// Whether the delta exceeds the gate threshold.
    pub regressed: bool,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {:.0}ns -> {:.0}ns ({:+.1}%)",
            if self.regressed { "REGRESSED" } else { "ok" },
            self.name,
            self.base_min_ns,
            self.fresh_min_ns,
            self.delta_percent
        )
    }
}

/// The compare gate's verdict for one ledger file.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// The ledger file name.
    pub file: String,
    /// Verdicts for every benchmark present on both sides.
    pub comparisons: Vec<Comparison>,
    /// Baseline benchmarks the fresh run did not produce (smoke runs
    /// legitimately skip the heavy grids — reported, never failing).
    pub missing: Vec<String>,
    /// Fresh benchmarks with no baseline counterpart. A new benchmark
    /// is ungated until its baseline is checked in, so these are
    /// surfaced as warnings rather than silently dropped.
    pub fresh_only: Vec<String>,
}

impl CompareReport {
    /// Names of the regressed benchmarks.
    pub fn regressions(&self) -> Vec<&str> {
        self.comparisons
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Whether the gate passes for this file.
    pub fn is_ok(&self) -> bool {
        self.comparisons.iter().all(|c| !c.regressed)
    }
}

fn benchmarks_of(doc: &JsonValue) -> Vec<(&str, f64)> {
    doc.get("benchmarks")
        .and_then(JsonValue::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| Some((e.get("name")?.as_str()?, e.get("min_ns")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares one fresh ledger document against its baseline, flagging
/// every benchmark whose `min_ns` regressed by more than
/// `threshold_percent`. Matching is by benchmark name; entries only in
/// the baseline land in [`CompareReport::missing`], entries only in the
/// fresh run in [`CompareReport::fresh_only`].
pub fn compare_docs(
    file: &str,
    baseline: &JsonValue,
    fresh: &JsonValue,
    threshold_percent: f64,
) -> CompareReport {
    let base_entries = benchmarks_of(baseline);
    let fresh_entries = benchmarks_of(fresh);
    let mut comparisons = Vec::new();
    let mut missing = Vec::new();
    for &(name, base_min) in &base_entries {
        match fresh_entries.iter().find(|(n, _)| *n == name) {
            Some(&(_, fresh_min)) => {
                let delta_percent = if base_min > 0.0 {
                    (fresh_min / base_min - 1.0) * 100.0
                } else {
                    0.0
                };
                comparisons.push(Comparison {
                    name: name.to_owned(),
                    base_min_ns: base_min,
                    fresh_min_ns: fresh_min,
                    delta_percent,
                    regressed: delta_percent > threshold_percent,
                });
            }
            None => missing.push(name.to_owned()),
        }
    }
    let fresh_only = fresh_entries
        .iter()
        .filter(|(name, _)| !base_entries.iter().any(|(b, _)| b == name))
        .map(|&(name, _)| name.to_owned())
        .collect();
    CompareReport {
        file: file.to_owned(),
        comparisons,
        missing,
        fresh_only,
    }
}

/// Runs the compare gate over every ledger file present in **both**
/// directories, returning one report per file.
///
/// # Errors
///
/// A human-readable message when no ledger file is comparable (nothing
/// to gate on is a configuration bug, not a pass) or when a present
/// file fails to read or parse.
pub fn compare_dirs(
    baseline_dir: &Path,
    results_dir: &Path,
    threshold_percent: f64,
) -> Result<Vec<CompareReport>, String> {
    let mut reports = Vec::new();
    for file in LEDGER_FILES {
        let base_path = baseline_dir.join(file);
        let fresh_path = results_dir.join(file);
        if !base_path.exists() || !fresh_path.exists() {
            continue;
        }
        let load = |p: &Path| -> Result<JsonValue, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            JsonValue::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        reports.push(compare_docs(
            file,
            &load(&base_path)?,
            &load(&fresh_path)?,
            threshold_percent,
        ));
    }
    if reports.is_empty() {
        return Err(format!(
            "no ledger file present in both {} and {} — ran `perf run` and `replay bench` first?",
            baseline_dir.display(),
            results_dir.display()
        ));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(entries: &[(&str, f64)]) -> JsonValue {
        JsonValue::obj([
            ("schema", JsonValue::from("wsn-bench-core/1")),
            (
                "benchmarks",
                JsonValue::Arr(
                    entries
                        .iter()
                        .map(|&(name, min)| bench_entry(name, 3, (min, min, min)))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn compare_flags_only_regressions_over_threshold() {
        let base = ledger(&[("a", 1000.0), ("b", 1000.0), ("c", 1000.0), ("gone", 5.0)]);
        let fresh = ledger(&[("a", 1200.0), ("b", 1300.0), ("c", 400.0), ("new", 7.0)]);
        let report = compare_docs("BENCH_core.json", &base, &fresh, 25.0);
        assert_eq!(report.comparisons.len(), 3);
        assert_eq!(report.regressions(), vec!["b"]);
        assert!(!report.is_ok());
        // Smoke-skipped entries are reported, not failed.
        assert_eq!(report.missing, vec!["gone".to_owned()]);
        // A benchmark without a baseline is surfaced, not silently
        // dropped — and never gates.
        assert_eq!(report.fresh_only, vec!["new".to_owned()]);
        let b = &report.comparisons[1];
        assert!((b.delta_percent - 30.0).abs() < 1e-9);
        assert!(b.to_string().starts_with("REGRESSED b:"), "{b}");
        // Exactly at threshold passes; the gate is strict-greater.
        let fresh = ledger(&[("a", 1250.0), ("b", 1000.0), ("c", 1000.0)]);
        assert!(compare_docs("x", &base, &fresh, 25.0).is_ok());
    }

    #[test]
    fn compare_reports_every_fresh_only_entry() {
        let base = ledger(&[("a", 1000.0)]);
        let fresh = ledger(&[("a", 1000.0), ("x", 1.0), ("y", 2.0)]);
        let report = compare_docs("BENCH_avail.json", &base, &fresh, 25.0);
        assert!(report.is_ok());
        assert_eq!(
            report.fresh_only,
            vec!["x".to_owned(), "y".to_owned()],
            "fresh-only entries must be warned about, in ledger order"
        );
        // Identical documents report nothing on either side.
        let clean = compare_docs("BENCH_avail.json", &base, &base, 25.0);
        assert!(clean.missing.is_empty() && clean.fresh_only.is_empty());
    }

    #[test]
    fn compare_round_trips_through_rendered_json() {
        let base = ledger(&[("k", 100.0)]);
        let fresh = JsonValue::parse(&ledger(&[("k", 90.0)]).to_file_string()).unwrap();
        let report = compare_docs("BENCH_core.json", &base, &fresh, 25.0);
        assert!(report.is_ok());
        assert!((report.comparisons[0].delta_percent + 10.0).abs() < 1e-9);
    }

    #[test]
    fn compare_dirs_requires_at_least_one_ledger_pair() {
        let dir = std::env::temp_dir().join("wsn_perf_compare_empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = compare_dirs(&dir, &dir, 25.0).unwrap_err();
        assert!(err.contains("no ledger file"), "{err}");
        // With one pair present, the gate runs.
        std::fs::write(
            dir.join("BENCH_core.json"),
            ledger(&[("k", 100.0)]).to_file_string(),
        )
        .unwrap();
        let reports = compare_dirs(&dir, &dir, 25.0).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn smoke_avail_ledger_round_trips() {
        let doc = bench_avail(true);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("wsn-bench-avail/1")
        );
        let names: Vec<_> = benchmarks_of(&doc)
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names, vec!["steady_sr_8x8_32ticks".to_owned()]);
        let parsed = JsonValue::parse(&doc.to_file_string()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn smoke_core_ledger_carries_the_kernel_contract() {
        let doc = bench_core(true);
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("wsn-bench-core/1")
        );
        let speedup = doc
            .get("kernel_speedup_min")
            .and_then(JsonValue::as_f64)
            .expect("speedup field");
        // Unoptimized test builds still show the word kernel ahead; the
        // ≥5x acceptance figure is asserted on release runs (see the
        // perf binary), not here where the compiler hobbles both sides.
        assert!(speedup > 0.0, "speedup {speedup}");
        let names: Vec<_> = benchmarks_of(&doc)
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert!(
            names.contains(&"hole_fold_word_kernel_64x64".to_owned()),
            "{names:?}"
        );
        assert!(names.contains(&"trial_reset_64x64".to_owned()), "{names:?}");
        // Parses back: the gate can read what the ledger writes.
        let parsed = JsonValue::parse(&doc.to_file_string()).unwrap();
        assert_eq!(parsed, doc);
    }
}
