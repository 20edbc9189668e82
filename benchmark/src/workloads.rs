//! The four workloads and the campaign configs each one generates from
//! the workload seed. The program under test only ever sees these
//! generated configs, as `wsn-campaign/3` wire text.

use std::fmt;
use std::str::FromStr;

use wsn_bench::campaign::{CampaignConfig, CampaignMode, DegradedParams};
use wsn_coverage::scheme::SchemeId;
use wsn_grid::RegionShape;
use wsn_simcore::derive_stream_seed;

/// Root of every master seed the benchmark derives (the paper
/// campaign's own master seed).
const ROOT_SEED: u64 = 20_080_617;

/// The seed whose artifact digests are recorded in [`Workload::recorded_digests`].
pub const DEFAULT_SEED: u64 = 0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 matrix (AR and SR, 16×16, 14 targets).
    Paper16,
    /// SR single replacement on 256×256 plus SR-SC full recovery on
    /// 64×64: O(1) active work on large grids.
    LargeSparse,
    /// The degraded-network axes on 32×32 through the event engine.
    Degraded32,
    /// The `served` daemon under an open loop of reads and a closed
    /// loop of small jobs.
    ServedMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper16,
        Workload::LargeSparse,
        Workload::Degraded32,
        Workload::ServedMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16 => "paper16",
            Workload::LargeSparse => "large_sparse",
            Workload::Degraded32 => "degraded32",
            Workload::ServedMix => "served_mix",
        }
    }

    /// Jobs whose artifacts are digested, and which the traced run
    /// re-executes. Every run executes at least these.
    pub fn checked_jobs(self) -> u64 {
        match self {
            Workload::Paper16 => 4,
            Workload::LargeSparse | Workload::Degraded32 => 1,
            Workload::ServedMix => 0,
        }
    }

    /// Job `index` of the workload at `seed`: the campaign configs one
    /// job submits, in order. Campaign workloads run each config through
    /// `run_campaign`; `served_mix` posts it to the daemon.
    pub fn job(self, seed: u64, index: u64) -> Vec<CampaignConfig> {
        let master_seed = master_seed(seed, index);
        match self {
            Workload::Paper16 => vec![CampaignConfig {
                master_seed,
                ..CampaignConfig::paper()
            }],
            // A fixed trial list: the per-round cost this workload
            // measures scales with rounds per trial, which vary ~50×
            // with the deployment (6 to 2,887 rounds for 1024² trials at
            // N=1000), so every run executes the same trials. 256², not
            // 1024²: runs on 512² and 1024² networks (25–100 MiB each)
            // varied by up to 25% from run to run with the machine's
            // memory, against 6–12% on 256².
            Workload::LargeSparse => vec![
                CampaignConfig {
                    name: "large_sparse_sr256".into(),
                    schemes: SchemeId::list(&["sr"]),
                    grids: vec![(256, 256)],
                    targets: vec![100],
                    seeds_per_cell: 16,
                    master_seed: ROOT_SEED,
                    mode: CampaignMode::SingleReplacement,
                    ..CampaignConfig::paper()
                },
                CampaignConfig {
                    name: "large_sparse_srsc64".into(),
                    schemes: SchemeId::list(&["sr-sc"]),
                    grids: vec![(64, 64)],
                    targets: vec![400],
                    seeds_per_cell: 4,
                    master_seed: ROOT_SEED,
                    mode: CampaignMode::FullRecovery,
                    ..CampaignConfig::paper()
                },
            ],
            // Also a fixed trial list: one SR-SC trial at latency 4 costs
            // from ~50 ms to ~800 ms depending on its deployment.
            Workload::Degraded32 => vec![CampaignConfig {
                name: "degraded32".into(),
                grids: vec![(32, 32)],
                seeds_per_cell: 2,
                master_seed: ROOT_SEED,
                degraded: DegradedParams {
                    latencies: vec![1, 2, 4],
                    loss_ppms: vec![0, 100_000, 300_000],
                },
                ..CampaignConfig::degraded()
            }],
            Workload::ServedMix => vec![CampaignConfig {
                master_seed,
                ..CampaignConfig::smoke()
            }],
        }
    }

    /// SHA-1 digests of `to_json().to_file_string()` of the checked
    /// jobs' artifacts at [`DEFAULT_SEED`], one per config, job-major.
    /// They also hold at any seed that generates the same configs (the
    /// fixed trial lists).
    pub fn recorded_digests(self) -> &'static [&'static str] {
        match self {
            Workload::Paper16 => &[
                "b02f713ddfeb2373071b189c36ab5ac6e05a2d1e",
                "5611cc37b5109a039b8ddf7f4a7ae37528ff9613",
                "b42247eeb22c5b83e267d04398522f0988690e69",
                "7e28fb379464743aa8f29fcd1bbcc524375d9648",
            ],
            Workload::LargeSparse => &[
                "776e2521705cb2a755c37b0057069fc7a777b0ad",
                "7059ed878202232329eb4b1b624feba61928dde7",
            ],
            Workload::Degraded32 => &["a69ddd0a6de9746e4c4054978553e159534cc189"],
            Workload::ServedMix => &[],
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {s:?}; known: {}", names.join(", "))
            })
    }
}

/// The master seed of job `index` at workload seed `seed`, kept below
/// 2^53 so it survives the `wsn-campaign/3` wire form exactly.
fn master_seed(seed: u64, index: u64) -> u64 {
    derive_stream_seed(ROOT_SEED, &[seed, index]) & ((1 << 53) - 1)
}

/// Whether Theorem 1 applies to a cell: a classic SR or SR-SC run on
/// the full region (the paper's setting).
pub fn theorem1_applies(cfg: &CampaignConfig, scheme: &str, region: RegionShape) -> bool {
    matches!(
        cfg.mode,
        CampaignMode::FullRecovery | CampaignMode::SingleReplacement
    ) && matches!(scheme, "sr" | "sr-sc")
        && region == RegionShape::Full
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_baselines::builtins;

    #[test]
    fn every_generated_config_validates_and_survives_the_wire() {
        let registry = builtins();
        for w in Workload::ALL {
            for cfg in w.job(7, 3) {
                cfg.validate(&registry).expect("valid config");
                let wire = cfg.to_json().to_string();
                let back = CampaignConfig::from_json_str(&wire).expect("decodes");
                assert_eq!(
                    back,
                    CampaignConfig {
                        workers: None,
                        ..cfg
                    }
                );
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
        assert!("nope".parse::<Workload>().is_err());
    }
}
