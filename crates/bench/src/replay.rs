//! Record/replay harness over the campaign matrix: every trial is
//! re-executable, diffable and shrinkable from a coordinate alone.
//!
//! The simulation layer provides the primitives — lossless trace codecs
//! ([`wsn_simcore::trace`]) plus the event differ and delta-debugging
//! shrinker ([`wsn_simcore::replay`]). This module binds them to the
//! experiment harness:
//!
//! * [`ReplaySpec`] — the address of one run: scheme, drive mode,
//!   region/grid/target/trial coordinate (or a conformance scenario),
//!   master seed and fault schedule. [`record`] re-derives the exact
//!   stream seed and deployment the campaign workers would use (the
//!   same `pub(crate)` functions — one code path, no drift) and runs
//!   the scheme with [`ReplacementScheme::run_traced`].
//! * [`ReplayArtifact`] — a recording saved as a `replay_<coord>.trace`
//!   file: the binary trace container with the spec in its metadata
//!   block, so `replay diff`/`replay shrink` can re-execute it later
//!   with no other context.
//! * [`shrink_between`] — differential delta debugging: the fault
//!   schedule is minimized while two specs (two schemes, or two drive
//!   modes of one scheme, on the identical deployment stream) still
//!   disagree.
//! * [`SabotagedSr`] — the planted conformance bug behind the
//!   self-test flag [`PLANTED_SCHEME_ID`]: a wrapper around real SR
//!   that corrupts one notification event (and over-bills one message)
//!   whenever the fault schedule kills nodes at or after round
//!   [`PLANTED_TRIGGER_ROUND`]. It exists so the whole
//!   record→diff→shrink path is provable end-to-end in CI; it is never
//!   registered in [`wsn_baselines::builtins`].
//!
//! The conformance battery uses [`divergence_message`]: instead of a
//! bare failed assert, a divergence re-runs both drivers traced, writes
//! both artifacts plus the shrunk schedule, and panics with the first
//! divergent event and the artifact paths.

use std::fmt;
use std::path::Path;

use wsn_baselines::{Ar, Smart, Vf};
use wsn_coverage::scheme::{DriveMode, ReplacementScheme, SchemeReport, Sr, SrSc, Unsupported};
use wsn_coverage::SrConfig;
use wsn_grid::{deploy, GridNetwork, GridSystem, RegionShape};
use wsn_simcore::replay::{diff_logs, shrink_fault_plan, ShrinkReport, TraceDiff};
use wsn_simcore::trace::binary;
use wsn_simcore::{FaultEvent, FaultPlan, NetModelSpec, NodeId, SimRng, TraceEvent, TraceLog};

use crate::campaign::{build_trial_network, trial_stream_seed, CampaignConfig, CampaignMode};

/// Schema tag stored in every artifact's metadata block.
pub const ARTIFACT_SCHEMA: &str = "wsn-replay/1";

/// Id of the planted-bug scheme (see [`SabotagedSr`]). Deliberately not
/// a [`wsn_baselines::builtins`] id: it resolves only through
/// [`scheme_with_plan`], i.e. only replay tooling that asks for the
/// self-test fixture by name ever runs it.
pub const PLANTED_SCHEME_ID: &str = "sr-planted";

/// The planted bug triggers when the fault schedule kills listed nodes
/// at or after this round.
pub const PLANTED_TRIGGER_ROUND: u64 = 3;

/// Errors from the replay harness.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The scheme id is not replayable by this harness.
    UnknownScheme(String),
    /// The scheme cannot carry a fault schedule.
    PlanNotSupported(String),
    /// The scheme refused the spec (region/drive mode).
    Run(String),
    /// An artifact file could not be read or written.
    Io(String),
    /// An artifact's metadata block is missing or malformed.
    BadArtifact(String),
    /// A campaign cell index is out of range.
    BadCell {
        /// The requested cell.
        cell: usize,
        /// Number of cells in the matrix.
        cells: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownScheme(id) => write!(f, "scheme {id:?} is not replayable"),
            ReplayError::PlanNotSupported(id) => {
                write!(f, "scheme {id:?} does not take a fault schedule")
            }
            ReplayError::Run(e) => write!(f, "scheme refused the replay spec: {e}"),
            ReplayError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ReplayError::BadArtifact(e) => write!(f, "malformed replay artifact: {e}"),
            ReplayError::BadCell { cell, cells } => {
                write!(f, "campaign cell {cell} out of range (matrix has {cells})")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<Unsupported> for ReplayError {
    fn from(e: Unsupported) -> Self {
        ReplayError::Run(e.to_string())
    }
}

/// How the recorded network was deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// A campaign matrix trial: the deployment comes from the derived
    /// stream seed via the campaign generator for this mode.
    Matrix(CampaignMode),
    /// A conformance scenario (full region only): `holes` cells punched
    /// out of a `per_cell`-dense deployment, seeded directly by
    /// [`ReplaySpec::master_seed`].
    Scenario {
        /// Distinct holes punched into the deployment.
        holes: usize,
        /// Nodes per remaining cell.
        per_cell: usize,
    },
}

/// The full address of one recordable run. Everything [`record`] needs
/// is here — no hidden state — which is what makes artifacts
/// re-executable months later.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// Scheme id (a builtin, or [`PLANTED_SCHEME_ID`]).
    pub scheme: String,
    /// Drive mode for the run.
    pub drive: DriveMode,
    /// Region shape of the trial.
    pub region: RegionShape,
    /// Grid dimensions `(cols, rows)`.
    pub grid: (u16, u16),
    /// Spare target N (matrix deployments; 0 for scenarios).
    pub n_target: usize,
    /// Trial index within the cell (matrix deployments; 0 for
    /// scenarios).
    pub trial: u64,
    /// Campaign master seed (matrix) or the raw scenario seed.
    pub master_seed: u64,
    /// Communication range, meters.
    pub comm_range: f64,
    /// Deployment generator.
    pub deployment: Deployment,
    /// Fault schedule injected into the run (plan-capable schemes only).
    pub fault_plan: FaultPlan,
}

impl ReplaySpec {
    /// A campaign-default spec for `scheme` on a full `cols × rows`
    /// grid: FullRecovery deployment, classic drive, the paper
    /// campaign's master seed and comm range, no faults.
    pub fn matrix(scheme: &str, grid: (u16, u16), n_target: usize, trial: u64) -> ReplaySpec {
        let defaults = CampaignConfig::paper();
        ReplaySpec {
            scheme: scheme.to_string(),
            drive: DriveMode::Classic,
            region: RegionShape::Full,
            grid,
            n_target,
            trial,
            master_seed: defaults.master_seed,
            comm_range: defaults.comm_range,
            deployment: Deployment::Matrix(CampaignMode::FullRecovery),
            fault_plan: FaultPlan::new(),
        }
    }

    /// A conformance-scenario spec (full region): `holes` punched from a
    /// `per_cell`-dense deployment under `seed`.
    pub fn scenario(
        scheme: &str,
        grid: (u16, u16),
        holes: usize,
        per_cell: usize,
        seed: u64,
    ) -> ReplaySpec {
        ReplaySpec {
            scheme: scheme.to_string(),
            drive: DriveMode::Classic,
            region: RegionShape::Full,
            grid,
            n_target: 0,
            trial: 0,
            master_seed: seed,
            comm_range: 10.0,
            deployment: Deployment::Scenario { holes, per_cell },
            fault_plan: FaultPlan::new(),
        }
    }

    /// The spec of campaign trial `(cell, trial)` of `cfg` — the bridge
    /// from a failed campaign coordinate to a replayable artifact.
    /// Degraded-mode cells resolve to the event-driven drive with the
    /// cell's network model, so the spec re-runs exactly what the
    /// campaign worker ran.
    ///
    /// # Errors
    ///
    /// [`ReplayError::BadCell`] when `cell` is outside the matrix.
    pub fn for_campaign_trial(
        cfg: &CampaignConfig,
        cell: usize,
        trial: u64,
    ) -> Result<ReplaySpec, ReplayError> {
        let cells = cfg.cell_count();
        if cell >= cells {
            return Err(ReplayError::BadCell { cell, cells });
        }
        let (scheme, region, grid, n_target) = cfg.cell_params(cell);
        let drive = if cfg.mode == CampaignMode::Degraded {
            DriveMode::EventDriven {
                net: cfg.cell_net(cell),
            }
        } else {
            DriveMode::Classic
        };
        Ok(ReplaySpec {
            scheme: scheme.to_string(),
            drive,
            region,
            grid,
            n_target,
            trial,
            master_seed: cfg.master_seed,
            comm_range: cfg.comm_range,
            deployment: Deployment::Matrix(cfg.mode),
            fault_plan: FaultPlan::new(),
        })
    }

    /// The same spec with a different drive mode.
    #[must_use]
    pub fn with_drive(mut self, drive: DriveMode) -> ReplaySpec {
        self.drive = drive;
        self
    }

    /// The same spec with a different scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: &str) -> ReplaySpec {
        self.scheme = scheme.to_string();
        self
    }

    /// The same spec with a different fault schedule.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> ReplaySpec {
        self.fault_plan = plan;
        self
    }

    /// The deterministic RNG stream seed of this spec: the campaign
    /// derivation for matrix trials, the raw seed for scenarios.
    pub fn stream_seed(&self) -> u64 {
        match self.deployment {
            Deployment::Matrix(_) => trial_stream_seed(
                self.master_seed,
                self.region,
                self.grid,
                self.n_target,
                self.trial,
            ),
            Deployment::Scenario { .. } => self.master_seed,
        }
    }

    /// Filesystem-safe coordinate slug, unique per spec (used in
    /// artifact names: `replay_<slug>.trace`).
    pub fn slug(&self) -> String {
        let (cols, rows) = self.grid;
        match self.deployment {
            Deployment::Matrix(_) => format!(
                "{}_{}_{}_{}x{}_n{}_t{}",
                self.scheme,
                drive_str(self.drive),
                self.region.label(),
                cols,
                rows,
                self.n_target,
                self.trial
            ),
            Deployment::Scenario { holes, per_cell } => format!(
                "{}_{}_scn{}x{}_h{}_p{}_s{}",
                self.scheme,
                drive_str(self.drive),
                cols,
                rows,
                holes,
                per_cell,
                self.master_seed
            ),
        }
    }

    /// Rebuilds this spec's deployment — byte-identical to what the
    /// campaign workers (or the conformance battery) would build.
    pub fn build_network(&self) -> GridNetwork {
        match self.deployment {
            Deployment::Matrix(mode) => build_trial_network(
                mode,
                self.comm_range,
                self.region,
                self.grid,
                self.n_target,
                self.stream_seed(),
            ),
            Deployment::Scenario { holes, per_cell } => {
                let (cols, rows) = self.grid;
                let sys = GridSystem::for_comm_range(cols, rows, self.comm_range)
                    .expect("scenario grid dimensions are valid");
                let mut rng = SimRng::seed_from_u64(self.master_seed);
                let hole_coords: Vec<_> = rng
                    .sample_indices(sys.cell_count(), holes)
                    .into_iter()
                    .map(|i| sys.coord_of(i))
                    .collect();
                let pos = deploy::with_holes(&sys, &hole_coords, per_cell, &mut rng);
                GridNetwork::new(sys, &pos)
            }
        }
    }
}

fn drive_str(drive: DriveMode) -> String {
    match drive {
        DriveMode::Classic => "classic".into(),
        DriveMode::EventDriven { net } => format!("event-{}", net.token()),
    }
}

/// Parses the drive token an artifact carries: `classic` or
/// `event-<net token>` (see [`NetModelSpec::token`]).
///
/// # Errors
///
/// [`ReplayError::BadArtifact`] for any other token, or an unknown
/// network model.
pub fn parse_drive(s: &str) -> Result<DriveMode, ReplayError> {
    if let Some(token) = s.strip_prefix("event-") {
        let net = NetModelSpec::parse_token(token).ok_or_else(|| {
            ReplayError::BadArtifact(format!("unknown network model token {token:?}"))
        })?;
        return Ok(DriveMode::EventDriven { net });
    }
    match s {
        "classic" => Ok(DriveMode::Classic),
        other => Err(ReplayError::BadArtifact(format!(
            "unknown drive mode {other:?}"
        ))),
    }
}

fn parse_region(s: &str) -> Result<RegionShape, ReplayError> {
    RegionShape::ALL
        .into_iter()
        .find(|r| r.label() == s)
        .ok_or_else(|| ReplayError::BadArtifact(format!("unknown region {s:?}")))
}

/// Instantiates a replayable scheme with a fault schedule attached.
/// SR-family schemes (and the planted self-test scheme) accept any
/// plan; the structure-free baselines are replayable only with an empty
/// plan (their drivers have no fault hook).
///
/// # Errors
///
/// [`ReplayError::UnknownScheme`] for ids this harness cannot build,
/// [`ReplayError::PlanNotSupported`] when a non-empty plan meets a
/// scheme without a fault hook.
pub fn scheme_with_plan(
    id: &str,
    plan: &FaultPlan,
) -> Result<Box<dyn ReplacementScheme>, ReplayError> {
    match id {
        "sr" => Ok(Box::new(Sr::from_config(
            SrConfig::default().with_fault_plan(plan.clone()),
        ))),
        "sr-sc" => Ok(Box::new(SrSc::from_config(
            SrConfig::default().with_fault_plan(plan.clone()),
        ))),
        PLANTED_SCHEME_ID => Ok(Box::new(SabotagedSr::new(plan.clone()))),
        "ar" | "vf" | "smart" => {
            if !plan.is_empty() {
                return Err(ReplayError::PlanNotSupported(id.to_string()));
            }
            Ok(match id {
                "ar" => Box::new(Ar::new()),
                "vf" => Box::new(Vf::new()),
                _ => Box::new(Smart::new()),
            })
        }
        other => Err(ReplayError::UnknownScheme(other.to_string())),
    }
}

/// One recorded run: the spec, the scheme's report, and the full event
/// trace.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The address that produced this run.
    pub spec: ReplaySpec,
    /// The scheme's report.
    pub report: SchemeReport,
    /// The captured event log.
    pub trace: TraceLog,
}

/// Records one run from its spec alone: rebuild the deployment, run the
/// scheme traced, return everything. Deterministic — recording the same
/// spec twice gives byte-identical traces.
///
/// # Errors
///
/// [`ReplayError`] when the scheme is unknown, refuses the spec, or
/// cannot carry the fault schedule.
pub fn record(spec: &ReplaySpec) -> Result<Recording, ReplayError> {
    let scheme = scheme_with_plan(&spec.scheme, &spec.fault_plan)?;
    let mut net = spec.build_network();
    let (report, trace) = scheme.run_traced(&mut net, spec.stream_seed(), spec.drive)?;
    Ok(Recording {
        spec: spec.clone(),
        report,
        trace,
    })
}

/// Whether two recordings disagree: either the traces diverge or the
/// cost counters differ. `rounds` is left out of the counter check
/// ([`wsn_simcore::Metrics::ignoring_rounds`]): the trace diff already
/// pins the round of every event.
pub fn recordings_diverge(left: &Recording, right: &Recording) -> bool {
    !diff_logs(&left.trace, &right.trace).is_clean()
        || left.report.metrics.ignoring_rounds() != right.report.metrics.ignoring_rounds()
}

/// Minimizes `left.fault_plan` while the two specs still disagree
/// (trace or cost divergence) under the shrunk schedule. The two specs
/// are re-recorded for every candidate — expensive but exact; the
/// returned report counts the oracle calls.
///
/// # Errors
///
/// [`ReplayError`] when either scheme cannot be instantiated with the
/// initial plan (candidate plans that fail to run are treated as
/// non-reproducing instead).
pub fn shrink_between(left: &ReplaySpec, right: &ReplaySpec) -> Result<ShrinkReport, ReplayError> {
    scheme_with_plan(&left.scheme, &left.fault_plan)?;
    scheme_with_plan(&right.scheme, &left.fault_plan)?;
    Ok(shrink_fault_plan(&left.fault_plan, |plan| {
        let l = record(&left.clone().with_plan(plan.clone()));
        let r = record(&right.clone().with_plan(plan.clone()));
        match (l, r) {
            (Ok(l), Ok(r)) => recordings_diverge(&l, &r),
            _ => false,
        }
    }))
}

/// Renders a fault schedule as the compact text form stored in artifact
/// metadata and `.shrunk.txt` files: `round:kind:args` batches joined
/// by `;`. Floats use shortest round-trip notation, so
/// [`fault_plan_from_str`] inverts this exactly.
pub fn fault_plan_to_string(plan: &FaultPlan) -> String {
    plan.events()
        .iter()
        .map(|e| match &e.event {
            FaultEvent::KillNodes(ids) => format!(
                "{}:kill-nodes:{}",
                e.round,
                ids.iter()
                    .map(|id| id.raw().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            FaultEvent::KillRandomEnabled { count } => {
                format!("{}:kill-random:{count}", e.round)
            }
            FaultEvent::KillRegion(d) => format!(
                "{}:kill-region:{},{},{}",
                e.round,
                d.center().x,
                d.center().y,
                d.radius()
            ),
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses the text form produced by [`fault_plan_to_string`].
///
/// # Errors
///
/// [`ReplayError::BadArtifact`] naming the malformed batch.
pub fn fault_plan_from_str(s: &str) -> Result<FaultPlan, ReplayError> {
    let mut plan = FaultPlan::new();
    for batch in s.split(';') {
        let batch = batch.trim();
        if batch.is_empty() {
            continue;
        }
        let bad = || ReplayError::BadArtifact(format!("bad fault batch {batch:?}"));
        let mut parts = batch.splitn(3, ':');
        let round: u64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let kind = parts.next().ok_or_else(bad)?;
        let args = parts.next().unwrap_or("");
        let event = match kind {
            "kill-nodes" => {
                let mut ids = Vec::new();
                for tok in args.split(',').filter(|t| !t.is_empty()) {
                    ids.push(NodeId::new(tok.parse().map_err(|_| bad())?));
                }
                FaultEvent::KillNodes(ids)
            }
            "kill-random" => FaultEvent::KillRandomEnabled {
                count: args.parse().map_err(|_| bad())?,
            },
            "kill-region" => {
                let nums: Vec<f64> = args
                    .split(',')
                    .map(|t| t.parse::<f64>().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?;
                let [x, y, r] = nums[..] else {
                    return Err(bad());
                };
                let disk = wsn_geometry::Disk::new(wsn_geometry::Point2::new(x, y), r)
                    .map_err(|_| bad())?;
                FaultEvent::KillRegion(disk)
            }
            _ => return Err(bad()),
        };
        plan = plan.at(round, event);
    }
    Ok(plan)
}

/// A saved recording: the spec (plus the baseline it diverged from, if
/// any) and the trace, serialized into the binary trace container's
/// metadata block.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArtifact {
    /// The recorded run's address.
    pub spec: ReplaySpec,
    /// The scheme + drive this run was compared against, when the
    /// artifact documents a divergence.
    pub baseline: Option<(String, DriveMode)>,
    /// The recorded event log.
    pub trace: TraceLog,
}

impl ReplayArtifact {
    /// Wraps a recording (drops the report — it is reproducible from
    /// the spec).
    pub fn from_recording(rec: &Recording, baseline: Option<(String, DriveMode)>) -> Self {
        ReplayArtifact {
            spec: rec.spec.clone(),
            baseline,
            trace: rec.trace.clone(),
        }
    }

    /// Canonical artifact file name: `replay_<coordinate slug>.trace`.
    pub fn file_name(&self) -> String {
        format!("replay_{}.trace", self.spec.slug())
    }

    /// Serializes into the binary trace container with the spec in the
    /// metadata block.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (cols, rows) = self.spec.grid;
        let mut meta: Vec<(String, String)> = vec![
            ("schema".into(), ARTIFACT_SCHEMA.into()),
            ("scheme".into(), self.spec.scheme.clone()),
            ("drive".into(), drive_str(self.spec.drive)),
            ("region".into(), self.spec.region.label().into()),
            ("cols".into(), cols.to_string()),
            ("rows".into(), rows.to_string()),
            ("n_target".into(), self.spec.n_target.to_string()),
            ("trial".into(), self.spec.trial.to_string()),
            ("master_seed".into(), self.spec.master_seed.to_string()),
            ("comm_range".into(), self.spec.comm_range.to_string()),
            (
                "deployment".into(),
                match self.spec.deployment {
                    Deployment::Matrix(CampaignMode::FullRecovery) => "full-recovery".into(),
                    Deployment::Matrix(CampaignMode::SingleReplacement) => {
                        "single-replacement".into()
                    }
                    Deployment::Matrix(CampaignMode::SteadyState) => "steady-state".into(),
                    Deployment::Matrix(CampaignMode::Degraded) => "degraded".into(),
                    Deployment::Scenario { holes, per_cell } => {
                        format!("scenario:{holes}:{per_cell}")
                    }
                },
            ),
            (
                "fault_plan".into(),
                fault_plan_to_string(&self.spec.fault_plan),
            ),
        ];
        if let Some((scheme, drive)) = &self.baseline {
            meta.push(("baseline".into(), scheme.clone()));
            meta.push(("baseline_drive".into(), drive_str(*drive)));
        }
        binary::encode(&meta, &self.trace)
    }

    /// Deserializes an artifact produced by [`ReplayArtifact::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ReplayError::BadArtifact`] on codec errors, a wrong schema tag
    /// or missing/malformed metadata.
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayArtifact, ReplayError> {
        let (meta, trace) =
            binary::decode(bytes).map_err(|e| ReplayError::BadArtifact(e.to_string()))?;
        let get = |key: &str| -> Result<&str, ReplayError> {
            meta.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| ReplayError::BadArtifact(format!("missing meta key {key:?}")))
        };
        let schema = get("schema")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(ReplayError::BadArtifact(format!(
                "unsupported schema {schema:?}"
            )));
        }
        let parse_num = |key: &str| -> Result<u64, ReplayError> {
            get(key)?
                .parse()
                .map_err(|_| ReplayError::BadArtifact(format!("bad meta value for {key:?}")))
        };
        let deployment = match get("deployment")? {
            "full-recovery" => Deployment::Matrix(CampaignMode::FullRecovery),
            "single-replacement" => Deployment::Matrix(CampaignMode::SingleReplacement),
            "steady-state" => Deployment::Matrix(CampaignMode::SteadyState),
            "degraded" => Deployment::Matrix(CampaignMode::Degraded),
            s if s.starts_with("scenario:") => {
                let rest: Vec<&str> = s["scenario:".len()..].split(':').collect();
                let [holes, per_cell] = rest[..] else {
                    return Err(ReplayError::BadArtifact(format!("bad deployment {s:?}")));
                };
                Deployment::Scenario {
                    holes: holes
                        .parse()
                        .map_err(|_| ReplayError::BadArtifact("bad scenario holes".into()))?,
                    per_cell: per_cell
                        .parse()
                        .map_err(|_| ReplayError::BadArtifact("bad scenario per_cell".into()))?,
                }
            }
            other => {
                return Err(ReplayError::BadArtifact(format!(
                    "unknown deployment {other:?}"
                )))
            }
        };
        let baseline = match meta.iter().find(|(k, _)| k == "baseline") {
            Some((_, scheme)) => Some((scheme.clone(), parse_drive(get("baseline_drive")?)?)),
            None => None,
        };
        let spec = ReplaySpec {
            scheme: get("scheme")?.to_string(),
            drive: parse_drive(get("drive")?)?,
            region: parse_region(get("region")?)?,
            grid: (parse_num("cols")? as u16, parse_num("rows")? as u16),
            n_target: parse_num("n_target")? as usize,
            trial: parse_num("trial")?,
            master_seed: parse_num("master_seed")?,
            comm_range: get("comm_range")?
                .parse()
                .map_err(|_| ReplayError::BadArtifact("bad comm_range".into()))?,
            deployment,
            fault_plan: fault_plan_from_str(get("fault_plan")?)?,
        };
        Ok(ReplayArtifact {
            spec,
            baseline,
            trace,
        })
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), ReplayError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| ReplayError::Io(e.to_string()))?;
        }
        std::fs::write(path, self.to_bytes()).map_err(|e| ReplayError::Io(e.to_string()))
    }

    /// Reads an artifact from `path`.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`] on filesystem failures,
    /// [`ReplayError::BadArtifact`] on malformed contents.
    pub fn load(path: &Path) -> Result<ReplayArtifact, ReplayError> {
        let bytes = std::fs::read(path).map_err(|e| ReplayError::Io(e.to_string()))?;
        ReplayArtifact::from_bytes(&bytes)
    }

    /// Re-executes the artifact's spec and diffs the fresh trace against
    /// the recorded one — the golden-fixture check: a committed trace
    /// must replay clean on every machine.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] when the spec no longer runs.
    pub fn verify(&self) -> Result<TraceDiff, ReplayError> {
        let fresh = record(&self.spec)?;
        Ok(diff_logs(&self.trace, &fresh.trace))
    }
}

/// On-divergence reporting for the conformance battery: re-records both
/// sides traced, writes both artifacts (cross-referenced as each
/// other's baseline) into `dir`, shrinks the fault schedule when there
/// is one, writes the shrunk schedule next to the artifacts, and
/// returns the assembled panic message — first divergent event,
/// artifact paths, minimal schedule.
///
/// # Errors
///
/// [`ReplayError`] when recording or writing fails; callers in test
/// code usually `unwrap_or_else` into a plainer panic.
pub fn divergence_message(
    dir: &Path,
    tag: &str,
    left: &ReplaySpec,
    right: &ReplaySpec,
) -> Result<String, ReplayError> {
    use std::fmt::Write as _;
    let left_rec = record(left)?;
    let right_rec = record(right)?;
    let diff = diff_logs(&left_rec.trace, &right_rec.trace);
    let left_art =
        ReplayArtifact::from_recording(&left_rec, Some((right.scheme.clone(), right.drive)));
    let right_art =
        ReplayArtifact::from_recording(&right_rec, Some((left.scheme.clone(), left.drive)));
    let left_path = dir.join(left_art.file_name());
    let right_path = dir.join(right_art.file_name());
    left_art.save(&left_path)?;
    right_art.save(&right_path)?;
    let mut msg = format!(
        "{tag}: runs diverged\n{diff}\nartifacts:\n  {}\n  {}\n",
        left_path.display(),
        right_path.display()
    );
    if !left.fault_plan.is_empty() {
        let shrunk = shrink_between(left, right)?;
        if shrunk.reproduced {
            let text = fault_plan_to_string(&shrunk.plan);
            let shrunk_path = dir.join(format!("replay_{}.shrunk.txt", left.spec_slug_base()));
            std::fs::write(&shrunk_path, format!("{text}\n"))
                .map_err(|e| ReplayError::Io(e.to_string()))?;
            let _ = write!(
                msg,
                "minimal failing schedule ({} of {} batches, {} oracle runs): {}\n  {}",
                shrunk.plan.events().len(),
                shrunk.initial_batches,
                shrunk.oracle_calls,
                if text.is_empty() { "<empty>" } else { &text },
                shrunk_path.display()
            );
        }
    }
    Ok(msg)
}

impl ReplaySpec {
    /// Slug without the drive-mode segment (shared by the two sides of
    /// a conformance divergence).
    fn spec_slug_base(&self) -> String {
        self.slug()
            .replace(&format!("_{}_", drive_str(self.drive)), "_")
    }
}

/// Compares the trace of a recording against the counters its report
/// claims: every billed move leaves exactly one `node_moved` event, so
/// for a traced run `count_kind("node_moved")` must equal
/// `metrics.moves`. (THEORY.md maps the paper's one-message-per-hop and
/// single-initiation claims onto the trace vocabulary the same way.)
pub fn trace_matches_metrics(rec: &Recording) -> Result<(), String> {
    let moves = rec.trace.count_kind("node_moved") as u64;
    if rec.trace.is_enabled() && moves != rec.report.metrics.moves {
        return Err(format!(
            "trace records {moves} node_moved events but metrics bill {}",
            rec.report.metrics.moves
        ));
    }
    Ok(())
}

/// The planted conformance bug (test fixture): real SR, except that
/// when the fault schedule kills listed nodes at or after
/// [`PLANTED_TRIGGER_ROUND`] it corrupts the first notification event
/// recorded at or after that round (re-routing it to its own sender)
/// and bills one phantom message. Both corruptions are deterministic,
/// so the divergence against real SR reproduces bit-identically —
/// which is exactly what the shrinker tests and the CI smoke need.
///
/// Never registered in [`wsn_baselines::builtins`]; only
/// [`scheme_with_plan`] resolves it, by the explicit id
/// [`PLANTED_SCHEME_ID`].
#[derive(Debug)]
pub struct SabotagedSr {
    inner: Sr,
    plan: FaultPlan,
}

impl SabotagedSr {
    /// A planted-bug SR carrying `plan`.
    pub fn new(plan: FaultPlan) -> SabotagedSr {
        SabotagedSr {
            inner: Sr::from_config(SrConfig::default().with_fault_plan(plan.clone())),
            plan,
        }
    }

    fn triggered(&self) -> bool {
        self.plan.events().iter().any(|e| {
            e.round >= PLANTED_TRIGGER_ROUND
                && matches!(&e.event, FaultEvent::KillNodes(ids) if !ids.is_empty())
        })
    }
}

impl ReplacementScheme for SabotagedSr {
    fn id(&self) -> &str {
        PLANTED_SCHEME_ID
    }

    fn label(&self) -> &str {
        "SR (planted bug)"
    }

    fn supports(&self, spec: &wsn_coverage::scheme::NetworkSpec) -> Result<(), Unsupported> {
        self.inner.supports(spec)
    }

    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported> {
        self.run_traced(net, seed, mode).map(|(report, _)| report)
    }

    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        let (mut report, trace) = self.inner.run_traced(net, seed, mode)?;
        if !self.triggered() {
            return Ok((report, trace));
        }
        report.metrics.messages += 1;
        let mut corrupted = TraceLog::new();
        let mut done = false;
        for r in trace.records() {
            match &r.event {
                TraceEvent::NotificationSent { process, from, .. }
                    if !done && r.round >= PLANTED_TRIGGER_ROUND =>
                {
                    done = true;
                    corrupted.record(
                        r.round,
                        TraceEvent::NotificationSent {
                            process: *process,
                            from: *from,
                            to: *from, // the bug: notification routed to its own sender
                        },
                    );
                }
                _ => corrupted.record(r.round, r.event.clone()),
            }
        }
        if !done {
            // No notification after the trigger round (the killed nodes
            // left no vacancy): fabricate a phantom one so the bug is
            // still observable whenever it is armed.
            let round = trace.records().last().map_or(0, |r| r.round) + 1;
            corrupted.record(
                round,
                TraceEvent::NotificationSent {
                    process: 0,
                    from: (0, 0),
                    to: (0, 0),
                },
            );
        }
        Ok((report, corrupted))
    }
}
