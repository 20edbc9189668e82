//! High-level recovery driver: wires the protocol to the round runner and
//! produces a structured report.

use std::fmt;

use wsn_grid::GridNetwork;
use wsn_hamilton::{CycleTopology, HamiltonError};
use wsn_simcore::{EngineError, NetModelSpec, RoundRunner, TraceLog};

use crate::scheme::{SchemeDetails, SchemeReport};
use crate::{SrConfig, SrProtocol};

/// Errors surfaced when assembling a recovery run.
#[derive(Debug, Clone, PartialEq)]
pub enum SrError {
    /// No Hamilton structure exists for the network's grid dimensions.
    Topology(HamiltonError),
    /// Invalid runner configuration (zero round cap or quiescence
    /// window).
    Engine(EngineError),
    /// The SR-SC shortcut variant requires a single Hamilton cycle
    /// (even-sided grid); see [`crate::shortcut`].
    ShortcutNeedsCycle,
}

impl fmt::Display for SrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrError::Topology(e) => write!(f, "topology: {e}"),
            SrError::Engine(e) => write!(f, "engine: {e}"),
            SrError::ShortcutNeedsCycle => write!(
                f,
                "the shortcut variant requires a single hamilton cycle (one even grid side)"
            ),
        }
    }
}

impl std::error::Error for SrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SrError::Topology(e) => Some(e),
            SrError::Engine(e) => Some(e),
            SrError::ShortcutNeedsCycle => None,
        }
    }
}

impl From<HamiltonError> for SrError {
    fn from(e: HamiltonError) -> Self {
        SrError::Topology(e)
    }
}

impl From<EngineError> for SrError {
    fn from(e: EngineError) -> Self {
        SrError::Engine(e)
    }
}

/// Drives SR recovery on a network to quiescence.
///
/// ```
/// use wsn_coverage::{Recovery, SrConfig};
/// use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem};
/// use wsn_simcore::SimRng;
///
/// let system = GridSystem::for_comm_range(6, 6, 10.0)?;
/// let mut rng = SimRng::seed_from_u64(3);
/// let positions = deploy::with_holes(&system, &[GridCoord::new(2, 2)], 2, &mut rng);
/// let net = GridNetwork::new(system, &positions);
///
/// let mut recovery = Recovery::new(net, SrConfig::default())?;
/// let report = recovery.run();
/// assert!(report.fully_covered);
/// assert_eq!(report.metrics.processes_initiated, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Recovery {
    protocol: SrProtocol,
    runner: RoundRunner,
}

impl Recovery {
    /// Builds the cycle topology for the network's region and prepares
    /// the protocol (initial head election happens here). Networks over
    /// a full rectangular mask get the paper's exact constructions; a
    /// network built with [`GridNetwork::with_mask`] over an irregular
    /// region gets the masked virtual ring
    /// ([`wsn_hamilton::MaskedCycle`]) — SR runs unchanged on top.
    ///
    /// # Errors
    ///
    /// [`SrError::Topology`] when the region has no replacement
    /// structure (any side < 2, odd×odd below 3×3, or fewer than two
    /// enabled cells), and [`SrError::Engine`] for invalid round caps in
    /// `config`.
    pub fn new(net: GridNetwork, config: SrConfig) -> Result<Recovery, SrError> {
        let topo = CycleTopology::build_masked(net.mask())?;
        Recovery::with_topology(net, topo, config)
    }

    /// Like [`Recovery::new`] with a pre-built topology — for callers
    /// (e.g. the [`crate::scheme::ReplacementScheme`] impls) that have
    /// already constructed the replacement structure and should not pay
    /// for it twice. `topo` must have been built for `net`'s region
    /// (i.e. from its [`wsn_grid::RegionMask`]).
    ///
    /// # Errors
    ///
    /// [`SrError::Engine`] for invalid round caps in `config`.
    pub fn with_topology(
        net: GridNetwork,
        topo: CycleTopology,
        config: SrConfig,
    ) -> Result<Recovery, SrError> {
        let runner = RoundRunner::with_quiescence(config.max_rounds, config.quiescent_rounds)?;
        Ok(Recovery {
            protocol: SrProtocol::new(net, topo, config),
            runner,
        })
    }

    /// Attaches `spec`'s network link: the event drive
    /// ([`crate::DriveMode::EventDriven`], see [`crate::link`]). The
    /// report's [`SchemeReport::health`] then carries the link's ledger.
    #[must_use]
    pub fn with_net_model(mut self, spec: NetModelSpec) -> Recovery {
        self.protocol.attach_net_model(spec);
        self
    }

    /// Runs to quiescence (or the round cap) and reports.
    pub fn run(&mut self) -> SchemeReport {
        let initial_stats = self.protocol.network().stats();
        let run = self.runner.run(&mut self.protocol);
        self.protocol.fail_remaining(run.rounds);
        let final_stats = self.protocol.network().stats();
        SchemeReport {
            run,
            metrics: *self.protocol.metrics(),
            initial_stats,
            final_stats,
            fully_covered: final_stats.vacant == 0,
            processes: self.protocol.process_summaries().to_vec(),
            health: self.protocol.health(),
            details: SchemeDetails::none(),
        }
    }

    /// Runs using the change-driven quiescence check
    /// ([`wsn_simcore::ChangeDrivenProtocol`]): the run ends the moment
    /// the protocol's pending-hole index shows nothing outstanding,
    /// skipping the idle-confirmation rounds [`Recovery::run`] executes.
    /// Without battery dynamics (the default), coverage outcomes and
    /// per-process results are identical to `run`'s and only the round
    /// accounting differs (no trailing no-op rounds). With
    /// `battery_dynamics` enabled the skipped rounds are not no-ops —
    /// heads burn idle energy every round, and a death in a trailing
    /// round can open a fresh hole — so energy totals (and, at the
    /// margin, coverage) may diverge from `run`'s. Use `run` when
    /// comparing round counts or energy against the paper, and
    /// `run_adaptive` for large-grid scenario harnesses.
    pub fn run_adaptive(&mut self) -> SchemeReport {
        let initial_stats = self.protocol.network().stats();
        let run = self.runner.run_change_driven(&mut self.protocol);
        self.protocol.fail_remaining(run.rounds);
        let final_stats = self.protocol.network().stats();
        SchemeReport {
            run,
            metrics: *self.protocol.metrics(),
            initial_stats,
            final_stats,
            fully_covered: final_stats.vacant == 0,
            processes: self.protocol.process_summaries().to_vec(),
            health: self.protocol.health(),
            details: SchemeDetails::none(),
        }
    }

    /// The network state (before [`Recovery::run`]: as deployed with
    /// heads elected; after: the recovered state).
    pub fn network(&self) -> &GridNetwork {
        self.protocol.network()
    }

    /// Consumes the driver and releases the network — how the
    /// [`crate::scheme::ReplacementScheme`] impl hands the recovered
    /// state back through its `&mut GridNetwork` argument.
    pub fn into_network(self) -> GridNetwork {
        self.protocol.into_network()
    }

    /// The protocol's event trace.
    pub fn trace(&self) -> &TraceLog {
        self.protocol.trace()
    }

    /// The underlying protocol (for custom inspection).
    pub fn protocol(&self) -> &SrProtocol {
        &self.protocol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_grid::{deploy, GridCoord, GridSystem};
    use wsn_simcore::SimRng;

    #[test]
    fn report_round_trip_on_simple_network() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(1, 2)], 2, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let mut rec = Recovery::new(net, SrConfig::default().with_trace(true)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        assert_eq!(report.initial_stats.vacant, 1);
        assert_eq!(report.final_stats.vacant, 0);
        assert_eq!(report.processes.len(), 1);
        assert!(report.run.is_quiescent());
        assert!(!report.to_string().is_empty());
        assert!(!rec.trace().is_empty());
        assert!(rec.protocol().process_summaries().len() == 1);
    }

    #[test]
    fn adaptive_run_matches_classic_run_minus_idle_rounds() {
        let mk = || {
            let sys = GridSystem::new(6, 6, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(8);
            let pos = deploy::with_holes(
                &sys,
                &[GridCoord::new(1, 2), GridCoord::new(4, 4)],
                2,
                &mut rng,
            );
            GridNetwork::new(sys, &pos)
        };
        let classic = Recovery::new(mk(), SrConfig::default().with_seed(8))
            .unwrap()
            .run();
        let adaptive = Recovery::new(mk(), SrConfig::default().with_seed(8))
            .unwrap()
            .run_adaptive();
        assert!(classic.fully_covered && adaptive.fully_covered);
        assert!(classic.run.is_quiescent() && adaptive.run.is_quiescent());
        // Identical work, fewer bookkeeping rounds.
        assert_eq!(adaptive.metrics.moves, classic.metrics.moves);
        assert_eq!(adaptive.metrics.distance, classic.metrics.distance);
        assert_eq!(adaptive.processes.len(), classic.processes.len());
        assert!(adaptive.run.rounds < classic.run.rounds);
    }

    #[test]
    fn masked_regions_recover_all_enabled_holes() {
        use wsn_grid::RegionShape;
        // SR on every irregular preset shape: crafted holes, spares
        // everywhere, full recovery of the enabled region, and zero
        // placements in disabled cells.
        for (i, shape) in RegionShape::IRREGULAR.into_iter().enumerate() {
            let sys = GridSystem::new(12, 12, 4.4721).unwrap();
            let mask = shape.build_mask(12, 12);
            let mut rng = SimRng::seed_from_u64(100 + i as u64);
            let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
            let holes: Vec<GridCoord> = enabled.iter().copied().step_by(17).collect();
            let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
            let net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
            assert_eq!(net.stats().vacant, holes.len(), "{shape}");
            let mut rec =
                Recovery::new(net, SrConfig::default().with_seed(100 + i as u64)).unwrap();
            assert!(rec.protocol().topology().is_masked(), "{shape}");
            let report = rec.run();
            assert!(report.fully_covered, "{shape}: {report}");
            assert_eq!(report.metrics.processes_failed, 0, "{shape}");
            // Exactly one process per hole: the masked ring preserves
            // SR's synchronization on irregular regions.
            assert_eq!(
                report.metrics.processes_initiated,
                holes.len() as u64,
                "{shape}"
            );
            rec.network().debug_invariants();
            for node in rec.network().nodes() {
                if node.status().is_enabled() {
                    let cell = sys.cell_of(node.position()).unwrap();
                    assert!(mask.is_enabled(cell), "{shape}: node in disabled {cell}");
                }
            }
        }
    }

    #[test]
    fn masked_region_with_no_spares_fails_cleanly() {
        use wsn_grid::RegionMask;
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mask = RegionMask::l_shape(8, 8);
        let mut rng = SimRng::seed_from_u64(7);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let pos = deploy::with_holes_masked(&sys, &mask, &[enabled[10]], 1, &mut rng);
        let net = GridNetwork::with_mask(sys, mask, &pos).unwrap();
        assert_eq!(net.total_spares(), 0);
        let mut rec = Recovery::new(net, SrConfig::default()).unwrap();
        let report = rec.run();
        assert!(report.run.is_quiescent());
        assert!(!report.fully_covered);
        assert!(report.metrics.processes_failed >= 1);
    }

    #[test]
    fn intact_network_is_a_no_op() {
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(6);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let mut rec = Recovery::new(net, SrConfig::default()).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        assert_eq!(report.metrics.moves, 0);
        assert_eq!(report.metrics.processes_initiated, 0);
        assert_eq!(report.metrics.success_rate_percent(), 100.0);
    }

    #[test]
    fn error_cases_are_reported() {
        let sys = GridSystem::new(1, 4, 1.0).unwrap();
        let net = GridNetwork::new(sys, &[]);
        match Recovery::new(net, SrConfig::default()) {
            Err(SrError::Topology(_)) => {}
            other => panic!("expected topology error, got {other:?}"),
        }
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let net = GridNetwork::new(sys, &[]);
        let cfg = SrConfig::default().with_max_rounds(0);
        match Recovery::new(net, cfg) {
            Err(SrError::Engine(_)) => {}
            other => panic!("expected engine error, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_and_source() {
        use std::error::Error as _;
        let e = SrError::from(HamiltonError::TooSmall { cols: 1, rows: 1 });
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_some());
        let e = SrError::from(EngineError::ZeroMaxRounds);
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_some());
    }
}
