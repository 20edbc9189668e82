//! **SR-SC** — the short-cut extension the paper leaves as future work.
//!
//! The paper's §5: "A short-cut along the Hamilton cycle can reduce the
//! length of the path for replacement process to approach a spare node.
//! The construction of such a short-cut will be our future work … the
//! cost of SR will be reduced greatly in the cases when N < 55."
//!
//! This module implements one concrete such construction, staying within
//! the paper's 1-hop communication model:
//!
//! * When a hole is detected, its monitor (the hole's predecessor on the
//!   directed Hamilton cycle) forwards the notification backward
//!   hop-by-hop along the cycle — one message per hop, no head *moves*
//!   to keep the search going — until it reaches a head whose cell holds
//!   a spare. That walk is the shortest backward path to a spare.
//! * The spare found there (the lowest-id one) travels **straight across
//!   the grid** to the hole: one movement per replacement instead of
//!   Theorem 2's `M(L, N)`, and a chord-length distance instead of a
//!   path-length one.
//! * Every round each spare-less head exchanges a beacon with its
//!   predecessor (the same link the notifications use), billed as one
//!   scanned cell per on-ring cell so the scan-cost comparison against
//!   SR's O(changed) detection stays honest. Under the event drive
//!   ([`crate::link`]) each beacon is a real message through the link.
//!
//! Trade-off (quantified by `bench_ablation` and the `figsc` extension
//! figure): SR-SC pays one notification message per backward hop and the
//! beacon overhead, in exchange for collapsing the movement count; at low
//! `N` — exactly where the paper predicts — the savings are largest. The
//! single long straight move also concentrates battery drain on one node
//! instead of spreading it over the cascade, which is why SR proper
//! remains the better choice for energy-balanced deployments.
//!
//! The construction is defined on structures with a unique predecessor
//! per cell: single Hamilton cycles and the masked virtual ring of
//! irregular regions ([`wsn_hamilton::MaskedCycle`]) — so SR-SC runs
//! unchanged on masked grids. Odd×odd (dual-path) grids are rejected
//! with [`SrError::ShortcutNeedsCycle`]: extending the walk over the
//! A/B fork is possible but the paper's future-work remark targets the
//! plain cycle.

use wsn_grid::{GridCoord, GridNetwork, NetworkStats};
use wsn_hamilton::{CycleTopology, HamiltonCycle, MaskedCycle};
use wsn_simcore::{
    EnergyModel, Metrics, NetModelSpec, ProtocolHealth, RoundOutcome, RoundProtocol, RoundRunner,
    RunReport, SimRng, TraceEvent, TraceLog,
};

use crate::link::{endpoint, Baton, EventState};
use crate::movement::movement_target;
use crate::process::{ProcessId, ProcessStatus, ProcessSummary};
use crate::recovery::SrError;
use crate::scheme::{SchemeDetails, SchemeReport};
use crate::{DetectionOutcome, SpareSelection, SrConfig};

/// The backward ring SR-SC forwards notifications along: either the
/// paper's single Hamilton cycle or the masked virtual ring. Both give
/// every on-ring cell a unique predecessor, which is all the courier
/// walk needs.
#[derive(Debug, Clone)]
pub(crate) enum ScRing {
    Cycle(HamiltonCycle),
    Masked(MaskedCycle),
}

impl ScRing {
    pub(crate) fn predecessor(&self, cell: GridCoord) -> GridCoord {
        match self {
            ScRing::Cycle(c) => c.predecessor(cell),
            ScRing::Masked(m) => m.predecessor(cell),
        }
    }

    /// Cells on the ring (all cells for a cycle, enabled cells for a
    /// masked ring).
    pub(crate) fn len(&self) -> usize {
        match self {
            ScRing::Cycle(c) => c.len(),
            ScRing::Masked(m) => m.len(),
        }
    }

    /// The walk bound `L` (Theorem 2's parameter on the structure).
    pub(crate) fn max_hops(&self) -> usize {
        match self {
            ScRing::Cycle(c) => c.deduced_path_hops(),
            ScRing::Masked(m) => m.max_walk_hops(),
        }
    }
}

#[derive(Debug, Clone)]
struct ScProcess {
    id: ProcessId,
    hole: GridCoord,
    /// Where the notification currently sits.
    courier: GridCoord,
    /// Hops forwarded so far.
    forwarded: usize,
    /// Whether the courier head holds the notification (always, without
    /// a link).
    baton: Baton,
}

/// The SR-SC protocol (see the module docs). Under the event drive a
/// dropped courier forward permanently strands the repair: the hole
/// stays owned by its process, so — unlike SR — no duplicate rescues it
/// ([`ProtocolHealth::stalled_repairs`]).
#[derive(Debug, Clone)]
pub struct ShortcutProtocol {
    net: GridNetwork,
    cycle: ScRing,
    config: SrConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    active: Vec<ScProcess>,
    summaries: Vec<ProcessSummary>,
    failed_holes: std::collections::HashSet<GridCoord>,
    /// Current holes (dense indices, row-major), maintained from the
    /// occupancy change journal — same word-level O(changed) detection
    /// as SR ([`wsn_grid::HoleSet`]).
    pending_holes: wsn_grid::HoleSet,
    /// Scratch buffer reused by detection sweeps.
    detect_buf: Vec<usize>,
    /// The network link and envelopes in flight under the event drive;
    /// `None` in the classic drive.
    event: Option<EventState>,
}

impl ShortcutProtocol {
    /// Creates the protocol over a unique-predecessor ring.
    pub(crate) fn new(mut net: GridNetwork, cycle: ScRing, config: SrConfig) -> Self {
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let trace = if config.trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        let mut pending_holes = wsn_grid::HoleSet::new(net.system().cell_count());
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        ShortcutProtocol {
            net,
            cycle,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            active: Vec::new(),
            summaries: Vec::new(),
            failed_holes: std::collections::HashSet::new(),
            pending_holes,
            detect_buf: Vec::new(),
            event: None,
        }
    }

    /// Attaches `spec`'s link (the event drive) to a fresh protocol.
    pub(crate) fn attach_net_model(&mut self, spec: NetModelSpec) {
        self.event = Some(EventState::new(spec, self.config.seed));
    }

    /// The distributed-health ledger accumulated by the network link
    /// (all-zero in the classic drive).
    pub fn health(&self) -> ProtocolHealth {
        self.event
            .as_ref()
            .map(|ev| ev.link.health)
            .unwrap_or_default()
    }

    /// The network state.
    pub fn network(&self) -> &GridNetwork {
        &self.net
    }

    /// Cost counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Per-process summaries.
    pub fn process_summaries(&self) -> &[ProcessSummary] {
        &self.summaries
    }

    /// Marks still-active processes failed (driver calls after the run);
    /// under the event drive, stranded couriers count as stalled
    /// repairs.
    pub fn fail_remaining(&mut self, round: u64) {
        for p in self.active.drain(..) {
            let s = &mut self.summaries[p.id.raw() as usize];
            s.status = ProcessStatus::Failed;
            s.ended_round = Some(round);
            self.metrics.processes_failed += 1;
            let reason = match &mut self.event {
                Some(ev) if p.baton != Baton::Held => {
                    ev.link.health.stalled_repairs += 1;
                    "notification lost in the network (run ended)"
                }
                _ => "no reachable spare (run ended)",
            };
            self.trace.record(
                round,
                TraceEvent::ProcessFailed {
                    process: p.id.raw(),
                    reason: reason.into(),
                },
            );
        }
    }

    fn spare_count(&self, cell: GridCoord) -> usize {
        self.net.spare_count(cell).unwrap_or(0)
    }

    /// Delivers due envelopes (event drive only); courier notifications
    /// become actionable.
    fn drain_due(&mut self, round: u64) {
        while let Some(process) = self.event.as_mut().and_then(|ev| ev.next_due_baton(round)) {
            if let Some(p) = self.active.iter_mut().find(|p| p.id.raw() == process) {
                p.baton = Baton::Held;
            }
        }
    }

    /// The per-round beacon exchange: every spare-less head hears from
    /// its predecessor. Billed as one scanned cell per on-ring cell;
    /// under the event drive each beacon is sensed through the link in
    /// row-major order, advancing the link's per-pair message counters.
    fn beacons(&mut self) {
        self.metrics.cells_scanned += self.cycle.len() as u64;
        let Some(ev) = &mut self.event else {
            return;
        };
        for coord in self.net.system().iter_coords() {
            // Disabled (off-ring) cells have no head; vacant cells have
            // nobody to listen; cells with a spare need no beacon.
            if !self.net.is_cell_enabled(coord).unwrap_or(false)
                || self.net.is_vacant(coord).unwrap_or(true)
                || self.net.spare_count(coord).unwrap_or(0) > 0
            {
                continue;
            }
            let pred = self.cycle.predecessor(coord);
            ev.link
                .sense(endpoint(&self.net, pred), endpoint(&self.net, coord));
        }
    }

    fn step_process(&mut self, i: usize, round: u64) -> bool {
        let p = self.active[i].clone();
        if p.baton != Baton::Held {
            return false;
        }
        if self.net.is_vacant(p.courier).unwrap_or(true) {
            // Courier cell lost its head (hole run); wait for its repair.
            return false;
        }
        if self.spare_count(p.courier) > 0 {
            // Dispatch: the spare flies straight to the hole.
            if let Some(ev) = &mut self.event {
                ev.link.local(); // SpareRequest to the co-located spare
            }
            let spare = SpareSelection::FirstId
                .select(&self.net, p.courier, p.hole)
                .expect("non-empty by spare_count");
            let dest = movement_target(self.net.system(), p.hole, &mut self.rng);
            let out = self
                .net
                .move_node(spare, dest)
                .expect("targets inside the area");
            self.net
                .set_head(p.hole, spare)
                .expect("spare just arrived");
            self.metrics.record_move(out.distance);
            self.metrics.energy += self.energy.movement(out.distance);
            self.trace.record(
                round,
                TraceEvent::NodeMoved {
                    process: Some(p.id.raw()),
                    node: spare,
                    from: out.from.into(),
                    to: out.to.into(),
                    distance: out.distance,
                },
            );
            let s = &mut self.summaries[p.id.raw() as usize];
            s.hops = p.forwarded as u64 + 1;
            s.moves += 1;
            s.distance += out.distance;
            s.status = ProcessStatus::Converged;
            s.ended_round = Some(round);
            self.metrics.processes_converged += 1;
            self.trace.record(
                round,
                TraceEvent::ProcessConverged {
                    process: p.id.raw(),
                    moves: s.moves,
                },
            );
            self.active.remove(i);
            if let Some(ev) = &mut self.event {
                ev.ack(&self.net, &mut self.trace, p.hole, p.courier, round);
            }
            return true;
        }
        if p.forwarded >= self.cycle.max_hops() {
            let s = &mut self.summaries[p.id.raw() as usize];
            s.status = ProcessStatus::Failed;
            s.ended_round = Some(round);
            self.metrics.processes_failed += 1;
            self.trace.record(
                round,
                TraceEvent::ProcessFailed {
                    process: p.id.raw(),
                    reason: "notification circled the cycle without finding a spare".into(),
                },
            );
            self.failed_holes.insert(p.hole);
            self.active.remove(i);
            return true;
        }
        // Forward the notification one hop backward: SR's backward
        // search, minus the node movements.
        let next = self.cycle.predecessor(p.courier);
        // Skip over the hole itself (its cell cannot relay or hold the
        // spare we are looking for).
        let target = if next == p.hole {
            self.cycle.predecessor(next)
        } else {
            next
        };
        self.active[i].courier = target;
        self.active[i].forwarded += 1;
        self.metrics.record_message();
        self.metrics.energy += self.energy.message_cost;
        self.trace.record(
            round,
            TraceEvent::NotificationSent {
                process: p.id.raw(),
                from: p.courier.into(),
                to: target.into(),
            },
        );
        if let Some(ev) = &mut self.event {
            let id = p.id.raw();
            self.active[i].baton =
                ev.announce(&self.net, &mut self.trace, id, p.courier, target, round);
        }
        true
    }

    fn detect_and_initiate(&mut self, round: u64) -> DetectionOutcome {
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        let mut outcome = DetectionOutcome::default();
        for &idx in &buf {
            let g = self.net.system().coord_of(idx);
            if self.failed_holes.contains(&g) || self.active.iter().any(|p| p.hole == g) {
                continue;
            }
            let monitor = self.cycle.predecessor(g);
            if self.net.is_vacant(monitor).unwrap_or(true) {
                continue;
            }
            if let Some(ev) = &mut self.event {
                if !ev.probe(&self.net, &mut self.trace, monitor, g, round) {
                    outcome.pending += 1;
                    continue;
                }
            }
            let id = ProcessId::new(self.summaries.len() as u64);
            self.summaries.push(ProcessSummary {
                id,
                hole: g,
                initiator: monitor,
                initiated_round: round,
                ended_round: None,
                status: ProcessStatus::Active,
                hops: 0,
                moves: 0,
                distance: 0.0,
            });
            self.active.push(ScProcess {
                id,
                hole: g,
                courier: monitor,
                forwarded: 0,
                baton: Baton::Held,
            });
            self.metrics.processes_initiated += 1;
            self.trace.record(
                round,
                TraceEvent::ProcessInitiated {
                    process: id.raw(),
                    hole: g.into(),
                    initiator: monitor.into(),
                },
            );
            outcome.initiated += 1;
        }
        self.detect_buf = buf;
        outcome
    }
}

impl RoundProtocol for ShortcutProtocol {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;
        self.drain_due(round);
        let fault_events: Vec<_> = self.config.fault_plan.events_at(round).cloned().collect();
        for ev in fault_events {
            let killed = self.net.apply_fault(&ev, &mut self.rng);
            if !killed.is_empty() {
                self.failed_holes.clear();
                progress = true;
            }
        }
        progress |= self.net.repair_heads(self.config.election, &mut self.rng) > 0;
        self.beacons();
        let mut i = 0;
        while i < self.active.len() {
            let before = self.active.len();
            progress |= self.step_process(i, round);
            if self.active.len() == before {
                i += 1;
            }
        }
        progress |= self.detect_and_initiate(round).any_activity();
        progress |= self
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);
        progress |= self.event.as_ref().is_some_and(EventState::in_flight);
        self.metrics.rounds = round + 1;
        if progress {
            RoundOutcome::Progress
        } else {
            RoundOutcome::Quiescent
        }
    }
}

/// Drives SR-SC recovery to quiescence (the shortcut counterpart of
/// [`crate::Recovery`]).
#[derive(Debug, Clone)]
pub struct ShortcutRecovery {
    protocol: ShortcutProtocol,
    runner: RoundRunner,
}

impl ShortcutRecovery {
    /// Builds the shortcut recovery. Full rectangular networks use the
    /// paper's Hamilton cycle; networks over an irregular
    /// [`wsn_grid::RegionMask`] use the masked virtual ring, so SR-SC
    /// runs unchanged on masked grids.
    ///
    /// # Errors
    ///
    /// [`SrError::ShortcutNeedsCycle`] on full odd×odd grids (only the
    /// dual-path structure exists there), [`SrError::Topology`] for
    /// regions with no structure at all, and [`SrError::Engine`] for
    /// invalid round caps.
    pub fn new(net: GridNetwork, config: SrConfig) -> Result<ShortcutRecovery, SrError> {
        let topo = CycleTopology::build_masked(net.mask())?;
        ShortcutRecovery::with_topology(net, topo, config)
    }

    /// Like [`ShortcutRecovery::new`] with a pre-built topology (see
    /// [`crate::Recovery::with_topology`]); `topo` must have been built
    /// for `net`'s region.
    ///
    /// # Errors
    ///
    /// [`SrError::ShortcutNeedsCycle`] when `topo` is the dual-path
    /// structure, and [`SrError::Engine`] for invalid round caps.
    pub fn with_topology(
        net: GridNetwork,
        topo: CycleTopology,
        config: SrConfig,
    ) -> Result<ShortcutRecovery, SrError> {
        let ring = match topo {
            CycleTopology::Single(cycle) => ScRing::Cycle(cycle),
            CycleTopology::Masked(ring) => ScRing::Masked(ring),
            CycleTopology::Dual(_) => return Err(SrError::ShortcutNeedsCycle),
        };
        let runner = RoundRunner::with_quiescence(config.max_rounds, config.quiescent_rounds)?;
        Ok(ShortcutRecovery {
            protocol: ShortcutProtocol::new(net, ring, config),
            runner,
        })
    }

    /// Attaches `spec`'s network link: the event drive
    /// ([`crate::DriveMode::EventDriven`]), see [`crate::link`].
    #[must_use]
    pub fn with_net_model(mut self, spec: NetModelSpec) -> ShortcutRecovery {
        self.protocol.attach_net_model(spec);
        self
    }

    /// Runs to quiescence and reports.
    pub fn run(&mut self) -> SchemeReport {
        let initial_stats: NetworkStats = self.protocol.network().stats();
        let run: RunReport = self.runner.run(&mut self.protocol);
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

    /// The network state.
    pub fn network(&self) -> &GridNetwork {
        self.protocol.network()
    }

    /// Consumes the driver and releases the network (see
    /// [`crate::Recovery::into_network`]).
    pub fn into_network(self) -> GridNetwork {
        self.protocol.net
    }

    /// The event trace.
    pub fn trace(&self) -> &TraceLog {
        self.protocol.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recovery;
    use wsn_grid::{deploy, GridSystem};

    fn network_with_holes(holes: &[GridCoord], per_cell: usize, seed: u64) -> GridNetwork {
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, holes, per_cell, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn one_move_per_replacement() {
        let holes = [GridCoord::new(2, 2), GridCoord::new(6, 5)];
        let net = network_with_holes(&holes, 2, 1);
        let mut rec = ShortcutRecovery::new(net, SrConfig::default().with_seed(1)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        assert_eq!(report.metrics.processes_converged, 2);
        // The headline property: exactly one movement per hole.
        assert_eq!(report.metrics.moves, 2);
        rec.network().debug_invariants();
    }

    #[test]
    fn beats_sr_on_moves_at_low_spare_density() {
        // One spare far away: SR cascades ~L hops; SR-SC moves once.
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let hole = GridCoord::new(4, 4);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
        let net = GridNetwork::new(sys, &pos);

        let sr = Recovery::new(net.clone(), SrConfig::default().with_seed(2))
            .unwrap()
            .run();
        let sc = ShortcutRecovery::new(net, SrConfig::default().with_seed(2))
            .unwrap()
            .run();
        assert!(sr.fully_covered && sc.fully_covered);
        assert!(sr.metrics.moves > 1);
        assert_eq!(sc.metrics.moves, 1);
        assert!(
            sc.metrics.distance < sr.metrics.distance,
            "straight chord {} must beat the cascade path {}",
            sc.metrics.distance,
            sr.metrics.distance
        );
    }

    #[test]
    fn no_spares_fails_cleanly() {
        let net = network_with_holes(&[GridCoord::new(3, 3)], 1, 3);
        assert_eq!(net.total_spares(), 0);
        let mut rec = ShortcutRecovery::new(net, SrConfig::default().with_seed(3)).unwrap();
        let report = rec.run();
        assert!(report.run.is_quiescent());
        assert!(!report.fully_covered);
        assert!(report.metrics.processes_failed >= 1);
        assert_eq!(report.metrics.moves, 0);
    }

    #[test]
    fn masked_region_dispatches_one_move_per_hole() {
        use wsn_grid::{deploy, RegionMask};
        let sys = GridSystem::new(10, 10, 4.4721).unwrap();
        let mask = RegionMask::annulus(10, 10);
        let mut rng = SimRng::seed_from_u64(13);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes = [enabled[5], enabled[enabled.len() / 2]];
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        let net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let mut rec = ShortcutRecovery::new(net, SrConfig::default().with_seed(13)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered, "{report}");
        // The SR-SC headline survives masking: one movement per hole.
        assert_eq!(report.metrics.moves, 2);
        assert_eq!(report.metrics.processes_failed, 0);
        rec.network().debug_invariants();
        for node in rec.network().nodes() {
            if node.status().is_enabled() {
                assert!(mask.is_enabled(sys.cell_of(node.position()).unwrap()));
            }
        }
    }

    #[test]
    fn dual_path_grids_are_rejected() {
        let sys = GridSystem::new(5, 5, 4.4721).unwrap();
        let net = GridNetwork::new(sys, &[]);
        assert!(matches!(
            ShortcutRecovery::new(net, SrConfig::default()),
            Err(SrError::ShortcutNeedsCycle)
        ));
    }

    #[test]
    fn hole_runs_recover_sequentially() {
        let holes = [
            GridCoord::new(1, 1),
            GridCoord::new(1, 2),
            GridCoord::new(2, 1),
            GridCoord::new(2, 2),
        ];
        let net = network_with_holes(&holes, 2, 5);
        let mut rec = ShortcutRecovery::new(net, SrConfig::default().with_seed(5)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered, "{report}");
        assert_eq!(report.metrics.moves, 4);
        assert_eq!(report.metrics.processes_failed, 0);
        rec.network().debug_invariants();
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let net = network_with_holes(&[GridCoord::new(5, 2)], 2, 7);
            ShortcutRecovery::new(net, SrConfig::default().with_seed(seed))
                .unwrap()
                .run()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn gradient_guides_messages_not_random_walks() {
        // The notification path length equals the true backward
        // distance to the nearest spare.
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let cycle = match CycleTopology::build(6, 6).unwrap() {
            CycleTopology::Single(c) => c,
            _ => unreachable!(),
        };
        let mut rng = SimRng::seed_from_u64(11);
        let hole = cycle.order()[12];
        // Spare 5 backward hops from the hole's monitor.
        let spare_cell = cycle.order()[12 - 6];
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(spare_cell).unwrap().center());
        let net = GridNetwork::new(sys, &pos);
        let mut rec = ShortcutRecovery::new(net, SrConfig::default().with_seed(11)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        assert_eq!(report.processes.len(), 1);
        assert_eq!(report.processes[0].hops, 6, "monitor + 5 forwards");
        assert_eq!(report.metrics.messages, 5);
    }

    /// One spare in a far corner so every repair is a long courier walk.
    fn cascade_network(seed: u64) -> GridNetwork {
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let hole = GridCoord::new(4, 4);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn ideal_sc_matches_classic_byte_for_byte() {
        let holes = [GridCoord::new(2, 2), GridCoord::new(6, 5)];
        let net = network_with_holes(&holes, 2, 1);
        let cfg = SrConfig::default().with_seed(1);
        let classic = ShortcutRecovery::new(net.clone(), cfg.clone())
            .unwrap()
            .run();
        let event = ShortcutRecovery::new(net, cfg)
            .unwrap()
            .with_net_model(NetModelSpec::Ideal)
            .run();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
        assert!(event.health.is_clean());
    }

    #[test]
    fn lossy_sc_strands_couriers_as_stalled_repairs() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 400_000,
            latency: 1,
        };
        let mut stalled = 0u64;
        for seed in 0..24 {
            let net = cascade_network(seed);
            let cfg = SrConfig::default().with_seed(seed).with_max_rounds(60);
            let report = ShortcutRecovery::new(net, cfg)
                .unwrap()
                .with_net_model(spec)
                .run();
            stalled += report.health.stalled_repairs;
        }
        assert!(
            stalled > 0,
            "a dropped courier forward must strand the repair"
        );
    }
}
