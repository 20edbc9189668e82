//! **AR**: the unsynchronized snake-like cascading replacement of Jiang
//! et al. (WSNS'07), re-implemented from this paper's description.
//!
//! Differences from SR, per the paper's §1/§5:
//!
//! * *No synchronization:* "due to the lack of synchronization, the
//!   existence of a hole will incur multiple replacement processes" —
//!   here, **every** head 4-adjacent to a vacant cell initiates its own
//!   process.
//! * *Local direction choice:* with only 1-hop knowledge and no global
//!   cycle, each cascade picks its next cell greedily (continue straight
//!   away from the hole when possible, otherwise scan the remaining
//!   neighbors), keeping a per-process visited set.
//! * *Conflicts fail:* two cascades that ask the same head in the same
//!   round collide — the later one fails (the paper's "overreaction").
//!   A cascade that runs into a vacant cell or runs out of unvisited
//!   neighbors also fails; there is no Hamilton path to guarantee
//!   progress, which is why AR "requires at least 4×m×n deployed nodes"
//!   to be reliable.
//! * *Redundant deliveries:* when several processes recover the same
//!   hole, the extra spares still travel (unnecessary node movements,
//!   counted) and the processes still count as converged — Figure 6(b)
//!   measures spare-finding, not usefulness.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use wsn_geometry::sample;
use wsn_grid::{Direction, GridCoord, GridNetwork};
use wsn_simcore::{
    EnergyModel, Fate, Metrics, NetLink, NetModelSpec, NodeId, ProtocolHealth, RoundOutcome,
    RoundProtocol, RoundRunner, SimRng, TraceEvent, TraceLog,
};

use wsn_coverage::link::{endpoint, net_link};
use wsn_coverage::scheme::{SchemeDetails, SchemeReport};
use wsn_coverage::SpareSelection;

/// Configuration for an AR run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArConfig {
    /// Seed for the run's deterministic RNG.
    pub seed: u64,
    /// Head-election policy (same role as in SR).
    pub election: wsn_grid::HeadElection,
    /// Spare-selection policy within a cell.
    pub spare_selection: SpareSelection,
    /// Round cap.
    pub max_rounds: u64,
    /// Cascade TTL in hops (default `m·n` at run time when 0).
    pub ttl: usize,
    /// Record a trace.
    pub trace: bool,
}

impl Default for ArConfig {
    fn default() -> Self {
        ArConfig {
            seed: 0,
            election: wsn_grid::HeadElection::FirstId,
            spare_selection: SpareSelection::ClosestToTarget,
            max_rounds: 100_000,
            ttl: 0,
            trace: false,
        }
    }
}

impl ArConfig {
    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables tracing.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

#[derive(Debug, Clone)]
struct ArProcess {
    id: u64,
    current_target: GridCoord,
    asked: GridCoord,
    visited: HashSet<GridCoord>,
    hops: usize,
    /// First round in which the asked head may act — the in-flight ask's
    /// arrival time under the event engine's network model. Always 0 in
    /// classic mode (asks arrive by axiom).
    ready_at: u64,
}

/// The AR protocol as a round-based state machine.
#[derive(Debug, Clone)]
pub struct ArProtocol {
    net: GridNetwork,
    config: ArConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    active: Vec<ArProcess>,
    next_id: u64,
    /// (initiator, hole) pairs that already fired during the current
    /// vacancy episode of the hole; cleared when the hole fills.
    initiated: HashSet<(GridCoord, GridCoord)>,
    /// Cells where a cascade died. Re-detecting them would retry the
    /// same doomed walk (AR has no mechanism that could do better on a
    /// second attempt), so they stay blacklisted — this is also what
    /// bounds AR in the under-provisioned regime the paper excludes
    /// ("requires at least 4×m×n deployed nodes").
    failed_holes: HashSet<GridCoord>,
    ttl: usize,
    /// Current holes (dense row-major indices), maintained from the
    /// network's occupancy change journal — detection walks this in
    /// O(holes) instead of scanning every cell (word-level
    /// [`wsn_grid::HoleSet`], ascending order). AR keeps its redundant
    /// multi-initiation *per hole*; only hole discovery is indexed.
    pending_holes: wsn_grid::HoleSet,
    /// Scratch buffer reused by detection sweeps.
    detect_buf: Vec<usize>,
    /// The network model, when driven by the event engine
    /// ([`ArProtocol::with_net_model`]); `None` in classic mode, where
    /// detection and asks are axiomatic.
    link: Option<NetLink>,
}

impl ArProtocol {
    /// Creates the protocol and elects initial heads.
    pub fn new(mut net: GridNetwork, config: ArConfig) -> ArProtocol {
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let trace = if config.trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        let ttl = if config.ttl == 0 {
            net.system().cell_count()
        } else {
            config.ttl
        };
        let mut pending_holes = wsn_grid::HoleSet::new(net.system().cell_count());
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        ArProtocol {
            net,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            active: Vec::new(),
            next_id: 0,
            initiated: HashSet::new(),
            failed_holes: HashSet::new(),
            ttl,
            pending_holes,
            detect_buf: Vec::new(),
            link: None,
        }
    }

    /// Like [`ArProtocol::new`] but with every monitor probe and cascade
    /// ask routed through `spec`'s network model. The link draws from
    /// its own stream ([`net_link`], shared with SR and SR-SC), so under
    /// [`NetModelSpec::Ideal`] runs are identical to classic runs.
    pub fn with_net_model(net: GridNetwork, config: ArConfig, spec: NetModelSpec) -> ArProtocol {
        let link = net_link(spec, config.seed);
        let mut p = ArProtocol::new(net, config);
        p.link = Some(link);
        p
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

    /// The distributed-health ledger accumulated by the network model
    /// (all-zero in classic mode).
    pub fn health(&self) -> ProtocolHealth {
        self.link.as_ref().map(|l| l.health).unwrap_or_default()
    }

    /// Marks all still-active processes failed (driver calls this after
    /// the run ends). Processes whose ask was still in flight count as
    /// [`ProtocolHealth::stalled_repairs`].
    pub fn fail_remaining(&mut self, round: u64) {
        for p in self.active.drain(..) {
            self.metrics.processes_failed += 1;
            if p.ready_at > round {
                if let Some(link) = &mut self.link {
                    link.health.stalled_repairs += 1;
                }
            }
            self.trace.record(
                round,
                TraceEvent::ProcessFailed {
                    process: p.id,
                    reason: "run ended".into(),
                },
            );
        }
    }

    /// Routes a cascade ask over the network model. Returns the round
    /// the ask becomes actionable, or `None` when the network dropped it
    /// (`0` — immediately actionable — in classic mode).
    fn route_ask(&mut self, from: GridCoord, to: GridCoord, round: u64) -> Option<u64> {
        let Some(link) = &mut self.link else {
            return Some(0);
        };
        let fate = link.route(endpoint(&self.net, from), endpoint(&self.net, to));
        let deliver_at = match fate {
            Fate::Deliver(extra) => Some(round + 1 + extra),
            Fate::Drop => {
                link.health.lost_cascades += 1;
                None
            }
        };
        self.trace.record(
            round,
            TraceEvent::NetMessage {
                msg: "cascade_ask".into(),
                from: from.into(),
                to: to.into(),
                deliver_at,
            },
        );
        deliver_at
    }

    /// A monitor's same-tick occupancy probe of a watched hole. Always
    /// succeeds in classic mode.
    fn probe(&mut self, monitor: GridCoord, hole: GridCoord, round: u64) -> bool {
        let Some(link) = &mut self.link else {
            return true;
        };
        let probed = link.sense(endpoint(&self.net, monitor), endpoint(&self.net, hole));
        self.trace.record(
            round,
            TraceEvent::NetMessage {
                msg: "monitor_probe".into(),
                from: monitor.into(),
                to: hole.into(),
                deliver_at: probed.then_some(round),
            },
        );
        probed
    }

    fn is_occupied(&self, cell: GridCoord) -> bool {
        !self.net.is_vacant(cell).unwrap_or(true)
    }

    /// Whether `cell` can host a head — in bounds and not disabled by
    /// the network's region mask. Disabled cells read as occupied in the
    /// vacancy index (they are never holes), so cascades must filter
    /// them out explicitly before relaying through or initiating from
    /// them.
    fn is_usable(&self, cell: GridCoord) -> bool {
        self.net.is_cell_enabled(cell).unwrap_or(false)
    }

    /// Moves `node` into the central area of `target`; elects it head if
    /// the target was headless.
    fn execute_move(&mut self, process: u64, node: NodeId, target: GridCoord, round: u64) -> f64 {
        let rect = self
            .net
            .system()
            .cell_rect(target)
            .expect("targets are cells");
        let dest =
            sample::point_in_central_area(&rect, self.rng.uniform_f64(), self.rng.uniform_f64());
        let out = self
            .net
            .move_node(node, dest)
            .expect("AR moves stay inside the area");
        if self.net.head_of(target).expect("in bounds").is_none() {
            self.net.set_head(target, node).expect("node just arrived");
        }
        self.metrics.record_move(out.distance);
        self.metrics.energy += self.energy.movement(out.distance);
        self.trace.record(
            round,
            TraceEvent::NodeMoved {
                process: Some(process),
                node,
                from: out.from.into(),
                to: out.to.into(),
                distance: out.distance,
            },
        );
        out.distance
    }

    /// Picks the next cell of a cascade using 1-hop knowledge (heads
    /// beacon their cell's enabled count, so a head knows which neighbors
    /// hold spares): prefer an unvisited neighbor **with a spare**, then
    /// the straight-line continuation away from the target, then any
    /// occupied unvisited neighbor. A cascade with no occupied unvisited
    /// neighbor is dead-ended.
    fn next_cell(&self, p: &ArProcess) -> Option<GridCoord> {
        let sys = self.net.system();
        let straight = p
            .current_target
            .direction_to(p.asked)
            .and_then(|d| sys.neighbor(p.asked, d));
        let mut candidates: Vec<GridCoord> = Vec::with_capacity(4);
        if let Some(s) = straight {
            candidates.push(s);
        }
        for d in Direction::ALL {
            if let Some(c) = sys.neighbor(p.asked, d) {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        candidates
            .retain(|c| self.is_usable(*c) && !p.visited.contains(c) && *c != p.current_target);
        candidates
            .iter()
            .copied()
            .find(|&c| self.net.spare_count(c).map(|n| n > 0).unwrap_or(false))
            .or_else(|| candidates.iter().copied().find(|&c| self.is_occupied(c)))
    }

    fn fail(&mut self, p: ArProcess, reason: &str, round: u64) {
        self.failed_holes.insert(p.current_target);
        self.metrics.processes_failed += 1;
        self.trace.record(
            round,
            TraceEvent::ProcessFailed {
                process: p.id,
                reason: reason.into(),
            },
        );
    }
}

impl RoundProtocol for ArProtocol {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        let mut progress = false;
        let repaired = self.net.repair_heads(self.config.election, &mut self.rng);
        progress |= repaired > 0;

        // Processes execute in id order within the round; conflicts are
        // emergent — a cascade whose cell was drained by an earlier
        // cascade this round finds it vacant and fails.
        let mut still_active = Vec::with_capacity(self.active.len());
        let processes = std::mem::take(&mut self.active);
        for mut p in processes {
            if round < p.ready_at {
                // The ask is still in flight; the asked head does not
                // yet know it has been drafted.
                still_active.push(p);
                continue;
            }
            if !self.is_occupied(p.asked) {
                // No head to act and no synchronization to wait under:
                // either the cell was a hole all along or a competing
                // cascade just drained it (the paper's "overreaction").
                self.fail(p, "cascade ran into a vacant cell", round);
                progress = true;
                continue;
            }
            let spare = self
                .config
                .spare_selection
                .select(&self.net, p.asked, p.current_target);
            if let Some(spare) = spare {
                self.execute_move(p.id, spare, p.current_target, round);
                self.metrics.processes_converged += 1;
                self.trace.record(
                    round,
                    TraceEvent::ProcessConverged {
                        process: p.id,
                        moves: p.hops as u64 + 1,
                    },
                );
                progress = true;
                continue;
            }
            if p.hops + 1 >= self.ttl {
                self.fail(p, "ttl exhausted", round);
                progress = true;
                continue;
            }
            match self.next_cell(&p) {
                Some(next) => {
                    self.metrics.record_message();
                    self.metrics.energy += self.energy.message_cost;
                    let ask = self.route_ask(p.asked, next, round);
                    // The relaying head committed when it sent the ask:
                    // it moves whether or not the ask survives the
                    // channel (the honest failure mode — a stranded
                    // cascade, not a clairvoyant abort).
                    let head = self
                        .net
                        .head_of(p.asked)
                        .expect("in bounds")
                        .expect("occupied cells are headed after repair");
                    self.execute_move(p.id, head, p.current_target, round);
                    p.visited.insert(p.asked);
                    p.current_target = p.asked;
                    p.asked = next;
                    p.hops += 1;
                    match ask {
                        Some(ready_at) => {
                            p.ready_at = ready_at;
                            still_active.push(p);
                        }
                        None => {
                            // Dropped in transit. The hole the cascade
                            // just created stays re-detectable: the loss
                            // was weather, not structure, so it is not
                            // blacklisted.
                            self.metrics.processes_failed += 1;
                            self.trace.record(
                                round,
                                TraceEvent::ProcessFailed {
                                    process: p.id,
                                    reason: "cascade ask lost in the network".into(),
                                },
                            );
                        }
                    }
                    progress = true;
                }
                None => {
                    self.fail(p, "no unvisited neighbor to continue", round);
                    progress = true;
                }
            }
        }
        self.active = still_active;

        // Detection: every occupied neighbor of a vacant cell initiates,
        // once per vacancy episode. Episodes reset when the hole fills.
        let mut initiated = std::mem::take(&mut self.initiated);
        initiated.retain(|(_, hole)| !self.is_occupied(*hole));
        self.initiated = initiated;
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        self.metrics.cells_scanned += buf.len() as u64;
        for &hole_idx in &buf {
            let g = self.net.system().coord_of(hole_idx);
            // A vacancy created by a cascade relaying through is owned by
            // that cascade (its own tail refills it); without this, every
            // relay would spawn up to three fresh processes and the
            // network would storm. The paper's AR redundancy is the
            // multiple *initial* detectors per hole, modeled below.
            if self.active.iter().any(|p| p.current_target == g) {
                continue;
            }
            if self.failed_holes.contains(&g) {
                continue; // a cascade already died here; see field docs
            }
            let mut spawned_for_hole = 0u64;
            for w in self.net.system().neighbors(g) {
                if !self.is_usable(w) || !self.is_occupied(w) || self.initiated.contains(&(w, g)) {
                    continue;
                }
                if !self.probe(w, g, round) {
                    // The probe drowned; this monitor retries next round
                    // (its (w, g) pair stays unfired).
                    continue;
                }
                self.initiated.insert((w, g));
                if spawned_for_hole > 0 {
                    if let Some(link) = &mut self.link {
                        // AR's defining defect, now measured: every
                        // process past the first duplicates a repair
                        // already underway.
                        link.health.duplicate_initiations += 1;
                    }
                }
                spawned_for_hole += 1;
                let id = self.next_id;
                self.next_id += 1;
                self.metrics.processes_initiated += 1;
                self.trace.record(
                    round,
                    TraceEvent::ProcessInitiated {
                        process: id,
                        hole: g.into(),
                        initiator: w.into(),
                    },
                );
                let mut visited = HashSet::new();
                visited.insert(g);
                self.active.push(ArProcess {
                    id,
                    current_target: g,
                    asked: w,
                    visited,
                    hops: 0,
                    ready_at: 0,
                });
                progress = true;
            }
        }
        self.detect_buf = buf;

        // An ask in flight is scheduled work: the run must not go
        // quiescent while one is still traveling. Never fires in classic
        // mode (ready_at stays 0).
        progress |= self.active.iter().any(|p| p.ready_at > round);

        self.metrics.rounds = round + 1;
        if progress {
            RoundOutcome::Progress
        } else {
            RoundOutcome::Quiescent
        }
    }
}

/// Drives AR recovery to quiescence.
#[derive(Debug, Clone)]
pub struct ArRecovery {
    protocol: ArProtocol,
    runner: RoundRunner,
}

impl ArRecovery {
    /// Prepares an AR run (initial head election happens here).
    ///
    /// # Errors
    ///
    /// Returns [`wsn_simcore::EngineError`] for a zero round cap.
    pub fn new(net: GridNetwork, config: ArConfig) -> Result<ArRecovery, wsn_simcore::EngineError> {
        let runner = RoundRunner::with_quiescence(config.max_rounds.max(1), 2)?;
        Ok(ArRecovery {
            protocol: ArProtocol::new(net, config),
            runner,
        })
    }

    /// Like [`ArRecovery::new`] but driven through `spec`'s network
    /// model ([`ArProtocol::with_net_model`]): probes and asks can be
    /// lost or delayed, and [`SchemeReport::health`] reports the damage.
    ///
    /// # Errors
    ///
    /// Returns [`wsn_simcore::EngineError`] for a zero round cap.
    pub fn new_event(
        net: GridNetwork,
        config: ArConfig,
        spec: NetModelSpec,
    ) -> Result<ArRecovery, wsn_simcore::EngineError> {
        let runner = RoundRunner::with_quiescence(config.max_rounds.max(1), 2)?;
        Ok(ArRecovery {
            protocol: ArProtocol::with_net_model(net, config, spec),
            runner,
        })
    }

    /// Runs to quiescence (or the cap) and reports.
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
            processes: Vec::new(),
            health: self.protocol.health(),
            details: SchemeDetails::none(),
        }
    }

    /// The network state.
    pub fn network(&self) -> &GridNetwork {
        self.protocol.network()
    }

    /// Consumes the driver and releases the network (see
    /// [`wsn_coverage::Recovery::into_network`]).
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
    use wsn_grid::{deploy, GridSystem};

    fn network_with_holes(
        cols: u16,
        rows: u16,
        holes: &[GridCoord],
        per_cell: usize,
        seed: u64,
    ) -> GridNetwork {
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, holes, per_cell, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn single_hole_recovers_but_with_multiple_processes() {
        let hole = GridCoord::new(2, 2);
        let net = network_with_holes(6, 6, &[hole], 2, 1);
        let mut rec = ArRecovery::new(net, ArConfig::default().with_seed(1)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        // The headline AR defect: an interior hole has 4 occupied
        // neighbors, so 4 processes fire for one hole (SR fires 1).
        assert_eq!(report.metrics.processes_initiated, 4);
        assert!(report.metrics.processes_converged >= 1);
        // Redundant deliveries => more than one movement for one hole.
        assert!(report.metrics.moves >= 1);
        rec.network().debug_invariants();
    }

    #[test]
    fn corner_hole_gets_two_processes() {
        let hole = GridCoord::new(0, 0);
        let net = network_with_holes(6, 6, &[hole], 2, 3);
        let mut rec = ArRecovery::new(net, ArConfig::default().with_seed(3)).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        assert_eq!(report.metrics.processes_initiated, 2);
    }

    #[test]
    fn ar_moves_exceed_sr_moves_on_dense_networks() {
        // The paper's headline comparison at healthy density.
        use wsn_coverage::{Recovery, SrConfig};
        let holes = [
            GridCoord::new(1, 1),
            GridCoord::new(4, 2),
            GridCoord::new(2, 4),
        ];
        let net_ar = network_with_holes(6, 6, &holes, 3, 5);
        let net_sr = network_with_holes(6, 6, &holes, 3, 5);
        let ar = ArRecovery::new(net_ar, ArConfig::default().with_seed(5))
            .unwrap()
            .run();
        let sr = Recovery::new(net_sr, SrConfig::default().with_seed(5))
            .unwrap()
            .run();
        assert!(ar.fully_covered && sr.fully_covered);
        assert!(
            ar.metrics.processes_initiated > sr.metrics.processes_initiated,
            "AR {} vs SR {} processes",
            ar.metrics.processes_initiated,
            sr.metrics.processes_initiated
        );
        assert!(
            ar.metrics.moves >= sr.metrics.moves,
            "AR {} vs SR {} moves",
            ar.metrics.moves,
            sr.metrics.moves
        );
    }

    #[test]
    fn vacant_neighbor_dead_end_fails_cleanly() {
        // A 2x2 block of holes: cascades bump into vacant cells.
        let holes = [
            GridCoord::new(2, 2),
            GridCoord::new(3, 2),
            GridCoord::new(2, 3),
            GridCoord::new(3, 3),
        ];
        let net = network_with_holes(6, 6, &holes, 2, 7);
        let mut rec = ArRecovery::new(net, ArConfig::default().with_seed(7)).unwrap();
        let report = rec.run();
        // Recovery may or may not complete, but the run must terminate
        // and account every process.
        assert!(report.run.is_quiescent());
        assert_eq!(
            report.metrics.processes_initiated,
            report.metrics.processes_converged + report.metrics.processes_failed
        );
        rec.network().debug_invariants();
    }

    #[test]
    fn no_spares_cannot_complete_coverage() {
        // With 15 nodes for 16 cells AR can shuffle the hole around —
        // uncoordinated cascades even dump nodes into occupied cells,
        // creating transient "spares" for other cascades (the redundancy
        // defect) — but coverage can never complete, and the run must
        // terminate with every process accounted for.
        let net = network_with_holes(4, 4, &[GridCoord::new(1, 1)], 1, 9);
        assert_eq!(net.total_spares(), 0);
        let mut rec = ArRecovery::new(net, ArConfig::default().with_seed(9)).unwrap();
        let report = rec.run();
        assert!(report.run.is_quiescent());
        assert!(!report.fully_covered);
        assert!(report.final_stats.vacant >= 1);
        assert!(report.metrics.processes_failed >= 1);
        assert_eq!(
            report.metrics.processes_initiated,
            report.metrics.processes_converged + report.metrics.processes_failed
        );
        rec.network().debug_invariants();
    }

    #[test]
    fn masked_region_recovers_without_entering_disabled_cells() {
        use wsn_grid::RegionShape;
        for (i, shape) in RegionShape::IRREGULAR.into_iter().enumerate() {
            let sys = GridSystem::new(10, 10, 4.4721).unwrap();
            let mask = shape.build_mask(10, 10);
            let mut rng = SimRng::seed_from_u64(40 + i as u64);
            let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
            let holes: Vec<GridCoord> = enabled.iter().copied().step_by(13).collect();
            let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
            let net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
            let mut rec =
                ArRecovery::new(net, ArConfig::default().with_seed(40 + i as u64)).unwrap();
            let report = rec.run();
            assert!(report.run.is_quiescent(), "{shape}");
            assert!(report.fully_covered, "{shape}: {report}");
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
    fn event_ideal_matches_classic() {
        let mk = || network_with_holes(6, 6, &[GridCoord::new(2, 2), GridCoord::new(4, 4)], 2, 31);
        let classic = ArRecovery::new(mk(), ArConfig::default().with_seed(31))
            .unwrap()
            .run();
        let mut event =
            ArRecovery::new_event(mk(), ArConfig::default().with_seed(31), NetModelSpec::Ideal)
                .unwrap();
        let report = event.run();
        assert_eq!(report, classic);
        assert_eq!(report.metrics, classic.metrics);
        // AR's redundancy, measured: an interior hole spawns 4 processes,
        // 3 of which duplicate a repair already underway.
        assert!(report.health.duplicate_initiations >= 3);
        assert_eq!(report.health.lost_cascades, 0);
        event.network().debug_invariants();
    }

    #[test]
    fn lossy_event_runs_lose_cascades() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 1,
        };
        let mut lost = 0u64;
        let mut dropped = 0u64;
        for seed in 0..16 {
            // One node per cell plus a lone corner spare: every repair
            // must cascade across the grid, exposing asks to the weather.
            let sys = GridSystem::new(6, 6, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pos = deploy::with_holes(&sys, &[GridCoord::new(3, 3)], 1, &mut rng);
            pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
            let net = GridNetwork::new(sys, &pos);
            let mut rec =
                ArRecovery::new_event(net, ArConfig::default().with_seed(seed), spec).unwrap();
            let report = rec.run();
            lost += report.health.lost_cascades;
            dropped += report.health.messages_dropped;
            assert!(report.run.is_quiescent(), "seed {seed}");
            assert_eq!(
                report.metrics.processes_initiated,
                report.metrics.processes_converged + report.metrics.processes_failed,
                "seed {seed}"
            );
            rec.network().debug_invariants();
        }
        assert!(dropped > 0, "30% loss must drop something across 16 runs");
        assert!(lost > 0, "some dropped ask must strand a cascade");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let net = network_with_holes(6, 6, &[GridCoord::new(3, 3)], 2, 11);
            ArRecovery::new(net, ArConfig::default().with_seed(seed))
                .unwrap()
                .run()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn report_display_nonempty() {
        let net = network_with_holes(4, 4, &[], 2, 13);
        let mut rec = ArRecovery::new(net, ArConfig::default()).unwrap();
        let report = rec.run();
        assert!(report.fully_covered);
        assert_eq!(report.metrics.processes_initiated, 0);
        assert!(!report.to_string().is_empty());
    }
}
