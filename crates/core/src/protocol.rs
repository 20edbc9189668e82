//! The round-based SR protocol: Algorithm 1 (single directed Hamilton
//! cycle) and Algorithm 2 (dual-path structure for odd×odd grids).
//!
//! # Round semantics (from the paper)
//!
//! The paper describes the scheme "in a round-based system". Every round:
//!
//! 1. scheduled faults fire (nodes are disabled; new holes may appear);
//! 2. cells that lost their head but still hold members re-elect locally
//!    ("the role of each head can be rotated within the grid" — no
//!    movement needed);
//! 3. each active replacement process performs **one** action:
//!    * if the asked cell has a spare, the spare moves into the process's
//!      vacant cell and becomes its head — the process **converges**;
//!    * otherwise the asked head sends a notification backward (one
//!      message) and moves itself into the vacant cell, leaving its own
//!      cell vacant for the cascade — the snake advances one hop;
//!    * if the asked cell is itself vacant (another hole), the process
//!      **waits**: the paper's step 3(b) ("wait until the corresponding
//!      head w receives this notification") cannot complete until that
//!      hole is repaired by its own process;
//!    * if the walk has gone all the way around without finding a spare,
//!      the process **fails**;
//! 4. every vacant cell not already owned by an active process is
//!    detected by its (unique) monitoring head, which initiates a new
//!    process — the paper's synchronization guarantees one and only one
//!    initiation per hole.
//!
//! Within a round, processes act in id order; this sequential resolution
//! is deterministic and only matters in the rare dual-path corner where
//! two processes share an asked cell (`C` watches both `A` and `B`).
//!
//! # Under the event drive
//!
//! [`SrProtocol::with_net_model`] attaches a network link
//! ([`crate::link`]): probes, backward notifications and move acks then
//! travel as envelopes that can be delayed or lost. Envelopes due this
//! round are delivered before the faults fire (step 0); a process acts
//! only while its asked head holds the notification; a monitor detects
//! only what its probe reports. Under [`wsn_simcore::NetModelSpec::Ideal`]
//! the run is draw-for-draw the classic one.

use std::collections::HashSet;

use wsn_grid::{GridCoord, GridError, GridNetwork, HoleSet};
use wsn_hamilton::{BackwardStep, CycleTopology};
use wsn_simcore::{
    EnergyModel, Metrics, NetModelSpec, NodeId, ProtocolHealth, RoundOutcome, RoundProtocol,
    SimRng, TraceEvent, TraceLog,
};

use crate::link::{Baton, EventState};
use crate::movement::movement_target;
use crate::process::{ProcessId, ProcessStatus, ProcessSummary};
use crate::SrConfig;

/// Internal outcome of resolving the next backward hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackwardResolution {
    /// Relay and continue at this cell.
    Next(GridCoord),
    /// No occupied cell to relay through right now; retry next round.
    Wait,
    /// The walk covered the whole structure: no spare exists.
    Exhausted,
}

/// What one detection sweep (Algorithm 1 step 1) did, split into its two
/// distinct kinds of outcome.
///
/// # The `initiated` / `pending` split
///
/// In the paper's synchronous round model every monitoring head fires
/// every round, so a known hole always yields a started process and
/// `pending` stays zero. In **asynchronous mode**
/// (`SrConfig::activation_probability < 1`) a monitoring head may not be
/// scheduled in the round that its hole is swept; the initiation is then
/// *deferred*, not performed:
///
/// * `initiated` counts processes actually started this round — each one
///   also increments [`Metrics::processes_initiated`], so the metric
///   remains an honest count of real initiations;
/// * `pending` counts holes whose initiation was pushed to a later round
///   by async scheduling. No process exists for them yet, but the work
///   is still outstanding, so the round must **not** be treated as
///   quiescent (the deferred head will fire in a later round with
///   probability 1).
///
/// Earlier revisions folded the two together, over-reporting initiations
/// in async runs. The split keeps progress accounting honest while
/// [`DetectionOutcome::any_activity`] still keeps the round alive in
/// both cases.
///
/// ```
/// use wsn_coverage::DetectionOutcome;
///
/// // A synchronous sweep that started two processes:
/// let sync = DetectionOutcome { initiated: 2, pending: 0 };
/// // An async sweep whose only known hole was deferred this round:
/// let deferred = DetectionOutcome { initiated: 0, pending: 1 };
/// // Both keep the run going; only a fully empty sweep is inactive.
/// assert!(sync.any_activity());
/// assert!(deferred.any_activity());
/// assert!(!DetectionOutcome::default().any_activity());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionOutcome {
    /// Processes started this round (matches
    /// [`Metrics::processes_initiated`] increments).
    pub initiated: usize,
    /// Holes whose initiation was deferred by asynchronous-mode
    /// scheduling; still outstanding work.
    pub pending: usize,
}

impl DetectionOutcome {
    /// `true` when the sweep either started a process or deferred one —
    /// either way the round made or scheduled progress.
    pub fn any_activity(&self) -> bool {
        self.initiated > 0 || self.pending > 0
    }
}

#[derive(Debug, Clone)]
struct ActiveProcess {
    id: ProcessId,
    hole: GridCoord,
    /// The cell currently needing a node (the snake's head).
    current_vacant: GridCoord,
    /// The cell whose head must act next.
    asked: GridCoord,
    /// Whether the asked head holds the notification (always, without a
    /// link).
    baton: Baton,
    /// Round in which `current_vacant` was vacated by a relay — the
    /// one-round window in which its monitor may not yet have observed
    /// the vacancy (so detection does not treat it as unowned).
    vacated_round: Option<u64>,
}

/// The SR protocol over a network and cycle topology; drives itself one
/// round at a time via [`RoundProtocol`].
///
/// Most callers use [`crate::Recovery`], which wires this to the round
/// runner and produces a [`crate::SchemeReport`]; the protocol type is
/// public for custom drivers (e.g. lock-step comparisons against
/// baselines).
#[derive(Debug, Clone)]
pub struct SrProtocol {
    net: GridNetwork,
    topo: CycleTopology,
    config: SrConfig,
    rng: SimRng,
    trace: TraceLog,
    metrics: Metrics,
    energy: EnergyModel,
    active: Vec<ActiveProcess>,
    summaries: Vec<ProcessSummary>,
    /// Holes whose processes exhausted the whole structure without
    /// finding a spare. Spares never increase during a run, so retrying
    /// such a hole is futile (and would livelock the protocol in the
    /// zero-spare regime); the set is cleared when faults change the
    /// network, the only event that can make a retry meaningful.
    failed_holes: HashSet<GridCoord>,
    /// Current holes as dense row-major cell indices, maintained from the
    /// network's occupancy change journal — detection iterates this in
    /// O(holes) per round instead of scanning every cell. The word-level
    /// [`HoleSet`] iterates ascending, so sweeps visit holes exactly as
    /// the `BTreeSet` (and the full scan before it) did.
    pending_holes: HoleSet,
    /// Scratch buffer reused by detection sweeps (no per-round allocs).
    detect_buf: Vec<usize>,
    /// The network link and envelopes in flight under the event drive
    /// ([`SrProtocol::with_net_model`]); `None` in the classic drive,
    /// where detection and notification are axiomatic.
    event: Option<EventState>,
}

impl SrProtocol {
    /// Creates the protocol, electing initial heads in every occupied
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `topo` and `net` disagree on grid dimensions (they must
    /// be built from the same [`wsn_grid::GridSystem`]).
    pub fn new(mut net: GridNetwork, topo: CycleTopology, config: SrConfig) -> SrProtocol {
        assert_eq!(
            (topo.cols(), topo.rows()),
            (net.system().cols(), net.system().rows()),
            "topology and network dimensions must match"
        );
        let mut rng = SimRng::seed_from_u64(config.seed);
        net.elect_all_heads(config.election, &mut rng);
        let trace = if config.trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        // Seed the pending-hole set from the index once (a word-level
        // copy of the vacancy bitset); every later round folds in the
        // change journal instead of rescanning.
        let mut pending_holes = HoleSet::new(net.system().cell_count());
        pending_holes.assign_vacant(net.occupancy());
        net.clear_changed_cells();
        SrProtocol {
            net,
            topo,
            config,
            rng,
            trace,
            metrics: Metrics::new(),
            energy: EnergyModel::default(),
            active: Vec::new(),
            summaries: Vec::new(),
            failed_holes: HashSet::new(),
            pending_holes,
            detect_buf: Vec::new(),
            event: None,
        }
    }

    /// Like [`SrProtocol::new`] but with every probe and notification
    /// routed through `spec`'s network model (see [`crate::link`]).
    /// Under [`NetModelSpec::Ideal`] runs are identical to classic runs.
    ///
    /// # Panics
    ///
    /// As [`SrProtocol::new`].
    pub fn with_net_model(
        net: GridNetwork,
        topo: CycleTopology,
        config: SrConfig,
        spec: NetModelSpec,
    ) -> SrProtocol {
        let mut p = SrProtocol::new(net, topo, config);
        p.attach_net_model(spec);
        p
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

    /// The network state (read access; advanced by rounds).
    pub fn network(&self) -> &GridNetwork {
        &self.net
    }

    /// Consumes the protocol and releases its network.
    pub fn into_network(self) -> GridNetwork {
        self.net
    }

    /// The cycle topology in use.
    pub fn topology(&self) -> &CycleTopology {
        &self.topo
    }

    /// Cost counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace (empty unless `config.trace` was set).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Per-process summaries (all processes, any status).
    pub fn process_summaries(&self) -> &[ProcessSummary] {
        &self.summaries
    }

    /// Number of processes still active (cascading or waiting).
    pub fn active_processes(&self) -> usize {
        self.active.len()
    }

    /// Marks all still-active processes failed (called by the driver
    /// after quiescence/round-cap: anything still active is stuck behind
    /// an unfillable hole). Under the event drive, processes whose
    /// notification was in flight or lost are additionally counted as
    /// [`ProtocolHealth::stalled_repairs`].
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

    fn is_occupied(&self, cell: GridCoord) -> bool {
        !self.net.is_vacant(cell).unwrap_or(true)
    }

    /// Moves `node` into the central area of `target`, charges energy,
    /// and records metrics/trace. Returns the movement distance.
    fn execute_move(
        &mut self,
        process: ProcessId,
        node: NodeId,
        target: GridCoord,
        round: u64,
    ) -> Result<f64, GridError> {
        let dest = movement_target(self.net.system(), target, &mut self.rng);
        let out = self.net.move_node(node, dest)?;
        self.net.set_head(target, node)?;
        self.metrics.record_move(out.distance);
        let cost = self.energy.movement(out.distance);
        self.metrics.energy += cost;
        self.trace.record(
            round,
            TraceEvent::NodeMoved {
                process: Some(process.raw()),
                node,
                from: out.from.into(),
                to: out.to.into(),
                distance: out.distance,
            },
        );
        if self.config.battery_dynamics {
            let depleted = self.net.draw_battery(node, cost)?;
            if depleted {
                // The mover dies on arrival: its destination becomes a
                // fresh hole for detection to pick up. New energy can
                // arrive nowhere, so unfillable holes are re-blacklisted
                // through the normal failure path.
                self.net.disable_node(node)?;
                self.failed_holes.clear();
                self.trace.record(
                    round,
                    TraceEvent::NodeDisabled {
                        node,
                        cell: out.to.into(),
                    },
                );
            }
        }
        Ok(out.distance)
    }

    /// Resolves the next asked cell when `asked` must relay, applying the
    /// spare-aware fork/probe rules of Algorithm 2.
    fn resolve_backward(&self, asked: GridCoord, hole: GridCoord) -> BackwardResolution {
        let Some(step) = self.topo.backward_from(asked, hole) else {
            // The walk went all the way around the structure.
            return BackwardResolution::Exhausted;
        };
        match step {
            BackwardStep::One(p) => BackwardResolution::Next(p),
            BackwardStep::ForkAB { a, b } => {
                // "either A or B will be notified when any of them has at
                // least one spare node" — prefer A (case two's stated
                // preference); relay through an occupied special when
                // neither has spares; when both specials are themselves
                // holes, wait for their own processes to repair them.
                if self.spare_count(a) > 0 {
                    BackwardResolution::Next(a)
                } else if self.spare_count(b) > 0 {
                    BackwardResolution::Next(b)
                } else if self.is_occupied(a) {
                    BackwardResolution::Next(a)
                } else if self.is_occupied(b) {
                    BackwardResolution::Next(b)
                } else {
                    BackwardResolution::Wait
                }
            }
            BackwardStep::ProbeThen { probe, next } => {
                // "grid A with spare nodes is always preferred before the
                // replacement continues to stretch along path one."
                if self.spare_count(probe) > 0 {
                    BackwardResolution::Next(probe)
                } else {
                    BackwardResolution::Next(next)
                }
            }
        }
    }

    /// Terminates process `i` because its target vacancy was already
    /// refilled by a duplicate when its notification (re)surfaced —
    /// event drive only.
    fn terminate_superseded(&mut self, i: usize, round: u64) {
        let p = self.active.remove(i);
        let s = &mut self.summaries[p.id.raw() as usize];
        s.status = ProcessStatus::Failed;
        s.ended_round = Some(round);
        self.metrics.processes_failed += 1;
        if let Some(ev) = &mut self.event {
            ev.link.health.superseded_repairs += 1;
        }
        self.trace.record(
            round,
            TraceEvent::ProcessFailed {
                process: p.id.raw(),
                reason: "superseded by a duplicate repair".into(),
            },
        );
    }

    /// Delivers every envelope due this round (event drive only).
    /// Returns `true` when a delivery ended a process (superseded
    /// repairs — unreachable under `Ideal`, where no duplicates exist
    /// to race the notification).
    fn drain_due(&mut self, round: u64) -> bool {
        let mut progress = false;
        while let Some(process) = self.event.as_mut().and_then(|ev| ev.next_due_baton(round)) {
            let Some(i) = self.active.iter().position(|p| p.id.raw() == process) else {
                continue;
            };
            if self.is_occupied(self.active[i].current_vacant) {
                self.terminate_superseded(i, round);
                progress = true;
            } else {
                self.active[i].baton = Baton::Held;
            }
        }
        progress
    }

    /// One action for one process. Returns `true` when the process made
    /// progress (moved or ended), `false` when it waited.
    fn step_process(&mut self, idx: usize, round: u64) -> bool {
        let p = self.active[idx].clone();
        if p.baton != Baton::Held {
            // The asked head has not received the notification yet (or
            // never will); nothing to act on.
            return false;
        }
        if self.event.is_some() && self.is_occupied(p.current_vacant) {
            // A duplicate repair filled the target while the notification
            // sat here (unreachable under `Ideal`).
            self.terminate_superseded(idx, round);
            return true;
        }
        // A vacant asked cell means the notification target does not
        // exist yet (paper step 3(b)); wait for that hole's own process.
        if !self.is_occupied(p.asked) {
            return false;
        }
        // Asynchronous mode: the head that should act may not be
        // scheduled this round. Deferred work is still pending progress
        // (unlike waiting, which resolves only through another process).
        if self.config.activation_probability < 1.0
            && !self.rng.bernoulli(self.config.activation_probability)
        {
            return true;
        }
        let spare = self
            .config
            .spare_selection
            .select(&self.net, p.asked, p.current_vacant);
        if let Some(spare) = spare {
            // Algorithm 1 step 2: a spare fills the vacancy; converge.
            // Head → co-located spare: ask, then order the move. One
            // radio neighborhood, so neither message can be lost.
            if let Some(ev) = &mut self.event {
                ev.link.local(); // SpareRequest
                ev.link.local(); // MoveNotify
            }
            let d = self
                .execute_move(p.id, spare, p.current_vacant, round)
                .expect("spare moves to an in-bounds adjacent cell");
            let s = &mut self.summaries[p.id.raw() as usize];
            s.hops += 1;
            s.moves += 1;
            s.distance += d;
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
            self.active.remove(idx);
            if let Some(ev) = &mut self.event {
                ev.ack(&self.net, &mut self.trace, p.current_vacant, p.asked, round);
            }
            return true;
        }
        // Algorithm 1 step 3: no spare — notify backward, relay forward.
        match self.resolve_backward(p.asked, p.hole) {
            BackwardResolution::Wait => false,
            BackwardResolution::Next(next_asked) => {
                self.metrics.record_message();
                self.metrics.energy += self.energy.message_cost;
                self.trace.record(
                    round,
                    TraceEvent::NotificationSent {
                        process: p.id.raw(),
                        from: p.asked.into(),
                        to: next_asked.into(),
                    },
                );
                // The relaying head moves regardless of the notification's
                // fate: it committed the moment it sent it (the honest
                // failure mode — a lost notification, not a clairvoyant
                // abort).
                let baton = match &mut self.event {
                    Some(ev) => {
                        let id = p.id.raw();
                        ev.announce(&self.net, &mut self.trace, id, p.asked, next_asked, round)
                    }
                    None => Baton::Held,
                };
                let head = self
                    .net
                    .head_of(p.asked)
                    .expect("asked cell is in bounds")
                    .expect("occupied cells are headed after repair");
                let d = self
                    .execute_move(p.id, head, p.current_vacant, round)
                    .expect("relay moves to an in-bounds adjacent cell");
                let s = &mut self.summaries[p.id.raw() as usize];
                s.hops += 1;
                s.moves += 1;
                s.distance += d;
                let ap = &mut self.active[idx];
                ap.current_vacant = p.asked;
                ap.asked = next_asked;
                ap.vacated_round = Some(round);
                ap.baton = baton;
                true
            }
            BackwardResolution::Exhausted => {
                let s = &mut self.summaries[p.id.raw() as usize];
                s.status = ProcessStatus::Failed;
                s.ended_round = Some(round);
                self.metrics.processes_failed += 1;
                self.trace.record(
                    round,
                    TraceEvent::ProcessFailed {
                        process: p.id.raw(),
                        reason: "walk exhausted without finding a spare".into(),
                    },
                );
                // Spares never increase, so re-detecting this hole would
                // walk the whole structure again and fail again.
                self.failed_holes.insert(p.current_vacant);
                self.active.remove(idx);
                true
            }
        }
    }

    /// Detection + initiation (Algorithm 1 step 1): every vacant cell not
    /// already owned by an active process is detected by its unique
    /// monitoring head. Sweeps the journal-maintained pending-hole set
    /// (row-major, like the full scan it replaced) rather than the grid.
    ///
    /// Under the event drive a hole is *owned* only while its process
    /// holds the notification or vacated it this very round — a stale
    /// owner (notification in flight or lost) is invisible to the
    /// monitor, which honestly re-initiates
    /// ([`ProtocolHealth::duplicate_initiations`]) once its probe gets
    /// through.
    fn detect_and_initiate(&mut self, round: u64) -> DetectionOutcome {
        self.net.fold_changed_cells_into(&mut self.pending_holes);
        let mut buf = std::mem::take(&mut self.detect_buf);
        buf.clear();
        buf.extend(self.pending_holes.iter());
        self.metrics.cells_scanned += buf.len() as u64;
        let mut outcome = DetectionOutcome::default();
        for &idx in &buf {
            let g = self.net.system().coord_of(idx);
            if self.failed_holes.contains(&g) {
                continue; // unfillable until the network changes
            }
            if self.active.iter().any(|p| {
                p.current_vacant == g && (p.baton == Baton::Held || p.vacated_round == Some(round))
            }) {
                continue; // the cascade for this cell is already running
            }
            let monitor = self.topo.monitors(g);
            if !self.is_occupied(monitor) {
                // The monitor is itself a hole; detection resumes once it
                // is repaired (sequential recovery of hole runs).
                continue;
            }
            if let Some(ev) = &mut self.event {
                if !ev.probe(&self.net, &mut self.trace, monitor, g, round) {
                    // The weather ate the probe; the monitor retries next
                    // round. Still outstanding work.
                    outcome.pending += 1;
                    continue;
                }
            }
            if self.config.activation_probability < 1.0
                && !self.rng.bernoulli(self.config.activation_probability)
            {
                // Asynchronous mode: this monitor was not scheduled this
                // round; the vacancy is deferred, not initiated.
                outcome.pending += 1;
                continue;
            }
            if let Some(ev) = &mut self.event {
                if self.active.iter().any(|p| p.current_vacant == g) {
                    // A stale owner exists after all: this initiation
                    // duplicates a cascade the monitor could not observe.
                    ev.link.health.duplicate_initiations += 1;
                }
            }
            self.trace.record(
                round,
                TraceEvent::VacancyDetected {
                    cell: g.into(),
                    detector: monitor.into(),
                },
            );
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
            self.active.push(ActiveProcess {
                id,
                hole: g,
                current_vacant: g,
                asked: monitor,
                baton: Baton::Held,
                vacated_round: None,
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

impl RoundProtocol for SrProtocol {
    fn execute_round(&mut self, round: u64) -> RoundOutcome {
        // 0. Under the event drive, envelopes due this round arrive
        //    before anyone acts.
        let mut progress = self.drain_due(round);

        // 1. Scheduled faults fire at the start of the round.
        let fault_events: Vec<_> = self.config.fault_plan.events_at(round).cloned().collect();
        for ev in fault_events {
            let killed = self.net.apply_fault(&ev, &mut self.rng);
            if !killed.is_empty() {
                // The network changed; previously unfillable holes are
                // worth re-detecting (conservative but safe).
                self.failed_holes.clear();
            }
            for id in &killed {
                let cell = self
                    .net
                    .system()
                    .cell_of(self.net.node(*id).expect("deployed").position())
                    .expect("positions stay in the area");
                self.trace.record(
                    round,
                    TraceEvent::NodeDisabled {
                        node: *id,
                        cell: cell.into(),
                    },
                );
            }
            progress |= !killed.is_empty();
        }

        // 2. Local head repair (election within the cell; no movement),
        //    plus periodic rotation when configured (§2: "the role of
        //    each head can be rotated within the grid"). Neither counts
        //    as protocol progress: elections are free local actions, and
        //    treating rotation as progress would keep an otherwise idle
        //    network from ever reaching quiescence.
        if let Some(period) = self.config.head_rotation_period {
            if round > 0 && round.is_multiple_of(period) {
                self.net
                    .elect_all_heads(self.config.election, &mut self.rng);
            }
        }
        self.net.repair_heads(self.config.election, &mut self.rng);

        // 3. Process steps, in id order; iterate by position, careful
        //    with removals.
        let mut i = 0;
        while i < self.active.len() {
            let before = self.active.len();
            let acted = self.step_process(i, round);
            progress |= acted;
            if self.active.len() == before {
                i += 1; // process still active (moved or waiting)
            }
            // On removal the next process shifted into position i.
        }

        // 4. Detection and initiation for unowned holes. A deferred
        //    (async-mode) initiation is still scheduled work, so both
        //    halves of the outcome keep the round from going quiescent.
        progress |= self.detect_and_initiate(round).any_activity();

        // 5. Surveillance duty: heads burn idle energy every round (the
        //    GAF rationale for rotating the role). Only modeled when
        //    battery dynamics are on; a head that dies of idle drain is
        //    replaced locally next round, or leaves a hole if it was the
        //    cell's last node.
        if self.config.battery_dynamics {
            let idle = self.energy.idle_cost_per_round;
            let heads: Vec<NodeId> = self
                .net
                .system()
                .iter_coords()
                .filter_map(|c| self.net.head_of(c).expect("in bounds"))
                .collect();
            for head in heads {
                self.metrics.energy += idle;
                if self
                    .net
                    .draw_battery(head, idle)
                    .expect("heads are deployed")
                {
                    self.net.disable_node(head).expect("heads are deployed");
                    self.failed_holes.clear();
                    progress = true;
                }
            }
        }

        // The run must not go quiescent while scheduled faults are still
        // pending — an idle network can be re-holed at any planned round.
        progress |= self
            .config
            .fault_plan
            .last_round()
            .is_some_and(|r| r > round);

        // In-flight envelopes are scheduled work: a run must not go
        // quiescent while a notification is still in the air.
        progress |= self.event.as_ref().is_some_and(EventState::in_flight);

        self.metrics.rounds = round + 1;
        if progress {
            RoundOutcome::Progress
        } else {
            RoundOutcome::Quiescent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recovery;
    use wsn_grid::{deploy, GridSystem, HeadElection};
    use wsn_simcore::RoundRunner;

    fn run_protocol(mut p: SrProtocol) -> (SrProtocol, wsn_simcore::RunReport) {
        let runner = RoundRunner::new(10_000).unwrap();
        let report = runner.run(&mut p);
        let rounds = report.rounds;
        p.fail_remaining(rounds);
        (p, report)
    }

    fn protocol_with_holes(
        cols: u16,
        rows: u16,
        holes: &[GridCoord],
        per_cell: usize,
        seed: u64,
    ) -> SrProtocol {
        let sys = GridSystem::new(cols, rows, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, holes, per_cell, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let topo = CycleTopology::build(cols, rows).unwrap();
        SrProtocol::new(
            net,
            topo,
            SrConfig::default().with_seed(seed).with_trace(true),
        )
    }

    #[test]
    fn single_hole_with_spare_in_monitor_converges_in_one_move() {
        let hole = GridCoord::new(2, 2);
        let p = protocol_with_holes(4, 4, &[hole], 2, 1);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0);
        assert_eq!(p.metrics().processes_initiated, 1);
        assert_eq!(p.metrics().processes_converged, 1);
        assert_eq!(p.metrics().processes_failed, 0);
        // The monitor had a spare: exactly one movement (Theorem 2, i=1).
        assert_eq!(p.metrics().moves, 1);
        assert_eq!(p.process_summaries()[0].hops, 1);
        p.network().debug_invariants();
    }

    #[test]
    fn hole_with_no_nearby_spares_cascades() {
        // Only one cell holds a spare: every other occupied cell has
        // exactly its head. The cascade must walk until it drains that
        // single spare, making exactly `hops` moves.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let hole = GridCoord::new(2, 2);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        // Add one extra node (a spare) in cell (0, 0).
        let rect = sys.cell_rect(GridCoord::new(0, 0)).unwrap();
        pos.push(wsn_geometry::sample::point_in_rect(
            &rect,
            rng.uniform_f64(),
            rng.uniform_f64(),
        ));
        let net = GridNetwork::new(sys, &pos);
        assert_eq!(net.total_spares(), 1);
        let topo = CycleTopology::build(4, 4).unwrap();
        let p = SrProtocol::new(net, topo, SrConfig::default().with_seed(3));
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0);
        assert_eq!(p.metrics().processes_converged, 1);
        let s = &p.process_summaries()[0];
        assert_eq!(s.moves, s.hops);
        assert!(s.hops >= 1);
        // All moves belong to the single process.
        assert_eq!(p.metrics().moves, s.moves);
        p.network().debug_invariants();
    }

    #[test]
    fn theorem_1_multiple_holes_all_filled() {
        let holes = [
            GridCoord::new(0, 0),
            GridCoord::new(3, 1),
            GridCoord::new(1, 3),
            GridCoord::new(2, 2),
        ];
        let p = protocol_with_holes(4, 4, &holes, 2, 7);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0, "all holes filled");
        assert_eq!(p.metrics().processes_failed, 0);
        assert_eq!(p.metrics().success_rate_percent(), 100.0);
        p.network().debug_invariants();
    }

    #[test]
    fn consecutive_vacant_run_fills_sequentially() {
        // A run of holes along the cycle: processes wait on each other
        // and fill one at a time.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let topo = CycleTopology::build(4, 4).unwrap();
        let CycleTopology::Single(ref cyc) = topo else {
            panic!()
        };
        // Three consecutive cells on the cycle.
        let h0 = cyc.order()[5];
        let h1 = cyc.order()[6];
        let h2 = cyc.order()[7];
        let mut rng = SimRng::seed_from_u64(9);
        let pos = deploy::with_holes(&sys, &[h0, h1, h2], 2, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let p = SrProtocol::new(net, topo, SrConfig::default().with_seed(9));
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0);
        assert_eq!(p.metrics().processes_failed, 0);
        p.network().debug_invariants();
    }

    #[test]
    fn no_spares_at_all_processes_fail() {
        let p = protocol_with_holes(4, 4, &[GridCoord::new(1, 1)], 1, 11);
        assert_eq!(p.network().total_spares(), 0);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        // The hole moved around the ring but could never be filled;
        // exactly one process was initiated and it failed (the relay
        // chain exhausted L hops).
        assert!(p.metrics().processes_failed >= 1);
        assert_eq!(p.metrics().processes_converged, 0);
        assert_eq!(p.network().vacant_count(), 1);
        p.network().debug_invariants();
    }

    #[test]
    fn synchronization_exactly_one_process_per_hole() {
        // The headline SR property: a single hole triggers exactly one
        // process, never the multiple processes of AR.
        let hole = GridCoord::new(3, 3);
        let p = protocol_with_holes(6, 6, &[hole], 3, 13);
        let (p, _) = run_protocol(p);
        assert_eq!(p.metrics().processes_initiated, 1);
        assert_eq!(p.trace().count_kind("process_initiated"), 1);
    }

    #[test]
    fn dual_path_grid_recovers_all_cases() {
        // 5x5 dual-path: test holes at the special cells A, B, C, D and a
        // chain cell.
        let topo = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref d) = topo else {
            panic!()
        };
        for (i, hole) in [d.a(), d.b(), d.c(), d.d(), d.chain()[10]]
            .into_iter()
            .enumerate()
        {
            let p = protocol_with_holes(5, 5, &[hole], 2, 17 + i as u64);
            let (p, report) = run_protocol(p);
            assert!(report.is_quiescent(), "hole {hole}");
            assert_eq!(p.network().vacant_count(), 0, "hole {hole} not filled");
            assert_eq!(p.metrics().processes_failed, 0, "hole {hole}");
            p.network().debug_invariants();
        }
    }

    #[test]
    fn dual_path_single_spare_in_a_is_found_for_hole_d() {
        // Corollary 1's hard case: hole at D, the only spare in A. The
        // case-two probe at C must find it.
        let sys = GridSystem::new(5, 5, 4.4721).unwrap();
        let topo = CycleTopology::build(5, 5).unwrap();
        let CycleTopology::Dual(ref dd) = topo else {
            panic!()
        };
        let (a, d) = (dd.a(), dd.d());
        let mut rng = SimRng::seed_from_u64(23);
        let mut pos = deploy::with_holes(&sys, &[d], 1, &mut rng);
        let rect = sys.cell_rect(a).unwrap();
        pos.push(wsn_geometry::sample::point_in_rect(
            &rect,
            rng.uniform_f64(),
            rng.uniform_f64(),
        ));
        let net = GridNetwork::new(sys, &pos);
        assert_eq!(net.total_spares(), 1);
        let p = SrProtocol::new(net, topo, SrConfig::default().with_seed(23));
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0);
        assert_eq!(p.metrics().processes_failed, 0);
        p.network().debug_invariants();
    }

    #[test]
    fn mid_run_fault_triggers_new_recovery() {
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(29);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let topo = CycleTopology::build(4, 4).unwrap();
        // Kill both nodes of cell (2, 2) at round 3.
        let victims: Vec<NodeId> = net.members(GridCoord::new(2, 2)).unwrap().to_vec();
        let cfg = SrConfig::default()
            .with_seed(29)
            .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillNodes(victims)));
        let p = SrProtocol::new(net, topo, cfg);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0);
        assert_eq!(p.metrics().processes_converged, 1);
        p.network().debug_invariants();
    }

    #[test]
    fn head_loss_with_spare_present_repairs_locally_without_movement() {
        // Killing a head (but not the whole cell) must not trigger any
        // replacement process — the spare is promoted in place.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(31);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let head = net.head_of(GridCoord::new(1, 1)).unwrap().unwrap();
        net.disable_node(head).unwrap();
        let topo = CycleTopology::build(4, 4).unwrap();
        let p = SrProtocol::new(net, topo, SrConfig::default().with_seed(31));
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.metrics().processes_initiated, 0);
        assert_eq!(p.metrics().moves, 0);
        assert_eq!(p.network().vacant_count(), 0);
    }

    #[test]
    fn moves_match_hops_on_converged_processes() {
        // Theorem 2 accounting: a converged process with i hops makes
        // exactly i movements.
        let holes = [GridCoord::new(0, 3), GridCoord::new(5, 0)];
        let p = protocol_with_holes(6, 6, &[holes[0], holes[1]], 2, 37);
        let (p, _) = run_protocol(p);
        for s in p.process_summaries() {
            assert_eq!(s.status, ProcessStatus::Converged);
            assert_eq!(s.moves, s.hops);
        }
    }

    #[test]
    fn asynchronous_mode_still_recovers() {
        // The paper: "All the schemes presented in this paper can be
        // extended easily to an asynchronous system." With heads firing
        // only 40% of rounds, recovery takes longer but converges to the
        // same coverage with the same per-process move counts.
        let holes = [GridCoord::new(1, 2), GridCoord::new(3, 0)];
        let sync = {
            let p = protocol_with_holes(5, 4, &holes, 2, 41);
            run_protocol(p).0
        };
        let async_run = {
            let sys = GridSystem::new(5, 4, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(41);
            let pos = deploy::with_holes(&sys, &holes, 2, &mut rng);
            let net = GridNetwork::new(sys, &pos);
            let topo = CycleTopology::build(5, 4).unwrap();
            let cfg = SrConfig::default()
                .with_seed(41)
                .with_activation_probability(0.4);
            let p = SrProtocol::new(net, topo, cfg);
            run_protocol(p).0
        };
        assert_eq!(async_run.network().vacant_count(), 0);
        assert_eq!(async_run.metrics().processes_failed, 0);
        assert_eq!(
            async_run.metrics().processes_converged,
            sync.metrics().processes_converged
        );
        assert!(
            async_run.metrics().rounds >= sync.metrics().rounds,
            "async {} rounds vs sync {}",
            async_run.metrics().rounds,
            sync.metrics().rounds
        );
    }

    #[test]
    fn head_rotation_spreads_duty_without_movement() {
        // MaxEnergy rotation on an intact network: heads change, nothing
        // moves, and the run still terminates.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(53);
        let pos = deploy::per_cell_exact(&sys, 3, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let topo = CycleTopology::build(4, 4).unwrap();
        let cfg = SrConfig::default()
            .with_seed(53)
            .with_election(HeadElection::MaxEnergy)
            .with_head_rotation(2);
        let p = SrProtocol::new(net, topo, cfg);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.metrics().moves, 0);
        assert_eq!(p.metrics().processes_initiated, 0);
        p.network().debug_invariants();
    }

    #[test]
    fn rotation_with_max_energy_balances_idle_drain() {
        // Two nodes per cell, battery dynamics on, long fault horizon to
        // keep the run alive: with MaxEnergy rotation the idle duty
        // alternates between the two members; without it the same node
        // burns every round.
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        let run = |rotate: bool| {
            let sys = GridSystem::new(2, 2, 4.4721).unwrap();
            let mut rng = SimRng::seed_from_u64(61);
            let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
            let net = GridNetwork::new(sys, &pos);
            let topo = CycleTopology::build(2, 2).unwrap();
            // An empty kill at round 200 keeps the run alive 200 rounds.
            let plan = FaultPlan::new().at(200, FaultEvent::KillNodes(vec![]));
            let mut cfg = SrConfig::default()
                .with_seed(61)
                .with_battery_dynamics(true)
                .with_election(HeadElection::MaxEnergy)
                .with_fault_plan(plan);
            if rotate {
                cfg = cfg.with_head_rotation(1);
            }
            let p = SrProtocol::new(net, topo, cfg);
            let (p, _) = run_protocol(p);
            // Spread of battery charge within cell (0,0).
            let members = p.network().members(GridCoord::new(0, 0)).unwrap();
            let charges: Vec<f64> = members
                .iter()
                .map(|&id| p.network().node(id).unwrap().battery().charge())
                .collect();
            let max = charges.iter().cloned().fold(f64::MIN, f64::max);
            let min = charges.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let spread_rotating = run(true);
        let spread_static = run(false);
        assert!(
            spread_rotating < spread_static,
            "rotation must balance drain: {spread_rotating} vs {spread_static}"
        );
    }

    #[test]
    fn head_rotation_during_recovery_is_harmless() {
        let holes = [GridCoord::new(1, 1), GridCoord::new(2, 3)];
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(59);
        let pos = deploy::with_holes(&sys, &holes, 2, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let topo = CycleTopology::build(4, 4).unwrap();
        let cfg = SrConfig::default().with_seed(59).with_head_rotation(1);
        let p = SrProtocol::new(net, topo, cfg);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        assert_eq!(p.network().vacant_count(), 0);
        assert_eq!(p.metrics().processes_failed, 0);
    }

    #[test]
    fn activation_probability_is_clamped() {
        let cfg = SrConfig::default().with_activation_probability(7.0);
        assert_eq!(cfg.activation_probability, 1.0);
        let cfg = SrConfig::default().with_activation_probability(f64::NAN);
        assert_eq!(cfg.activation_probability, 1.0);
        let cfg = SrConfig::default().with_activation_probability(0.0);
        assert!(cfg.activation_probability > 0.0);
    }

    #[test]
    fn battery_dynamics_can_kill_the_mover_and_recovery_continues() {
        use wsn_simcore::Battery;
        // Hand-build a network where the monitor's spare has a battery
        // too small to survive its own move: the spare dies on arrival,
        // re-opening the hole; the next process must drain a different
        // cell.
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(43);
        let hole = GridCoord::new(2, 2);
        let pos = deploy::with_holes(&sys, &[hole], 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        // Weaken every node of the monitoring cell: any move kills them.
        let topo = CycleTopology::build(4, 4).unwrap();
        let monitor = match &topo {
            CycleTopology::Single(c) => c.predecessor(hole),
            _ => unreachable!(),
        };
        let weak: Vec<NodeId> = net.members(monitor).unwrap().to_vec();
        for id in &weak {
            // 0.01 J: far below one hop's ~4.5 J cost.
            let pos = net.node(*id).unwrap().position();
            let _ = pos;
            net.draw_battery(*id, f64::MAX).unwrap();
            let _ = Battery::new(0.01);
        }
        let cfg = SrConfig::default()
            .with_seed(43)
            .with_battery_dynamics(true);
        let p = SrProtocol::new(net, topo, cfg);
        let (p, report) = run_protocol(p);
        assert!(report.is_quiescent());
        // Every mover from the weakened cell died; recovery must have
        // routed around them (or reported failure if spares ran out) —
        // either way invariants hold and the run terminated.
        p.network().debug_invariants();
        let depleted_deaths = p.trace().count_kind("node_disabled");
        let _ = depleted_deaths;
    }

    #[test]
    fn battery_dynamics_drains_movers() {
        let holes = [GridCoord::new(2, 1)];
        let sys = GridSystem::new(4, 4, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(47);
        let pos = deploy::with_holes(&sys, &holes, 2, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        let topo = CycleTopology::build(4, 4).unwrap();
        let cfg = SrConfig::default()
            .with_seed(47)
            .with_battery_dynamics(true);
        let p = SrProtocol::new(net, topo, cfg);
        let (p, _) = run_protocol(p);
        assert_eq!(p.network().vacant_count(), 0);
        // Exactly one node paid a movement's worth of energy (heads also
        // pay idle duty, but that is orders of magnitude smaller).
        let movers = p
            .network()
            .nodes()
            .iter()
            .filter(|n| n.battery().capacity() - n.battery().charge() > 1.0)
            .count();
        assert_eq!(movers, 1);
        // And heads paid their (tiny) idle duty.
        let idlers = p
            .network()
            .nodes()
            .iter()
            .filter(|n| n.battery().fraction() < 1.0)
            .count();
        assert!(idlers > 1);
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_topology_panics() {
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let net = GridNetwork::new(sys, &[]);
        let topo = CycleTopology::build(6, 6).unwrap();
        let _ = SrProtocol::new(net, topo, SrConfig::default());
    }

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

    /// One spare in a far corner so every repair is a long cascade —
    /// the regime where the network actually carries notifications.
    fn cascade_network(seed: u64) -> GridNetwork {
        let sys = GridSystem::new(8, 8, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let hole = GridCoord::new(4, 4);
        let mut pos = deploy::with_holes(&sys, &[hole], 1, &mut rng);
        pos.push(sys.cell_rect(GridCoord::new(0, 0)).unwrap().center());
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn ideal_sr_matches_classic_byte_for_byte() {
        for (holes, seed) in [
            (vec![GridCoord::new(2, 2)], 1u64),
            (
                vec![
                    GridCoord::new(0, 0),
                    GridCoord::new(3, 1),
                    GridCoord::new(1, 3),
                ],
                7,
            ),
        ] {
            let net = network_with_holes(6, 6, &holes, 2, seed);
            let cfg = SrConfig::default().with_seed(seed).with_trace(true);
            let classic = Recovery::new(net.clone(), cfg.clone()).unwrap().run();
            let mut event = Recovery::new(net, cfg)
                .unwrap()
                .with_net_model(NetModelSpec::Ideal);
            let report = event.run();
            assert_eq!(report, classic, "seed {seed}");
            assert_eq!(report.metrics, classic.metrics, "rounds included");
            assert!(report.health.is_clean());
            assert!(report.health.messages_sent > 0);
            event.network().debug_invariants();
        }
    }

    #[test]
    fn ideal_sr_matches_classic_under_faults_and_cascades() {
        use wsn_simcore::fault::{FaultEvent, FaultPlan};
        let mk = || {
            let net = cascade_network(3);
            let victims: Vec<NodeId> = net.members(GridCoord::new(6, 6)).unwrap().to_vec();
            let cfg = SrConfig::default()
                .with_seed(3)
                .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillNodes(victims)));
            (net, cfg)
        };
        let (net, cfg) = mk();
        let classic = Recovery::new(net, cfg).unwrap().run();
        let (net, cfg) = mk();
        let event = Recovery::new(net, cfg)
            .unwrap()
            .with_net_model(NetModelSpec::Ideal)
            .run();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
    }

    #[test]
    fn ideal_sr_matches_classic_on_dual_path_grids() {
        let net = network_with_holes(5, 5, &[GridCoord::new(2, 2), GridCoord::new(4, 0)], 2, 17);
        let cfg = SrConfig::default().with_seed(17);
        let classic = Recovery::new(net.clone(), cfg.clone()).unwrap().run();
        let event = Recovery::new(net, cfg)
            .unwrap()
            .with_net_model(NetModelSpec::Ideal)
            .run();
        assert_eq!(event, classic);
        assert_eq!(event.metrics, classic.metrics);
    }

    #[test]
    fn fixed_latency_still_recovers() {
        let net = cascade_network(5);
        let spec = NetModelSpec::FixedLatency { ticks: 3 };
        let mut rec = Recovery::new(net, SrConfig::default().with_seed(5))
            .unwrap()
            .with_net_model(spec);
        let report = rec.run();
        assert!(report.fully_covered, "{report}");
        assert_eq!(report.health.messages_dropped, 0);
        rec.network().debug_invariants();
    }

    #[test]
    fn lossy_sr_reports_duplicates_and_lost_cascades() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 1,
        };
        let mut duplicates = 0u64;
        let mut lost = 0u64;
        for seed in 0..24 {
            let net = cascade_network(seed);
            let report = Recovery::new(net, SrConfig::default().with_seed(seed))
                .unwrap()
                .with_net_model(spec)
                .run();
            duplicates += report.health.duplicate_initiations;
            lost += report.health.lost_cascades;
        }
        assert!(lost > 0, "30% loss must drop some cascade notification");
        assert!(
            duplicates > 0,
            "a lost baton must provoke a duplicate initiation"
        );
    }

    #[test]
    fn total_loss_prevents_detection_entirely() {
        let spec = NetModelSpec::Bernoulli {
            loss_ppm: 1_000_000,
            latency: 1,
        };
        let net = network_with_holes(4, 4, &[GridCoord::new(2, 2)], 2, 9);
        let cfg = SrConfig::default().with_seed(9).with_max_rounds(40);
        let report = Recovery::new(net, cfg).unwrap().with_net_model(spec).run();
        assert!(!report.fully_covered);
        assert_eq!(report.metrics.processes_initiated, 0);
        assert!(report.health.messages_dropped > 0);
    }

    #[test]
    fn traces_carry_the_message_choreography() {
        let net = network_with_holes(4, 4, &[GridCoord::new(2, 2)], 2, 11);
        let cfg = SrConfig::default().with_seed(11).with_trace(true);
        let mut rec = Recovery::new(net, cfg)
            .unwrap()
            .with_net_model(NetModelSpec::Ideal);
        let report = rec.run();
        assert!(report.fully_covered);
        let net_msgs = rec.trace().count_kind("net_message");
        assert!(net_msgs > 0, "probes and acks must be traced");
    }
}
