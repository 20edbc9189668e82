//! The optional network link behind SR and SR-SC: what
//! [`crate::DriveMode::EventDriven`] attaches to a protocol so that its
//! inter-cell exchanges become envelopes routed through a [`NetLink`]
//! instead of axioms.
//!
//! [`crate::SrProtocol`] and [`crate::ShortcutProtocol`] each carry the
//! link as optional state. Without it they are the classic round
//! protocols, where a notification sent this round is *known* next
//! round. With it, every inter-cell exchange takes its chances on the
//! channel:
//!
//! * **`MonitorProbe`** — the monitoring head's same-tick occupancy
//!   probe of its watched cell. A dropped probe defers detection to the
//!   next round.
//! * **`HoleAnnounce`** — the backward notification carrying the
//!   cascade. It is the protocol's *baton*: the asked head acts only
//!   while holding it. A dropped announce loses the baton
//!   ([`ProtocolHealth::lost_cascades`]); a slow one leaves the
//!   receiving head ignorant, and an ignorant SR monitor re-initiates
//!   the repair ([`ProtocolHealth::duplicate_initiations`]).
//! * **`SpareRequest` / `MoveNotify`** — intra-cell head↔spare
//!   exchanges; a cell is one radio neighborhood, so these never
//!   traverse the lossy channel (counted, not routed).
//! * **`MoveAck`** — the filled cell's new head confirming arrival to
//!   the dispatcher; informational.
//!
//! # The conformance contract
//!
//! Under [`NetModelSpec::Ideal`] every envelope is delivered on the
//! classic one-round cadence, so a protocol with the link attached
//! replicates its classic run draw-for-draw: the run RNG sees the
//! identical call sequence (link randomness lives in a separate
//! [`derive_stream_seed`]ed stream, see [`net_link`]), rounds make the
//! identical progress verdicts, and the resulting
//! [`crate::SchemeReport`] metrics are byte-identical. The conformance
//! battery in the bench crate pins this over a scenario grid; degraded
//! models then *measure* what the synchronous model assumes away, in
//! [`crate::SchemeReport::health`].
//!
//! [`ProtocolHealth::lost_cascades`]: wsn_simcore::ProtocolHealth::lost_cascades
//! [`ProtocolHealth::duplicate_initiations`]: wsn_simcore::ProtocolHealth::duplicate_initiations

use wsn_grid::{GridCoord, GridNetwork};
use wsn_simcore::{
    derive_stream_seed, Endpoint, EventQueue, Fate, NetLink, NetModelSpec, TraceEvent, TraceLog,
};

/// Stream tag separating the network-model RNG from the run RNG: links
/// draw from `derive_stream_seed(seed, &[NET_STREAM_TAG])`, so under
/// `Ideal` (no link draws at all) the run RNG sees the byte-identical
/// sequence the classic drive does. Every scheme that joins the event
/// engine derives its link through [`net_link`], so a given
/// `(seed, net model)` is the same weather for every scheme.
pub const NET_STREAM_TAG: u64 = 0x004E_4554; // "NET"

/// The run's link for `spec`, seeded from the run seed on the
/// [`NET_STREAM_TAG`] stream.
pub fn net_link(spec: NetModelSpec, seed: u64) -> NetLink {
    spec.link(derive_stream_seed(seed, &[NET_STREAM_TAG]))
}

/// The link endpoint of `cell`: its dense index and center position.
///
/// # Panics
///
/// Panics if `cell` is outside `net`'s grid.
pub fn endpoint(net: &GridNetwork, cell: GridCoord) -> Endpoint {
    let sys = net.system();
    let idx = sys.index_of(cell).expect("protocol cells are in bounds");
    let c = sys.cell_center(cell).expect("protocol cells are in bounds");
    Endpoint {
        cell: idx as u64,
        pos: (c.x, c.y),
    }
}

/// Where a process's notification baton currently is. Without a link
/// it is always [`Baton::Held`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Baton {
    /// The asked head holds the notification and can act.
    Held,
    /// The notification is in transit; delivery is scheduled.
    InFlight,
    /// The network dropped the notification; nobody holds the baton.
    Lost,
}

/// Scheduled deliveries (the event queue's payload).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Envelope {
    /// The cascade baton arriving at the asked cell of `process`.
    HoleAnnounce {
        /// Raw [`crate::ProcessId`] of the owning process.
        process: u64,
    },
    /// Informational convergence confirmation; delivery is a no-op.
    MoveAck,
}

/// A protocol's event state: the link plus the envelopes in flight.
#[derive(Debug, Clone)]
pub(crate) struct EventState {
    queue: EventQueue<Envelope>,
    pub(crate) link: NetLink,
}

impl EventState {
    pub(crate) fn new(spec: NetModelSpec, seed: u64) -> EventState {
        EventState {
            queue: EventQueue::new(),
            link: net_link(spec, seed),
        }
    }

    /// Whether any envelope is still in the air — scheduled work, so a
    /// run must not go quiescent. Under `Ideal` every envelope
    /// scheduled in a progress round drains in the next, so this never
    /// changes a classic quiescence verdict.
    pub(crate) fn in_flight(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Pops the envelopes due by `round` up to the next baton, returning
    /// the raw id of the process it belongs to.
    pub(crate) fn next_due_baton(&mut self, round: u64) -> Option<u64> {
        while let Some(sched) = self.queue.pop_due(round) {
            if let Envelope::HoleAnnounce { process } = sched.payload {
                return Some(process);
            }
        }
        None
    }

    /// Routes `process`'s baton from `from` to `to` and traces it. The
    /// sender has already billed the notification; this is the
    /// envelope taking its chances on the channel.
    pub(crate) fn announce(
        &mut self,
        net: &GridNetwork,
        trace: &mut TraceLog,
        process: u64,
        from: GridCoord,
        to: GridCoord,
        round: u64,
    ) -> Baton {
        let envelope = Envelope::HoleAnnounce { process };
        match self.send(net, trace, envelope, from, to, round) {
            Fate::Deliver(_) => Baton::InFlight,
            Fate::Drop => {
                self.link.health.lost_cascades += 1;
                Baton::Lost
            }
        }
    }

    /// Routes an informational `MoveAck` from the just-filled cell back
    /// to the dispatcher.
    pub(crate) fn ack(
        &mut self,
        net: &GridNetwork,
        trace: &mut TraceLog,
        from: GridCoord,
        to: GridCoord,
        round: u64,
    ) {
        self.send(net, trace, Envelope::MoveAck, from, to, round);
    }

    /// The monitor's same-tick occupancy probe of `cell`. Returns `true`
    /// when it got through.
    pub(crate) fn probe(
        &mut self,
        net: &GridNetwork,
        trace: &mut TraceLog,
        monitor: GridCoord,
        cell: GridCoord,
        round: u64,
    ) -> bool {
        let probed = self.link.sense(endpoint(net, monitor), endpoint(net, cell));
        trace.record(
            round,
            TraceEvent::NetMessage {
                msg: "monitor_probe".into(),
                from: monitor.into(),
                to: cell.into(),
                deliver_at: probed.then_some(round),
            },
        );
        probed
    }

    /// Routes one inter-cell envelope, schedules its delivery unless
    /// dropped, and traces it.
    fn send(
        &mut self,
        net: &GridNetwork,
        trace: &mut TraceLog,
        envelope: Envelope,
        from: GridCoord,
        to: GridCoord,
        round: u64,
    ) -> Fate {
        let msg = match envelope {
            Envelope::HoleAnnounce { .. } => "hole_announce",
            Envelope::MoveAck => "move_ack",
        };
        let fate = self.link.route(endpoint(net, from), endpoint(net, to));
        let deliver_at = match fate {
            Fate::Deliver(extra) => {
                let at = round + 1 + extra;
                self.queue.schedule(at, envelope);
                Some(at)
            }
            Fate::Drop => None,
        };
        trace.record(
            round,
            TraceEvent::NetMessage {
                msg: msg.into(),
                from: from.into(),
                to: to.into(),
                deliver_at,
            },
        );
        fate
    }
}
