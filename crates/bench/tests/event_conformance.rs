//! Conformance battery for the event-driven message-passing engine.
//!
//! The event drive attaches a network link ([`wsn_coverage::link`]) to
//! the one SR and SR-SC protocol each scheme has, turning them into
//! genuine distributed protocols — typed envelopes through a network
//! model on a virtual-clock scheduler. The honesty argument: under
//! [`NetModelSpec::Ideal`] every envelope arrives at the start of the
//! next round, which is exactly when the classic lock-step runner
//! would have acted on it, so the event engine must
//! reproduce the classic runner's reports **byte for byte** — same
//! metrics (including `rounds`), same per-process summaries, same
//! RNG draw order. This suite pins that equivalence across the same
//! scenario grid the change-driven conformance suite uses (single-cycle
//! and dual-path grids, masked regions, mid-run faults, and the SR knobs
//! that draw from the run RNG or reshape heads: asynchronous
//! activation, battery dynamics, head rotation), then pins the
//! paper's two message-complexity claims as trace-count equalities, and
//! finally checks the engine is honest about *degraded* weather: a
//! seeded 30%-loss run must report the pathologies (duplicate
//! initiations, lost cascades) that the paper's reliable-channel
//! assumption defines away.

use proptest::prelude::*;
use wsn_baselines::builtins;
use wsn_coverage::scheme::{DriveMode, NetworkSpec};
use wsn_coverage::{Recovery, ShortcutRecovery, SrConfig};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem, RegionMask};
use wsn_simcore::{FaultEvent, FaultPlan, NetModelSpec, SimRng, TraceEvent};

/// The scenario grid shared with the change-driven conformance suite:
/// `(cols, rows, holes, per_cell)` per entry, each run under several
/// seeds. Includes the dual-path structures (odd × odd and odd × odd
/// non-square) that Algorithm 2 serves.
fn scenario_grid() -> Vec<(u16, u16, usize, usize)> {
    vec![
        (4, 4, 1, 2),
        (6, 6, 2, 2),
        (6, 6, 4, 3),
        (8, 8, 3, 2),
        (5, 5, 2, 2), // dual-path structure (odd x odd)
        (7, 5, 3, 3), // dual-path, non-square
    ]
}

/// Deterministically punches `holes` distinct cells out of a
/// `per_cell`-dense deployment.
fn seeded_network(cols: u16, rows: u16, holes: usize, per_cell: usize, seed: u64) -> GridNetwork {
    let sys = GridSystem::for_comm_range(cols, rows, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let hole_coords: Vec<GridCoord> = rng
        .sample_indices(sys.cell_count(), holes)
        .into_iter()
        .map(|i| sys.coord_of(i))
        .collect();
    let pos = deploy::with_holes(&sys, &hole_coords, per_cell, &mut rng);
    GridNetwork::new(sys, &pos)
}

/// A sparse topology that forces long backward cascades: one node per
/// cell, a hole in the middle, and the only spare parked in the corner.
fn cascade_network(seed: u64) -> GridNetwork {
    let sys = GridSystem::for_comm_range(8, 8, 10.0).expect("valid dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pos = deploy::with_holes(&sys, &[GridCoord::new(4, 4)], 1, &mut rng);
    pos.push(
        sys.cell_rect(GridCoord::new(0, 0))
            .expect("in bounds")
            .center(),
    );
    GridNetwork::new(sys, &pos)
}

#[test]
fn sr_event_ideal_reproduces_the_classic_report_across_the_scenario_grid() {
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47, 1009] {
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            let mk = || seeded_network(cols, rows, holes, per_cell, seed);
            let classic = Recovery::new(mk(), SrConfig::default().with_seed(seed))
                .expect("topology exists")
                .run();
            let event = Recovery::new(mk(), SrConfig::default().with_seed(seed))
                .expect("topology exists")
                .with_net_model(NetModelSpec::Ideal)
                .run();
            // SchemeReport equality covers metrics (rounds included),
            // coverage verdict, per-process summaries and final stats —
            // the full byte-identical contract.
            assert_eq!(classic, event, "{tag}");
            assert!(event.health.is_clean(), "{tag}: ideal weather is clean");
        }
    }
}

#[test]
fn sr_sc_event_ideal_reproduces_the_classic_report_on_cycle_grids() {
    // SR-SC needs a single Hamilton cycle (one even side), so the
    // dual-path entries of the grid are out of spec by construction.
    for (cols, rows, holes, per_cell) in scenario_grid() {
        if cols % 2 == 1 && rows % 2 == 1 {
            continue;
        }
        for seed in [11u64, 47, 1009] {
            let tag = format!("SR-SC {cols}x{rows} holes={holes} seed={seed}");
            let mk = || seeded_network(cols, rows, holes, per_cell, seed);
            let classic = ShortcutRecovery::new(mk(), SrConfig::default().with_seed(seed))
                .expect("cycle exists")
                .run();
            let event = ShortcutRecovery::new(mk(), SrConfig::default().with_seed(seed))
                .expect("cycle exists")
                .with_net_model(NetModelSpec::Ideal)
                .run();
            assert_eq!(classic, event, "{tag}");
            assert!(event.health.is_clean(), "{tag}: ideal weather is clean");
        }
    }
}

#[test]
fn sr_event_ideal_conformance_holds_under_mid_run_faults() {
    // Killing a whole cell at round 3 re-opens recovery after the
    // initial holes are already repaired; the event engine must keep
    // pace with the classic runner through the fault keepalive.
    for seed in [5u64, 21] {
        let mk = || {
            let net = seeded_network(6, 6, 1, 2, seed);
            let victims = net
                .members(GridCoord::new(3, 3))
                .expect("in bounds")
                .to_vec();
            let cfg = SrConfig::default()
                .with_seed(seed)
                .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillNodes(victims)));
            (net, cfg)
        };
        let (net_c, cfg_c) = mk();
        let classic = Recovery::new(net_c, cfg_c).expect("topology").run();
        let (net_e, cfg_e) = mk();
        let event = Recovery::new(net_e, cfg_e)
            .expect("topology")
            .with_net_model(NetModelSpec::Ideal)
            .run();
        assert_eq!(classic, event, "seed {seed}");
        assert!(event.metrics.rounds > 3, "seed {seed}: fault round ran");
    }
}

/// Classic vs event-`Ideal` SR on the scenario grid under `cfg`'s knobs:
/// the full report (metrics, rounds included) must match.
fn assert_sr_knob_conformance(knob: &str, cfg: impl Fn(u64) -> SrConfig) {
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47] {
            let tag = format!("SR {knob} {cols}x{rows} holes={holes} seed={seed}");
            let mk = || seeded_network(cols, rows, holes, per_cell, seed);
            let classic = Recovery::new(mk(), cfg(seed)).expect("topology").run();
            let event = Recovery::new(mk(), cfg(seed))
                .expect("topology")
                .with_net_model(NetModelSpec::Ideal)
                .run();
            assert_eq!(classic, event, "{tag}");
            assert!(event.health.is_clean(), "{tag}: ideal weather is clean");
        }
    }
}

#[test]
fn sr_event_ideal_conformance_holds_in_asynchronous_mode() {
    // Activation draws come from the run RNG in both drives; probes
    // and notifications must not reorder them.
    assert_sr_knob_conformance("async", |seed| {
        SrConfig::default()
            .with_seed(seed)
            .with_activation_probability(0.4)
    });
}

#[test]
fn sr_event_ideal_conformance_holds_with_battery_dynamics() {
    // Movers and heads pay from their batteries; a long empty fault
    // horizon keeps the per-round idle drain running in both drives.
    assert_sr_knob_conformance("battery", |seed| {
        SrConfig::default()
            .with_seed(seed)
            .with_battery_dynamics(true)
            .with_fault_plan(FaultPlan::new().at(60, FaultEvent::KillNodes(vec![])))
    });
}

#[test]
fn sr_event_ideal_conformance_holds_with_head_rotation() {
    // Random re-election draws from the run RNG, so a rotation the
    // event drive skipped or reordered would show.
    assert_sr_knob_conformance("rotation", |seed| {
        SrConfig::default()
            .with_seed(seed)
            .with_election(wsn_grid::HeadElection::Random)
            .with_head_rotation(2)
    });
}

#[test]
fn event_ideal_conformance_holds_on_masked_regions_via_the_registry() {
    // The uniform API on an irregular region: classic vs
    // EventDriven{Ideal} through ReplacementScheme::run, no per-scheme
    // code. VF and SMART must refuse the mode without touching the
    // network.
    let registry = builtins();
    let mask = RegionMask::l_shape(8, 8);
    let mk = |seed: u64| {
        let sys = GridSystem::for_comm_range(8, 8, 10.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes = vec![enabled[7], enabled[19]];
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap()
    };
    for scheme in registry.iter() {
        for seed in [11u64, 47] {
            let tag = format!("{} seed={seed}", scheme.id());
            scheme
                .supports(&NetworkSpec::masked(mask.clone()))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            if scheme.supports_event_driven() {
                let mut net_c = mk(seed);
                let classic = scheme
                    .run(&mut net_c, seed, DriveMode::Classic)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let mut net_e = mk(seed);
                let event = scheme
                    .run(
                        &mut net_e,
                        seed,
                        DriveMode::EventDriven {
                            net: NetModelSpec::Ideal,
                        },
                    )
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(classic, event, "{tag}");
                assert_eq!(net_c.stats(), net_e.stats(), "{tag}");
                net_e.debug_invariants();
            } else {
                let mut net = mk(seed);
                let untouched = net.stats();
                assert!(
                    scheme
                        .run(
                            &mut net,
                            seed,
                            DriveMode::EventDriven {
                                net: NetModelSpec::Ideal,
                            },
                        )
                        .is_err(),
                    "{tag}: classic-only scheme must refuse the event driver"
                );
                assert_eq!(net.stats(), untouched, "{tag}: refusal must not mutate");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property form of the conformance claim: on arbitrary small
    /// grids, hole counts, densities and seeds, SR under
    /// EventDriven+Ideal is report-identical to the classic runner —
    /// whether or not the scenario is recoverable.
    #[test]
    fn sr_event_ideal_matches_classic_on_arbitrary_scenarios(
        cols in 4u16..9,
        rows in 4u16..9,
        holes in 1usize..4,
        per_cell in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mk = || seeded_network(cols, rows, holes, per_cell, seed);
        let classic = Recovery::new(mk(), SrConfig::default().with_seed(seed))
            .expect("grids >= 3x4 have a replacement structure")
            .run();
        let event = Recovery::new(mk(), SrConfig::default().with_seed(seed))
            .expect("grids >= 3x4 have a replacement structure")
            .with_net_model(NetModelSpec::Ideal)
            .run();
        prop_assert_eq!(classic, event);
    }
}

#[test]
fn one_message_per_backward_hop_under_ideal_weather() {
    // Theorem anchor (paper §IV): a snake-like replacement notifies
    // exactly once per backward hop. In the event engine every
    // backward hop is one `hole_announce` envelope, so the traced
    // envelope count must equal the classic runner's `messages`
    // counter — the classic counter *is* the hop count.
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47] {
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            let classic = Recovery::new(
                seeded_network(cols, rows, holes, per_cell, seed),
                SrConfig::default().with_seed(seed),
            )
            .expect("topology")
            .run();
            let mut event = Recovery::new(
                seeded_network(cols, rows, holes, per_cell, seed),
                SrConfig::default().with_seed(seed).with_trace(true),
            )
            .expect("topology")
            .with_net_model(NetModelSpec::Ideal);
            let report = event.run();
            let announces = event
                .trace()
                .records()
                .iter()
                .filter(|r| {
                    matches!(&r.event, TraceEvent::NetMessage { msg, .. } if msg == "hole_announce")
                })
                .count() as u64;
            assert_eq!(announces, classic.metrics.messages, "{tag}");
            assert_eq!(report.metrics.messages, classic.metrics.messages, "{tag}");
        }
    }
}

#[test]
fn single_initiation_per_hole_under_ideal_weather() {
    // Theorem anchor (Lemma 1 / Theorem 1): each vacant cell is
    // monitored by exactly one head, so exactly one process is
    // initiated per deployment hole — observable as a trace-count
    // equality, with a zero duplicate ledger to match.
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47] {
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            let mut event = Recovery::new(
                seeded_network(cols, rows, holes, per_cell, seed),
                SrConfig::default().with_seed(seed).with_trace(true),
            )
            .expect("topology")
            .with_net_model(NetModelSpec::Ideal);
            let report = event.run();
            let initiated = event.trace().count_kind("process_initiated") as u64;
            assert_eq!(initiated, holes as u64, "{tag}");
            assert_eq!(report.metrics.processes_initiated, holes as u64, "{tag}");
            assert_eq!(report.health.duplicate_initiations, 0, "{tag}");
        }
    }
}

#[test]
fn seeded_lossy_weather_breaks_the_single_initiation_guarantee() {
    // The CI-pinned honesty check: under a seeded Bernoulli 30%-loss
    // model the engine must *report* duplicate initiations and lost
    // cascades instead of silently preserving the paper's guarantees.
    let spec = NetModelSpec::Bernoulli {
        loss_ppm: 300_000,
        latency: 1,
    };
    let mut duplicates = 0u64;
    let mut lost = 0u64;
    let mut dropped = 0u64;
    for seed in 0..24 {
        let report = Recovery::new(cascade_network(seed), SrConfig::default().with_seed(seed))
            .expect("topology")
            .with_net_model(spec)
            .run();
        duplicates += report.health.duplicate_initiations;
        lost += report.health.lost_cascades;
        dropped += report.health.messages_dropped;
    }
    assert!(dropped > 0, "30% loss must drop messages");
    assert!(
        lost > 0,
        "some dropped message must be a cascade notification"
    );
    assert!(
        duplicates >= 1,
        "a lost baton must provoke at least one duplicate initiation"
    );
}
