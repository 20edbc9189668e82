//! Conformance of the classic drive: every round protocol stops by one
//! rule, [`RoundRunner::run`] — observed quiescence after an idle
//! window, the paper's round accounting — and must reach full coverage
//! on recoverable scenarios.
//!
//! This suite pins that for SR ([`Recovery`]) and AR ([`ArRecovery`])
//! across a seeded grid of recoverable scenarios (single-cycle and
//! dual-path grids, scattered holes, mid-run fault injection), and for
//! every registered scheme through the uniform
//! [`ReplacementScheme`](wsn_coverage::scheme::ReplacementScheme) API
//! on full and masked regions.
//!
//! [`RoundRunner::run`]: wsn_simcore::RoundRunner::run

use wsn_baselines::{builtins, ArConfig, ArRecovery};
use wsn_coverage::scheme::{DriveMode, NetworkSpec};
use wsn_coverage::{Recovery, SrConfig};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem, RegionMask, RegionShape};
use wsn_simcore::{FaultEvent, FaultPlan, NetModelSpec, SimRng};

/// The scenario grid: `(cols, rows, holes, per_cell)` per entry, each
/// run under several seeds. Deployments are dense enough that both
/// schemes reach full coverage.
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

#[test]
fn sr_recovers_fully_across_the_scenario_grid() {
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47, 1009] {
            let net = seeded_network(cols, rows, holes, per_cell, seed);
            let report = Recovery::new(net, SrConfig::default().with_seed(seed))
                .expect("topology exists")
                .run();
            let tag = format!("SR {cols}x{rows} holes={holes} seed={seed}");
            assert!(report.run.is_quiescent(), "{tag}: {report}");
            assert!(report.fully_covered, "{tag}: {report}");
            assert_eq!(
                report.metrics.processes_initiated, holes as u64,
                "{tag}: one process per hole"
            );
            assert_eq!(
                report.metrics.processes_converged, holes as u64,
                "{tag}: every process converges"
            );
        }
    }
}

#[test]
fn ar_recovers_fully_across_the_scenario_grid() {
    for (cols, rows, holes, per_cell) in scenario_grid() {
        for seed in [11u64, 47, 1009] {
            let net = seeded_network(cols, rows, holes, per_cell, seed);
            let report = ArRecovery::new(net, ArConfig::default().with_seed(seed))
                .expect("valid round cap")
                .run();
            let tag = format!("AR {cols}x{rows} holes={holes} seed={seed}");
            assert!(report.run.is_quiescent(), "{tag}: {report}");
            assert!(report.fully_covered, "{tag}: {report}");
            assert_eq!(report.final_stats.vacant, 0, "{tag}");
        }
    }
}

#[test]
fn sr_conformance_holds_under_mid_run_faults() {
    // Killing a whole cell at round 3 (after the initial holes are
    // already repaired) re-opens recovery: the run must execute the
    // fault round and recover from it.
    for seed in [5u64, 21] {
        let net = seeded_network(6, 6, 1, 2, seed);
        let victims = net
            .members(GridCoord::new(3, 3))
            .expect("in bounds")
            .to_vec();
        let cfg = SrConfig::default()
            .with_seed(seed)
            .with_fault_plan(FaultPlan::new().at(3, FaultEvent::KillNodes(victims)));
        let report = Recovery::new(net, cfg).expect("topology").run();
        assert!(report.run.is_quiescent(), "seed {seed}");
        assert!(report.fully_covered, "seed {seed}");
        // The fault round itself must have been executed.
        assert!(report.metrics.rounds > 3, "seed {seed}");
    }
}

#[test]
fn every_registered_scheme_drives_generically_through_the_registry() {
    // The uniform API: no per-scheme code in this loop at all. Every
    // registered scheme runs classic on a full region; schemes without
    // the event engine must refuse it without touching the network.
    let registry = builtins();
    let ids: Vec<String> = registry.ids().iter().map(ToString::to_string).collect();
    assert_eq!(ids, ["sr", "sr-sc", "ar", "vf", "smart"]);
    let event = DriveMode::EventDriven {
        net: NetModelSpec::Ideal,
    };
    for scheme in registry.iter() {
        for seed in [11u64, 47] {
            // 8x8 keeps every built-in in-spec (SR-SC needs an even side).
            let mk = || seeded_network(8, 8, 3, 2, seed);
            let tag = format!("{} seed={seed}", scheme.id());
            scheme
                .supports(&NetworkSpec::full(8, 8))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let mut net = mk();
            let before = net.stats();
            let classic = scheme
                .run(&mut net, seed, DriveMode::Classic)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            // The &mut contract: paired before/after inspection without
            // cloning.
            assert_eq!(classic.initial_stats, before, "{tag}");
            assert_eq!(classic.final_stats, net.stats(), "{tag}");
            net.debug_invariants();
            if !scheme.supports_event_driven() {
                let mut net2 = mk();
                let untouched = net2.stats();
                assert!(
                    scheme.run(&mut net2, seed, event).is_err(),
                    "{tag}: unsupported mode must be refused"
                );
                assert_eq!(net2.stats(), untouched, "{tag}: refusal must not mutate");
            }
        }
    }
}

#[test]
fn supports_is_honored_on_masked_regions() {
    let registry = builtins();
    // Every built-in supports the masked L-shape (the virtual ring
    // serves SR/SR-SC; AR/VF/SMART are structure-free) and actually
    // drives it without placing nodes in disabled cells.
    let mask = RegionMask::l_shape(8, 8);
    let spec = NetworkSpec::masked(mask.clone());
    for scheme in registry.iter() {
        scheme
            .supports(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.id()));
        let sys = GridSystem::for_comm_range(8, 8, 10.0).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let enabled: Vec<GridCoord> = mask.iter_enabled().collect();
        let holes = vec![enabled[7]];
        let pos = deploy::with_holes_masked(&sys, &mask, &holes, 2, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let report = scheme.run(&mut net, 5, DriveMode::Classic).unwrap();
        assert_eq!(report.final_stats, net.stats(), "{}", scheme.id());
        net.debug_invariants();
        for node in net.nodes() {
            if node.status().is_enabled() {
                let cell = sys.cell_of(node.position()).unwrap();
                assert!(
                    mask.is_enabled(cell),
                    "{}: node in disabled {cell}",
                    scheme.id()
                );
            }
        }
    }
    // ...and a region a scheme cannot serve is refused up front: odd x odd
    // full grids have no single Hamilton cycle for SR-SC, and 1xN strips
    // have no replacement structure for SR at all.
    let sr_sc = registry.get("sr-sc").unwrap();
    assert!(sr_sc.supports(&NetworkSpec::full(5, 5)).is_err());
    let sr = registry.get("sr").unwrap();
    assert!(sr.supports(&NetworkSpec::full(1, 4)).is_err());
    // Structure-free schemes shrug at both.
    for id in ["ar", "vf", "smart"] {
        let scheme = registry.get(id).unwrap();
        assert!(scheme.supports(&NetworkSpec::full(5, 5)).is_ok(), "{id}");
        for shape in RegionShape::IRREGULAR {
            let spec = NetworkSpec::masked(shape.build_mask(10, 10));
            assert!(scheme.supports(&spec).is_ok(), "{id}@{shape}");
        }
    }
}
