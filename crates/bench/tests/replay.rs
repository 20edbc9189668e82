//! End-to-end exercises for the record/replay subsystem: campaign
//! coordinates re-execute deterministically, artifacts round-trip
//! through the binary container, a planted conformance bug is caught,
//! pinpointed and delta-debugged down to the hand-computed minimal
//! fault schedule, and the checked-in golden fixture replays clean on
//! every machine.

use std::path::{Path, PathBuf};

use wsn_bench::campaign::CampaignConfig;
use wsn_bench::replay::{
    self, fault_plan_from_str, fault_plan_to_string, parse_drive, record, recordings_diverge,
    scheme_with_plan, shrink_between, trace_matches_metrics, ReplayArtifact, ReplayError,
    ReplaySpec, PLANTED_SCHEME_ID, PLANTED_TRIGGER_ROUND,
};
use wsn_coverage::scheme::DriveMode;
use wsn_geometry::{Disk, Point2};
use wsn_simcore::replay::diff_logs;
use wsn_simcore::{FaultEvent, FaultPlan, NetModelSpec, NodeId, TraceEvent};

fn ids(raw: &[u32]) -> Vec<NodeId> {
    raw.iter().copied().map(NodeId::new).collect()
}

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn_replay_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A fault schedule that arms the planted bug (a kill-nodes batch at or
/// after the trigger round) surrounded by decoy batches the shrinker
/// must discard.
fn armed_plan() -> FaultPlan {
    FaultPlan::new()
        .at(1, FaultEvent::KillNodes(ids(&[3])))
        .at(2, FaultEvent::KillRandomEnabled { count: 1 })
        .at(PLANTED_TRIGGER_ROUND, FaultEvent::KillNodes(ids(&[5, 9])))
        .at(PLANTED_TRIGGER_ROUND + 1, FaultEvent::KillNodes(ids(&[12])))
}

#[test]
fn fault_plan_text_codec_round_trips() {
    let disk = Disk::new(Point2::new(1.0 / 3.0, 2.5e-3), 7.25).unwrap();
    let plan = FaultPlan::new()
        .at(0, FaultEvent::KillNodes(ids(&[0, 7, u32::MAX])))
        .at(3, FaultEvent::KillRandomEnabled { count: 5 })
        .at(9, FaultEvent::KillRegion(disk));
    let text = fault_plan_to_string(&plan);
    assert_eq!(fault_plan_from_str(&text).unwrap(), plan);
    // The empty plan is the fixed point of both directions.
    assert_eq!(fault_plan_to_string(&FaultPlan::new()), "");
    assert_eq!(fault_plan_from_str("").unwrap(), FaultPlan::new());
    // Malformed batches are named in the error.
    assert!(matches!(
        fault_plan_from_str("5:frobnicate:1"),
        Err(ReplayError::BadArtifact(_))
    ));
    assert!(fault_plan_from_str("x:kill-random:1").is_err());
}

#[test]
fn artifacts_round_trip_through_the_binary_container() {
    let matrix = ReplaySpec::matrix("sr", (8, 8), 10, 2)
        .with_drive(DriveMode::EventDriven {
            net: NetModelSpec::FixedLatency { ticks: 2 },
        })
        .with_plan(armed_plan());
    let scenario = ReplaySpec::scenario("ar", (6, 6), 2, 2, 47);
    for spec in [matrix, scenario] {
        let rec = record(&spec).expect("spec records");
        for baseline in [None, Some(("sr".to_string(), DriveMode::Classic))] {
            let artifact = ReplayArtifact::from_recording(&rec, baseline);
            let bytes = artifact.to_bytes();
            let back = ReplayArtifact::from_bytes(&bytes).expect("artifact parses");
            assert_eq!(back, artifact, "{}", spec.slug());
        }
    }
    // A container without the replay schema tag is rejected up front.
    let plain = wsn_simcore::trace::binary::encode(&[], &wsn_simcore::TraceLog::new());
    assert!(matches!(
        ReplayArtifact::from_bytes(&plain),
        Err(ReplayError::BadArtifact(_))
    ));
}

#[test]
fn recording_a_spec_twice_is_byte_identical_and_replays_clean() {
    let spec = ReplaySpec::matrix("sr", (8, 8), 10, 0);
    let a = record(&spec).expect("records");
    let b = record(&spec).expect("records");
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.report, b.report);
    let artifact = ReplayArtifact::from_recording(&a, None);
    assert_eq!(
        artifact.to_bytes(),
        ReplayArtifact::from_recording(&b, None).to_bytes()
    );
    assert!(artifact.verify().expect("replays").is_clean());
}

#[test]
fn campaign_coordinates_are_re_executable() {
    // Any (cell, trial) of a campaign resolves to a spec that records —
    // the trial is reproducible from the config and coordinate alone.
    let cfg = CampaignConfig::smoke();
    let cells = cfg.schemes.len() * cfg.regions.len() * cfg.grids.len() * cfg.targets.len();
    for cell in [0, cells / 2, cells - 1] {
        let spec = ReplaySpec::for_campaign_trial(&cfg, cell, 1).expect("in range");
        let rec = record(&spec).unwrap_or_else(|e| panic!("cell {cell}: {e}"));
        assert!(
            rec.trace.is_enabled(),
            "cell {cell} ({}) must capture events",
            spec.slug()
        );
        trace_matches_metrics(&rec).unwrap_or_else(|e| panic!("cell {cell}: {e}"));
        // Same coordinate, same record — order and repetition free.
        let again = record(&spec).expect("re-records");
        assert_eq!(rec.trace, again.trace, "cell {cell}");
    }
    assert!(matches!(
        ReplaySpec::for_campaign_trial(&cfg, cells, 0),
        Err(ReplayError::BadCell { .. })
    ));
}

#[test]
fn event_drive_specs_round_trip_and_replay_clean() {
    // Every network-model token survives the artifact codec, and a
    // recorded event-driven run re-executes byte-identically from its
    // own metadata — lossy weather included, because the link RNG is
    // seeded from the spec, not the wall clock.
    let nets = [
        NetModelSpec::Ideal,
        NetModelSpec::FixedLatency { ticks: 3 },
        NetModelSpec::Bernoulli {
            loss_ppm: 300_000,
            latency: 2,
        },
        NetModelSpec::Jammer {
            x_mm: 2_500,
            y_mm: 2_500,
            radius_mm: 1_200,
        },
    ];
    for net in nets {
        let spec =
            ReplaySpec::scenario("sr", (6, 6), 2, 2, 47).with_drive(DriveMode::EventDriven { net });
        let rec = record(&spec).unwrap_or_else(|e| panic!("{}: {e}", net.token()));
        let artifact = ReplayArtifact::from_recording(&rec, None);
        let back = ReplayArtifact::from_bytes(&artifact.to_bytes()).expect("artifact parses");
        assert_eq!(back, artifact, "{}", net.token());
        assert_eq!(back.spec.drive, DriveMode::EventDriven { net });
        assert!(
            artifact.verify().expect("replays").is_clean(),
            "{}",
            net.token()
        );
    }
}

#[test]
fn degraded_campaign_coordinates_resolve_to_the_cells_weather() {
    // A degraded-mode coordinate must reproduce what the worker ran:
    // the event-driven drive carrying that cell's network model. The
    // smoke config's net axis is 2 latencies x 2 losses with losses
    // innermost, so consecutive cells walk the weather matrix.
    let cfg = CampaignConfig::degraded_smoke();
    let combos = cfg.degraded.combo_count();
    let cells =
        cfg.schemes.len() * cfg.regions.len() * cfg.grids.len() * cfg.targets.len() * combos;
    for cell in [0, 1, combos - 1, cells - 1] {
        let spec = ReplaySpec::for_campaign_trial(&cfg, cell, 0).expect("in range");
        assert_eq!(
            spec.drive,
            DriveMode::EventDriven {
                net: cfg.degraded.spec(cell % combos)
            },
            "cell {cell}"
        );
        let rec = record(&spec).unwrap_or_else(|e| panic!("cell {cell}: {e}"));
        let again = record(&spec).expect("re-records");
        assert_eq!(rec.trace, again.trace, "cell {cell}");
    }
    assert!(matches!(
        ReplaySpec::for_campaign_trial(&cfg, cells, 0),
        Err(ReplayError::BadCell { .. })
    ));
}

#[test]
fn traced_runs_bill_exactly_one_event_per_move_for_every_scheme() {
    for scheme in ["sr", "sr-sc", "ar", "vf", "smart"] {
        let spec = ReplaySpec::scenario(scheme, (8, 8), 3, 2, 11);
        let rec = record(&spec).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        trace_matches_metrics(&rec).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(!rec.trace.is_empty(), "{scheme}: trace must not be empty");
    }
}

#[test]
fn trace_vocabulary_pins_single_initiation_and_one_message_per_hop() {
    // THEORY.md maps two of the paper's claims onto the trace
    // vocabulary, and this test is their pin. (1) Single initiation
    // (Theorem 1's synchronization): every replacement process appears
    // in the log as exactly one `process_initiated` event, one per
    // hole. (2) One message per hop: SR's only messages are the
    // backward notifications, so `notification_sent` events equal the
    // billed `messages` exactly.
    let spec = ReplaySpec::scenario("sr", (8, 8), 3, 2, 47);
    let rec = record(&spec).expect("sr records");
    let m = &rec.report.metrics;
    assert_eq!(
        rec.trace.count_kind("process_initiated") as u64,
        m.processes_initiated
    );
    assert_eq!(rec.trace.count_kind("notification_sent") as u64, m.messages);
    assert_eq!(rec.trace.count_kind("node_moved") as u64, m.moves);
    let mut seen = std::collections::BTreeSet::new();
    for r in rec.trace.of_kind("process_initiated") {
        if let TraceEvent::ProcessInitiated { process, .. } = &r.event {
            assert!(seen.insert(*process), "process #{process} initiated twice");
        }
    }
    assert_eq!(seen.len() as u64, m.processes_initiated);
}

#[test]
fn unknown_drive_tokens_are_refused_not_panicked_on() {
    // Every run has one stop rule, so the drive codec knows `classic`
    // and `event-<net>` only. The retired `change-driven` token is
    // refused by the parser, by artifact decoding and by `replay
    // record --drive`.
    for token in ["change-driven", "adaptive", "event-", "event-warp"] {
        assert!(
            matches!(parse_drive(token), Err(ReplayError::BadArtifact(_))),
            "{token}"
        );
    }
    let rec = record(&ReplaySpec::scenario("sr", (4, 4), 1, 2, 11)).expect("records");
    let bytes =
        ReplayArtifact::from_recording(&rec, Some(("sr".into(), DriveMode::Classic))).to_bytes();
    let (meta, trace) = wsn_simcore::trace::binary::decode(&bytes).expect("decodes");
    for key in ["drive", "baseline_drive"] {
        let edited: Vec<(String, String)> = meta
            .iter()
            .map(|(k, v)| {
                let v = if k == key { "change-driven" } else { v };
                (k.clone(), v.to_string())
            })
            .collect();
        let tampered = wsn_simcore::trace::binary::encode(&edited, &trace);
        assert!(
            matches!(
                ReplayArtifact::from_bytes(&tampered),
                Err(ReplayError::BadArtifact(_))
            ),
            "{key}"
        );
    }
    let dir = scratch("bad_drive");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(["record", "sr", "--drive", "change-driven"])
        .env("WSN_RESULTS_DIR", &dir)
        .output()
        .expect("replay binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --drive"), "{stderr}");
}

#[test]
fn scheme_factory_rejects_unknowns_and_planful_baselines() {
    assert!(matches!(
        scheme_with_plan("nope", &FaultPlan::new()),
        Err(ReplayError::UnknownScheme(_))
    ));
    // The structure-free baselines have no fault hook: an empty plan is
    // fine, a non-empty one must be refused instead of silently dropped.
    for id in ["ar", "vf", "smart"] {
        assert!(scheme_with_plan(id, &FaultPlan::new()).is_ok(), "{id}");
        assert!(
            matches!(
                scheme_with_plan(id, &armed_plan()),
                Err(ReplayError::PlanNotSupported(_))
            ),
            "{id}"
        );
    }
    for id in ["sr", "sr-sc", PLANTED_SCHEME_ID] {
        assert!(scheme_with_plan(id, &armed_plan()).is_ok(), "{id}");
    }
}

#[test]
fn planted_divergence_is_caught_pinpointed_and_shrunk_end_to_end() {
    // The full loop the conformance battery relies on, proven against
    // the planted bug: record -> diverge -> artifact -> diff pinpoints
    // the corrupted event -> shrink lands on the hand-computed minimum.
    let planted = ReplaySpec::matrix(PLANTED_SCHEME_ID, (8, 8), 10, 0).with_plan(armed_plan());
    let real = planted.clone().with_scheme("sr");
    let left = record(&planted).expect("planted records");
    let right = record(&real).expect("sr records");
    assert!(
        recordings_diverge(&left, &right),
        "the planted bug must diverge from real SR"
    );

    // The diff pinpoints the corruption: the first divergent record is
    // a notification at/after the trigger round, re-routed to itself.
    let diff = diff_logs(&left.trace, &right.trace);
    let div = diff.divergence.clone().expect("divergence reported");
    let bad = div.left.expect("left side has the corrupted record");
    assert!(bad.round >= PLANTED_TRIGGER_ROUND);
    match bad.event {
        TraceEvent::NotificationSent { from, to, .. } => {
            assert_eq!(from, to, "the planted bug re-routes to the sender")
        }
        other => panic!("expected a corrupted notification, got {other}"),
    }

    // The emitted report writes both artifacts + the shrunk schedule.
    let dir = scratch("e2e");
    let msg = replay::divergence_message(&dir, "planted e2e", &planted, &real)
        .expect("divergence report");
    assert!(msg.contains("runs diverged"), "{msg}");
    assert!(msg.contains("minimal failing schedule"), "{msg}");
    let left_path = dir.join(format!("replay_{}.trace", planted.slug()));
    let right_path = dir.join(format!("replay_{}.trace", real.slug()));
    assert!(left_path.exists(), "{msg}");
    assert!(right_path.exists(), "{msg}");
    // Both artifacts re-execute from disk alone.
    for path in [&left_path, &right_path] {
        let art = ReplayArtifact::load(path).expect("artifact loads");
        assert!(
            art.verify().expect("replays").is_clean(),
            "{}",
            path.display()
        );
    }

    // The shrunk schedule is the hand-computed minimum: one kill-nodes
    // batch, one victim, at/after the trigger round.
    let report = shrink_between(&planted, &real).expect("shrinks");
    assert!(report.reproduced);
    let events = report.plan.events();
    assert_eq!(events.len(), 1, "{}", fault_plan_to_string(&report.plan));
    assert!(events[0].round >= PLANTED_TRIGGER_ROUND);
    match &events[0].event {
        FaultEvent::KillNodes(victims) => assert_eq!(victims.len(), 1),
        other => panic!("expected a kill-nodes batch, got {other:?}"),
    }

    // Deterministic: reruns take the identical path and land on the
    // identical schedule (ddmin is a pure fold over oracle answers).
    let again = shrink_between(&planted, &real).expect("shrinks again");
    assert_eq!(again.plan, report.plan);
    assert_eq!(again.oracle_calls, report.oracle_calls);
}

#[test]
fn seeded_known_bad_schedules_all_shrink_to_the_minimum() {
    // Satellite battery for the shrinker: differently-shaped known-bad
    // schedules (decoy rounds before the trigger, random-kill noise,
    // fat victim lists, redundant batches) must all reduce to exactly
    // one kill-nodes batch with one victim — and deterministically so.
    let schedules = [
        FaultPlan::new().at(PLANTED_TRIGGER_ROUND, FaultEvent::KillNodes(ids(&[2]))),
        FaultPlan::new().at(7, FaultEvent::KillNodes(ids(&[1, 2, 3, 4, 5, 6]))),
        armed_plan(),
        FaultPlan::new()
            .at(0, FaultEvent::KillRandomEnabled { count: 2 })
            .at(1, FaultEvent::KillNodes(ids(&[8])))
            .at(4, FaultEvent::KillNodes(ids(&[10, 11])))
            .at(5, FaultEvent::KillNodes(ids(&[20, 21])))
            .at(6, FaultEvent::KillNodes(ids(&[30]))),
    ];
    for (i, plan) in schedules.into_iter().enumerate() {
        let planted = ReplaySpec::matrix(PLANTED_SCHEME_ID, (8, 8), 10, 0).with_plan(plan.clone());
        let real = planted.clone().with_scheme("sr");
        let report = shrink_between(&planted, &real).unwrap_or_else(|e| panic!("plan {i}: {e}"));
        assert!(report.reproduced, "plan {i} must reproduce");
        let events = report.plan.events();
        assert_eq!(
            events.len(),
            1,
            "plan {i} shrank to {:?}",
            fault_plan_to_string(&report.plan)
        );
        assert!(events[0].round >= PLANTED_TRIGGER_ROUND, "plan {i}");
        match &events[0].event {
            FaultEvent::KillNodes(victims) => {
                assert_eq!(victims.len(), 1, "plan {i}");
                // 1-minimality is against the original schedule: the
                // surviving victim came from one of its batches.
                assert!(
                    plan.events().iter().any(|e| matches!(
                        &e.event,
                        FaultEvent::KillNodes(orig) if orig.contains(&victims[0])
                    )),
                    "plan {i}"
                );
            }
            other => panic!("plan {i}: expected kill-nodes, got {other:?}"),
        }
        let again = shrink_between(&planted, &real).unwrap();
        assert_eq!(
            again.plan, report.plan,
            "plan {i} must shrink deterministically"
        );
        assert_eq!(again.oracle_calls, report.oracle_calls, "plan {i}");
    }
}

#[test]
fn unarmed_schedules_do_not_reproduce() {
    // Schedules that never arm the planted bug leave the two schemes
    // identical, and the shrinker reports that instead of fabricating a
    // minimum.
    let plan = FaultPlan::new().at(1, FaultEvent::KillNodes(ids(&[3])));
    let planted = ReplaySpec::matrix(PLANTED_SCHEME_ID, (8, 8), 10, 0).with_plan(plan);
    let real = planted.clone().with_scheme("sr");
    let l = record(&planted).unwrap();
    let r = record(&real).unwrap();
    assert!(!recordings_diverge(&l, &r));
    let report = shrink_between(&planted, &real).unwrap();
    assert!(!report.reproduced);
}

#[test]
fn golden_replay_fixture_parses_re_executes_and_diffs_clean() {
    // The checked-in fixture must parse, re-execute from its own
    // metadata, and produce a byte-identical trace on every machine —
    // any codec, RNG-stream or scheme-behavior drift fails here first.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/replay_smoke.trace");
    let artifact = ReplayArtifact::load(&path).expect("golden fixture parses");
    assert_eq!(artifact.spec.scheme, "sr");
    assert!(!artifact.trace.is_empty(), "fixture holds a real trace");
    let diff = artifact.verify().expect("fixture spec still runs");
    assert!(
        diff.is_clean(),
        "golden replay fixture diverged from a fresh run:\n{diff}"
    );
    // And the serialized form is canonical: load -> save is identity.
    assert_eq!(
        artifact.to_bytes(),
        std::fs::read(&path).expect("fixture readable")
    );
}
