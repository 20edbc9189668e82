//! Property-based tests for the virtual-grid substrate.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wsn_geometry::Point2;
use wsn_grid::{
    deploy, GridCoord, GridNetwork, GridSystem, HeadElection, HoleSet, RegionMask, RegionShape,
};
use wsn_simcore::{FaultEvent, NodeId, SimRng};

fn dims() -> impl Strategy<Value = (u16, u16)> {
    (1u16..12, 1u16..12)
}

/// A random mask built from rectangle differences and unions, with at
/// least one enabled cell restored at a random coordinate.
fn random_mask(cols: u16, rows: u16, seed: u64) -> RegionMask {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xfeed_f00d);
    let mut mask = RegionMask::full(cols, rows);
    for _ in 0..1 + rng.range_usize(3) {
        let x0 = rng.range_usize(cols as usize) as u16;
        let y0 = rng.range_usize(rows as usize) as u16;
        let x1 = x0 + rng.range_usize((cols - x0) as usize) as u16;
        let y1 = y0 + rng.range_usize((rows - y0) as usize) as u16;
        mask = mask.difference_rect(x0, y0, x1, y1);
    }
    if mask.enabled_count() == 0 {
        let x = rng.range_usize(cols as usize) as u16;
        let y = rng.range_usize(rows as usize) as u16;
        mask = mask.union_rect(x, y, x, y);
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deployment_preserves_invariants((cols, rows) in dims(), count in 0usize..400, seed in 0u64..1000) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        net.debug_invariants();
        prop_assert_eq!(net.node_count(), count);
        prop_assert_eq!(net.enabled_count(), count);
        let stats = net.stats();
        prop_assert_eq!(stats.occupied + stats.vacant, sys.cell_count());
        prop_assert_eq!(stats.spares, stats.enabled - stats.occupied);
    }

    #[test]
    fn masked_deployment_never_places_in_disabled_cells(
        (cols, rows) in (2u16..12, 2u16..12), count in 0usize..300, seed in 0u64..1000,
    ) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = random_mask(cols, rows, seed);
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        for &p in &pos {
            prop_assert!(mask.is_enabled(sys.cell_of(p).unwrap()));
        }
        let net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        net.debug_invariants();
        // Stats are over enabled cells only.
        let stats = net.stats();
        prop_assert_eq!(stats.occupied + stats.vacant, mask.enabled_count());
        prop_assert_eq!(stats.spares, stats.enabled - stats.occupied);
        // Every vacancy the index reports is an enabled cell.
        for c in net.vacant_iter() {
            prop_assert!(mask.is_enabled(c));
        }
        prop_assert_eq!(net.vacant_iter().collect::<Vec<_>>(), net.vacant_cells_scan());
    }

    #[test]
    fn masked_mutations_keep_nodes_out_of_disabled_cells(
        seed in 0u64..500, steps in 1usize..30, shape_idx in 0usize..4,
    ) {
        let shape = RegionShape::IRREGULAR[shape_idx];
        let (cols, rows) = (8u16, 8u16);
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = shape.build_mask(cols, rows);
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact_masked(&sys, &mask, 2, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let enabled_cells: Vec<GridCoord> = mask.iter_enabled().collect();
        for _ in 0..steps {
            // Random in-mask move; disabled targets must be rejected.
            let id = NodeId::new(rng.range_usize(net.node_count()) as u32);
            let target_cell = enabled_cells[rng.range_usize(enabled_cells.len())];
            let rect = sys.cell_rect(target_cell).unwrap();
            let dest = wsn_geometry::sample::point_in_rect(
                &rect, rng.uniform_f64(), rng.uniform_f64());
            if net.node(id).unwrap().status().is_enabled() {
                let out = net.move_node(id, dest).unwrap();
                prop_assert!(mask.is_enabled(out.to));
            }
            net.apply_fault(&FaultEvent::KillRandomEnabled { count: 1 }, &mut rng);
        }
        net.debug_invariants();
        for node in net.nodes() {
            if node.status().is_enabled() {
                prop_assert!(mask.is_enabled(sys.cell_of(node.position()).unwrap()));
            }
        }
    }

    #[test]
    fn election_heads_every_occupied_cell(
        (cols, rows) in dims(), count in 0usize..300, seed in 0u64..1000,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ][policy_idx];
        let sys = GridSystem::new(cols, rows, 1.5).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(policy, &mut rng);
        net.debug_invariants();
        for c in sys.iter_coords() {
            let head = net.head_of(c).unwrap();
            prop_assert_eq!(head.is_some(), !net.is_vacant(c).unwrap());
        }
    }

    #[test]
    fn random_kills_preserve_invariants(
        (cols, rows) in dims(), count in 0usize..300,
        kills in 0usize..350, seed in 0u64..1000,
    ) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let killed = net.apply_fault(&FaultEvent::KillRandomEnabled { count: kills }, &mut rng);
        net.debug_invariants();
        prop_assert_eq!(killed.len(), kills.min(count));
        prop_assert_eq!(net.enabled_count(), count - killed.len());
        // Repair leaves every occupied cell headed again.
        net.repair_heads(HeadElection::FirstId, &mut rng);
        for c in sys.iter_coords() {
            prop_assert_eq!(net.head_of(c).unwrap().is_some(), !net.is_vacant(c).unwrap());
        }
    }

    #[test]
    fn moves_between_cells_preserve_population(
        seed in 0u64..500, steps in 1usize..30,
    ) {
        let sys = GridSystem::new(6, 6, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let total = net.enabled_count();
        for _ in 0..steps {
            let id = NodeId::new(rng.range_u32(total as u32));
            let target = Point2::new(rng.uniform_in(0.0, 11.9), rng.uniform_in(0.0, 11.9));
            let before = net.cell_of_node(id).unwrap();
            let out = net.move_node(id, target).unwrap();
            prop_assert_eq!(out.from, before);
            net.debug_invariants();
        }
        prop_assert_eq!(net.enabled_count(), total);
    }

    #[test]
    fn incremental_occupancy_matches_full_scan_after_any_op_sequence(
        (cols, rows) in dims(), count in 0usize..250,
        seed in 0u64..1000, steps in 1usize..60,
    ) {
        // The tentpole invariant of the occupancy engine: after ANY
        // random sequence of deploys, faults, moves, and elections, the
        // incremental VacancySet / spare counters agree exactly with a
        // from-scratch full scan of the member table.
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        prop_assert!(net.changed_cells().is_empty(), "fresh journal must be clean");
        let area = sys.area();
        for _ in 0..steps {
            match rng.range_u32(5) {
                0 => {
                    // Disable a random node (may already be disabled).
                    if count > 0 {
                        let id = NodeId::new(rng.range_u32(count as u32));
                        let _ = net.disable_node(id);
                    }
                }
                1 => {
                    // Move a random enabled node anywhere in the area.
                    if count > 0 {
                        let id = NodeId::new(rng.range_u32(count as u32));
                        let target = Point2::new(
                            rng.uniform_in(area.min().x, area.max().x * 0.9999),
                            rng.uniform_in(area.min().y, area.max().y * 0.9999),
                        );
                        let _ = net.move_node(id, target);
                    }
                }
                2 => {
                    let _ = net.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: rng.range_usize(4) },
                        &mut rng,
                    );
                }
                3 => net.elect_all_heads(HeadElection::FirstId, &mut rng),
                _ => {
                    net.repair_heads(HeadElection::FirstId, &mut rng);
                }
            }
            // Index vs oracle, every step.
            prop_assert_eq!(net.vacant_iter().collect::<Vec<_>>(), net.vacant_cells_scan());
            prop_assert_eq!(
                net.vacant_iter().count(), net.vacant_count()
            );
            let mut enabled_scan = 0usize;
            let mut occupied_scan = 0usize;
            let mut spares_scan = 0usize;
            for c in sys.iter_coords() {
                let members = net.members(c).unwrap().len();
                enabled_scan += members;
                occupied_scan += usize::from(members > 0);
                spares_scan += members.saturating_sub(1);
                prop_assert_eq!(net.spare_count(c).unwrap(), members.saturating_sub(1));
                prop_assert_eq!(net.spare_iter(c).unwrap().count(), net.spare_count(c).unwrap());
            }
            prop_assert_eq!(net.enabled_count(), enabled_scan);
            prop_assert_eq!(net.occupied_cells(), occupied_scan);
            prop_assert_eq!(net.total_spares(), spares_scan);
            let stats = net.stats();
            prop_assert_eq!(stats.enabled, enabled_scan);
            prop_assert_eq!(stats.vacant, sys.cell_count() - occupied_scan);
            // Journal entries stay in range and deduplicated (full
            // index verification, including journal bits, lives in
            // debug_invariants).
            net.debug_invariants();
        }
        // A consumer that drains the journal ends up with pending state
        // matching reality.
        net.clear_changed_cells();
        prop_assert!(net.changed_cells().is_empty());
    }

    #[test]
    fn word_kernel_matches_journal_fold_and_scan_oracle(
        (cols, rows) in (2u16..12, 2u16..12), count in 0usize..250,
        seed in 0u64..1000, steps in 1usize..40, shape_idx in 0usize..5,
    ) {
        // The PR 7 kernel contract: after ANY sequence of deploys,
        // faults, and moves — on full and masked regions alike — the
        // word-level pending set (journal folds into a HoleSet), the
        // PR 2 journal fold (BTreeSet), the bulk word-detection kernels,
        // and the vacant_cells_scan() member-table oracle all agree.
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        // shape_idx 0 = the full rectangular region; 1..5 = the
        // irregular presets.
        let mask = if shape_idx == 0 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask, &pos).unwrap();
        // Seed both pending representations from the initial vacancies
        // (the same baseline every protocol takes).
        let mut kernel = HoleSet::new(sys.cell_count());
        kernel.assign_vacant(net.occupancy());
        let mut btree: BTreeSet<usize> = net.occupancy().iter_vacant().collect();
        let enabled_cells: Vec<GridCoord> = net.mask().iter_enabled().collect();
        for _ in 0..steps {
            match rng.range_u32(3) {
                0 => {
                    if count > 0 {
                        let id = NodeId::new(rng.range_u32(count as u32));
                        let _ = net.disable_node(id);
                    }
                }
                1 => {
                    if count > 0 {
                        let id = NodeId::new(rng.range_u32(count as u32));
                        let cell = enabled_cells[rng.range_usize(enabled_cells.len())];
                        let rect = sys.cell_rect(cell).unwrap();
                        let target = wsn_geometry::sample::point_in_rect(
                            &rect, rng.uniform_f64(), rng.uniform_f64());
                        let _ = net.move_node(id, target);
                    }
                }
                _ => {
                    let _ = net.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: rng.range_usize(5) },
                        &mut rng,
                    );
                }
            }
            // Fold the same journal into both representations, then
            // clear it once.
            kernel.fold_changes(net.occupancy());
            for &c in net.changed_cells() {
                if net.occupancy().is_vacant(c as usize) {
                    btree.insert(c as usize);
                } else {
                    btree.remove(&(c as usize));
                }
            }
            net.clear_changed_cells();
            // kernel fold == BTreeSet fold, same ascending sweep order.
            prop_assert_eq!(
                kernel.iter().collect::<Vec<_>>(),
                btree.iter().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(kernel.len(), btree.len());
            // The sweep stops after len() cells: every prefix a caller
            // takes, and the last cell, match the ordered set's.
            for k in [0, 1, btree.len() / 2, btree.len().saturating_sub(1), btree.len() + 1] {
                prop_assert_eq!(
                    kernel.iter().take(k).collect::<Vec<_>>(),
                    btree.iter().copied().take(k).collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(kernel.iter().last(), btree.last().copied());
            // Both == the member-table scan oracle.
            let scan: Vec<usize> = net
                .vacant_cells_scan()
                .into_iter()
                .map(|c| sys.index_of(c).unwrap())
                .collect();
            prop_assert_eq!(kernel.iter().collect::<Vec<_>>(), scan.clone());
            // Bulk word-detection kernels agree too (the vacancy words
            // already read disabled cells as occupied, so the masked
            // variant must coincide).
            let mut bulk = HoleSet::new(sys.cell_count());
            bulk.assign_vacant(net.occupancy());
            prop_assert_eq!(&bulk, &kernel);
            bulk.assign_vacant_masked(net.occupancy(), net.mask());
            prop_assert_eq!(bulk.iter().collect::<Vec<_>>(), scan);
            // Word-level spare scan == per-cell member-count probe.
            let spareful: Vec<GridCoord> = net.spareful_iter().collect();
            let spareful_scan: Vec<GridCoord> = sys
                .iter_coords()
                .filter(|&c| net.members(c).unwrap().len() >= 2)
                .collect();
            prop_assert_eq!(spareful, spareful_scan);
        }
    }

    #[test]
    fn reset_into_equals_freshly_built(
        (cols, rows) in (2u16..10, 2u16..10), count_a in 0usize..150,
        count_b in 0usize..150, seed in 0u64..1000, steps in 0usize..25,
        shape_idx in 0usize..5,
    ) {
        // The per-trial arena contract: however dirty the network is,
        // reset_into(positions) is indistinguishable from building a
        // fresh network over the same system/mask/positions.
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = if shape_idx == 0 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos_a = deploy::uniform_masked(&sys, &mask, count_a, &mut rng);
        let pos_b = deploy::uniform_masked(&sys, &mask, count_b, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos_a).unwrap();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let enabled_cells: Vec<GridCoord> = mask.iter_enabled().collect();
        for _ in 0..steps {
            match rng.range_u32(2) {
                0 => {
                    let _ = net.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: rng.range_usize(4) },
                        &mut rng,
                    );
                }
                _ => {
                    if count_a > 0 {
                        let id = NodeId::new(rng.range_u32(count_a as u32));
                        let cell = enabled_cells[rng.range_usize(enabled_cells.len())];
                        let rect = sys.cell_rect(cell).unwrap();
                        let target = wsn_geometry::sample::point_in_rect(
                            &rect, rng.uniform_f64(), rng.uniform_f64());
                        let _ = net.move_node(id, target);
                    }
                }
            }
        }
        net.reset_into(&pos_b).unwrap();
        let fresh = GridNetwork::with_mask(sys, mask, &pos_b).unwrap();
        prop_assert_eq!(&net, &fresh);
        prop_assert!(net.changed_cells().is_empty());
        net.debug_invariants();
    }

    #[test]
    fn headless_repair_matches_full_scan_oracle(
        (cols, rows) in (2u16..12, 2u16..12), count in 0usize..250,
        seed in 0u64..1000, steps in 1usize..40, shape_idx in 0usize..5,
    ) {
        // After ANY sequence of head-affecting mutations, on full and
        // masked regions, the bitset-driven repair elects in exactly the
        // cells, order and RNG draws of a full row-major scan.
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = if shape_idx == 0 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask, &pos).unwrap();
        let enabled_cells: Vec<GridCoord> = net.mask().iter_enabled().collect();
        let random_point = |rng: &mut SimRng| {
            let cell = enabled_cells[rng.range_usize(enabled_cells.len())];
            let rect = sys.cell_rect(cell).unwrap();
            wsn_geometry::sample::point_in_rect(&rect, rng.uniform_f64(), rng.uniform_f64())
        };
        for _ in 0..steps {
            let nodes = net.node_count() as u32;
            match rng.range_u32(7) {
                0 => {
                    if nodes > 0 {
                        let _ = net.disable_node(NodeId::new(rng.range_u32(nodes)));
                    }
                }
                1 => {
                    // Move any node (a spare, a head or a disabled one).
                    if nodes > 0 {
                        let id = NodeId::new(rng.range_u32(nodes));
                        let target = random_point(&mut rng);
                        let _ = net.move_node(id, target);
                    }
                }
                2 => {
                    // Move a head out of its cell.
                    let heads: Vec<NodeId> = net.heads().collect();
                    if !heads.is_empty() {
                        let id = heads[rng.range_usize(heads.len())];
                        let target = random_point(&mut rng);
                        let _ = net.move_node(id, target);
                    }
                }
                3 => {
                    let p = random_point(&mut rng);
                    net.add_node(p).unwrap();
                }
                4 => {
                    let cell = enabled_cells[rng.range_usize(enabled_cells.len())];
                    let members = net.members(cell).unwrap().to_vec();
                    if !members.is_empty() {
                        let id = members[rng.range_usize(members.len())];
                        net.set_head(cell, id).unwrap();
                    }
                }
                5 => net.elect_all_heads(HeadElection::FirstId, &mut rng),
                _ => {
                    let _ = net.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: rng.range_usize(5) },
                        &mut rng,
                    );
                }
            }
            net.debug_invariants();
        }
        let mut reference = net.clone();
        let mut reference_rng = rng.clone();
        let repaired = net.repair_heads(HeadElection::Random, &mut rng);
        let expected = repair_heads_full_scan(&mut reference, &mut reference_rng);
        prop_assert_eq!(repaired, expected);
        let heads: Vec<Option<NodeId>> =
            sys.iter_coords().map(|c| net.head_of(c).unwrap()).collect();
        let reference_heads: Vec<Option<NodeId>> =
            sys.iter_coords().map(|c| reference.head_of(c).unwrap()).collect();
        prop_assert_eq!(heads, reference_heads);
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
        net.debug_invariants();
        // Every occupied cell is headed, so a second repair is a no-op.
        prop_assert_eq!(net.repair_heads(HeadElection::Random, &mut rng), 0);
    }

    #[test]
    fn hole_set_sweep_stops_early_like_btreeset(
        cells in 1usize..600,
        ops in prop::collection::vec((0u8..3, 0usize..600), 0..80),
    ) {
        // Sparse sets (often one member in a large domain, the SR
        // single-replacement shape) exercise the early stop: the sweep
        // ends at the len()-th member, before the empty tail words.
        let mut kernel = HoleSet::new(cells);
        let mut btree = BTreeSet::new();
        for &(op, raw) in &ops {
            let idx = raw % cells;
            match op {
                0 => prop_assert_eq!(kernel.insert(idx), btree.insert(idx)),
                1 => prop_assert_eq!(kernel.remove(idx), btree.remove(&idx)),
                _ => {
                    kernel.clear();
                    btree.clear();
                }
            }
            prop_assert_eq!(kernel.len(), btree.len());
            prop_assert_eq!(
                kernel.iter().collect::<Vec<_>>(),
                btree.iter().copied().collect::<Vec<_>>()
            );
            let mut sweep = kernel.iter();
            for &want in &btree {
                prop_assert_eq!(sweep.next(), Some(want));
            }
            prop_assert_eq!(sweep.next(), None);
            prop_assert_eq!(kernel.first(), btree.first().copied());
        }
    }

    #[test]
    fn elect_all_heads_matches_per_cell_reference(
        (cols, rows) in (1u16..12, 1u16..12), count in 0usize..250,
        seed in 0u64..1000, policy_idx in 0usize..4, shape_idx in 0usize..5,
        drains in 0usize..40,
    ) {
        // For every policy, on full and masked regions, the election pass
        // picks the heads of a per-cell loop that computes every cell
        // center, and leaves the RNG at the same draw.
        let policy = [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ][policy_idx];
        let sys = GridSystem::new(cols, rows, 1.5).unwrap();
        let mask = if shape_idx == 0 || cols < 2 || rows < 2 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask, &pos).unwrap();
        // Uneven batteries so MaxEnergy has something to choose by, and a
        // stale head or two for the pass to overwrite.
        for _ in 0..drains.min(count) {
            let id = NodeId::new(rng.range_u32(count as u32));
            net.draw_battery(id, rng.uniform_in(0.0, 5_000.0)).unwrap();
        }
        if count > 0 {
            net.elect_all_heads(HeadElection::FirstId, &mut rng);
            let _ = net.disable_node(NodeId::new(rng.range_u32(count as u32)));
        }
        let mut reference_rng = rng.clone();
        let reference: Vec<Option<NodeId>> = sys
            .iter_coords()
            .map(|c| {
                let center = sys.cell_center(c).unwrap();
                policy.elect(net.members(c).unwrap(), net.nodes(), center, &mut reference_rng)
            })
            .collect();
        net.elect_all_heads(policy, &mut rng);
        let heads: Vec<Option<NodeId>> =
            sys.iter_coords().map(|c| net.head_of(c).unwrap()).collect();
        prop_assert_eq!(heads, reference);
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
        net.debug_invariants();
    }

    #[test]
    fn target_spares_hits_target((cols, rows) in (2u16..10, 2u16..10), target in 0usize..60, seed in 0u64..500) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_with_target_spares(&sys, target, 100_000, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        prop_assert_eq!(net.total_spares(), target);
    }

    #[test]
    fn cell_of_partition_is_total_and_unique(
        (cols, rows) in dims(),
        px in 0.0..1.0f64, py in 0.0..1.0f64,
    ) {
        let sys = GridSystem::new(cols, rows, 3.0).unwrap();
        let area = sys.area();
        let p = Point2::new(
            area.min().x + px * area.width() * 0.9999,
            area.min().y + py * area.height() * 0.9999,
        );
        let cell = sys.cell_of(p);
        prop_assert!(cell.is_some());
        let c = cell.unwrap();
        prop_assert!(sys.cell_rect(c).unwrap().contains(p));
        // No other cell contains it.
        for other in sys.iter_coords() {
            if other != c {
                prop_assert!(!sys.cell_rect(other).unwrap().contains(p));
            }
        }
    }
}

/// Head repair as a full row-major scan of every cell: the reference
/// the headless-bitset repair must reproduce draw for draw.
fn repair_heads_full_scan(net: &mut GridNetwork, rng: &mut SimRng) -> usize {
    let sys = *net.system();
    let mut repaired = 0;
    for c in sys.iter_coords() {
        let members = net.members(c).unwrap();
        if net.head_of(c).unwrap().is_none() && !members.is_empty() {
            let center = sys.cell_center(c).unwrap();
            let head = HeadElection::Random
                .elect(members, net.nodes(), center, rng)
                .unwrap();
            net.set_head(c, head).unwrap();
            repaired += 1;
        }
    }
    repaired
}

#[test]
fn with_holes_matches_requested_holes_exactly() {
    let sys = GridSystem::new(5, 5, 2.0).unwrap();
    let mut rng = SimRng::seed_from_u64(42);
    let holes = vec![
        GridCoord::new(0, 0),
        GridCoord::new(4, 4),
        GridCoord::new(2, 3),
    ];
    let pos = deploy::with_holes(&sys, &holes, 3, &mut rng);
    let net = GridNetwork::new(sys, &pos);
    let mut vacant: Vec<GridCoord> = net.vacant_iter().collect();
    vacant.sort();
    let mut expect = holes;
    expect.sort();
    assert_eq!(vacant, expect);
}
