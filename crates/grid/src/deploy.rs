//! Deployment generators.
//!
//! The paper's §5 methodology: "After deploying all the nodes in the
//! uniform distribution, we randomly disable some nodes from the
//! collaboration and create the holes. … we deploy 5000 sensors and
//! select those cases when N's value is in the range from 10 to 1000."
//!
//! Deploying `E` nodes uniformly is distributionally identical to
//! deploying 5000 uniformly and disabling a uniformly random subset of
//! `5000 − E`, so the harness uses [`uniform`] with the effective enabled
//! count, and [`uniform_with_target_spares`] to land on an exact spare
//! count `N` (adding uniform nodes one at a time increments either the
//! occupied-cell count or the spare count, so any `N` is hit exactly).

use wsn_geometry::{sample, Point2};
use wsn_simcore::SimRng;

use crate::{GridCoord, GridSystem, RegionMask};

/// `count` node positions uniformly distributed over the surveillance
/// area.
pub fn uniform(system: &GridSystem, count: usize, rng: &mut SimRng) -> Vec<Point2> {
    let area = system.area();
    (0..count)
        .map(|_| sample::point_in_rect(&area, rng.uniform_f64(), rng.uniform_f64()))
        .collect()
}

/// Exactly `per_cell` nodes in every cell, each placed uniformly inside
/// its cell. Produces a hole-free network with `(per_cell − 1)` spares per
/// cell — the deterministic fixture used by protocol unit tests.
pub fn per_cell_exact(system: &GridSystem, per_cell: usize, rng: &mut SimRng) -> Vec<Point2> {
    let mut out = Vec::with_capacity(system.cell_count() * per_cell);
    for coord in system.iter_coords() {
        let rect = system
            .cell_rect(coord)
            .expect("iter_coords yields in-bounds coords");
        for _ in 0..per_cell {
            out.push(sample::point_in_rect(
                &rect,
                rng.uniform_f64(),
                rng.uniform_f64(),
            ));
        }
    }
    out
}

/// Uniform deployment that stops as soon as the network would hold
/// exactly `target_spares` spare nodes (`enabled − occupied cells`).
///
/// Returns the positions and the number of cells still vacant at that
/// point. Matches the paper's sweep axis: "number of spare sensors N in
/// the networks". The generator adds uniform points one at a time; each
/// addition either occupies a new cell (spares unchanged) or adds a spare
/// (spares + 1), so the walk hits every spare count exactly once.
///
/// `max_nodes` caps the attempt (the cap protects against pathological
/// targets such as `target_spares > max_nodes`); the actual spare count
/// achieved is `positions.len() − occupied`, which equals `target_spares`
/// unless the cap was hit.
pub fn uniform_with_target_spares(
    system: &GridSystem,
    target_spares: usize,
    max_nodes: usize,
    rng: &mut SimRng,
) -> Vec<Point2> {
    let area = system.area();
    let mut occupied = vec![false; system.cell_count()];
    let mut occupied_count = 0usize;
    let mut positions = Vec::new();
    let mut spares = 0usize;
    while spares < target_spares && positions.len() < max_nodes {
        let p = sample::point_in_rect(&area, rng.uniform_f64(), rng.uniform_f64());
        let cell = system.cell_of(p).expect("sampled inside area");
        let idx = system.index_of(cell).expect("in-bounds");
        if occupied[idx] {
            spares += 1;
        } else {
            occupied[idx] = true;
            occupied_count += 1;
        }
        positions.push(p);
    }
    let _ = occupied_count;
    positions
}

/// Clustered deployment: `hotspots` Gaussian-ish clusters with the given
/// spread (standard deviation in meters, approximated by the sum of two
/// uniforms), `count` nodes total. Used by the extension experiments to
/// show SR's behaviour under non-uniform density.
pub fn clustered(
    system: &GridSystem,
    count: usize,
    hotspots: usize,
    spread: f64,
    rng: &mut SimRng,
) -> Vec<Point2> {
    let area = system.area();
    let hotspots = hotspots.max(1);
    let centers: Vec<Point2> = (0..hotspots)
        .map(|_| sample::point_in_rect(&area, rng.uniform_f64(), rng.uniform_f64()))
        .collect();
    (0..count)
        .map(|_| {
            let c = centers[rng.range_usize(centers.len())];
            // Irwin–Hall(2) centered noise: triangular, sigma ~ spread.
            let nx = (rng.uniform_f64() + rng.uniform_f64() - 1.0) * spread * 2.0;
            let ny = (rng.uniform_f64() + rng.uniform_f64() - 1.0) * spread * 2.0;
            area.clamp_point(Point2::new(c.x + nx, c.y + ny))
        })
        .collect()
}

/// Positions that leave exactly the cells in `holes` vacant and place
/// `per_occupied_cell` nodes in every other cell — the crafted-scenario
/// generator for integration tests and examples.
pub fn with_holes(
    system: &GridSystem,
    holes: &[GridCoord],
    per_occupied_cell: usize,
    rng: &mut SimRng,
) -> Vec<Point2> {
    let mut out = Vec::new();
    for coord in system.iter_coords() {
        if holes.contains(&coord) {
            continue;
        }
        let rect = system
            .cell_rect(coord)
            .expect("iter_coords yields in-bounds coords");
        for _ in 0..per_occupied_cell {
            out.push(sample::point_in_rect(
                &rect,
                rng.uniform_f64(),
                rng.uniform_f64(),
            ));
        }
    }
    out
}

/// `count` node positions uniformly distributed over the *enabled* cells
/// of `mask` (rejection sampling over the surveillance area, so the
/// distribution conditioned on the enabled region stays uniform). Never
/// places a node in a disabled cell.
///
/// # Panics
///
/// Panics when `mask` has no enabled cells (there is nowhere to deploy)
/// or its dimensions disagree with `system`.
pub fn uniform_masked(
    system: &GridSystem,
    mask: &RegionMask,
    count: usize,
    rng: &mut SimRng,
) -> Vec<Point2> {
    let mut out = Vec::new();
    uniform_masked_into(system, mask, count, rng, &mut out);
    out
}

/// [`uniform_masked`] appending to `out` instead of allocating: the
/// same RNG draws and positions, so callers can reuse one buffer across
/// deployments.
///
/// # Panics
///
/// As [`uniform_masked`].
pub fn uniform_masked_into(
    system: &GridSystem,
    mask: &RegionMask,
    count: usize,
    rng: &mut SimRng,
    out: &mut Vec<Point2>,
) {
    mask.check_dims(system.cols(), system.rows())
        .expect("mask must match the grid dimensions");
    assert!(
        mask.enabled_count() > 0,
        "cannot deploy into an all-disabled region"
    );
    let area = system.area();
    let end = out.len() + count;
    out.reserve(count);
    while out.len() < end {
        let p = sample::point_in_rect(&area, rng.uniform_f64(), rng.uniform_f64());
        let idx = system.index_at(p).expect("sampled inside area");
        if mask.index_enabled(idx) {
            out.push(p);
        }
    }
}

/// Exactly `per_cell` nodes in every *enabled* cell of `mask` — the
/// masked counterpart of [`per_cell_exact`]. Disabled cells receive
/// nothing.
pub fn per_cell_exact_masked(
    system: &GridSystem,
    mask: &RegionMask,
    per_cell: usize,
    rng: &mut SimRng,
) -> Vec<Point2> {
    mask.check_dims(system.cols(), system.rows())
        .expect("mask must match the grid dimensions");
    let mut out = Vec::with_capacity(mask.enabled_count() * per_cell);
    for coord in mask.iter_enabled() {
        let rect = system
            .cell_rect(coord)
            .expect("mask coords are in the grid");
        for _ in 0..per_cell {
            out.push(sample::point_in_rect(
                &rect,
                rng.uniform_f64(),
                rng.uniform_f64(),
            ));
        }
    }
    out
}

/// Positions that leave exactly the enabled cells in `holes` vacant and
/// place `per_occupied_cell` nodes in every other *enabled* cell — the
/// masked counterpart of [`with_holes`]. Disabled cells (and disabled
/// entries of `holes`) receive nothing.
pub fn with_holes_masked(
    system: &GridSystem,
    mask: &RegionMask,
    holes: &[GridCoord],
    per_occupied_cell: usize,
    rng: &mut SimRng,
) -> Vec<Point2> {
    let mut out = Vec::new();
    with_holes_masked_into(system, mask, holes, per_occupied_cell, rng, &mut out);
    out
}

/// [`with_holes_masked`] appending to `out` instead of allocating: the
/// same RNG draws and positions, so callers can reuse one buffer across
/// deployments.
pub fn with_holes_masked_into(
    system: &GridSystem,
    mask: &RegionMask,
    holes: &[GridCoord],
    per_occupied_cell: usize,
    rng: &mut SimRng,
    out: &mut Vec<Point2>,
) {
    mask.check_dims(system.cols(), system.rows())
        .expect("mask must match the grid dimensions");
    out.reserve(mask.enabled_count() * per_occupied_cell);
    for coord in mask.iter_enabled() {
        if holes.contains(&coord) {
            continue;
        }
        // The mask matches the grid, so its coordinates need no bounds
        // re-check: take the rect straight from the cell geometry.
        let rect = system
            .geometry()
            .cell_rect(u32::from(coord.x), u32::from(coord.y));
        for _ in 0..per_occupied_cell {
            out.push(sample::point_in_rect(
                &rect,
                rng.uniform_f64(),
                rng.uniform_f64(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridNetwork;

    fn sys() -> GridSystem {
        GridSystem::new(8, 8, 2.0).unwrap()
    }

    #[test]
    fn uniform_inside_area_and_deterministic() {
        let s = sys();
        let mut rng1 = SimRng::seed_from_u64(3);
        let mut rng2 = SimRng::seed_from_u64(3);
        let a = uniform(&s, 500, &mut rng1);
        let b = uniform(&s, 500, &mut rng2);
        assert_eq!(a, b);
        let area = s.area();
        assert!(a.iter().all(|&p| area.contains(p)));
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn uniform_spreads_over_cells() {
        let s = sys();
        let mut rng = SimRng::seed_from_u64(4);
        let pos = uniform(&s, 2000, &mut rng);
        let net = GridNetwork::new(s, &pos);
        // 2000 nodes in 64 cells: every cell occupied w.h.p.
        assert_eq!(net.occupied_cells(), 64);
    }

    #[test]
    fn per_cell_exact_fills_every_cell() {
        let s = sys();
        let mut rng = SimRng::seed_from_u64(5);
        let pos = per_cell_exact(&s, 3, &mut rng);
        assert_eq!(pos.len(), 64 * 3);
        let net = GridNetwork::new(s, &pos);
        for c in s.iter_coords() {
            assert_eq!(net.members(c).unwrap().len(), 3);
        }
        assert_eq!(net.total_spares(), 64 * 2);
    }

    #[test]
    fn target_spares_is_hit_exactly() {
        let s = sys();
        for target in [0usize, 1, 7, 40, 100] {
            let mut rng = SimRng::seed_from_u64(6 + target as u64);
            let pos = uniform_with_target_spares(&s, target, 10_000, &mut rng);
            let net = GridNetwork::new(s, &pos);
            assert_eq!(net.total_spares(), target, "target {target}");
        }
    }

    #[test]
    fn target_spares_respects_cap() {
        let s = sys();
        let mut rng = SimRng::seed_from_u64(7);
        let pos = uniform_with_target_spares(&s, 1000, 50, &mut rng);
        assert_eq!(pos.len(), 50);
    }

    #[test]
    fn clustered_stays_in_area() {
        let s = sys();
        let mut rng = SimRng::seed_from_u64(8);
        let pos = clustered(&s, 300, 3, 2.0, &mut rng);
        assert_eq!(pos.len(), 300);
        let area = s.area();
        assert!(pos.iter().all(|&p| area.contains_closed(p)));
        // Clustering: fewer occupied cells than uniform with same count.
        let net_c = GridNetwork::new(s, &pos);
        let uni = uniform(&s, 300, &mut rng);
        let net_u = GridNetwork::new(s, &uni);
        assert!(net_c.occupied_cells() < net_u.occupied_cells());
    }

    #[test]
    fn clustered_zero_hotspots_treated_as_one() {
        let s = sys();
        let mut rng = SimRng::seed_from_u64(9);
        let pos = clustered(&s, 10, 0, 1.0, &mut rng);
        assert_eq!(pos.len(), 10);
    }

    #[test]
    fn masked_generators_respect_the_mask() {
        let s = sys();
        let mask = RegionMask::l_shape(8, 8);
        let mut rng = SimRng::seed_from_u64(20);

        let uni = uniform_masked(&s, &mask, 300, &mut rng);
        assert_eq!(uni.len(), 300);
        for &p in &uni {
            assert!(mask.is_enabled(s.cell_of(p).unwrap()));
        }
        let net = GridNetwork::with_mask(s, mask.clone(), &uni).unwrap();
        net.debug_invariants();

        let exact = per_cell_exact_masked(&s, &mask, 2, &mut rng);
        assert_eq!(exact.len(), mask.enabled_count() * 2);
        let net = GridNetwork::with_mask(s, mask.clone(), &exact).unwrap();
        assert_eq!(net.stats().vacant, 0);
        assert_eq!(net.total_spares(), mask.enabled_count());

        let holes = [GridCoord::new(0, 0), GridCoord::new(7, 7)]; // (7,7) disabled
        let pos = with_holes_masked(&s, &mask, &holes, 1, &mut rng);
        let net = GridNetwork::with_mask(s, mask.clone(), &pos).unwrap();
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            vec![GridCoord::new(0, 0)]
        );
        net.debug_invariants();
    }

    #[test]
    fn with_holes_creates_exact_holes() {
        let s = sys();
        let mut rng = SimRng::seed_from_u64(10);
        let holes = [GridCoord::new(2, 2), GridCoord::new(5, 7)];
        let pos = with_holes(&s, &holes, 2, &mut rng);
        let net = GridNetwork::new(s, &pos);
        assert_eq!(net.vacant_iter().collect::<Vec<_>>(), holes.to_vec());
        assert_eq!(net.enabled_count(), (64 - 2) * 2);
    }
}
