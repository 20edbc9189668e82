//! Coverage and connectivity verdicts — the properties Theorem 1 is
//! about.
//!
//! The GAF result the paper builds on: "the connectivity and coverage of
//! networks can be guaranteed if each grid has its own head." This module
//! provides both the combinatorial check (every cell has a head) and the
//! two geometric/graph-theoretic facts that back it up:
//!
//! * **Coverage** — with sensing radius `≥ √2·r` a head anywhere in its
//!   cell covers the whole cell, so all-cells-headed ⇒ full area coverage.
//! * **Connectivity** — with communication range `R = √5·r` heads of
//!   4-adjacent cells can always hear each other, so all-cells-headed ⇒
//!   the head overlay graph is connected (it contains the grid's
//!   4-adjacency graph, which is connected).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

use wsn_geometry::Disk;

use crate::{GridCoord, GridNetwork};

/// The sensing-radius factor (`√2`) for which a head anywhere in an
/// `r × r` cell covers its entire own cell (worst case: corner to
/// opposite corner).
pub const SENSING_RANGE_FACTOR: f64 = std::f64::consts::SQRT_2;

/// Combined verdict of the coverage/connectivity check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageVerdict {
    /// Every cell has an elected head.
    pub all_cells_headed: bool,
    /// Cells without a head (the paper's holes, plus any occupied cells
    /// where election has not run).
    pub headless_cells: Vec<GridCoord>,
    /// Fraction of the surveillance area inside at least one head's
    /// sensing disk (lattice estimate).
    pub geometric_coverage: f64,
    /// The head overlay graph (edges between heads within communication
    /// range) is connected.
    pub heads_connected: bool,
}

impl CoverageVerdict {
    /// `true` when the network satisfies the paper's complete-coverage
    /// goal: all cells headed and the head overlay connected.
    pub fn is_complete(&self) -> bool {
        self.all_cells_headed && self.heads_connected
    }
}

impl fmt::Display for CoverageVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage: {} headless cells, {:.1}% area, heads {}connected",
            self.headless_cells.len(),
            self.geometric_coverage * 100.0,
            if self.heads_connected { "" } else { "NOT " }
        )
    }
}

/// Full verdict: combinatorial coverage, geometric estimate (with sensing
/// radius `√2·r`), and head connectivity.
///
/// `resolution` controls the geometric lattice estimator (probes per
/// axis); 100 gives ±1% accuracy, plenty for the repository's assertions.
pub fn coverage_verdict(net: &GridNetwork, resolution: usize) -> CoverageVerdict {
    let sys = net.system();
    // The occupancy index bounds the answer from below: every vacant
    // cell is headless, so it sizes the vector and cross-checks the
    // head sweep.
    let mut headless = Vec::with_capacity(net.vacant_count());
    let mut disks = Vec::with_capacity(net.occupied_cells());
    let sensing = SENSING_RANGE_FACTOR * sys.cell_side();
    for coord in sys.iter_coords() {
        match net.head_of(coord).expect("iter_coords in bounds") {
            Some(id) => {
                let pos = net.node(id).expect("head is deployed").position();
                disks.push(Disk::new(pos, sensing).expect("valid sensing radius"));
            }
            None => headless.push(coord),
        }
    }
    debug_assert!(
        headless.len() >= net.vacant_count(),
        "every hole in the occupancy index must be headless"
    );
    let geometric_coverage =
        wsn_geometry::coverage_fraction(&sys.area(), &disks, resolution.max(1));
    CoverageVerdict {
        all_cells_headed: headless.is_empty(),
        headless_cells: headless,
        geometric_coverage,
        heads_connected: connectivity_verdict(net),
    }
}

/// Whether the head overlay graph is connected: nodes are the elected
/// heads, edges join heads within communication range `R`. Returns `true`
/// for networks with zero or one head (the degenerate cases are
/// vacuously connected).
pub fn connectivity_verdict(net: &GridNetwork) -> bool {
    let sys = net.system();
    let heads: Vec<(GridCoord, wsn_geometry::Point2)> = sys
        .iter_coords()
        .filter_map(|c| {
            net.head_of(c)
                .expect("in bounds")
                .map(|id| (c, net.node(id).expect("deployed").position()))
        })
        .collect();
    if heads.len() <= 1 {
        return true;
    }
    let range_sq = sys.comm_range() * sys.comm_range();
    // BFS over the head graph. Head counts are <= cell counts (hundreds),
    // so the O(H^2) edge scan is fine at this scale.
    let mut visited = vec![false; heads.len()];
    let mut queue = VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    let mut reached = 1usize;
    while let Some(i) = queue.pop_front() {
        for j in 0..heads.len() {
            if !visited[j] && heads[i].1.distance_squared(heads[j].1) <= range_sq + 1e-9 {
                visited[j] = true;
                reached += 1;
                queue.push_back(j);
            }
        }
    }
    reached == heads.len()
}

/// Degree-of-coverage estimate: the fraction of the surveillance area
/// inside at least `k` heads' sensing disks (k-coverage, the redundancy
/// metric used by the deployment literature the paper builds on).
/// `k = 1` agrees with [`coverage_verdict`]'s geometric estimate.
///
/// # Panics
///
/// Panics when `k == 0` or `resolution == 0` (no meaningful estimate).
pub fn k_coverage_fraction(net: &GridNetwork, k: usize, resolution: usize) -> f64 {
    assert!(k >= 1, "k-coverage needs k >= 1");
    assert!(resolution >= 1, "resolution must be >= 1");
    let sys = net.system();
    let sensing = SENSING_RANGE_FACTOR * sys.cell_side();
    let disks: Vec<Disk> = net
        .heads()
        .map(|id| {
            Disk::new(net.node(id).expect("deployed").position(), sensing)
                .expect("valid sensing radius")
        })
        .collect();
    let area = sys.area();
    let mut covered = 0usize;
    for iy in 0..resolution {
        for ix in 0..resolution {
            let p = wsn_geometry::Point2::new(
                area.min().x + (ix as f64 + 0.5) / resolution as f64 * area.width(),
                area.min().y + (iy as f64 + 0.5) / resolution as f64 * area.height(),
            );
            if disks.iter().filter(|d| d.contains(p)).take(k).count() == k {
                covered += 1;
            }
        }
    }
    covered as f64 / (resolution * resolution) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{deploy, GridSystem, HeadElection};
    use wsn_simcore::{NodeId, SimRng};

    fn full_network() -> (GridNetwork, SimRng) {
        let sys = GridSystem::new(4, 4, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        (net, rng)
    }

    #[test]
    fn fully_headed_network_is_complete() {
        let (net, _) = full_network();
        let v = coverage_verdict(&net, 60);
        assert!(v.all_cells_headed);
        assert!(v.headless_cells.is_empty());
        assert!(v.heads_connected);
        assert!(v.is_complete());
        // GAF guarantee: geometric coverage is total.
        assert!(
            v.geometric_coverage > 0.999,
            "coverage {}",
            v.geometric_coverage
        );
    }

    #[test]
    fn hole_breaks_combinatorial_coverage() {
        let (mut net, mut rng) = full_network();
        // Disable both nodes of cell (1,1).
        let victims: Vec<NodeId> = net.members(GridCoord::new(1, 1)).unwrap().to_vec();
        for id in victims {
            net.disable_node(id).unwrap();
        }
        net.repair_heads(HeadElection::FirstId, &mut rng);
        let v = coverage_verdict(&net, 60);
        assert!(!v.all_cells_headed);
        assert_eq!(v.headless_cells, vec![GridCoord::new(1, 1)]);
        assert!(!v.is_complete());
        // Neighboring heads' sensing disks may still blanket the hole
        // cell geometrically (that is why the paper's verdict is
        // combinatorial), but coverage cannot have improved.
        assert!(v.geometric_coverage > 0.8);
    }

    #[test]
    fn isolated_head_breaks_connectivity() {
        // Two occupied cells at opposite corners of a large grid: heads
        // cannot hear each other.
        let sys = GridSystem::new(8, 8, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let pos = deploy::with_holes(
            &sys,
            &sys.iter_coords()
                .filter(|c| *c != GridCoord::new(0, 0) && *c != GridCoord::new(7, 7))
                .collect::<Vec<_>>(),
            1,
            &mut rng,
        );
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        assert!(!connectivity_verdict(&net));
        let v = coverage_verdict(&net, 40);
        assert!(!v.heads_connected);
        assert!(!v.is_complete());
    }

    #[test]
    fn adjacent_heads_always_connected_at_gaf_range() {
        // Heads in 4-adjacent cells are within R = sqrt(5) r wherever they
        // sit in their cells; a fully-headed network is thus connected.
        let (net, _) = full_network();
        assert!(connectivity_verdict(&net));
    }

    #[test]
    fn empty_and_singleton_networks_are_vacuously_connected() {
        let sys = GridSystem::new(3, 3, 1.0).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let net = GridNetwork::new(sys, &[]);
        assert!(connectivity_verdict(&net));
        let pos = deploy::with_holes(
            &sys,
            &sys.iter_coords()
                .filter(|c| *c != GridCoord::new(1, 1))
                .collect::<Vec<_>>(),
            1,
            &mut rng,
        );
        let mut net1 = GridNetwork::new(sys, &pos);
        net1.elect_all_heads(HeadElection::FirstId, &mut rng);
        assert!(connectivity_verdict(&net1));
    }

    #[test]
    fn verdict_display_nonempty() {
        let (net, _) = full_network();
        assert!(!coverage_verdict(&net, 20).to_string().is_empty());
    }

    #[test]
    fn sensing_factor_is_sqrt2() {
        assert!((SENSING_RANGE_FACTOR - 2.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn k_coverage_decreases_with_k() {
        let (net, _) = full_network();
        let k1 = k_coverage_fraction(&net, 1, 60);
        let k2 = k_coverage_fraction(&net, 2, 60);
        let k4 = k_coverage_fraction(&net, 4, 60);
        assert!(k1 >= k2 && k2 >= k4, "{k1} {k2} {k4}");
        // Heads in every cell: 1-coverage is total, 2-coverage is not
        // (cell interiors near a head's own center may be singly covered).
        assert!(k1 > 0.999);
        assert!(k2 < 1.0);
        assert!(k2 > 0.3, "adjacent heads overlap substantially: {k2}");
    }

    #[test]
    fn k1_matches_verdict_geometric_estimate() {
        let (net, _) = full_network();
        let v = coverage_verdict(&net, 60);
        let k1 = k_coverage_fraction(&net, 1, 60);
        assert!((v.geometric_coverage - k1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn k_zero_panics() {
        let (net, _) = full_network();
        k_coverage_fraction(&net, 0, 10);
    }
}
