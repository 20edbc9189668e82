//! Word-level hole-detection kernels: the pending-hole set protocols
//! sweep every round, stored as a dense `u64` bitset instead of a
//! `BTreeSet<usize>`.
//!
//! The PR 2 incremental index made hole *detection* O(changed) per round
//! by folding the [`VacancySet`] change journal into an ordered set. The
//! fold itself still paid a tree insert (allocation + rebalancing +
//! pointer chasing) per changed cell, and the per-round sweep walked tree
//! nodes. [`HoleSet`] keeps the same ascending-order contract — dense
//! row-major indices, iterated ascending, exactly like `BTreeSet` — but
//! as one bit per cell:
//!
//! * **bulk detection** ([`HoleSet::assign_vacant`],
//!   [`HoleSet::assign_vacant_masked`]) copies/ANDs the vacancy words
//!   (and the region's enabled words) directly — `cells/64` word ops and
//!   a popcount each, no per-cell probes;
//! * **journal folds** ([`HoleSet::fold_changes`]) are one bit write per
//!   changed cell — no allocation, ever;
//! * **sweeps** ([`HoleSet::iter`]) skip empty 64-cell blocks via
//!   `trailing_zeros`, the same kernel [`VacancySet::iter_vacant`] uses.
//!
//! Because `BTreeSet<usize>` iteration and word-level ascending iteration
//! visit identical cells in identical order, swapping the pending-set
//! representation changes **no observable behavior** — the campaign
//! goldens stay byte-identical. The property tests pin
//! `kernel == journal fold == vacant_cells_scan()` on full and masked
//! regions.

use serde::{Deserialize, Serialize};

use crate::{RegionMask, VacancySet};

const WORD_BITS: usize = u64::BITS as usize;

/// A pending-hole set over dense row-major cell indices, stored as one
/// bit per cell. Drop-in replacement for the `BTreeSet<usize>` the
/// protocols used to keep: same membership semantics, same ascending
/// iteration order, O(cells/64) bulk ops and O(1) point updates.
///
/// ```
/// use wsn_grid::{HoleSet, VacancySet};
///
/// let mut occ = VacancySet::new(130);
/// occ.set_occupied(0);
/// occ.set_occupied(64);
/// let mut holes = HoleSet::new(130);
/// holes.assign_vacant(&occ); // word-level copy + popcount
/// assert_eq!(holes.len(), 128);
/// assert!(!holes.contains(64));
/// assert_eq!(holes.iter().next(), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoleSet {
    /// One bit per cell; set ⇔ pending. Trailing bits of the last word
    /// stay clear so word-level iteration never yields out-of-range
    /// indices.
    words: Vec<u64>,
    cells: usize,
    len: usize,
}

impl HoleSet {
    /// An empty set over `cells` cells.
    pub fn new(cells: usize) -> HoleSet {
        HoleSet {
            words: vec![0u64; cells.div_ceil(WORD_BITS)],
            cells,
            len: 0,
        }
    }

    /// Number of cells tracked (the domain, not the membership count).
    #[inline]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Number of pending cells — O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no cell is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw membership words (same layout as
    /// [`VacancySet::vacant_words`]).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether cell `index` is pending.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range (indices are produced by the
    /// owning grid, so a bad index is a caller bug).
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        assert!(index < self.cells, "cell index out of range");
        self.words[index / WORD_BITS] & (1u64 << (index % WORD_BITS)) != 0
    }

    /// Inserts cell `index`; returns `true` when it was not already
    /// pending. O(1).
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.cells, "cell index out of range");
        let (w, b) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes cell `index`; returns `true` when it was pending. O(1).
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.cells, "cell index out of range");
        let (w, b) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        self.len -= usize::from(present);
        present
    }

    /// Empties the set, keeping the allocation. O(cells/64).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Resets the set to an empty set over `cells` cells, reusing the
    /// word buffer (the arena analog of [`HoleSet::new`]).
    pub fn reset(&mut self, cells: usize) {
        self.words.clear();
        self.words.resize(cells.div_ceil(WORD_BITS), 0u64);
        self.cells = cells;
        self.len = 0;
    }

    /// Overwrites the membership bits of cells `64·w .. 64·w + 63` with
    /// `word`, keeping the counter exact: a word-level bulk load for
    /// owners that derive the set from other bitsets. Trailing bits past
    /// the last cell must be clear in `word`.
    pub(crate) fn assign_word(&mut self, w: usize, word: u64) {
        let old = std::mem::replace(&mut self.words[w], word);
        self.len = self.len - old.count_ones() as usize + word.count_ones() as usize;
    }

    /// **Bulk hole detection.** Overwrites the set with every vacant
    /// cell of `occupancy`: a straight word copy plus one popcount per
    /// word — `cells/64` word ops, no per-cell iteration. Equivalent to
    /// `occupancy.iter_vacant().collect::<BTreeSet<_>>()`.
    ///
    /// # Panics
    ///
    /// Panics when the domains disagree (the set must be sized for the
    /// same grid).
    pub fn assign_vacant(&mut self, occupancy: &VacancySet) {
        assert_eq!(self.cells, occupancy.len(), "cell domain mismatch");
        let src = occupancy.vacant_words();
        let mut len = 0usize;
        for (dst, &word) in self.words.iter_mut().zip(src) {
            *dst = word;
            len += word.count_ones() as usize;
        }
        self.len = len;
    }

    /// **Masked bulk hole detection.** Overwrites the set with every
    /// vacant *enabled* cell: `vacancy AND enabled` per word. On masked
    /// networks the [`VacancySet`] already reads disabled cells as
    /// occupied, so this equals [`HoleSet::assign_vacant`] there; the
    /// explicit AND lets kernels filter an arbitrary sub-region (or a
    /// raw vacancy bitset that never saw the mask) at the same cost.
    ///
    /// # Panics
    ///
    /// Panics when the domains disagree.
    pub fn assign_vacant_masked(&mut self, occupancy: &VacancySet, mask: &RegionMask) {
        assert_eq!(self.cells, occupancy.len(), "cell domain mismatch");
        assert_eq!(self.cells, mask.cell_count(), "mask domain mismatch");
        let mut len = 0usize;
        for ((dst, &vac), &ena) in self
            .words
            .iter_mut()
            .zip(occupancy.vacant_words())
            .zip(mask.enabled_words())
        {
            let word = vac & ena;
            *dst = word;
            len += word.count_ones() as usize;
        }
        self.len = len;
    }

    /// **Journal fold.** Folds `occupancy`'s change journal into the
    /// set — cells now vacant are inserted, filled cells removed — one
    /// bit write per changed cell, no allocation. The word-level
    /// counterpart of [`GridNetwork::drain_changed_cells_into`]; the
    /// caller clears the journal afterwards (or uses
    /// [`GridNetwork::fold_changed_cells_into`], which does both).
    ///
    /// # Panics
    ///
    /// Panics when the domains disagree.
    ///
    /// [`GridNetwork::drain_changed_cells_into`]: crate::GridNetwork::drain_changed_cells_into
    /// [`GridNetwork::fold_changed_cells_into`]: crate::GridNetwork::fold_changed_cells_into
    pub fn fold_changes(&mut self, occupancy: &VacancySet) {
        assert_eq!(self.cells, occupancy.len(), "cell domain mismatch");
        for &c in occupancy.changed_cells() {
            if occupancy.is_vacant(c as usize) {
                self.insert(c as usize);
            } else {
                self.remove(c as usize);
            }
        }
    }

    /// The smallest pending cell index, if any — O(cells/64) worst case,
    /// one word read when the first block is non-empty.
    pub fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|&(_, &w)| w != 0)
            .map(|(i, &w)| i * WORD_BITS + w.trailing_zeros() as usize)
    }

    /// Iterates the pending cell indices in ascending (row-major) order
    /// without allocating, skipping empty 64-cell blocks — the exact
    /// visit order of the `BTreeSet<usize>` it replaces.
    ///
    /// The walk stops after the `len()`-th cell, so an empty set reads no
    /// word and a set whose members sit in its first blocks never reads
    /// the (empty) tail: one pending hole costs the words up to its own.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        debug_assert_eq!(
            self.len,
            self.words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            "HoleSet counter out of sync with its words"
        );
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let base = w * WORD_BITS;
                std::iter::successors((word != 0).then_some(word), |&rest| {
                    let next = rest & (rest - 1);
                    (next != 0).then_some(next)
                })
                .map(move |rest| base + rest.trailing_zeros() as usize)
            })
            .take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn point_updates_match_btreeset_semantics() {
        let mut h = HoleSet::new(130);
        let mut b = BTreeSet::new();
        for &i in &[5usize, 64, 129, 5, 0] {
            assert_eq!(h.insert(i), b.insert(i));
        }
        assert_eq!(h.len(), b.len());
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            b.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(h.remove(64), b.remove(&64));
        assert_eq!(h.remove(64), b.remove(&64));
        assert!(h.contains(5) && !h.contains(64));
        assert_eq!(h.first(), Some(0));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.iter().count(), 0);
        assert_eq!(h.first(), None);
    }

    #[test]
    fn assign_vacant_matches_iter_vacant() {
        let mut occ = VacancySet::new(200);
        for i in (0..200).step_by(3) {
            occ.set_occupied(i);
        }
        let mut h = HoleSet::new(200);
        h.assign_vacant(&occ);
        assert_eq!(h.len(), occ.vacant_count());
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            occ.iter_vacant().collect::<Vec<_>>()
        );
    }

    #[test]
    fn masked_assign_filters_disabled_cells() {
        // 8x8 grid, right half disabled; an un-masked vacancy bitset
        // reads every cell vacant.
        let occ = VacancySet::new(64);
        let mask = RegionMask::full(8, 8).difference_rect(4, 0, 7, 7);
        let mut h = HoleSet::new(64);
        h.assign_vacant_masked(&occ, &mask);
        assert_eq!(h.len(), 32);
        assert!(h.iter().all(|i| mask.index_enabled(i)));
    }

    #[test]
    fn fold_changes_tracks_the_journal() {
        let mut occ = VacancySet::new(100);
        for i in 0..100 {
            occ.set_occupied(i);
        }
        occ.clear_changes();
        let mut h = HoleSet::new(100);
        h.assign_vacant(&occ);
        assert!(h.is_empty());
        occ.set_vacant(7);
        occ.set_vacant(70);
        occ.set_occupied(70); // toggles back: single journal entry, reads occupied
        h.fold_changes(&occ);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![7]);
        occ.clear_changes();
        occ.set_occupied(7);
        h.fold_changes(&occ);
        assert!(h.is_empty());
    }

    #[test]
    fn reset_resizes_domain() {
        let mut h = HoleSet::new(10);
        h.insert(3);
        h.reset(256);
        assert_eq!(h.cells(), 256);
        assert!(h.is_empty());
        h.insert(255);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![255]);
    }

    #[test]
    #[should_panic(expected = "cell index out of range")]
    fn out_of_range_panics() {
        HoleSet::new(4).contains(4);
    }
}
