//! The incremental occupancy index: a dense vacancy bitset plus a
//! change journal, maintained in O(1) per mutation by [`GridNetwork`].
//!
//! The paper's headline claim is that SR repairs holes with O(1) local
//! work per round, but a naive implementation still pays O(m·n) per round
//! to *find* the holes: every protocol used to rescan the full member
//! table (`vacant_cells`) each round. [`VacancySet`] removes that scan:
//!
//! * a **bitset** (one bit per cell, set ⇔ vacant) answers
//!   `is_vacant` / `vacant_count` in O(1) and enumerates vacancies in
//!   row-major order by skipping zero words — no allocation;
//! * a **change journal** records the dense index of every cell whose
//!   occupancy toggled since the journal was last cleared, deduplicated,
//!   so a protocol can maintain its own pending-hole set in O(changed)
//!   per round instead of O(cells);
//! * the owning [`GridNetwork`] pairs the set with incremental
//!   enabled/occupied counters, making `stats`, `total_spares`, and
//!   `spare_count` O(1).
//!
//! Consumers treat journal entries as *hints*: an entry means the cell's
//! occupancy changed at least once; the current state is read back from
//! the bitset (a cell that toggled vacant → occupied → vacant appears
//! once and reads as vacant).
//!
//! [`GridNetwork`]: crate::GridNetwork

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = u64::BITS as usize;

/// Dense vacancy bitset with a deduplicated change journal.
///
/// Indices are the dense row-major cell indices of the owning grid
/// (see [`crate::GridSystem::index_of`]).
///
/// ```
/// use wsn_grid::VacancySet;
///
/// let mut v = VacancySet::new(4); // all cells start vacant
/// assert_eq!(v.vacant_count(), 4);
/// v.set_occupied(2);
/// assert_eq!(v.vacant_count(), 3);
/// assert_eq!(v.iter_vacant().collect::<Vec<_>>(), vec![0, 1, 3]);
/// assert_eq!(v.changed_cells(), &[2]);
/// v.clear_changes();
/// assert!(v.changed_cells().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VacancySet {
    /// One bit per cell; set ⇔ vacant. Trailing bits of the last word
    /// stay zero.
    words: Vec<u64>,
    cells: usize,
    vacant: usize,
    /// Dense indices of cells whose occupancy toggled since
    /// [`VacancySet::clear_changes`], each at most once.
    journal: Vec<u32>,
    /// Journal membership bits (dedup without scanning the journal).
    journaled: Vec<u64>,
}

impl VacancySet {
    /// A set over `cells` cells, all initially vacant, with an empty
    /// journal.
    pub fn new(cells: usize) -> VacancySet {
        let words = cells.div_ceil(WORD_BITS);
        let mut v = VacancySet {
            words: vec![!0u64; words],
            cells,
            vacant: cells,
            journal: Vec::new(),
            journaled: vec![0u64; words],
        };
        // Keep trailing bits clear so word-level iteration never yields
        // out-of-range indices.
        if !cells.is_multiple_of(WORD_BITS) {
            if let Some(last) = v.words.last_mut() {
                *last = (1u64 << (cells % WORD_BITS)) - 1;
            }
        }
        v
    }

    /// Resets the set to the all-vacant, clean-journal state of
    /// [`VacancySet::new`], reusing the existing word buffers. Used by
    /// the per-trial arena ([`GridNetwork::reset_into`]) to avoid
    /// reallocating on every campaign trial.
    ///
    /// [`GridNetwork::reset_into`]: crate::GridNetwork::reset_into
    pub fn reset(&mut self, cells: usize) {
        let words = cells.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, !0u64);
        self.journaled.clear();
        self.journaled.resize(words, 0u64);
        self.journal.clear();
        self.cells = cells;
        self.vacant = cells;
        if !cells.is_multiple_of(WORD_BITS) {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << (cells % WORD_BITS)) - 1;
            }
        }
    }

    /// Overwrites the vacancy bits of cells `64·w .. 64·w + 63` with
    /// `word` **without journaling**, keeping the vacant counter exact:
    /// the arena rebuild's bulk load, where the loaded state is the
    /// consumer's baseline rather than a change. Trailing bits past the
    /// last cell must be clear in `word`.
    pub(crate) fn assign_word(&mut self, w: usize, word: u64) {
        let old = std::mem::replace(&mut self.words[w], word);
        self.vacant = self.vacant - old.count_ones() as usize + word.count_ones() as usize;
    }

    /// Number of cells tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells
    }

    /// `true` when the set tracks zero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells == 0
    }

    /// Number of vacant cells — O(1).
    #[inline]
    pub fn vacant_count(&self) -> usize {
        self.vacant
    }

    /// Number of occupied cells — O(1).
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.cells - self.vacant
    }

    /// Whether cell `index` is vacant.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range (indices are produced by the
    /// owning grid, so a bad index is a caller bug).
    #[inline]
    pub fn is_vacant(&self, index: usize) -> bool {
        assert!(index < self.cells, "cell index out of range");
        self.words[index / WORD_BITS] & (1u64 << (index % WORD_BITS)) != 0
    }

    /// Marks cell `index` vacant; journals the transition when the state
    /// actually changes. O(1).
    pub fn set_vacant(&mut self, index: usize) {
        if !self.is_vacant(index) {
            self.words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
            self.vacant += 1;
            self.journal_push(index);
        }
    }

    /// Marks cell `index` occupied; journals the transition when the
    /// state actually changes. O(1).
    pub fn set_occupied(&mut self, index: usize) {
        if self.is_vacant(index) {
            self.words[index / WORD_BITS] &= !(1u64 << (index % WORD_BITS));
            self.vacant -= 1;
            self.journal_push(index);
        }
    }

    fn journal_push(&mut self, index: usize) {
        let (w, b) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        if self.journaled[w] & b == 0 {
            self.journaled[w] |= b;
            self.journal.push(index as u32);
        }
    }

    /// Cells whose occupancy toggled since the last
    /// [`VacancySet::clear_changes`], in first-toggle order, each at most
    /// once. Read the bitset for the current state of each entry.
    #[inline]
    pub fn changed_cells(&self) -> &[u32] {
        &self.journal
    }

    /// Empties the change journal (the consumer has caught up).
    pub fn clear_changes(&mut self) {
        for &i in &self.journal {
            self.journaled[i as usize / WORD_BITS] &= !(1u64 << (i as usize % WORD_BITS));
        }
        self.journal.clear();
    }

    /// The raw vacancy words: one bit per cell, set ⇔ vacant, cell `i`
    /// at bit `i % 64` of word `i / 64`, trailing bits of the last word
    /// clear. This is the input surface of the word-level kernels
    /// ([`crate::HoleSet`]): hole detection and masked filtering run as
    /// `AND`/`popcount` loops over these blocks instead of per-cell
    /// iteration.
    #[inline]
    pub fn vacant_words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the vacant cell indices in ascending (row-major) order,
    /// without allocating. Skips fully-occupied 64-cell words, so a
    /// mostly-covered grid enumerates in ~`cells/64` word reads.
    pub fn iter_vacant(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let base = w * WORD_BITS;
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let next = rest & (rest - 1);
                (next != 0).then_some(next)
            })
            .map(move |rest| base + rest.trailing_zeros() as usize)
        })
    }

    /// Verifies internal consistency against an occupancy oracle; used
    /// by `GridNetwork::debug_invariants` and the property tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency.
    pub fn verify(&self, mut cell_is_vacant: impl FnMut(usize) -> bool) {
        let mut vacant = 0;
        for i in 0..self.cells {
            let expect = cell_is_vacant(i);
            assert_eq!(
                self.is_vacant(i),
                expect,
                "vacancy bit for cell {i} disagrees with the member table"
            );
            vacant += usize::from(expect);
        }
        assert_eq!(self.vacant, vacant, "vacant counter out of sync");
        // Trailing bits must stay clear.
        if !self.cells.is_multiple_of(WORD_BITS) {
            let mask = (1u64 << (self.cells % WORD_BITS)) - 1;
            assert_eq!(
                self.words.last().copied().unwrap_or(0) & !mask,
                0,
                "trailing vacancy bits set"
            );
        }
        // Journal membership bits must match the journal exactly.
        let mut flags = vec![0u64; self.words.len()];
        for &i in &self.journal {
            let (w, b) = (i as usize / WORD_BITS, 1u64 << (i as usize % WORD_BITS));
            assert_eq!(flags[w] & b, 0, "cell {i} journaled twice");
            flags[w] |= b;
            assert!((i as usize) < self.cells, "journaled index out of range");
        }
        assert_eq!(flags, self.journaled, "journal dedup bits out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_vacant_with_clean_journal() {
        let v = VacancySet::new(70);
        assert_eq!(v.len(), 70);
        assert!(!v.is_empty());
        assert_eq!(v.vacant_count(), 70);
        assert_eq!(v.occupied_count(), 0);
        assert!(v.changed_cells().is_empty());
        assert_eq!(v.iter_vacant().count(), 70);
        v.verify(|_| true);
    }

    #[test]
    fn zero_cells_is_degenerate_but_valid() {
        let v = VacancySet::new(0);
        assert!(v.is_empty());
        assert_eq!(v.iter_vacant().count(), 0);
        v.verify(|_| unreachable!());
    }

    #[test]
    fn transitions_update_counts_and_journal_once() {
        let mut v = VacancySet::new(130);
        v.set_occupied(0);
        v.set_occupied(64);
        v.set_occupied(129);
        assert_eq!(v.vacant_count(), 127);
        assert_eq!(v.changed_cells(), &[0, 64, 129]);
        // Re-asserting the same state journals nothing.
        v.set_occupied(0);
        assert_eq!(v.changed_cells().len(), 3);
        // Toggling back keeps the single journal entry (state is read
        // from the bitset, not the journal).
        v.set_vacant(64);
        assert_eq!(v.changed_cells(), &[0, 64, 129]);
        assert!(v.is_vacant(64));
        v.verify(|i| !(i == 0 || i == 129));
    }

    #[test]
    fn clear_changes_resets_dedup() {
        let mut v = VacancySet::new(10);
        v.set_occupied(3);
        v.clear_changes();
        assert!(v.changed_cells().is_empty());
        v.set_vacant(3);
        assert_eq!(v.changed_cells(), &[3]);
        v.verify(|_| true);
    }

    #[test]
    fn iter_vacant_is_row_major_and_skips_occupied_words() {
        let mut v = VacancySet::new(200);
        for i in 0..200 {
            v.set_occupied(i);
        }
        assert_eq!(v.iter_vacant().count(), 0);
        for &i in &[5usize, 63, 64, 127, 199] {
            v.set_vacant(i);
        }
        assert_eq!(
            v.iter_vacant().collect::<Vec<_>>(),
            vec![5, 63, 64, 127, 199]
        );
    }

    #[test]
    #[should_panic(expected = "cell index out of range")]
    fn out_of_range_index_panics() {
        VacancySet::new(4).is_vacant(4);
    }
}
