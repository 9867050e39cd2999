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
//!   (and the region's enabled words) directly — `cells/64` word ops, no
//!   per-cell probes;
//! * **journal folds** ([`HoleSet::fold_changes`]) are one bit write per
//!   changed cell — no allocation, ever;
//! * **sweeps** ([`HoleSet::iter`], [`HoleSet::drain`]) find the next
//!   non-empty 64-cell block through summary levels (one bit per
//!   non-empty word of the level below, up to a single top word), so a
//!   sweep costs O(members + levels), not O(cells/64): a round that
//!   sweeps one pending hole on a million-cell grid reads a handful of
//!   words, not 16,384 blocks. Bulk detection summarizes each 64-word
//!   chunk as it copies it, and a long journal fold re-summarizes once
//!   at the end; the core perf ledger's kernel entries hold both to the
//!   cost of a plain bitset.
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
/// iteration order, O(cells/64) bulk ops, O(1) amortized point updates
/// and O(members + levels) sweeps.
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
    /// Summary levels: `summaries[0]` holds one bit per word of `words`,
    /// each later level one bit per word of the level before, set ⇔
    /// that word is non-zero, up to a single top word.
    summaries: Vec<Vec<u64>>,
    cells: usize,
    len: usize,
}

/// Empty summary levels over `words` level-0 words, up to one top word.
fn summary_levels(words: usize) -> Vec<Vec<u64>> {
    let mut levels = vec![vec![0u64; words.div_ceil(WORD_BITS)]];
    while levels[levels.len() - 1].len() > 1 {
        let n = levels[levels.len() - 1].len().div_ceil(WORD_BITS);
        levels.push(vec![0u64; n]);
    }
    levels
}

/// Bit `i` set ⇔ `chunk[i] != 0`, for a chunk of at most 64 words. A
/// full chunk runs as a fixed 64-step loop of branch-free word tests,
/// which the compiler vectorizes.
fn nonzero_bits(chunk: &[u64]) -> u64 {
    let nonzero = |w: u64| (w | w.wrapping_neg()) >> 63;
    match <&[u64; WORD_BITS]>::try_from(chunk) {
        Ok(full) => (0..WORD_BITS).fold(0, |acc, i| acc | nonzero(full[i]) << i),
        Err(_) => (0..chunk.len()).fold(0, |acc, i| acc | nonzero(chunk[i]) << i),
    }
}

/// The indices of the set bits of `word`, ascending, offset by `base`.
fn ones(word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::successors((word != 0).then_some(word), |&rest| {
        let next = rest & (rest - 1);
        (next != 0).then_some(next)
    })
    .map(move |rest| base + rest.trailing_zeros() as usize)
}

impl HoleSet {
    /// An empty set over `cells` cells.
    pub fn new(cells: usize) -> HoleSet {
        let words = cells.div_ceil(WORD_BITS);
        HoleSet {
            words: vec![0u64; words],
            summaries: summary_levels(words),
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
    /// pending. O(1) amortized.
    pub fn insert(&mut self, index: usize) -> bool {
        let word = self.write_bit(index, true);
        if word == 0 {
            self.mark(index / WORD_BITS);
        }
        word & (1u64 << (index % WORD_BITS)) == 0
    }

    /// Removes cell `index`; returns `true` when it was pending. O(1)
    /// amortized.
    pub fn remove(&mut self, index: usize) -> bool {
        let word = self.write_bit(index, false);
        let b = 1u64 << (index % WORD_BITS);
        if word == b {
            self.unmark(index / WORD_BITS);
        }
        word & b != 0
    }

    /// Sets (`on`) or clears the bit of cell `index` and keeps `len`,
    /// leaving the summaries to the caller; returns the block's word as
    /// it was before the write.
    #[inline]
    fn write_bit(&mut self, index: usize, on: bool) -> u64 {
        assert!(index < self.cells, "cell index out of range");
        let (w, b) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        let word = self.words[w];
        if on {
            self.words[w] = word | b;
            self.len += usize::from(word & b == 0);
        } else {
            self.words[w] = word & !b;
            self.len -= usize::from(word & b != 0);
        }
        word
    }

    /// Sets the summary bit of level-0 word `pos`, which just became
    /// non-empty, and of each summary word that becomes non-empty in
    /// turn.
    fn mark(&mut self, mut pos: usize) {
        for level in &mut self.summaries {
            let i = pos / WORD_BITS;
            let was_empty = level[i] == 0;
            level[i] |= 1u64 << (pos % WORD_BITS);
            if !was_empty {
                return;
            }
            pos = i;
        }
    }

    /// Clears the summary bit of level-0 word `pos`, which just became
    /// empty, and of each summary word that becomes empty in turn.
    fn unmark(&mut self, mut pos: usize) {
        for level in &mut self.summaries {
            let i = pos / WORD_BITS;
            level[i] &= !(1u64 << (pos % WORD_BITS));
            if level[i] != 0 {
                return;
            }
            pos = i;
        }
    }

    /// Empties the set, keeping the allocation. O(cells/64).
    pub fn clear(&mut self) {
        self.words.fill(0);
        for level in &mut self.summaries {
            level.fill(0);
        }
        self.len = 0;
    }

    /// Resets the set to an empty set over `cells` cells, reusing the
    /// cell-bit buffer (the arena analog of [`HoleSet::new`]; the
    /// summaries are O(cells/4096) words).
    pub fn reset(&mut self, cells: usize) {
        let words = cells.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, 0u64);
        self.summaries = summary_levels(words);
        self.cells = cells;
        self.len = 0;
    }

    /// Rebuilds every summary level from `words`, after a journal fold
    /// that wrote its bits raw.
    fn rebuild_summaries(&mut self) {
        for (dst, chunk) in self.summaries[0]
            .iter_mut()
            .zip(self.words.chunks(WORD_BITS))
        {
            *dst = nonzero_bits(chunk);
        }
        self.rebuild_upper_summaries();
    }

    /// Rebuilds the summary levels above the first from the first.
    fn rebuild_upper_summaries(&mut self) {
        for level in 1..self.summaries.len() {
            let (below, above) = self.summaries.split_at_mut(level);
            for (dst, chunk) in above[0].iter_mut().zip(below[level - 1].chunks(WORD_BITS)) {
                *dst = nonzero_bits(chunk);
            }
        }
    }

    /// **Bulk hole detection.** Overwrites the set with every vacant
    /// cell of `occupancy`: a straight word copy that summarizes each
    /// 64-word chunk as it lands, with the member count read off the
    /// vacancy set's O(1) count — `cells/64` word ops, no per-cell
    /// iteration. Equivalent to
    /// `occupancy.iter_vacant().collect::<BTreeSet<_>>()`.
    ///
    /// # Panics
    ///
    /// Panics when the domains disagree (the set must be sized for the
    /// same grid).
    pub fn assign_vacant(&mut self, occupancy: &VacancySet) {
        assert_eq!(self.cells, occupancy.len(), "cell domain mismatch");
        let src = occupancy.vacant_words().chunks(WORD_BITS);
        let dst = self.words.chunks_mut(WORD_BITS).zip(&mut self.summaries[0]);
        for ((words, summary), src) in dst.zip(src) {
            words.copy_from_slice(src);
            *summary = nonzero_bits(words);
        }
        self.len = occupancy.vacant_count();
        self.rebuild_upper_summaries();
    }

    /// **Masked bulk hole detection.** Overwrites the set with every
    /// vacant *enabled* cell: `vacancy AND enabled` per word. On masked
    /// networks the [`VacancySet`] already reads disabled cells as
    /// occupied, so this equals [`HoleSet::assign_vacant`] there; the
    /// explicit AND lets kernels filter an arbitrary sub-region (or a
    /// raw vacancy bitset that never saw the mask), at the price of a
    /// popcount per word.
    ///
    /// # Panics
    ///
    /// Panics when the domains disagree.
    pub fn assign_vacant_masked(&mut self, occupancy: &VacancySet, mask: &RegionMask) {
        assert_eq!(self.cells, occupancy.len(), "cell domain mismatch");
        assert_eq!(self.cells, mask.cell_count(), "mask domain mismatch");
        let vac = occupancy.vacant_words().chunks(WORD_BITS);
        let src = vac.zip(mask.enabled_words().chunks(WORD_BITS));
        let dst = self.words.chunks_mut(WORD_BITS).zip(&mut self.summaries[0]);
        let mut len = 0usize;
        for ((words, summary), (vac, ena)) in dst.zip(src) {
            for ((word, &v), &e) in words.iter_mut().zip(vac).zip(ena) {
                *word = v & e;
                len += word.count_ones() as usize;
            }
            *summary = nonzero_bits(words);
        }
        self.len = len;
        self.rebuild_upper_summaries();
    }

    /// **Journal fold.** Folds `occupancy`'s change journal into the
    /// set — cells now vacant are inserted, filled cells removed — one
    /// bit write per changed cell, no allocation. A journal with at
    /// least one entry per two words (a mass failure) writes its bits
    /// raw and rebuilds the summaries in one pass; a shorter one (a
    /// round's few moves) keeps them current bit by bit. The caller
    /// clears the journal afterwards (or uses
    /// [`GridNetwork::fold_changed_cells_into`], which does both).
    ///
    /// # Panics
    ///
    /// Panics when the domains disagree.
    ///
    /// [`GridNetwork::fold_changed_cells_into`]: crate::GridNetwork::fold_changed_cells_into
    pub fn fold_changes(&mut self, occupancy: &VacancySet) {
        assert_eq!(self.cells, occupancy.len(), "cell domain mismatch");
        let changed = occupancy.changed_cells();
        if 2 * changed.len() >= self.words.len() {
            for &c in changed {
                self.write_bit(c as usize, occupancy.is_vacant(c as usize));
            }
            self.rebuild_summaries();
        } else {
            for &c in changed {
                if occupancy.is_vacant(c as usize) {
                    self.insert(c as usize);
                } else {
                    self.remove(c as usize);
                }
            }
        }
    }

    /// The index of the first non-empty level-0 word at or after word
    /// `from`: climb the summaries until one has a set bit at or after
    /// the position, then descend along the lowest set bits.
    fn next_block(&self, from: usize) -> Option<usize> {
        let mut level = 0;
        let mut pos = from;
        loop {
            let w = pos / WORD_BITS;
            let word = *self.summaries.get(level)?.get(w)? & (!0u64 << (pos % WORD_BITS));
            if word != 0 {
                pos = w * WORD_BITS + word.trailing_zeros() as usize;
                break;
            }
            pos = w + 1;
            level += 1;
        }
        while level > 0 {
            level -= 1;
            pos = pos * WORD_BITS + self.summaries[level][pos].trailing_zeros() as usize;
        }
        Some(pos)
    }

    /// The smallest pending cell index, if any — O(levels).
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Iterates the pending cell indices in ascending (row-major) order
    /// without allocating, reaching each non-empty block through the
    /// summaries — the exact visit order of the `BTreeSet<usize>` it
    /// replaces. O(members + levels).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_block(0), |&w| self.next_block(w + 1))
            .flat_map(|w| ones(self.words[w], w * WORD_BITS))
    }

    /// Calls `f` on every pending cell in ascending order and leaves the
    /// set empty — O(members + levels), unlike [`HoleSet::clear`]'s
    /// O(cells/64).
    pub fn drain(&mut self, mut f: impl FnMut(usize)) {
        let mut from = 0;
        while let Some(w) = self.next_block(from) {
            let word = std::mem::take(&mut self.words[w]);
            self.unmark(w);
            ones(word, w * WORD_BITS).for_each(&mut f);
            from = w + 1;
        }
        self.len = 0;
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
    fn sparse_sweeps_cross_summary_levels_and_drain_empties() {
        // 300,000 cells take three summary levels; removals that empty a
        // block must drop it from every level above.
        let cells = 300_000;
        let picks = [299_999usize, 0, 4_095, 4_096, 262_143, 262_144, 64, 5_000];
        let mut h = HoleSet::new(cells);
        for &i in &picks {
            h.insert(i);
        }
        h.remove(5_000);
        h.remove(5_000);
        let mut want: Vec<usize> = picks.iter().copied().filter(|&i| i != 5_000).collect();
        want.sort_unstable();
        assert_eq!(h.iter().collect::<Vec<_>>(), want);
        assert_eq!(h.len(), want.len());
        assert_eq!(h.first(), Some(0));
        let mut drained = Vec::new();
        h.drain(|i| drained.push(i));
        assert_eq!(drained, want);
        assert!(h.is_empty());
        assert_eq!(h, HoleSet::new(cells), "drain leaves no stale bits");
        // Bulk assignment rebuilds the summaries.
        let mut occ = VacancySet::new(cells);
        for i in (0..cells).filter(|&i| i != 277_777) {
            occ.set_occupied(i);
        }
        h.assign_vacant(&occ);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![277_777]);
        assert!(h.remove(277_777));
        assert_eq!(h, HoleSet::new(cells));
    }

    #[test]
    fn short_and_long_journal_folds_match_the_bulk_copy() {
        // 300,000 cells span 4,688 words: ten changes keep the summaries
        // bit by bit, 5,000 changes rebuild them in one pass. Both must
        // leave exactly the set (summaries included) a bulk copy builds.
        let cells = 300_000;
        let mut occ = VacancySet::new(cells);
        let mut h = HoleSet::new(cells);
        h.assign_vacant(&occ);
        for batch in [10usize, 5_000, 7] {
            occ.clear_changes();
            for k in 0..batch {
                let i = (k * 7_919 + batch) % cells;
                if occ.is_vacant(i) {
                    occ.set_occupied(i);
                } else {
                    occ.set_vacant(i);
                }
            }
            h.fold_changes(&occ);
            let mut bulk = HoleSet::new(cells);
            bulk.assign_vacant(&occ);
            assert_eq!(h, bulk, "batch of {batch}");
            assert_eq!(h.len(), occ.vacant_count());
        }
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
