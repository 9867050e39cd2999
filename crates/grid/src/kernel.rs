//! Word-level hole sets: the vacancy and headless indexes of
//! [`GridNetwork`](crate::GridNetwork), stored as dense `u64` bitsets
//! with summary levels.
//!
//! A [`HoleSet`] keeps the contract of the `BTreeSet<usize>` the
//! protocols once kept (dense row-major indices, iterated ascending) as
//! one bit per cell:
//!
//! * **point updates** ([`HoleSet::insert`], [`HoleSet::remove`]) write
//!   one bit, plus one summary bit per level when a 64-cell block fills
//!   or empties — no allocation, ever;
//! * **sweeps** ([`HoleSet::iter`], [`HoleSet::drain`]) find the next
//!   non-empty 64-cell block through summary levels (one bit per
//!   non-empty word of the level below, up to a single top word), so a
//!   sweep costs O(members + levels), not O(cells/64): a round that
//!   sweeps one hole on a million-cell grid reads a handful of words,
//!   not 16,384 blocks.
//!
//! The network updates its indexes on every mutation, and SR, SR-SC and
//! AR sweep the vacancy index in place. `BTreeSet<usize>` iteration and
//! word-level ascending iteration visit identical cells in identical
//! order, so the representation changes **no observable behavior**.
//! `GridNetwork::debug_invariants` compares both indexes, summary levels
//! included, with sets built from a scan of the member table.

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = u64::BITS as usize;

/// A set of cells over dense row-major cell indices, stored as one bit
/// per cell: the membership semantics and ascending iteration order of
/// a `BTreeSet<usize>`, with O(1) amortized point updates and
/// O(members + levels) sweeps.
///
/// ```
/// use wsn_grid::HoleSet;
///
/// let mut holes = HoleSet::new(130);
/// holes.insert(64);
/// holes.insert(1);
/// assert_eq!(holes.len(), 2);
/// assert!(holes.contains(64));
/// assert_eq!(holes.iter().collect::<Vec<_>>(), vec![1, 64]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoleSet {
    /// One bit per cell; set ⇔ member. Trailing bits of the last word
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

/// The indices of the set bits of `word`, ascending, offset by `base`:
/// the cells a bitset word of the grid's layout (cell `i` at bit
/// `i % 64` of word `i / 64`) names, given `base = 64 · word index`.
pub fn ones(word: u64, base: usize) -> impl Iterator<Item = usize> {
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

    /// Number of member cells — O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw membership words: cell `i` at bit `i % 64` of word
    /// `i / 64`, the layout of [`RegionMask::enabled_words`], so
    /// word-level filters combine them with one `AND` per block.
    ///
    /// [`RegionMask::enabled_words`]: crate::RegionMask::enabled_words
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether cell `index` is a member.
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

    /// Inserts cell `index`; returns `true` when it was not already a
    /// member. O(1) amortized.
    pub fn insert(&mut self, index: usize) -> bool {
        let word = self.write_bit(index, true);
        if word == 0 {
            self.mark(index / WORD_BITS);
        }
        word & (1u64 << (index % WORD_BITS)) == 0
    }

    /// Removes cell `index`; returns `true` when it was a member. O(1)
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

    /// Resets the set to an empty set over `cells` cells: the arena
    /// analog of [`HoleSet::new`], which keeps every buffer when the
    /// domain is unchanged (a network re-deployed over the same grid).
    pub fn reset(&mut self, cells: usize) {
        if cells == self.cells {
            self.clear();
        } else {
            *self = HoleSet::new(cells);
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

    /// The smallest member, if any — O(levels).
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Iterates the members in ascending (row-major) order without
    /// allocating, reaching each non-empty block through the summaries —
    /// the exact visit order of a `BTreeSet<usize>`. O(members +
    /// levels).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_block(0), |&w| self.next_block(w + 1))
            .flat_map(|w| ones(self.words[w], w * WORD_BITS))
    }

    /// Calls `f` on every member in ascending order and leaves the
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
        // A member in every block, then every block but one emptied:
        // the summaries must lead a sweep to that block alone, and
        // emptying it leaves exactly the empty set.
        for i in (0..cells).step_by(64) {
            h.insert(i);
        }
        h.insert(277_777);
        for i in (0..cells).step_by(64) {
            assert!(h.remove(i));
        }
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![277_777]);
        assert!(h.remove(277_777));
        assert_eq!(h, HoleSet::new(cells));
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
        // Same domain: emptied in place, equal to a fresh set.
        h.reset(256);
        assert_eq!(h, HoleSet::new(256));
    }

    #[test]
    #[should_panic(expected = "cell index out of range")]
    fn out_of_range_panics() {
        HoleSet::new(4).contains(4);
    }
}
