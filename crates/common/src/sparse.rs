//! Small sorted integer sets in one shared arena.
//!
//! During refinement every candidate set tracks which query elements it has
//! matched (greedy iLB), which query rows it has seen (sound iUB), and which
//! of its own tokens are matched. These sets are tiny for the overwhelming
//! majority of candidates (most candidates receive a handful of stream
//! tuples before being pruned), and thousands of candidates are born and
//! pruned per query. So a set is a [`Span`] — offset, length, capacity —
//! into one [`SpanArena`] of `u32` words that the search owns: a new set
//! allocates nothing, a pruned candidate frees nothing, and clearing the
//! arena drops every set of a search at once. A set of query rows is a
//! [`RowSet`], whose rows below 64 are mask bits that take no arena word.
//!
//! Inside its span a set is sorted and deduplicated, so a lookup is a
//! binary search and an insert shifts the tail. A full span moves to the
//! end of the arena with twice the capacity; the words it leaves are dead
//! until the arena is cleared, which costs each set at most its final
//! capacity again.

/// Capacity of a set's first region in the arena, in elements.
const FIRST_CAP: u32 = 2;

/// One sorted set of a [`SpanArena`]: where its elements start, how many
/// there are, and how many fit before it must move. The default is the
/// empty set, which owns no words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    off: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// Number of elements.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A set of query rows. Rows below 64 are bits of a mask held in the set
/// itself, so a query of up to 64 elements never touches the arena; any
/// higher row goes to a [`Span`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    low: u64,
    high: Span,
}

impl RowSet {
    /// Number of rows.
    #[inline]
    pub fn len(self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Whether `row` is in the set.
    #[inline]
    pub fn contains(self, arena: &SpanArena, row: u32) -> bool {
        match 1u64.checked_shl(row) {
            Some(bit) => self.low & bit != 0,
            None => arena.contains(self.high, row),
        }
    }

    /// Inserts `row`; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, arena: &mut SpanArena, row: u32) -> bool {
        match 1u64.checked_shl(row) {
            Some(bit) => {
                let added = self.low & bit == 0;
                self.low |= bit;
                added
            }
            None => arena.insert(&mut self.high, row),
        }
    }
}

/// The words every [`Span`] of a search points into.
#[derive(Debug, Default)]
pub struct SpanArena {
    words: Vec<u32>,
}

impl SpanArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The elements of `span`, ascending.
    #[inline]
    pub fn items(&self, span: Span) -> &[u32] {
        &self.words[span.off as usize..][..span.len as usize]
    }

    /// Whether `v` is in `span`.
    #[inline]
    pub fn contains(&self, span: Span, v: u32) -> bool {
        self.items(span).binary_search(&v).is_ok()
    }

    /// Inserts `v` into `span`; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, span: &mut Span, v: u32) -> bool {
        let Err(pos) = self.items(*span).binary_search(&v) else {
            return false;
        };
        if span.len == span.cap {
            self.grow(span);
        }
        let start = span.off as usize;
        let end = start + span.len as usize;
        self.words.copy_within(start + pos..end, start + pos + 1);
        self.words[start + pos] = v;
        span.len += 1;
        true
    }

    /// Moves a full `span` to the end of the arena with twice the room.
    fn grow(&mut self, span: &mut Span) {
        let off = self.words.len();
        let cap = (span.cap * 2).max(FIRST_CAP);
        let live = span.off as usize..(span.off + span.len) as usize;
        self.words.extend_from_within(live);
        self.words.resize(off + cap as usize, 0);
        span.off = u32::try_from(off).expect("span arena offsets fit in u32");
        span.cap = cap;
    }

    /// Words in use, dead regions of moved sets included.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no set has been given room since the last clear.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Words the arena can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Drops every set but keeps the allocation. Spans handed out before
    /// are invalid afterwards.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Shrinks the allocation to hold at least `words` words.
    pub fn shrink_to(&mut self, words: usize) {
        self.words.shrink_to(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::mix64;
    use std::collections::BTreeSet;

    #[test]
    fn insert_dedups_and_sorts() {
        let mut a = SpanArena::new();
        let mut s = Span::default();
        assert!(a.insert(&mut s, 5));
        assert!(a.insert(&mut s, 1));
        assert!(!a.insert(&mut s, 5));
        assert!(a.insert(&mut s, 3));
        assert_eq!(a.items(s), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    /// A set has no `remove`: refinement drops a pruned candidate's sets
    /// by clearing the arena at the end of the search, after which a span
    /// starts over empty.
    #[test]
    fn contains_and_remove() {
        let mut a = SpanArena::new();
        let (mut s, mut t) = (Span::default(), Span::default());
        for v in [4, 2, 9] {
            a.insert(&mut s, v);
            a.insert(&mut t, v + 1);
        }
        assert!(a.contains(s, 4) && a.contains(t, 5));
        assert!(!a.contains(s, 5) && !a.contains(t, 4));
        a.clear();
        let mut s = Span::default();
        assert!(!a.contains(s, 4));
        assert!(a.insert(&mut s, 7));
        assert_eq!(a.items(s), &[7]);
    }

    #[test]
    fn from_iter_dedups() {
        let mut a = SpanArena::new();
        let mut s = Span::default();
        for v in [3, 3, 1, 2, 1] {
            a.insert(&mut s, v);
        }
        assert_eq!(a.items(s), &[1, 2, 3]);
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut a = SpanArena::new();
        let mut s = Span::default();
        for v in 0..100 {
            a.insert(&mut s, v);
        }
        let cap = a.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.capacity(), cap);
    }

    /// Many sets interleaved in one arena, each growing through several
    /// capacity doublings, against a `BTreeSet` per set.
    #[test]
    fn spans_match_a_btreeset_oracle() {
        let mut moves = 0;
        for seed in 0..100u64 {
            let mut state = seed;
            let mut next = |n: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                mix64(state) % n
            };
            let mut a = SpanArena::new();
            let mut spans = vec![Span::default(); 1 + next(12) as usize];
            let mut oracle = vec![BTreeSet::new(); spans.len()];
            for _ in 0..600 {
                let i = next(spans.len() as u64) as usize;
                // Values from a small range, so duplicates come up often.
                let v = next(80) as u32;
                if next(3) == 0 {
                    assert_eq!(a.contains(spans[i], v), oracle[i].contains(&v));
                } else {
                    let before = spans[i];
                    assert_eq!(a.insert(&mut spans[i], v), oracle[i].insert(v));
                    moves += usize::from(spans[i].off != before.off);
                }
                assert_eq!(spans[i].len(), oracle[i].len());
            }
            for (s, o) in spans.iter().zip(&oracle) {
                assert!(a.items(*s).iter().eq(o.iter()), "seed {seed}");
            }
        }
        assert!(moves > 1000, "{moves} moves");
    }

    /// Row sets over rows on both sides of the mask's 64, interleaved in
    /// one arena, against a `BTreeSet` per set; rows below 64 never
    /// touch the arena.
    #[test]
    fn row_sets_match_a_btreeset_oracle() {
        let mut a = SpanArena::new();
        let mut sets = [RowSet::default(); 4];
        let mut oracle = vec![BTreeSet::new(); sets.len()];
        for step in 0..2000u64 {
            let h = mix64(step);
            let i = (h % 4) as usize;
            let row = (h >> 8) as u32 % 100;
            if (h >> 16).is_multiple_of(3) {
                assert_eq!(sets[i].contains(&a, row), oracle[i].contains(&row));
            } else {
                assert_eq!(sets[i].insert(&mut a, row), oracle[i].insert(row));
            }
            assert_eq!(sets[i].len(), oracle[i].len());
            assert_eq!(sets[i].is_empty(), oracle[i].is_empty());
        }
        let high = oracle.iter().flatten().filter(|&&r| r >= 64).count();
        assert!(high > 0 && a.len() >= high);

        let mut low = RowSet::default();
        let mut b = SpanArena::new();
        assert!((0..64).all(|r| low.insert(&mut b, r)));
        assert!(!low.insert(&mut b, 63) && low.contains(&b, 0));
        assert_eq!((low.len(), b.len()), (64, 0));
    }
}
