//! The set repository `L`.
//!
//! A [`Repository`] owns the interned vocabulary `D` and the collection of
//! sets over it. Sets are stored sorted and deduplicated so vanilla overlap
//! and membership checks are merge-joins, and set ids index densely into the
//! set table (the layout the inverted index and the search engines rely on).

use koios_common::{HeapSize, Interner, SetId, TokenId};

/// Summary statistics of a repository (the paper's Table I columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepoStats {
    /// Number of sets.
    pub num_sets: usize,
    /// Largest set cardinality.
    pub max_size: usize,
    /// Mean set cardinality.
    pub avg_size: f64,
    /// Number of distinct elements across all sets.
    pub unique_elems: usize,
}

/// A collection of sets plus the shared token interner.
///
/// Historically build-once; live corpora mutate it through
/// [`Repository::append_set`] / [`Repository::remove_set`]. Set ids are
/// **stable**: removal tombstones the slot (the id is never reused and the
/// tokens stay readable for index maintenance), and appends always claim
/// the next dense id, so ids recorded in indexes, caches and snapshots
/// stay valid across mutations. The interner is append-only.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    interner: Interner,
    sets: Vec<Box<[TokenId]>>,
    names: Vec<String>,
    /// Tombstone mask, indexed like `sets` (`true` = removed). Kept the
    /// same length as `sets` at all times.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    dead_count: usize,
}

/// Incremental constructor for [`Repository`].
#[derive(Debug, Default)]
pub struct RepositoryBuilder {
    repo: Repository,
}

impl RepositoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a set of string elements under `name`; duplicates within the set
    /// are removed. Returns the assigned [`SetId`].
    pub fn add_set<I, S>(&mut self, name: &str, elements: I) -> SetId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut tokens: Vec<TokenId> = elements
            .into_iter()
            .map(|s| self.repo.interner.intern(s.as_ref()))
            .collect();
        tokens.sort_unstable();
        tokens.dedup();
        self.add_token_set(name, tokens)
    }

    /// Adds a set of pre-interned tokens (used by the data generators).
    /// Tokens are sorted and deduplicated.
    pub fn add_token_set(&mut self, name: &str, mut tokens: Vec<TokenId>) -> SetId {
        tokens.sort_unstable();
        tokens.dedup();
        let id = SetId(self.repo.sets.len() as u32);
        self.repo.sets.push(tokens.into_boxed_slice());
        self.repo.names.push(name.to_string());
        self.repo.dead.push(false);
        id
    }

    /// Interns a token without attaching it to a set (e.g. synonym strings
    /// that appear only in queries).
    pub fn intern(&mut self, s: &str) -> TokenId {
        self.repo.interner.intern(s)
    }

    /// Rebuilds a repository from decoded snapshot parts: the vocabulary in
    /// token-id order (ids are dense, so position *is* the id) and the sets
    /// in set-id order with their already-interned tokens. This is the
    /// warm-start restore path of `koios-store` — the interner is rebuilt
    /// with identical ids, so token ids recorded in snapshotted indexes
    /// stay valid without any remapping.
    ///
    /// Set token vectors are sorted and deduplicated defensively, exactly
    /// like [`Self::add_token_set`] (snapshots store them sorted, so this
    /// is a no-op pass on trusted input).
    pub fn from_snapshot<V, S, T>(vocab: V, sets: S) -> Repository
    where
        V: IntoIterator<Item = T>,
        S: IntoIterator<Item = (String, Vec<TokenId>)>,
        T: AsRef<str>,
    {
        let mut b = RepositoryBuilder::new();
        for s in vocab {
            b.intern(s.as_ref());
        }
        for (name, tokens) in sets {
            b.add_token_set(&name, tokens);
        }
        b.build()
    }

    /// Finalises the repository.
    pub fn build(self) -> Repository {
        self.repo
    }
}

impl Repository {
    /// Starts building a repository.
    pub fn builder() -> RepositoryBuilder {
        RepositoryBuilder::new()
    }

    /// Number of sets in the repository.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Size of the interned vocabulary (includes query-only tokens).
    pub fn vocab_size(&self) -> usize {
        self.interner.len()
    }

    /// The sorted, deduplicated elements of a set.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&self, id: SetId) -> &[TokenId] {
        &self.sets[id.idx()]
    }

    /// The name a set was registered under.
    pub fn set_name(&self, id: SetId) -> &str {
        &self.names[id.idx()]
    }

    /// Cardinality of a set.
    pub fn set_len(&self, id: SetId) -> usize {
        self.sets[id.idx()].len()
    }

    /// Iterates `(id, elements)` over **all** set slots, including
    /// tombstoned ones (the id space is dense; snapshot encoders and other
    /// slot-faithful consumers rely on that). Use [`Self::live_sets`] to
    /// skip removed sets.
    pub fn iter_sets(&self) -> impl Iterator<Item = (SetId, &[TokenId])> {
        self.sets
            .iter()
            .enumerate()
            .map(|(i, s)| (SetId(i as u32), &**s))
    }

    /// Iterates `(id, elements)` over the live (non-tombstoned) sets only.
    pub fn live_sets(&self) -> impl Iterator<Item = (SetId, &[TokenId])> + '_ {
        self.iter_sets().filter(|(id, _)| self.is_live(*id))
    }

    /// Whether a set id names a live (present, not tombstoned) set. Out-of-
    /// range ids are reported dead rather than panicking, so filters can
    /// probe candidate ids freely.
    pub fn is_live(&self, id: SetId) -> bool {
        self.dead.get(id.idx()).is_some_and(|&d| !d)
    }

    /// Number of live sets (`num_sets` minus tombstones).
    pub fn num_live_sets(&self) -> usize {
        self.sets.len() - self.dead_count
    }

    /// The tombstoned set ids, ascending.
    pub fn tombstones(&self) -> impl Iterator<Item = SetId> + '_ {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| SetId(i as u32))
    }

    /// Appends a new set of string elements under `name`, interning unseen
    /// tokens (the interner is append-only, so existing token ids never
    /// move). Duplicates within the set are removed. Returns the assigned
    /// [`SetId`] — always the next dense id, so appends replayed in order
    /// assign identical ids on every replica.
    pub fn append_set<I, S>(&mut self, name: &str, elements: I) -> SetId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut tokens: Vec<TokenId> = elements
            .into_iter()
            .map(|s| self.interner.intern(s.as_ref()))
            .collect();
        tokens.sort_unstable();
        tokens.dedup();
        let id = SetId(self.sets.len() as u32);
        self.sets.push(tokens.into_boxed_slice());
        self.names.push(name.to_string());
        self.dead.push(false);
        id
    }

    /// Tombstones a set. The slot (tokens and name) stays readable — index
    /// maintenance needs the tokens to splice postings out — but the set no
    /// longer participates in searches, index builds or statistics. Returns
    /// `false` when the id is out of range or already tombstoned.
    pub fn remove_set(&mut self, id: SetId) -> bool {
        match self.dead.get_mut(id.idx()) {
            Some(d) if !*d => {
                *d = true;
                self.dead_count += 1;
                true
            }
            _ => false,
        }
    }

    /// The string of a token.
    pub fn token_str(&self, t: TokenId) -> &str {
        self.interner.resolve(t)
    }

    /// Looks up a token id by string.
    pub fn token_id(&self, s: &str) -> Option<TokenId> {
        self.interner.get(s)
    }

    /// Shared access to the interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner (interning query tokens before
    /// constructing string-based similarity functions).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Converts query strings to a sorted, deduplicated token vector,
    /// **dropping strings absent from the vocabulary**. An absent string
    /// cannot match any set element (no set contains it, and similarity
    /// functions are defined over the vocabulary), so dropping it never
    /// changes any semantic overlap; it only tightens the `|Q|` cap of the
    /// UB-filter.
    pub fn intern_query<I, S>(&self, elements: I) -> Vec<TokenId>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut q: Vec<TokenId> = elements
            .into_iter()
            .filter_map(|s| self.interner.get(s.as_ref()))
            .collect();
        q.sort_unstable();
        q.dedup();
        q
    }

    /// Like [`Self::intern_query`] but interns unknown strings (needed when
    /// a string-based similarity such as q-gram Jaccard should compare query
    /// tokens that do not occur in the corpus). Must run **before**
    /// constructing similarity functions that snapshot the vocabulary.
    pub fn intern_query_mut<I, S>(&mut self, elements: I) -> Vec<TokenId>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut q: Vec<TokenId> = elements
            .into_iter()
            .map(|s| self.interner.intern(s.as_ref()))
            .collect();
        q.sort_unstable();
        q.dedup();
        q
    }

    /// Vanilla overlap `|Q ∩ C|` of a sorted token slice with a set.
    pub fn vanilla_overlap(&self, query: &[TokenId], id: SetId) -> usize {
        debug_assert!(
            query.windows(2).all(|w| w[0] < w[1]),
            "query must be sorted"
        );
        let set = self.set(id);
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < query.len() && j < set.len() {
            match query[i].cmp(&set[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Table-I-style summary statistics over the **live** sets (tombstoned
    /// slots describe data that is gone; counting them would misreport the
    /// corpus being served).
    pub fn stats(&self) -> RepoStats {
        let mut unique = std::collections::HashSet::new();
        let mut max_size = 0;
        let mut total = 0usize;
        let live = self.num_live_sets();
        for (_, s) in self.live_sets() {
            max_size = max_size.max(s.len());
            total += s.len();
            unique.extend(s.iter().copied());
        }
        RepoStats {
            num_sets: live,
            max_size,
            avg_size: if live == 0 {
                0.0
            } else {
                total as f64 / live as f64
            },
            unique_elems: unique.len(),
        }
    }
}

impl HeapSize for Repository {
    fn heap_size(&self) -> usize {
        self.interner.heap_size()
            + self
                .sets
                .iter()
                .map(|s| s.len() * std::mem::size_of::<TokenId>())
                .sum::<usize>()
            + self.names.iter().map(|n| n.capacity()).sum::<usize>()
            + self.dead.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repo() -> Repository {
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton", "MtPleasant", "Lexington"]);
        b.add_set("c2", ["LA", "Sacramento", "Blain", "SC"]);
        b.add_set("dup", ["LA", "LA", "LA"]);
        b.build()
    }

    #[test]
    fn sets_are_sorted_and_deduped() {
        let r = sample_repo();
        assert_eq!(r.num_sets(), 3);
        let dup = r.set(SetId(2));
        assert_eq!(dup.len(), 1);
        for s in 0..r.num_sets() {
            let set = r.set(SetId(s as u32));
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn names_and_strings_roundtrip() {
        let r = sample_repo();
        assert_eq!(r.set_name(SetId(1)), "c2");
        let la = r.token_id("LA").unwrap();
        assert_eq!(r.token_str(la), "LA");
    }

    #[test]
    fn intern_query_drops_unknown() {
        let r = sample_repo();
        let q = r.intern_query(["LA", "Nowhere", "SC", "LA"]);
        assert_eq!(q.len(), 2);
        assert!(q.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn intern_query_mut_interns_unknown() {
        let mut r = sample_repo();
        let before = r.vocab_size();
        let q = r.intern_query_mut(["LA", "Nowhere"]);
        assert_eq!(q.len(), 2);
        assert_eq!(r.vocab_size(), before + 1);
    }

    #[test]
    fn vanilla_overlap_counts_exact_matches() {
        let r = sample_repo();
        let q = r.intern_query(["LA", "Blain", "Sacramento"]);
        assert_eq!(r.vanilla_overlap(&q, SetId(0)), 2); // LA, Blain
        assert_eq!(r.vanilla_overlap(&q, SetId(1)), 3);
        assert_eq!(r.vanilla_overlap(&q, SetId(2)), 1);
        assert_eq!(r.vanilla_overlap(&[], SetId(0)), 0);
    }

    #[test]
    fn stats_match_contents() {
        let r = sample_repo();
        let s = r.stats();
        assert_eq!(s.num_sets, 3);
        assert_eq!(s.max_size, 5);
        assert!((s.avg_size - (5 + 4 + 1) as f64 / 3.0).abs() < 1e-12);
        // c1 ∪ c2 ∪ dup = {LA, Blain, Appleton, MtPleasant, Lexington,
        //                  Sacramento, SC}
        assert_eq!(s.unique_elems, 7);
    }

    #[test]
    fn from_snapshot_restores_ids_exactly() {
        let r = sample_repo();
        let vocab: Vec<String> = r.interner().iter().map(|(_, s)| s.to_string()).collect();
        let sets: Vec<(String, Vec<TokenId>)> = r
            .iter_sets()
            .map(|(id, set)| (r.set_name(id).to_string(), set.to_vec()))
            .collect();
        let restored = RepositoryBuilder::from_snapshot(vocab, sets);
        assert_eq!(restored.vocab_size(), r.vocab_size());
        assert_eq!(restored.num_sets(), r.num_sets());
        for (id, set) in r.iter_sets() {
            assert_eq!(restored.set(id), set);
            assert_eq!(restored.set_name(id), r.set_name(id));
        }
        // Token ids (not just strings) are preserved.
        for (id, s) in r.interner().iter() {
            assert_eq!(restored.token_id(s), Some(id));
        }
    }

    #[test]
    fn empty_repository_stats() {
        let r = Repository::default();
        let s = r.stats();
        assert_eq!(s.num_sets, 0);
        assert_eq!(s.avg_size, 0.0);
    }

    #[test]
    fn append_assigns_dense_ids_and_interns_incrementally() {
        let mut r = sample_repo();
        let vocab_before = r.vocab_size();
        let id = r.append_set("new", ["LA", "Fresh", "Fresh", "SC"]);
        assert_eq!(id, SetId(3));
        assert_eq!(r.num_sets(), 4);
        // One genuinely new token; existing ids untouched.
        assert_eq!(r.vocab_size(), vocab_before + 1);
        assert_eq!(r.set_name(id), "new");
        let set = r.set(id);
        assert_eq!(set.len(), 3, "duplicates removed");
        assert!(set.windows(2).all(|w| w[0] < w[1]));
        assert!(r.is_live(id));
    }

    #[test]
    fn remove_tombstones_but_keeps_the_slot_readable() {
        let mut r = sample_repo();
        assert!(r.remove_set(SetId(1)));
        assert!(!r.remove_set(SetId(1)), "double remove is rejected");
        assert!(!r.remove_set(SetId(99)), "out of range is rejected");
        assert!(!r.is_live(SetId(1)));
        assert!(!r.is_live(SetId(99)));
        assert!(r.is_live(SetId(0)));
        // The slot stays readable for index maintenance.
        assert_eq!(r.set_name(SetId(1)), "c2");
        assert!(!r.set(SetId(1)).is_empty());
        // Counts and iteration reflect liveness.
        assert_eq!(r.num_sets(), 3, "id space keeps the slot");
        assert_eq!(r.num_live_sets(), 2);
        assert_eq!(r.live_sets().count(), 2);
        assert_eq!(r.iter_sets().count(), 3);
        assert_eq!(r.tombstones().collect::<Vec<_>>(), vec![SetId(1)]);
        // Appends after a removal still claim the next dense id.
        assert_eq!(r.append_set("later", ["LA"]), SetId(3));
    }

    #[test]
    fn stats_skip_tombstones() {
        let mut r = sample_repo();
        r.remove_set(SetId(0));
        let s = r.stats();
        assert_eq!(s.num_sets, 2);
        assert_eq!(s.max_size, 4); // c2; c1's 5 elements are gone
        assert!((s.avg_size - (4 + 1) as f64 / 2.0).abs() < 1e-12);
    }
}
