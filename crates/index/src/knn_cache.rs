//! A token-level kNN cache shared across similar queries.
//!
//! The dominant cost of a Koios search is fetching per-element kNN lists
//! (paper §IV–§V): for every query element the fetch scores the whole
//! vocabulary against `α`. Two queries that *share* an element repeat that
//! work verbatim — the per-element list depends only on `(token, α)`, never
//! on the rest of the query. The result LRU only catches exact query
//! repeats; this module catches the much more common *overlapping* repeat.
//!
//! [`TokenKnnCache`] is a concurrent, memory-bounded map from
//! `(token, α, generation, similarity-tag)` to a **complete** descending
//! similarity list (every vocabulary token with `simα ≥ α`, self token
//! first). Completeness is the exactness invariant, and it holds by
//! construction: [`lists`](crate::knn::lists) publishes a list as soon as
//! its scan sorted it, before any search streams from it, so replaying it
//! is indistinguishable from recomputing it.
//!
//! # A growing vocabulary
//!
//! Live ingestion only *appends* tokens: an existing token's vector is
//! never rewritten, so the similarity of two existing tokens never changes
//! (the contract of `koios_core::mutable::SimFactory`). Every entry
//! therefore records the vocabulary length `covered` its list was scanned
//! over, and a fetch over `vocab` tokens replays it exactly when a scan of
//! `0..vocab` would emit the same list:
//!
//! * `covered == vocab` — always;
//! * `covered < vocab` — when every token of `covered..vocab` scores below
//!   `α` against the key under the fetch's similarity (the key's own
//!   token, due at 1.0 once interned, always counts). By the
//!   [`ElementSimilarity::scores_above`] contract that `sim` is the scan's
//!   weight, so the check is exact; on success the entry is refreshed to
//!   `vocab`, and the next fetch over that vocabulary replays in O(1);
//! * `covered > vocab` (an older backend) — when the list names no token
//!   `≥ vocab`.
//!
//! Anything else is a plain miss: the fetch rescans and republishes its
//! own list (lists are never patched in place).
//!
//! The `generation` key component is for everything else: reloading a
//! corpus or swapping the similarity model bumps the generation
//! ([`TokenKnnCache::bump_generation`]), after which entries published by
//! in-flight searches of the old world can never be served again.
//!
//! Storage is the workspace's striped LRU
//! ([`koios_common::cache::StripedLru`]) with `list_bytes` weights against a
//! byte budget: the budget and the recency order are global across
//! stripes, every lock is a leaf, and admission is decided under the
//! stripe lock — the contract is stated once, on the core. This module owns
//! only what is token-specific: the key, the weights, the coverage rule,
//! the generation and the similarity-tag registry.

use crate::knn::KnnList;
use koios_common::cache::{CacheSnapshot, LockWaitObserver, StripeRow, StripedLru, STRIPES};
use koios_common::fingerprint::mix64;
use koios_common::TokenId;
use koios_embed::sim::ElementSimilarity;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Cache key: which element, under which threshold, of which world —
/// `sim_tag` namespaces entries by similarity function (one tag per
/// similarity and its registered successors, see
/// [`TokenKnnCache::sim_tag`]) so engines over *different* metrics sharing
/// one cache can never replay each other's lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    token: TokenId,
    alpha_bits: u64,
    generation: u64,
    sim_tag: u64,
}

impl Key {
    pub(crate) fn new(token: TokenId, alpha: f64, generation: u64, sim_tag: u64) -> Self {
        Key {
            token,
            alpha_bits: alpha.to_bits(),
            generation,
            sim_tag,
        }
    }

    /// The 64-bit hash the LRU files this key under. Mixed per component,
    /// so dense token-id ranges (interning hands them out sequentially)
    /// spread across stripes; the LRU compares the full key, so a collision
    /// costs a miss, never a wrong list.
    fn hash(&self) -> u64 {
        [self.alpha_bits, self.generation, self.sim_tag]
            .into_iter()
            .fold(mix64(u64::from(self.token.0)), |h, part| mix64(h ^ part))
    }
}

/// A stored list and the vocabulary length it is exact for.
#[derive(Clone)]
struct Scanned {
    list: KnnList,
    covered: usize,
}

impl Scanned {
    /// Whether this list for `token` is exactly what a scan of `0..vocab`
    /// under `sim` at `alpha` emits (the rule of the module docs),
    /// refreshing `covered` to `vocab` once the tokens interned since the
    /// scan are checked.
    fn covers(
        &mut self,
        token: TokenId,
        alpha: f64,
        sim: &dyn ElementSimilarity,
        vocab: usize,
    ) -> bool {
        match self.covered.cmp(&vocab) {
            std::cmp::Ordering::Equal => true,
            std::cmp::Ordering::Greater => self.list.iter().all(|&(_, t)| t.idx() < vocab),
            std::cmp::Ordering::Less => {
                let unchanged = (self.covered..vocab).all(|t| {
                    let t = TokenId(t as u32);
                    t != token && sim.sim(token, t) < alpha
                });
                if unchanged {
                    self.covered = vocab;
                }
                unchanged
            }
        }
    }
}

/// Bytes attributed to one cached list (entry payload + bookkeeping).
/// Charges *capacity*, not length, so the budget bounds resident heap
/// even for lists whose backing allocation grew past their final size.
fn list_bytes(list: &KnnList) -> usize {
    list.capacity() * std::mem::size_of::<(f64, TokenId)>() + ENTRY_OVERHEAD
}

/// Flat per-entry overhead charged against the byte budget (key, map slot,
/// recency slot, `Arc` header).
const ENTRY_OVERHEAD: usize = 96;

/// The token cache's behaviour counters: the shared LRU counter set.
/// `invalidations` counts entries dropped by a generation bump,
/// `rejected_inserts` lists heavier than the whole budget or published
/// under a stale generation.
pub type KnnCacheCounters = koios_common::cache::CacheCounters;

/// A point-in-time view of the cache for observability surfaces
/// (`koios-service` reports this through its `ServiceStats`), taken in one
/// sweep of the stripes.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KnnCacheSnapshot {
    /// Monotone behaviour counters.
    pub counters: KnnCacheCounters,
    /// Cached lists currently held.
    pub entries: usize,
    /// Bytes currently held (payload + per-entry overhead).
    pub bytes: usize,
    /// Byte budget.
    pub budget_bytes: usize,
    /// Current generation.
    pub generation: u64,
    /// Per-stripe occupancy (`weight` is bytes); sums to `entries`/`bytes`.
    pub stripes: [StripeRow; STRIPES],
}

/// The generic LRU view the snapshot was taken from (`weight` = bytes).
impl From<KnnCacheSnapshot> for CacheSnapshot {
    fn from(s: KnnCacheSnapshot) -> Self {
        CacheSnapshot {
            counters: s.counters,
            entries: s.entries,
            weight: s.bytes,
            budget: s.budget_bytes,
            stripes: s.stripes,
        }
    }
}

/// A concurrent, memory-bounded cache of complete per-element kNN lists,
/// keyed by `(token, α, generation, sim_tag)` and shared by any number of
/// engines (all methods take `&self`; share it as `Arc<TokenKnnCache>`).
///
/// Eviction is LRU by bytes: inserts displace the least-recently-probed
/// lists until the payload fits the budget. A single list larger than the
/// entire budget is not cached at all.
pub struct TokenKnnCache {
    lru: StripedLru<Key, Scanned>,
    generation: AtomicU64,
    // Similarity-identity registry for `sim_tag`. Holding a `Weak` pins
    // the `ArcInner` allocation (freed only at strong == weak == 0), so a
    // registered address can never be reused by a *different* similarity
    // while its entry lives — tags are ABA-safe, unlike raw addresses.
    // Read-mostly (every search resolves its tag once): RwLock keeps
    // concurrent lookups from serializing.
    sim_tags: RwLock<Vec<(std::sync::Weak<dyn ElementSimilarity>, u64)>>,
    next_sim_tag: AtomicU64,
}

impl std::fmt::Debug for TokenKnnCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("TokenKnnCache")
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("budget_bytes", &s.budget_bytes)
            .field("generation", &s.generation)
            .field("hits", &s.counters.hits)
            .field("misses", &s.counters.misses)
            .finish()
    }
}

impl TokenKnnCache {
    /// A cache bounded to `budget_bytes` of list payload. A budget of 0
    /// disables caching (every probe misses, every insert is rejected).
    pub fn new(budget_bytes: usize) -> Self {
        TokenKnnCache {
            lru: StripedLru::new(budget_bytes),
            generation: AtomicU64::new(0),
            sim_tags: RwLock::new(Vec::new()),
            // Tag 0 is the untagged namespace of a fetch given tag 0.
            next_sim_tag: AtomicU64::new(1),
        }
    }

    /// Installs an observer of the time each probe/insert spends
    /// **blocked acquiring its stripe mutex** (the striped LRU's
    /// [`StripedLru::install_lock_wait`]). Idempotent: the first
    /// installation wins; before any installation the acquisition path
    /// does no timing at all.
    pub fn install_lock_wait(&self, observer: LockWaitObserver) {
        self.lru.install_lock_wait(observer);
    }

    /// The stable tag identifying `sim` within this cache (assigned on
    /// first sight, monotonically). Engines pass it to
    /// [`lists`](crate::knn::lists) so entries are namespaced per
    /// similarity function: clones of one `Arc<dyn ElementSimilarity>`
    /// (engine clones, config siblings, partition engines) share a tag,
    /// while a *different* similarity — even one allocated at a reused
    /// address after the first was dropped — always gets a fresh tag.
    pub fn sim_tag(&self, sim: &Arc<dyn ElementSimilarity>) -> u64 {
        fn find(
            tags: &[(std::sync::Weak<dyn ElementSimilarity>, u64)],
            sim: &Arc<dyn ElementSimilarity>,
        ) -> Option<u64> {
            tags.iter().find_map(|(weak, tag)| {
                let known = weak.upgrade()?;
                Arc::ptr_eq(&known, sim).then_some(*tag)
            })
        }
        // Fast path: the tag already exists, under the shared lock only.
        if let Some(tag) = find(&self.sim_tags.read().expect("sim tag lock"), sim) {
            return tag;
        }
        let mut tags = self.sim_tags.write().expect("sim tag lock");
        // Re-scan under the exclusive lock: another thread may have
        // registered `sim` between our read and write acquisitions.
        if let Some(tag) = find(&tags, sim) {
            return tag;
        }
        // Drop registrations whose similarity died; their cache entries
        // are unreachable (dead tags are never handed out again) and age
        // out through LRU eviction.
        tags.retain(|(weak, _)| weak.strong_count() > 0);
        let tag = self.next_sim_tag.fetch_add(1, Ordering::Relaxed);
        tags.push((Arc::downgrade(sim), tag));
        tag
    }

    /// Files `sim` under `tag`, a tag this cache handed out for an earlier
    /// similarity that agrees with `sim` on every pair of tokens both
    /// know — a successor minted after a batch appended tokens
    /// (`koios_core::mutable::MutableEngine` does this for every backend
    /// it mints). [`Self::sim_tag`] then resolves `sim` to `tag`, so its
    /// searches share the entries of its predecessors and the coverage
    /// rule decides which of them it may replay.
    pub fn register_sim_tag(&self, sim: &Arc<dyn ElementSimilarity>, tag: u64) {
        let mut tags = self.sim_tags.write().expect("sim tag lock");
        tags.retain(|(weak, _)| weak.strong_count() > 0);
        tags.push((Arc::downgrade(sim), tag));
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.lru.budget()
    }

    /// The current generation. A fetch snapshots this on entry so a bump
    /// mid-scan invalidates its inserts, not its reads.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every cached list: bumps the generation (so stale keys
    /// can never be probed again) and drops current entries eagerly.
    /// Call after a change that may alter the similarity of two existing
    /// tokens — reloading a corpus, swapping the embeddings or the
    /// similarity model. Appending tokens needs no bump: entries record
    /// the vocabulary they cover (see the module docs).
    ///
    /// The bump is published *before* the stripes are swept, and
    /// [`Self::insert`] checks the generation under the stripe lock, so a
    /// search racing this call either sees its inserts rejected (stale
    /// generation) or has them cleared here — a stale list never survives.
    pub fn bump_generation(&self) -> u64 {
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.lru.clear();
        gen
    }

    /// Looks up the list stored for `(token, α, generation, sim_tag)`,
    /// whatever vocabulary it was scanned over, refreshing its recency on
    /// a hit. Searches probe through [`lists`](crate::knn::lists), which
    /// replays a list only where it covers the fetch's vocabulary.
    pub fn get(
        &self,
        token: TokenId,
        alpha_bits: u64,
        generation: u64,
        sim_tag: u64,
    ) -> Option<KnnList> {
        let key = Key {
            token,
            alpha_bits,
            generation,
            sim_tag,
        };
        self.lru.get(key.hash(), &key).map(|e| e.list)
    }

    /// Stores a **complete** list for `(token, α, generation, sim_tag)`,
    /// evicting LRU entries until it fits. Returns whether the list was
    /// stored (a stale generation or an over-budget list is rejected;
    /// re-inserting an existing key replaces the entry).
    ///
    /// The vocabulary the list was scanned over is not known here, so the
    /// entry claims the least one any complete list covers: up to its
    /// highest token (a scan of a longer vocabulary restricted to it is
    /// the same list). A fetch publishes with its scan's vocabulary.
    pub fn insert(
        &self,
        token: TokenId,
        alpha_bits: u64,
        generation: u64,
        sim_tag: u64,
        list: KnnList,
    ) -> bool {
        let covered = list.iter().map(|&(_, t)| t.idx() + 1).max().unwrap_or(0);
        let key = Key {
            token,
            alpha_bits,
            generation,
            sim_tag,
        };
        self.publish(key, list, covered)
    }

    /// Stores a complete list for `key` scanned over `0..covered`.
    pub(crate) fn publish(&self, key: Key, list: KnnList, covered: usize) -> bool {
        let bytes = list_bytes(&list);
        self.lru
            .insert(key.hash(), key, Scanned { list, covered }, bytes, || {
                key.generation == self.generation.load(Ordering::Acquire)
            })
    }

    /// The list for `key` if it replays exactly for a fetch over `vocab`
    /// tokens under `sim` (see the module docs); a refused entry counts
    /// as a miss.
    pub(crate) fn replay(
        &self,
        key: &Key,
        sim: &dyn ElementSimilarity,
        vocab: usize,
    ) -> Option<KnnList> {
        let alpha = f64::from_bits(key.alpha_bits);
        self.lru
            .get_if(key.hash(), key, |e| e.covers(key.token, alpha, sim, vocab))
            .map(|e| e.list)
    }

    /// Number of cached lists (sums the stripes, one lock at a time).
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no lists.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lru.weight()
    }

    /// The behaviour counters, summed across stripes. Each monotone
    /// counter is exact once concurrent operations have completed; a
    /// mid-flight read may miss an operation still holding another stripe.
    pub fn counters(&self) -> KnnCacheCounters {
        self.lru.counters()
    }

    /// An observability snapshot from one sweep of the stripes (consistent
    /// in the absence of concurrent mutation).
    pub fn snapshot(&self) -> KnnCacheSnapshot {
        let lru = self.lru.snapshot();
        KnnCacheSnapshot {
            counters: lru.counters,
            entries: lru.entries,
            bytes: lru.weight,
            budget_bytes: lru.budget,
            generation: self.generation(),
            stripes: lru.stripes,
        }
    }
}

/// Per-search cache effectiveness, folded into
/// `koios_core::SearchStats::knn_cache` and summed across searches by the
/// service layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KnnCacheSearchStats {
    /// Query elements answered from the cache (no vocabulary scan ran).
    pub hits: usize,
    /// Query elements that scanned the vocabulary.
    pub misses: usize,
    /// Complete lists this search published into the cache.
    pub inserted: usize,
    /// Payload bytes served from cached lists.
    pub bytes_served: usize,
}

impl KnnCacheSearchStats {
    /// Accumulates another search's counters (service/partition merging).
    pub fn merge(&mut self, other: &KnnCacheSearchStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserted += other.inserted;
        self.bytes_served += other.bytes_served;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{lists, ExactScanKnn, KnnSource};
    use koios_embed::repository::{Repository, RepositoryBuilder};
    use koios_embed::sim::{ElementSimilarity, QGramJaccard};
    use std::sync::atomic::AtomicUsize;

    fn setup() -> (Arc<dyn ElementSimilarity>, Vec<TokenId>, usize) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s", ["Blaine", "Blain", "Blainey", "Zurich", "Zurch"]);
        let repo = b.build();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let vocab = repo.vocab_size();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        (sim, q, vocab)
    }

    fn drain(src: &mut dyn KnnSource, q_idx: usize) -> Vec<(TokenId, f64)> {
        let mut out = Vec::new();
        while let Some(x) = src.next(q_idx) {
            out.push(x);
        }
        out
    }

    /// A fetch through `cache` under sim tag `tag`: every element's list
    /// as `(token, weight bits)`, and the fetch's counters.
    fn fetch_tagged(
        cache: &TokenKnnCache,
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
        alpha: f64,
        tag: u64,
    ) -> (Vec<Vec<(TokenId, u64)>>, KnnCacheSearchStats) {
        let (fetched, stats) = lists(sim.as_ref(), q, vocab, alpha, Some((cache, tag)));
        (fetched.iter().map(|l| bits(l)).collect(), stats)
    }

    /// [`fetch_tagged`] in the untagged namespace.
    fn fetch(
        cache: &TokenKnnCache,
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
        alpha: f64,
    ) -> (Vec<Vec<(TokenId, u64)>>, KnnCacheSearchStats) {
        fetch_tagged(cache, sim, q, vocab, alpha, 0)
    }

    fn bits(list: &[(f64, TokenId)]) -> Vec<(TokenId, u64)> {
        list.iter().map(|&(s, t)| (t, s.to_bits())).collect()
    }

    /// What a cold exact scan over `vocab` tokens emits, drained through
    /// the stream source.
    fn scan(
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
        alpha: f64,
    ) -> Vec<Vec<(TokenId, u64)>> {
        let mut bare = ExactScanKnn::new(Arc::clone(sim), q.to_vec(), vocab, alpha);
        (0..q.len())
            .map(|i| {
                drain(&mut bare, i)
                    .into_iter()
                    .map(|(t, s)| (t, s.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn warm_replay_is_identical_to_cold_scan() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        let (cold, stats) = fetch(&cache, &sim, &q, vocab, 0.3);
        assert_eq!((stats.hits, stats.misses), (0, q.len()));
        assert_eq!(stats.inserted, q.len());

        let (warm, stats) = fetch(&cache, &sim, &q, vocab, 0.3);
        assert_eq!(warm, cold);
        assert_eq!((stats.hits, stats.misses, stats.inserted), (q.len(), 0, 0));
        assert!(stats.bytes_served > 0);

        // Reference: a bare exact scan, drained through the stream source,
        // agrees too.
        assert_eq!(scan(&sim, &q, vocab, 0.3), cold);
    }

    /// A fetch publishes complete lists before anything streams from them:
    /// a search that pulls one tuple and stops leaves the full lists
    /// behind, never the prefix it consumed.
    #[test]
    fn partial_consumption_is_never_cached() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        let (fetched, _) = lists(sim.as_ref(), &q, vocab, 0.2, Some((&cache, 0)));
        let mut src = ExactScanKnn::replay(fetched.into());
        assert!(src.next(0).is_some());
        drop(src);
        assert_eq!(cache.counters().insertions, q.len() as u64);
        let full = scan(&sim, &q, vocab, 0.2);
        assert!(full[0].len() > 1, "one pulled tuple is a strict prefix");
        for (i, &t) in q.iter().enumerate() {
            let cached = cache.get(t, 0.2f64.to_bits(), 0, 0).expect("published");
            assert_eq!(bits(&cached), full[i]);
        }
    }

    /// Records the tokens of every batched scan it is asked for, and
    /// every single-token one, and counts the pairs scored one by one.
    struct CountingSim {
        inner: Arc<dyn ElementSimilarity>,
        batches: std::sync::Mutex<Vec<Vec<TokenId>>>,
        singles: std::sync::Mutex<Vec<TokenId>>,
        pairs: AtomicU64,
    }

    impl CountingSim {
        fn new(inner: Arc<dyn ElementSimilarity>) -> Arc<Self> {
            Arc::new(CountingSim {
                inner,
                batches: Default::default(),
                singles: Default::default(),
                pairs: AtomicU64::new(0),
            })
        }

        fn pairs(&self) -> u64 {
            self.pairs.load(Ordering::Relaxed)
        }
    }

    impl ElementSimilarity for CountingSim {
        fn sim(&self, a: TokenId, b: TokenId) -> f64 {
            self.pairs.fetch_add(1, Ordering::Relaxed);
            self.inner.sim(a, b)
        }
        fn name(&self) -> &'static str {
            "counting"
        }
        fn scores_above(
            &self,
            q: TokenId,
            vocab: usize,
            alpha: f64,
            out: &mut Vec<(f64, TokenId)>,
        ) {
            self.singles.lock().unwrap().push(q);
            self.inner.scores_above(q, vocab, alpha, out);
        }
        fn scores_above_many(
            &self,
            qs: &[TokenId],
            vocab: usize,
            alpha: f64,
            outs: &mut [Vec<(f64, TokenId)>],
        ) {
            self.batches.lock().unwrap().push(qs.to_vec());
            self.inner.scores_above_many(qs, vocab, alpha, outs);
        }
    }

    /// On a query whose elements are partly cached, the fetch probes the
    /// cache once per element and scores exactly the misses, in one
    /// `scores_above_many` call; the lists are those of a bare exact scan.
    #[test]
    fn prefetch_scores_only_the_misses_in_one_scan() {
        let mut b = RepositoryBuilder::new();
        b.add_set(
            "s",
            ["Blaine", "Blain", "Blainey", "Zurich", "Zurch", "Bern"],
        );
        b.add_set("t", ["Berne", "Basel", "Basle", "Genf", "Geneva"]);
        let repo = b.build();
        let vocab = repo.vocab_size();
        let inner: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        let counting = CountingSim::new(Arc::clone(&inner));
        let sim: Arc<dyn ElementSimilarity> = counting.clone();
        let warm = repo.intern_query(["Blaine", "Basel"]);
        let q = repo.intern_query(["Blaine", "Zurich", "Bern", "Basel", "Geneva"]);
        let misses: Vec<TokenId> = q.iter().copied().filter(|t| !warm.contains(t)).collect();

        let cache = TokenKnnCache::new(1 << 20);
        fetch(&cache, &inner, &warm, vocab, 0.2);
        let (fetched, stats) = fetch(&cache, &sim, &q, vocab, 0.2);
        assert_eq!(*counting.batches.lock().unwrap(), vec![misses]);
        assert!(counting.singles.lock().unwrap().is_empty());
        assert_eq!((stats.hits, stats.misses, stats.inserted), (2, 3, 3));
        assert_eq!(fetched, scan(&inner, &q, vocab, 0.2));
    }

    /// One similarity over a vocabulary that grows in three steps — the
    /// old tokens, then far ones, then near duplicates of `Blaine` — and
    /// the vocabulary length after each step. A fetch over a prefix is
    /// what a backend minted before a batch scans: appending tokens never
    /// changes an existing pair.
    fn growing() -> (Arc<dyn ElementSimilarity>, Repository, [usize; 3]) {
        let mut b = RepositoryBuilder::new();
        b.add_set("old", ["Blaine", "Zurich", "Zurch", "Bern"]);
        b.add_set("far", ["Geneva", "Lugano"]);
        b.add_set("near", ["Blain", "Blainey"]);
        let repo = b.build();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        (sim, repo, [4, 6, 8])
    }

    /// Publishes every element of `q` as scanned over `vocab` tokens.
    fn publish(
        cache: &TokenKnnCache,
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
    ) {
        let (_, stats) = fetch(cache, sim, q, vocab, 0.3);
        assert_eq!(stats.inserted, q.len());
    }

    #[test]
    fn grown_vocabulary_replays_when_no_new_token_reaches_alpha() {
        let (sim, repo, [old, far, _]) = growing();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let cache = TokenKnnCache::new(1 << 20);
        publish(&cache, &sim, &q, old);
        let counting = CountingSim::new(Arc::clone(&sim));
        let probe: Arc<dyn ElementSimilarity> = counting.clone();
        let (fetched, stats) = fetch(&cache, &probe, &q, far, 0.3);
        assert_eq!(fetched, scan(&sim, &q, far, 0.3));
        assert_eq!((stats.hits, stats.misses), (2, 0));
        assert!(
            counting.batches.lock().unwrap().is_empty(),
            "nothing rescanned"
        );
        // Each element scored the two new tokens once, then was refreshed:
        // the next fetch over this vocabulary replays without scoring.
        assert_eq!(counting.pairs(), 2 * (far - old) as u64);
        let (again, stats) = fetch(&cache, &probe, &q, far, 0.3);
        assert_eq!(again, fetched);
        assert_eq!(stats.hits, 2);
        assert_eq!(counting.pairs(), 2 * (far - old) as u64);
    }

    #[test]
    fn grown_vocabulary_rescans_when_a_new_token_reaches_alpha() {
        let (sim, repo, [old, _, near]) = growing();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let cache = TokenKnnCache::new(1 << 20);
        publish(&cache, &sim, &q, old);
        // `Blain` and `Blainey` reach α against `Blaine`, not `Zurich`.
        let (fresh, stats) = fetch(&cache, &sim, &q, near, 0.3);
        assert_eq!(fresh, scan(&sim, &q, near, 0.3));
        assert!(fresh[0].len() > scan(&sim, &q, old, 0.3)[0].len());
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.inserted, 1, "the rescan republishes");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 3), "a refused entry is a miss");
        let (again, stats) = fetch(&cache, &sim, &q, near, 0.3);
        assert_eq!(again, fresh);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn key_out_of_vocabulary_at_its_scan_rescans_once_interned() {
        let (sim, repo, [old, far, _]) = growing();
        let q = repo.intern_query(["Geneva"]);
        assert!(q[0].idx() >= old && q[0].idx() < far);
        let cache = TokenKnnCache::new(1 << 20);
        publish(&cache, &sim, &q, old);
        assert!(scan(&sim, &q, old, 0.3)[0].iter().all(|&(t, _)| t != q[0]));
        // Nothing of the new tokens but the key itself reaches α: it is
        // due at 1.0 once interned, so the entry is refused.
        let (fresh, stats) = fetch(&cache, &sim, &q, far, 0.3);
        assert_eq!(fresh, scan(&sim, &q, far, 0.3));
        assert_eq!(fresh[0][0], (q[0], 1.0f64.to_bits()));
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn shrunk_vocabulary_replays_only_lists_within_it() {
        let (sim, repo, [old, _, near]) = growing();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let cache = TokenKnnCache::new(1 << 20);
        publish(&cache, &sim, &q, near);
        // An older backend: `Blaine`'s list names tokens it cannot know,
        // `Zurich`'s does not.
        let (older, stats) = fetch(&cache, &sim, &q, old, 0.3);
        assert_eq!(older, scan(&sim, &q, old, 0.3));
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Its republished `Blaine` list is refused by the newer vocabulary
        // again, which rescans the same list it first published.
        let (newer, stats) = fetch(&cache, &sim, &q, near, 0.3);
        assert_eq!(newer, scan(&sim, &q, near, 0.3));
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn registered_successors_share_their_predecessors_tag() {
        let (sim, repo, _) = growing();
        let cache = TokenKnnCache::new(1 << 20);
        let tag = cache.sim_tag(&sim);
        let successor: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        cache.register_sim_tag(&successor, tag);
        assert_eq!(cache.sim_tag(&successor), tag);
        drop(sim);
        assert_eq!(cache.sim_tag(&successor), tag, "outlives its predecessor");
        let other: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        assert_ne!(cache.sim_tag(&other), tag);
    }

    #[test]
    fn alpha_values_do_not_share_entries() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        fetch(&cache, &sim, &q[..1], vocab, 0.2);
        let (_, stats) = fetch(&cache, &sim, &q[..1], vocab, 0.9);
        assert_eq!(stats.hits, 0, "different α must miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sim_tags_namespace_entries() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        fetch(&cache, &sim, &q[..1], vocab, 0.3); // tag 0
        let (_, stats) = fetch_tagged(&cache, &sim, &q[..1], vocab, 0.3, 7);
        assert_eq!(stats.hits, 0, "different sim tag must miss");
        assert_eq!(cache.len(), 2, "entries live side by side");
        // Same tag hits its own namespace.
        let (_, stats) = fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn sim_tag_registry_is_identity_stable() {
        let (sim, _q, _vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let t1 = cache.sim_tag(&sim);
        assert_eq!(cache.sim_tag(&Arc::clone(&sim)), t1, "clones share a tag");
        let (other, ..) = setup();
        let t2 = cache.sim_tag(&other);
        assert_ne!(t1, t2, "distinct similarities get distinct tags");
        // Dropping a similarity never recycles its tag: a successor gets a
        // fresh one even if the allocator reuses the address.
        drop(other);
        for _ in 0..32 {
            let (fresh, ..) = setup();
            let t = cache.sim_tag(&fresh);
            assert_ne!(t, t2, "dead tag must not be reassigned");
            drop(fresh);
        }
    }

    #[test]
    fn generation_bump_invalidates() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert_eq!(cache.len(), 1);
        cache.bump_generation();
        assert!(cache.is_empty());
        assert_eq!(cache.counters().invalidations, 1);
        let (_, stats) = fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    /// A similarity that bumps the cache's generation while it scans: the
    /// world changes between the fetch's entry and its publish.
    struct BumpingSim {
        inner: Arc<dyn ElementSimilarity>,
        cache: Arc<TokenKnnCache>,
    }

    impl ElementSimilarity for BumpingSim {
        fn sim(&self, a: TokenId, b: TokenId) -> f64 {
            self.inner.sim(a, b)
        }
        fn name(&self) -> &'static str {
            "bumping"
        }
        fn scores_above(
            &self,
            q: TokenId,
            vocab: usize,
            alpha: f64,
            out: &mut Vec<(f64, TokenId)>,
        ) {
            self.cache.bump_generation();
            self.inner.scores_above(q, vocab, alpha, out);
        }
    }

    #[test]
    fn stale_generation_inserts_are_rejected() {
        let (inner, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let sim: Arc<dyn ElementSimilarity> = Arc::new(BumpingSim {
            inner: Arc::clone(&inner),
            cache: Arc::clone(&cache),
        });
        let (fetched, stats) = fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert_eq!(fetched, scan(&inner, &q[..1], vocab, 0.3), "reads unharmed");
        assert_eq!(stats.inserted, 0);
        assert!(cache.is_empty());
        assert_eq!(cache.counters().rejected_inserts, 1);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let (sim, q, vocab) = setup();
        // Budget fits roughly one list (payload + overhead).
        let (bare, _) = lists(sim.as_ref(), &q, vocab, 0.2, None);
        let one_list_bytes = list_bytes(&bare[0]);
        let cache = TokenKnnCache::new(one_list_bytes + ENTRY_OVERHEAD / 2);
        fetch(&cache, &sim, &q, vocab, 0.2);
        assert_eq!(cache.len(), 1, "budget holds one list");
        assert!(cache.counters().evictions >= 1);
        assert!(cache.bytes() <= cache.budget_bytes());
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(0);
        let (fresh, _) = fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert!(!fresh[0].is_empty(), "search still works without caching");
        assert!(cache.is_empty());
        assert!(cache.counters().rejected_inserts >= 1);
    }

    #[test]
    fn snapshot_reports_state() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        fetch(&cache, &sim, &q[..1], vocab, 0.3);
        let snap = cache.snapshot();
        assert_eq!(snap.entries, 1);
        assert!(snap.bytes > 0);
        assert_eq!(snap.generation, 0);
        assert_eq!(snap.counters.insertions, 1);
        assert_eq!(snap.budget_bytes, 1 << 20);
        assert!(format!("{cache:?}").contains("TokenKnnCache"));
    }

    #[test]
    fn concurrent_fill_and_probe_is_safe_and_exact() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        let expect = scan(&sim, &q, vocab, 0.25);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| assert_eq!(fetch(&cache, &sim, &q, vocab, 0.25).0, expect));
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 8 * q.len() as u64);
        assert!(c.hits > 0, "overlapping threads should hit");
    }

    #[test]
    fn installed_lock_wait_histogram_counts_acquisitions() {
        let (sim, q, vocab) = setup();
        let cache = TokenKnnCache::new(1 << 20);
        let count = |n: &Arc<AtomicUsize>| -> LockWaitObserver {
            let n = Arc::clone(n);
            Arc::new(move |_| {
                n.fetch_add(1, Ordering::Relaxed);
            })
        };
        let waits = Arc::new(AtomicUsize::new(0));
        cache.install_lock_wait(count(&waits));
        // A second installation is ignored — the first observer keeps
        // receiving samples.
        cache.install_lock_wait(count(&Arc::new(AtomicUsize::new(0))));
        let (fresh, _) = fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert!(!fresh[0].is_empty());
        // One probe (miss) + one insert = two timed acquisitions.
        assert_eq!(waits.load(Ordering::Relaxed), 2);
        let (warm, _) = fetch(&cache, &sim, &q[..1], vocab, 0.3);
        assert_eq!(warm, fresh, "instrumentation changes nothing");
        assert_eq!(waits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn search_stats_merge_accumulates() {
        let mut a = KnnCacheSearchStats {
            hits: 1,
            misses: 2,
            inserted: 2,
            bytes_served: 100,
        };
        let b = KnnCacheSearchStats {
            hits: 3,
            misses: 0,
            inserted: 0,
            bytes_served: 50,
        };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 2);
        assert_eq!(a.inserted, 2);
        assert_eq!(a.bytes_served, 150);
    }
}
