//! A token-level kNN cache shared across similar queries.
//!
//! The dominant cost of a Koios search is streaming per-element kNN lists
//! (paper §IV–§V): for every query element the source scores the whole
//! vocabulary against `α`. Two queries that *share* an element repeat that
//! work verbatim — the per-element list depends only on `(token, α)`, never
//! on the rest of the query. The PR-1 result LRU only catches exact query
//! repeats; this module catches the much more common *overlapping* repeat.
//!
//! [`TokenKnnCache`] is a concurrent, memory-bounded map from
//! `(token, α, generation, similarity-tag)` to a **complete** descending
//! similarity list
//! (every vocabulary token with `simα ≥ α`, self token first). Completeness
//! is the exactness invariant: a cached list is only ever inserted after its
//! producing source was drained to exhaustion, so replaying it is
//! indistinguishable from recomputing it — truncated prefixes are never
//! stored, because a search that prunes early would otherwise poison later
//! searches that stream further.
//!
//! [`CachedKnn`] is the decorator that any engine wraps around an exact
//! source ([`ExactScanKnn`](crate::knn::ExactScanKnn)): per query element
//! it first probes the cache, and on a miss it transparently records the inner source's emissions,
//! publishing the list once (and only if) the element's stream completes.
//!
//! The `generation` key component makes invalidation O(1) and race-free:
//! swapping the repository or similarity model bumps the generation
//! ([`TokenKnnCache::bump_generation`]), after which entries recorded by
//! in-flight searches of the old world can never be served again.
//!
//! Storage is the workspace's striped LRU
//! ([`koios_common::cache::StripedLru`]) with `list_bytes` weights against a
//! byte budget: the budget, the recency order and the TTL are global across
//! stripes, every lock is a leaf, and admission is decided under the
//! stripe lock — the contract is stated once, on the core. This module owns
//! only what is token-specific: the key, the weights, the generation, the
//! similarity-tag registry and the completeness-preserving [`CachedKnn`].

use crate::knn::KnnSource;
use koios_common::cache::{CacheSnapshot, StripeRow, StripedLru, STRIPES};
use koios_common::fingerprint::mix64;
use koios_common::TokenId;
use koios_embed::sim::ElementSimilarity;
use koios_telemetry::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A complete per-element kNN list: `(similarity, token)` descending by
/// similarity, ties by ascending token id — exactly the emission order of
/// the exact sources.
pub type KnnList = Arc<Vec<(f64, TokenId)>>;

/// Cache key: which element, under which threshold, of which world —
/// `sim_tag` namespaces entries by similarity-function identity so engines
/// over *different* metrics sharing one cache can never replay each
/// other's lists (see [`CachedKnn::with_sim_tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    token: TokenId,
    alpha_bits: u64,
    generation: u64,
    sim_tag: u64,
}

impl Key {
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
    lru: StripedLru<Key, KnnList>,
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
            // Tag 0 is the untagged namespace of bare `CachedKnn::new`.
            next_sim_tag: AtomicU64::new(1),
        }
    }

    /// Gives entries a time-to-live (builder style, before the cache is
    /// shared): a probe that finds an entry at least `ttl` old evicts it
    /// and misses, so stale similarity lists age out even without memory
    /// pressure — the knob long-lived services use when embeddings are
    /// refreshed out of band on a schedule rather than via an explicit
    /// [`Self::bump_generation`]. `None` (the default) keeps entries until
    /// displaced or invalidated. Expiries are counted in
    /// [`KnnCacheCounters::expirations`] (each is also a miss).
    pub fn with_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.lru = self.lru.with_ttl(ttl);
        self
    }

    /// The entry time-to-live, if one was configured.
    pub fn ttl(&self) -> Option<Duration> {
        self.lru.ttl()
    }

    /// Installs a histogram that records, in nanoseconds, the time each
    /// probe/insert spends **blocked acquiring its stripe mutex**.
    /// Idempotent: the first installation wins (callers sharing one cache
    /// share one histogram); before any installation the acquisition path
    /// does no timing at all. Eviction's cross-stripe scan is not timed —
    /// the series measures hot-path probe/insert contention only.
    pub fn install_lock_wait(&self, histogram: Arc<Histogram>) {
        self.lru
            .install_lock_wait(Arc::new(move |wait| histogram.record_duration(wait)));
    }

    /// The stable tag identifying `sim` within this cache (assigned on
    /// first sight, monotonically). Engines pass it to
    /// [`CachedKnn::with_sim_tag`] so entries are namespaced per
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

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.lru.budget()
    }

    /// The current generation. Sources snapshot this at construction so a
    /// bump mid-search invalidates their inserts, not their reads.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every cached list: bumps the generation (so stale keys
    /// can never be probed again) and drops current entries eagerly.
    /// Call after swapping the repository, embeddings or similarity model.
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

    /// Looks up the complete list for `(token, α, generation, sim_tag)`,
    /// refreshing its recency on a hit.
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
        self.lru.get(key.hash(), &key)
    }

    /// Stores a **complete** list for `(token, α, generation, sim_tag)`,
    /// evicting LRU entries until it fits. Returns whether the list was
    /// stored (a stale generation or an over-budget list is rejected;
    /// re-inserting an existing key replaces the entry).
    pub fn insert(
        &self,
        token: TokenId,
        alpha_bits: u64,
        generation: u64,
        sim_tag: u64,
        list: KnnList,
    ) -> bool {
        let key = Key {
            token,
            alpha_bits,
            generation,
            sim_tag,
        };
        let bytes = list_bytes(&list);
        self.lru.insert(key.hash(), key, list, bytes, || {
            generation == self.generation.load(Ordering::Acquire)
        })
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

/// Per-element state of a [`CachedKnn`].
enum Elem {
    /// Never probed by this search.
    Untouched,
    /// Replaying a complete cached list.
    Cached { list: KnnList, pos: usize },
    /// Cache miss: delegating to the inner source and recording its
    /// emissions; `done` marks inner exhaustion (buffer published).
    Streaming {
        buf: Vec<(f64, TokenId)>,
        done: bool,
    },
}

/// A caching decorator over any exact [`KnnSource`].
///
/// Per query element the first probe (or the prefetch, which forwards
/// only the misses to the inner source) consults the shared
/// [`TokenKnnCache`]; a hit replays the complete cached list (the inner
/// source never computes that element), a miss falls through to the inner
/// source while recording every emission. When — and only when — the inner
/// source reports exhaustion for the element, the recorded list is complete
/// and is published to the cache. A search that stops pulling mid-stream
/// therefore caches nothing for that element, which is exactly what keeps
/// cached replays byte-identical to fresh scans.
pub struct CachedKnn<K: KnnSource> {
    cache: Arc<TokenKnnCache>,
    inner: K,
    query: Vec<TokenId>,
    alpha_bits: u64,
    generation: u64,
    sim_tag: u64,
    elems: Vec<Elem>,
    stats: KnnCacheSearchStats,
}

impl<K: KnnSource> CachedKnn<K> {
    /// Wraps `inner` (built for exactly `query` under `alpha`) with the
    /// shared cache. The cache generation is snapshotted here: a
    /// [`TokenKnnCache::bump_generation`] between construction and search
    /// start only disables this search's inserts, never its correctness.
    pub fn new(cache: Arc<TokenKnnCache>, query: Vec<TokenId>, alpha: f64, inner: K) -> Self {
        let elems = (0..query.len()).map(|_| Elem::Untouched).collect();
        let generation = cache.generation();
        CachedKnn {
            cache,
            inner,
            query,
            alpha_bits: alpha.to_bits(),
            generation,
            sim_tag: 0,
            elems,
            stats: KnnCacheSearchStats::default(),
        }
    }

    /// Namespaces this source's cache entries by similarity-function
    /// identity (builder style). Sources with different tags never share
    /// entries, so one cache can safely serve engines over *different*
    /// similarity metrics — obtain the tag from
    /// [`TokenKnnCache::sim_tag`], which keeps all clones of one engine
    /// (and its partition siblings) sharing while isolating every other
    /// similarity. Defaults to `0` (one shared untagged namespace) when
    /// the caller guarantees a single similarity per cache.
    pub fn with_sim_tag(mut self, tag: u64) -> Self {
        self.sim_tag = tag;
        self
    }

    /// This search's cache effectiveness so far.
    pub fn search_stats(&self) -> KnnCacheSearchStats {
        self.stats
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<TokenKnnCache> {
        &self.cache
    }

    /// The wrapped source.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// Resolves an untouched element against the cache: a hit starts its
    /// replay, a miss starts recording the inner source. Returns whether
    /// this call resolved `q_idx` to a miss.
    fn resolve(&mut self, q_idx: usize) -> bool {
        if !matches!(self.elems[q_idx], Elem::Untouched) {
            return false;
        }
        match self.cache.get(
            self.query[q_idx],
            self.alpha_bits,
            self.generation,
            self.sim_tag,
        ) {
            Some(list) => {
                self.stats.hits += 1;
                self.stats.bytes_served += list.len() * std::mem::size_of::<(f64, TokenId)>();
                self.elems[q_idx] = Elem::Cached { list, pos: 0 };
                false
            }
            None => {
                self.stats.misses += 1;
                self.elems[q_idx] = Elem::Streaming {
                    buf: Vec::new(),
                    done: false,
                };
                true
            }
        }
    }
}

impl<K: KnnSource> KnnSource for CachedKnn<K> {
    /// Probes the cache for every untouched element and forwards only the
    /// misses to the inner source, so it scores exactly what the cache
    /// could not serve. Lists are still published only when drained.
    fn prefetch(&mut self, q_idxs: &[usize]) {
        let misses: Vec<usize> = q_idxs
            .iter()
            .copied()
            .filter(|&i| self.resolve(i))
            .collect();
        if !misses.is_empty() {
            self.inner.prefetch(&misses);
        }
    }

    fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
        self.resolve(q_idx);
        match &mut self.elems[q_idx] {
            Elem::Untouched => unreachable!("resolved above"),
            Elem::Cached { list, pos } => {
                let &(s, t) = list.get(*pos)?;
                *pos += 1;
                Some((t, s))
            }
            Elem::Streaming { buf, done } => {
                if *done {
                    return None;
                }
                match self.inner.next(q_idx) {
                    Some((t, s)) => {
                        buf.push((s, t));
                        Some((t, s))
                    }
                    None => {
                        *done = true;
                        // Push-grown buffers can hold up to 2× their length
                        // in capacity; trim so the cache's byte accounting
                        // (which charges capacity) stays tight.
                        buf.shrink_to_fit();
                        let list: KnnList = Arc::new(std::mem::take(buf));
                        if self.cache.insert(
                            self.query[q_idx],
                            self.alpha_bits,
                            self.generation,
                            self.sim_tag,
                            list,
                        ) {
                            self.stats.inserted += 1;
                        }
                        None
                    }
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        // Cached `Arc` lists are attributed to the search that holds them:
        // they are live memory this search keeps reachable, shared or not.
        self.inner.heap_bytes()
            + self
                .elems
                .iter()
                .map(|e| match e {
                    Elem::Untouched => 0,
                    Elem::Cached { list, .. } => {
                        list.capacity() * std::mem::size_of::<(f64, TokenId)>()
                    }
                    Elem::Streaming { buf, .. } => {
                        buf.capacity() * std::mem::size_of::<(f64, TokenId)>()
                    }
                })
                .sum::<usize>()
    }

    fn cache_counters(&self) -> Option<KnnCacheSearchStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::ExactScanKnn;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::{ElementSimilarity, QGramJaccard};

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

    fn cached(
        cache: &Arc<TokenKnnCache>,
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
        alpha: f64,
    ) -> CachedKnn<ExactScanKnn> {
        CachedKnn::new(
            Arc::clone(cache),
            q.to_vec(),
            alpha,
            ExactScanKnn::new(Arc::clone(sim), q.to_vec(), vocab, alpha),
        )
    }

    #[test]
    fn warm_replay_is_identical_to_cold_scan() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let mut cold = cached(&cache, &sim, &q, vocab, 0.3);
        let cold_lists: Vec<_> = (0..q.len()).map(|i| drain(&mut cold, i)).collect();
        assert_eq!(cold.search_stats().misses, q.len());
        assert_eq!(cold.search_stats().inserted, q.len());

        let mut warm = cached(&cache, &sim, &q, vocab, 0.3);
        for (i, expect) in cold_lists.iter().enumerate() {
            assert_eq!(&drain(&mut warm, i), expect);
        }
        assert_eq!(warm.search_stats().hits, q.len());
        assert_eq!(warm.search_stats().misses, 0);
        assert!(warm.search_stats().bytes_served > 0);

        // Reference: a bare exact scan agrees too.
        let mut bare = ExactScanKnn::new(sim, q.clone(), vocab, 0.3);
        for (i, expect) in cold_lists.iter().enumerate() {
            assert_eq!(&drain(&mut bare, i), expect);
        }
    }

    #[test]
    fn partial_consumption_is_never_cached() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let mut src = cached(&cache, &sim, &q, vocab, 0.2);
        // Pull a single tuple and stop: an incomplete prefix.
        assert!(src.next(0).is_some());
        drop(src);
        assert!(cache.is_empty(), "truncated prefix must not be cached");
        assert_eq!(cache.counters().insertions, 0);
        // A prefetch scores every element, but publishes none of them.
        let mut src = cached(&cache, &sim, &q, vocab, 0.2);
        src.prefetch(&[0, 1]);
        assert!(src.next(0).is_some());
        drop(src);
        assert!(cache.is_empty(), "a prefetched list is not a drained one");
        assert_eq!(cache.counters().insertions, 0);
    }

    /// Records the tokens of every batched scan it is asked for, and
    /// every single-token one.
    struct CountingSim {
        inner: Arc<dyn ElementSimilarity>,
        batches: std::sync::Mutex<Vec<Vec<TokenId>>>,
        singles: std::sync::Mutex<Vec<TokenId>>,
    }

    impl ElementSimilarity for CountingSim {
        fn sim(&self, a: TokenId, b: TokenId) -> f64 {
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

    /// On a query whose elements are partly cached, the prefetch probes
    /// the cache once per element and hands the inner source exactly the
    /// misses, in one batched scan; the counts and lists are those of a
    /// probe-by-probe run and of a bare exact scan.
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
        let counting = Arc::new(CountingSim {
            inner: Arc::clone(&inner),
            batches: Default::default(),
            singles: Default::default(),
        });
        let sim: Arc<dyn ElementSimilarity> = counting.clone();
        let warm = repo.intern_query(["Blaine", "Basel"]);
        let q = repo.intern_query(["Blaine", "Zurich", "Bern", "Basel", "Geneva"]);
        let misses: Vec<TokenId> = q.iter().copied().filter(|t| !warm.contains(t)).collect();
        let warmed = || {
            let cache = Arc::new(TokenKnnCache::new(1 << 20));
            let mut src = CachedKnn::new(
                Arc::clone(&cache),
                warm.clone(),
                0.2,
                ExactScanKnn::new(Arc::clone(&inner), warm.clone(), vocab, 0.2),
            );
            for i in 0..warm.len() {
                drain(&mut src, i);
            }
            cache
        };

        let cache = warmed();
        let mut batched = cached(&cache, &sim, &q, vocab, 0.2);
        batched.prefetch(&(0..q.len()).collect::<Vec<_>>());
        assert_eq!(*counting.batches.lock().unwrap(), vec![misses]);
        let lists: Vec<_> = (0..q.len()).map(|i| drain(&mut batched, i)).collect();
        assert_eq!(counting.batches.lock().unwrap().len(), 1, "no second scan");
        assert!(counting.singles.lock().unwrap().is_empty());

        let mut by_probe = cached(&warmed(), &inner, &q, vocab, 0.2);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(&drain(&mut by_probe, i), list);
        }
        assert_eq!(batched.search_stats(), by_probe.search_stats());
        assert_eq!(
            (batched.search_stats().hits, batched.search_stats().misses),
            (2, 3)
        );
        let mut bare = ExactScanKnn::new(inner, q.clone(), vocab, 0.2);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(&drain(&mut bare, i), list);
        }
    }

    #[test]
    fn alpha_values_do_not_share_entries() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let mut a = cached(&cache, &sim, &q, vocab, 0.2);
        drain(&mut a, 0);
        let mut b = cached(&cache, &sim, &q, vocab, 0.9);
        drain(&mut b, 0);
        assert_eq!(b.search_stats().hits, 0, "different α must miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sim_tags_namespace_entries() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let mut a = cached(&cache, &sim, &q, vocab, 0.3); // tag 0
        drain(&mut a, 0);
        let mut b = CachedKnn::new(
            Arc::clone(&cache),
            q.clone(),
            0.3,
            ExactScanKnn::new(Arc::clone(&sim), q.clone(), vocab, 0.3),
        )
        .with_sim_tag(7);
        drain(&mut b, 0);
        assert_eq!(b.search_stats().hits, 0, "different sim tag must miss");
        assert_eq!(cache.len(), 2, "entries live side by side");
        // Same tag hits its own namespace.
        let mut c = cached(&cache, &sim, &q, vocab, 0.3);
        drain(&mut c, 0);
        assert_eq!(c.search_stats().hits, 1);
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
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let mut a = cached(&cache, &sim, &q, vocab, 0.3);
        drain(&mut a, 0);
        assert_eq!(cache.len(), 1);
        cache.bump_generation();
        assert!(cache.is_empty());
        assert_eq!(cache.counters().invalidations, 1);
        let mut b = cached(&cache, &sim, &q, vocab, 0.3);
        drain(&mut b, 0);
        assert_eq!(b.search_stats().hits, 0);
        assert_eq!(b.search_stats().misses, 1);
    }

    #[test]
    fn stale_generation_inserts_are_rejected() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        // Source built against generation 0 …
        let mut src = cached(&cache, &sim, &q, vocab, 0.3);
        // … but the world changes mid-search.
        cache.bump_generation();
        drain(&mut src, 0);
        assert_eq!(src.search_stats().inserted, 0);
        assert!(cache.is_empty());
        assert!(cache.counters().rejected_inserts >= 1);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let (sim, q, vocab) = setup();
        // Budget fits roughly one list (payload + overhead).
        let mut probe = cached(&Arc::new(TokenKnnCache::new(1 << 20)), &sim, &q, vocab, 0.2);
        let one_list_bytes = list_bytes(&Arc::new(
            drain(&mut probe, 0)
                .into_iter()
                .map(|(t, s)| (s, t))
                .collect::<Vec<_>>(),
        ));
        let cache = Arc::new(TokenKnnCache::new(one_list_bytes + ENTRY_OVERHEAD / 2));
        let mut src = cached(&cache, &sim, &q, vocab, 0.2);
        drain(&mut src, 0);
        drain(&mut src, 1);
        assert_eq!(cache.len(), 1, "budget holds one list");
        assert!(cache.counters().evictions >= 1);
        assert!(cache.bytes() <= cache.budget_bytes());
    }

    #[test]
    fn ttl_expires_entries_at_probe_time() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20).with_ttl(Some(Duration::ZERO)));
        assert_eq!(cache.ttl(), Some(Duration::ZERO));
        let mut a = cached(&cache, &sim, &q, vocab, 0.3);
        let fresh = drain(&mut a, 0);
        assert!(!fresh.is_empty());
        assert_eq!(cache.len(), 1, "entry is stored until probed");
        // A zero TTL makes every later probe find an expired entry: it is
        // evicted, counted, and the prober recomputes identically.
        let mut b = cached(&cache, &sim, &q, vocab, 0.3);
        assert_eq!(drain(&mut b, 0), fresh);
        assert_eq!(b.search_stats().hits, 0);
        assert_eq!(b.search_stats().misses, 1);
        let c = cache.counters();
        assert_eq!(c.expirations, 1);
        // Two misses total: the cold fill, then the expiry-as-miss.
        assert_eq!(c.misses, 2);
        assert!(cache.bytes() <= cache.budget_bytes());
    }

    #[test]
    fn generous_ttl_never_expires() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20).with_ttl(Some(Duration::from_secs(3600))));
        let mut a = cached(&cache, &sim, &q, vocab, 0.3);
        drain(&mut a, 0);
        let mut b = cached(&cache, &sim, &q, vocab, 0.3);
        drain(&mut b, 0);
        assert_eq!(b.search_stats().hits, 1);
        assert_eq!(cache.counters().expirations, 0);
    }

    #[test]
    fn no_ttl_is_the_default() {
        let cache = TokenKnnCache::new(1 << 20);
        assert_eq!(cache.ttl(), None);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(0));
        let mut src = cached(&cache, &sim, &q, vocab, 0.3);
        let fresh = drain(&mut src, 0);
        assert!(!fresh.is_empty(), "search still works without caching");
        assert!(cache.is_empty());
        assert!(cache.counters().rejected_inserts >= 1);
    }

    #[test]
    fn snapshot_reports_state() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let mut src = cached(&cache, &sim, &q, vocab, 0.3);
        drain(&mut src, 0);
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
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let expect: Vec<Vec<(TokenId, f64)>> = {
            let mut bare = ExactScanKnn::new(Arc::clone(&sim), q.clone(), vocab, 0.25);
            (0..q.len()).map(|i| drain(&mut bare, i)).collect()
        };
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    let mut src = cached(&cache, &sim, &q, vocab, 0.25);
                    for (i, exp) in expect.iter().enumerate() {
                        assert_eq!(&drain(&mut src, i), exp);
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 8 * q.len() as u64);
        assert!(c.hits > 0, "overlapping threads should hit");
    }

    #[test]
    fn installed_lock_wait_histogram_counts_acquisitions() {
        let (sim, q, vocab) = setup();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let lock_wait = Arc::new(Histogram::new());
        cache.install_lock_wait(Arc::clone(&lock_wait));
        // A second installation is ignored — the first histogram keeps
        // receiving samples.
        cache.install_lock_wait(Arc::new(Histogram::new()));
        let mut src = cached(&cache, &sim, &q, vocab, 0.3);
        let fresh = drain(&mut src, 0);
        assert!(!fresh.is_empty());
        // One probe (miss) + one insert = two timed acquisitions.
        assert_eq!(lock_wait.snapshot().count(), 2);
        let mut warm = cached(&cache, &sim, &q, vocab, 0.3);
        assert_eq!(
            drain(&mut warm, 0),
            fresh,
            "instrumentation changes nothing"
        );
        assert_eq!(lock_wait.snapshot().count(), 3);
    }

    #[test]
    fn stripe_usage_sums_to_cache_totals() {
        let cache = TokenKnnCache::new(1 << 20);
        for t in 0..64u32 {
            let list: KnnList = Arc::new(vec![(0.9, TokenId(t))]);
            assert!(cache.insert(TokenId(t), 0.5f64.to_bits(), 0, 0, list));
        }
        let snap = cache.snapshot();
        let rows = snap.stripes;
        assert_eq!(rows.iter().map(|r| r.entries).sum::<usize>(), cache.len());
        assert_eq!(rows.iter().map(|r| r.weight).sum::<usize>(), cache.bytes());
        assert_eq!((snap.entries, snap.bytes), (cache.len(), cache.bytes()));
        // 64 hashed keys across 8 stripes: every stripe is hot, and only
        // occupied stripes report an age.
        assert!(
            rows.iter().all(|r| r.entries > 0 && r.oldest_age.is_some()),
            "tokens must spread across stripes, got {rows:?}"
        );
    }

    #[test]
    fn eviction_is_globally_lru_across_stripes() {
        // Budget for exactly two single-pair lists.
        let pair = std::mem::size_of::<(f64, TokenId)>();
        let cache = TokenKnnCache::new(2 * (pair + ENTRY_OVERHEAD));
        let alpha = 0.5f64.to_bits();
        let list = |t: u32| -> KnnList { Arc::new(vec![(0.9, TokenId(t))]) };
        assert!(cache.insert(TokenId(0), alpha, 0, 0, list(0)));
        assert!(cache.insert(TokenId(1), alpha, 0, 0, list(1)));
        // Touch token 0 so token 1 is now the global LRU entry …
        assert!(cache.get(TokenId(0), alpha, 0, 0).is_some());
        // … then force an eviction from whichever stripe holds it.
        assert!(cache.insert(TokenId(2), alpha, 0, 0, list(2)));
        assert!(cache.get(TokenId(1), alpha, 0, 0).is_none(), "LRU evicted");
        assert!(cache.get(TokenId(0), alpha, 0, 0).is_some(), "MRU kept");
        assert!(cache.get(TokenId(2), alpha, 0, 0).is_some(), "newest kept");
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.bytes() <= cache.budget_bytes());
    }

    #[test]
    fn ttl_expiry_is_exact_in_every_stripe() {
        // Zero TTL: every stored entry expires on its next probe, whatever
        // stripe it lives in — expirations land in the probed stripe and
        // sum exactly.
        let cache = TokenKnnCache::new(1 << 20).with_ttl(Some(Duration::ZERO));
        let alpha = 0.5f64.to_bits();
        for t in 0..32u32 {
            let list: KnnList = Arc::new(vec![(0.9, TokenId(t))]);
            assert!(cache.insert(TokenId(t), alpha, 0, 0, list));
        }
        for t in 0..32u32 {
            assert!(cache.get(TokenId(t), alpha, 0, 0).is_none());
        }
        let c = cache.counters();
        assert_eq!(c.expirations, 32, "each entry expired exactly once");
        assert_eq!(c.misses, 32, "each expiry is also a miss");
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn generation_bump_clears_every_stripe() {
        let cache = TokenKnnCache::new(1 << 20);
        let alpha = 0.5f64.to_bits();
        for t in 0..32u32 {
            let list: KnnList = Arc::new(vec![(0.9, TokenId(t))]);
            assert!(cache.insert(TokenId(t), alpha, 0, 0, list));
        }
        assert_eq!(cache.bump_generation(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.counters().invalidations, 32);
        assert_eq!(cache.snapshot().stripes, [StripeRow::default(); STRIPES]);
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
