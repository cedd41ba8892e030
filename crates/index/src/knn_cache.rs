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
//! # A growing vocabulary
//!
//! Live ingestion only *appends* tokens: an existing token's vector is
//! never rewritten, so the similarity of two existing tokens never changes
//! (the contract of `koios_core::mutable::SimFactory`). Every entry
//! therefore records the vocabulary length `covered` its list was scanned
//! over, and a probe from a source over `vocab` tokens replays it exactly
//! when a scan of `0..vocab` would emit the same list:
//!
//! * `covered == vocab` — always;
//! * `covered < vocab` — when every token of `covered..vocab` scores below
//!   `α` against the key under the prober's similarity (the key's own
//!   token, due at 1.0 once interned, always counts). By the
//!   [`ElementSimilarity::scores_above`] contract that `sim` is the scan's
//!   weight, so the check is exact; on success the entry is refreshed to
//!   `vocab`, and the next prober of that vocabulary replays in O(1);
//! * `covered > vocab` (an older backend) — when the list names no token
//!   `≥ vocab`.
//!
//! Anything else is a plain miss: the prober rescans and republishes its
//! own list (lists are never patched in place).
//!
//! The `generation` key component is for everything else: reloading a
//! corpus or swapping the similarity model bumps the generation
//! ([`TokenKnnCache::bump_generation`]), after which entries recorded by
//! in-flight searches of the old world can never be served again.
//!
//! Storage is the workspace's striped LRU
//! ([`koios_common::cache::StripedLru`]) with `list_bytes` weights against a
//! byte budget: the budget and the recency order are global across
//! stripes, every lock is a leaf, and admission is decided under the
//! stripe lock — the contract is stated once, on the core. This module owns
//! only what is token-specific: the key, the weights, the coverage rule,
//! the generation, the similarity-tag registry and the
//! completeness-preserving [`CachedKnn`].

use crate::knn::KnnSource;
use koios_common::cache::{CacheSnapshot, StripeRow, StripedLru, STRIPES};
use koios_common::fingerprint::mix64;
use koios_common::TokenId;
use koios_embed::sim::ElementSimilarity;
use koios_telemetry::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A complete per-element kNN list: `(similarity, token)` descending by
/// similarity, ties by ascending token id — exactly the emission order of
/// the exact sources.
pub type KnnList = Arc<Vec<(f64, TokenId)>>;

/// Cache key: which element, under which threshold, of which world —
/// `sim_tag` namespaces entries by similarity function (one tag per
/// similarity and its registered successors) so engines over *different*
/// metrics sharing one cache can never replay each other's lists (see
/// [`CachedKnn::with_sim_tag`]).
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
            // Tag 0 is the untagged namespace of bare `CachedKnn::new`.
            next_sim_tag: AtomicU64::new(1),
        }
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

    /// The current generation. Sources snapshot this at construction so a
    /// bump mid-search invalidates their inserts, not their reads.
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
    /// a hit. Searches probe through [`CachedKnn`], which replays a list
    /// only where it covers the prober's vocabulary.
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
    /// the same list). [`CachedKnn`] publishes with its scan's vocabulary.
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

    fn publish(&self, key: Key, list: KnnList, covered: usize) -> bool {
        let bytes = list_bytes(&list);
        self.lru
            .insert(key.hash(), key, Scanned { list, covered }, bytes, || {
                key.generation == self.generation.load(Ordering::Acquire)
            })
    }

    /// The list for `key` if it replays exactly for a source over `vocab`
    /// tokens under `sim` (see the module docs); a refused entry counts
    /// as a miss.
    fn replay(&self, key: &Key, sim: &dyn ElementSimilarity, vocab: usize) -> Option<KnnList> {
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
///
/// A probe replays an entry only where it covers this source's vocabulary
/// (the rule of the [module docs](self)), and a published list records the
/// vocabulary it was scanned over.
pub struct CachedKnn<K: KnnSource> {
    cache: Arc<TokenKnnCache>,
    sim: Arc<dyn ElementSimilarity>,
    vocab: usize,
    inner: K,
    query: Vec<TokenId>,
    alpha_bits: u64,
    generation: u64,
    sim_tag: u64,
    elems: Vec<Elem>,
    stats: KnnCacheSearchStats,
}

impl<K: KnnSource> CachedKnn<K> {
    /// Wraps `inner` — built for exactly `query` under `alpha`, scoring
    /// the vocabulary `0..vocab` under `sim` — with the shared cache. The
    /// cache generation is snapshotted here: a
    /// [`TokenKnnCache::bump_generation`] between construction and search
    /// start only disables this search's inserts, never its correctness.
    pub fn new(
        cache: Arc<TokenKnnCache>,
        sim: Arc<dyn ElementSimilarity>,
        vocab: usize,
        query: Vec<TokenId>,
        alpha: f64,
        inner: K,
    ) -> Self {
        let elems = (0..query.len()).map(|_| Elem::Untouched).collect();
        let generation = cache.generation();
        CachedKnn {
            cache,
            sim,
            vocab,
            inner,
            query,
            alpha_bits: alpha.to_bits(),
            generation,
            sim_tag: 0,
            elems,
            stats: KnnCacheSearchStats::default(),
        }
    }

    /// The cache key of query element `q_idx`.
    fn key(&self, q_idx: usize) -> Key {
        Key {
            token: self.query[q_idx],
            alpha_bits: self.alpha_bits,
            generation: self.generation,
            sim_tag: self.sim_tag,
        }
    }

    /// Namespaces this source's cache entries by similarity-function
    /// identity (builder style). Sources with different tags never share
    /// entries, so one cache can safely serve engines over *different*
    /// similarity metrics — obtain the tag from
    /// [`TokenKnnCache::sim_tag`], which keeps all clones of one engine
    /// (its partition siblings, and the successors filed with
    /// [`TokenKnnCache::register_sim_tag`]) sharing while isolating every
    /// other similarity. Defaults to `0` (one shared untagged namespace)
    /// when every similarity using the cache agrees on the tokens they
    /// share.
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
        match self
            .cache
            .replay(&self.key(q_idx), self.sim.as_ref(), self.vocab)
        {
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
                        let key = self.key(q_idx);
                        if self.cache.publish(key, list, self.vocab) {
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
    use koios_embed::repository::{Repository, RepositoryBuilder};
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
            Arc::clone(sim),
            vocab,
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
        let counting = CountingSim::new(Arc::clone(&inner));
        let sim: Arc<dyn ElementSimilarity> = counting.clone();
        let warm = repo.intern_query(["Blaine", "Basel"]);
        let q = repo.intern_query(["Blaine", "Zurich", "Bern", "Basel", "Geneva"]);
        let misses: Vec<TokenId> = q.iter().copied().filter(|t| !warm.contains(t)).collect();
        let warmed = || {
            let cache = Arc::new(TokenKnnCache::new(1 << 20));
            let mut src = CachedKnn::new(
                Arc::clone(&cache),
                Arc::clone(&inner),
                vocab,
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

    /// One similarity over a vocabulary that grows in three steps — the
    /// old tokens, then far ones, then near duplicates of `Blaine` — and
    /// the vocabulary length after each step. A source over a prefix is
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

    /// Every element's list, drained, with weights as bit patterns.
    fn lists(src: &mut dyn KnnSource, n: usize) -> Vec<Vec<(TokenId, u64)>> {
        (0..n)
            .map(|i| {
                drain(src, i)
                    .into_iter()
                    .map(|(t, s)| (t, s.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// What a cold exact scan over `vocab` tokens emits.
    fn scan(
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
    ) -> Vec<Vec<(TokenId, u64)>> {
        lists(
            &mut ExactScanKnn::new(Arc::clone(sim), q.to_vec(), vocab, 0.3),
            q.len(),
        )
    }

    /// Publishes every element of `q` as scanned over `vocab` tokens.
    fn publish(
        cache: &Arc<TokenKnnCache>,
        sim: &Arc<dyn ElementSimilarity>,
        q: &[TokenId],
        vocab: usize,
    ) {
        let mut src = cached(cache, sim, q, vocab, 0.3);
        lists(&mut src, q.len());
        assert_eq!(src.search_stats().inserted, q.len());
    }

    #[test]
    fn grown_vocabulary_replays_when_no_new_token_reaches_alpha() {
        let (sim, repo, [old, far, _]) = growing();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        publish(&cache, &sim, &q, old);
        let counting = CountingSim::new(Arc::clone(&sim));
        let probe: Arc<dyn ElementSimilarity> = counting.clone();
        let mut src = cached(&cache, &probe, &q, far, 0.3);
        assert_eq!(lists(&mut src, q.len()), scan(&sim, &q, far));
        assert_eq!((src.search_stats().hits, src.search_stats().misses), (2, 0));
        assert!(
            counting.batches.lock().unwrap().is_empty(),
            "nothing rescanned"
        );
        // Each element scored the two new tokens once, then was refreshed:
        // the next prober of this vocabulary replays without scoring.
        assert_eq!(counting.pairs(), 2 * (far - old) as u64);
        let mut again = cached(&cache, &probe, &q, far, 0.3);
        assert_eq!(lists(&mut again, q.len()), scan(&sim, &q, far));
        assert_eq!(again.search_stats().hits, 2);
        assert_eq!(counting.pairs(), 2 * (far - old) as u64);
    }

    #[test]
    fn grown_vocabulary_rescans_when_a_new_token_reaches_alpha() {
        let (sim, repo, [old, _, near]) = growing();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        publish(&cache, &sim, &q, old);
        // `Blain` and `Blainey` reach α against `Blaine`, not `Zurich`.
        let mut src = cached(&cache, &sim, &q, near, 0.3);
        let fresh = lists(&mut src, q.len());
        assert_eq!(fresh, scan(&sim, &q, near));
        assert!(fresh[0].len() > scan(&sim, &q, old)[0].len());
        assert_eq!((src.search_stats().hits, src.search_stats().misses), (1, 1));
        assert_eq!(src.search_stats().inserted, 1, "the rescan republishes");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 3), "a refused entry is a miss");
        let mut again = cached(&cache, &sim, &q, near, 0.3);
        assert_eq!(lists(&mut again, q.len()), fresh);
        assert_eq!(again.search_stats().hits, 2);
    }

    #[test]
    fn key_out_of_vocabulary_at_its_scan_rescans_once_interned() {
        let (sim, repo, [old, far, _]) = growing();
        let q = repo.intern_query(["Geneva"]);
        assert!(q[0].idx() >= old && q[0].idx() < far);
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        publish(&cache, &sim, &q, old);
        assert!(scan(&sim, &q, old)[0].iter().all(|&(t, _)| t != q[0]));
        // Nothing of the new tokens but the key itself reaches α: it is
        // due at 1.0 once interned, so the entry is refused.
        let mut src = cached(&cache, &sim, &q, far, 0.3);
        let fresh = lists(&mut src, q.len());
        assert_eq!(fresh, scan(&sim, &q, far));
        assert_eq!(fresh[0][0], (q[0], 1.0f64.to_bits()));
        assert_eq!((src.search_stats().hits, src.search_stats().misses), (0, 1));
    }

    #[test]
    fn shrunk_vocabulary_replays_only_lists_within_it() {
        let (sim, repo, [old, _, near]) = growing();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        publish(&cache, &sim, &q, near);
        // An older source: `Blaine`'s list names tokens it cannot know,
        // `Zurich`'s does not.
        let mut src = cached(&cache, &sim, &q, old, 0.3);
        assert_eq!(lists(&mut src, q.len()), scan(&sim, &q, old));
        assert_eq!((src.search_stats().hits, src.search_stats().misses), (1, 1));
        // Its republished `Blaine` list is refused by the newer vocabulary
        // again, which rescans the same list it first published.
        let mut newer = cached(&cache, &sim, &q, near, 0.3);
        assert_eq!(lists(&mut newer, q.len()), scan(&sim, &q, near));
        assert_eq!(
            (newer.search_stats().hits, newer.search_stats().misses),
            (1, 1)
        );
    }

    #[test]
    fn registered_successors_share_their_predecessors_tag() {
        let (sim, repo, _) = growing();
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
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
        let mut b = cached(&cache, &sim, &q, vocab, 0.3).with_sim_tag(7);
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
