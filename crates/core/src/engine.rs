//! The Koios search engine: refinement + post-processing glued together.

use crate::config::KoiosConfig;
use crate::overlap::semantic_overlap;
use crate::postprocess::postprocess;
use crate::refine::{refine, RefineOutput};
use crate::result::SearchResult;
use crate::stats::SearchStats;
use crate::theta::SharedTheta;
use koios_common::{profile, HeapSize, SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_index::inverted::InvertedIndex;
use koios_index::knn::ExactScanKnn;
use koios_index::knn_cache::CachedKnn;
use koios_index::token_stream::TokenStream;
use std::sync::Arc;
use std::time::Instant;

/// An exact top-k semantic overlap search engine over one repository.
///
/// A search runs the paper's Fig. 2 pipeline, stage by stage:
///
/// 1. **Token stream `Ie`** ([`koios_index::token_stream`]): per-query-
///    element kNN sources — optionally wrapped by the shared token cache,
///    see [`KoiosConfig::token_cache`] — merged into one globally
///    descending `(query element, token, similarity)` stream (§IV).
/// 2. **Refinement filters** ([`crate::refine`]): stream tuples discover
///    candidates through the inverted index `Is` and maintain incremental
///    lower/upper bounds; the UB-filter (Lemma 2) and the bucketised
///    iUB-filter (§V) prune against the running threshold `θlb`.
/// 3. **Post-processing** ([`crate::postprocess`]): survivors are verified
///    in upper-bound order — the No-EM filter (Lemma 7) certifies top-k
///    membership without matching, remaining sets run the Hungarian
///    algorithm with label-sum early termination (Lemma 8).
///
/// The engine shares ownership of its repository (`Arc<Repository>`), its
/// inverted index and its similarity function, so it is cheap to clone,
/// `'static`, and free to move across threads; a single engine serves any
/// number of queries.
#[derive(Clone)]
pub struct Koios {
    repo: Arc<Repository>,
    sim: Arc<dyn ElementSimilarity>,
    index: Arc<InvertedIndex>,
    cfg: KoiosConfig,
}

/// Combines an absolute caller deadline with a relative configuration
/// budget: whichever expires first bounds the search.
pub(crate) fn effective_deadline(
    external: Option<Instant>,
    budget: Option<std::time::Duration>,
) -> Option<Instant> {
    let from_budget = budget.map(|b| Instant::now() + b);
    match (external, from_budget) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl Koios {
    /// Builds the inverted index and wires up an engine over `repo`.
    pub fn new(repo: Arc<Repository>, sim: Arc<dyn ElementSimilarity>, cfg: KoiosConfig) -> Self {
        let index = Arc::new(InvertedIndex::build(&repo));
        Self::with_index(repo, sim, index, cfg)
    }

    /// Wires up an engine over a pre-built (possibly partition-restricted)
    /// inverted index.
    pub fn with_index(
        repo: Arc<Repository>,
        sim: Arc<dyn ElementSimilarity>,
        index: Arc<InvertedIndex>,
        cfg: KoiosConfig,
    ) -> Self {
        Koios {
            repo,
            sim,
            index,
            cfg,
        }
    }

    /// A sibling engine over the same repository, index and similarity but
    /// a different configuration (no index rebuild — per-request `k`/`α`
    /// overrides in serving layers are this cheap).
    pub fn with_config(&self, cfg: KoiosConfig) -> Self {
        Koios {
            repo: Arc::clone(&self.repo),
            sim: Arc::clone(&self.sim),
            index: Arc::clone(&self.index),
            cfg,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &KoiosConfig {
        &self.cfg
    }

    /// The similarity function.
    pub fn similarity(&self) -> &Arc<dyn ElementSimilarity> {
        &self.sim
    }

    /// The inverted index (shared with partition siblings).
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// The repository.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// Shared ownership of the repository (an `Arc` bump).
    pub fn repository_arc(&self) -> Arc<Repository> {
        Arc::clone(&self.repo)
    }

    /// Runs a top-k search for `query` (token ids from
    /// [`Repository::intern_query`]).
    pub fn search(&self, query: &[TokenId]) -> SearchResult {
        self.search_shared(query, &SharedTheta::new())
    }

    /// Runs a top-k search that must finish by `deadline` (an *absolute*
    /// instant, unlike the relative [`KoiosConfig::time_budget`]).
    ///
    /// Serving layers use this to make a request deadline cover queue time
    /// plus search time without mutating the engine configuration. When the
    /// configuration also carries a `time_budget`, the earlier of the two
    /// limits wins. Expiry returns partial results with
    /// `stats.timed_out = true`, exactly like a budget expiry.
    pub fn search_with_deadline(
        &self,
        query: &[TokenId],
        deadline: Option<Instant>,
    ) -> SearchResult {
        self.search_shared_deadline(query, &SharedTheta::new(), deadline)
    }

    /// Runs a search that publishes and consumes the shared pruning
    /// threshold `θlb` — the partitioned-search entry point (§VI).
    ///
    /// The default kNN source is an [`ExactScanKnn`]; when the
    /// configuration carries a [`KoiosConfig::token_cache`], the source is
    /// wrapped in a [`CachedKnn`] so per-element similarity lists are
    /// shared with every other search using the same cache.
    pub fn search_shared(&self, query: &[TokenId], theta: &SharedTheta) -> SearchResult {
        self.search_shared_deadline(query, theta, None)
    }

    /// [`Self::search_shared`] with an additional absolute `deadline`
    /// (see [`Self::search_with_deadline`]): partitioned search threads one
    /// query-wide deadline through every shard this way, so no shard can
    /// overrun the budget the merge phase still has to fit into.
    ///
    /// The source built here is exact (cached lists are complete replays of
    /// it), so post-processing verifies from the edges refinement drained
    /// ([`crate::overlap::QueryEdges`]) instead of recomputing similarities.
    pub fn search_shared_deadline(
        &self,
        query: &[TokenId],
        theta: &SharedTheta,
        deadline: Option<Instant>,
    ) -> SearchResult {
        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();
        let knn = ExactScanKnn::new(
            Arc::clone(&self.sim),
            q.clone(),
            self.repo.vocab_size(),
            self.cfg.alpha,
        );
        match &self.cfg.token_cache {
            Some(cache) => {
                // Tag entries with this engine's similarity identity so a
                // cache shared across engines over *different* metrics can
                // never replay the wrong lists. Clones, config siblings and
                // partition engines share the same `Arc`, so they keep
                // sharing entries.
                let sim_tag = cache.sim_tag(&self.sim);
                let knn = CachedKnn::new(Arc::clone(cache), q.clone(), self.cfg.alpha, knn)
                    .with_sim_tag(sim_tag);
                self.run(q, knn, theta, deadline, true)
            }
            None => self.run(q, knn, theta, deadline, true),
        }
    }

    /// Runs a search over a caller-provided kNN source (§IV: "any index
    /// that enables efficient threshold-based similarity search is
    /// suitable" — e.g. [`koios_index::minhash::MinHashKnn`]). The source
    /// must stream descending similarities consistent with the engine's
    /// similarity function; results are exact with respect to the source's
    /// recall. `query` must be sorted and deduplicated, and the source must
    /// have been built for exactly this query vector.
    ///
    /// This is also the **cache seam**: the stream is index-agnostic, so a
    /// [`CachedKnn`] decorator wrapping any exact source slots in here
    /// without the refinement or post-processing stages noticing — cached
    /// lists are complete (never truncated mid-stream) and replay in the
    /// exact emission order, preserving exact top-k semantics. When the
    /// source reports cache counters
    /// ([`koios_index::knn::KnnSource::cache_counters`]), they are folded
    /// into [`SearchStats::knn_cache`](crate::stats::SearchStats::knn_cache).
    ///
    /// Because the source may be approximate, verification here never
    /// trusts the stream's edges: every exact matching recomputes its
    /// similarity matrix through the engine's similarity function.
    pub fn search_with_source<K: koios_index::knn::KnnSource>(
        &self,
        q: Vec<TokenId>,
        source: K,
        theta: &SharedTheta,
    ) -> SearchResult {
        self.search_with_source_deadline(q, source, theta, None)
    }

    /// [`Self::search_with_source`] with an additional absolute `deadline`
    /// (see [`Self::search_with_deadline`]); the earlier of the deadline and
    /// the configuration's relative `time_budget` bounds the search.
    pub fn search_with_source_deadline<K: koios_index::knn::KnnSource>(
        &self,
        q: Vec<TokenId>,
        source: K,
        theta: &SharedTheta,
        deadline: Option<Instant>,
    ) -> SearchResult {
        self.run(q, source, theta, deadline, false)
    }

    /// The pipeline behind every search entry point. `exact_source` says
    /// the stream emits *every* `≥ α` edge with the similarity function's
    /// own weights, which lets verification read them back.
    fn run<K: koios_index::knn::KnnSource>(
        &self,
        q: Vec<TokenId>,
        source: K,
        theta: &SharedTheta,
        deadline: Option<Instant>,
        exact_source: bool,
    ) -> SearchResult {
        debug_assert!(q.windows(2).all(|w| w[0] < w[1]), "query must be sorted");
        let mut stats = SearchStats {
            epoch: self.cfg.epoch,
            funnel: self.cfg.explain.then(Box::default),
            ..SearchStats::default()
        };
        if q.is_empty() {
            return SearchResult {
                hits: Vec::new(),
                stats,
            };
        }
        let deadline = effective_deadline(deadline, self.cfg.time_budget);

        let t0 = Instant::now();
        let stage = profile::enter(profile::Stage::Refine);
        let mut stream = TokenStream::new(source, q.len());
        let RefineOutput {
            survivors,
            mut llb,
            edges,
        } = refine(
            &self.repo,
            &self.index,
            &q,
            &self.cfg,
            theta,
            &mut stream,
            &mut stats,
            deadline,
            exact_source,
        );
        drop(stage);
        stats.refine_time = t0.elapsed();
        if let Some(c) = stream.source().cache_counters() {
            stats.knn_cache = c;
        }

        let t1 = Instant::now();
        let _stage = profile::enter(profile::Stage::Postprocess);
        let hits = postprocess(
            &self.repo,
            &self.sim,
            &q,
            &self.cfg,
            theta,
            &mut llb,
            survivors,
            &mut stats,
            deadline,
            edges.as_ref(),
        );
        stats.postprocess_time = t1.elapsed();
        stats.memory.add("inverted index", self.index.heap_size());

        let mut result = SearchResult { hits, stats };
        result.sort_hits();
        if let Some(f) = result.stats.funnel_mut() {
            f.returned = result.hits.len();
        }
        result
    }

    /// The exact semantic overlap of `query` with one set (verification
    /// without any filtering; used by oracles and result auditing).
    pub fn exact_overlap(&self, query: &[TokenId], set: SetId) -> f64 {
        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();
        semantic_overlap(&self.repo, self.sim.as_ref(), self.cfg.alpha, &q, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UbMode;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::{EqualitySimilarity, QGramJaccard};

    fn vanilla_repo() -> Arc<Repository> {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c", "d"]);
        b.add_set("s1", ["a", "b", "c", "x"]);
        b.add_set("s2", ["a", "b", "y", "z"]);
        b.add_set("s3", ["a", "m", "n", "o"]);
        b.add_set("s4", ["w", "v", "u", "t"]);
        Arc::new(b.build())
    }

    #[test]
    fn equality_similarity_matches_vanilla_topk() {
        let repo = vanilla_repo();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.99),
        );
        let q = repo.intern_query(["a", "b", "c", "d"]);
        let res = engine.search(&q);
        assert_eq!(res.set_ids(), vec![SetId(0), SetId(1), SetId(2)]);
        // Candidate accounting: s4 shares no token, never discovered.
        assert_eq!(res.stats.candidates, 4);
    }

    #[test]
    fn search_is_deterministic() {
        let repo = vanilla_repo();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
        );
        let q = repo.intern_query(["a", "b", "c"]);
        let a = engine.search(&q);
        let b = engine.search(&q);
        assert_eq!(a.set_ids(), b.set_ids());
    }

    #[test]
    fn empty_query_returns_empty() {
        let repo = vanilla_repo();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
        );
        let res = engine.search(&[]);
        assert!(res.hits.is_empty());
    }

    #[test]
    fn owned_engine_is_static_and_agrees_with_borrowed() {
        let repo = vanilla_repo();
        let q = repo.intern_query(["a", "b", "c", "d"]);
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
        );
        let expect = engine.search(&q);

        // `'static`: the engine itself moves into a spawned thread.
        let qc = q.clone();
        let got = std::thread::spawn(move || engine.search(&qc))
            .join()
            .unwrap();
        assert_eq!(got.hits, expect.hits);
    }

    #[test]
    fn with_config_shares_index_and_repo() {
        let repo = vanilla_repo();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
        );
        let narrowed = engine.with_config(KoiosConfig::new(1, 0.9));
        assert!(Arc::ptr_eq(engine.index(), narrowed.index()));
        let q = repo.intern_query(["a", "b", "c", "d"]);
        assert_eq!(narrowed.search(&q).hits.len(), 1);
        assert_eq!(engine.search(&q).hits.len(), 3);
    }

    #[test]
    fn qgram_similarity_finds_fuzzy_matches() {
        let mut b = RepositoryBuilder::new();
        b.add_set("clean", ["Blaine", "Charleston"]);
        b.add_set("dirty", ["Blain", "Charlestown"]);
        b.add_set("other", ["Zebra", "Yak"]);
        let repo = Arc::new(b.build());
        let sim = Arc::new(QGramJaccard::new(&repo, 3));
        let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(2, 0.5));
        let q = repo.intern_query(["Blaine", "Charleston"]);
        let res = engine.search(&q);
        assert_eq!(res.hits.len(), 2);
        assert_eq!(res.hits[0].set, SetId(0)); // exact match: SO = 2
        assert_eq!(res.hits[1].set, SetId(1)); // fuzzy: 3/4 + 8/11
        let so = engine.exact_overlap(&q, SetId(1));
        assert!((res.hits[1].score.lb() - so).abs() < 1e-9 || res.hits[1].score.ub() >= so);
    }

    #[test]
    fn both_ub_modes_agree_here() {
        let repo = vanilla_repo();
        let q = repo.intern_query(["a", "b", "c", "d"]);
        let sound = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
        )
        .search(&q);
        let paper = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9).with_ub_mode(UbMode::PaperGreedy),
        )
        .search(&q);
        assert_eq!(sound.set_ids(), paper.set_ids());
    }

    #[test]
    fn baseline_config_verifies_everything() {
        let repo = vanilla_repo();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9).baseline(),
        );
        let q = repo.intern_query(["a", "b", "c", "d"]);
        let res = engine.search(&q);
        assert_eq!(res.set_ids().len(), 2);
        // Baseline: every candidate reaches post-processing and is verified.
        assert_eq!(res.stats.to_postprocess, res.stats.candidates);
        assert_eq!(res.stats.iub_pruned, 0);
        assert_eq!(res.stats.no_em, 0);
        assert_eq!(res.stats.em_full, res.stats.candidates);
    }

    #[test]
    fn token_cache_preserves_results_and_reports_hits() {
        use koios_index::knn_cache::TokenKnnCache;
        let mut b = RepositoryBuilder::new();
        b.add_set("clean", ["Blaine", "Charleston", "Columbia"]);
        b.add_set("dirty", ["Blain", "Charlestown", "Columbias"]);
        b.add_set("other", ["Zebra", "Yak", "Gnu"]);
        let repo = Arc::new(b.build());
        let sim = Arc::new(QGramJaccard::new(&repo, 3));
        let plain = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(2, 0.4));
        let cache = Arc::new(TokenKnnCache::new(1 << 20));
        let caching = Koios::new(
            Arc::clone(&repo),
            sim,
            KoiosConfig::new(2, 0.4).with_token_cache(Arc::clone(&cache)),
        );
        let q = repo.intern_query(["Blaine", "Charleston"]);
        let expect = plain.search(&q);
        assert_eq!(expect.stats.knn_cache, Default::default());

        let cold = caching.search(&q);
        assert_eq!(cold.hits, expect.hits);
        assert_eq!(cold.stats.knn_cache.misses, q.len());

        // Overlapping query: shares "Blaine", adds "Columbia".
        let q2 = repo.intern_query(["Blaine", "Columbia"]);
        let warm = caching.search(&q2);
        assert_eq!(warm.hits, plain.search(&q2).hits);
        assert!(warm.stats.knn_cache.hits >= 1, "shared element should hit");

        // Exact repeat: every element hits.
        let repeat = caching.search(&q);
        assert_eq!(repeat.hits, expect.hits);
        assert_eq!(repeat.stats.knn_cache.hits, q.len());
        assert_eq!(repeat.stats.knn_cache.misses, 0);
        assert!(repeat.stats.knn_cache.bytes_served > 0);
    }

    #[test]
    fn stats_phases_are_populated() {
        let repo = vanilla_repo();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(1, 0.9),
        );
        let q = repo.intern_query(["a", "b"]);
        let res = engine.search(&q);
        assert!(res.stats.stream_tuples > 0);
        assert!(res.stats.memory.total() > 0);
        assert!(!res.stats.timed_out);
    }
}
