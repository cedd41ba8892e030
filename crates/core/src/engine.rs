//! The Koios search engine: refinement + post-processing glued together.
//!
//! A search fetches every query element's complete kNN list once
//! ([`koios_index::knn::lists`], through the token cache when the
//! configuration has one). The lists serve twice: the token stream replays
//! them for refinement, and the query's α-graph ([`QueryEdges`]) built
//! from them is what post-processing verifies from. A partitioned engine
//! does the fetch and the build once per query and hands both to every
//! shard.

use crate::config::KoiosConfig;
use crate::overlap::{semantic_overlap, QueryEdges};
use crate::postprocess::postprocess;
use crate::refine::{refine, RefineOutput};
use crate::result::SearchResult;
use crate::stats::SearchStats;
use crate::theta::SharedTheta;
use koios_common::{HeapSize, SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_index::inverted::InvertedIndex;
use koios_index::knn::{lists, ExactScanKnn, KnnList, KnnSource};
use koios_index::knn_cache::KnnCacheSearchStats;
use koios_index::token_stream::TokenStream;
use std::sync::Arc;
use std::time::Instant;

/// An exact top-k semantic overlap search engine over one repository.
///
/// A search runs the paper's Fig. 2 pipeline, stage by stage:
///
/// 1. **Token stream `Ie`** ([`koios_index::token_stream`]): every query
///    element's complete kNN list, fetched once — through the shared token
///    cache when there is one, see [`KoiosConfig::token_cache`] — and
///    merged into one globally descending `(query element, token,
///    similarity)` stream (§IV). The lists also give the query's α-graph
///    ([`QueryEdges`]) that verification reads.
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
        self.search_with_deadline(query, None)
    }

    /// Runs a top-k search that must finish by `deadline`, an absolute
    /// instant (the paper times queries out at 2500 s; a caller with a
    /// relative budget passes `Some(Instant::now() + budget)`).
    ///
    /// Serving layers use this to make a request deadline cover queue time
    /// plus search time without mutating the engine configuration. Expiry
    /// returns partial results with `stats.timed_out = true`.
    ///
    /// The query's lists are fetched once ([`koios_index::knn::lists`],
    /// through the configuration's [`KoiosConfig::token_cache`] when it
    /// has one), the stream replays them, and post-processing verifies
    /// from the [`QueryEdges`] built from them instead of recomputing
    /// similarities. The fetch counts into `refine_time`.
    pub fn search_with_deadline(
        &self,
        query: &[TokenId],
        deadline: Option<Instant>,
    ) -> SearchResult {
        let started = Instant::now();
        let q = normalize(query);
        let (lists, knn_cache) = fetch_lists(&self.repo, &self.sim, &self.cfg, &q);
        let edges = query_edges(&lists);
        let source = ExactScanKnn::replay(lists.into());
        let theta = SharedTheta::new();
        let fetched = started.elapsed();
        let mut result = self.run(&q, source, Some(&edges), true, &theta, deadline);
        result.stats.refine_time += fetched;
        result.stats.knn_cache = knn_cache;
        result
    }

    /// One shard of a partitioned search (§VI): replays the lists and
    /// verifies from the edges the partitioned engine fetched and built
    /// once for the whole query (`q` sorted and deduplicated), publishing
    /// and consuming the shared pruning threshold `θlb` under the
    /// query-wide `deadline`, so no shard can overrun the budget the merge
    /// phase still has to fit into. The lists and the edges are the
    /// partitioned search's, which counts them once: a shard's memory
    /// report holds its own cursor only.
    pub(crate) fn search_shard(
        &self,
        q: &[TokenId],
        lists: Arc<[KnnList]>,
        edges: &QueryEdges,
        theta: &SharedTheta,
        deadline: Option<Instant>,
    ) -> SearchResult {
        let source = ExactScanKnn::replay(lists);
        self.run(q, source, Some(edges), false, theta, deadline)
    }

    /// Runs a search over a caller-provided kNN source (§IV: "any index
    /// that enables efficient threshold-based similarity search is
    /// suitable" — e.g. [`koios_index::minhash::MinHashKnn`]). The source
    /// must stream descending similarities consistent with the engine's
    /// similarity function; results are exact with respect to the source's
    /// recall. `query` must be sorted and deduplicated, and the source must
    /// have been built for exactly this query vector.
    ///
    /// Because the source may be approximate, verification here never
    /// trusts the stream's edges: every exact matching recomputes its
    /// similarity matrix through the engine's similarity function.
    pub fn search_with_source<K: KnnSource>(
        &self,
        q: Vec<TokenId>,
        source: K,
        theta: &SharedTheta,
    ) -> SearchResult {
        self.run(&q, source, None, false, theta, None)
    }

    /// The pipeline behind every search entry point. `edges` is the
    /// query's whole α-graph when the source replays exact, complete
    /// lists; verification reads it unless the deadline cut refinement,
    /// after which nothing is verified. `own_edges` counts the edges this
    /// search verified from into its memory report; a shard's belong to
    /// the partitioned search, which counts them once.
    fn run<K: KnnSource>(
        &self,
        q: &[TokenId],
        source: K,
        edges: Option<&QueryEdges>,
        own_edges: bool,
        theta: &SharedTheta,
        deadline: Option<Instant>,
    ) -> SearchResult {
        let started = Instant::now();
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

        let mut stream = TokenStream::new(source, q.len());
        let RefineOutput { survivors, mut llb } = refine(
            &self.repo,
            &self.index,
            q,
            &self.cfg,
            theta,
            &mut stream,
            &mut stats,
            deadline,
        );
        let edges = edges.filter(|_| !stats.timed_out);
        if let Some(e) = edges.filter(|_| own_edges) {
            stats.memory.add("query edges", e.heap_size());
        }
        stats.refine_time = started.elapsed();

        let t1 = Instant::now();
        let hits = postprocess(
            &self.repo, &self.sim, q, &self.cfg, theta, &mut llb, survivors, &mut stats, deadline,
            edges,
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
        let q = normalize(query);
        semantic_overlap(&self.repo, self.sim.as_ref(), self.cfg.alpha, &q, set)
    }
}

/// `query` sorted and deduplicated: the engine's query vector.
pub(crate) fn normalize(query: &[TokenId]) -> Vec<TokenId> {
    let mut q = query.to_vec();
    q.sort_unstable();
    q.dedup();
    q
}

/// Every element's complete list of `q` over `repo`'s vocabulary
/// ([`koios_index::knn::lists`]), through `cfg`'s token cache when it has
/// one. Entries are tagged with the similarity's identity, so a cache
/// shared across engines over *different* metrics never replays the wrong
/// lists; clones, config siblings and partition engines share the `Arc`,
/// so they share entries.
pub(crate) fn fetch_lists(
    repo: &Repository,
    sim: &Arc<dyn ElementSimilarity>,
    cfg: &KoiosConfig,
    q: &[TokenId],
) -> (Vec<KnnList>, KnnCacheSearchStats) {
    let cache = cfg.token_cache.as_deref().map(|c| (c, c.sim_tag(sim)));
    lists(sim.as_ref(), q, repo.vocab_size(), cfg.alpha, cache)
}

/// The α-graph of the query whose complete lists are `lists`: every edge
/// its stream emits, so verifying from it is exact.
pub(crate) fn query_edges(lists: &[KnnList]) -> QueryEdges {
    let tuples = lists
        .iter()
        .enumerate()
        .flat_map(|(q_idx, list)| list.iter().map(move |&(s, t)| (t, q_idx as u32, s)))
        .collect();
    QueryEdges::from_tuples(lists.len(), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ScoreBound;
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

    /// The paper's greedy iUB (Lemma 6) is unsound in plain cosine
    /// geometry (ARCHITECTURE.md, "Deviations from the paper"). Unit
    /// vectors in R⁴: q2, t1, q1, t2 in the first plane at the angles
    /// 0, acos 0.85, + acos 0.9, + acos 0.85; t3 = 0.8·q1 + 0.6·e₃ and
    /// t4 = 0.8·q2 + 0.6·e₄. With α = 0.6 the edges are q1–t1 0.9,
    /// q1–t2 0.85, q2–t1 0.85, q1–t3 0.8 and q2–t4 0.8, so SO(C) = 1.70
    /// and SO(D) = 1.60. Greedy takes q1–t1 and rejects both 0.85 edges,
    /// collapsing C's Lemma-6 iUB to 0.9 + α = 1.5 < θ = 1.6: top-1 would
    /// be lost. The row-max iUB the engine uses keeps C.
    #[test]
    fn paper_greedy_loses_the_top1_that_sound_row_max_keeps() {
        use koios_embed::sim::CosineSimilarity;
        use koios_embed::vectors::Embeddings;

        let mut b = RepositoryBuilder::new();
        let [q1, q2] = ["q1", "q2"].map(|s| b.intern(s));
        let c = b.add_set("C", ["t1", "t2"]);
        let d = b.add_set("D", ["t3", "t4"]);
        let repo = Arc::new(b.build());
        let token = |s: &str| repo.token_id(s).unwrap();

        let at = |angle: f64| [angle.cos(), angle.sin(), 0.0, 0.0];
        let (a85, a90) = (0.85f64.acos(), 0.9f64.acos());
        let v_q1 = at(a85 + a90);
        let v_q2 = at(0.0);
        let mut emb = Embeddings::new(4, repo.vocab_size());
        emb.set(q1, &v_q1);
        emb.set(q2, &v_q2);
        emb.set(token("t1"), &at(a85));
        emb.set(token("t2"), &at(2.0 * a85 + a90));
        emb.set(token("t3"), &[0.8 * v_q1[0], 0.8 * v_q1[1], 0.6, 0.0]);
        emb.set(token("t4"), &[0.8 * v_q2[0], 0.8 * v_q2[1], 0.0, 0.6]);
        let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(emb)));

        let q = [q1, q2];
        let alpha = 0.6;
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::clone(&sim),
            KoiosConfig::new(1, alpha),
        );
        let res = engine.search(&q);
        assert_eq!(res.set_ids(), vec![c]);
        match res.hits[0].score {
            ScoreBound::Exact(so) => assert!((so - 1.70).abs() < 1e-6, "SO(C) = {so}"),
            other => panic!("expected an exact score, got {other:?}"),
        }

        // Lemma 6's end-of-stream bound for C: the greedy score plus α per
        // row the greedy matching left free.
        let m = crate::overlap::similarity_matrix(sim.as_ref(), alpha, &q, repo.set(c));
        let greedy = koios_matching::greedy_matching(&m);
        assert!(
            (greedy.score - 0.9).abs() < 1e-6,
            "greedy(C) = {}",
            greedy.score
        );
        let free = q.len().min(repo.set_len(c)) - greedy.pairs.len();
        let lemma6 = greedy.score + free as f64 * alpha;
        assert!((lemma6 - 1.5).abs() < 1e-6, "Lemma 6 iUB(C) = {lemma6}");
        let so_d = engine.exact_overlap(&q, d);
        assert!((so_d - 1.60).abs() < 1e-6, "SO(D) = {so_d}");
        assert!(lemma6 < so_d, "Lemma 6 would prune C below θ = SO(D)");
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
