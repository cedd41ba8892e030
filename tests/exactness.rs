//! End-to-end exactness: Koios must return a valid top-k result (Def. 2)
//! for every configuration, compared against a brute-force oracle that runs
//! the Hungarian algorithm on *every* repository set.
//!
//! Ties make the result set ambiguous (Def. 2 allows arbitrary tie-breaks),
//! so validity is checked as: (1) the result has `min(k, #candidates)`
//! hits; (2) every returned set's true overlap is ≥ the oracle's k-th best
//! score (up to float tolerance); (3) reported exact scores match the
//! oracle; (4) reported intervals contain the oracle score.

use koios::prelude::*;
use koios_core::overlap::{semantic_overlap, semantic_overlap_bounded_with_effort, QueryEdges};
use koios_datagen::corpus::{Corpus, CorpusSpec};
use koios_index::knn::ExactScanKnn;
use koios_index::token_stream::TokenStream;
use std::sync::Arc;

const EPS: f64 = 1e-9;

fn oracle_scores(
    corpus: &Corpus,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[koios_common::TokenId],
) -> Vec<(f64, SetId)> {
    let mut scored: Vec<(f64, SetId)> = corpus
        .repository
        .iter_sets()
        .map(|(id, _)| {
            (
                semantic_overlap(&corpus.repository, sim, alpha, query, id),
                id,
            )
        })
        .filter(|(s, _)| *s > 0.0)
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
    scored
}

fn check_result(
    corpus: &Corpus,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    k: usize,
    query: &[koios_common::TokenId],
    result: &koios_core::SearchResult,
    label: &str,
) {
    let oracle = oracle_scores(corpus, sim, alpha, query);
    let expected_len = k.min(oracle.len());
    assert_eq!(
        result.hits.len(),
        expected_len,
        "{label}: expected {expected_len} hits, got {}",
        result.hits.len()
    );
    if expected_len == 0 {
        return;
    }
    let theta_k = oracle[expected_len - 1].0;
    for hit in &result.hits {
        let truth = semantic_overlap(&corpus.repository, sim, alpha, query, hit.set);
        assert!(
            truth >= theta_k - EPS,
            "{label}: returned set {:?} with SO {truth} below θk {theta_k}",
            hit.set
        );
        match hit.score {
            ScoreBound::Exact(s) => assert!(
                (s - truth).abs() < EPS,
                "{label}: exact score {s} != oracle {truth} for {:?}",
                hit.set
            ),
            ScoreBound::Range { lb, ub } => assert!(
                lb <= truth + EPS && truth <= ub + EPS,
                "{label}: oracle {truth} outside [{lb}, {ub}] for {:?}",
                hit.set
            ),
        }
    }
    // No duplicate sets.
    let mut ids = result.set_ids();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), result.hits.len(), "{label}: duplicate hits");
}

fn spec(seed: u64) -> CorpusSpec {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 150;
    s.vocab_size = 600;
    s.clusters = 80;
    s
}

#[test]
fn koios_matches_oracle_cosine_many_seeds() {
    for seed in 0..6 {
        let corpus = Corpus::generate(spec(seed));
        let sim: Arc<dyn ElementSimilarity> =
            Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings.clone())));
        for k in [1, 3, 10] {
            let engine = Koios::new(&corpus.repository, sim.clone(), KoiosConfig::new(k, 0.8));
            for probe in [0u32, 7, 42] {
                let query = corpus.repository.set(SetId(probe)).to_vec();
                let res = engine.search(&query);
                check_result(
                    &corpus,
                    sim.as_ref(),
                    0.8,
                    k,
                    &query,
                    &res,
                    &format!("cosine seed={seed} k={k} q={probe}"),
                );
            }
        }
    }
}

#[test]
fn koios_matches_oracle_across_alphas() {
    let corpus = Corpus::generate(spec(99));
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings.clone())));
    for alpha in [0.5, 0.7, 0.9, 1.0] {
        let engine = Koios::new(&corpus.repository, sim.clone(), KoiosConfig::new(5, alpha));
        let query = corpus.repository.set(SetId(3)).to_vec();
        let res = engine.search(&query);
        check_result(
            &corpus,
            sim.as_ref(),
            alpha,
            5,
            &query,
            &res,
            &format!("alpha={alpha}"),
        );
    }
}

#[test]
fn koios_matches_oracle_qgram_similarity() {
    // Plug a purely syntactic, non-metric similarity into the same engine
    // (the generality claim of §IV).
    let corpus = Corpus::generate(spec(7));
    let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&corpus.repository, 3));
    let engine = Koios::new(&corpus.repository, sim.clone(), KoiosConfig::new(4, 0.6));
    for probe in [1u32, 20] {
        let query = corpus.repository.set(SetId(probe)).to_vec();
        let res = engine.search(&query);
        check_result(
            &corpus,
            sim.as_ref(),
            0.6,
            4,
            &query,
            &res,
            &format!("qgram q={probe}"),
        );
    }
}

#[test]
fn exact_scores_when_no_em_disabled() {
    let corpus = Corpus::generate(spec(13));
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings.clone())));
    let mut cfg = KoiosConfig::new(8, 0.8);
    cfg.no_em_filter = false;
    let engine = Koios::new(&corpus.repository, sim.clone(), cfg);
    let query = corpus.repository.set(SetId(11)).to_vec();
    let res = engine.search(&query);
    let oracle = oracle_scores(&corpus, sim.as_ref(), 0.8, &query);
    assert!(res.hits.iter().all(|h| h.score.exact().is_some()));
    // Exact mode: the score sequence must equal the oracle's top-k exactly.
    for (hit, &(os, _)) in res.hits.iter().zip(oracle.iter()) {
        assert!((hit.score.exact().unwrap() - os).abs() < EPS);
    }
    check_result(&corpus, sim.as_ref(), 0.8, 8, &query, &res, "no-em-off");
}

#[test]
fn queries_not_drawn_from_the_corpus() {
    // Mixed-topic probe queries assembled from arbitrary vocabulary tokens.
    let corpus = Corpus::generate(spec(21));
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings.clone())));
    let engine = Koios::new(&corpus.repository, sim.clone(), KoiosConfig::new(3, 0.8));
    let query: Vec<koios_common::TokenId> =
        (0..40).map(|i| koios_common::TokenId(i * 13)).collect();
    let res = engine.search(&query);
    check_result(&corpus, sim.as_ref(), 0.8, 3, &query, &res, "probe-query");
}

// ---------------------------------------------------------------------------
// Edges ≡ dense: the engine verifies from the tuples refinement drained
// (`QueryEdges`), every oracle and every caller-provided source verifies
// from `fill_matrix`. The two must be the same computation, bit for bit.
// ---------------------------------------------------------------------------

fn cosine(corpus: &Corpus) -> Arc<dyn ElementSimilarity> {
    Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings.clone())))
}

/// Drains the exact token stream of `query` (sorted) into its edges, the
/// way `core::refine` does.
fn drain_edges(
    corpus: &Corpus,
    sim: &Arc<dyn ElementSimilarity>,
    alpha: f64,
    query: &[koios_common::TokenId],
) -> QueryEdges {
    let source = ExactScanKnn::new(
        sim.clone(),
        query.to_vec(),
        corpus.repository.vocab_size(),
        alpha,
    );
    let mut stream = TokenStream::new(source, query.len());
    let mut tuples = Vec::new();
    while let Some(t) = stream.next() {
        tuples.push((t.token, t.q_idx, t.sim));
    }
    QueryEdges::from_tuples(query.len(), tuples)
}

/// Queries that exercise the self pair (`t == q → 1.0`) on in- and
/// out-of-vocabulary tokens: two corpus sets, and a spread of arbitrary
/// tokens (a tenth of the vocabulary carries no vector).
fn differential_queries(corpus: &Corpus) -> Vec<Vec<koios_common::TokenId>> {
    let mut spread: Vec<koios_common::TokenId> =
        (0..30).map(|i| koios_common::TokenId(i * 17 + 3)).collect();
    spread.sort_unstable();
    vec![
        corpus.repository.set(SetId(2)).to_vec(),
        corpus.repository.set(SetId(77)).to_vec(),
        spread,
    ]
}

#[test]
fn query_edges_match_dense_verification_bit_for_bit() {
    let mut early_terminations = 0;
    let mut partial_supports = 0;
    for seed in [5u64, 6] {
        let corpus = Corpus::generate(spec(seed));
        let repo = &corpus.repository;
        let providers: [Arc<dyn ElementSimilarity>; 2] =
            [cosine(&corpus), Arc::new(QGramJaccard::new(repo, 3))];
        for sim in &providers {
            for query in differential_queries(&corpus) {
                assert!(
                    query.iter().any(|&t| corpus.embeddings.get(t).is_none()),
                    "seed {seed}: the query must carry an out-of-vocabulary token"
                );
                for alpha in [0.6, 0.8, 1.0] {
                    let edges = drain_edges(&corpus, sim, alpha, &query);
                    let dense = |set, theta| {
                        semantic_overlap_bounded_with_effort(
                            repo,
                            sim.as_ref(),
                            alpha,
                            &query,
                            set,
                            theta,
                        )
                    };
                    let mut scores: Vec<f64> = repo
                        .live_sets()
                        .map(|(id, _)| dense(id, None).0.score())
                        .filter(|&s| s > 0.0)
                        .collect();
                    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let mid = scores[scores.len() / 2];
                    let above_every_ub = query.len() as f64 + 1.0;
                    for theta in [None, Some(mid), Some(above_every_ub)] {
                        for (id, tokens) in repo.live_sets() {
                            let label = format!(
                                "seed={seed} sim={} alpha={alpha} theta={theta:?} set={id:?}",
                                sim.name()
                            );
                            let (want, want_effort) = dense(id, theta);
                            let (got, got_effort) = edges.overlap_bounded(tokens, theta);
                            match (&want, &got) {
                                (MatchOutcome::Exact(w), MatchOutcome::Exact(g)) => {
                                    assert_eq!(w.score.to_bits(), g.score.to_bits(), "{label}");
                                    assert_eq!(w.pairs, g.pairs, "{label}");
                                }
                                (
                                    MatchOutcome::EarlyTerminated { upper_bound: w },
                                    MatchOutcome::EarlyTerminated { upper_bound: g },
                                ) => {
                                    assert_eq!(w.to_bits(), g.to_bits(), "{label}");
                                    early_terminations += 1;
                                }
                                _ => panic!("{label}: dense {want:?} but edges {got:?}"),
                            }
                            assert_eq!(want_effort.support_cells, got_effort.support_cells);
                            assert_eq!(got_effort.matrix_cells, got_effort.support_cells);
                            let full = (query.len() * tokens.len()) as u64;
                            assert_eq!(want_effort.matrix_cells, full, "{label}");
                            if (1..full).contains(&got_effort.support_cells) {
                                partial_supports += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // The comparison must have seen what it claims to guard.
    assert!(early_terminations > 100, "{early_terminations}");
    assert!(partial_supports > 1000, "{partial_supports}");
}

/// What the two verification paths must agree on, engine level.
fn assert_same_search(
    edge: &koios_core::SearchResult,
    dense: &koios_core::SearchResult,
    label: &str,
) {
    assert_eq!(edge.hits, dense.hits, "{label}");
    let counts = |r: &koios_core::SearchResult| {
        let s = &r.stats;
        (s.candidates, s.em_full, s.no_em, s.em_early_terminated)
    };
    assert_eq!(counts(edge), counts(dense), "{label}");
    assert!(!edge.hits.is_empty(), "{label}: nothing compared");
}

#[test]
fn edge_path_search_equals_dense_path_search() {
    for seed in [31u64, 32] {
        let corpus = Corpus::generate(spec(seed));
        let repo = &corpus.repository;
        let sim = cosine(&corpus);
        for alpha in [0.6, 0.8, 1.0] {
            let cfg = KoiosConfig::new(5, alpha);
            let plain = Koios::new(repo, sim.clone(), cfg.clone());
            let cache = Arc::new(TokenKnnCache::new(1 << 22));
            let cached = plain.with_config(cfg.clone().with_token_cache(Arc::clone(&cache)));
            let sharded = PartitionedKoios::new(repo, sim.clone(), cfg.clone(), 4, 0xBEEF);
            for query in differential_queries(&corpus) {
                let label = format!("seed={seed} alpha={alpha} |Q|={}", query.len());
                // `search_with_source` is the dense path: a caller's source
                // may be approximate, so the engine never reads its edges.
                let dense_over = |engine: &Koios| {
                    let source =
                        ExactScanKnn::new(sim.clone(), query.clone(), repo.vocab_size(), alpha);
                    engine.search_with_source(query.clone(), source, &SharedTheta::new())
                };
                let dense = dense_over(&plain);
                assert_same_search(&plain.search(&query), &dense, &label);
                assert_same_search(&cached.search(&query), &dense, &format!("{label} cold"));
                let warm = cached.search(&query);
                assert_eq!(warm.stats.knn_cache.misses, 0, "{label}");
                assert_same_search(&warm, &dense, &format!("{label} warm"));

                // Each shard engine alone, both paths (inside a partitioned
                // search the shards race on θlb, so only the merged hits
                // are deterministic there).
                for (i, index) in sharded.indexes().iter().enumerate() {
                    let shard =
                        Koios::with_index(repo, sim.clone(), Arc::clone(index), cfg.clone());
                    let (edge, dense) = (shard.search(&query), dense_over(&shard));
                    if !dense.hits.is_empty() {
                        assert_same_search(&edge, &dense, &format!("{label} shard {i}"));
                    }
                }
                // Merged: every score is the dense oracle's, bit for bit,
                // and the score sequence is the oracle's top-k.
                let merged = sharded.search(&query);
                let oracle = oracle_scores(&corpus, sim.as_ref(), alpha, &query);
                assert_eq!(merged.hits.len(), 5.min(oracle.len()), "{label}");
                for (hit, &(want, _)) in merged.hits.iter().zip(&oracle) {
                    let got = hit.score.exact().expect("complete merge is exact");
                    assert_eq!(got.to_bits(), want.to_bits(), "{label} merged");
                    let own = semantic_overlap(repo, sim.as_ref(), alpha, &query, hit.set);
                    assert_eq!(got.to_bits(), own.to_bits(), "{label} merged {:?}", hit.set);
                }
            }
        }
    }
}
