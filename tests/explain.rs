//! EXPLAIN-mode acceptance tests: funnel counts must reconcile *exactly*
//! with the `SearchStats` counters on both engine backends, and turning
//! the funnel on must never change a single hit — explain is pure
//! observation, not a search mode.

use koios::prelude::*;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;

fn corpus(seed: u64) -> Corpus {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 150;
    s.vocab_size = 600;
    s.clusters = 70;
    Corpus::generate(s)
}

/// Every funnel counter that mirrors a `SearchStats` field must agree
/// with it exactly; the funnel is the same accounting viewed stage-wise.
fn assert_reconciled(result: &SearchResult, label: &str) {
    let stats = &result.stats;
    let f = stats
        .funnel
        .as_deref()
        .unwrap_or_else(|| panic!("{label}: explain mode must attach a funnel"));
    assert_eq!(
        f.stream_tuples, stats.stream_tuples,
        "{label}: stream_tuples"
    );
    assert_eq!(
        f.candidates_discovered, stats.candidates,
        "{label}: candidates"
    );
    assert_eq!(
        f.ub_filter_pruned, stats.ub_filter_pruned,
        "{label}: ub_filter_pruned"
    );
    assert_eq!(f.iub_pruned, stats.iub_pruned, "{label}: iub_pruned");
    assert_eq!(
        f.entered_postprocess, stats.to_postprocess,
        "{label}: entered_postprocess"
    );
    assert_eq!(
        f.postprocess_ub_pruned, stats.postprocess_ub_pruned,
        "{label}: postprocess_ub_pruned"
    );
    assert_eq!(f.no_em_certified, stats.no_em, "{label}: no_em_certified");
    assert_eq!(
        f.em_early_terminated, stats.em_early_terminated,
        "{label}: em_early_terminated"
    );
    assert_eq!(f.em_verified, stats.em_full, "{label}: em_verified");
    assert_eq!(f.bucket_moves, stats.bucket_moves, "{label}: bucket_moves");
    assert_eq!(
        f.knn_cache_hits, stats.knn_cache.hits,
        "{label}: knn_cache_hits"
    );
    assert_eq!(
        f.knn_cache_misses, stats.knn_cache.misses,
        "{label}: knn_cache_misses"
    );
    assert_eq!(f.returned, result.hits.len(), "{label}: returned");

    // Conservation: every discovered candidate is pruned at refinement,
    // pruned at postprocess admission, or enters postprocess.
    assert_eq!(
        f.candidates_discovered,
        f.ub_filter_pruned + f.iub_pruned + f.entered_postprocess,
        "{label}: refinement stage must conserve candidates"
    );
    // Posting-length evidence covers every probed token's list.
    assert_eq!(
        f.posting_lengths.len(),
        f.postings_probed,
        "{label}: one posting length per probed token"
    );
    assert_eq!(
        f.posting_lengths.iter().sum::<usize>(),
        f.posting_entries_scanned,
        "{label}: posting lengths account for every scanned entry"
    );
    assert!(
        f.tombstone_skips <= f.posting_entries_scanned,
        "{label}: tombstone skips are a subset of scanned entries"
    );
}

#[test]
fn funnel_reconciles_with_stats_on_single_engine() {
    let c = corpus(1200);
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
    for (no_em, early) in [(true, true), (true, false), (false, false)] {
        let mut cfg = KoiosConfig::new(5, 0.8).with_explain(true);
        cfg.no_em_filter = no_em;
        cfg.em_early_termination = early;
        let engine = Koios::new(&c.repository, sim.clone(), cfg);
        for q in 0..8u32 {
            let query = c.repository.set(SetId(q * 7)).to_vec();
            let res = engine.search(&query);
            assert_reconciled(&res, &format!("single no_em={no_em} early={early} q={q}"));
        }
    }
}

#[test]
fn funnel_reconciles_with_stats_on_partitioned_engine() {
    let c = corpus(1201);
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
    for parts in [2usize, 5, 9] {
        let cfg = KoiosConfig::new(5, 0.8).with_explain(true);
        let engine = PartitionedKoios::new(&c.repository, sim.clone(), cfg, parts, 0xBEEF);
        for q in 0..6u32 {
            let query = c.repository.set(SetId(q * 11)).to_vec();
            let res = engine.search(&query);
            let label = format!("partitioned parts={parts} q={q}");
            assert_reconciled(&res, &label);

            // The per-shard sub-funnels must sum back to the merged totals
            // for the counters that accumulate shard-locally.
            let f = res.stats.funnel.as_deref().unwrap();
            assert_eq!(f.shards.len(), parts, "{label}: one sub-funnel per shard");
            assert_eq!(
                f.shards.iter().map(|s| s.stream_tuples).sum::<usize>(),
                f.stream_tuples,
                "{label}: shard stream_tuples"
            );
            assert_eq!(
                f.shards.iter().map(|s| s.candidates).sum::<usize>(),
                f.candidates_discovered,
                "{label}: shard candidates"
            );
            assert_eq!(
                f.shards
                    .iter()
                    .map(|s| s.entered_postprocess)
                    .sum::<usize>(),
                f.entered_postprocess,
                "{label}: shard entered_postprocess"
            );
            // Merge-time verification only ever *adds* exact matchings on
            // top of what the shards certified.
            assert!(
                f.shards.iter().map(|s| s.em_verified).sum::<usize>() <= f.em_verified,
                "{label}: shard em_verified"
            );
        }
    }
}

/// `matrix_cells` is what verification materialised: the engine's own
/// searches build matchings from the stream's edges, support only; a
/// caller-provided source keeps the dense `|Q| × |C|` fill, and so does the
/// partitioned merge loop.
#[test]
fn matrix_cells_count_what_verification_materialised() {
    use koios_index::knn::ExactScanKnn;
    let c = corpus(1204);
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
    let mut cfg = KoiosConfig::new(5, 0.8).with_explain(true);
    cfg.no_em_filter = false; // every hit is verified
    let engine = Koios::new(&c.repository, sim.clone(), cfg);
    // No-EM on: shards certify hits by interval and the merge verifies them.
    let cfg = KoiosConfig::new(5, 0.8).with_explain(true);
    let sharded = PartitionedKoios::new(&c.repository, sim.clone(), cfg, 4, 0xBEEF);
    let mut merge_verifications = 0;
    for q in 0..6u32 {
        let query = c.repository.set(SetId(q * 5)).to_vec();
        let edge = engine.search(&query);
        let source = ExactScanKnn::new(sim.clone(), query.clone(), c.repository.vocab_size(), 0.8);
        let dense = engine.search_with_source(query.clone(), source, &SharedTheta::new());
        assert_reconciled(&edge, &format!("edge q={q}"));
        assert_reconciled(&dense, &format!("dense q={q}"));
        let (e, d) = (
            edge.stats.funnel.as_deref().unwrap(),
            dense.stats.funnel.as_deref().unwrap(),
        );
        assert!(e.support_cells > 0, "q={q}: nothing verified");
        assert_eq!(e.matrix_cells, e.support_cells, "q={q}: edge path");
        assert_eq!(e.support_cells, d.support_cells, "q={q}: same instances");
        assert!(d.matrix_cells > d.support_cells, "q={q}: dense path");
        assert_eq!(d.matrix_cells % query.len() as u64, 0, "q={q}: whole rows");

        // Shards verify from edges; only merge verifications are dense.
        let merged = sharded.search(&query);
        let f = merged.stats.funnel.as_deref().unwrap();
        assert!(f.matrix_cells >= f.support_cells, "q={q}");
        if f.merge_verifications == 0 {
            assert_eq!(f.matrix_cells, f.support_cells, "q={q}: no dense fill");
        }
        merge_verifications += f.merge_verifications;
    }
    assert!(merge_verifications > 0, "the merge loop never ran");
}

/// Explain is observation only: with identical configs differing in
/// nothing but the `explain` flag, the hit lists are equal hit-for-hit
/// (same sets, bit-identical scores) on both backends.
#[test]
fn explain_mode_never_changes_hits() {
    let c = corpus(1202);
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
    let cfg = KoiosConfig::new(6, 0.8);
    let plain_single = Koios::new(&c.repository, sim.clone(), cfg.clone());
    let explain_single = Koios::new(&c.repository, sim.clone(), cfg.clone().with_explain(true));
    let plain_part = PartitionedKoios::new(&c.repository, sim.clone(), cfg.clone(), 4, 7);
    let explain_part =
        PartitionedKoios::new(&c.repository, sim.clone(), cfg.with_explain(true), 4, 7);
    for q in 0..10u32 {
        let query = c.repository.set(SetId(q * 13)).to_vec();
        let a = plain_single.search(&query);
        let b = explain_single.search(&query);
        assert_eq!(a.hits, b.hits, "single q={q}");
        assert!(a.stats.funnel.is_none(), "explain off attaches no funnel");
        assert!(b.stats.funnel.is_some());

        let a = plain_part.search(&query);
        let b = explain_part.search(&query);
        assert_eq!(a.hits, b.hits, "partitioned q={q}");
        assert!(a.stats.funnel.is_none());
        assert!(b.stats.funnel.is_some());
    }
}

/// The service folds a request-level `explain` into the effective config
/// additively: explain requests get a funnel, plain requests do not, and
/// both see the same hits — under an 8-thread hammer mixing the two.
#[test]
fn explain_requests_under_concurrency() {
    let c = corpus(1203);
    let repo = Arc::new(c.repository);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    let service = Arc::new(SearchService::new_partitioned(
        Arc::clone(&repo),
        sim,
        KoiosConfig::new(5, 0.8),
        4,
        21,
        ServiceConfig::new().with_workers(4).with_cache_capacity(64),
    ));

    let queries: Vec<Vec<TokenId>> = (0..8).map(|i| repo.set(SetId(i * 9)).to_vec()).collect();
    let expected: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| {
            service
                .search(SearchRequest::new(q.clone()).bypassing_cache())
                .result
                .hits
        })
        .collect();

    std::thread::scope(|sc| {
        for t in 0..8usize {
            let service = &service;
            let queries = &queries;
            let expected = &expected;
            sc.spawn(move || {
                let explain = t % 2 == 0;
                for round in 0..4 {
                    for (q, want) in queries.iter().zip(expected) {
                        let req = SearchRequest::new(q.clone())
                            .with_explain(explain)
                            .bypassing_cache();
                        let resp = service.search(req);
                        assert_eq!(
                            &resp.result.hits, want,
                            "thread {t} round {round}: hits must not depend on explain"
                        );
                        if explain {
                            assert_reconciled(&resp.result, &format!("hammer t={t} r={round}"));
                        } else {
                            assert!(resp.result.stats.funnel.is_none(), "thread {t}");
                        }
                    }
                }
            });
        }
    });

    // Cached answers carry no funnel even for explain requests: the cache
    // stores hits, and explain never forks the cache key.
    let req = SearchRequest::new(queries[0].clone()).with_explain(true);
    let miss = service.search(req.clone());
    assert!(miss.result.stats.funnel.is_some());
    let hit = service.search(req);
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert!(hit.result.stats.funnel.is_none());
    assert_eq!(hit.result.hits, miss.result.hits);
}
