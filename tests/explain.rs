//! EXPLAIN-mode acceptance tests: the rendered funnel must report exactly
//! the `SearchStats` counters on both engine backends, and turning
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

/// The rendered funnel is a view of `SearchStats`: every count it reports
/// is the stats field of the same meaning, the refinement stage conserves
/// candidates, and the posting lengths account for every probe. Returns
/// the rendered report for further checks.
fn assert_reconciled(result: &SearchResult, label: &str) -> Json {
    let stats = &result.stats;
    let json = stats
        .funnel_json()
        .unwrap_or_else(|| panic!("{label}: explain mode must attach a funnel"));
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{label}: no {key}")) as usize
    };
    for (key, want) in [
        ("stream_tuples", stats.stream_tuples),
        ("tombstone_skips", stats.tombstone_skips),
        ("candidates_discovered", stats.candidates),
        ("ub_filter_pruned", stats.ub_filter_pruned),
        ("iub_pruned", stats.iub_pruned),
        ("theta_raises", stats.theta_raises),
        ("bucket_moves", stats.bucket_moves),
        ("entered_postprocess", stats.to_postprocess),
        ("postprocess_ub_pruned", stats.postprocess_ub_pruned),
        ("no_em_certified", stats.no_em),
        ("em_early_terminated", stats.em_early_terminated),
        ("em_verified", stats.em_full),
        ("merge_verifications", stats.merge_verifications),
        ("matrix_cells", stats.matrix_cells as usize),
        ("support_cells", stats.support_cells as usize),
        ("returned", result.hits.len()),
        ("knn_cache_hits", stats.knn_cache.hits),
        ("knn_cache_misses", stats.knn_cache.misses),
    ] {
        assert_eq!(num(key), want, "{label}: {key}");
    }

    // Conservation: every discovered candidate is pruned at refinement,
    // pruned at postprocess admission, or enters postprocess.
    assert_eq!(
        stats.candidates,
        stats.ub_filter_pruned + stats.iub_pruned + stats.to_postprocess,
        "{label}: refinement stage must conserve candidates"
    );
    // One posting probe per stream tuple; the lengths cover every probe
    // and every scanned entry.
    let lengths = &stats.funnel.as_deref().unwrap().posting_lengths;
    assert_eq!(num("postings_probed"), lengths.len(), "{label}");
    assert_eq!(num("postings_probed"), stats.stream_tuples, "{label}");
    let scanned = num("posting_entries_scanned");
    assert_eq!(lengths.iter().sum::<usize>(), scanned, "{label}");
    assert!(
        stats.tombstone_skips <= scanned,
        "{label}: tombstone skips are a subset of scanned entries"
    );
    // The one-line summary renders the same counts.
    let summary = stats.funnel_summary().unwrap();
    assert!(
        summary.starts_with(&format!("discovered={} ", stats.candidates))
            && summary.ends_with(&format!(" returned={}", result.hits.len())),
        "{label}: {summary}"
    );
    json
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
            let json = assert_reconciled(&res, &label);

            // The rendered shard rows sum back to the merged totals for
            // the counters that accumulate shard-locally.
            let rows = json.get("shards").unwrap().as_array().unwrap();
            assert_eq!(rows.len(), parts, "{label}: one sub-funnel per shard");
            let sum = |key: &str| -> usize {
                rows.iter()
                    .map(|r| r.get(key).unwrap().as_u64().unwrap() as usize)
                    .sum()
            };
            let s = &res.stats;
            for (key, want) in [
                ("stream_tuples", s.stream_tuples),
                ("candidates", s.candidates),
                ("ub_filter_pruned", s.ub_filter_pruned),
                ("iub_pruned", s.iub_pruned),
                ("entered_postprocess", s.to_postprocess),
                ("no_em_certified", s.no_em),
                ("em_early_terminated", s.em_early_terminated),
            ] {
                assert_eq!(sum(key), want, "{label}: shard {key}");
            }
            // The merge loop adds exactly its own verifications on top of
            // what the shards verified, and returns at most what they
            // offered.
            assert_eq!(
                sum("em_verified") + s.merge_verifications,
                s.em_full,
                "{label}: shard em_verified"
            );
            assert!(sum("returned") >= res.hits.len(), "{label}: returned");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.get("shard").unwrap().as_u64(), Some(i as u64));
            }
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
        let (e, d) = (&edge.stats, &dense.stats);
        assert!(e.support_cells > 0, "q={q}: nothing verified");
        assert_eq!(e.matrix_cells, e.support_cells, "q={q}: edge path");
        assert_eq!(e.support_cells, d.support_cells, "q={q}: same instances");
        assert!(d.matrix_cells > d.support_cells, "q={q}: dense path");
        assert_eq!(d.matrix_cells % query.len() as u64, 0, "q={q}: whole rows");

        // Shards verify from edges; only merge verifications are dense.
        let merged = sharded.search(&query);
        assert_reconciled(&merged, &format!("merged q={q}"));
        let f = &merged.stats;
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
        // The counts are kept either way; explain only renders them.
        let counts = |r: &SearchResult| {
            let s = &r.stats;
            let cells = (s.matrix_cells, s.support_cells);
            (s.candidates, s.em_full, s.theta_raises, cells)
        };
        assert_eq!(counts(&a), counts(&b), "single q={q}");

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
