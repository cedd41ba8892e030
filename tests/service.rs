//! End-to-end tests for the `koios-service` serving layer: concurrent
//! batches must be indistinguishable from sequential engine calls, the
//! result cache must be observable and invalidatable, and deadlines must
//! degrade gracefully.

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::embed::vectors::Embeddings;
use koios::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A generated corpus's repository and token vectors.
fn corpus_parts(seed: u64) -> (Arc<Repository>, Arc<Embeddings>) {
    let corpus = Corpus::generate(CorpusSpec::small(seed));
    (Arc::new(corpus.repository), Arc::new(corpus.embeddings))
}

fn corpus_service(workers: usize, cache: usize) -> (Arc<Repository>, SearchService) {
    let (repo, emb) = corpus_parts(7);
    let cfg = KoiosConfig::new(5, 0.8);
    let engine =
        MutableEngine::single(Arc::clone(&repo), Some(emb), cfg, cosine_factory()).unwrap();
    let service = SearchService::from_mutable(
        engine,
        ServiceConfig::new()
            .with_workers(workers)
            .with_cache_capacity(cache),
    );
    (repo, service)
}

/// 64 queries over 4 workers must return exactly what direct sequential
/// `Koios::search` calls return, in submission order. The cache is
/// disabled so every request exercises the concurrent search path.
#[test]
fn concurrent_batch_matches_sequential_search() {
    let (repo, service) = corpus_service(4, 0);
    let queries: Vec<Vec<TokenId>> = (0..64)
        .map(|i| repo.set(SetId((i % 16) as u32)).to_vec())
        .collect();

    let expected: Vec<SearchResult> = queries
        .iter()
        .map(|q| service.backend().search(q))
        .collect();

    let requests: Vec<SearchRequest> = queries.iter().cloned().map(SearchRequest::new).collect();
    let responses = service.search_batch(&requests);

    assert_eq!(responses.len(), 64);
    for (i, (resp, want)) in responses.iter().zip(&expected).enumerate() {
        assert!(!resp.rejected, "request {i} rejected");
        assert_eq!(
            resp.result.hits, want.hits,
            "request {i}: concurrent result diverged from sequential"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.queries, 64);
    assert_eq!(stats.searched, 64);
    assert_eq!(stats.cache_hits, 0);
}

/// Concurrency plus caching: resubmitting the same batch serves every
/// request from the cache with identical hits.
#[test]
fn repeated_batch_is_served_from_cache() {
    let (repo, service) = corpus_service(4, 128);
    let requests: Vec<SearchRequest> = (0..32)
        .map(|i| SearchRequest::new(repo.set(SetId((i % 16) as u32)).to_vec()))
        .collect();

    let first = service.search_batch(&requests);
    let second = service.search_batch(&requests);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(b.cache, CacheOutcome::Hit);
        assert_eq!(a.result.hits, b.result.hits);
    }
    let stats = service.stats();
    // 16 distinct queries were searched at most twice (two workers may race
    // on the same fresh key within the first batch) and at least 32 of the
    // 64 submissions hit the cache.
    assert!(stats.cache_hits >= 32, "hits = {}", stats.cache_hits);
    assert!(stats.searched <= 32, "searched = {}", stats.searched);
    assert!(stats.cache_hit_rate() > 0.0);
}

/// The cache is parameter-aware and invalidatable.
#[test]
fn cache_hit_then_invalidation_forces_miss() {
    let (repo, service) = corpus_service(1, 16);
    let q = repo.set(SetId(3)).to_vec();

    let miss = service.search(SearchRequest::new(q.clone()));
    assert_eq!(miss.cache, CacheOutcome::Miss);
    let hit = service.search(SearchRequest::new(q.clone()));
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(miss.result.hits, hit.result.hits);

    // A different k is a different answer — must not alias.
    let other = service.search(SearchRequest::new(q.clone()).with_k(1));
    assert_eq!(other.cache, CacheOutcome::Miss);
    assert_eq!(other.result.hits.len(), 1);

    service.invalidate_cache();
    let after = service.search(SearchRequest::new(q));
    assert_eq!(after.cache, CacheOutcome::Miss);
    assert_eq!(after.result.hits, hit.result.hits);

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert!(stats.cache.invalidations >= 2);
}

/// Deadlines degrade gracefully: an already-expired budget is rejected
/// without running (and without panicking), and a tiny budget on a real
/// search surfaces `timed_out` partial results that are not cached.
#[test]
fn expired_and_tiny_deadlines_set_timed_out_without_panicking() {
    let (repo, service) = corpus_service(2, 16);
    let q = repo.set(SetId(1)).to_vec();

    // Expired before pickup: admission control rejects.
    let rejected = service.search(SearchRequest::new(q.clone()).with_time_budget(Duration::ZERO));
    assert!(rejected.rejected);
    assert!(rejected.result.stats.timed_out);
    assert!(rejected.result.hits.is_empty());

    // A 1ns budget admits (nanoseconds may remain) or rejects, but either
    // way the engine must flag the deadline, return, and cache nothing.
    let tiny =
        service.search(SearchRequest::new(q.clone()).with_time_budget(Duration::from_nanos(1)));
    assert!(tiny.result.stats.timed_out || tiny.rejected);
    assert_eq!(service.cache_len(), 0);

    // The service stays healthy afterwards.
    let ok = service.search(SearchRequest::new(q));
    assert!(!ok.rejected);
    assert!(!ok.result.hits.is_empty());
    assert!(service.stats().rejected >= 1);
}

/// A service routed to a partitioned backend is indistinguishable from the
/// single-engine service: identical hit scores across partition counts,
/// including under per-request `k`/`α` overrides (§VI: sharded search under
/// one shared `θlb` is exact).
#[test]
fn partitioned_service_matches_single_engine_service() {
    let (repo, emb) = corpus_parts(7);
    // no_em_filter off: every hit carries an exact score, so single and
    // partitioned answers are comparable hit-for-hit.
    let mut engine_cfg = KoiosConfig::new(5, 0.8);
    engine_cfg.no_em_filter = false;
    let engine = MutableEngine::single(
        Arc::clone(&repo),
        Some(Arc::clone(&emb)),
        engine_cfg.clone(),
        cosine_factory(),
    );
    let single = SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new().with_workers(2).with_cache_capacity(0),
    );

    let queries: Vec<Vec<TokenId>> = (0..8).map(|i| repo.set(SetId(i as u32)).to_vec()).collect();
    let overrides: [(Option<usize>, Option<f64>); 3] =
        [(None, None), (Some(2), None), (Some(3), Some(0.7))];

    for parts in [1usize, 2, 8] {
        let engine = MutableEngine::partitioned(
            Arc::clone(&repo),
            Some(Arc::clone(&emb)),
            engine_cfg.clone(),
            parts,
            0xBEEF,
            cosine_factory(),
        );
        let parted = SearchService::from_mutable(
            engine.unwrap(),
            ServiceConfig::new().with_workers(2).with_cache_capacity(0),
        );
        assert_eq!(parted.partitions(), parts);
        for q in &queries {
            for (k, alpha) in overrides {
                let mut req = SearchRequest::new(q.clone());
                if let Some(k) = k {
                    req = req.with_k(k);
                }
                if let Some(a) = alpha {
                    req = req.with_alpha(a);
                }
                let want = single.search(req.clone());
                let got = parted.search(req);
                assert!(!got.rejected && !want.rejected);
                let want_scores: Vec<f64> = want.result.hits.iter().map(|h| h.score.ub()).collect();
                let got_scores: Vec<f64> = got.result.hits.iter().map(|h| h.score.ub()).collect();
                assert_eq!(
                    got_scores.len(),
                    want_scores.len(),
                    "parts={parts} k={k:?} α={alpha:?}"
                );
                for (a, b) in got_scores.iter().zip(&want_scores) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "parts={parts} k={k:?} α={alpha:?}: {got_scores:?} vs {want_scores:?}"
                    );
                }
            }
        }
    }
}

/// One token cache serves every shard of a partitioned service, probed once
/// per query element, not once per (element, shard): the query's lists are
/// fetched once and every shard replays them. Overlapping queries hit the
/// lists an earlier query published, and the result cache stays
/// backend-transparent.
#[test]
fn partitioned_service_shares_token_cache_across_shards() {
    let (repo, emb) = corpus_parts(11);
    let cfg = KoiosConfig::new(5, 0.8);
    let engine =
        MutableEngine::partitioned(Arc::clone(&repo), Some(emb), cfg, 4, 3, cosine_factory());
    let svc = SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new().with_workers(1).with_cache_capacity(16),
    );
    assert!(svc.token_cache().is_some());

    let q = repo.set(SetId(0)).to_vec();
    let cold = svc.search(SearchRequest::new(q.clone()));
    assert_eq!(cold.cache, CacheOutcome::Miss);
    let knn = &cold.result.stats.knn_cache;
    // Each element scanned once for all four shards.
    assert_eq!((knn.hits, knn.misses), (0, q.len()), "{knn:?}");

    // An overlapping (not identical) query replays the shared lists, once
    // per element.
    let mut overlapping = q.clone();
    overlapping.pop();
    let warm = svc.search(SearchRequest::new(overlapping));
    assert_eq!(warm.cache, CacheOutcome::Miss);
    let knn = &warm.result.stats.knn_cache;
    assert_eq!((knn.hits, knn.misses), (q.len() - 1, 0), "{knn:?}");

    // Identical resubmission: served by the result cache, backend never runs.
    let hit = svc.search(SearchRequest::new(q));
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(hit.result.hits, cold.result.hits);
}

/// A `k` no allocation could hold (2⁴⁰) is answered on both backends, with
/// the hits of a `k` as large as the corpus: nothing is sized by `k`.
#[test]
fn huge_k_is_answered_on_both_backends() {
    let (repo, emb) = corpus_parts(17);
    let cfg = KoiosConfig::new(5, 0.8);
    let single = MutableEngine::single(
        Arc::clone(&repo),
        Some(Arc::clone(&emb)),
        cfg.clone(),
        cosine_factory(),
    );
    let partitioned =
        MutableEngine::partitioned(Arc::clone(&repo), Some(emb), cfg, 4, 3, cosine_factory());
    let q = repo.set(SetId(3)).to_vec();
    for engine in [single.unwrap(), partitioned.unwrap()] {
        let svc = SearchService::from_mutable(engine, ServiceConfig::new().with_workers(1));
        let huge = svc.search(
            SearchRequest::new(q.clone())
                .with_k(1 << 40)
                .bypassing_cache(),
        );
        let all = svc.search(
            SearchRequest::new(q.clone())
                .with_k(repo.num_sets())
                .bypassing_cache(),
        );
        assert!(!huge.rejected && !huge.result.stats.timed_out);
        assert!(
            huge.result.hits.len() > 5,
            "{} hits",
            huge.result.hits.len()
        );
        assert_eq!(huge.result.hits, all.result.hits);
    }
}

/// Deadline accounting is consistent between responses and service stats on
/// both backends, and an expired partitioned request does no merge work.
#[test]
fn partitioned_service_timeout_accounting_is_consistent() {
    let (repo, emb) = corpus_parts(13);
    let cfg = KoiosConfig::new(5, 0.8);
    let engine =
        MutableEngine::partitioned(Arc::clone(&repo), Some(emb), cfg, 4, 3, cosine_factory());
    let svc = SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new().with_workers(2).with_cache_capacity(16),
    );
    let q = repo.set(SetId(2)).to_vec();

    // Admission expiry: rejected, flagged, and *counted* as timed out.
    let dead = svc.search(
        SearchRequest::new(q.clone())
            .bypassing_cache()
            .with_time_budget(Duration::ZERO),
    );
    assert!(dead.rejected);
    assert!(dead.result.stats.timed_out);
    assert_eq!(dead.result.stats.em_full, 0, "no work for a dead request");
    let st = svc.stats();
    assert_eq!(st.rejected, 1);
    assert_eq!(
        st.timed_out, 1,
        "admission expiry must be visible in timed_out"
    );
    assert_eq!(st.searched, 0);

    // A healthy follow-up still works and leaves the counters alone.
    let ok = svc.search(SearchRequest::new(q));
    assert!(!ok.rejected && !ok.result.stats.timed_out);
    let st = svc.stats();
    assert_eq!((st.rejected, st.timed_out, st.searched), (1, 1, 1));
}

/// Many threads race submit/await on *one* persistent pool; every handle
/// must resolve to exactly the sequential in-process answer for its query,
/// and the pool must survive to serve afterwards.
#[test]
fn concurrent_submitters_racing_one_pool_match_sequential() {
    let (repo, service) = corpus_service(3, 0);
    let service = Arc::new(service);
    let queries: Vec<Vec<TokenId>> = (0..8).map(|i| repo.set(SetId(i as u32)).to_vec()).collect();
    let expected: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| service.backend().search(q).hits)
        .collect();

    std::thread::scope(|sc| {
        for t in 0..6 {
            let service = Arc::clone(&service);
            let queries = &queries;
            let expected = &expected;
            sc.spawn(move || {
                // Submit a whole wave, then await it — interleaving with
                // five other submitters on the same queue.
                let handles: Vec<ResponseHandle> = queries
                    .iter()
                    .map(|q| service.submit(SearchRequest::new(q.clone())))
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    let resp = h.wait();
                    assert!(!resp.rejected, "thread {t} query {i}");
                    assert_eq!(
                        resp.result.hits, expected[i],
                        "thread {t} query {i} diverged under contention"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.queries, 6 * 8);
    assert_eq!(stats.searched, 6 * 8, "cache disabled: every submit ran");
    // The pool is still alive for ordinary traffic.
    let after = service.search(SearchRequest::new(queries[0].clone()));
    assert_eq!(after.result.hits, expected[0]);
}

/// Graceful shutdown: handles submitted before `shutdown` all resolve
/// (the queue drains), and the service still answers inline afterwards.
#[test]
fn shutdown_drains_in_flight_tickets() {
    let (repo, mut service) = corpus_service(1, 0);
    let queries: Vec<Vec<TokenId>> = (0..6).map(|i| repo.set(SetId(i as u32)).to_vec()).collect();
    let expected: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| service.backend().search(q).hits)
        .collect();

    // Six searches pile up behind a single worker…
    let handles: Vec<ResponseHandle> = queries
        .iter()
        .map(|q| service.submit(SearchRequest::new(q.clone())))
        .collect();
    // …and shutdown must not drop any of them.
    service.shutdown();
    for (i, h) in handles.into_iter().enumerate() {
        let resp = h.wait();
        assert!(!resp.rejected, "queued request {i} was dropped by shutdown");
        assert_eq!(resp.result.hits, expected[i], "request {i}");
    }

    // Post-shutdown submissions run inline on the caller thread.
    let inline = service.submit(SearchRequest::new(queries[0].clone()));
    assert!(inline.is_ready(), "inline fallback resolves immediately");
    assert_eq!(inline.wait().result.hits, expected[0]);
    let batch = service.search_batch(&[SearchRequest::new(queries[1].clone())]);
    assert_eq!(batch[0].result.hits, expected[1]);
}

/// Mixed batches keep submission order even when some requests reject.
#[test]
fn mixed_batch_keeps_order_and_isolation() {
    let (repo, service) = corpus_service(4, 16);
    let good = repo.set(SetId(2)).to_vec();
    let requests = vec![
        SearchRequest::new(good.clone()),
        // bypass_cache: otherwise a worker that cached request 0 first
        // could serve this from the probe (which runs before admission).
        SearchRequest::new(good.clone())
            .with_time_budget(Duration::ZERO)
            .bypassing_cache(),
        SearchRequest::new(good.clone()).with_k(0), // invalid override
        SearchRequest::new(good.clone()),
    ];
    let responses = service.search_batch(&requests);
    assert_eq!(responses.len(), 4);
    assert!(!responses[0].rejected);
    assert!(responses[1].rejected);
    assert!(responses[2].rejected);
    assert!(!responses[3].rejected);
    assert_eq!(responses[0].result.hits, responses[3].result.hits);
}
