//! Concurrency determinism suite: parallel execution must be
//! *observationally identical* to sequential execution.
//!
//! The shard executor (PR 7) runs every partitioned query's shard tasks on
//! one shared process-wide pool, and both caches are striped across
//! independently locked segments — three places where a race could
//! silently change results. These tests hammer all of them from 8 threads
//! and assert byte-identical hits and scores against a single-threaded
//! reference run, plus torn-free invalidation when the token-cache
//! generation is bumped mid-search.

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::embed::vectors::Embeddings;
use koios::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;

/// A generated corpus's repository and token vectors.
fn corpus_parts(seed: u64) -> (Arc<Repository>, Arc<Embeddings>) {
    // Deliberately compact: the suite runs hundreds of searches across 8
    // threads, and determinism shows at any scale. Small sets keep the
    // cubic Hungarian verification cheap so the whole suite stays fast
    // in debug builds.
    let mut spec = CorpusSpec::small(seed);
    spec.num_sets = 60;
    spec.vocab_size = 240;
    spec.clusters = 30;
    spec.set_size_min = 3;
    spec.set_size_max = 10;
    let c = Corpus::generate(spec);
    (Arc::new(c.repository), Arc::new(c.embeddings))
}

/// A generated corpus's repository and the cosine similarity over its
/// embeddings.
fn corpus(seed: u64) -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let (repo, emb) = corpus_parts(seed);
    (repo, Arc::new(CosineSimilarity::new(emb)))
}

/// A mixed query workload: whole sets, truncated sets, and a cross-set
/// splice — enough shape variety that refinement, verification and both
/// caches all get exercised.
fn queries(repo: &Repository) -> Vec<Vec<TokenId>> {
    let mut qs = Vec::new();
    for i in 0..4 {
        let set = repo.set(SetId(i * 7 % repo.num_sets() as u32)).to_vec();
        qs.push(set.clone());
        if set.len() > 2 {
            qs.push(set[..set.len() / 2].to_vec());
        }
        let other = repo.set(SetId((i * 7 + 3) % repo.num_sets() as u32));
        let mut spliced = set;
        spliced.extend_from_slice(&other[..other.len().min(3)]);
        qs.push(spliced);
    }
    qs
}

fn backends(
    repo: &Arc<Repository>,
    sim: &Arc<dyn ElementSimilarity>,
) -> Vec<(&'static str, EngineBackend)> {
    let cfg = KoiosConfig::new(5, 0.8).with_token_cache(Arc::new(TokenKnnCache::new(8 << 20)));
    vec![
        (
            "single",
            Koios::new(Arc::clone(repo), Arc::clone(sim), cfg.clone()).into(),
        ),
        (
            "partitioned",
            PartitionedKoios::new(Arc::clone(repo), Arc::clone(sim), cfg, 4, 0xC0FFEE).into(),
        ),
    ]
}

/// 8 threads × repeated mixed queries over both backend variants: every
/// hit list (sets, score bounds, order) must be byte-identical to a
/// single-threaded reference run over the same backend. On the
/// partitioned variant this drives the shared shard executor from many
/// submitters at once; on both it churns the striped token cache.
#[test]
fn hammer_is_byte_identical_to_sequential_reference() {
    let (repo, sim) = corpus(7001);
    let qs = queries(&repo);
    for (name, backend) in backends(&repo, &sim) {
        // Reference pass, single-threaded. Token-cache completeness makes
        // replays byte-identical, so warming it here changes nothing.
        let reference: Vec<Vec<Hit>> = qs.iter().map(|q| backend.search(q).hits).collect();
        assert!(
            reference.iter().any(|hits| !hits.is_empty()),
            "{name}: workload must produce hits"
        );
        let backend = &backend;
        let reference = &reference;
        let qs = &qs;
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                sc.spawn(move || {
                    // Stagger starting offsets so threads collide on
                    // different queries in different orders.
                    for round in 0..2 {
                        for (i, q) in qs.iter().enumerate().skip((t + round) % qs.len()) {
                            let hits = backend.search(q).hits;
                            assert_eq!(
                                hits, reference[i],
                                "{name}: thread {t} round {round} query {i} diverged"
                            );
                        }
                    }
                });
            }
        });
    }
}

/// Bumping the token-cache generation *while* 8 threads are searching must
/// never produce a stale or torn result: every search still returns the
/// reference answer, in-flight inserts of the old world are rejected (not
/// resurrected), and the cache's byte accounting survives the churn.
#[test]
fn generation_bump_during_search_never_tears_results() {
    let (repo, sim) = corpus(7002);
    let cache = Arc::new(TokenKnnCache::new(8 << 20));
    let backend: EngineBackend = PartitionedKoios::new(
        Arc::clone(&repo),
        Arc::clone(&sim),
        KoiosConfig::new(5, 0.8).with_token_cache(Arc::clone(&cache)),
        4,
        0xC0FFEE,
    )
    .into();
    // Reference from an uncached engine of the *same partitioned shape*:
    // immune to any cache behaviour, while its merge resolves scores
    // identically (a single engine may legitimately report No-EM-certified
    // hits as intervals where the partitioned merge resolves them).
    let uncached: EngineBackend = PartitionedKoios::new(
        Arc::clone(&repo),
        Arc::clone(&sim),
        KoiosConfig::new(5, 0.8),
        4,
        0xC0FFEE,
    )
    .into();
    let qs = queries(&repo);
    let reference: Vec<Vec<Hit>> = qs.iter().map(|q| uncached.search(q).hits).collect();

    let stop = AtomicBool::new(false);
    let backend = &backend;
    let reference = &reference;
    let qs = &qs;
    std::thread::scope(|sc| {
        let stop = &stop;
        let bumper_cache = Arc::clone(&cache);
        sc.spawn(move || {
            // Invalidate continuously while the searchers run.
            while !stop.load(Ordering::Relaxed) {
                bumper_cache.bump_generation();
                std::thread::yield_now();
            }
        });
        let mut searchers = Vec::new();
        for t in 0..THREADS {
            searchers.push(sc.spawn(move || {
                for (i, q) in qs.iter().enumerate() {
                    let hits = backend.search(q).hits;
                    assert_eq!(
                        hits, reference[i],
                        "thread {t} query {i}: stale or torn result"
                    );
                }
            }));
        }
        // Collect first, stop the bumper, THEN propagate panics: unwinding
        // before the store would leave the bumper spinning and the scope
        // joining it forever — the hang would mask the real failure.
        let outcomes: Vec<_> = searchers.into_iter().map(|s| s.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for o in outcomes {
            o.expect("searcher panicked");
        }
    });

    // Post-churn invariants: accounting never went negative or over
    // budget, and probes always resolved to exactly one outcome.
    let snap = cache.snapshot();
    assert!(snap.bytes <= snap.budget_bytes);
    let usage_bytes: usize = snap.stripes.iter().map(|row| row.weight).sum();
    assert_eq!(
        usage_bytes, snap.bytes,
        "stripe sums match the global total"
    );
    assert!(snap.counters.invalidations + snap.counters.rejected_inserts > 0);
}

/// The full service stack under 8-thread request pressure: striped result
/// cache, striped token cache and the shard executor together. Every
/// response must carry the reference hits whatever its cache outcome, and
/// the service counters must add up exactly.
#[test]
fn service_under_concurrent_load_stays_deterministic() {
    let (repo, emb) = corpus_parts(7003);
    let engine = MutableEngine::partitioned(
        Arc::clone(&repo),
        Some(emb),
        KoiosConfig::new(5, 0.8),
        4,
        0xC0FFEE,
        cosine_factory(),
    );
    let service = SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new()
            .with_workers(THREADS)
            .with_cache_capacity(64),
    );
    let qs = queries(&repo);
    let reference: Vec<Vec<Hit>> = qs
        .iter()
        .map(|q| service.backend().search(q).hits)
        .collect();

    let service = &service;
    let reference = &reference;
    let qs = &qs;
    std::thread::scope(|sc| {
        for t in 0..THREADS {
            sc.spawn(move || {
                for (i, q) in qs.iter().enumerate() {
                    let resp = service.search(SearchRequest::new(q.clone()));
                    assert!(!resp.rejected);
                    assert!(
                        matches!(resp.cache, CacheOutcome::Hit | CacheOutcome::Miss),
                        "thread {t} query {i}: unexpected outcome {:?}",
                        resp.cache
                    );
                    assert_eq!(resp.result.hits, reference[i], "thread {t} query {i}");
                }
            });
        }
    });

    let st = service.stats();
    let total = (THREADS * qs.len()) as u64;
    assert_eq!(st.queries, total);
    assert_eq!(st.cache_hits + st.searched, total, "every query resolved");
    assert!(
        st.cache_hits > 0,
        "repeats must hit the striped result cache"
    );
    // Result-cache counters agree with the outcomes the callers saw.
    assert_eq!(st.cache.hits, st.cache_hits);
    assert_eq!(st.cache.misses, st.searched);
}
