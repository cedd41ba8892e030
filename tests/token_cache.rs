//! Token-cache correctness: warm-cache searches must be byte-identical to
//! cold-cache searches across α values, query overlap patterns, and
//! repository swaps (generation bumps).

use koios::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A seeded fuzzy-string corpus: clusters of near-duplicate names so q-gram
/// Jaccard produces a rich sub-1.0 similarity structure.
fn build_repo(seed: u64, sets: usize) -> Arc<Repository> {
    let mut rng = StdRng::seed_from_u64(seed);
    let stems = [
        "Blaine",
        "Charleston",
        "Columbia",
        "Sacramento",
        "Lexington",
        "Appleton",
        "MtPleasant",
        "Zurich",
        "Springfield",
        "Georgetown",
    ];
    let mut b = RepositoryBuilder::new();
    for i in 0..sets {
        let len = 3 + (rng.gen_range(0..4usize));
        let elems: Vec<String> = (0..len)
            .map(|_| {
                let stem = stems[rng.gen_range(0..stems.len())];
                // Mutate the tail to create near-duplicates.
                match rng.gen_range(0..4u32) {
                    0 => stem.to_string(),
                    1 => format!("{stem}s"),
                    2 => stem[..stem.len() - 1].to_string(),
                    _ => format!("{stem}ville"),
                }
            })
            .collect();
        b.add_set(&format!("s{i}"), elems);
    }
    Arc::new(b.build())
}

/// Seeded overlapping workload: random queries plus head/tail-dropped
/// siblings, so consecutive searches share most elements.
fn workload(repo: &Repository, seed: u64, n: usize) -> Vec<Vec<TokenId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = repo.vocab_size() as u32;
    let mut out = Vec::new();
    for _ in 0..n {
        let len = 2 + rng.gen_range(0..4usize);
        let mut q: Vec<TokenId> = (0..len).map(|_| TokenId(rng.gen_range(0..vocab))).collect();
        q.sort_unstable();
        q.dedup();
        out.push(q.clone());
        if q.len() > 2 {
            out.push(q[1..].to_vec());
            out.push(q[..q.len() - 1].to_vec());
        }
    }
    out
}

#[test]
fn warm_cache_results_identical_across_alpha_values() {
    let repo = build_repo(11, 40);
    let sim = Arc::new(QGramJaccard::new(&repo, 3));
    let queries = workload(&repo, 7, 12);
    for alpha in [0.3, 0.5, 0.8] {
        let cold = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(3, alpha));
        let cache = Arc::new(TokenKnnCache::new(8 << 20));
        let warm_engine = Koios::new(
            Arc::clone(&repo),
            sim.clone(),
            KoiosConfig::new(3, alpha).with_token_cache(Arc::clone(&cache)),
        );
        // Two passes: the first fills (and already overlaps), the second is
        // fully warm. Every result must equal the cache-less reference.
        for pass in 0..2 {
            for q in &queries {
                let expect = cold.search(q);
                let got = warm_engine.search(q);
                assert_eq!(
                    got.hits, expect.hits,
                    "α={alpha} pass={pass} query={q:?}: warm hits diverged"
                );
            }
        }
        let counters = cache.counters();
        assert!(
            counters.hits > 0,
            "α={alpha}: overlapping workload never hit the cache"
        );
        // Second pass probes must all have hit (the first pass completed
        // every element's stream, so every list was cached).
        let probes_per_pass: u64 = queries.iter().map(|q| q.len() as u64).sum();
        assert!(
            counters.hits >= probes_per_pass,
            "α={alpha}: second pass should be all hits ({counters:?})"
        );
    }
}

#[test]
fn generation_bump_isolates_repository_mutations() {
    // Same cache instance across a "repo swap" — the serving-layer pattern
    // where embeddings/sets are rebuilt and the engine is re-created.
    let repo_v1 = build_repo(21, 30);
    let repo_v2 = build_repo(22, 30); // different contents, same stems
    let sim_v1 = Arc::new(QGramJaccard::new(&repo_v1, 3));
    let sim_v2 = Arc::new(QGramJaccard::new(&repo_v2, 3));
    let cache = Arc::new(TokenKnnCache::new(8 << 20));

    let engine_v1 = Koios::new(
        Arc::clone(&repo_v1),
        sim_v1,
        KoiosConfig::new(3, 0.4).with_token_cache(Arc::clone(&cache)),
    );
    for q in workload(&repo_v1, 3, 8) {
        engine_v1.search(&q);
    }
    assert!(!cache.is_empty(), "v1 searches populated the cache");

    // Swap worlds: bump, then serve v2 from the same cache object.
    cache.bump_generation();
    assert_eq!(cache.len(), 0);

    let cold_v2 = Koios::new(
        Arc::clone(&repo_v2),
        sim_v2.clone(),
        KoiosConfig::new(3, 0.4),
    );
    let engine_v2 = Koios::new(
        Arc::clone(&repo_v2),
        sim_v2,
        KoiosConfig::new(3, 0.4).with_token_cache(Arc::clone(&cache)),
    );
    for q in workload(&repo_v2, 5, 8) {
        let expect = cold_v2.search(&q);
        let got = engine_v2.search(&q);
        assert_eq!(got.hits, expect.hits, "post-bump query {q:?} diverged");
        // Nothing served may predate the bump.
        assert_eq!(
            got.stats.knn_cache.hits + got.stats.knn_cache.misses,
            q.len(),
            "every element probed exactly once"
        );
    }
    let snap = cache.snapshot();
    assert_eq!(snap.generation, 1);
    assert!(snap.entries > 0, "v2 searches repopulated the cache");
}

#[test]
fn partitioned_engines_share_the_cache_exactly() {
    let repo = build_repo(31, 60);
    let sim = Arc::new(QGramJaccard::new(&repo, 3));
    let queries = workload(&repo, 9, 6);

    let plain = PartitionedKoios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(3, 0.4),
        4,
        42,
    );
    let cache = Arc::new(TokenKnnCache::new(8 << 20));
    let caching = PartitionedKoios::new(
        Arc::clone(&repo),
        sim,
        KoiosConfig::new(3, 0.4).with_token_cache(Arc::clone(&cache)),
        4,
        42,
    );
    for q in &queries {
        assert_eq!(
            caching.search(q).hits,
            plain.search(q).hits,
            "partitioned cached search diverged for {q:?}"
        );
    }
    // Per-element lists are partition-independent: 4 partitions probing the
    // same element share one entry, so hits dominate misses.
    let c = cache.counters();
    assert!(c.hits > c.misses, "partitions should share lists: {c:?}");
}
