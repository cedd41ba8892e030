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
    // Per-element lists are partition-independent: a query fetches once for
    // all 4 partitions, so each distinct element of the workload misses
    // once, and every later query holding it hits.
    let distinct: std::collections::BTreeSet<TokenId> = queries.iter().flatten().copied().collect();
    let probes: usize = queries.iter().map(Vec::len).sum();
    let c = cache.counters();
    assert_eq!(c.misses, distinct.len() as u64, "{c:?}");
    assert_eq!(c.hits, (probes - distinct.len()) as u64, "{c:?}");
}

/// The service's token cache across live batches, on both layouts: every
/// reply of a token-cached `SearchService` equals a cache-less
/// `MutableEngine` that applied the same ops, at the same epoch. The
/// script interns a query token that was queried (by id) while out of
/// vocabulary, inserts tokens whose vectors lie within α of cached query
/// tokens and tokens far from them, and removes sets — so entries are
/// replayed across batches, refused and rescanned.
#[test]
fn ingest_keeps_cached_lists_exactly_where_they_still_cover() {
    use koios::datagen::corpus::{Corpus, CorpusSpec};
    let mut spec = CorpusSpec::small(17);
    spec.num_sets = 60;
    spec.vocab_size = 240;
    spec.clusters = 30;
    spec.set_size_min = 3;
    spec.set_size_max = 10;
    let corpus = Corpus::generate(spec);
    let repo = Arc::new(corpus.repository);
    let emb = Arc::new(corpus.embeddings);
    let row = |t: TokenId| emb.get(t).expect("corpus tokens carry vectors").to_vec();
    let near = |t: TokenId| {
        let mut r = row(t);
        r[0] += 0.01;
        r
    };
    let far = |t: TokenId| row(t).into_iter().map(|x| -x).collect::<Vec<f32>>();
    let insert = |name: &str, tokens: &[&str], vectors: Vec<(&str, Vec<f32>)>| CorpusOp::Insert {
        name: name.into(),
        tokens: tokens.iter().map(|t| t.to_string()).collect(),
        vectors: vectors
            .into_iter()
            .map(|(t, v)| (t.to_string(), v))
            .collect(),
    };

    let novel = TokenId(repo.vocab_size() as u32);
    let mut queries: Vec<Vec<TokenId>> = (0..6)
        .map(|s| repo.set(SetId(s)).iter().copied().take(4).collect())
        .collect();
    queries.push(vec![repo.set(SetId(0))[0], novel]);
    let (a, b) = (queries[0][0], queries[1][1]);
    let name = |t: TokenId| repo.token_str(t).to_string();
    let batches = vec![
        // Interns `novel` (queried while out of vocabulary) near `a`.
        vec![insert(
            "novel-set",
            &["novel", &name(a)],
            vec![("novel", near(a))],
        )],
        // Far from `b`: `b`'s lists replay if nothing else reaches α.
        vec![insert(
            "far-set",
            &["far-b", &name(b)],
            vec![("far-b", far(b))],
        )],
        vec![CorpusOp::remove(SetId(1)), CorpusOp::remove(SetId(3))],
        // Within α of `b` and of `novel`: both lists must rescan.
        vec![
            insert("near-b", &["near-b"], vec![("near-b", near(b))]),
            insert(
                "near-novel",
                &["near-novel", "novel"],
                vec![("near-novel", near(a))],
            ),
        ],
        vec![insert("plain", &[&name(a), &name(b)], vec![])],
    ];

    for partitions in [1, 3] {
        let engine = |cfg: KoiosConfig| {
            let (r, e) = (Arc::clone(&repo), Some(Arc::clone(&emb)));
            match partitions {
                1 => MutableEngine::single(r, e, cfg, cosine_factory()),
                p => MutableEngine::partitioned(r, e, cfg, p, 41, cosine_factory()),
            }
            .unwrap()
        };
        let svc = SearchService::from_mutable(
            engine(KoiosConfig::new(5, 0.8)),
            ServiceConfig::new().with_workers(1),
        );
        let mut reference = engine(KoiosConfig::new(5, 0.8));
        let mut replayed_across_batches = 0;
        for (step, ops) in std::iter::once(Vec::new())
            .chain(batches.clone())
            .enumerate()
        {
            if !ops.is_empty() {
                svc.ingest(&ops).unwrap();
                reference.apply(&ops).unwrap();
            }
            assert_eq!(
                svc.token_cache().unwrap().snapshot().generation,
                0,
                "a batch never bumps the generation"
            );
            let expect = reference.backend();
            for pass in 0..2 {
                for q in &queries {
                    let got = svc.search(SearchRequest::new(q.clone()).bypassing_cache());
                    let want = expect.search(q);
                    assert_eq!(
                        (got.result.stats.epoch, &got.result.hits),
                        (want.stats.epoch, &want.hits),
                        "partitions={partitions} step={step} pass={pass} query={q:?}"
                    );
                    if step > 0 && pass == 0 {
                        replayed_across_batches += got.result.stats.knn_cache.hits;
                    }
                }
            }
        }
        assert_eq!(svc.repository().token_id("novel"), Some(novel));
        assert!(
            replayed_across_batches > 0,
            "partitions={partitions}: no list survived a batch"
        );
    }
}
