//! Randomized end-to-end exactness: random small repositories of random
//! short strings under q-gram Jaccard similarity, Koios vs the brute-force
//! Hungarian oracle. This exercises degenerate shapes the seeded corpora
//! never produce (singleton sets, duplicate sets, empty-string tokens,
//! queries with out-of-vocabulary tokens).
//!
//! Originally written with `proptest`; rewritten as seeded random-case
//! loops because the offline build environment cannot vendor the crate.

use koios::prelude::*;
use koios_core::overlap::semantic_overlap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random token over the alphabet `a..=c`, length 0..=6 (empty strings
/// included on purpose — they are one of the degenerate shapes).
fn token(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..7usize);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..3u32) as u8) as char)
        .collect()
}

/// 1..20 sets of 1..8 tokens plus a 1..8-token query.
fn repo_case(rng: &mut StdRng) -> (Vec<Vec<String>>, Vec<String>) {
    let n_sets = rng.gen_range(1..20usize);
    let sets = (0..n_sets)
        .map(|_| {
            let n = rng.gen_range(1..8usize);
            (0..n).map(|_| token(rng)).collect()
        })
        .collect();
    let qn = rng.gen_range(1..8usize);
    let query = (0..qn).map(|_| token(rng)).collect();
    (sets, query)
}

#[test]
fn koios_is_exact_on_random_string_repos() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for _ in 0..48 {
        let (sets, query_strs) = repo_case(&mut rng);
        let k = rng.gen_range(1..6usize);
        let alpha = rng.gen_range(0.3..1.0f64);
        let no_em = rng.gen::<bool>();
        let iub = rng.gen::<bool>();

        let mut builder = RepositoryBuilder::new();
        for (i, s) in sets.iter().enumerate() {
            builder.add_set(&format!("s{i}"), s.iter().map(|x| x.as_str()));
        }
        let mut repo = builder.build();
        let query = repo.intern_query_mut(query_strs.iter().map(|x| x.as_str()));
        if query.is_empty() {
            continue;
        }
        let repo = Arc::new(repo);
        let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 2));

        let mut cfg = KoiosConfig::new(k, alpha);
        cfg.no_em_filter = no_em;
        cfg.iub_filter = iub;
        let engine = Koios::new(Arc::clone(&repo), sim.clone(), cfg.clone());
        let result = engine.search(&query);

        // Conservation holds on every search, explain or not: each
        // discovered candidate is pruned by a refinement filter or
        // enters post-processing.
        let st = &result.stats;
        assert!(st.funnel.is_none());
        if !st.timed_out {
            assert_eq!(
                st.candidates,
                st.ub_filter_pruned + st.iub_pruned + st.to_postprocess,
                "no_em={no_em} iub={iub}"
            );
        }

        // Oracle.
        let mut oracle: Vec<f64> = repo
            .iter_sets()
            .map(|(id, _)| semantic_overlap(&repo, sim.as_ref(), alpha, &query, id))
            .filter(|s| *s > 0.0)
            .collect();
        oracle.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let expected_len = k.min(oracle.len());
        assert_eq!(result.hits.len(), expected_len);
        if expected_len == 0 {
            continue;
        }
        let theta_k = oracle[expected_len - 1];
        for hit in &result.hits {
            let truth = semantic_overlap(&repo, sim.as_ref(), alpha, &query, hit.set);
            assert!(
                truth >= theta_k - 1e-9,
                "hit {:?} truth {truth} below θk {theta_k}",
                hit.set
            );
            assert!(hit.score.lb() <= truth + 1e-9);
            assert!(hit.score.ub() >= truth - 1e-9);
        }
    }
}

#[test]
fn vanilla_is_semantic_floor_on_random_repos() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    for _ in 0..48 {
        let (sets, query_strs) = repo_case(&mut rng);
        let alpha = rng.gen_range(0.3..1.0f64);

        let mut builder = RepositoryBuilder::new();
        for (i, s) in sets.iter().enumerate() {
            builder.add_set(&format!("s{i}"), s.iter().map(|x| x.as_str()));
        }
        let mut repo = builder.build();
        let query = repo.intern_query_mut(query_strs.iter().map(|x| x.as_str()));
        if query.is_empty() {
            continue;
        }
        let sim = QGramJaccard::new(&repo, 2);
        for (id, _) in repo.iter_sets() {
            let so = semantic_overlap(&repo, &sim, alpha, &query, id);
            let vo = repo.vanilla_overlap(&query, id) as f64;
            assert!(so >= vo - 1e-9, "Lemma 1 violated: {so} < {vo}");
        }
    }
}
