//! Extension features: the MinHash-LSH token index (§IV's pluggable index),
//! the many-to-1 overlap (§X future work), and result auditing.

use koios::prelude::*;
use koios_core::audit::{audit_result, AuditOutcome};
use koios_core::many_to_one::{bounded_many_to_one_overlap, many_to_one_overlap};
use koios_core::overlap::semantic_overlap;
use koios_core::SharedTheta;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use koios_index::minhash::{vocabulary_grams, MinHashIndex, MinHashKnn, MinHashParams};
use std::sync::Arc;

fn corpus(seed: u64) -> Corpus {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 120;
    s.vocab_size = 500;
    Corpus::generate(s)
}

#[test]
fn koios_over_minhash_source_matches_exact_scan() {
    // With b=32, r=4 the LSH recall at J >= 0.6 is ≈1; the full engine over
    // the LSH source must return the same top-k as over the exact scan.
    let repo = Arc::new(corpus(2001).repository);
    let sim_qg = Arc::new(QGramJaccard::new(&repo, 3));
    let sim: Arc<dyn ElementSimilarity> = sim_qg.clone();
    let mut cfg = KoiosConfig::new(5, 0.6);
    cfg.no_em_filter = false;
    let engine = Koios::new(Arc::clone(&repo), sim.clone(), cfg);

    let grams = vocabulary_grams(&repo, 3);
    let lsh = Arc::new(MinHashIndex::build(&grams, MinHashParams::default()));

    for probe in [0u32, 33, 77] {
        let query = repo.set(SetId(probe)).to_vec();
        let exact = engine.search(&query);
        let source = MinHashKnn::new(Arc::clone(&lsh), Arc::clone(&sim_qg), query.clone(), 0.6);
        let via_lsh = engine.search_with_source(query.clone(), source, &SharedTheta::new());
        assert_eq!(exact.hits.len(), via_lsh.hits.len(), "probe {probe}");
        for (a, b) in exact.hits.iter().zip(&via_lsh.hits) {
            assert_eq!(a.set, b.set, "probe {probe}");
            assert!((a.score.ub() - b.score.ub()).abs() < 1e-9);
        }
        // And the result is valid per the auditor.
        assert_eq!(
            audit_result(&repo, sim.as_ref(), 0.6, 5, &query, &via_lsh),
            AuditOutcome::Valid
        );
    }
}

#[test]
fn many_to_one_upper_bounds_def1_everywhere() {
    let c = corpus(2002);
    let repo = &c.repository;
    let sim = CosineSimilarity::new(Arc::new(c.embeddings.clone()));
    let query = repo.set(SetId(5)).to_vec();
    for (id, _) in repo.iter_sets().take(40) {
        let one = semantic_overlap(repo, &sim, 0.8, &query, id);
        let many = many_to_one_overlap(repo, &sim, 0.8, &query, id);
        assert!(
            many >= one - 1e-9,
            "set {id:?}: m21 {many} < one-to-one {one}"
        );
        let cap2 = bounded_many_to_one_overlap(repo, &sim, 0.8, &query, id, 2);
        assert!(cap2 >= one - 1e-9 && cap2 <= many + 1e-9);
    }
}

#[test]
fn audit_catches_paper_mode_if_it_ever_misfires() {
    // PaperGreedy is expected-exact on clustered embeddings; the auditor
    // double-checks a real search end to end.
    let c = corpus(2003);
    let repo = Arc::new(c.repository);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    let engine = Koios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(4, 0.8).with_ub_mode(UbMode::PaperGreedy),
    );
    let query = repo.set(SetId(50)).to_vec();
    let res = engine.search(&query);
    assert_eq!(
        audit_result(&repo, sim.as_ref(), 0.8, 4, &query, &res),
        AuditOutcome::Valid
    );
}
