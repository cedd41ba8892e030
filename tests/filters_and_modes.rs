//! Every filter combination must preserve top-k validity: the filters are
//! performance features, never correctness features (paper §VII-A).

use koios::prelude::*;
use koios_core::overlap::semantic_overlap;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;

const EPS: f64 = 1e-9;

/// A generated corpus's repository and the cosine similarity over its
/// embeddings.
fn corpus(seed: u64) -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 120;
    s.vocab_size = 500;
    s.clusters = 60;
    let c = Corpus::generate(s);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    (Arc::new(c.repository), sim)
}

fn assert_valid_topk(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    k: usize,
    query: &[koios_common::TokenId],
    result: &SearchResult,
    label: &str,
) {
    let mut oracle: Vec<f64> = repo
        .iter_sets()
        .map(|(id, _)| semantic_overlap(repo, sim, alpha, query, id))
        .filter(|s| *s > 0.0)
        .collect();
    oracle.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let expected_len = k.min(oracle.len());
    assert_eq!(result.hits.len(), expected_len, "{label}");
    if expected_len == 0 {
        return;
    }
    let theta_k = oracle[expected_len - 1];
    for hit in &result.hits {
        let truth = semantic_overlap(repo, sim, alpha, query, hit.set);
        assert!(
            truth >= theta_k - EPS,
            "{label}: {:?} scored {truth} < θk {theta_k}",
            hit.set
        );
    }
}

#[test]
fn all_filter_combinations_are_valid() {
    let (repo, sim) = corpus(400);
    let query = repo.set(SetId(4)).to_vec();
    let k = 5;
    let alpha = 0.8;
    for iub in [true, false] {
        for no_em in [true, false] {
            for early in [true, false] {
                for verify_all in [true, false] {
                    let mut cfg = KoiosConfig::new(k, alpha);
                    cfg.iub_filter = iub;
                    cfg.no_em_filter = no_em && !verify_all;
                    cfg.em_early_termination = early && !verify_all;
                    cfg.verify_all = verify_all;
                    let engine = Koios::new(Arc::clone(&repo), sim.clone(), cfg);
                    let res = engine.search(&query);
                    assert_valid_topk(
                        &repo,
                        sim.as_ref(),
                        alpha,
                        k,
                        &query,
                        &res,
                        &format!("iub={iub} no_em={no_em} early={early} all={verify_all}"),
                    );
                }
            }
        }
    }
}

#[test]
fn paper_greedy_mode_is_valid_on_clustered_embeddings() {
    // The PaperGreedy iUB is unsound in the worst case (DESIGN §2) but the
    // counterexample needs near-metric violations that clustered embeddings
    // do not produce; the paper's own datasets behave the same way.
    for seed in [500, 501, 502] {
        let (repo, sim) = corpus(seed);
        let cfg = KoiosConfig::new(5, 0.8).with_ub_mode(UbMode::PaperGreedy);
        let engine = Koios::new(Arc::clone(&repo), sim.clone(), cfg);
        let query = repo.set(SetId(17)).to_vec();
        let res = engine.search(&query);
        assert_valid_topk(
            &repo,
            sim.as_ref(),
            0.8,
            5,
            &query,
            &res,
            &format!("paper-greedy {seed}"),
        );
    }
}

#[test]
fn sweep_interval_does_not_change_results() {
    let (repo, sim) = corpus(600);
    let query = repo.set(SetId(9)).to_vec();
    let mut baseline_scores: Option<Vec<f64>> = None;
    for interval in [1usize, 8, 64, 4096] {
        let mut cfg = KoiosConfig::new(4, 0.8);
        cfg.sweep_interval = interval;
        cfg.no_em_filter = false; // exact scores for comparison
        let res = Koios::new(Arc::clone(&repo), sim.clone(), cfg).search(&query);
        let scores: Vec<f64> = res.hits.iter().map(|h| h.score.exact().unwrap()).collect();
        match &baseline_scores {
            None => baseline_scores = Some(scores),
            Some(b) => {
                assert_eq!(b.len(), scores.len(), "interval {interval}");
                for (x, y) in b.iter().zip(&scores) {
                    assert!((x - y).abs() < EPS, "interval {interval}");
                }
            }
        }
    }
}

#[test]
fn parallel_em_matches_sequential_scores() {
    let (repo, sim) = corpus(700);
    let query = repo.set(SetId(33)).to_vec();
    let mut cfg = KoiosConfig::new(6, 0.8);
    cfg.no_em_filter = false;
    let seq = Koios::new(Arc::clone(&repo), sim.clone(), cfg.clone()).search(&query);
    let par = Koios::new(Arc::clone(&repo), sim.clone(), cfg.with_parallel_em(8)).search(&query);
    let s: Vec<f64> = seq.hits.iter().map(|h| h.score.exact().unwrap()).collect();
    let p: Vec<f64> = par.hits.iter().map(|h| h.score.exact().unwrap()).collect();
    assert_eq!(s.len(), p.len());
    for (a, b) in s.iter().zip(&p) {
        assert!((a - b).abs() < EPS);
    }
}

#[test]
fn filters_only_reduce_work() {
    // Monotonicity of the filter stack: Baseline ≥ Baseline+ ≥ Koios in
    // exact matchings (the §VIII-B cost story).
    let (repo, sim) = corpus(800);
    let query = repo.set(SetId(2)).to_vec();
    let base = Koios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(5, 0.8).baseline(),
    )
    .search(&query);
    let plus = Koios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(5, 0.8).baseline_plus(),
    )
    .search(&query);
    let koios = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(5, 0.8)).search(&query);
    assert!(plus.stats.em_full <= base.stats.em_full);
    assert!(koios.stats.em_full <= plus.stats.em_full);
    // Identical top-k scores across the stack.
    for (a, b) in base.hits.iter().zip(&plus.hits) {
        assert!((a.score.ub() - b.score.ub()).abs() < EPS);
    }
    for (a, b) in base.hits.iter().zip(&koios.hits) {
        assert!(
            a.score.ub() + EPS >= b.score.lb() && b.score.ub() + EPS >= a.score.lb(),
            "koios hit bounds inconsistent with baseline"
        );
    }
}
