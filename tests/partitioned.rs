//! Partitioned search must return the same top-k scores as a single-engine
//! search regardless of the partition count (paper §VI: a shared global
//! `θlb` makes partition-local pruning globally sound).

use koios::prelude::*;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use std::sync::Arc;

const EPS: f64 = 1e-9;

/// A generated corpus's repository and the cosine similarity over its
/// embeddings.
fn corpus(seed: u64) -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let mut s = CorpusSpec::small(seed);
    s.num_sets = 180;
    s.vocab_size = 700;
    s.clusters = 90;
    let c = Corpus::generate(s);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    (Arc::new(c.repository), sim)
}

#[test]
fn partition_counts_agree_on_scores() {
    let (repo, sim) = corpus(900);
    let query = repo.set(SetId(8)).to_vec();
    let mut cfg = KoiosConfig::new(6, 0.8);
    cfg.no_em_filter = false; // exact scores from the single engine
    let single = Koios::new(Arc::clone(&repo), sim.clone(), cfg.clone()).search(&query);
    let reference: Vec<f64> = single
        .hits
        .iter()
        .map(|h| h.score.exact().unwrap())
        .collect();
    for parts in [1usize, 2, 5, 10, 32] {
        let engine = PartitionedKoios::new(
            Arc::clone(&repo),
            sim.clone(),
            KoiosConfig::new(6, 0.8),
            parts,
            0xBEEF,
        );
        let res = engine.search(&query);
        let scores: Vec<f64> = res.hits.iter().map(|h| h.score.exact().unwrap()).collect();
        assert_eq!(scores.len(), reference.len(), "partitions={parts}");
        for (a, b) in scores.iter().zip(&reference) {
            assert!(
                (a - b).abs() < EPS,
                "partitions={parts}: {scores:?} vs {reference:?}"
            );
        }
    }
}

#[test]
fn partitioned_handles_k_larger_than_partition_yield() {
    // With many partitions most hold few (or zero) relevant sets; merging
    // must still assemble the global top-k.
    let (repo, sim) = corpus(901);
    let query = repo.set(SetId(40)).to_vec();
    let engine = PartitionedKoios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(12, 0.8),
        40,
        7,
    );
    let res = engine.search(&query);
    assert!(res.hits.len() <= 12);
    assert!(!res.hits.is_empty());
    for w in res.hits.windows(2) {
        assert!(w[0].score.ub() + EPS >= w[1].score.ub());
    }
}

/// Regression (merge-deadline fix): a partitioned search whose deadline
/// has already passed must perform **zero** exact verifications — shard-side
/// or merge-side — while reporting the timeout honestly, and every interval
/// it returns must still contain the exact overlap.
#[test]
fn expired_budget_runs_no_exact_verification() {
    let (repo, sim) = corpus(903);
    let query = repo.set(SetId(5)).to_vec();
    let engine = PartitionedKoios::new(Arc::clone(&repo), sim, KoiosConfig::new(6, 0.8), 4, 7);
    let expired = std::time::Instant::now() - std::time::Duration::from_millis(1);
    let res = engine.search_with_deadline(&query, Some(expired));
    assert!(res.stats.timed_out);
    assert_eq!(res.stats.em_full, 0, "expired deadline must not verify");
    for hit in &res.hits {
        if let ScoreBound::Range { lb, ub } = hit.score {
            let truth = engine.exact_overlap(&query, hit.set);
            assert!(
                lb <= truth + EPS && truth <= ub + EPS,
                "{:?}: SO {truth} outside [{lb}, {ub}]",
                hit.set
            );
        }
    }
}

/// The absolute-deadline entry point with a generous deadline is exact and
/// agrees with the budget-free search.
#[test]
fn generous_deadline_matches_unbounded_search() {
    let (repo, sim) = corpus(904);
    let query = repo.set(SetId(9)).to_vec();
    let engine = PartitionedKoios::new(Arc::clone(&repo), sim, KoiosConfig::new(6, 0.8), 5, 7);
    let free = engine.search(&query);
    let far = std::time::Instant::now() + std::time::Duration::from_secs(600);
    let bounded = engine.search_with_deadline(&query, Some(far));
    assert!(!bounded.stats.timed_out);
    assert_eq!(free.hits.len(), bounded.hits.len());
    for (a, b) in free.hits.iter().zip(&bounded.hits) {
        assert!((a.score.ub() - b.score.ub()).abs() < EPS);
    }
}

#[test]
fn partition_seed_changes_sharding_not_results() {
    let (repo, sim) = corpus(902);
    let query = repo.set(SetId(3)).to_vec();
    let r1 = PartitionedKoios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(5, 0.8),
        6,
        1,
    )
    .search(&query);
    let r2 = PartitionedKoios::new(
        Arc::clone(&repo),
        sim.clone(),
        KoiosConfig::new(5, 0.8),
        6,
        2,
    )
    .search(&query);
    let s1: Vec<f64> = r1.hits.iter().map(|h| h.score.exact().unwrap()).collect();
    let s2: Vec<f64> = r2.hits.iter().map(|h| h.score.exact().unwrap()).collect();
    assert_eq!(s1.len(), s2.len());
    for (a, b) in s1.iter().zip(&s2) {
        assert!((a - b).abs() < EPS);
    }
}
