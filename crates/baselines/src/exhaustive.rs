//! The exhaustive Baseline and Baseline+ (paper §VIII-A4).
//!
//! The Baseline shares Koios' candidate generation (the token stream and
//! inverted index are needed just to find sets with non-zero overlap) but
//! then runs the cubic exact matching on *every* candidate, parallelised by
//! a thread pool. Baseline+ additionally activates the iUB filter — the
//! paper needs it on WDC where exhaustive verification is infeasible
//! (190k+ candidates for a cardinality-53 query).
//!
//! Both are thin wrappers over [`koios_core::Koios`] with the corresponding
//! [`KoiosConfig`] toggles; keeping them behind named functions documents
//! the experiment setup and pins `verify_all` semantics in one place.

use koios_common::TokenId;
use koios_core::{Koios, KoiosConfig, SearchResult};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use std::sync::Arc;
use std::time::Duration;

/// Runs the paper's Baseline: no iUB / No-EM / early-termination filters;
/// every candidate is verified (`em_threads`-way parallel).
pub fn baseline_search(
    repo: &Repository,
    sim: Arc<dyn ElementSimilarity>,
    query: &[TokenId],
    k: usize,
    alpha: f64,
    em_threads: usize,
    time_budget: Option<Duration>,
) -> SearchResult {
    let mut cfg = KoiosConfig::new(k, alpha)
        .baseline()
        .with_parallel_em(em_threads);
    cfg.time_budget = time_budget;
    Koios::new(owned_copy(repo), sim, cfg).search(query)
}

/// Runs Baseline+: exhaustive verification, but with the iUB filter
/// thinning the candidate set during refinement.
pub fn baseline_plus_search(
    repo: &Repository,
    sim: Arc<dyn ElementSimilarity>,
    query: &[TokenId],
    k: usize,
    alpha: f64,
    em_threads: usize,
    time_budget: Option<Duration>,
) -> SearchResult {
    let mut cfg = KoiosConfig::new(k, alpha)
        .baseline_plus()
        .with_parallel_em(em_threads);
    cfg.time_budget = time_budget;
    Koios::new(owned_copy(repo), sim, cfg).search(query)
}

/// The one place a repository is deep-copied to build an engine. Engines
/// own their corpus, but the baselines keep taking `&Repository` because
/// the perf ledger's exhaustive oracle (`bench/ledger`,
/// `matches_exhaustive`) calls them with a borrowed one. The copy costs a
/// few milliseconds on the benchmark corpora, next to the inverted index
/// every call builds anyway.
fn owned_copy(repo: &Repository) -> Arc<Repository> {
    Arc::new(repo.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_common::SetId;
    use koios_datagen::corpus::{Corpus, CorpusSpec};
    use koios_embed::sim::CosineSimilarity;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusSpec::small(31))
    }

    #[test]
    fn baseline_agrees_with_koios() {
        let c = corpus();
        let sim: Arc<dyn ElementSimilarity> =
            Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
        let query = c.repository.set(SetId(5)).to_vec();
        let base = baseline_search(&c.repository, sim.clone(), &query, 5, 0.8, 1, None);
        let engine = Koios::new(Arc::new(c.repository), sim, KoiosConfig::new(5, 0.8));
        let koios = engine.search(&query);
        assert_eq!(base.hits.len(), koios.hits.len());
        // Koios orders hits by upper bound and No-EM certified hits carry
        // intervals, so compare exact scores order-independently: each hit's
        // true overlap must lie in its interval, and the sorted score lists
        // of the two engines must agree.
        let mut ktruths: Vec<f64> = koios
            .hits
            .iter()
            .map(|k| {
                let truth = engine.exact_overlap(&query, k.set);
                assert!(
                    truth >= k.score.lb() - 1e-9 && truth <= k.score.ub() + 1e-9,
                    "truth {truth} outside koios [{}, {}]",
                    k.score.lb(),
                    k.score.ub()
                );
                truth
            })
            .collect();
        ktruths.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (b, kt) in base.hits.iter().zip(&ktruths) {
            let bs = b.score.exact().expect("baseline scores are exact");
            assert!((bs - kt).abs() < 1e-9, "baseline {bs} vs koios truth {kt}");
        }
    }

    #[test]
    fn baseline_verifies_every_candidate() {
        let c = corpus();
        let sim: Arc<dyn ElementSimilarity> =
            Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
        let query = c.repository.set(SetId(9)).to_vec();
        let res = baseline_search(&c.repository, sim, &query, 3, 0.8, 2, None);
        assert_eq!(res.stats.em_full, res.stats.candidates);
        assert_eq!(res.stats.iub_pruned, 0);
    }

    #[test]
    fn baseline_plus_prunes_but_stays_exact() {
        let c = corpus();
        let sim: Arc<dyn ElementSimilarity> =
            Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
        let query = c.repository.set(SetId(9)).to_vec();
        let plus = baseline_plus_search(&c.repository, sim.clone(), &query, 3, 0.8, 1, None);
        let base = baseline_search(&c.repository, sim, &query, 3, 0.8, 1, None);
        // Same result scores.
        let ps: Vec<f64> = plus.hits.iter().map(|h| h.score.ub()).collect();
        let bs: Vec<f64> = base.hits.iter().map(|h| h.score.ub()).collect();
        for (a, b) in ps.iter().zip(&bs) {
            assert!((a - b).abs() < 1e-9);
        }
        // Fewer (or equal) verifications thanks to the iUB filter.
        assert!(plus.stats.em_full <= base.stats.em_full);
    }

    #[test]
    fn tiny_time_budget_flags_timeout() {
        let c = corpus();
        let sim: Arc<dyn ElementSimilarity> =
            Arc::new(CosineSimilarity::new(Arc::new(c.embeddings.clone())));
        let query = c.repository.set(SetId(1)).to_vec();
        let res = baseline_search(
            &c.repository,
            sim,
            &query,
            3,
            0.8,
            1,
            Some(Duration::from_nanos(1)),
        );
        assert!(res.stats.timed_out);
    }
}
