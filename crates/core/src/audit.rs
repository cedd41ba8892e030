//! Result auditing: certify a [`SearchResult`] against brute force.
//!
//! Filters are performance features; this module provides the runtime
//! counterpart of the exactness tests — a way for a deployment to spot-check
//! that a returned top-k is a valid solution of Def. 2, and the reference
//! the differential tests compare a search against.

use crate::overlap::semantic_overlap;
use crate::result::{ScoreBound, SearchResult};
use koios_common::{SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;

/// The verdict of an audit.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditOutcome {
    /// The result is a valid top-k under Def. 2 and all reported scores /
    /// intervals are consistent with the true overlaps.
    Valid,
    /// A returned set scores below the true k-th best (a false positive /
    /// missed better set).
    NotTopK {
        /// The offending returned set.
        set: SetId,
        /// Its true semantic overlap.
        truth: f64,
        /// The true k-th best overlap it fails to reach.
        theta_k: f64,
    },
    /// A reported exact score or interval contradicts the true overlap.
    WrongScore {
        /// The offending returned set.
        set: SetId,
        /// Its true semantic overlap.
        truth: f64,
        /// What the result reported.
        reported: ScoreBound,
    },
    /// The result has fewer hits than candidates with non-zero overlap.
    TooFewHits {
        /// Hits returned.
        returned: usize,
        /// `min(k, #sets with SO > 0)`.
        expected: usize,
    },
}

/// Audits `result` for query `query` by brute-force scoring the whole
/// repository (expensive — `O(|L|)` Hungarian runs; meant for spot checks).
pub fn audit_result(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    k: usize,
    query: &[TokenId],
    result: &SearchResult,
) -> AuditOutcome {
    const EPS: f64 = 1e-9;
    let mut q = query.to_vec();
    q.sort_unstable();
    q.dedup();
    let mut scores: Vec<f64> = repo
        .iter_sets()
        .map(|(id, _)| semantic_overlap(repo, sim, alpha, &q, id))
        .filter(|s| *s > 0.0)
        .collect();
    scores.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
    let expected = k.min(scores.len());
    if result.hits.len() != expected {
        return AuditOutcome::TooFewHits {
            returned: result.hits.len(),
            expected,
        };
    }
    if expected == 0 {
        return AuditOutcome::Valid;
    }
    let theta_k = scores[expected - 1];
    for hit in &result.hits {
        let truth = semantic_overlap(repo, sim, alpha, &q, hit.set);
        if truth < theta_k - EPS {
            return AuditOutcome::NotTopK {
                set: hit.set,
                truth,
                theta_k,
            };
        }
        let consistent = match hit.score {
            ScoreBound::Exact(s) => (s - truth).abs() < EPS,
            ScoreBound::Range { lb, ub } => lb <= truth + EPS && truth <= ub + EPS,
        };
        if !consistent {
            return AuditOutcome::WrongScore {
                set: hit.set,
                truth,
                reported: hit.score,
            };
        }
    }
    AuditOutcome::Valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KoiosConfig;
    use crate::engine::Koios;
    use crate::result::Hit;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;
    use std::sync::Arc;

    fn setup() -> (Arc<Repository>, Vec<TokenId>) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c"]);
        b.add_set("s1", ["a", "b", "x"]);
        b.add_set("s2", ["a", "y", "z"]);
        let repo = Arc::new(b.build());
        let q = repo.intern_query(["a", "b", "c"]);
        (repo, q)
    }

    #[test]
    fn real_search_results_audit_valid() {
        let (repo, q) = setup();
        let engine = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
        );
        let res = engine.search(&q);
        assert_eq!(
            audit_result(&repo, &EqualitySimilarity, 0.9, 2, &q, &res),
            AuditOutcome::Valid
        );
    }

    #[test]
    fn detects_non_topk_member() {
        let (repo, q) = setup();
        let forged = SearchResult {
            hits: vec![
                Hit {
                    set: SetId(0),
                    score: ScoreBound::Exact(3.0),
                },
                Hit {
                    set: SetId(2),
                    score: ScoreBound::Exact(1.0),
                }, // true SO 1 < θ2 = 2
            ],
            stats: Default::default(),
        };
        match audit_result(&repo, &EqualitySimilarity, 0.9, 2, &q, &forged) {
            AuditOutcome::NotTopK { set, theta_k, .. } => {
                assert_eq!(set, SetId(2));
                assert!((theta_k - 2.0).abs() < 1e-9);
            }
            other => panic!("expected NotTopK, got {other:?}"),
        }
    }

    #[test]
    fn detects_wrong_score() {
        let (repo, q) = setup();
        let forged = SearchResult {
            hits: vec![
                Hit {
                    set: SetId(0),
                    score: ScoreBound::Exact(99.0),
                },
                Hit {
                    set: SetId(1),
                    score: ScoreBound::Exact(2.0),
                },
            ],
            stats: Default::default(),
        };
        assert!(matches!(
            audit_result(&repo, &EqualitySimilarity, 0.9, 2, &q, &forged),
            AuditOutcome::WrongScore { set: SetId(0), .. }
        ));
    }

    #[test]
    fn detects_missing_hits() {
        let (repo, q) = setup();
        let forged = SearchResult {
            hits: vec![Hit {
                set: SetId(0),
                score: ScoreBound::Exact(3.0),
            }],
            stats: Default::default(),
        };
        assert!(matches!(
            audit_result(&repo, &EqualitySimilarity, 0.9, 2, &q, &forged),
            AuditOutcome::TooFewHits {
                returned: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn interval_scores_accepted_when_containing_truth() {
        let (repo, q) = setup();
        let res = SearchResult {
            hits: vec![
                Hit {
                    set: SetId(0),
                    score: ScoreBound::Range { lb: 2.5, ub: 3.5 },
                },
                Hit {
                    set: SetId(1),
                    score: ScoreBound::Exact(2.0),
                },
            ],
            stats: Default::default(),
        };
        assert_eq!(
            audit_result(&repo, &EqualitySimilarity, 0.9, 2, &q, &res),
            AuditOutcome::Valid
        );
    }
}
