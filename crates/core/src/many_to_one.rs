//! Many-to-1 semantic overlap — the paper's §X future-work extension.
//!
//! The one-to-one matching of Def. 1 undercounts when the *query* contains
//! spelling variants of the same entity: with
//! `Q = {United States of America, United States}` and `C = {USA}`, only
//! one query element can match `USA`. The proposed extension allows a
//! many-to-1 mapping `M: Q → C` (several query elements may map to the same
//! candidate element).
//!
//! With the candidate side unconstrained, the optimisation decomposes per
//! query element: every `q` independently picks its best partner, so
//!
//! ```text
//! SO_m21(Q, C) = Σ_{q ∈ Q} max_{c ∈ C} simα(q, c)
//! ```
//!
//! — no assignment problem, `O(|Q|·|C|)` exact evaluation, and the row-max
//! refinement bound (ARCHITECTURE.md, Deviations 1) becomes *exact* for
//! this measure. A bounded variant (`capacity ≥ 2`) interpolates back towards
//! Def. 1 and is solved by column duplication.

use koios_common::{SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_matching::{solve_max_matching, WeightMatrix};

/// The many-to-1 semantic overlap `Σ_q max_c simα(q, c)`.
pub fn many_to_one_overlap(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: SetId,
) -> f64 {
    let elems = repo.set(set);
    let mut w = vec![0.0; query.len() * elems.len()];
    sim.fill_matrix(query, elems, alpha, &mut w);
    let mut total = 0.0;
    for row in w.chunks(elems.len().max(1)) {
        total += row.iter().copied().fold(0.0, f64::max);
    }
    total
}

/// Capacity-bounded variant: each candidate element may absorb at most
/// `capacity` query elements (capacity 1 = Def. 1; `usize::MAX` ≈
/// [`many_to_one_overlap`]). Solved exactly by duplicating candidate
/// columns `capacity` times, so keep `capacity` small.
pub fn bounded_many_to_one_overlap(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: SetId,
    capacity: usize,
) -> f64 {
    assert!(capacity >= 1, "capacity must be at least 1");
    let elems = repo.set(set);
    if capacity == 1 {
        return crate::overlap::semantic_overlap(repo, sim, alpha, query, set);
    }
    let cap = capacity.min(query.len());
    let mut base = vec![0.0; query.len() * elems.len()];
    sim.fill_matrix(query, elems, alpha, &mut base);
    let m = WeightMatrix::from_fn(query.len(), elems.len() * cap, |i, j| {
        base[i * elems.len() + j % elems.len()]
    });
    solve_max_matching(&m, None).score()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::semantic_overlap;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::QGramJaccard;

    fn setup() -> (Repository, Vec<TokenId>, SetId) {
        let mut b = RepositoryBuilder::new();
        let c = b.add_set("c", ["UnitedStates", "Canada"]);
        let mut repo = b.build();
        let q = repo.intern_query_mut(["UnitedStates", "UnitedStatesOfAmerica", "Canada"]);
        let _ = QGramJaccard::new(&repo, 3);
        (repo, q, c)
    }

    #[test]
    fn many_to_one_dominates_one_to_one() {
        let (repo, q, c) = setup();
        let sim = QGramJaccard::new(&repo, 3);
        let one = semantic_overlap(&repo, &sim, 0.4, &q, c);
        let many = many_to_one_overlap(&repo, &sim, 0.4, &q, c);
        // Both "UnitedStates" variants can now map to the same element.
        assert!(many > one + 0.1, "many {many} vs one {one}");
    }

    #[test]
    fn capacity_one_equals_def1() {
        let (repo, q, c) = setup();
        let sim = QGramJaccard::new(&repo, 3);
        let a = bounded_many_to_one_overlap(&repo, &sim, 0.4, &q, c, 1);
        let b = semantic_overlap(&repo, &sim, 0.4, &q, c);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn capacity_interpolates_monotonically() {
        let (repo, q, c) = setup();
        let sim = QGramJaccard::new(&repo, 3);
        let mut last = 0.0;
        for cap in 1..=3 {
            let v = bounded_many_to_one_overlap(&repo, &sim, 0.4, &q, c, cap);
            assert!(v + 1e-9 >= last, "capacity {cap} decreased the score");
            last = v;
        }
        // Unbounded equals the per-row maximum sum.
        let many = many_to_one_overlap(&repo, &sim, 0.4, &q, c);
        let big = bounded_many_to_one_overlap(&repo, &sim, 0.4, &q, c, q.len());
        assert!((many - big).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let (repo, _, c) = setup();
        let sim = QGramJaccard::new(&repo, 3);
        assert_eq!(many_to_one_overlap(&repo, &sim, 0.4, &[], c), 0.0);
    }
}
