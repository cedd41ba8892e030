//! Direct semantic-overlap computation (Def. 1).
//!
//! These helpers build the α-thresholded similarity matrix between a query
//! and a candidate set and hand it to the Hungarian solver. They are the
//! verification step of Koios, the whole inner loop of the exhaustive
//! baseline, and the oracle for the exactness tests.
//!
//! The engine itself verifies through [`QueryEdges`] instead: the token
//! stream has already emitted every `≥ α` edge of the query by the time
//! post-processing starts, so the matching instance is looked up, not
//! recomputed.

use koios_common::{HeapSize, SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_matching::{greedy_matching, solve_max_matching, MatchOutcome, WeightMatrix};

/// Builds the bipartite weight matrix of `simα(q_i, c_j)` (query rows,
/// candidate columns).
pub fn similarity_matrix(
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: &[TokenId],
) -> WeightMatrix {
    let mut w = vec![0.0; query.len() * set.len()];
    sim.fill_matrix(query, set, alpha, &mut w);
    WeightMatrix::from_vec(query.len(), set.len(), w)
}

/// The work one verification performed — the funnel's verify stage, added
/// to [`SearchStats::matrix_cells`](crate::SearchStats::matrix_cells) and
/// `support_cells`. Returned by value so the parallel verification threads
/// of [`crate::postprocess`] can fold efforts after joining instead of
/// sharing a mutable accumulator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchingEffort {
    /// Matrix cells that were materialised: the full `|Q| × |C|`
    /// α-thresholded similarity matrix on the dense path, only the
    /// non-zero support on the [`QueryEdges`] path.
    pub matrix_cells: u64,
    /// Cells of the non-zero support the Hungarian solver actually relaxed
    /// (after dropping all-zero rows/columns); 0 when the support was
    /// empty and no solve ran.
    pub support_cells: u64,
}

impl MatchingEffort {
    /// Folds another verification's effort into this one.
    pub fn merge(&mut self, other: MatchingEffort) {
        self.matrix_cells += other.matrix_cells;
        self.support_cells += other.support_cells;
    }
}

/// The α-graph between one query and the vocabulary: every
/// `(query element, token, sim ≥ α)` edge the token stream emitted, grouped
/// by token (CSR over the distinct tokens, ascending).
///
/// [`crate::refine`] drains the stream to exhaustion before post-processing
/// starts, so the edges between the query and *any* candidate set are a
/// lookup into tuples the search has already seen.
/// [`overlap_bounded`](Self::overlap_bounded) builds from them exactly the
/// instance [`semantic_overlap_bounded_with_effort`] compacts out of the
/// dense matrix — without a single similarity evaluation. That equality
/// holds for an **exact, fully drained** stream only: an approximate source
/// or a stream cut by the deadline misses edges, and such searches keep
/// the dense path.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEdges {
    /// Number of query elements (rows of the dense matrix).
    query_len: usize,
    /// Distinct tokens with at least one edge, ascending.
    tokens: Vec<TokenId>,
    /// `edges[offsets[i]..offsets[i + 1]]` belong to `tokens[i]`.
    offsets: Vec<u32>,
    /// `(query element index, sim)`, ascending by index within a token.
    edges: Vec<(u32, f64)>,
}

impl QueryEdges {
    /// Groups stream tuples `(token, q_idx, sim)` — in any order — by token.
    /// Zero-weight tuples (only possible at `α = 0`) are not edges of the
    /// matching graph and are dropped, as the dense compaction drops them.
    pub fn from_tuples(query_len: usize, mut tuples: Vec<(TokenId, u32, f64)>) -> Self {
        tuples.retain(|&(_, _, s)| s > 0.0);
        tuples.sort_unstable_by_key(|&(t, q, _)| (t, q));
        let mut tokens = Vec::new();
        let mut offsets = Vec::new();
        let mut edges = Vec::with_capacity(tuples.len());
        for (t, q, s) in tuples {
            debug_assert!((q as usize) < query_len, "edge row outside the query");
            if tokens.last() != Some(&t) {
                tokens.push(t);
                offsets.push(edges.len() as u32);
            }
            edges.push((q, s));
        }
        offsets.push(edges.len() as u32);
        QueryEdges {
            query_len,
            tokens,
            offsets,
            edges,
        }
    }

    /// Number of edges held.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the stream emitted no edge at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// `SO(Q, C)` for a candidate given as its sorted token slice
    /// ([`Repository::set`]), with the Lemma-8 threshold `theta` — the
    /// outcome of [`semantic_overlap_bounded_with_effort`] bit for bit:
    /// same surviving rows and columns in the same order, same weights,
    /// hence the same score, pairs and early-termination bound.
    pub fn overlap_bounded(
        &self,
        set: &[TokenId],
        theta: Option<f64>,
    ) -> (MatchOutcome, MatchingEffort) {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        // Merge-join the sorted set against the sorted edge tokens: the
        // live columns (set position, token slot) and the rows they touch.
        let mut cols: Vec<(u32, usize)> = Vec::new();
        let mut rows: Vec<u32> = Vec::new();
        let mut row_of = vec![u32::MAX; self.query_len];
        let mut from = 0;
        for (j, t) in set.iter().enumerate() {
            let Ok(at) = self.tokens[from..].binary_search(t) else {
                continue;
            };
            let slot = from + at;
            from = slot + 1;
            cols.push((j as u32, slot));
            for &(q, _) in self.edges_of(slot) {
                if row_of[q as usize] == u32::MAX {
                    row_of[q as usize] = 0; // seen; numbered once `rows` is sorted
                    rows.push(q);
                }
            }
        }
        rows.sort_unstable();
        for (r, &q) in rows.iter().enumerate() {
            row_of[q as usize] = r as u32;
        }
        if rows.is_empty() {
            return (empty_matching(), MatchingEffort::default());
        }
        let mut w = vec![0.0; rows.len() * cols.len()];
        for (c, &(_, slot)) in cols.iter().enumerate() {
            for &(q, s) in self.edges_of(slot) {
                w[row_of[q as usize] as usize * cols.len() + c] = s;
            }
        }
        let cells = w.len() as u64;
        let compact = WeightMatrix::from_vec(rows.len(), cols.len(), w);
        let outcome = solve_remapped(&compact, theta, |r| rows[r], |c| cols[c].0);
        (
            outcome,
            MatchingEffort {
                matrix_cells: cells,
                support_cells: cells,
            },
        )
    }

    fn edges_of(&self, slot: usize) -> &[(u32, f64)] {
        &self.edges[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

impl HeapSize for QueryEdges {
    fn heap_size(&self) -> usize {
        self.tokens.heap_size() + self.offsets.heap_size() + self.edges.heap_size()
    }
}

/// Solves a compacted instance and reports the matched pairs in the
/// coordinates of the uncompacted one (`row`/`col` map compact indices back).
fn solve_remapped(
    compact: &WeightMatrix,
    theta: Option<f64>,
    row: impl Fn(usize) -> u32,
    col: impl Fn(usize) -> u32,
) -> MatchOutcome {
    match solve_max_matching(compact, theta) {
        MatchOutcome::Exact(mut mm) => {
            for p in mm.pairs.iter_mut() {
                *p = (row(p.0 as usize), col(p.1 as usize));
            }
            MatchOutcome::Exact(mm)
        }
        e => e,
    }
}

fn empty_matching() -> MatchOutcome {
    MatchOutcome::Exact(koios_matching::Matching {
        score: 0.0,
        pairs: Vec::new(),
    })
}

/// Drops all-zero rows and columns before solving: elements without a
/// single `≥ α` edge can never contribute to the matching, so the optimum
/// is unchanged while the `O(r²·c)` Hungarian instance shrinks to the
/// non-zero support (typically a small fraction of `|Q| × |C|` — this is
/// the sparsity the α threshold creates). Also reports the support size
/// the solver saw (the funnel's `support_cells`).
fn solve_compacted(m: &WeightMatrix, theta: Option<f64>) -> (MatchOutcome, u64) {
    let rows: Vec<usize> = (0..m.rows())
        .filter(|&i| m.row(i).iter().any(|&w| w > 0.0))
        .collect();
    if rows.is_empty() {
        return (empty_matching(), 0);
    }
    let cols: Vec<usize> = (0..m.cols())
        .filter(|&j| rows.iter().any(|&i| m.get(i, j) > 0.0))
        .collect();
    let support = (rows.len() * cols.len()) as u64;
    if rows.len() == m.rows() && cols.len() == m.cols() {
        return (solve_max_matching(m, theta), support);
    }
    let compact = WeightMatrix::from_fn(rows.len(), cols.len(), |i, j| m.get(rows[i], cols[j]));
    let outcome = solve_remapped(&compact, theta, |r| rows[r] as u32, |c| cols[c] as u32);
    (outcome, support)
}

/// The exact semantic overlap `SO(Q, C)`.
pub fn semantic_overlap(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: SetId,
) -> f64 {
    let m = similarity_matrix(sim, alpha, query, repo.set(set));
    solve_compacted(&m, None).0.score()
}

/// Exact semantic overlap with the Lemma-8 early-termination threshold:
/// aborts (returning the certified bound) once `SO(Q, C) < theta` is proven.
pub fn semantic_overlap_bounded(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: SetId,
    theta: Option<f64>,
) -> MatchOutcome {
    semantic_overlap_bounded_with_effort(repo, sim, alpha, query, set, theta).0
}

/// [`semantic_overlap_bounded`] plus the [`MatchingEffort`] the
/// verification performed — the EXPLAIN-mode entry point. The outcome is
/// identical to the plain call; only the bookkeeping differs.
pub fn semantic_overlap_bounded_with_effort(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: SetId,
    theta: Option<f64>,
) -> (MatchOutcome, MatchingEffort) {
    let m = similarity_matrix(sim, alpha, query, repo.set(set));
    let matrix_cells = (m.rows() * m.cols()) as u64;
    let (outcome, support_cells) = solve_compacted(&m, theta);
    (
        outcome,
        MatchingEffort {
            matrix_cells,
            support_cells,
        },
    )
}

/// The greedy matching score (Lemma 3 lower bound; also the non-exact
/// comparator of the paper's Example 2).
pub fn greedy_overlap(
    repo: &Repository,
    sim: &dyn ElementSimilarity,
    alpha: f64,
    query: &[TokenId],
    set: SetId,
) -> f64 {
    let m = similarity_matrix(sim, alpha, query, repo.set(set));
    greedy_matching(&m).score
}

#[cfg(test)]
mod effort_tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;

    #[test]
    fn effort_reports_matrix_and_support_sizes() {
        let mut b = RepositoryBuilder::new();
        let id = b.add_set("c", ["LA", "Blain", "NewYork"]);
        let r = b.build();
        // "Missing" is not in the vocabulary: intern_query drops it.
        let q = r.intern_query(["LA", "Blain", "Missing"]);
        assert_eq!(q.len(), 2);
        let (outcome, effort) =
            semantic_overlap_bounded_with_effort(&r, &EqualitySimilarity, 0.5, &q, id, None);
        assert_eq!(outcome.score(), 2.0);
        assert_eq!(effort.matrix_cells, 6); // full 2×3 materialised
        assert_eq!(effort.support_cells, 4); // 2 live rows × 2 live cols
        let plain = semantic_overlap_bounded(&r, &EqualitySimilarity, 0.5, &q, id, None);
        assert_eq!(plain.score(), outcome.score());

        let mut total = MatchingEffort::default();
        total.merge(effort);
        total.merge(effort);
        assert_eq!(total.matrix_cells, 12);
        assert_eq!(total.support_cells, 8);
    }

    #[test]
    fn edges_materialise_only_the_support() {
        let mut b = RepositoryBuilder::new();
        let id = b.add_set("c", ["LA", "Blain", "NewYork"]);
        let other = b.add_set("d", ["Boston"]);
        let r = b.build();
        let q = r.intern_query(["LA", "Blain"]);
        // The equality stream: each query element meets only itself.
        let tuples = q.iter().enumerate().map(|(i, &t)| (t, i as u32, 1.0));
        let edges = QueryEdges::from_tuples(q.len(), tuples.collect());
        assert_eq!(edges.len(), 2);
        let dense =
            semantic_overlap_bounded_with_effort(&r, &EqualitySimilarity, 0.5, &q, id, None);
        let (outcome, effort) = edges.overlap_bounded(r.set(id), None);
        assert_eq!(outcome, dense.0);
        assert_eq!(outcome.score(), 2.0);
        assert_eq!((effort.matrix_cells, effort.support_cells), (4, 4));
        assert_eq!(dense.1.matrix_cells, 6);
        // No shared edge: no instance, no solve.
        let (outcome, effort) = edges.overlap_bounded(r.set(other), Some(0.5));
        assert_eq!(outcome.score(), 0.0);
        assert_eq!(effort, MatchingEffort::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::{EqualitySimilarity, QGramJaccard};

    fn repo() -> Repository {
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton"]);
        b.add_set("c2", ["LA", "Blain", "NewYork"]);
        b.build()
    }

    #[test]
    fn equality_sim_reduces_to_vanilla_overlap() {
        let r = repo();
        let q = r.intern_query(["LA", "Blain", "Missing"]);
        for (id, _) in r.iter_sets() {
            let so = semantic_overlap(&r, &EqualitySimilarity, 0.5, &q, id);
            assert_eq!(so, r.vanilla_overlap(&q, id) as f64);
        }
    }

    #[test]
    fn vanilla_lower_bounds_semantic() {
        // Lemma 1.
        let mut b = RepositoryBuilder::new();
        b.add_set("c", ["Blaine", "Charlestown"]);
        let mut r = b.build();
        let q = r.intern_query_mut(["Blain", "Charlestown"]);
        let j = QGramJaccard::new(&r, 3);
        for (id, _) in r.iter_sets() {
            let so = semantic_overlap(&r, &j, 0.5, &q, id);
            assert!(so >= r.vanilla_overlap(&q, id) as f64 - 1e-12);
        }
    }

    #[test]
    fn symmetry_of_semantic_overlap() {
        // SO(Q, C) computed by swapping roles must agree (Def. 1 symmetry).
        let mut b = RepositoryBuilder::new();
        let c1 = b.add_set("c1", ["Blaine", "Charleston", "Columbia"]);
        let c2 = b.add_set("c2", ["Blain", "Charlestown"]);
        let r = b.build();
        let j = QGramJaccard::new(&r, 3);
        let q1: Vec<TokenId> = r.set(c1).to_vec();
        let q2: Vec<TokenId> = r.set(c2).to_vec();
        let a = semantic_overlap(&r, &j, 0.3, &q1, c2);
        let b2 = semantic_overlap(&r, &j, 0.3, &q2, c1);
        assert!((a - b2).abs() < 1e-12);
    }

    #[test]
    fn greedy_is_a_lower_bound() {
        let mut b = RepositoryBuilder::new();
        let id = b.add_set("c", ["Blaine", "Blainey", "Blains"]);
        let r = b.build();
        let j = QGramJaccard::new(&r, 3);
        let q = r.intern_query(["Blaine", "Blains"]);
        let g = greedy_overlap(&r, &j, 0.2, &q, id);
        let so = semantic_overlap(&r, &j, 0.2, &q, id);
        assert!(g <= so + 1e-12);
        assert!(g >= so / 2.0 - 1e-12);
    }

    #[test]
    fn bounded_overlap_terminates_or_agrees() {
        let r = repo();
        let q = r.intern_query(["LA", "Blain"]);
        let exact = semantic_overlap(&r, &EqualitySimilarity, 0.5, &q, SetId(0));
        match semantic_overlap_bounded(&r, &EqualitySimilarity, 0.5, &q, SetId(0), Some(100.0)) {
            MatchOutcome::EarlyTerminated { upper_bound } => {
                assert!(upper_bound >= exact - 1e-12)
            }
            MatchOutcome::Exact(m) => assert_eq!(m.score, exact),
        }
    }
}
