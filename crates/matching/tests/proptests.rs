//! Randomized property tests for the matching substrate.
//!
//! Originally written with `proptest`; rewritten as seeded random-case
//! loops because the offline build environment cannot vendor the crate.
//! Coverage is the same: small α-sparse weight matrices, checked against
//! the factorial-time exhaustive oracle.

use koios_matching::exhaustive::exhaustive_max_matching;
use koios_matching::greedy::greedy_matching;
use koios_matching::hungarian::{solve_max_matching, MatchOutcome};
use koios_matching::WeightMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 300;

/// A small weight matrix with α-style sparsity (weights are either 0 or in
/// [0.5, 1.0], like thresholded similarities).
fn small_matrix(rng: &mut StdRng) -> WeightMatrix {
    let r = rng.gen_range(1..6usize);
    let c = rng.gen_range(1..6usize);
    let w: Vec<f64> = (0..r * c)
        .map(|_| {
            if rng.gen::<f64>() < 0.3 {
                0.0
            } else {
                rng.gen_range(0.5..1.0)
            }
        })
        .collect();
    WeightMatrix::from_vec(r, c, w)
}

#[test]
fn hungarian_matches_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let m = small_matrix(&mut rng);
        let km = solve_max_matching(&m, None).score();
        let oracle = exhaustive_max_matching(&m);
        assert!((km - oracle).abs() < 1e-9, "km={km} oracle={oracle}");
    }
}

#[test]
fn greedy_is_half_approximation() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let m = small_matrix(&mut rng);
        let opt = solve_max_matching(&m, None).score();
        let g = greedy_matching(&m);
        assert!(g.score <= opt + 1e-9);
        assert!(g.score >= opt / 2.0 - 1e-9);
    }
}

#[test]
fn matching_is_one_to_one() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let m = small_matrix(&mut rng);
        let out = solve_max_matching(&m, None).exact().unwrap();
        let mut rows: Vec<_> = out.pairs.iter().map(|p| p.0).collect();
        let mut cols: Vec<_> = out.pairs.iter().map(|p| p.1).collect();
        rows.sort_unstable();
        cols.sort_unstable();
        let rn = rows.len();
        let cn = cols.len();
        rows.dedup();
        cols.dedup();
        assert_eq!(rows.len(), rn);
        assert_eq!(cols.len(), cn);
        // Score equals the sum of its pair weights.
        let sum: f64 = out
            .pairs
            .iter()
            .map(|&(r, c)| m.get(r as usize, c as usize))
            .sum();
        assert!((sum - out.score).abs() < 1e-9);
    }
}

#[test]
fn early_termination_is_sound() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let m = small_matrix(&mut rng);
        let theta = rng.gen_range(0.0..4.0f64);
        let opt = solve_max_matching(&m, None).score();
        match solve_max_matching(&m, Some(theta)) {
            MatchOutcome::Exact(mm) => {
                assert!((mm.score - opt).abs() < 1e-9);
            }
            MatchOutcome::EarlyTerminated { upper_bound } => {
                // Termination certifies SO < theta; the bound must dominate
                // the true optimum.
                assert!(
                    upper_bound >= opt - 1e-9,
                    "bound {upper_bound} below optimum {opt}"
                );
                assert!(
                    opt < theta + 1e-9,
                    "terminated although optimum {opt} >= theta {theta}"
                );
            }
        }
    }
}

#[test]
fn symmetric_under_transpose() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let m = small_matrix(&mut rng);
        let a = solve_max_matching(&m, None).score();
        let b = solve_max_matching(&m.transposed(), None).score();
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn max_edge_lower_bounds_and_row_sum_upper_bounds() {
    let mut rng = StdRng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let m = small_matrix(&mut rng);
        // Lemma 3(a): the max edge weight lower-bounds SO.
        // Row-max relaxation upper-bounds SO (ARCHITECTURE.md, Deviations 1).
        let opt = solve_max_matching(&m, None).score();
        assert!(m.max_weight() <= opt + 1e-9);
        let mut rowmax: Vec<f64> = (0..m.rows()).map(|i| m.row_max(i)).collect();
        rowmax.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let cap = m.rows().min(m.cols());
        let ub: f64 = rowmax.iter().take(cap).sum();
        assert!(opt <= ub + 1e-9);
    }
}
