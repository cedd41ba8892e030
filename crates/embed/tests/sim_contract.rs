//! Randomized contract tests: every `ElementSimilarity` implementation
//! honours the Def. 1 contract — identity, symmetry, range, and `simα`
//! thresholding.
//!
//! Originally written with `proptest`; rewritten as seeded random-case
//! loops because the offline build environment cannot vendor the crate.

use koios_common::TokenId;
use koios_embed::repository::RepositoryBuilder;
use koios_embed::sim::*;
use koios_embed::synthetic::{clustered_embeddings, SyntheticEmbeddings};
use koios_embed::vectors::Embeddings;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn build_providers(tokens: Vec<String>) -> (usize, Vec<Box<dyn ElementSimilarity>>) {
    let mut b = RepositoryBuilder::new();
    for t in &tokens {
        b.intern(t);
    }
    let repo = b.build();
    let n = repo.vocab_size();
    let emb = SyntheticEmbeddings::builder()
        .dimensions(16)
        .seed(7)
        .oov_fraction(0.2)
        .build(&repo);
    let providers: Vec<Box<dyn ElementSimilarity>> = vec![
        Box::new(CosineSimilarity::new(Arc::new(emb))),
        Box::new(QGramJaccard::new(&repo, 3)),
        Box::new(WordJaccard::new(&repo)),
        Box::new(EditSimilarity::new(&repo)),
        Box::new(EqualitySimilarity),
    ];
    (n, providers)
}

/// 2..8 distinct random strings over letters and spaces, length 0..=12.
fn random_tokens(rng: &mut StdRng) -> Vec<String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ";
    let n = rng.gen_range(2..8usize);
    let mut v: Vec<String> = (0..n)
        .map(|_| {
            let len = rng.gen_range(0..13usize);
            (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                .collect()
        })
        .collect();
    v.sort();
    v.dedup();
    if v.len() < 2 {
        v.push("fallback-token".to_string());
        v.push("other-token".to_string());
    }
    v
}

#[test]
fn contract_holds_for_all_providers() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for _ in 0..64 {
        let tokens = random_tokens(&mut rng);
        let alpha = rng.gen::<f64>();
        let (n, providers) = build_providers(tokens);
        for p in &providers {
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    let (ta, tb) = (TokenId(a), TokenId(b));
                    let s = p.sim(ta, tb);
                    assert!(s.is_finite(), "{}: sim not finite", p.name());
                    assert!(
                        (0.0..=1.0 + 1e-9).contains(&s),
                        "{}: sim out of range: {s}",
                        p.name()
                    );
                    let r = p.sim(tb, ta);
                    assert!((s - r).abs() < 1e-9, "{}: asymmetric", p.name());
                    if a == b {
                        assert_eq!(s, 1.0, "{}: identity violated", p.name());
                    }
                    let sa = p.sim_alpha(ta, tb, alpha);
                    if a == b {
                        assert_eq!(sa, 1.0);
                    } else if s >= alpha {
                        assert!((sa - s).abs() < 1e-12);
                    } else {
                        assert_eq!(sa, 0.0);
                    }
                }
            }
        }
    }
}

/// `fill_matrix` (the batched verification path) must agree cell-by-cell
/// with per-pair `sim_alpha` for every provider.
#[test]
fn fill_matrix_matches_per_pair() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for _ in 0..32 {
        let tokens = random_tokens(&mut rng);
        let alpha = rng.gen::<f64>();
        let (n, providers) = build_providers(tokens);
        let all: Vec<TokenId> = (0..n as u32).map(TokenId).collect();
        let (query, set) = all.split_at(n / 2);
        for p in &providers {
            let mut out = vec![0.0; query.len() * set.len()];
            p.fill_matrix(query, set, alpha, &mut out);
            for (i, &q) in query.iter().enumerate() {
                for (j, &t) in set.iter().enumerate() {
                    let want = p.sim_alpha(q, t, alpha);
                    let got = out[i * set.len() + j];
                    assert!(
                        (want - got).abs() < 1e-9,
                        "{}: cell ({i},{j}) {got} != {want}",
                        p.name()
                    );
                }
            }
        }
    }
}

/// The token stream emits `scores_above` weights and verification reads
/// `fill_matrix` cells; the engine treats the two as the same number
/// (refinement bounds, and matching straight from the stream's edges). So
/// they must agree **bitwise**, and a pair the scan does not emit must be
/// a zero cell — for every provider, out-of-vocabulary tokens included.
#[test]
fn scores_above_is_fill_matrix_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for _ in 0..64 {
        let tokens = random_tokens(&mut rng);
        let alpha = rng.gen::<f64>();
        let (n, providers) = build_providers(tokens);
        let all: Vec<TokenId> = (0..n as u32).map(TokenId).collect();
        for p in &providers {
            for &q in &all {
                let mut emitted = Vec::new();
                p.scores_above(q, n, alpha, &mut emitted);
                let mut row = vec![f64::NAN; n];
                p.fill_matrix(&[q], &all, alpha, &mut row);
                let mut seen = vec![false; n];
                for (s, t) in emitted {
                    assert!(!seen[t.idx()], "{}: {t:?} emitted twice", p.name());
                    seen[t.idx()] = true;
                    assert_eq!(
                        s.to_bits(),
                        row[t.idx()].to_bits(),
                        "{}: stream weight {s} != matrix cell {} for ({q:?}, {t:?})",
                        p.name(),
                        row[t.idx()]
                    );
                }
                assert!(seen[q.idx()], "{}: self pair not emitted", p.name());
                for (t, &cell) in row.iter().enumerate() {
                    assert!(
                        seen[t] || cell == 0.0,
                        "{}: cell ({q:?}, {t}) = {cell} but the scan skipped it",
                        p.name()
                    );
                }
            }
        }
    }
}

/// A token interned after the embedding table was built sits past its end:
/// it has no vector, yet it matches itself. The scan must emit that self
/// pair just as `sim` and `fill_matrix` score it, or a set holding the
/// token loses its vanilla-overlap edge.
#[test]
fn scores_above_keeps_the_self_pair_past_the_table() {
    let mut emb = Embeddings::new(2, 3);
    emb.set(TokenId(0), &[1.0, 0.0]);
    let cosine = CosineSimilarity::new(Arc::new(emb));
    let vocab = 5;
    let all: Vec<TokenId> = (0..vocab as u32).map(TokenId).collect();
    for q in [TokenId(3), TokenId(4)] {
        assert_eq!(cosine.sim(q, q), 1.0);
        let mut row = vec![f64::NAN; vocab];
        cosine.fill_matrix(&[q], &all, 0.5, &mut row);
        assert_eq!(row[q.idx()], 1.0);
        let mut emitted = Vec::new();
        cosine.scores_above(q, vocab, 0.5, &mut emitted);
        assert_eq!(emitted, vec![(1.0, q)], "self pair of {q:?}");
    }
}

/// `scores_above_many` is `scores_above` once per token, bit for bit and in
/// the same order, for every provider: over every tile remainder (batch
/// lengths 0..=17), duplicate and out-of-vocabulary query tokens, `vocab`
/// below, at and past the table, and α at both ends of its range.
#[test]
fn scores_above_many_is_scores_above_bit_for_bit() {
    fn check(p: &dyn ElementSimilarity, n: usize, rng: &mut StdRng) {
        let bits = |l: &[(f64, TokenId)]| -> Vec<(u64, TokenId)> {
            l.iter().map(|&(s, t)| (s.to_bits(), t)).collect()
        };
        for len in 0..=17 {
            let qs: Vec<TokenId> = (0..len)
                .map(|_| TokenId(rng.gen_range(0..n as u32 + 3)))
                .collect();
            for vocab in [n.saturating_sub(2), n, n + 2] {
                for alpha in [0.0, rng.gen::<f64>(), 1.0] {
                    let mut outs = vec![Vec::new(); len];
                    p.scores_above_many(&qs, vocab, alpha, &mut outs);
                    for (&q, got) in qs.iter().zip(&outs) {
                        let mut want = Vec::new();
                        p.scores_above(q, vocab, alpha, &mut want);
                        assert_eq!(
                            bits(got),
                            bits(&want),
                            "{}: {q:?} of {qs:?}, vocab {vocab}, alpha {alpha}",
                            p.name()
                        );
                    }
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0xC4);
    for _ in 0..16 {
        let (n, providers) = build_providers(random_tokens(&mut rng));
        for p in &providers {
            check(&**p, n, &mut rng);
        }
    }
    // A clustered table longer than one scan block, 30% without a vector.
    let n = 1500;
    let assignment: Vec<Option<u32>> = (0..n)
        .map(|t| (t % 10 >= 3).then_some((t % 40) as u32))
        .collect();
    let emb = clustered_embeddings(8, &assignment, |_| 0.3, 11);
    check(&CosineSimilarity::new(Arc::new(emb)), n, &mut rng);
}
