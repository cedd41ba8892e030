//! Pluggable element similarity functions.
//!
//! Def. 1 of the paper only requires `sim` to be symmetric, in `[0, 1]`, and
//! `1` for identical elements — notably *not* a metric (cosine of embeddings
//! violates the triangle inequality), which is what sets Koios apart from
//! SilkMoth-style filters. [`ElementSimilarity`] captures exactly that
//! contract; every search component is generic over it.

use crate::repository::Repository;
use crate::vectors::{dot, Embeddings};
use koios_common::TokenId;
use std::sync::Arc;

/// A symmetric element similarity over the interned vocabulary.
///
/// Contract (checked by the property tests in `tests/sim_contract.rs`):
/// * `sim(a, a) == 1.0` — identical elements always match perfectly, even
///   out-of-vocabulary ones (paper §V, out-of-vocabulary handling);
/// * `sim(a, b) == sim(b, a)`;
/// * `0.0 <= sim(a, b) <= 1.0` and never NaN.
pub trait ElementSimilarity: Send + Sync {
    /// The similarity of two tokens.
    fn sim(&self, a: TokenId, b: TokenId) -> f64;

    /// `simα`: the similarity if it reaches `alpha`, else 0 (Def. 1).
    /// Identical tokens score 1 regardless of `alpha`.
    fn sim_alpha(&self, a: TokenId, b: TokenId, alpha: f64) -> f64 {
        let s = self.sim(a, b);
        if s >= alpha {
            s
        } else {
            0.0
        }
    }

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Scores `q` against the whole vocabulary `0..vocab`, appending every
    /// `(sim, token)` with `sim ≥ alpha` in ascending token order to `out`.
    /// The self pair `(1.0, q)` is emitted in its place for every
    /// `q < vocab`, whatever `alpha` and even out of vocabulary; a pair not
    /// emitted is a zero cell of [`Self::fill_matrix`], and an emitted
    /// weight equals that cell bit for bit (the token stream's weights are
    /// verification's weights). The default delegates to [`Self::sim`] per
    /// pair.
    ///
    /// This is the one-token form of [`Self::scores_above_many`], the
    /// token stream's hot path.
    fn scores_above(&self, q: TokenId, vocab: usize, alpha: f64, out: &mut Vec<(f64, TokenId)>) {
        for t in 0..vocab as u32 {
            let t = TokenId(t);
            if t == q {
                out.push((1.0, t));
                continue;
            }
            let s = self.sim(q, t);
            if s >= alpha {
                out.push((s, t));
            }
        }
    }

    /// [`Self::scores_above`] for every token of `qs` at once, appending
    /// the list of `qs[i]` to `outs[i]` — the same pairs, weights and order
    /// as one call per token. The token stream scores all of a query's
    /// cache-missing tokens with one call, so an implementation with a
    /// columnar layout can make it one pass over the vocabulary:
    /// [`CosineSimilarity`] runs the blocked kernel `Embeddings::dot_scan`,
    /// whose lanes add their products in [`dot`]'s order and so stay
    /// bit-identical. The default calls [`Self::scores_above`] once per
    /// token, which keeps a wrapper that overrides only that method
    /// behaving as it did.
    ///
    /// # Panics
    ///
    /// Panics if `qs` and `outs` differ in length.
    fn scores_above_many(
        &self,
        qs: &[TokenId],
        vocab: usize,
        alpha: f64,
        outs: &mut [Vec<(f64, TokenId)>],
    ) {
        assert_eq!(qs.len(), outs.len(), "one output list per query token");
        for (&q, out) in qs.iter().zip(outs) {
            self.scores_above(q, vocab, alpha, out);
        }
    }

    /// Fills the row-major `simα` matrix between `query` (rows) and `set`
    /// (columns) — the verification hot path (one call per exact matching).
    /// The default delegates to [`Self::sim_alpha`] per cell.
    fn fill_matrix(&self, query: &[TokenId], set: &[TokenId], alpha: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), query.len() * set.len());
        for (i, &q) in query.iter().enumerate() {
            let row = &mut out[i * set.len()..(i + 1) * set.len()];
            for (j, &t) in set.iter().enumerate() {
                row[j] = self.sim_alpha(q, t, alpha);
            }
        }
    }
}

/// Cosine similarity of token embeddings (the paper's default `sim`).
///
/// Out-of-vocabulary tokens have similarity 0 to everything except
/// themselves; negative cosines are clamped to 0 to respect the `[0, 1]`
/// contract.
pub struct CosineSimilarity {
    emb: Arc<Embeddings>,
}

impl CosineSimilarity {
    /// Wraps an embedding table.
    pub fn new(emb: Arc<Embeddings>) -> Self {
        CosineSimilarity { emb }
    }

    /// The underlying embeddings.
    pub fn embeddings(&self) -> &Arc<Embeddings> {
        &self.emb
    }
}

impl ElementSimilarity for CosineSimilarity {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        if a == b {
            return 1.0;
        }
        self.emb.cosine(a, b).map_or(0.0, |c| c.clamp(0.0, 1.0))
    }

    fn name(&self) -> &'static str {
        "cosine-embedding"
    }

    fn scores_above(&self, q: TokenId, vocab: usize, alpha: f64, out: &mut Vec<(f64, TokenId)>) {
        self.scores_above_many(&[q], vocab, alpha, std::slice::from_mut(out));
    }

    fn scores_above_many(
        &self,
        qs: &[TokenId],
        vocab: usize,
        alpha: f64,
        outs: &mut [Vec<(f64, TokenId)>],
    ) {
        assert_eq!(qs.len(), outs.len(), "one output list per query token");
        // Lanes of the scan are the query tokens with a vector. A token
        // without one matches only itself, even past the end of the table.
        let mut lanes = Vec::with_capacity(qs.len());
        let mut vectors = Vec::with_capacity(qs.len());
        for (i, &q) in qs.iter().enumerate() {
            match self.emb.get(q) {
                Some(v) => {
                    lanes.push(i);
                    vectors.push(v);
                }
                None if q.idx() < vocab => outs[i].push((1.0, q)),
                None => {}
            }
        }
        // A lane's self pair is due until the scan passes its token; the
        // scan skips rows below the floor, so it may never see it.
        let mut self_due: Vec<bool> = lanes.iter().map(|&i| qs[i].idx() < vocab).collect();
        // `d.clamp(0, 1) ≥ α > 0` implies `d ≥ α`: the scan may drop every
        // pair below `α` before calling back. At `α ≤ 0` every pair passes.
        let floor = if alpha > 0.0 {
            alpha
        } else {
            f64::NEG_INFINITY
        };
        // Unit vectors make cosine a dot product, and the scan's lanes are
        // `dot` bit for bit — the same weights `sim` and `fill_matrix` give.
        self.emb.dot_scan(&vectors, vocab, floor, |lane, t, d| {
            let (i, q) = (lanes[lane], qs[lanes[lane]]);
            if self_due[lane] && t >= q {
                self_due[lane] = false;
                outs[i].push((1.0, q));
                if t == q {
                    return;
                }
            }
            let s = d.clamp(0.0, 1.0);
            if s >= alpha {
                outs[i].push((s, t));
            }
        });
        for (&i, due) in lanes.iter().zip(self_due) {
            if due {
                outs[i].push((1.0, qs[i]));
            }
        }
    }

    fn fill_matrix(&self, query: &[TokenId], set: &[TokenId], alpha: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), query.len() * set.len());
        for (i, &q) in query.iter().enumerate() {
            let row = &mut out[i * set.len()..(i + 1) * set.len()];
            let qv = self.emb.get(q);
            for (j, &t) in set.iter().enumerate() {
                row[j] = if t == q {
                    1.0
                } else {
                    match (qv, self.emb.get(t)) {
                        (Some(a), Some(b)) => {
                            let s = dot(a, b).clamp(0.0, 1.0);
                            if s >= alpha {
                                s
                            } else {
                                0.0
                            }
                        }
                        _ => 0.0,
                    }
                };
            }
        }
    }
}

/// Strict equality: 1 iff the tokens are identical.
///
/// Semantic overlap under this similarity *is* vanilla overlap (Def. 1's
/// special case), which the integration tests exploit as an oracle.
pub struct EqualitySimilarity;

impl ElementSimilarity for EqualitySimilarity {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        if a == b {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "equality"
    }
}

/// Jaccard similarity of lowercase character q-grams (the fuzzy-overlap
/// element similarity used for the SilkMoth comparison, §VIII-B; `q = 3`
/// reproduces the paper's examples, e.g. `J(Blaine, Blain) = 3/4`).
pub struct QGramJaccard {
    q: usize,
    grams: Vec<Box<[u64]>>,
}

impl QGramJaccard {
    /// Precomputes gram sets for every token currently in the vocabulary.
    /// Tokens interned later are unknown to this instance — intern query
    /// strings first (see `Repository::intern_query_mut`).
    pub fn new(repo: &Repository, q: usize) -> Self {
        assert!(q > 0, "q must be positive");
        let grams = (0..repo.vocab_size())
            .map(|i| gram_set(repo.token_str(TokenId(i as u32)), q))
            .collect();
        QGramJaccard { q, grams }
    }

    /// The configured gram length.
    pub fn q(&self) -> usize {
        self.q
    }

    fn set_of(&self, t: TokenId) -> &[u64] {
        self.grams.get(t.idx()).map(|g| &**g).unwrap_or(&[])
    }
}

/// Builds the sorted hash set of lowercase character q-grams of `s`.
/// Strings shorter than `q` contribute their whole text as a single gram.
fn gram_set(s: &str, q: usize) -> Box<[u64]> {
    let chars: Vec<char> = s.to_lowercase().chars().collect();
    let mut grams: Vec<u64> = if chars.len() < q {
        if chars.is_empty() {
            Vec::new()
        } else {
            vec![hash_chars(&chars)]
        }
    } else {
        chars.windows(q).map(hash_chars).collect()
    };
    grams.sort_unstable();
    grams.dedup();
    grams.into_boxed_slice()
}

fn hash_chars(cs: &[char]) -> u64 {
    // FNV-1a over the code points: cheap, deterministic, collision-safe
    // enough for gram-set Jaccard at vocabulary scale.
    let mut h = 0xcbf29ce484222325u64;
    for &c in cs {
        h ^= c as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Jaccard of two sorted slices.
fn sorted_jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

impl ElementSimilarity for QGramJaccard {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        if a == b {
            return 1.0;
        }
        sorted_jaccard(self.set_of(a), self.set_of(b))
    }

    fn name(&self) -> &'static str {
        "qgram-jaccard"
    }
}

/// Jaccard similarity of the lowercase words inside an element (SilkMoth's
/// default element similarity for multi-word set elements).
pub struct WordJaccard {
    words: Vec<Box<[u64]>>,
}

impl WordJaccard {
    /// Precomputes word sets for the current vocabulary.
    pub fn new(repo: &Repository) -> Self {
        let words = (0..repo.vocab_size())
            .map(|i| {
                let mut ws: Vec<u64> = repo
                    .token_str(TokenId(i as u32))
                    .to_lowercase()
                    .split(|c: char| !c.is_alphanumeric())
                    .filter(|w| !w.is_empty())
                    .map(|w| hash_chars(&w.chars().collect::<Vec<_>>()))
                    .collect();
                ws.sort_unstable();
                ws.dedup();
                ws.into_boxed_slice()
            })
            .collect();
        WordJaccard { words }
    }
}

impl ElementSimilarity for WordJaccard {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        if a == b {
            return 1.0;
        }
        let empty: &[u64] = &[];
        let wa = self.words.get(a.idx()).map(|w| &**w).unwrap_or(empty);
        let wb = self.words.get(b.idx()).map(|w| &**w).unwrap_or(empty);
        sorted_jaccard(wa, wb)
    }

    fn name(&self) -> &'static str {
        "word-jaccard"
    }
}

/// Normalised edit similarity: `1 − levenshtein(a, b) / max(|a|, |b|)`.
pub struct EditSimilarity {
    strings: Vec<Box<str>>,
}

impl EditSimilarity {
    /// Snapshots the current vocabulary strings.
    pub fn new(repo: &Repository) -> Self {
        let strings = (0..repo.vocab_size())
            .map(|i| repo.token_str(TokenId(i as u32)).into())
            .collect();
        EditSimilarity { strings }
    }
}

/// Levenshtein distance with a rolling single-row DP.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

impl ElementSimilarity for EditSimilarity {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        if a == b {
            return 1.0;
        }
        let empty = "";
        let sa = self.strings.get(a.idx()).map(|s| &**s).unwrap_or(empty);
        let sb = self.strings.get(b.idx()).map(|s| &**s).unwrap_or(empty);
        let max_len = sa.chars().count().max(sb.chars().count());
        if max_len == 0 {
            return 0.0;
        }
        1.0 - levenshtein(sa, sb) as f64 / max_len as f64
    }

    fn name(&self) -> &'static str {
        "edit-similarity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryBuilder;

    fn repo_with(tokens: &[&str]) -> (Repository, Vec<TokenId>) {
        let mut b = RepositoryBuilder::new();
        let ids: Vec<TokenId> = tokens.iter().map(|t| b.intern(t)).collect();
        (b.build(), ids)
    }

    #[test]
    fn qgram_matches_paper_examples() {
        let (repo, ids) = repo_with(&["Blaine", "Blain", "BigApple", "Appleton", "NewYorkCity"]);
        let j = QGramJaccard::new(&repo, 3);
        // Jaccard(Blaine, Blain) = 3/4.
        assert!((j.sim(ids[0], ids[1]) - 0.75).abs() < 1e-12);
        // Jaccard(BigApple, Appleton) = 1/3.
        assert!((j.sim(ids[2], ids[3]) - 1.0 / 3.0).abs() < 1e-12);
        // Jaccard(BigApple, NewYorkCity) = 0.
        assert_eq!(j.sim(ids[2], ids[4]), 0.0);
    }

    #[test]
    fn qgram_identity_and_symmetry() {
        let (repo, ids) = repo_with(&["alpha", "alphas"]);
        let j = QGramJaccard::new(&repo, 3);
        assert_eq!(j.sim(ids[0], ids[0]), 1.0);
        assert_eq!(j.sim(ids[0], ids[1]), j.sim(ids[1], ids[0]));
    }

    #[test]
    fn qgram_short_strings() {
        let (repo, ids) = repo_with(&["ab", "ab2", "xy"]);
        let j = QGramJaccard::new(&repo, 3);
        // Both shorter than q: single-gram sets; different text → 0.
        assert_eq!(j.sim(ids[0], ids[2]), 0.0);
        assert!(j.sim(ids[0], ids[1]) >= 0.0);
    }

    #[test]
    fn equality_is_vanilla() {
        let (_, ids) = repo_with(&["a", "b"]);
        let e = EqualitySimilarity;
        assert_eq!(e.sim(ids[0], ids[0]), 1.0);
        assert_eq!(e.sim(ids[0], ids[1]), 0.0);
        assert_eq!(e.sim_alpha(ids[0], ids[1], 0.5), 0.0);
    }

    #[test]
    fn sim_alpha_thresholds() {
        let (repo, ids) = repo_with(&["Blaine", "Blain"]);
        let j = QGramJaccard::new(&repo, 3);
        assert_eq!(j.sim_alpha(ids[0], ids[1], 0.8), 0.0); // 0.75 < 0.8
        assert!((j.sim_alpha(ids[0], ids[1], 0.7) - 0.75).abs() < 1e-12);
        // Identical tokens pass any threshold.
        assert_eq!(j.sim_alpha(ids[0], ids[0], 0.99), 1.0);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn edit_similarity_normalises() {
        let (repo, ids) = repo_with(&["kitten", "sitting", "kitten2"]);
        let e = EditSimilarity::new(&repo);
        assert!((e.sim(ids[0], ids[1]) - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
        assert_eq!(e.sim(ids[0], ids[0]), 1.0);
        assert!(e.sim(ids[0], ids[2]) > e.sim(ids[0], ids[1]));
    }

    #[test]
    fn word_jaccard_on_phrases() {
        let (repo, ids) = repo_with(&["new york city", "york city", "los angeles"]);
        let w = WordJaccard::new(&repo);
        assert!((w.sim(ids[0], ids[1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.sim(ids[0], ids[2]), 0.0);
    }

    #[test]
    fn cosine_oov_matches_only_itself() {
        let (_, ids) = repo_with(&["a", "b"]);
        let emb = Embeddings::new(4, 2); // nobody has a vector
        let c = CosineSimilarity::new(Arc::new(emb));
        assert_eq!(c.sim(ids[0], ids[0]), 1.0);
        assert_eq!(c.sim(ids[0], ids[1]), 0.0);
    }

    #[test]
    fn cosine_clamps_negative() {
        let (_, ids) = repo_with(&["a", "b"]);
        let mut emb = Embeddings::new(2, 2);
        emb.set(ids[0], &[1.0, 0.0]);
        emb.set(ids[1], &[-1.0, 0.0]);
        let c = CosineSimilarity::new(Arc::new(emb));
        assert_eq!(c.sim(ids[0], ids[1]), 0.0);
    }

    /// The cosine scan's in-register α filter against `sim` per pair:
    /// every pair with a vector on both sides and `sim ≥ α` is emitted
    /// with `sim`'s bits, in token order, and so is the self pair — at
    /// α = 1 too, where a row's own dot product can round below 1 — while
    /// a token without a vector matches only itself.
    #[test]
    fn cosine_scores_above_filters_like_sim_per_pair() {
        const VOCAB: u32 = 40;
        let oov = TokenId(VOCAB - 1);
        let mut emb = Embeddings::new(5, VOCAB as usize);
        for t in 0..oov.0 {
            let x = f64::from(t);
            let v = [
                (x * 0.7).sin(),
                (x * 1.9).cos(),
                0.1 * x - 1.5,
                0.2,
                -(x * 0.5).sin(),
            ];
            emb.set(TokenId(t), &v);
        }
        let below_one = (0..oov.0)
            .map(TokenId)
            .find(|&t| emb.cosine(t, t).is_some_and(|d| d < 1.0))
            .expect("a row whose self dot product rounds below 1");
        let c = CosineSimilarity::new(Arc::new(emb));
        let all: Vec<TokenId> = (0..VOCAB).map(TokenId).collect();
        for alpha in [1.0, 0.9, 0.5, 0.0, -0.5] {
            for qs in [vec![below_one], vec![oov], all.clone()] {
                let mut outs = vec![Vec::new(); qs.len()];
                c.scores_above_many(&qs, VOCAB as usize, alpha, &mut outs);
                for (&q, got) in qs.iter().zip(&outs) {
                    let mut one = Vec::new();
                    c.scores_above(q, VOCAB as usize, alpha, &mut one);
                    assert_eq!(got, &one, "{q:?} alone");
                    let want: Vec<(u64, TokenId)> = all
                        .iter()
                        .filter(|&&t| {
                            t == q || (c.emb.has(q) && c.emb.has(t) && c.sim(q, t) >= alpha)
                        })
                        .map(|&t| (c.sim(q, t).to_bits(), t))
                        .collect();
                    let got: Vec<(u64, TokenId)> =
                        got.iter().map(|&(s, t)| (s.to_bits(), t)).collect();
                    assert_eq!(got, want, "{q:?} at alpha {alpha}");
                    // Only itself without a vector; every row with one at α ≤ 0.
                    if q == oov {
                        assert_eq!(got.len(), 1);
                    } else if alpha <= 0.0 {
                        assert_eq!(got.len(), VOCAB as usize - 1, "{q:?} at alpha {alpha}");
                    }
                }
                if alpha == 1.0 && qs == [below_one] {
                    assert!(outs[0].contains(&(1.0, below_one)));
                }
            }
        }
    }
}
