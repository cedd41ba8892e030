//! MinHash-LSH kNN source for Jaccard element similarity.
//!
//! §IV of the paper: "when `sim` is … the Jaccard of the token set of
//! elements, the Faiss Index or **minhash LSH** can be plugged into the
//! algorithm". This module provides that plug: per-token MinHash signatures
//! over the q-gram sets, banded into LSH buckets; a probe collects the
//! query token's bucket collisions, rescores them with *exact* Jaccard, and
//! streams them in descending order.
//!
//! LSH is a recall/efficiency trade: candidates missed by every band are
//! never streamed, so Koios built on this source is exact *with respect to
//! the index's recall* (the paper's caveat: "K OIOS returns an exact
//! solution as long as the index returns exact results"). With the default
//! 32 bands × 4 rows the collision probability at Jaccard 0.8 is
//! `1 − (1 − 0.8⁴)³² ≈ 1 − 10⁻⁸`; the tests measure recall empirically
//! against the exact scan.

use crate::knn::KnnSource;
use koios_common::{HeapSize, TokenId};
use koios_embed::sim::{ElementSimilarity, QGramJaccard};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of the LSH table.
#[derive(Debug, Clone, Copy)]
pub struct MinHashParams {
    /// Number of bands (`b`).
    pub bands: usize,
    /// Hash rows per band (`r`); signature length is `b·r`.
    pub rows_per_band: usize,
    /// Seed for the permutation family.
    pub seed: u64,
}

impl Default for MinHashParams {
    fn default() -> Self {
        MinHashParams {
            bands: 32,
            rows_per_band: 4,
            seed: 0x5EED,
        }
    }
}

/// A MinHash-LSH index over the vocabulary's q-gram sets.
pub struct MinHashIndex {
    params: MinHashParams,
    /// Band tables: `band → bucket hash → tokens`.
    tables: Vec<HashMap<u64, Vec<TokenId>>>,
    /// Per-token signatures (row-major, `bands·rows_per_band` values).
    signatures: Vec<Box<[u64]>>,
}

impl std::fmt::Debug for MinHashIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinHashIndex")
            .field("params", &self.params)
            .field("tokens", &self.signatures.len())
            .finish_non_exhaustive()
    }
}

/// Cheap 2-universal-ish hash of a gram under permutation `i`.
#[inline]
fn perm_hash(gram: u64, perm_seed: u64) -> u64 {
    let mut x = gram ^ perm_seed;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The seed of permutation `i` in the family `params.seed` defines.
#[inline]
fn perm_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B54A32D192ED03))
}

/// FNV-1a fold of one band's signature slice into its bucket key.
#[inline]
fn band_hash(slice: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &v in slice {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// MinHash signature of one gram set (all-`u64::MAX` for an empty set).
fn signature_of(grams: &[u64], params: &MinHashParams) -> Box<[u64]> {
    let sig_len = params.bands * params.rows_per_band;
    let mut sig = vec![u64::MAX; sig_len];
    for &g in grams {
        for (i, s) in sig.iter_mut().enumerate() {
            let h = perm_hash(g, perm_seed(params.seed, i));
            if h < *s {
                *s = h;
            }
        }
    }
    sig.into_boxed_slice()
}

impl MinHashIndex {
    /// Builds signatures and band tables for every token whose q-gram set
    /// is produced by `grams` (a vocabulary-aligned list): one
    /// [`Self::insert_signature`] per token, in token-id order.
    pub fn build(grams: &[Box<[u64]>], params: MinHashParams) -> Self {
        let mut index = MinHashIndex {
            params,
            tables: vec![HashMap::new(); params.bands],
            signatures: Vec::with_capacity(grams.len()),
        };
        for gs in grams {
            index.insert_signature(gs);
        }
        index
    }

    /// Appends the signature for the **next** token id (live ingest: a
    /// newly interned vocabulary token) and patches its band buckets in
    /// place — no table rebuild. [`Self::build`] is this call per token, so
    /// an index maintained this way is bit-identical to one rebuilt over
    /// the grown vocabulary.
    /// Returns the token id the signature now covers.
    pub fn insert_signature(&mut self, grams: &[u64]) -> TokenId {
        let t = TokenId(self.signatures.len() as u32);
        let sig = signature_of(grams, &self.params);
        if !sig.iter().all(|&v| v == u64::MAX) {
            for (band, table) in self.tables.iter_mut().enumerate() {
                let r = self.params.rows_per_band;
                let slice = &sig[band * r..(band + 1) * r];
                table.entry(band_hash(slice)).or_default().push(t);
            }
        }
        self.signatures.push(sig);
        t
    }

    /// Tokens colliding with `t` in at least one band (including `t`).
    pub fn collisions(&self, t: TokenId) -> Vec<TokenId> {
        let Some(sig) = self.signatures.get(t.idx()) else {
            return Vec::new();
        };
        if sig.iter().all(|&v| v == u64::MAX) {
            return vec![t];
        }
        let mut out = Vec::new();
        for (band, table) in self.tables.iter().enumerate() {
            let r = self.params.rows_per_band;
            let slice = &sig[band * r..(band + 1) * r];
            if let Some(bucket) = table.get(&band_hash(slice)) {
                out.extend(bucket.iter().copied());
            }
        }
        out.push(t);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Estimated heap bytes.
    pub fn heap_bytes(&self) -> usize {
        let sig: usize = self
            .signatures
            .iter()
            .map(|s| s.len() * std::mem::size_of::<u64>())
            .sum();
        let tables: usize = self.tables.iter().map(|t| t.heap_size()).sum();
        sig + tables
    }
}

/// One query element's lazily materialised candidate list plus the cursor
/// into it.
type ScoredList = (Vec<(f64, TokenId)>, usize);

/// A [`KnnSource`] that generates candidates by LSH collision and rescored
/// exact Jaccard (descending, `≥ α`, self pair first).
pub struct MinHashKnn {
    index: Arc<MinHashIndex>,
    sim: Arc<QGramJaccard>,
    query: Vec<TokenId>,
    alpha: f64,
    lists: Vec<Option<ScoredList>>,
}

impl MinHashKnn {
    /// Creates a source over a shared LSH index and the matching Jaccard
    /// similarity (same `q`, same vocabulary snapshot).
    pub fn new(
        index: Arc<MinHashIndex>,
        sim: Arc<QGramJaccard>,
        query: Vec<TokenId>,
        alpha: f64,
    ) -> Self {
        let lists = (0..query.len()).map(|_| None).collect();
        MinHashKnn {
            index,
            sim,
            query,
            alpha,
            lists,
        }
    }
}

impl KnnSource for MinHashKnn {
    fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
        let (items, pos) = self.lists[q_idx].get_or_insert_with(|| {
            let q = self.query[q_idx];
            let mut items: Vec<(f64, TokenId)> = self
                .index
                .collisions(q)
                .into_iter()
                .filter_map(|t| {
                    let s = if t == q { 1.0 } else { self.sim.sim(q, t) };
                    (s >= self.alpha || t == q).then_some((s, t))
                })
                .collect();
            items.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("similarities are never NaN")
                    .then_with(|| a.1.cmp(&b.1))
            });
            (items, 0)
        });
        let &(s, t) = items.get(*pos)?;
        *pos += 1;
        Some((t, s))
    }

    fn heap_bytes(&self) -> usize {
        self.query.heap_size()
            + self
                .lists
                .iter()
                .flatten()
                .map(|(l, _)| l.capacity() * std::mem::size_of::<(f64, TokenId)>())
                .sum::<usize>()
    }
}

/// The lowercase q-gram hash set of one token string, matching
/// [`QGramJaccard`]'s tokenisation — the per-token unit of
/// [`vocabulary_grams`], exposed so live ingest can gram newly interned
/// tokens one at a time and feed [`MinHashIndex::insert_signature`].
pub fn token_grams(s: &str, q: usize) -> Box<[u64]> {
    let lower = s.to_lowercase();
    let chars: Vec<char> = lower.chars().collect();
    let hash = |cs: &[char]| {
        let mut h = 0xcbf29ce484222325u64;
        for &c in cs {
            h ^= c as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    };
    let mut grams: Vec<u64> = if chars.is_empty() {
        Vec::new()
    } else if chars.len() < q {
        vec![hash(&chars)]
    } else {
        chars.windows(q).map(hash).collect()
    };
    grams.sort_unstable();
    grams.dedup();
    grams.into_boxed_slice()
}

/// Builds lowercase q-gram hash sets for the whole vocabulary (the
/// [`MinHashIndex`] input), matching [`QGramJaccard`]'s tokenisation.
pub fn vocabulary_grams(repo: &koios_embed::repository::Repository, q: usize) -> Vec<Box<[u64]>> {
    (0..repo.vocab_size())
        .map(|i| token_grams(repo.token_str(TokenId(i as u32)), q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::ExactScanKnn;
    use koios_embed::repository::RepositoryBuilder;

    fn setup() -> (koios_embed::repository::Repository, Vec<TokenId>) {
        let mut b = RepositoryBuilder::new();
        b.add_set(
            "s",
            [
                "Blaine",
                "Blain",
                "Blainey",
                "Blaines",
                "Charleston",
                "Charlestown",
                "Columbia",
                "Columbias",
                "Zebra",
                "",
            ],
        );
        let repo = b.build();
        let q = repo.intern_query(["Blaine", "Charleston", ""]);
        (repo, q)
    }

    fn drain(src: &mut dyn KnnSource, q_idx: usize) -> Vec<(TokenId, f64)> {
        let mut out = Vec::new();
        while let Some(x) = src.next(q_idx) {
            out.push(x);
        }
        out
    }

    #[test]
    fn lsh_recall_matches_exact_scan_at_high_similarity() {
        let (repo, q) = setup();
        let grams = vocabulary_grams(&repo, 3);
        let index = Arc::new(MinHashIndex::build(&grams, MinHashParams::default()));
        let sim = Arc::new(QGramJaccard::new(&repo, 3));
        let alpha = 0.6;
        let mut lsh = MinHashKnn::new(index, Arc::clone(&sim), q.clone(), alpha);
        let exact_sim: Arc<dyn ElementSimilarity> = sim.clone();
        let mut exact = ExactScanKnn::new(exact_sim, q.clone(), repo.vocab_size(), alpha);
        for q_idx in 0..q.len() {
            let l = drain(&mut lsh, q_idx);
            let e = drain(&mut exact, q_idx);
            // With b=32, r=4, recall at J >= 0.6 is essentially 1 on this
            // tiny vocabulary; demand exact agreement.
            assert_eq!(l, e, "q_idx={q_idx}");
        }
    }

    #[test]
    fn stream_is_descending_and_self_first() {
        let (repo, q) = setup();
        let grams = vocabulary_grams(&repo, 3);
        let index = Arc::new(MinHashIndex::build(&grams, MinHashParams::default()));
        let sim = Arc::new(QGramJaccard::new(&repo, 3));
        let mut lsh = MinHashKnn::new(index, sim, q.clone(), 0.5);
        let items = drain(&mut lsh, 0);
        assert_eq!(items[0], (q[0], 1.0));
        for w in items.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn collisions_contain_near_duplicates() {
        let (repo, _) = setup();
        let grams = vocabulary_grams(&repo, 3);
        let index = MinHashIndex::build(&grams, MinHashParams::default());
        let blaine = repo.token_id("Blaine").unwrap();
        let blain = repo.token_id("Blain").unwrap();
        let zebra = repo.token_id("Zebra").unwrap();
        let c = index.collisions(blaine);
        assert!(c.contains(&blain), "J=0.75 pair must collide");
        assert!(c.contains(&blaine), "self always included");
        // An unrelated token colliding in 0 bands is overwhelmingly likely
        // to be absent (probability of a false collision ≈ b·2^-64·...).
        assert!(!c.contains(&zebra));
    }

    #[test]
    fn empty_gram_token_matches_only_itself() {
        let (repo, q) = setup();
        let empty = repo.token_id("").unwrap();
        let grams = vocabulary_grams(&repo, 3);
        let index = Arc::new(MinHashIndex::build(&grams, MinHashParams::default()));
        let sim = Arc::new(QGramJaccard::new(&repo, 3));
        let q_idx = q.iter().position(|&t| t == empty).unwrap();
        let mut lsh = MinHashKnn::new(index, sim, q.clone(), 0.5);
        let items = drain(&mut lsh, q_idx);
        assert_eq!(items, vec![(empty, 1.0)]);
    }

    #[test]
    fn insert_signature_matches_batch_build() {
        let (repo, _) = setup();
        let grams = vocabulary_grams(&repo, 3);
        let full = MinHashIndex::build(&grams, MinHashParams::default());

        // Build over a prefix, then insert the remaining tokens one by one.
        let split = grams.len() / 2;
        let mut grown = MinHashIndex::build(&grams[..split], MinHashParams::default());
        for gs in &grams[split..] {
            grown.insert_signature(gs);
        }
        for t in 0..repo.vocab_size() as u32 {
            assert_eq!(
                grown.collisions(TokenId(t)),
                full.collisions(TokenId(t)),
                "token {t}"
            );
        }
    }

    #[test]
    fn heap_bytes_nonzero() {
        let (repo, q) = setup();
        let grams = vocabulary_grams(&repo, 3);
        let index = Arc::new(MinHashIndex::build(&grams, MinHashParams::default()));
        assert!(index.heap_bytes() > 0);
        let sim = Arc::new(QGramJaccard::new(&repo, 3));
        let mut lsh = MinHashKnn::new(index, sim, q, 0.5);
        lsh.next(0);
        assert!(lsh.heap_bytes() > 0);
    }
}
