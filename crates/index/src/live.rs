//! Applying corpus mutations to query-ready state.
//!
//! [`apply_op`] is the **one** implementation of "what a [`CorpusOp`] does
//! to a repository, its embeddings and its indexes". Three very different
//! callers replay ops through it — the mutable engine in `koios-core`
//! (live ingest), the snapshot delta replay in `koios-store` (warm
//! restart), and cold-rebuild references in tests and benches — and the
//! mutate-equals-rebuild guarantee holds precisely because they cannot
//! diverge on the semantics.
//!
//! Determinism contract: given the same starting state and the same op
//! sequence, every replay assigns identical set ids (appends claim dense
//! ids), identical token ids (the interner is append-only), identical
//! embedding bit patterns (raw `f32` rows, never re-normalised), and
//! identical index contents (postings spliced in sorted order; the
//! signatures of a caller-built [`MinHashIndex`], when one is passed,
//! folded with the build-time permutation family).

use crate::inverted::InvertedIndex;
use crate::minhash::{token_grams, MinHashIndex};
use koios_common::SetId;
use koios_embed::ops::CorpusOp;
use koios_embed::repository::Repository;
use koios_embed::vectors::Embeddings;

/// Q-gram width used when patching MinHash signatures for newly interned
/// tokens (matches [`crate::minhash::vocabulary_grams`]'s conventional
/// width in this workspace).
pub const MINHASH_GRAM_WIDTH: usize = 3;

/// What one applied op changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A set was appended under this id.
    Inserted(SetId),
    /// This set was tombstoned.
    Removed(SetId),
}

/// A rejected mutation. Every variant is a caller error (bad op), not a
/// state corruption: the op is rejected **before** any state is touched,
/// so a failed batch leaves repository, embeddings and indexes unchanged
/// up to the failing op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// `Remove` named a set that does not exist or is already tombstoned.
    UnknownSet(SetId),
    /// An embedding row's length does not match the table dimensionality.
    DimMismatch {
        /// The token the row was supplied for.
        token: String,
        /// Supplied row length.
        got: usize,
        /// The embedding table's dimensionality.
        expected: usize,
    },
    /// An embedding row holds an infinite or NaN value.
    NonFinite {
        /// The token the row was supplied for.
        token: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::UnknownSet(s) => {
                write!(
                    f,
                    "cannot remove set {}: not present or already removed",
                    s.0
                )
            }
            LiveError::DimMismatch {
                token,
                got,
                expected,
            } => write!(
                f,
                "embedding row for {token:?} has {got} values, table dimensionality is {expected}"
            ),
            LiveError::NonFinite { token } => {
                write!(f, "embedding row for {token:?} has a non-finite value")
            }
        }
    }
}

impl std::error::Error for LiveError {}

/// Checks the rows of an insert against a table of dimensionality `dim`:
/// each must have `dim` values, every one finite. A single non-finite
/// value would raise the table's scan bound to `+∞`, so every later
/// vocabulary scan would score every row.
pub fn check_rows(vectors: &[(String, Vec<f32>)], dim: usize) -> Result<(), LiveError> {
    for (token, row) in vectors {
        if row.len() != dim {
            return Err(LiveError::DimMismatch {
                token: token.clone(),
                got: row.len(),
                expected: dim,
            });
        }
        if !row.iter().all(|v| v.is_finite()) {
            return Err(LiveError::NonFinite {
                token: token.clone(),
            });
        }
    }
    Ok(())
}

/// Applies one [`CorpusOp`] to a repository plus its derived state.
///
/// `indexes` are the per-shard inverted indexes (one entry for a single-
/// index engine); `route` maps a set id to the shard that owns it (`|_| 0`
/// for single engines, the deterministic partitioner for sharded ones).
/// Every index is grown to the post-op vocabulary so `num_tokens` stays
/// aligned with `vocab_size` on all shards, not just the owning one.
///
/// `minhash` maintains a caller-built [`MinHashIndex`] (the one behind a
/// [`crate::minhash::MinHashKnn`] source) over a live vocabulary: an
/// insert appends a signature for every token it interns; a remove leaves
/// it alone, since the index covers tokens and the vocabulary is
/// append-only. No engine or snapshot path passes one; the perf ledger
/// calls this function with `None`, which pins the signature.
///
/// Validation runs before mutation: a returned error means nothing
/// changed.
pub fn apply_op(
    repo: &mut Repository,
    embeddings: Option<&mut Embeddings>,
    indexes: &mut [&mut InvertedIndex],
    minhash: Option<&mut MinHashIndex>,
    route: &dyn Fn(SetId) -> usize,
    op: &CorpusOp,
) -> Result<Applied, LiveError> {
    match op {
        CorpusOp::Insert {
            name,
            tokens,
            vectors,
        } => {
            if let Some(emb) = embeddings.as_deref() {
                check_rows(vectors, emb.dim())?;
            }
            let vocab_before = repo.vocab_size();
            let id = repo.append_set(name, tokens);
            let vocab_after = repo.vocab_size();
            if let Some(emb) = embeddings {
                emb.grow(vocab_after);
                for (token, row) in vectors {
                    // Rows apply only to tokens this op interned: existing
                    // vectors are immutable, so a replay can never
                    // retroactively change already-served scores.
                    match repo.token_id(token) {
                        Some(t) if t.idx() >= vocab_before => emb.set_raw_row(t, row),
                        _ => {}
                    }
                }
            }
            if let Some(mh) = minhash {
                for t in vocab_before..vocab_after {
                    let s = repo.token_str(koios_common::TokenId(t as u32));
                    mh.insert_signature(&token_grams(s, MINHASH_GRAM_WIDTH));
                }
            }
            let owner = route(id);
            for (shard, index) in indexes.iter_mut().enumerate() {
                index.grow_vocab(vocab_after);
                if shard == owner {
                    index.insert_postings(id, repo.set(id));
                }
            }
            Ok(Applied::Inserted(id))
        }
        CorpusOp::Remove { set } => {
            if !repo.is_live(*set) {
                return Err(LiveError::UnknownSet(*set));
            }
            let tokens = repo.set(*set).to_vec();
            repo.remove_set(*set);
            let owner = route(*set);
            if let Some(index) = indexes.get_mut(owner) {
                index.remove_set(*set, &tokens);
            }
            Ok(Applied::Removed(*set))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_common::TokenId;
    use koios_embed::repository::RepositoryBuilder;

    fn base() -> (Repository, Embeddings) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b"]);
        b.add_set("s1", ["b", "c"]);
        let repo = b.build();
        let mut emb = Embeddings::new(2, repo.vocab_size());
        for t in 0..repo.vocab_size() as u32 {
            emb.set(TokenId(t), &[1.0, t as f64]);
        }
        (repo, emb)
    }

    #[test]
    fn insert_then_remove_equals_cold_rebuild() {
        let (mut repo, mut emb) = base();
        let mut index = InvertedIndex::build(&repo);
        let ops = vec![
            CorpusOp::Insert {
                name: "s2".into(),
                tokens: vec!["c".into(), "d".into()],
                vectors: vec![("d".into(), vec![0.6, 0.8])],
            },
            CorpusOp::remove(SetId(0)),
        ];
        for op in &ops {
            apply_op(
                &mut repo,
                Some(&mut emb),
                &mut [&mut index],
                None,
                &|_| 0,
                op,
            )
            .unwrap();
        }
        // Cold rebuild: replay the same ops onto a fresh copy of the base.
        let (mut repo2, mut emb2) = base();
        let mut index2 = InvertedIndex::build(&repo2);
        for op in &ops {
            apply_op(
                &mut repo2,
                Some(&mut emb2),
                &mut [&mut index2],
                None,
                &|_| 0,
                op,
            )
            .unwrap();
        }
        assert_eq!(repo.num_sets(), repo2.num_sets());
        assert_eq!(emb.raw_data(), emb2.raw_data());
        assert_eq!(emb.present_mask(), emb2.present_mask());
        for t in 0..repo.vocab_size() as u32 {
            assert_eq!(index.postings(TokenId(t)), index2.postings(TokenId(t)));
        }
        // And equals a from-scratch InvertedIndex over the mutated repo.
        let fresh = InvertedIndex::build(&repo);
        assert_eq!(index.total_postings(), fresh.total_postings());
        for t in 0..repo.vocab_size() as u32 {
            assert_eq!(index.postings(TokenId(t)), fresh.postings(TokenId(t)));
        }
    }

    #[test]
    fn bad_ops_are_rejected_without_mutation() {
        let (mut repo, mut emb) = base();
        let mut index = InvertedIndex::build(&repo);
        let sets_before = repo.num_sets();
        let vocab_before = repo.vocab_size();

        let err = apply_op(
            &mut repo,
            Some(&mut emb),
            &mut [&mut index],
            None,
            &|_| 0,
            &CorpusOp::remove(SetId(99)),
        )
        .unwrap_err();
        assert_eq!(err, LiveError::UnknownSet(SetId(99)));

        let non_finite = LiveError::NonFinite { token: "zz".into() };
        for (row, expected) in [
            (
                vec![1.0, 2.0, 3.0],
                LiveError::DimMismatch {
                    token: "zz".into(),
                    got: 3,
                    expected: 2,
                },
            ),
            (vec![f32::INFINITY, 0.0], non_finite.clone()),
            (vec![0.6, f32::NAN], non_finite),
        ] {
            let err = apply_op(
                &mut repo,
                Some(&mut emb),
                &mut [&mut index],
                None,
                &|_| 0,
                &CorpusOp::Insert {
                    name: "bad".into(),
                    tokens: vec!["zz".into()],
                    vectors: vec![("zz".into(), row)],
                },
            )
            .unwrap_err();
            assert_eq!(err, expected, "{err}");
            assert_eq!(repo.num_sets(), sets_before);
            assert_eq!(repo.vocab_size(), vocab_before);
            assert_eq!(emb.vocab(), vocab_before);
        }
    }

    #[test]
    fn existing_vectors_are_immutable() {
        let (mut repo, mut emb) = base();
        let a_row = emb.get(repo.token_id("a").unwrap()).unwrap().to_vec();
        let mut index = InvertedIndex::build(&repo);
        apply_op(
            &mut repo,
            Some(&mut emb),
            &mut [&mut index],
            None,
            &|_| 0,
            &CorpusOp::Insert {
                name: "s2".into(),
                tokens: vec!["a".into()],
                vectors: vec![("a".into(), vec![9.0, 9.0])],
            },
        )
        .unwrap();
        assert_eq!(
            emb.get(repo.token_id("a").unwrap()).unwrap(),
            &a_row[..],
            "row for an existing token must be ignored"
        );
    }

    #[test]
    fn inserts_grow_a_minhash_index_like_a_rebuild() {
        use crate::minhash::{vocabulary_grams, MinHashParams};
        let (mut repo, _) = base();
        let grams = vocabulary_grams(&repo, MINHASH_GRAM_WIDTH);
        let mut mh = MinHashIndex::build(&grams, MinHashParams::default());
        let mut index = InvertedIndex::build(&repo);
        let ops = [
            CorpusOp::insert("s2", ["blaine", "c", "dee"]),
            CorpusOp::remove(SetId(0)),
            CorpusOp::insert("s3", ["blaines", ""]),
        ];
        for op in &ops {
            apply_op(
                &mut repo,
                None,
                &mut [&mut index],
                Some(&mut mh),
                &|_| 0,
                op,
            )
            .unwrap();
        }
        let grams = vocabulary_grams(&repo, MINHASH_GRAM_WIDTH);
        let rebuilt = MinHashIndex::build(&grams, MinHashParams::default());
        assert_eq!(repo.vocab_size(), 7);
        for t in 0..repo.vocab_size() as u32 {
            assert_eq!(
                mh.collisions(TokenId(t)),
                rebuilt.collisions(TokenId(t)),
                "token {t}"
            );
        }
        let blaine = repo.token_id("blaine").unwrap();
        assert!(mh
            .collisions(blaine)
            .contains(&repo.token_id("blaines").unwrap()));
    }

    #[test]
    fn partitioned_routing_updates_only_the_owner_shard() {
        let (mut repo, _) = base();
        let mut i0 = InvertedIndex::build_subset(&repo, [SetId(0)]);
        let mut i1 = InvertedIndex::build_subset(&repo, [SetId(1)]);
        let applied = apply_op(
            &mut repo,
            None,
            &mut [&mut i0, &mut i1],
            None,
            &|id| (id.0 % 2) as usize,
            &CorpusOp::insert("s2", ["a", "e"]),
        )
        .unwrap();
        assert_eq!(applied, Applied::Inserted(SetId(2)));
        let a = repo.token_id("a").unwrap();
        // SetId(2) routes to shard 0; shard 1 must only have grown.
        assert!(i0.postings(a).contains(&SetId(2)));
        assert!(!i1.postings(a).contains(&SetId(2)));
        assert_eq!(i0.num_tokens(), repo.vocab_size());
        assert_eq!(i1.num_tokens(), repo.vocab_size());
    }
}
