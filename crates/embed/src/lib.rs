//! Embedding substrate and element similarities for Koios.
//!
//! The paper evaluates semantic overlap with the cosine similarity of
//! FastText word embeddings; pre-trained vectors are not available offline,
//! so this crate provides a **synthetic clustered embedding model**
//! ([`synthetic`]) that reproduces the property the Koios filters actually
//! consume: every token has a small semantic neighbourhood of high-cosine
//! tokens (synonyms/cluster members above `α`) and a long tail of sub-`α`
//! noise, plus optional out-of-vocabulary tokens with no vector at all
//! (DESIGN.md §3 documents this substitution).
//!
//! The crate also hosts the corpus container ([`repository`]) and the
//! pluggable element-similarity functions ([`sim`]): cosine of embeddings,
//! q-gram Jaccard, word Jaccard, edit similarity, and strict equality
//! (which degenerates semantic overlap to vanilla overlap).
//!
//! Entry points: build a corpus with [`RepositoryBuilder`], intern queries
//! via [`Repository::intern_query`], and hand an
//! `Arc<dyn ElementSimilarity>` (e.g. [`CosineSimilarity`] over
//! [`SyntheticEmbeddings`], or [`QGramJaccard`]) to the engine in
//! `koios-core`, wrapping the repository in an `Arc` once: every engine
//! shares ownership of the corpus it searches.

pub mod ops;
pub mod rand_util;
pub mod repository;
pub mod sim;
pub mod synthetic;
pub mod vectors;

pub use ops::CorpusOp;
pub use repository::{Repository, RepositoryBuilder};
pub use sim::{
    CosineSimilarity, EditSimilarity, ElementSimilarity, EqualitySimilarity, QGramJaccard,
    WordJaccard,
};
pub use synthetic::SyntheticEmbeddings;
pub use vectors::Embeddings;
