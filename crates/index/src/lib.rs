//! Index substrate for Koios (paper §IV).
//!
//! Two structures drive the refinement phase:
//!
//! * the **inverted index** `Is` ([`inverted::InvertedIndex`]), mapping each
//!   vocabulary token to the sets containing it, and
//! * the **token stream** `Ie` ([`token_stream::TokenStream`]), which emits
//!   `(query element, vocabulary token, similarity)` tuples in globally
//!   descending similarity order until the similarity falls below `α`.
//!
//! The stream is realised exactly as the paper describes: one [`knn`] source
//! per query element (the paper uses a GPU Faiss index; we provide exact
//! in-memory equivalents, see ARCHITECTURE.md, "Deviations from the
//! paper" 2) merged through a priority queue of size `|Q|`, with the query
//! element itself emitted first so vanilla overlap seeds the bounds and
//! out-of-vocabulary elements are handled.
//!
//! A search fetches every element's complete list once
//! ([`knn::lists`]), and the stream replays them ([`ExactScanKnn`]).
//! Because per-element kNN lists depend only on `(token, α)` — never on the
//! rest of the query — they repeat across *similar* queries. The
//! [`knn_cache`] module exploits that seam: [`TokenKnnCache`] shares
//! complete per-element lists across searches, and the fetch replays them.

pub mod inverted;
pub mod knn;
pub mod knn_cache;
pub mod live;
pub mod minhash;
pub mod token_stream;

pub use inverted::InvertedIndex;
pub use knn::{ExactScanKnn, KnnSource};
pub use knn_cache::{KnnCacheCounters, KnnCacheSearchStats, KnnCacheSnapshot, TokenKnnCache};
pub use live::{apply_op, Applied, LiveError};
pub use minhash::{MinHashIndex, MinHashKnn, MinHashParams};
pub use token_stream::{StreamTuple, TokenStream};
