//! Shared primitives for the Koios workspace.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`TokenId`] / [`SetId`] — compact newtype identifiers for set elements
//!   (tokens) and sets.
//! * [`Sim`] — a total-ordered, NaN-free similarity value in `[0, 1]`
//!   (edge weights of the semantic-overlap bipartite graph).
//! * [`fingerprint::Fingerprinter`] — stable 64-bit request fingerprints
//!   (cache keys for the serving layer).
//! * [`cache::StripedLru`] — the one weighted, striped LRU of the workspace;
//!   the service's result cache and the index's token kNN cache are thin
//!   typed wrappers over it.
//! * [`Interner`] — a string interner mapping tokens to [`TokenId`]s.
//! * [`topk::TopKList`] — the bounded score lists the paper calls `Llb` and
//!   `Lub` (running top-k lower/upper bounds, `θ` = bottom of the list).
//! * [`memsize::HeapSize`] — heap-footprint accounting used to reproduce the
//!   paper's memory experiments (Table III, Fig. 5d/6d/7d).
//! * [`sparse::SpanArena`] — small sorted integer sets stored as
//!   [`sparse::Span`]s in one shared `u32` arena: the per-candidate
//!   matched/seen element sets of refinement, which allocate nothing per
//!   candidate.
//! * [`json::Json`] — a minimal JSON value with an encoder/decoder (the wire
//!   format of the `koios-net` HTTP front-end; crates.io — and therefore
//!   `serde` — is unreachable here).
//! * [`pool::Pool`] — the one worker pool of the workspace (FIFO job queue,
//!   worker loop, shutdown protocol, panic capture, [`pool::Ticket`] result
//!   slot); the service's request workers and the core's shard executor are
//!   two instances of it.
//! * [`profile`] — the publishing side of the cooperative wall-clock
//!   profiler: per-thread atomic `(stage, shard)` slots the engine and
//!   service crates write and the `koios-telemetry` sampler reads.
//!
//! Entry points: most users only touch [`TokenId`]/[`SetId`] (returned by
//! `Repository::intern_query` in `koios-embed`) and import the rest through
//! [`prelude`]; the other items are engine-internal plumbing.

pub mod cache;
pub mod fingerprint;
pub mod ids;
pub mod interner;
pub mod json;
pub mod memsize;
pub mod pool;
pub mod profile;
pub mod sim;
pub mod sparse;
pub mod topk;

pub use fingerprint::Fingerprinter;
pub use ids::{SetId, TokenId};
pub use interner::Interner;
pub use json::Json;
pub use memsize::HeapSize;
pub use sim::Sim;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::fingerprint::Fingerprinter;
    pub use crate::ids::{SetId, TokenId};
    pub use crate::interner::Interner;
    pub use crate::json::Json;
    pub use crate::memsize::HeapSize;
    pub use crate::sim::Sim;
    pub use crate::topk::TopKList;
}
