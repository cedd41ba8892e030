//! The Koios filter–verification framework (paper §III–§VII).
//!
//! [`Koios`] answers exact top-k semantic-overlap queries in two phases:
//!
//! 1. **Refinement** ([`refine`]): the token stream `Ie` feeds candidate
//!    discovery through the inverted index `Is`; candidates carry cheap
//!    lower bounds (incremental greedy matching, Lemma 5) and upper bounds
//!    (`Si + m·s`, bucketised by remaining capacity `m`, §V) and are pruned
//!    against the running threshold `θlb` — the k-th best lower bound
//!    (Lemma 4).
//! 2. **Post-processing** ([`postprocess`]): survivors are verified in
//!    upper-bound order; the No-EM filter (Lemma 7) certifies top-k
//!    membership without matching, and the Hungarian runs abort early once
//!    their label-sum falls under `θlb` (Lemma 8).
//!
//! [`PartitionedKoios`] scales out by sharding the repository and sharing a
//! global monotone `θlb` across partition searches (§VI).
//!
//! See `DESIGN.md` §2 for the soundness correction applied to the paper's
//! iUB bound ([`UbMode`]).

pub mod audit;
pub mod backend;
pub mod buckets;
pub mod config;
pub mod engine;
pub mod executor;
pub mod many_to_one;
pub mod mutable;
pub mod overlap;
pub mod partitioned;
pub mod persist;
pub mod postprocess;
pub mod refine;
pub mod result;
pub mod stats;
pub mod theta;

pub use audit::{audit_result, AuditOutcome};
pub use backend::EngineBackend;
pub use config::{KoiosConfig, UbMode};
pub use engine::Koios;
pub use executor::ShardExecutor;
pub use many_to_one::{bounded_many_to_one_overlap, many_to_one_overlap};
pub use mutable::{cosine_factory, BatchRejected, MutableEngine, SimFactory};
pub use overlap::{
    greedy_overlap, semantic_overlap, semantic_overlap_bounded,
    semantic_overlap_bounded_with_effort, similarity_matrix, MatchingEffort, QueryEdges,
};
pub use partitioned::PartitionedKoios;
pub use result::{Hit, ScoreBound, SearchResult};
pub use stats::{FunnelCounts, SearchStats, ShardFunnel};
pub use theta::SharedTheta;
