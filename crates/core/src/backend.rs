//! The engine backend a serving layer routes to.
//!
//! A long-lived service wants to own *an* engine without caring whether it
//! is a single [`Koios`] over one inverted index or a
//! [`PartitionedKoios`] fanning out over shards
//! under a shared `θlb` (paper §VI, Fig. 7a). [`EngineBackend`] is that
//! seam: both variants expose the same configuration plumbing (cheap
//! `with_config` siblings for per-request `k`/`α` overrides, one
//! [`KoiosConfig::token_cache`] shared by every shard) and the same
//! deadline-aware search entry points, so the layers above are
//! backend-transparent — identical queries produce identical scores and
//! identical cache keys on either variant.

use crate::config::KoiosConfig;
use crate::engine::Koios;
use crate::partitioned::PartitionedKoios;
use crate::result::SearchResult;
use koios_common::{SetId, TokenId};
use koios_embed::repository::Repository;
use std::time::Instant;

/// An owned search engine: one index, or `p` shard indexes merged under a
/// shared monotone `θlb`.
///
/// Construct via the `From` impls ([`Koios`] / [`PartitionedKoios`]) or
/// hold one directly. Everything result-affecting lives in the shared
/// [`KoiosConfig`], so results — and therefore result-cache keys — do not
/// depend on the variant.
#[derive(Clone)]
pub enum EngineBackend {
    /// One engine over one repository-wide inverted index.
    Single(Koios),
    /// A sharded engine: per-partition indexes searched in parallel with a
    /// deadline-safe merge (see
    /// [`PartitionedKoios::search_with_deadline`](crate::PartitionedKoios::search_with_deadline)).
    Partitioned(PartitionedKoios),
}

impl EngineBackend {
    /// The engine configuration.
    pub fn config(&self) -> &KoiosConfig {
        match self {
            EngineBackend::Single(e) => e.config(),
            EngineBackend::Partitioned(e) => e.config(),
        }
    }

    /// A sibling backend over the same repository and index(es) with a
    /// different configuration — no index rebuild on either variant, so
    /// per-request overrides stay cheap.
    pub fn with_config(&self, cfg: KoiosConfig) -> Self {
        match self {
            EngineBackend::Single(e) => EngineBackend::Single(e.with_config(cfg)),
            EngineBackend::Partitioned(e) => EngineBackend::Partitioned(e.with_config(cfg)),
        }
    }

    /// The repository behind the engine.
    pub fn repository(&self) -> &Repository {
        match self {
            EngineBackend::Single(e) => e.repository(),
            EngineBackend::Partitioned(e) => e.repository(),
        }
    }

    /// Shared ownership of the repository behind the engine (an `Arc` bump
    /// — what serving layers hold across a hot swap).
    pub fn repository_arc(&self) -> std::sync::Arc<Repository> {
        match self {
            EngineBackend::Single(e) => e.repository_arc(),
            EngineBackend::Partitioned(e) => e.repository_arc(),
        }
    }

    /// Number of index partitions (1 for [`EngineBackend::Single`]).
    pub fn num_partitions(&self) -> usize {
        match self {
            EngineBackend::Single(_) => 1,
            EngineBackend::Partitioned(e) => e.num_partitions(),
        }
    }

    /// Runs a top-k search (see [`crate::Koios::search`]).
    pub fn search(&self, query: &[TokenId]) -> SearchResult {
        self.search_with_deadline(query, None)
    }

    /// Runs a top-k search bounded by an absolute deadline; the earlier of
    /// the deadline and the configuration's relative
    /// [`KoiosConfig::time_budget`] wins. On the partitioned variant the
    /// deadline bounds every shard *and* the merge-time verification loop.
    pub fn search_with_deadline(
        &self,
        query: &[TokenId],
        deadline: Option<Instant>,
    ) -> SearchResult {
        match self {
            EngineBackend::Single(e) => e.search_with_deadline(query, deadline),
            EngineBackend::Partitioned(e) => e.search_with_deadline(query, deadline),
        }
    }

    /// Exact overlap oracle passthrough (auditing answers; identical on
    /// both variants — partitioning never changes scores).
    pub fn exact_overlap(&self, query: &[TokenId], set: SetId) -> f64 {
        match self {
            EngineBackend::Single(e) => e.exact_overlap(query, set),
            EngineBackend::Partitioned(e) => e.exact_overlap(query, set),
        }
    }

    /// The single engine, when this backend is [`EngineBackend::Single`].
    pub fn as_single(&self) -> Option<&Koios> {
        match self {
            EngineBackend::Single(e) => Some(e),
            EngineBackend::Partitioned(_) => None,
        }
    }

    /// The partitioned engine, when this backend is
    /// [`EngineBackend::Partitioned`].
    pub fn as_partitioned(&self) -> Option<&PartitionedKoios> {
        match self {
            EngineBackend::Single(_) => None,
            EngineBackend::Partitioned(e) => Some(e),
        }
    }
}

impl From<Koios> for EngineBackend {
    fn from(engine: Koios) -> Self {
        EngineBackend::Single(engine)
    }
}

impl From<PartitionedKoios> for EngineBackend {
    fn from(engine: PartitionedKoios) -> Self {
        EngineBackend::Partitioned(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;
    use std::sync::Arc;

    fn repo() -> Arc<Repository> {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c", "d"]);
        b.add_set("s1", ["a", "b", "c", "x"]);
        b.add_set("s2", ["a", "b", "y", "z"]);
        b.add_set("s3", ["a", "m", "n", "o"]);
        Arc::new(b.build())
    }

    #[test]
    fn variants_agree_on_scores() {
        let repo = repo();
        let q = repo.intern_query(["a", "b", "c"]);
        let single: EngineBackend = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
        )
        .into();
        let parted: EngineBackend = PartitionedKoios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
            2,
            7,
        )
        .into();
        assert_eq!(single.num_partitions(), 1);
        assert_eq!(parted.num_partitions(), 2);
        let s = single.search(&q);
        let p = parted.search(&q);
        assert_eq!(s.hits.len(), p.hits.len());
        for (a, b) in s.hits.iter().zip(&p.hits) {
            assert!((a.score.ub() - b.score.ub()).abs() < 1e-9);
        }
        assert!(
            (single.exact_overlap(&q, SetId(0)) - parted.exact_overlap(&q, SetId(0))).abs() < 1e-9
        );
    }

    #[test]
    fn with_config_is_variant_preserving_and_cheap() {
        let repo = repo();
        let q = repo.intern_query(["a", "b", "c"]);
        let parted: EngineBackend = PartitionedKoios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
            2,
            7,
        )
        .into();
        let narrowed = parted.with_config(KoiosConfig::new(1, 0.9));
        assert!(narrowed.as_partitioned().is_some());
        assert!(narrowed.as_single().is_none());
        assert_eq!(narrowed.config().k, 1);
        assert_eq!(narrowed.search(&q).hits.len(), 1);
    }
}
