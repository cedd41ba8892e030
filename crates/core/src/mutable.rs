//! A mutable engine: live corpus mutation with immutable serving backends.
//!
//! The query path ([`Koios`] / [`PartitionedKoios`]) is deliberately
//! immutable — an engine borrows frozen state and can therefore be searched
//! from many threads without locks. [`MutableEngine`] is the *writer side*
//! of that bargain: it owns the canonical corpus state behind [`Arc`]s,
//! applies [`CorpusOp`] batches through the shared
//! [`koios_index::live::apply_op`] primitive, and mints a fresh, frozen
//! [`EngineBackend`] on demand ([`MutableEngine::backend`]). Readers keep
//! whatever backend they already hold; a writer that wants the mutation
//! visible swaps the new backend in (read-copy-update — `koios-service`
//! does exactly this).
//!
//! # Determinism
//!
//! Mutation is **replay-deterministic**: applying the same op sequence to
//! the same starting state — here, through a snapshot delta
//! (`koios_store::append_delta`), or via a cold rebuild — produces
//! bit-identical repositories, vectors and postings, so a mutated engine
//! returns byte-identical hits to a freshly built one. The `Arc`s use
//! copy-on-write ([`Arc::make_mut`]): state only clones while a reader
//! still holds it, so a writer with exclusive state mutates in place.
//!
//! # Batch atomicity
//!
//! [`MutableEngine::apply`] validates the *whole* batch against a shadow of
//! the post-batch state before touching anything; a rejected batch
//! ([`BatchRejected`]) leaves the engine byte-identical to before the call.
//!
//! # Epochs and caches
//!
//! Every applied (non-empty) batch bumps the engine's `epoch`; backends are
//! minted with that epoch stamped into their [`KoiosConfig`], which surfaces
//! in [`SearchStats::epoch`](crate::stats::SearchStats) so results are
//! attributable to a corpus version. If the config carries a shared
//! `TokenKnnCache`, its generation is bumped too — cached token-kNN lists
//! are invalidated exactly when the corpus changes, never sooner.

use crate::backend::EngineBackend;
use crate::config::KoiosConfig;
use crate::engine::Koios;
use crate::partitioned::PartitionedKoios;
use koios_common::fingerprint::partition_of;
use koios_common::SetId;
use koios_embed::ops::CorpusOp;
use koios_embed::repository::Repository;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use koios_embed::vectors::Embeddings;
use koios_index::inverted::InvertedIndex;
use koios_index::live::{apply_op, Applied, LiveError};
use koios_store::snapshot::{SectionKind, SnapshotLayout, SnapshotMeta, SnapshotState, StoreError};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Builds the similarity a freshly minted backend searches under, from the
/// current repository and token vectors. Re-invoked after every mutation
/// (the embedding `Arc` may have been copy-on-write cloned); it must be
/// deterministic in *whether* it succeeds — [`MutableEngine`] validates it
/// once at construction and treats later failures as bugs.
pub type SimFactory = Arc<
    dyn Fn(
            &Arc<Repository>,
            Option<&Arc<Embeddings>>,
        ) -> Result<Arc<dyn ElementSimilarity>, StoreError>
        + Send
        + Sync,
>;

/// The standard [`SimFactory`]: cosine similarity over the engine's token
/// vectors. Fails with [`StoreError::MissingSection`] when the engine (or a
/// snapshot being restored) carries no embeddings.
pub fn cosine_factory() -> SimFactory {
    Arc::new(|_, emb| match emb {
        Some(e) => Ok(Arc::new(CosineSimilarity::new(Arc::clone(e))) as Arc<dyn ElementSimilarity>),
        None => Err(StoreError::MissingSection(SectionKind::Embeddings)),
    })
}

/// A batch refused by [`MutableEngine::apply`]. Nothing was mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRejected {
    /// Index of the offending op within the submitted batch.
    pub index: usize,
    /// Why that op cannot apply against the post-batch state.
    pub error: LiveError,
}

impl std::fmt::Display for BatchRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch rejected at op {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchRejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[derive(Debug, Clone, Copy)]
enum Layout {
    Single,
    Partitioned { partitions: usize, seed: u64 },
}

/// Owner of live corpus state; mints immutable [`EngineBackend`]s.
///
/// See the [module docs](self) for the mutation contract. Constructed over
/// in-memory state ([`MutableEngine::single`] /
/// [`MutableEngine::partitioned`]) or from a snapshot
/// ([`MutableEngine::from_snapshot`] / [`MutableEngine::from_state`]).
pub struct MutableEngine {
    repo: Arc<Repository>,
    embeddings: Option<Arc<Embeddings>>,
    indexes: Vec<Arc<InvertedIndex>>,
    layout: Layout,
    cfg: KoiosConfig,
    sim_factory: SimFactory,
    epoch: u64,
}

impl MutableEngine {
    /// Wraps a repository (plus optional token vectors) as a mutable
    /// single-index engine, building the inverted index here. Fails only if
    /// `sim_factory` rejects the state (e.g. [`cosine_factory`] without
    /// embeddings).
    pub fn single(
        repo: Arc<Repository>,
        embeddings: Option<Arc<Embeddings>>,
        cfg: KoiosConfig,
        sim_factory: SimFactory,
    ) -> Result<Self, StoreError> {
        let index = Arc::new(InvertedIndex::build(&repo));
        Self::assemble(
            repo,
            embeddings,
            vec![index],
            Layout::Single,
            cfg,
            sim_factory,
            0,
        )
    }

    /// Like [`MutableEngine::single`], but sharded: `partitions` inverted
    /// indexes with sets routed by the workspace shard function
    /// (`koios_common::fingerprint::partition_of`) under `seed`.
    pub fn partitioned(
        repo: Arc<Repository>,
        embeddings: Option<Arc<Embeddings>>,
        cfg: KoiosConfig,
        partitions: usize,
        seed: u64,
        sim_factory: SimFactory,
    ) -> Result<Self, StoreError> {
        assert!(partitions > 0, "need at least one partition");
        let indexes = (0..partitions)
            .map(|shard| {
                Arc::new(InvertedIndex::build_subset(
                    &repo,
                    repo.live_sets()
                        .map(|(id, _)| id)
                        .filter(|&id| partition_of(seed, id, partitions) == shard),
                ))
            })
            .collect();
        let layout = Layout::Partitioned { partitions, seed };
        Self::assemble(repo, embeddings, indexes, layout, cfg, sim_factory, 0)
    }

    /// Restores a mutable engine from a snapshot under cosine similarity
    /// ([`EngineBackend::from_snapshot`] is this plus one
    /// [`MutableEngine::backend`]). Delta sections are replayed by the
    /// store layer; the engine starts at the chain's latest epoch.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
    ) -> Result<(Self, SnapshotMeta), StoreError> {
        let state = koios_store::snapshot::read_snapshot(path.as_ref())?;
        let meta = state.meta.clone();
        let engine = Self::from_state(state, cfg, cosine_factory())?;
        Ok((engine, meta))
    }

    /// Wires a mutable engine from already-restored snapshot state with a
    /// caller-chosen similarity factory. The restored layout decides the
    /// backend variant; the engine's epoch starts at
    /// [`SnapshotMeta::latest_epoch`] so epochs keep rising across a
    /// snapshot round-trip.
    pub fn from_state(
        state: SnapshotState,
        cfg: KoiosConfig,
        sim_factory: SimFactory,
    ) -> Result<Self, StoreError> {
        let SnapshotState {
            meta,
            repository,
            embeddings,
            indexes,
        } = state;
        let layout = match meta.layout {
            SnapshotLayout::Single => Layout::Single,
            SnapshotLayout::Partitioned { partitions, seed } => Layout::Partitioned {
                partitions: partitions as usize,
                seed,
            },
        };
        Self::assemble(
            Arc::new(repository),
            embeddings.map(Arc::new),
            indexes.into_iter().map(Arc::new).collect(),
            layout,
            cfg,
            sim_factory,
            meta.latest_epoch(),
        )
    }

    fn assemble(
        repo: Arc<Repository>,
        embeddings: Option<Arc<Embeddings>>,
        indexes: Vec<Arc<InvertedIndex>>,
        layout: Layout,
        cfg: KoiosConfig,
        sim_factory: SimFactory,
        epoch: u64,
    ) -> Result<Self, StoreError> {
        // Validate the factory once, up front: `backend()` relies on it
        // succeeding for the lifetime of the engine (embedding presence
        // never changes after construction).
        sim_factory(&repo, embeddings.as_ref())?;
        Ok(MutableEngine {
            repo,
            embeddings,
            indexes,
            layout,
            cfg,
            sim_factory,
            epoch,
        })
    }

    /// The corpus version: 0 at construction (or the snapshot chain's
    /// latest epoch), +1 per applied non-empty batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the epoch to at least `epoch` (never lowers it). Serving
    /// layers use this when swapping in a reloaded engine so the new
    /// engine's epoch is strictly greater than the replaced one's — cached
    /// results keyed by the old epoch can then never be confused with
    /// fresh ones.
    pub fn advance_epoch_to(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// The similarity factory minted backends are built with (shared so a
    /// serving layer can reload a snapshot under the same similarity).
    pub fn sim_factory(&self) -> SimFactory {
        Arc::clone(&self.sim_factory)
    }

    /// Replaces the shared token-kNN cache carried by minted backends
    /// (`None` strips it). Serving layers install their own cache here so
    /// every future backend — across mutations — shares one cache, which
    /// [`MutableEngine::apply`] then invalidates by generation bump.
    pub fn set_token_cache(&mut self, cache: Option<Arc<koios_index::knn_cache::TokenKnnCache>>) {
        self.cfg.token_cache = cache;
    }

    /// The canonical repository (current corpus state).
    pub fn repository(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// The token vectors, when the engine carries any.
    pub fn embeddings(&self) -> Option<&Arc<Embeddings>> {
        self.embeddings.as_ref()
    }

    /// The base search configuration backends are minted from.
    pub fn config(&self) -> &KoiosConfig {
        &self.cfg
    }

    /// Number of index shards (1 for the single layout).
    pub fn num_partitions(&self) -> usize {
        self.indexes.len()
    }

    /// Applies a batch of corpus ops atomically: either every op applies
    /// (in order) and the epoch advances by one, or the batch is rejected
    /// ([`BatchRejected`]) and the engine is untouched. An empty batch is a
    /// no-op and does **not** bump the epoch.
    ///
    /// On success the shared token-kNN cache generation (if the config
    /// carries one) is bumped, invalidating stale cached neighbour lists;
    /// call [`MutableEngine::backend`] to mint a backend that serves the
    /// new state.
    pub fn apply(&mut self, ops: &[CorpusOp]) -> Result<Vec<Applied>, BatchRejected> {
        self.validate(ops)?;
        let repo = Arc::make_mut(&mut self.repo);
        let mut emb = self.embeddings.as_mut().map(Arc::make_mut);
        let mut index_refs: Vec<&mut InvertedIndex> =
            self.indexes.iter_mut().map(Arc::make_mut).collect();
        let route: Box<dyn Fn(SetId) -> usize> = match self.layout {
            Layout::Single => Box::new(|_| 0),
            Layout::Partitioned { partitions, seed } => {
                Box::new(move |id| partition_of(seed, id, partitions))
            }
        };
        let mut applied = Vec::with_capacity(ops.len());
        for op in ops {
            let done = apply_op(repo, emb.as_deref_mut(), &mut index_refs, None, &route, op)
                .expect("batch passed pre-validation");
            applied.push(done);
        }
        if !applied.is_empty() {
            self.epoch += 1;
            if let Some(cache) = &self.cfg.token_cache {
                cache.bump_generation();
            }
        }
        Ok(applied)
    }

    /// Checks the whole batch against a shadow of the post-batch state so
    /// a failure cannot leave a half-applied batch behind.
    fn validate(&self, ops: &[CorpusOp]) -> Result<(), BatchRejected> {
        let mut next_id = self.repo.num_sets() as u32;
        let mut removed: HashSet<SetId> = HashSet::new();
        for (index, op) in ops.iter().enumerate() {
            match op {
                CorpusOp::Insert { vectors, .. } => {
                    if let Some(emb) = &self.embeddings {
                        for (token, row) in vectors {
                            if row.len() != emb.dim() {
                                return Err(BatchRejected {
                                    index,
                                    error: LiveError::DimMismatch {
                                        token: token.clone(),
                                        got: row.len(),
                                        expected: emb.dim(),
                                    },
                                });
                            }
                        }
                    }
                    next_id += 1;
                }
                CorpusOp::Remove { set } => {
                    let live_in_base =
                        set.0 < self.repo.num_sets() as u32 && self.repo.is_live(*set);
                    let live_in_batch = set.0 >= self.repo.num_sets() as u32 && set.0 < next_id;
                    if (!live_in_base && !live_in_batch) || removed.contains(set) {
                        return Err(BatchRejected {
                            index,
                            error: LiveError::UnknownSet(*set),
                        });
                    }
                    removed.insert(*set);
                }
            }
        }
        Ok(())
    }

    /// Mints an immutable, query-ready backend over the current state. The
    /// backend shares the engine's `Arc`s (zero-copy) and carries the
    /// current epoch in its config; it stays valid — frozen at this version
    /// — however many batches are applied afterwards.
    pub fn backend(&self) -> EngineBackend {
        let sim = (self.sim_factory)(&self.repo, self.embeddings.as_ref())
            .expect("similarity factory succeeded at construction");
        let cfg = self.cfg.clone().with_epoch(self.epoch);
        match self.layout {
            Layout::Single => EngineBackend::Single(Koios::with_index(
                Arc::clone(&self.repo),
                sim,
                Arc::clone(&self.indexes[0]),
                cfg,
            )),
            Layout::Partitioned { seed, .. } => {
                EngineBackend::Partitioned(PartitionedKoios::from_indexes(
                    Arc::clone(&self.repo),
                    sim,
                    cfg,
                    self.indexes.clone(),
                    seed,
                ))
            }
        }
    }

    /// Writes the current state as a fresh snapshot **base** (no delta
    /// sections — epoch provenance restarts at 0, like
    /// `koios_store::compact`). Token vectors are included when the engine
    /// carries them. For incremental persistence, append the op batches to
    /// an existing snapshot with `koios_store::append_delta` instead.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<SnapshotMeta, StoreError> {
        self.backend()
            .write_snapshot(path, self.embeddings.as_deref())
    }
}

impl std::fmt::Debug for MutableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableEngine")
            .field("epoch", &self.epoch)
            .field("num_sets", &self.repo.num_sets())
            .field("live_sets", &self.repo.num_live_sets())
            .field("partitions", &self.indexes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::synthetic::SyntheticEmbeddings;
    use koios_index::knn_cache::TokenKnnCache;

    fn corpus() -> (Arc<Repository>, Arc<Embeddings>) {
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton", "MtPleasant"]);
        b.add_set("c2", ["LA", "Sacramento", "Blain", "SC"]);
        b.add_set("c3", ["Zebra", "Yak", "Gnu", "Appleton"]);
        b.add_set("c4", ["LA", "SC", "Yak"]);
        let repo = Arc::new(b.build());
        let emb = SyntheticEmbeddings::builder()
            .dimensions(16)
            .seed(9)
            .build(&repo);
        (repo, Arc::new(emb))
    }

    fn ops() -> Vec<CorpusOp> {
        vec![
            CorpusOp::Insert {
                name: "c5".into(),
                tokens: vec!["Fresno".into(), "LA".into(), "Yak".into()],
                vectors: vec![("Fresno".into(), vec![0.25; 16])],
            },
            CorpusOp::remove(SetId(1)),
            CorpusOp::insert("c6", ["Fresno", "SC"]),
        ]
    }

    /// Rebuilds the same end state cold: replay every op into a plain
    /// repository + embeddings, then index from scratch.
    fn rebuilt(engine_kind: &str) -> MutableEngine {
        let (repo, emb) = corpus();
        let mut r = (*repo).clone();
        let mut e = (*emb).clone();
        let mut scratch = InvertedIndex::build(&r);
        for op in ops() {
            apply_op(&mut r, Some(&mut e), &mut [&mut scratch], None, &|_| 0, &op).unwrap();
        }
        let (repo, emb) = (Arc::new(r), Arc::new(e));
        match engine_kind {
            "single" => {
                MutableEngine::single(repo, Some(emb), KoiosConfig::new(3, 0.4), cosine_factory())
                    .unwrap()
            }
            _ => MutableEngine::partitioned(
                repo,
                Some(emb),
                KoiosConfig::new(3, 0.4),
                3,
                41,
                cosine_factory(),
            )
            .unwrap(),
        }
    }

    #[test]
    fn mutation_equals_cold_rebuild_single() {
        let (repo, emb) = corpus();
        let mut live =
            MutableEngine::single(repo, Some(emb), KoiosConfig::new(3, 0.4), cosine_factory())
                .unwrap();
        let applied = live.apply(&ops()).unwrap();
        assert_eq!(applied.len(), 3);
        assert!(matches!(applied[0], Applied::Inserted(SetId(4))));
        let cold = rebuilt("single");
        let q = live.repository().intern_query(["LA", "Fresno", "SC"]);
        assert_eq!(
            live.backend().search(&q).hits,
            cold.backend().search(&q).hits
        );
        assert_eq!(
            live.repository().tombstones().collect::<Vec<_>>(),
            vec![SetId(1)]
        );
    }

    #[test]
    fn mutation_equals_cold_rebuild_partitioned() {
        let (repo, emb) = corpus();
        let mut live = MutableEngine::partitioned(
            repo,
            Some(emb),
            KoiosConfig::new(3, 0.4),
            3,
            41,
            cosine_factory(),
        )
        .unwrap();
        live.apply(&ops()).unwrap();
        let cold = rebuilt("partitioned");
        // Shard indexes must match posting-for-posting, not just by hits.
        let (live_b, cold_b) = (live.backend(), cold.backend());
        let (lp, cp) = (
            live_b.as_partitioned().unwrap(),
            cold_b.as_partitioned().unwrap(),
        );
        for (li, ci) in lp.indexes().iter().zip(cp.indexes().iter()) {
            assert_eq!(li.total_postings(), ci.total_postings());
            for t in 0..li.num_tokens() as u32 {
                assert_eq!(
                    li.postings(koios_common::TokenId(t)),
                    ci.postings(koios_common::TokenId(t))
                );
            }
        }
        let q = live.repository().intern_query(["LA", "Fresno", "SC"]);
        assert_eq!(live_b.search(&q).hits, cold_b.search(&q).hits);
    }

    #[test]
    fn rejected_batches_mutate_nothing() {
        let (repo, emb) = corpus();
        let mut live = MutableEngine::single(
            Arc::clone(&repo),
            Some(Arc::clone(&emb)),
            KoiosConfig::new(3, 0.4),
            cosine_factory(),
        )
        .unwrap();
        // Good insert followed by a bad remove: nothing must apply.
        let bad = vec![
            CorpusOp::insert("good", ["LA"]),
            CorpusOp::remove(SetId(99)),
        ];
        let err = live.apply(&bad).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.error, LiveError::UnknownSet(SetId(99))));
        assert!(err.to_string().contains("op 1"));
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.repository().num_sets(), 4);
        assert!(Arc::ptr_eq(live.repository(), &repo));

        // Dimension mismatch is caught before any mutation too.
        let bad = vec![CorpusOp::Insert {
            name: "badrow".into(),
            tokens: vec!["Nope".into()],
            vectors: vec![("Nope".into(), vec![1.0; 7])],
        }];
        let err = live.apply(&bad).unwrap_err();
        assert!(matches!(
            err.error,
            LiveError::DimMismatch {
                got: 7,
                expected: 16,
                ..
            }
        ));

        // Double-remove within one batch is a batch error.
        let bad = vec![CorpusOp::remove(SetId(0)), CorpusOp::remove(SetId(0))];
        let err = live.apply(&bad).unwrap_err();
        assert_eq!(err.index, 1);

        // Removing a set inserted earlier in the same batch is fine.
        let ok = vec![
            CorpusOp::insert("ephemeral", ["LA"]),
            CorpusOp::remove(SetId(4)),
        ];
        assert_eq!(live.apply(&ok).unwrap().len(), 2);
        assert!(!live.repository().is_live(SetId(4)));
    }

    #[test]
    fn epochs_and_cache_generations_advance_together() {
        let (repo, emb) = corpus();
        let cache = Arc::new(TokenKnnCache::new(1 << 16));
        let cfg = KoiosConfig::new(3, 0.4).with_token_cache(Arc::clone(&cache));
        let mut live = MutableEngine::single(repo, Some(emb), cfg, cosine_factory()).unwrap();
        assert_eq!(live.epoch(), 0);
        let gen0 = cache.generation();

        let stale = live.backend();
        assert_eq!(stale.config().epoch, 0);

        live.apply(&[CorpusOp::insert("x", ["LA"])]).unwrap();
        assert_eq!(live.epoch(), 1);
        assert!(cache.generation() > gen0);
        assert_eq!(live.backend().config().epoch, 1);
        // Empty batches are free: no epoch bump, no cache invalidation.
        let gen1 = cache.generation();
        assert!(live.apply(&[]).unwrap().is_empty());
        assert_eq!(live.epoch(), 1);
        assert_eq!(cache.generation(), gen1);

        // The stale backend still serves its frozen state and epoch.
        assert_eq!(stale.config().epoch, 0);
        assert_eq!(stale.repository().num_sets(), 4);
        // Search results carry the epoch of the backend that served them.
        let q = live.repository().intern_query(["LA"]);
        assert_eq!(live.backend().search(&q).stats.epoch, 1);
        assert_eq!(stale.search(&q).stats.epoch, 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_layout() {
        let dir = std::env::temp_dir().join("koios-core-mutable");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ksnap");

        let (repo, emb) = corpus();
        let mut live = MutableEngine::partitioned(
            repo,
            Some(emb),
            KoiosConfig::new(3, 0.4),
            3,
            41,
            cosine_factory(),
        )
        .unwrap();
        live.apply(&ops()).unwrap();
        live.write_snapshot(&path).unwrap();

        let (mut warm, meta) =
            MutableEngine::from_snapshot(&path, KoiosConfig::new(3, 0.4)).unwrap();
        assert_eq!(meta.layout.describe(), "partitioned(3)");
        // A fresh base carries no delta provenance.
        assert_eq!(warm.epoch(), 0);
        assert_eq!(warm.num_partitions(), 3);
        let q = live.repository().intern_query(["LA", "Fresno", "SC"]);
        assert_eq!(
            warm.backend().search(&q).hits,
            live.backend().search(&q).hits
        );
        // And the restored engine keeps mutating deterministically.
        warm.apply(&[CorpusOp::insert("post", ["Fresno", "LA"])])
            .unwrap();
        live.apply(&[CorpusOp::insert("post", ["Fresno", "LA"])])
            .unwrap();
        assert_eq!(
            warm.backend().search(&q).hits,
            live.backend().search(&q).hits
        );
    }

    #[test]
    fn factory_failures_surface_at_construction() {
        let (repo, _) = corpus();
        let err = MutableEngine::single(repo, None, KoiosConfig::new(3, 0.4), cosine_factory())
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::MissingSection(SectionKind::Embeddings)
        ));
    }
}
