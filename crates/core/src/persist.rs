//! Engine persistence: snapshot write-out and warm-start restore.
//!
//! `koios-store` owns the binary format (sections, checksums, typed
//! errors); this module threads it through the engine layer so one call
//! saves or restores a query-ready backend:
//!
//! * [`EngineBackend::write_snapshot`] serializes the repository, optional
//!   token vectors and every inverted index (one per shard on the
//!   partitioned variant) under the matching [`SnapshotLayout`].
//! * [`EngineBackend::from_snapshot`] restores whichever layout the
//!   snapshot holds — no rebuild, no re-partitioning: shard indexes come
//!   back bit-exactly, so a warm-started engine returns byte-identical
//!   hits. The default constructor rebuilds a [`CosineSimilarity`] over
//!   the snapshotted vectors; [`EngineBackend::from_snapshot_with`]
//!   accepts any similarity factory (equality, q-gram Jaccard, …).
//! * [`Koios::from_snapshot`] / [`PartitionedKoios::from_snapshot`] are
//!   the layout-checked variants: loading a sharded snapshot into a
//!   single engine (or vice versa) fails with
//!   [`StoreError::LayoutMismatch`] instead of silently degrading.

use crate::backend::EngineBackend;
use crate::config::KoiosConfig;
use crate::engine::Koios;
use crate::partitioned::PartitionedKoios;
use koios_embed::repository::Repository;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use koios_embed::vectors::Embeddings;
use koios_store::snapshot::{
    read_snapshot, write_snapshot, SectionKind, SnapshotLayout, SnapshotMeta, SnapshotState,
    SnapshotView, StoreError,
};
use std::path::Path;
use std::sync::Arc;

impl EngineBackend {
    /// Serializes this backend's query-ready state — repository, the
    /// engine's inverted index(es) under the matching layout, and
    /// optionally the token vectors behind an embedding-based similarity —
    /// to `path` (conventionally `*.ksnap`). Pass the embeddings whenever
    /// the engine searches under [`CosineSimilarity`]; without them a
    /// restore must supply its own similarity via
    /// [`EngineBackend::from_snapshot_with`].
    pub fn write_snapshot(
        &self,
        path: impl AsRef<Path>,
        embeddings: Option<&Embeddings>,
    ) -> Result<SnapshotMeta, StoreError> {
        let view = match self {
            EngineBackend::Single(e) => SnapshotView {
                repository: e.repository(),
                embeddings,
                layout: SnapshotLayout::Single,
                indexes: vec![e.index().as_ref()],
            },
            EngineBackend::Partitioned(p) => SnapshotView {
                repository: p.repository(),
                embeddings,
                layout: SnapshotLayout::Partitioned {
                    partitions: p.num_partitions() as u32,
                    seed: p.partition_seed(),
                },
                indexes: p.indexes().iter().map(|i| i.as_ref()).collect(),
            },
        };
        write_snapshot(path.as_ref(), &view)
    }

    /// Restores a backend from a snapshot, searching under a
    /// [`CosineSimilarity`] rebuilt over the snapshotted token vectors
    /// (bit-identical to the saved ones, so scores are too). Fails with
    /// [`StoreError::MissingSection`] when the snapshot carries no
    /// embeddings — use [`Self::from_snapshot_with`] for engines over
    /// other similarities.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError> {
        let state = read_snapshot(path.as_ref())?;
        Self::from_state(state, cfg, |_, emb| match emb {
            Some(emb) => Ok(Arc::new(CosineSimilarity::new(emb)) as Arc<dyn ElementSimilarity>),
            None => Err(StoreError::MissingSection(SectionKind::Embeddings)),
        })
    }

    /// Restores a backend from a snapshot with a caller-chosen similarity:
    /// `make_sim` receives the restored repository and token vectors (if
    /// any) and returns the `Arc<dyn ElementSimilarity>` the engine will
    /// search under. The similarity must match the one the snapshot was
    /// built for if warm results are to equal cold results.
    pub fn from_snapshot_with<F>(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
        make_sim: F,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError>
    where
        F: FnOnce(&Repository, Option<Arc<Embeddings>>) -> Arc<dyn ElementSimilarity>,
    {
        let state = read_snapshot(path.as_ref())?;
        Self::from_state(state, cfg, |repo, emb| Ok(make_sim(repo, emb)))
    }

    /// Wires a backend from already-restored snapshot state (the layout
    /// decides the variant). Exposed so callers that inspected or
    /// transformed a [`SnapshotState`] can finish construction without a
    /// second file read. The similarity factory is fallible so callers can
    /// refuse snapshots missing what their similarity needs (e.g. no
    /// embeddings section) before any engine is built.
    pub fn from_state<F>(
        state: SnapshotState,
        cfg: KoiosConfig,
        make_sim: F,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError>
    where
        F: FnOnce(
            &Repository,
            Option<Arc<Embeddings>>,
        ) -> Result<Arc<dyn ElementSimilarity>, StoreError>,
    {
        let SnapshotState {
            meta,
            repository,
            embeddings,
            indexes,
        } = state;
        let repo = Arc::new(repository);
        let emb = embeddings.map(Arc::new);
        let sim = make_sim(&repo, emb)?;
        let backend = match meta.layout {
            SnapshotLayout::Single => {
                let index = indexes
                    .into_iter()
                    .next()
                    .expect("read_snapshot guarantees at least one index");
                EngineBackend::Single(Koios::with_index(
                    Arc::clone(&repo),
                    sim,
                    Arc::new(index),
                    cfg,
                ))
            }
            SnapshotLayout::Partitioned { seed, .. } => {
                EngineBackend::Partitioned(PartitionedKoios::from_indexes(
                    repo,
                    sim,
                    cfg,
                    indexes.into_iter().map(Arc::new).collect(),
                    seed,
                ))
            }
        };
        Ok((backend, meta))
    }
}

impl Koios {
    /// Restores a **single-index** engine from a snapshot (cosine
    /// similarity over the snapshotted vectors). A snapshot holding a
    /// partitioned layout is refused with [`StoreError::LayoutMismatch`] —
    /// its shard indexes only cover subsets of the repository, so treating
    /// one as a full index would silently drop results.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
    ) -> Result<(Koios, SnapshotMeta), StoreError> {
        match EngineBackend::from_snapshot(path, cfg)? {
            (EngineBackend::Single(e), meta) => Ok((e, meta)),
            (EngineBackend::Partitioned(_), meta) => Err(StoreError::LayoutMismatch {
                expected: "single",
                found: meta.layout.describe(),
            }),
        }
    }
}

impl PartitionedKoios {
    /// Restores a **partitioned** engine from a snapshot (cosine
    /// similarity over the snapshotted vectors). A single-layout snapshot
    /// is refused with [`StoreError::LayoutMismatch`].
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
    ) -> Result<(PartitionedKoios, SnapshotMeta), StoreError> {
        match EngineBackend::from_snapshot(path, cfg)? {
            (EngineBackend::Partitioned(p), meta) => Ok((p, meta)),
            (EngineBackend::Single(_), meta) => Err(StoreError::LayoutMismatch {
                expected: "partitioned",
                found: meta.layout.describe(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;
    use koios_embed::synthetic::SyntheticEmbeddings;

    fn repo_and_embeddings() -> (Arc<Repository>, Arc<Embeddings>) {
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("koios-core-persist");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn single_backend_roundtrips_byte_identical() {
        let (repo, emb) = repo_and_embeddings();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
        let cold: EngineBackend =
            Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(3, 0.5)).into();
        let path = tmp("single.ksnap");
        let meta = cold.write_snapshot(&path, Some(&emb)).unwrap();
        assert_eq!(meta.layout, SnapshotLayout::Single);

        let (warm, rmeta) = EngineBackend::from_snapshot(&path, KoiosConfig::new(3, 0.5)).unwrap();
        assert_eq!(rmeta, meta);
        assert_eq!(warm.num_partitions(), 1);
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }

    #[test]
    fn partitioned_backend_roundtrips_byte_identical() {
        let (repo, emb) = repo_and_embeddings();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
        let cold: EngineBackend =
            PartitionedKoios::new(Arc::clone(&repo), sim, KoiosConfig::new(2, 0.5), 3, 41).into();
        let path = tmp("parted.ksnap");
        let meta = cold.write_snapshot(&path, Some(&emb)).unwrap();
        assert_eq!(
            meta.layout,
            SnapshotLayout::Partitioned {
                partitions: 3,
                seed: 41
            }
        );

        let (warm, _) = EngineBackend::from_snapshot(&path, KoiosConfig::new(2, 0.5)).unwrap();
        assert_eq!(warm.num_partitions(), 3);
        assert_eq!(warm.as_partitioned().unwrap().partition_seed(), 41);
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }

    #[test]
    fn layout_checked_constructors_refuse_cross_loads() {
        let (repo, emb) = repo_and_embeddings();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::clone(&emb)));
        let parted: EngineBackend = PartitionedKoios::new(
            Arc::clone(&repo),
            Arc::clone(&sim),
            KoiosConfig::new(2, 0.5),
            2,
            7,
        )
        .into();
        let ppath = tmp("cross-parted.ksnap");
        parted.write_snapshot(&ppath, Some(&emb)).unwrap();
        let err = Koios::from_snapshot(&ppath, KoiosConfig::new(2, 0.5))
            .err()
            .expect("sharded snapshot must not load into a single engine");
        assert!(
            matches!(
                err,
                StoreError::LayoutMismatch {
                    expected: "single",
                    ..
                }
            ),
            "{err}"
        );

        let single: EngineBackend =
            Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(2, 0.5)).into();
        let spath = tmp("cross-single.ksnap");
        single.write_snapshot(&spath, Some(&emb)).unwrap();
        let err = PartitionedKoios::from_snapshot(&spath, KoiosConfig::new(2, 0.5))
            .err()
            .expect("single snapshot must not load into a partitioned engine");
        assert!(
            matches!(
                err,
                StoreError::LayoutMismatch {
                    expected: "partitioned",
                    ..
                }
            ),
            "{err}"
        );
        // The layout-agnostic constructor accepts both.
        assert!(EngineBackend::from_snapshot(&ppath, KoiosConfig::new(2, 0.5)).is_ok());
        assert!(EngineBackend::from_snapshot(&spath, KoiosConfig::new(2, 0.5)).is_ok());
    }

    #[test]
    fn snapshot_without_embeddings_needs_a_similarity_factory() {
        let (repo, _) = repo_and_embeddings();
        let cold: EngineBackend = Koios::new(
            Arc::clone(&repo),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
        )
        .into();
        let path = tmp("no-emb.ksnap");
        cold.write_snapshot(&path, None).unwrap();

        let err = EngineBackend::from_snapshot(&path, KoiosConfig::new(2, 0.9))
            .err()
            .expect("embedding-less snapshot must not restore a cosine engine");
        assert!(
            matches!(err, StoreError::MissingSection(SectionKind::Embeddings)),
            "{err}"
        );

        let (warm, meta) =
            EngineBackend::from_snapshot_with(&path, KoiosConfig::new(2, 0.9), |_, emb| {
                assert!(emb.is_none());
                Arc::new(EqualitySimilarity)
            })
            .unwrap();
        assert!(!meta.has_embeddings);
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }
}
