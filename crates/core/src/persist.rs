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
//!   hits. It searches under a [`CosineSimilarity`](koios_embed::sim::CosineSimilarity)
//!   over the snapshotted vectors; for any other similarity (equality,
//!   q-gram Jaccard, …) restore through [`MutableEngine::from_state`] with
//!   a [`SimFactory`](crate::mutable::SimFactory). Either way the backend
//!   is minted by [`MutableEngine::backend`], the one place a snapshot
//!   layout becomes an engine.
//! * [`Koios::from_snapshot`] / [`PartitionedKoios::from_snapshot`] are
//!   the layout-checked variants: loading a sharded snapshot into a
//!   single engine (or vice versa) fails with
//!   [`StoreError::LayoutMismatch`] instead of silently degrading.

use crate::backend::EngineBackend;
use crate::config::KoiosConfig;
use crate::engine::Koios;
use crate::mutable::MutableEngine;
use crate::partitioned::PartitionedKoios;
use koios_embed::vectors::Embeddings;
use koios_store::snapshot::{
    write_snapshot, SnapshotLayout, SnapshotMeta, SnapshotView, StoreError,
};
use std::path::Path;

impl EngineBackend {
    /// Serializes this backend's query-ready state — repository, the
    /// engine's inverted index(es) under the matching layout, and
    /// optionally the token vectors behind an embedding-based similarity —
    /// to `path` (conventionally `*.ksnap`). Pass the embeddings whenever
    /// the engine searches under a cosine similarity; without them a
    /// restore must supply its own similarity via
    /// [`MutableEngine::from_state`].
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

    /// Restores a backend from a snapshot, searching under a cosine
    /// similarity rebuilt over the snapshotted token vectors (bit-identical
    /// to the saved ones, so scores are too). Delta sections are replayed;
    /// the backend reports the chain's latest epoch in
    /// [`SearchStats::epoch`](crate::stats::SearchStats). Fails with
    /// [`StoreError::MissingSection`] when the snapshot carries no
    /// embeddings — use [`MutableEngine::from_state`] for engines over
    /// other similarities.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: KoiosConfig,
    ) -> Result<(EngineBackend, SnapshotMeta), StoreError> {
        let (engine, meta) = MutableEngine::from_snapshot(path, cfg)?;
        Ok((engine.backend(), meta))
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
    use crate::mutable::SimFactory;
    use koios_embed::repository::{Repository, RepositoryBuilder};
    use koios_embed::sim::{CosineSimilarity, ElementSimilarity, EqualitySimilarity};
    use koios_embed::synthetic::SyntheticEmbeddings;
    use koios_store::snapshot::{read_snapshot, SectionKind};
    use std::sync::Arc;

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

        let state = read_snapshot(&path).unwrap();
        assert!(!state.meta.has_embeddings);
        let equality: SimFactory = Arc::new(|_, emb| {
            assert!(emb.is_none());
            Ok(Arc::new(EqualitySimilarity) as Arc<dyn ElementSimilarity>)
        });
        let warm = MutableEngine::from_state(state, KoiosConfig::new(2, 0.9), equality)
            .unwrap()
            .backend();
        let q = repo.intern_query(["LA", "Blain", "SC"]);
        assert_eq!(warm.search(&q).hits, cold.search(&q).hits);
    }
}
