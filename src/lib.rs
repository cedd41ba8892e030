//! # Koios: exact top-k semantic overlap set search
//!
//! This is the facade crate of the Koios workspace, a from-scratch Rust
//! reproduction of *"Koios: Top-k Semantic Overlap Set Search"* (ICDE 2023).
//!
//! The **semantic overlap** `SO(Q, C)` of two sets is the score of a maximum
//! weight bipartite matching between their elements, where edge weights are
//! a user-defined element similarity (cosine of embeddings, q-gram Jaccard,
//! edit similarity, …) thresholded at `α`. Koios answers top-k queries under
//! this measure *exactly* while running the cubic matching verification for
//! only a few percent of the candidate sets, thanks to a filter–verification
//! pipeline of incrementally maintained lower/upper bounds.
//!
//! ## Quick start
//!
//! Import everything through [`prelude`]; its module docs compile the
//! README quick-start snippet verbatim (build a repository, attach
//! synthetic embeddings, search top-k under semantic overlap), so start
//! there.
//!
//! ## Serving queries
//!
//! Long-lived applications should not rebuild an engine per query. Wrap a
//! [`MutableEngine`](core::MutableEngine) in a
//! [`SearchService`](service::SearchService): it runs
//! requests on a persistent worker pool fed by a submission queue
//! (submit-then-await via [`submit`](service::SearchService::submit), or
//! batch via [`search_batch`](service::SearchService::search_batch)),
//! enforces per-request deadlines, answers repeated queries from an LRU
//! result cache keyed by corpus epoch, and shares complete per-element
//! kNN lists across *overlapping* queries through a
//! [`TokenKnnCache`](index::knn_cache::TokenKnnCache) (see
//! `ARCHITECTURE.md` for the seam). To serve remote clients, put a
//! [`KoiosServer`](net::KoiosServer) in front of the service: a
//! dependency-free HTTP/1.1 listener exposing `POST /search`,
//! `GET /stats`, `GET /healthz` and `POST /invalidate` over a JSON wire
//! contract ([`net::wire`]).
//!
//! ## Restarting without a rebuild
//!
//! All of that state — repository, token vectors, inverted indexes — is
//! durable: snapshot a backend with
//! [`EngineBackend::write_snapshot`](core::EngineBackend::write_snapshot)
//! (a versioned, checksummed binary format, see [`store`]) and any later
//! process warm-starts it with
//! [`EngineBackend::from_snapshot`](core::EngineBackend::from_snapshot) or
//! [`SearchService::from_snapshot`](service::SearchService::from_snapshot)
//! — byte-identical results, a fraction of the build time, on both the
//! single and the sharded layout.
//!
//! ## Observability
//!
//! The stack measures itself with [`telemetry`]: lock-free counters,
//! gauges and log2-bucketed histograms behind a named registry that
//! renders Prometheus text exposition. A [`SearchService`](service::SearchService)
//! keeps per-stage latency histograms under the paper's pipeline names
//! (`refine`/`verify`/`postprocess`/`merge`), per-shard search times,
//! worker-queue depth and wait, and cache mutex lock-wait; scrape them via
//! `GET /metrics` on the server or
//! [`render_metrics`](service::SearchService::render_metrics) in process,
//! and catch outliers with the structured slow-query log
//! ([`service::slowlog`]).
//!
//! Every request additionally records a **span tree**
//! ([`telemetry::trace`]): queue wait, cache probes, the shard-executor
//! batch, the refine/verify/merge stage breakdown, and epoch-stamped
//! mutation spans, all under one trace id that propagates across the HTTP
//! boundary via a `traceparent`-style header. A tail-based sampler keeps
//! the interesting traces (timeouts, rejections, slow and top-percentile
//! requests, plus a deterministic random sample) in a fixed ring served by
//! `GET /traces`; slow-log lines and `/metrics` exemplars carry the
//! joinable `trace_id`. See the "Observability" section of
//! `ARCHITECTURE.md` for the full instrument map.
//!
//! ```
//! use koios::prelude::*;
//! use std::sync::Arc;
//!
//! let mut builder = RepositoryBuilder::new();
//! builder.add_set("c1", ["LA", "Blain", "Appleton"]);
//! builder.add_set("c2", ["LA", "Sacramento", "SC"]);
//! let repo = Arc::new(builder.build());
//!
//! let equality: SimFactory =
//!     Arc::new(|_, _| Ok(Arc::new(EqualitySimilarity) as Arc<dyn ElementSimilarity>));
//! let engine =
//!     MutableEngine::single(Arc::clone(&repo), None, KoiosConfig::new(1, 0.9), equality).unwrap();
//! let service = SearchService::from_mutable(engine, ServiceConfig::new().with_workers(2));
//! let query = repo.intern_query(["LA", "Blain"]);
//! let first = service.search(SearchRequest::new(query.clone()));
//! let second = service.search(SearchRequest::new(query)); // identical query
//! assert_eq!(first.cache, CacheOutcome::Miss);
//! assert_eq!(second.cache, CacheOutcome::Hit);
//! assert_eq!(first.result.hits, second.result.hits);
//! assert_eq!(service.stats().cache_hits, 1);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`common`] | `koios-common` | ids, ordered similarities, top-k lists, memory accounting |
//! | [`matching`] | `koios-matching` | greedy + Hungarian matching, early termination |
//! | [`embed`] | `koios-embed` | embeddings and element similarity functions |
//! | [`index`] | `koios-index` | inverted index, kNN sources, token stream |
//! | [`datagen`] | `koios-datagen` | synthetic corpora, dataset profiles, query benchmarks |
//! | [`core`] | `koios-core` | the Koios search engine (refinement + post-processing) |
//! | [`baselines`] | `koios-baselines` | exhaustive baseline, SilkMoth, vanilla top-k |
//! | [`store`] | `koios-store` | versioned binary snapshots: save query-ready state, warm-start restore |
//! | [`telemetry`] | `koios-telemetry` | lock-free counters/gauges/histograms, registry, Prometheus text rendering |
//! | [`service`] | `koios-service` | concurrent query serving: persistent worker pool, result cache, stats |
//! | [`net`] | `koios-net` | HTTP/1.1 front-end: server over `std::net`, JSON wire contract, blocking client |

pub use koios_baselines as baselines;
pub use koios_common as common;
pub use koios_core as core;
pub use koios_datagen as datagen;
pub use koios_embed as embed;
pub use koios_index as index;
pub use koios_matching as matching;
pub use koios_net as net;
pub use koios_service as service;
pub use koios_store as store;
pub use koios_telemetry as telemetry;

/// One-stop imports for applications.
///
/// This compiles the README quick start verbatim, so the snippet can never
/// rot:
///
/// ```
/// use koios::prelude::*;
/// use std::sync::Arc;
///
/// let mut builder = RepositoryBuilder::new();
/// builder.add_set("c1", ["LA", "Blain", "Appleton", "MtPleasant"]);
/// builder.add_set("c2", ["LA", "Sacramento", "Blain", "SC", "NewYorkCity"]);
/// let mut repo = builder.build();
///
/// let embeddings = SyntheticEmbeddings::builder()
///     .dimensions(32)
///     .seed(7)
///     .synonyms(&mut repo, &[&["NewYorkCity", "BigApple"], &["LA", "WestCoast"]])
///     .build(&repo);
/// let sim = Arc::new(CosineSimilarity::new(Arc::new(embeddings)));
///
/// let repo = Arc::new(repo); // every engine owns its corpus
/// let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(1, 0.7));
/// let query = repo.intern_query(["LA", "Blaine", "BigApple", "Charleston"]);
/// let result = engine.search(&query);
/// # assert_eq!(result.hits.len(), 1);
/// ```
pub mod prelude {
    pub use koios_common::prelude::*;
    pub use koios_core::{
        cosine_factory, EngineBackend, Hit, Koios, KoiosConfig, MutableEngine, PartitionedKoios,
        ScoreBound, SearchResult, ShardExecutor, SharedTheta, SimFactory,
    };
    pub use koios_embed::ops::CorpusOp;
    pub use koios_embed::repository::{Repository, RepositoryBuilder};
    pub use koios_embed::sim::{
        CosineSimilarity, EditSimilarity, ElementSimilarity, EqualitySimilarity, QGramJaccard,
    };
    pub use koios_embed::synthetic::SyntheticEmbeddings;
    pub use koios_index::knn_cache::{KnnCacheSnapshot, TokenKnnCache};
    pub use koios_matching::{solve_max_matching, MatchOutcome};
    pub use koios_net::{KoiosClient, KoiosServer};
    pub use koios_service::{
        CacheOutcome, IngestOutcome, LiveServiceError, ResponseHandle, SearchRequest,
        SearchService, ServiceConfig, ServiceResponse, ServiceStats, SnapshotInfo,
    };
    pub use koios_store::{SnapshotLayout, SnapshotMeta, StoreError};
    pub use koios_telemetry::{
        Counter, Gauge, Histogram, HistogramSnapshot, Registry, SamplingPolicy, Trace, TraceConfig,
        TraceContext, TraceSink,
    };
}
