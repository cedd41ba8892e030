//! The concurrent query-serving layer.

use crate::metrics::ServiceMetrics;
use crate::request::{CacheKey, CacheOutcome, RequestRecord, SearchRequest, ServiceResponse};
use crate::slowlog::SlowQueryLog;
use crate::stats::{EngineTotals, ServiceStats, SnapshotInfo};
use crate::tracer::Tracer;
use koios_common::cache::{CacheSnapshot, StripedLru};
use koios_common::pool::{Pool, Ticket};
use koios_common::{Json, SetId, TokenId};
use koios_core::mutable::{cosine_factory, BatchRejected, MutableEngine, SimFactory};
use koios_core::{EngineBackend, Hit, KoiosConfig, SearchResult, SearchStats};
use koios_embed::ops::CorpusOp;
use koios_embed::repository::Repository;
use koios_index::knn_cache::TokenKnnCache;
use koios_index::live::Applied;
use koios_store::snapshot::{SnapshotMeta, StoreError};
use koios_telemetry::trace::{Trace, TraceConfig, TraceSinkStats};
use koios_telemetry::{Profile, Registry};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime};

/// Tunables of a [`SearchService`]: five settable values — pool width,
/// the two cache budgets, the slow-query log and tracing.
///
/// Deadlines are per request ([`SearchRequest::time_budget`]); a request
/// without one runs to completion.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Fixed worker-pool width for batch execution. `0` resolves to the
    /// machine's available parallelism at construction.
    pub workers: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Byte budget of the shared token-level kNN cache
    /// ([`TokenKnnCache`]); `0` disables it. Unlike the result cache —
    /// which only answers *exact* query repeats — the token cache reuses
    /// per-element similarity lists across *overlapping* queries, cutting
    /// the kNN/refinement work that dominates search time. The two caches
    /// compose: a result hit skips the search entirely, a token hit makes
    /// the search it cannot skip cheaper. The service always creates this
    /// cache itself; a cache carried in the engine's configuration is
    /// replaced by it.
    pub token_cache_bytes: usize,
    /// Structured slow-query logging: requests whose end-to-end latency
    /// (queue + search) crosses the configured threshold emit one JSON
    /// line through the configured sink (see [`SlowQueryLog`]). `None`
    /// (the default) disables the log.
    pub slow_query_log: Option<SlowQueryLog>,
    /// Request-scoped tracing: span trees retained under tail-based
    /// sampling, served as `GET /traces` by `koios-net`. Enabled by
    /// default (a 256-trace ring, 5% probability floor — see
    /// [`TraceConfig`]); set to `None` to strip every per-request tracing
    /// cost. The slow-query-log threshold, when configured, doubles as a
    /// retention rule, so a slow-log line's trace is retained — within
    /// the ring's bound: once the ring holds only privileged traces (slow,
    /// timed out, rejected, forced), each new one evicts the oldest, so
    /// the lines that resolve are those of the newest `capacity`
    /// privileged traces.
    pub tracing: Option<TraceConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 1024,
            token_cache_bytes: 16 << 20,
            slow_query_log: None,
            tracing: Some(TraceConfig::default()),
        }
    }
}

impl ServiceConfig {
    /// Starts from the defaults (auto-sized pool, 1024-entry result cache,
    /// 16 MiB token cache, no slow-query log, tracing on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-pool width.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the result-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the token-level kNN cache byte budget (`0` disables it).
    pub fn with_token_cache_bytes(mut self, bytes: usize) -> Self {
        self.token_cache_bytes = bytes;
        self
    }

    /// Installs a slow-query log (threshold + sink; see [`SlowQueryLog`]).
    pub fn with_slow_query_log(mut self, log: SlowQueryLog) -> Self {
        self.slow_query_log = Some(log);
        self
    }

    /// Replaces the tracing configuration (ring capacity + sampling
    /// policy).
    pub fn with_tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = Some(tracing);
        self
    }

    /// Disables request tracing entirely. Hits are identical either way
    /// (`tests/trace.rs` hammers a traced service against a bare one); the
    /// cost is the ledger's `bench.trace_overhead_share` row.
    pub fn without_tracing(mut self) -> Self {
        self.tracing = None;
        self
    }
}

/// The writer side of the service, behind its own mutex so mutation never
/// blocks the read path (readers only take the backend `RwLock` for the
/// nanoseconds of one `Arc` clone).
struct WriterState {
    /// The mutable engine that mints every served backend.
    engine: MutableEngine,
    /// Ops applied since the last [`SearchService::snapshot_to`] — exactly
    /// what the next snapshot call appends as one delta section.
    pending_ops: Vec<CorpusOp>,
    /// The file the pending ops chain onto (the last snapshot written or
    /// reloaded).
    snapshot_path: Option<PathBuf>,
}

/// What one applied [`SearchService::ingest`] batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Sets appended by the batch.
    pub inserted: u64,
    /// Sets tombstoned by the batch.
    pub removed: u64,
    /// The engine epoch after the batch (unchanged for an empty batch).
    pub epoch: u64,
}

/// Errors from the live-mutation surface ([`SearchService::ingest`],
/// [`SearchService::snapshot_to`], [`SearchService::reload`]).
#[derive(Debug)]
pub enum LiveServiceError {
    /// The op batch failed validation; nothing was applied.
    Rejected(BatchRejected),
    /// Snapshot I/O, decode, or chain verification failed.
    Store(StoreError),
}

impl std::fmt::Display for LiveServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveServiceError::Rejected(e) => write!(f, "{e}"),
            LiveServiceError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LiveServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveServiceError::Rejected(e) => Some(e),
            LiveServiceError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for LiveServiceError {
    fn from(e: StoreError) -> Self {
        LiveServiceError::Store(e)
    }
}

impl From<BatchRejected> for LiveServiceError {
    fn from(e: BatchRejected) -> Self {
        LiveServiceError::Rejected(e)
    }
}

/// A long-lived, thread-safe serving layer over one [`MutableEngine`].
///
/// The engine is the service's writer: it mints the served backend — a
/// single [`Koios`](koios_core::Koios) or a sharded
/// [`PartitionedKoios`](koios_core::PartitionedKoios), see
/// [`EngineBackend`] — once at construction and again after every
/// [`SearchService::ingest`] or [`SearchService::reload`]. Every service
/// therefore answers the live-mutation surface; the two constructors are
/// [`SearchService::from_mutable`] (in-memory state) and
/// [`SearchService::from_snapshot`] (a `koios-store` file). The served
/// backend is shared — immutably — by a **persistent pool** of long-lived
/// worker threads draining one MPMC submission queue
/// ([`koios_common::pool::Pool`]).
/// Callers either fire-and-await single requests ([`SearchService::submit`]
/// returns a [`ResponseHandle`] to wait on later) or push whole batches
/// ([`SearchService::search_batch`], a thin submit-all/await-all wrapper
/// whose responses come back in submission order — each response lands in
/// its own ticket slot, so no re-sorting happens). Results are identical on
/// either backend. Two caches compose: repeated queries are answered from
/// an LRU result cache keyed by a stable fingerprint of the normalized
/// query and every result-affecting parameter (backend-transparent — a
/// result cached under one backend is a hit under the other), and
/// *overlapping* queries share per-element kNN lists through one
/// [`TokenKnnCache`] installed into the engine configuration (see
/// [`ServiceConfig::token_cache_bytes`]; a partitioned backend fetches a
/// query's lists once for all its shards). Per-request deadlines
/// are enforced end to end: admission control refuses dead requests, and
/// the remaining budget is passed to the backend as an absolute deadline
/// that bounds the search — on the partitioned backend, every shard *and*
/// the merge-time verification loop.
///
/// ```
/// use koios_core::mutable::{MutableEngine, SimFactory};
/// use koios_core::KoiosConfig;
/// use koios_embed::repository::RepositoryBuilder;
/// use koios_embed::sim::{ElementSimilarity, EqualitySimilarity};
/// use koios_service::{SearchRequest, SearchService, ServiceConfig};
/// use std::sync::Arc;
///
/// let mut b = RepositoryBuilder::new();
/// b.add_set("s0", ["a", "b"]);
/// b.add_set("s1", ["a", "c"]);
/// let repo = Arc::new(b.build());
///
/// let equality: SimFactory =
///     Arc::new(|_, _| Ok(Arc::new(EqualitySimilarity) as Arc<dyn ElementSimilarity>));
/// let engine = MutableEngine::single(Arc::clone(&repo), None, KoiosConfig::new(1, 0.9), equality)
///     .unwrap();
/// let service = SearchService::from_mutable(engine, ServiceConfig::new().with_workers(2));
/// let q = repo.intern_query(["a", "b"]);
/// let responses = service.search_batch(&[SearchRequest::new(q)]);
/// assert_eq!(responses[0].result.hits.len(), 1);
/// ```
pub struct SearchService {
    inner: Arc<ServiceInner>,
    pool: Pool,
}

fn set_gauge(reg: &Registry, name: &str, help: &str, labels: &[(&str, &str)], value: usize) {
    reg.gauge(name, help, labels)
        .set(value.min(i64::MAX as usize) as i64);
}

/// One cache's single-sweep snapshot as `GET /metrics` and
/// `GET /debug/cache` render it — both surfaces, both caches, one helper.
struct CacheView {
    name: &'static str,
    lru: CacheSnapshot,
    /// `Some` marks the token cache: byte-weighted (totals and stripe rows
    /// carry bytes, rejected inserts are reported) and generation-stamped.
    generation: Option<u64>,
}

impl CacheView {
    /// `(op label on /metrics, field on /debug/cache, total)`, in
    /// rendering order.
    fn ops(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
        let n = &self.lru.counters;
        let rejected = ("rejected_insert", "rejected_inserts", n.rejected_inserts);
        [
            ("hit", "hits", n.hits),
            ("miss", "misses", n.misses),
            ("eviction", "evictions", n.evictions),
            ("insertion", "insertions", n.insertions),
            ("invalidation", "invalidations", n.invalidations),
        ]
        .into_iter()
        .chain(self.generation.map(|_| rejected))
    }

    /// Synchronizes this cache's scrape-derived series into `reg`.
    fn export(&self, reg: &Registry) {
        for (op, _, total) in self.ops() {
            reg.counter(
                "koios_cache_ops_total",
                "Cache operations since service construction",
                &[("cache", self.name), ("op", op)],
            )
            .store(total);
        }
        set_gauge(
            reg,
            "koios_cache_stripes",
            "Lock stripes of the striped caches",
            &[("cache", self.name)],
            self.lru.stripes.len(),
        );
        set_gauge(
            reg,
            "koios_debug_cache_entries",
            "Entries held, as reported by GET /debug/cache",
            &[("cache", self.name)],
            self.lru.entries,
        );
        if self.generation.is_some() {
            set_gauge(
                reg,
                "koios_token_cache_bytes",
                "Bytes held by the shared token kNN cache",
                &[],
                self.lru.weight,
            );
            set_gauge(
                reg,
                "koios_token_cache_entries",
                "Entries held by the shared token kNN cache",
                &[],
                self.lru.entries,
            );
        }
    }

    /// This cache's `GET /debug/cache` object.
    fn to_json(&self) -> Json {
        let num = |n: usize| Json::num(n as f64);
        let mut fields = match self.generation {
            None => vec![
                ("capacity", num(self.lru.budget)),
                ("entries", num(self.lru.entries)),
            ],
            Some(generation) => vec![
                ("budget_bytes", num(self.lru.budget)),
                ("bytes", num(self.lru.weight)),
                ("entries", num(self.lru.entries)),
                ("generation", Json::num(generation as f64)),
            ],
        };
        let rows = self.lru.stripes.iter().enumerate().map(|(i, row)| {
            let mut fields = vec![("stripe", num(i)), ("entries", num(row.entries))];
            if self.generation.is_some() {
                fields.push(("bytes", num(row.weight)));
            }
            let age = row.oldest_age.map(|age| Json::num(age.as_secs_f64()));
            fields.push(("oldest_age_secs", age.unwrap_or(Json::Null)));
            Json::obj(fields)
        });
        fields.push(("stripes", Json::arr(rows)));
        let counters = self
            .ops()
            .map(|(_, field, total)| (field, Json::num(total as f64)));
        fields.push(("counters", Json::obj(counters)));
        Json::obj(fields)
    }
}

/// The counts only the service keeps, as relaxed atomics: `stats()` reads
/// each on its own, and neither a request nor a writer takes a lock to
/// bump one. Cache hits and executed searches are not here — they have a
/// home already: the result LRU's `hits` and the
/// `koios_request_seconds{phase="search"}` count.
#[derive(Default)]
struct Counters {
    // Requests submitted, and `search_batch` calls.
    queries: AtomicU64,
    batches: AtomicU64,
    // Requests refused without running a search: expired deadline at
    // admission, or invalid overrides.
    rejected: AtomicU64,
    // Requests that observed a deadline expiry, at admission (also in
    // `rejected`) or mid-search.
    timed_out: AtomicU64,
    // Sets appended / tombstoned by live ingestion — outside the writer
    // lock, so `stats()` never waits on a writer that holds it across a
    // corpus copy, a file write or a snapshot decode.
    sets_added: AtomicU64,
    sets_removed: AtomicU64,
    // The paper's funnel columns summed over executed searches.
    candidates: AtomicU64,
    em_full: AtomicU64,
    no_em: AtomicU64,
    stream_tuples: AtomicU64,
}

/// Adds `n` to a [`Counters`] field.
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// A handle to one submitted request's eventual [`ServiceResponse`]
/// (see [`SearchService::submit`]).
pub type ResponseHandle = Ticket<ServiceResponse>;

/// Everything the workers need, behind one `Arc` so jobs on the persistent
/// pool (which outlive any one call frame) can share it `'static`-ly.
struct ServiceInner {
    // The serving backend, swapped atomically (read-copy-update) on live
    // mutation or reload: readers clone the `Arc` under a momentary read
    // lock and run the whole request against that frozen backend, so a
    // swap never interrupts — or waits for — an in-flight search, and no
    // request is ever dropped by a mutation.
    backend: RwLock<Arc<EngineBackend>>,
    // The writer: the mutable engine plus mutation bookkeeping. Its mutex
    // serializes writers only.
    writer: Mutex<WriterState>,
    counters: Counters,
    // The result cache: the workspace LRU at weight 1 per entry, keyed by
    // the request fingerprint plus the full key (a collision is a miss,
    // never a wrong answer). Values are `Arc`ed so a hit only bumps a
    // refcount while the stripe lock is held; the O(k) hit-vector copy
    // happens outside the critical section.
    cache: StripedLru<CacheKey, Arc<Vec<Hit>>>,
    // Shared token-level kNN cache (also reachable through the engine
    // config; this handle serves stats and invalidation).
    token_cache: Option<Arc<TokenKnnCache>>,
    // Where the backend came from, when it was warm-started from a
    // snapshot ([`SearchService::from_snapshot`]) or hot-reloaded
    // ([`SearchService::reload`]); surfaced in [`ServiceStats::snapshot`].
    snapshot: Mutex<Option<SnapshotInfo>>,
    // Registry + pre-resolved instrument handles; recording on the request
    // path is a handful of relaxed atomic adds.
    metrics: ServiceMetrics,
    // Slow-query threshold + sink; `None` keeps the request path free of
    // any per-query rendering.
    slowlog: Option<SlowQueryLog>,
    // Request tracing: id minting + the tail-sampled retention ring.
    // `None` strips every per-request tracing branch.
    tracer: Option<Tracer>,
    // Construction instants for `uptime_secs` (monotone) and `start_time`
    // (wall clock, for operators correlating restarts across machines).
    started: Instant,
    start_time: SystemTime,
}

impl SearchService {
    /// Wraps a [`MutableEngine`]: the service serves a backend minted from
    /// it and keeps the engine as its writer for the live-mutation
    /// surface — [`SearchService::ingest`], [`SearchService::snapshot_to`]
    /// and [`SearchService::reload`].
    ///
    /// The service creates one [`TokenKnnCache`] of
    /// `cfg.token_cache_bytes` (`0`: none) and installs it on the engine's
    /// configuration, replacing any cache the engine carried, so every
    /// backend minted across mutations reuses it (its lists replay across
    /// batches wherever they still cover the vocabulary, see
    /// [`SearchService::ingest`]), shared by every worker, every
    /// per-request config override and every shard engine (sound: the
    /// `(token, α, generation)` cache key is query- and shard-agnostic).
    pub fn from_mutable(engine: MutableEngine, cfg: ServiceConfig) -> Self {
        Self::build(engine, cfg, None)
    }

    /// Warm-starts a service from a `koios-store` snapshot: the engine —
    /// single or sharded, whichever layout the snapshot holds — is
    /// restored without any index rebuild, searching under a cosine
    /// similarity over the snapshotted token vectors; any delta sections
    /// are replayed and the service resumes from the chain's latest epoch.
    /// `engine_cfg` supplies the serving `k`/`α` and filter settings (they
    /// are not part of the snapshot — the same state serves any
    /// configuration). The snapshot's provenance (path, sizes, delta-chain
    /// length, load time) is reported in [`ServiceStats::snapshot`], and
    /// later [`SearchService::snapshot_to`] calls to the same path append
    /// deltas instead of rewriting the base. For another similarity, build
    /// the engine with [`MutableEngine::from_state`] and a
    /// [`koios_core::mutable::SimFactory`], then use
    /// [`SearchService::from_mutable`].
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        engine_cfg: KoiosConfig,
        cfg: ServiceConfig,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let (engine, info) = load_snapshot(path, engine_cfg, cosine_factory())?;
        Ok(Self::build(engine, cfg, Some((info, path.to_path_buf()))))
    }

    fn build(
        mut engine: MutableEngine,
        cfg: ServiceConfig,
        snapshot: Option<(SnapshotInfo, PathBuf)>,
    ) -> Self {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        // The engine mints every future backend with the service's cache,
        // so mutation invalidation and cache sharing stay coherent across
        // swaps.
        let token_cache = (cfg.token_cache_bytes > 0)
            .then(|| Arc::new(TokenKnnCache::new(cfg.token_cache_bytes)));
        engine.set_token_cache(token_cache.clone());
        let backend = engine.backend();
        let metrics = ServiceMetrics::new();
        // The slow-query threshold doubles as a trace-retention rule, so
        // a slow-log line's `trace_id` resolves via `GET /traces` while
        // its trace is among the ring's newest privileged ones.
        let tracer = cfg
            .tracing
            .map(|tc| Tracer::new(tc, cfg.slow_query_log.as_ref().map(|log| log.threshold())));
        // Lock-wait observability on both shared caches: installing the
        // histograms turns each stripe acquisition into a timed one —
        // `koios_lock_wait_seconds{cache="token"|"result"}` is the direct
        // measurement for the ROADMAP's serving-scalability suspects.
        // Without a service the caches stay uninstrumented (a single
        // atomic load per acquisition).
        if let Some(tc) = &token_cache {
            let lock_wait = Arc::clone(&metrics.lock_wait_token);
            tc.install_lock_wait(Arc::new(move |wait| lock_wait.record_duration(wait)));
        }
        let cache = StripedLru::new(cfg.cache_capacity);
        let lock_wait = Arc::clone(&metrics.lock_wait_result);
        cache.install_lock_wait(Arc::new(move |wait| lock_wait.record_duration(wait)));
        let (snapshot, snapshot_path) = snapshot.unzip();
        SearchService {
            inner: Arc::new(ServiceInner {
                backend: RwLock::new(Arc::new(backend)),
                writer: Mutex::new(WriterState {
                    engine,
                    pending_ops: Vec::new(),
                    snapshot_path,
                }),
                counters: Counters::default(),
                cache,
                token_cache,
                snapshot: Mutex::new(snapshot),
                metrics,
                slowlog: cfg.slow_query_log,
                tracer,
                started: Instant::now(),
                start_time: SystemTime::now(),
            }),
            pool: Pool::new("koios-worker", workers),
        }
    }

    /// Provenance of a snapshot-restored backend (`None` when the service
    /// was built from live structures). Updated by
    /// [`SearchService::reload`].
    pub fn snapshot_info(&self) -> Option<SnapshotInfo> {
        self.inner.snapshot.lock().expect("snapshot lock").clone()
    }

    /// The currently served engine backend. The returned `Arc` is a frozen
    /// view: it stays valid (and keeps serving its corpus version) however
    /// many [`SearchService::ingest`] batches or reloads happen after.
    pub fn backend(&self) -> Arc<EngineBackend> {
        Arc::clone(&self.inner.backend.read().expect("backend lock"))
    }

    /// The epoch of the currently served backend (see
    /// [`ServiceStats::engine_epoch`]).
    pub fn engine_epoch(&self) -> u64 {
        self.backend().config().epoch
    }

    /// Applies a batch of corpus ops — atomically: either every op applies
    /// and the freshly minted backend is swapped in, or nothing changes —
    /// and returns what the batch did. In-flight and queued searches are
    /// never dropped: each runs to completion against the backend `Arc` it
    /// cloned at pickup (its response reports the older `stats.epoch`).
    /// The result LRU needs no flush — cache keys carry the epoch, so
    /// entries from older epochs simply stop matching — but it is flushed
    /// anyway to reclaim their space. The token-kNN cache is kept: each
    /// list records the vocabulary it was scanned over, and the new
    /// backend replays one only when no token the batch interned reaches
    /// `α` against its key (see [`koios_index::knn_cache`]); only
    /// [`SearchService::reload`] and [`SearchService::invalidate_cache`]
    /// bump its generation.
    pub fn ingest(&self, ops: &[CorpusOp]) -> Result<IngestOutcome, LiveServiceError> {
        let t0 = Instant::now();
        let mut w = self.inner.writer.lock().expect("writer lock");
        let applied = w.engine.apply(ops)?;
        let epoch = w.engine.epoch();
        let swap = (!applied.is_empty()).then(|| Arc::new(w.engine.backend()));
        let (mut inserted, mut removed) = (0u64, 0u64);
        for a in &applied {
            match a {
                Applied::Inserted(_) => inserted += 1,
                Applied::Removed(_) => removed += 1,
            }
        }
        bump(&self.inner.counters.sets_added, inserted);
        bump(&self.inner.counters.sets_removed, removed);
        w.pending_ops.extend_from_slice(ops);
        if let Some(backend) = swap {
            *self.inner.backend.write().expect("backend lock") = backend;
            self.inner.cache.clear();
        }
        self.record_mutation("ingest", &self.inner.metrics.request_ingest, epoch, t0);
        Ok(IngestOutcome {
            inserted,
            removed,
            epoch,
        })
    }

    /// Persists the current corpus state to `path`. When `path` is the
    /// file this service last snapshotted to (or was loaded/reloaded
    /// from), only the ops applied since then are **appended as one delta
    /// section** — checksum-chained onto the existing file, without
    /// rewriting the base payloads. Any other path gets a fresh full base.
    /// Writers are serialized against [`SearchService::ingest`], so the
    /// snapshot is a consistent cut: it contains exactly the batches whose
    /// `ingest` returned before this call.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<SnapshotMeta, LiveServiceError> {
        let t0 = Instant::now();
        let path = path.as_ref();
        let mut w = self.inner.writer.lock().expect("writer lock");
        let epoch = w.engine.epoch();
        let chains = w.snapshot_path.as_deref() == Some(path) && path.exists();
        let meta = if chains {
            if w.pending_ops.is_empty() {
                SnapshotMeta::read(path)?
            } else {
                koios_store::append_delta(path, &w.pending_ops, epoch)?
            }
        } else {
            w.engine.write_snapshot(path)?
        };
        w.pending_ops.clear();
        w.snapshot_path = Some(path.to_path_buf());
        // The served provenance follows the file it names.
        if let Some(info) = self.inner.snapshot.lock().expect("snapshot lock").as_mut() {
            if Path::new(&info.path) == path {
                info.bytes = meta.total_bytes;
                info.deltas = meta.deltas.len();
                info.latest_epoch = meta.latest_epoch();
            }
        }
        drop(w);
        self.record_mutation("snapshot", &self.inner.metrics.request_snapshot, epoch, t0);
        Ok(meta)
    }

    /// Hot-swaps the serving state for the snapshot at `path` (deltas
    /// replayed), with **zero downtime**: requests keep being admitted and
    /// answered throughout — each against whichever backend it picked up.
    /// The reloaded engine searches under the writer's existing similarity
    /// factory and keeps the service's shared token cache; its epoch is
    /// raised strictly above the replaced engine's, so no cached result
    /// from before the reload can be served after it. Returns the new
    /// provenance (also visible in [`ServiceStats::snapshot`]).
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<SnapshotInfo, LiveServiceError> {
        let path = path.as_ref();
        let t0 = Instant::now();
        let mut w = self.inner.writer.lock().expect("writer lock");
        let old_epoch = w.engine.epoch();
        let (factory, engine_cfg) = (w.engine.sim_factory(), w.engine.config().clone());
        let (mut engine, info) = load_snapshot(path, engine_cfg, factory)?;
        engine.advance_epoch_to(old_epoch + 1);
        let backend = Arc::new(engine.backend());
        w.engine = engine;
        w.pending_ops.clear();
        w.snapshot_path = Some(path.to_path_buf());
        drop(w);
        *self.inner.backend.write().expect("backend lock") = backend;
        self.inner.cache.clear();
        if let Some(tc) = &self.inner.token_cache {
            tc.bump_generation();
        }
        *self.inner.snapshot.lock().expect("snapshot lock") = Some(info.clone());
        self.record_mutation(
            "reload",
            &self.inner.metrics.request_reload,
            old_epoch + 1,
            t0,
        );
        Ok(info)
    }

    /// Admin-route observability (the PR 8 mutation surface): one
    /// `koios_request_seconds{phase}` sample per successful mutation, plus
    /// a forced (always-retained) single-span trace stamped with the epoch
    /// the mutation published.
    fn record_mutation(
        &self,
        op: &'static str,
        phase: &koios_telemetry::Histogram,
        epoch: u64,
        started: Instant,
    ) {
        let duration = started.elapsed();
        phase.record_duration(duration);
        if let Some(tracer) = &self.inner.tracer {
            tracer.record_mutation(op, epoch, started, duration);
        }
    }

    /// The worker-pool width (long-lived threads draining the submission
    /// queue).
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Requests submitted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Worker threads still alive (equal to [`SearchService::workers`]
    /// unless a worker died — the `/healthz?full` liveness signal).
    pub fn live_workers(&self) -> usize {
        self.pool.live_threads()
    }

    /// Number of index partitions the backend searches (1 for a single
    /// engine).
    pub fn partitions(&self) -> usize {
        self.backend().num_partitions()
    }

    /// The repository behind the currently served backend (shared
    /// ownership — live mutation swaps the service onto a new repository,
    /// but the one returned here stays valid).
    pub fn repository(&self) -> Arc<Repository> {
        self.backend().repository_arc()
    }

    /// Runs one request (a batch of one).
    pub fn search(&self, request: SearchRequest) -> ServiceResponse {
        self.search_batch(std::slice::from_ref(&request))
            .pop()
            .expect("batch of one yields one response")
    }

    /// Enqueues one request on the persistent pool and returns immediately;
    /// redeem the handle with [`Ticket::wait`] whenever the answer is
    /// needed (submit-then-await).
    ///
    /// The request's deadline budget starts *now*: time spent queued behind
    /// other requests counts against it, and a request whose deadline
    /// expires before a worker picks it up is rejected without running
    /// (admission control).
    pub fn submit(&self, request: SearchRequest) -> ResponseHandle {
        bump(&self.inner.counters.queries, 1);
        self.submit_at(request, Instant::now())
    }

    fn submit_at(&self, request: SearchRequest, submitted: Instant) -> ResponseHandle {
        let inner = Arc::clone(&self.inner);
        // Pool shut down ([`SearchService::shutdown`]): run inline so the
        // handle still resolves.
        self.pool
            .submit(move || inner.process_one(&request, submitted))
            .unwrap_or_else(|job| Ticket::ready(job()))
    }

    /// Executes a batch of requests concurrently on the worker pool and
    /// returns responses in submission order — a thin submit-all/await-all
    /// wrapper over [`SearchService::submit`]. Each response is written
    /// into its own pre-allocated ticket slot, so ordering costs nothing.
    ///
    /// Each request's deadline budget starts at submission, so time spent
    /// queued behind other requests counts against it; a request whose
    /// deadline expires before a worker picks it up is rejected without
    /// running (admission control).
    pub fn search_batch(&self, requests: &[SearchRequest]) -> Vec<ServiceResponse> {
        let submitted = Instant::now();
        bump(&self.inner.counters.batches, 1);
        bump(&self.inner.counters.queries, requests.len() as u64);
        let handles: Vec<ResponseHandle> = requests
            .iter()
            .map(|r| self.submit_at(r.clone(), submitted))
            .collect();
        handles.into_iter().map(Ticket::wait).collect()
    }

    /// Closes the submission queue, lets the workers drain every already
    /// submitted request (their handles all resolve), and joins them. Later
    /// `submit`/`search` calls still answer — inline on the caller's
    /// thread. Also runs on drop; calling it explicitly just makes the
    /// drain point deterministic.
    pub fn shutdown(&mut self) {
        self.pool.shutdown();
    }

    /// Drops every cached result **and** every cached token kNN list (call
    /// after swapping embeddings or any out-of-band change that
    /// invalidates previous answers). The token cache is invalidated by a
    /// generation bump, so searches already in flight can neither serve
    /// nor publish stale lists.
    pub fn invalidate_cache(&self) {
        self.inner.cache.clear();
        if let Some(tc) = &self.inner.token_cache {
            tc.bump_generation();
        }
    }

    /// The shared token-level kNN cache, if enabled.
    pub fn token_cache(&self) -> Option<&Arc<TokenKnnCache>> {
        self.inner.token_cache.as_ref()
    }

    /// Number of currently cached results.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// A snapshot of the service counters, each read from its one home:
    /// the request counters, the result LRU's counters, and the
    /// `koios_request_seconds` / `koios_stage_seconds` histograms that
    /// `GET /metrics` renders. Takes no lock a request path holds beyond
    /// one momentary sweep of the cache stripes.
    pub fn stats(&self) -> ServiceStats {
        let (n, m) = (&self.inner.counters, &self.inner.metrics);
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let sum_ns = |h: &koios_telemetry::Histogram| h.snapshot().sum_ns;
        let backend = self.backend();
        let cache = self.inner.cache.counters();
        ServiceStats {
            queries: load(&n.queries),
            batches: load(&n.batches),
            cache_hits: cache.hits,
            searched: m.request_search.snapshot().count(),
            rejected: load(&n.rejected),
            timed_out: load(&n.timed_out),
            partitions: backend.num_partitions(),
            cache,
            token_cache: self.inner.token_cache.as_ref().map(|tc| tc.snapshot()),
            snapshot: self.snapshot_info(),
            engine_epoch: backend.config().epoch,
            sets_added: load(&n.sets_added),
            sets_removed: load(&n.sets_removed),
            engine: EngineTotals {
                candidates: load(&n.candidates),
                em_full: load(&n.em_full),
                no_em: load(&n.no_em),
                stream_tuples: load(&n.stream_tuples),
                cumulative_time: Duration::from_nanos(
                    sum_ns(&m.stage_refine) + sum_ns(&m.stage_postprocess) + sum_ns(&m.stage_merge),
                ),
            },
            uptime_secs: self.inner.started.elapsed().as_secs_f64(),
            start_time: self.inner.start_time,
        }
    }

    /// The service's metric surface: stage/shard/phase/lock-wait
    /// histograms and the registry behind them. Bench harnesses read the
    /// histogram snapshots directly; the HTTP front-end records its
    /// serialization phase here.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// The metric registry (for scraping; see
    /// [`SearchService::render_metrics`]).
    pub fn telemetry(&self) -> &Arc<Registry> {
        self.inner.metrics.registry()
    }

    /// Whether request tracing is enabled (see [`ServiceConfig::tracing`]).
    pub fn tracing_enabled(&self) -> bool {
        self.inner.tracer.is_some()
    }

    /// Looks up a retained trace by id (`GET /traces?id=…`).
    pub fn trace(&self, trace_id: u64) -> Option<Trace> {
        self.inner.tracer.as_ref()?.sink().get(trace_id)
    }

    /// Every currently retained trace, newest first (`GET /traces`).
    pub fn traces(&self) -> Vec<Trace> {
        self.inner
            .tracer
            .as_ref()
            .map(|t| t.sink().list())
            .unwrap_or_default()
    }

    /// Trace-sink lifetime counters (`None` when tracing is disabled).
    pub fn trace_stats(&self) -> Option<TraceSinkStats> {
        self.inner.tracer.as_ref().map(|t| t.stats())
    }

    /// The slowest currently retained trace (exemplar source).
    pub fn slowest_trace(&self) -> Option<Trace> {
        self.inner.tracer.as_ref()?.sink().slowest()
    }

    /// Appends a late span to a retained trace — the HTTP front-end
    /// records its serialization phase here, after the worker sealed the
    /// tree. No-op when tracing is disabled or the trace was not retained.
    pub fn record_trace_span(
        &self,
        trace_id: u64,
        name: &'static str,
        start: Instant,
        duration: Duration,
    ) {
        if let Some(tracer) = &self.inner.tracer {
            tracer.sink().append_span(trace_id, name, start, duration);
        }
    }

    /// Renders the full metric surface in Prometheus text exposition
    /// format (version 0.0.4) — the body of `GET /metrics`. Only histograms
    /// record on the request path; every counter and gauge (uptime, queue
    /// depth, mutation totals, cache operation totals, token-cache
    /// occupancy, the `koios_debug_*` mirrors of `/debug/cache` and
    /// `/debug/engine`) is synchronized from its one source first, so the
    /// rendering is always current.
    pub fn render_metrics(&self) -> String {
        let m = &self.inner.metrics;
        let reg = m.registry();
        m.uptime
            .set(self.inner.started.elapsed().as_secs().min(i64::MAX as u64) as i64);
        set_gauge(
            reg,
            "koios_queue_depth",
            "Requests submitted but not yet picked up by a worker",
            &[],
            self.pool.queued(),
        );
        // A successful mutation records exactly one sample of its phase.
        for (op, phase) in [
            ("ingest", &m.request_ingest),
            ("snapshot", &m.request_snapshot),
            ("reload", &m.request_reload),
        ] {
            reg.counter(
                "koios_mutations_total",
                "Successful corpus mutations by operation",
                &[("op", op)],
            )
            .store(phase.snapshot().count());
        }
        let (result, token) = self.cache_views();
        for view in std::iter::once(result).chain(token) {
            view.export(reg);
        }
        // The `GET /debug/engine` figures, from the same sources.
        let backend = self.backend();
        let repo = backend.repository();
        let (live, total) = (repo.num_live_sets(), repo.num_sets());
        for (state, n) in [("live", live), ("tombstoned", total - live)] {
            set_gauge(
                reg,
                "koios_debug_engine_sets",
                "Set slots by liveness, as reported by GET /debug/engine",
                &[("state", state)],
                n,
            );
        }
        set_gauge(
            reg,
            "koios_debug_engine_delta_chain",
            "Snapshot delta-chain length, as reported by GET /debug/engine",
            &[],
            self.delta_chain_len(),
        );
        let mut text = reg.render_prometheus();
        // Exemplar linkage: the slowest retained trace, rendered as its own
        // family (hand-appended so trace-id label churn never grows the
        // registry). `series` names the histogram the exemplar explains —
        // a `koios_request_seconds`/`koios_stage_seconds` p99 resolves to
        // this concrete trace via `GET /traces?id=<trace_id>`.
        if let Some(slowest) = self.slowest_trace() {
            let id = koios_common::fingerprint::hex(slowest.trace_id);
            text.push_str(
                "# HELP koios_trace_exemplar_ns Slowest retained trace; join \
                 GET /traces by trace_id\n# TYPE koios_trace_exemplar_ns gauge\n",
            );
            let _ = writeln!(
                text,
                "koios_trace_exemplar_ns{{series=\"koios_request_seconds\",trace_id=\"{id}\"}} {}",
                slowest.duration_ns
            );
            for span in &slowest.spans {
                if matches!(span.name, "refine" | "postprocess" | "verify" | "merge") {
                    let _ = writeln!(
                        text,
                        "koios_trace_exemplar_ns{{series=\"koios_stage_seconds\",\
                         stage=\"{}\",trace_id=\"{id}\"}} {}",
                        span.name, span.duration_ns
                    );
                }
            }
        }
        text
    }

    /// Exact overlap oracle passthrough (auditing cached answers).
    pub fn exact_overlap(&self, query: &[TokenId], set: SetId) -> f64 {
        self.backend().exact_overlap(query, set)
    }

    /// The body of `GET /debug/profile`: the stage time this service has
    /// recorded since construction, as a [`Profile`] tree of histogram
    /// sums — the `_sum` of the same series on `/metrics`:
    ///
    /// * `search` — `koios_request_seconds{phase="search"}`, with the
    ///   children `refine`, `postprocess` (itself containing `verify`) and
    ///   `merge` from `koios_stage_seconds{stage}`. On a partitioned
    ///   backend those stage sums add up each search's slowest shard
    ///   ([`SearchStats::merge_parallel`]), and `verify` also counts the
    ///   merge loop's verifications, so a self time can clamp to 0.
    /// * `shard;shard:i` — `koios_shard_seconds{shard="i"}`, the shard
    ///   tasks on the shard executor (overlapping their search in time).
    /// * `serialize` and `ingest` — `koios_request_seconds{phase}`,
    ///   recorded on the caller's (HTTP connection) thread.
    /// * `idle` — worker-seconds since construction ([`Self::workers`] ×
    ///   uptime) minus the worker-side recorded time, which is the
    ///   `search` phase alone: queue wait is spent before a worker picks
    ///   the request up, and cache hits and rejections record no phase.
    pub fn profile(&self) -> Profile {
        let m = &self.inner.metrics;
        let sum = |h: &koios_telemetry::Histogram| Duration::from_nanos(h.snapshot().sum_ns);
        let uptime = self.inner.started.elapsed();
        let workers = self.workers();
        let search = sum(&m.request_search);
        let mut profile = Profile::new(uptime, workers);
        profile.add("search", search);
        profile.add("search;refine", sum(&m.stage_refine));
        profile.add("search;postprocess", sum(&m.stage_postprocess));
        profile.add("search;postprocess;verify", sum(&m.stage_verify));
        profile.add("search;merge", sum(&m.stage_merge));
        for (i, shard) in m.shards().iter().enumerate() {
            profile.add(format!("shard;shard:{i}"), sum(shard));
        }
        profile.add("serialize", sum(&m.request_serialize));
        profile.add("ingest", sum(&m.request_ingest));
        let worker_time = uptime.saturating_mul(u32::try_from(workers).unwrap_or(u32::MAX));
        profile.add("idle", worker_time.saturating_sub(search));
        profile
    }

    /// The body of `GET /debug/cache`: per-stripe occupancy, byte load and
    /// oldest-entry age for both striped caches, plus their lifetime
    /// counters — each cache from one snapshot, so its stripe rows sum to
    /// the totals beside them. `/metrics` mirrors the occupancy as
    /// `koios_debug_cache_entries`, read from the caches at scrape time.
    pub fn debug_cache(&self) -> Json {
        let (result, token) = self.cache_views();
        Json::obj([
            ("result", result.to_json()),
            ("token", token.map_or(Json::Null, |t| t.to_json())),
        ])
    }

    /// Delta sections of the snapshot the service was loaded or last
    /// reloaded from (0 without one).
    fn delta_chain_len(&self) -> usize {
        self.snapshot_info().map_or(0, |s| s.deltas)
    }

    /// One snapshot per cache (the token cache when enabled).
    fn cache_views(&self) -> (CacheView, Option<CacheView>) {
        let view = |name, lru, generation| CacheView {
            name,
            lru,
            generation,
        };
        let token = self.inner.token_cache.as_ref().map(|tc| tc.snapshot());
        (
            view("result", self.inner.cache.snapshot(), None),
            token.map(|s| view("token", s.into(), Some(s.generation))),
        )
    }

    /// The body of `GET /debug/engine`: live/tombstoned set counts, the
    /// serving epoch and delta-chain length, per-partition posting-length
    /// histograms (log2 buckets — the skew behind slow refinement) and
    /// resident memory. `/metrics` mirrors the set counts and the chain
    /// length as `koios_debug_engine_*`, read at scrape time.
    pub fn debug_engine(&self) -> Json {
        use koios_common::HeapSize;

        let backend = self.backend();
        let repo = backend.repository();
        let epoch = backend.config().epoch;
        let live = repo.num_live_sets();
        let total = repo.num_sets();
        let rs = repo.stats();
        let deltas = self.delta_chain_len();

        let indexes = match (backend.as_single(), backend.as_partitioned()) {
            (Some(e), _) => vec![e.index()],
            (_, Some(p)) => p.indexes().iter().collect(),
            _ => Vec::new(),
        };
        let index_bytes: usize = indexes.iter().map(|i| i.heap_size()).sum();
        let partitions = Json::arr(indexes.iter().enumerate().map(|(i, idx)| {
            Json::obj([
                ("partition", Json::num(i as f64)),
                ("active_tokens", Json::num(idx.active_tokens() as f64)),
                ("total_postings", Json::num(idx.total_postings() as f64)),
                ("max_posting_len", Json::num(idx.max_posting_len() as f64)),
                (
                    "posting_len_histogram",
                    Json::arr(
                        idx.posting_len_histogram()
                            .into_iter()
                            .map(|c| Json::num(c as f64)),
                    ),
                ),
            ])
        }));

        Json::obj([
            ("epoch", Json::num(epoch as f64)),
            ("partitions", Json::num(backend.num_partitions() as f64)),
            (
                "sets",
                Json::obj([
                    ("live", Json::num(live as f64)),
                    ("tombstoned", Json::num((total - live) as f64)),
                    ("total", Json::num(total as f64)),
                    ("max_size", Json::num(rs.max_size as f64)),
                    ("avg_size", Json::num(rs.avg_size)),
                    ("unique_elems", Json::num(rs.unique_elems as f64)),
                ]),
            ),
            ("vocab_size", Json::num(repo.vocab_size() as f64)),
            ("delta_chain_len", Json::num(deltas as f64)),
            ("indexes", partitions),
            (
                "memory",
                Json::obj([
                    ("repository_bytes", Json::num(repo.heap_size() as f64)),
                    ("index_bytes", Json::num(index_bytes as f64)),
                ]),
            ),
        ])
    }
}

/// The one snapshot load step of [`SearchService::from_snapshot`] and
/// [`SearchService::reload`]: reads the file at `path` (delta sections
/// replayed), wires the writer engine under `factory`, and records the
/// provenance [`ServiceStats::snapshot`] reports.
fn load_snapshot(
    path: &Path,
    engine_cfg: KoiosConfig,
    factory: SimFactory,
) -> Result<(MutableEngine, SnapshotInfo), StoreError> {
    let t0 = Instant::now();
    let state = koios_store::snapshot::read_snapshot(path)?;
    let meta = state.meta.clone();
    let engine = MutableEngine::from_state(state, engine_cfg, factory)?;
    let info = SnapshotInfo {
        path: path.display().to_string(),
        format_version: meta.format_version,
        bytes: meta.total_bytes,
        partitions: engine.num_partitions(),
        num_sets: meta.num_sets,
        vocab_size: meta.vocab_size,
        deltas: meta.deltas.len(),
        latest_epoch: meta.latest_epoch(),
        load_time: t0.elapsed(),
    };
    Ok((engine, info))
}

impl ServiceInner {
    /// Feeds one executed search into the service's counters: its funnel
    /// counts into the engine totals, its stage timings into the
    /// stage/shard histograms. `merge`/shard series only move for
    /// partitioned searches, so a single-engine scrape carries no
    /// misleading zeros.
    fn record_search(&self, stats: &SearchStats) {
        let n = &self.counters;
        bump(&n.candidates, stats.candidates as u64);
        bump(&n.em_full, stats.em_full as u64);
        bump(&n.no_em, stats.no_em as u64);
        bump(&n.stream_tuples, stats.stream_tuples as u64);
        self.metrics.stage_refine.record_duration(stats.refine_time);
        self.metrics
            .stage_postprocess
            .record_duration(stats.postprocess_time);
        self.metrics.stage_verify.record_duration(stats.verify_time);
        if !stats.merge_time.is_zero() {
            self.metrics.stage_merge.record_duration(stats.merge_time);
        }
        self.metrics.record_shards(&stats.shard_times);
    }

    /// The full request lifecycle: [`Self::decide`] answers the request
    /// and [`Self::answer`] accounts for it — one exit, one record.
    fn process_one(&self, req: &SearchRequest, submitted: Instant) -> ServiceResponse {
        self.answer(self.decide(req, submitted))
    }

    /// The decide half: normalize → cache probe → admission → search →
    /// cache fill. Returns the request's record; apart from the queue
    /// wait it reports nothing itself.
    fn decide(&self, req: &SearchRequest, submitted: Instant) -> RequestRecord {
        let queue = submitted.elapsed();
        // Recorded at pickup, where it is known, so a search that panics
        // still counts its wait.
        self.metrics.request_queue.record_duration(queue);

        // Pin the serving backend once: the whole request — cache key
        // (whose fingerprint covers the backend's epoch), admission,
        // search — runs against this frozen corpus version, however many
        // live mutations swap the service's backend meanwhile.
        let backend = Arc::clone(&self.backend.read().expect("backend lock"));

        // Effective per-request configuration (cheap: no index rebuild on
        // either backend).
        let mut cfg = backend.config().clone();
        if let Some(k) = req.k {
            cfg.k = k;
        }
        if let Some(alpha) = req.alpha {
            cfg.alpha = alpha;
        }
        // EXPLAIN is additive: a request can turn funnel accounting on, a
        // service configured with `explain: true` keeps it for every
        // request. It is *not* part of the cache key (hits are
        // byte-identical either way), so the flag is folded in after the
        // overrides but never invalidates cached answers.
        cfg.explain = cfg.explain || req.explain;

        let mut tokens = req.tokens.clone();
        tokens.sort_unstable();
        tokens.dedup();
        let key = CacheKey::new(tokens, &cfg);
        let mut record = RequestRecord {
            trace: req.trace,
            submitted,
            queue,
            fingerprint: key.fingerprint(),
            k: cfg.k,
            alpha: cfg.alpha,
            epoch: cfg.epoch,
            cache: if req.bypass_cache {
                CacheOutcome::Bypassed
            } else {
                CacheOutcome::Miss
            },
            probe: None,
            search: None,
            rejected: false,
            result: SearchResult::default(),
            // Handed back with the response: its set ids resolve against
            // this repository, not whichever one is being served by then.
            repository: backend.repository_arc(),
        };
        if cfg.k == 0 || !(cfg.alpha > 0.0 && cfg.alpha <= 1.0) {
            record.cache = CacheOutcome::Rejected;
            record.rejected = true;
            return record;
        }

        // Cache probe first: a hit is effectively free, so it is served
        // even when the deadline has already expired.
        if !req.bypass_cache {
            let start = Instant::now();
            let cached = self.cache.get(record.fingerprint, &key);
            record.probe = Some((start, start.elapsed()));
            if let Some(hits) = cached {
                record.cache = CacheOutcome::Hit;
                record.result.hits = (*hits).clone(); // copy outside the cache lock
                return record;
            }
        }

        // Admission control: refuse to start work for a dead request. The
        // deadline is passed to the backend as an *absolute* instant, so it
        // bounds the whole remaining search — on a partitioned backend,
        // every shard and the merge-time verification loop. An expiry at
        // admission is both a rejection and a timeout: callers observe
        // `stats.timed_out = true`.
        let deadline = req.time_budget.map(|b| submitted + b);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            record.rejected = true;
            record.result.stats.timed_out = true;
            return record;
        }

        let start = Instant::now();
        // Fast path: without per-request overrides the effective config is
        // the backend's own, so the shared backend (and its pre-built
        // shard engines) is searched directly — no config-sibling rebuild
        // per request.
        let result =
            if req.k.is_none() && req.alpha.is_none() && cfg.explain == backend.config().explain {
                backend.search_with_deadline(&key.tokens, deadline)
            } else {
                backend
                    .with_config(cfg)
                    .search_with_deadline(&key.tokens, deadline)
            };
        record.search = Some((start, start.elapsed()));

        // Only complete answers are worth caching: a timed-out search holds
        // partial hits that a later, luckier run could improve on.
        if !req.bypass_cache && !result.stats.timed_out {
            let hits = Arc::new(result.hits.clone());
            self.cache.insert(record.fingerprint, key, hits, 1, || true);
        }
        record.result = result;
        record
    }

    /// The tail: every surface drawn from the one record — the outcome
    /// counters and histograms, the span tree, the slow-query line (which
    /// reads the tree before it is offered to the sink), and the
    /// response.
    fn answer(&self, record: RequestRecord) -> ServiceResponse {
        if record.rejected {
            bump(&self.counters.rejected, 1);
        }
        // Counts every request that observed an expiry, admitted or not.
        if record.result.stats.timed_out {
            bump(&self.counters.timed_out, 1);
        }
        if let Some((_, took)) = record.search {
            self.metrics.request_search.record_duration(took);
            self.record_search(&record.result.stats);
        }
        let trace = self.tracer.as_ref().map(|t| (t, t.request_trace(&record)));
        if let Some(log) = &self.slowlog {
            log.observe(&record, trace.as_ref().map(|(_, tree)| tree));
        }
        let trace_id = trace.map(|(t, tree)| t.offer(tree));
        ServiceResponse {
            result: record.result,
            cache: record.cache,
            rejected: record.rejected,
            queue_time: record.queue,
            trace_id,
            repository: record.repository,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::{ElementSimilarity, EqualitySimilarity};

    fn equality_factory() -> koios_core::mutable::SimFactory {
        Arc::new(|_, _| Ok(Arc::new(EqualitySimilarity) as Arc<dyn ElementSimilarity>))
    }

    /// A single-index writer engine under equality similarity.
    fn single(repo: &Arc<Repository>, cfg: KoiosConfig) -> MutableEngine {
        MutableEngine::single(Arc::clone(repo), None, cfg, equality_factory()).unwrap()
    }

    /// A sharded writer engine under equality similarity (seed 7).
    fn sharded(repo: &Arc<Repository>, partitions: usize) -> MutableEngine {
        let cfg = KoiosConfig::new(2, 0.9);
        MutableEngine::partitioned(
            Arc::clone(repo),
            None,
            cfg,
            partitions,
            7,
            equality_factory(),
        )
        .unwrap()
    }

    fn service(workers: usize, cache: usize) -> (Arc<Repository>, SearchService) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c", "d"]);
        b.add_set("s1", ["a", "b", "c", "x"]);
        b.add_set("s2", ["a", "b", "y", "z"]);
        b.add_set("s3", ["a", "m", "n", "o"]);
        let repo = Arc::new(b.build());
        let svc = SearchService::from_mutable(
            single(&repo, KoiosConfig::new(2, 0.9)),
            ServiceConfig::new()
                .with_workers(workers)
                .with_cache_capacity(cache),
        );
        (repo, svc)
    }

    #[test]
    fn single_request_matches_engine() {
        let (repo, svc) = service(2, 8);
        let q = repo.intern_query(["a", "b", "c"]);
        let direct = svc.backend().search(&q);
        let resp = svc.search(SearchRequest::new(q));
        assert!(!resp.rejected);
        assert_eq!(resp.cache, CacheOutcome::Miss);
        assert_eq!(resp.result.hits, direct.hits);
    }

    #[test]
    fn second_identical_query_hits_cache() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b", "c"]);
        let first = svc.search(SearchRequest::new(q.clone()));
        // Different order + duplicates normalize to the same fingerprint.
        let mut shuffled = q.clone();
        shuffled.reverse();
        shuffled.push(q[0]);
        let second = svc.search(SearchRequest::new(shuffled));
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(second.result.hits, first.result.hits);
        let st = svc.stats();
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.searched, 1);
        assert!(st.cache_hit_rate() > 0.0);
    }

    #[test]
    fn parameter_overrides_separate_cache_entries() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b", "c"]);
        let top2 = svc.search(SearchRequest::new(q.clone()));
        let top1 = svc.search(SearchRequest::new(q.clone()).with_k(1));
        assert_eq!(top1.cache, CacheOutcome::Miss);
        assert_eq!(top1.result.hits.len(), 1);
        assert_eq!(top2.result.hits.len(), 2);
        // Both entries live side by side.
        assert_eq!(svc.cache_len(), 2);
    }

    #[test]
    fn invalidation_forces_fresh_search() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b"]);
        svc.search(SearchRequest::new(q.clone()));
        svc.invalidate_cache();
        let after = svc.search(SearchRequest::new(q));
        assert_eq!(after.cache, CacheOutcome::Miss);
        assert_eq!(svc.stats().cache.invalidations, 1);
    }

    #[test]
    fn bypass_cache_never_touches_it() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b"]);
        let r = svc.search(SearchRequest::new(q.clone()).bypassing_cache());
        assert_eq!(r.cache, CacheOutcome::Bypassed);
        assert_eq!(svc.cache_len(), 0);
        let again = svc.search(SearchRequest::new(q).bypassing_cache());
        assert_eq!(again.cache, CacheOutcome::Bypassed);
        assert_eq!(svc.stats().cache.hits, 0);
    }

    #[test]
    fn invalid_overrides_are_rejected_with_truthful_outcome() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a"]);
        let r = svc.search(SearchRequest::new(q.clone()).with_k(0));
        assert!(r.rejected);
        // The request never asked to bypass the cache, so the outcome must
        // not claim it did; the cache was skipped because of the rejection.
        assert_eq!(r.cache, CacheOutcome::Rejected);
        let r = svc.search(SearchRequest::new(q.clone()).with_alpha(1.5));
        assert!(r.rejected);
        assert_eq!(r.cache, CacheOutcome::Rejected);
        // A bypassing invalid request also reports the rejection.
        let r = svc.search(SearchRequest::new(q).with_k(0).bypassing_cache());
        assert_eq!(r.cache, CacheOutcome::Rejected);
        let st = svc.stats();
        assert_eq!(st.rejected, 3);
        // Parameter rejections are not deadline expiries.
        assert_eq!(st.timed_out, 0);
    }

    #[test]
    fn expired_deadline_is_rejected_without_searching() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b"]);
        let r = svc.search(SearchRequest::new(q).with_time_budget(Duration::ZERO));
        assert!(r.rejected);
        assert!(r.result.stats.timed_out);
        assert!(r.result.hits.is_empty());
        let st = svc.stats();
        assert_eq!(st.rejected, 1);
        assert_eq!(st.searched, 0);
        // The response reported `timed_out`, so the service counter agrees
        // (admission expiries used to be invisible in `timed_out`).
        assert_eq!(st.timed_out, 1);
    }

    #[test]
    fn partitioned_backend_serves_identical_results() {
        let (repo, svc) = service(2, 8);
        let q = repo.intern_query(["a", "b", "c"]);
        let single = svc.search(SearchRequest::new(q.clone()));
        for parts in [1usize, 2, 8] {
            let parted = SearchService::from_mutable(
                sharded(&repo, parts),
                ServiceConfig::new().with_workers(2).with_cache_capacity(8),
            );
            assert_eq!(parted.partitions(), parts);
            assert_eq!(parted.stats().partitions, parts);
            let r = parted.search(SearchRequest::new(q.clone()));
            assert_eq!(r.result.hits.len(), single.result.hits.len());
            for (a, b) in r.result.hits.iter().zip(&single.result.hits) {
                assert_eq!(a.set, b.set, "parts={parts}");
                assert!((a.score.ub() - b.score.ub()).abs() < 1e-9, "parts={parts}");
            }
        }
    }

    #[test]
    fn partitioned_shards_share_one_token_cache() {
        let (repo, _) = service(1, 8);
        let svc = SearchService::from_mutable(
            sharded(&repo, 4),
            ServiceConfig::new().with_workers(1).with_cache_capacity(0),
        );
        let q = repo.intern_query(["a", "b", "c"]);
        let cold = svc.search(SearchRequest::new(q.clone()));
        // The 3 elements probe the one shared cache once for all 4 shards.
        let cold_knn = &cold.result.stats.knn_cache;
        assert_eq!((cold_knn.hits, cold_knn.misses), (0, 3), "{cold_knn:?}");
        // A repeat search hits for every element.
        let warm = svc.search(SearchRequest::new(q));
        let warm_knn = &warm.result.stats.knn_cache;
        assert_eq!((warm_knn.hits, warm_knn.misses), (3, 0), "{warm_knn:?}");
        assert_eq!(warm.result.hits, cold.result.hits);
    }

    #[test]
    fn token_cache_is_shared_and_reported() {
        let (repo, svc) = service(1, 8);
        assert!(svc.token_cache().is_some(), "enabled by default");
        let q1 = repo.intern_query(["a", "b", "c"]);
        let q2 = repo.intern_query(["a", "b", "x"]); // overlaps q1 on a, b
        let r1 = svc.search(SearchRequest::new(q1));
        assert!(r1.result.stats.knn_cache.misses > 0);
        assert_eq!(r1.result.stats.knn_cache.hits, 0);
        let r2 = svc.search(SearchRequest::new(q2));
        assert!(
            r2.result.stats.knn_cache.hits >= 2,
            "overlapping elements served from the token cache: {:?}",
            r2.result.stats.knn_cache
        );
        let st = svc.stats();
        let tc = st.token_cache.expect("token cache enabled");
        assert!(tc.entries > 0 && tc.bytes > 0);
        assert_eq!(
            tc.counters.hits as usize, r2.result.stats.knn_cache.hits,
            "global and per-search views agree"
        );
        assert!(st.token_cache_hit_rate() > 0.0);
        // The engine totals carry the summed per-search counters.
        let (s1, s2) = (&r1.result.stats, &r2.result.stats);
        assert_eq!(st.searched, 2);
        assert_eq!(st.engine.candidates, (s1.candidates + s2.candidates) as u64);
        assert_eq!(
            st.engine.stream_tuples,
            (s1.stream_tuples + s2.stream_tuples) as u64
        );
        assert_eq!(
            st.engine.cumulative_time,
            s1.response_time() + s2.response_time()
        );
    }

    #[test]
    fn invalidation_bumps_token_cache_generation() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b"]);
        svc.search(SearchRequest::new(q.clone()));
        let before = svc.token_cache().unwrap().snapshot();
        assert!(before.entries > 0);
        svc.invalidate_cache();
        let after = svc.token_cache().unwrap().snapshot();
        assert_eq!(after.entries, 0);
        assert_eq!(after.generation, before.generation + 1);
        // A rerun repopulates under the new generation, results unchanged.
        let rerun = svc.search(SearchRequest::new(q.clone()).bypassing_cache());
        assert_eq!(rerun.result.hits, svc.backend().search(&q).hits);
        assert!(svc.token_cache().unwrap().snapshot().entries > 0);
    }

    #[test]
    fn zero_budget_disables_token_cache() {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b"]);
        let repo = Arc::new(b.build());
        let svc = SearchService::from_mutable(
            single(&repo, KoiosConfig::new(1, 0.9)),
            ServiceConfig::new()
                .with_workers(1)
                .with_token_cache_bytes(0),
        );
        assert!(svc.token_cache().is_none());
        let q = repo.intern_query(["a", "b"]);
        let r = svc.search(SearchRequest::new(q));
        assert_eq!(r.result.stats.knn_cache, Default::default());
        assert!(svc.stats().token_cache.is_none());
    }

    #[test]
    fn zero_budget_strips_engine_supplied_cache() {
        use koios_index::knn_cache::TokenKnnCache;
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b"]);
        let repo = Arc::new(b.build());
        let supplied = Arc::new(TokenKnnCache::new(1 << 20));
        let engine = || {
            single(
                &repo,
                KoiosConfig::new(1, 0.9).with_token_cache(Arc::clone(&supplied)),
            )
        };
        let svc = SearchService::from_mutable(
            engine(),
            ServiceConfig::new()
                .with_workers(1)
                .with_token_cache_bytes(0),
        );
        assert!(
            svc.token_cache().is_none(),
            "0 disables even a preinstalled cache"
        );
        assert!(svc.backend().config().token_cache.is_none());
        let q = repo.intern_query(["a", "b"]);
        let r = svc.search(SearchRequest::new(q));
        assert_eq!(r.result.stats.knn_cache, Default::default());

        // A non-zero budget replaces the supplied cache with the service's
        // own, sized by `token_cache_bytes` and carried by every backend.
        let svc = SearchService::from_mutable(
            engine(),
            ServiceConfig::new()
                .with_workers(1)
                .with_token_cache_bytes(4 << 10),
        );
        let own = svc.token_cache().expect("enabled");
        assert_eq!(own.budget_bytes(), 4 << 10);
        assert!(!Arc::ptr_eq(own, &supplied));
        let minted = svc
            .backend()
            .config()
            .token_cache
            .clone()
            .expect("installed");
        assert!(Arc::ptr_eq(&minted, own));
    }

    #[test]
    fn batch_workers_share_one_token_cache() {
        let (repo, svc) = service(4, 0);
        let q = repo.intern_query(["a", "b", "c", "d"]);
        // 8 identical requests race across 4 workers; with the result cache
        // disabled every one searches, but the token cache still bounds the
        // total element scans: every (element, α) list is computed at most
        // once per concurrent non-overlapping window — and exactly 4 misses
        // minimum is guaranteed only for the first finisher, so just assert
        // correctness plus a shared-cache effect.
        let reqs: Vec<SearchRequest> = (0..8).map(|_| SearchRequest::new(q.clone())).collect();
        let responses = svc.search_batch(&reqs);
        let direct = svc.backend().search(&q);
        for r in &responses {
            assert_eq!(r.result.hits, direct.hits);
        }
        let tc = svc.stats().token_cache.expect("enabled");
        assert!(
            tc.counters.hits > 0,
            "later requests reuse earlier lists: {tc:?}"
        );
    }

    #[test]
    fn service_warm_starts_from_snapshot() {
        use koios_embed::synthetic::SyntheticEmbeddings;
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton", "MtPleasant"]);
        b.add_set("c2", ["LA", "Sacramento", "Blain", "SC"]);
        b.add_set("c3", ["Zebra", "Yak", "Gnu"]);
        let repo = Arc::new(b.build());
        let emb = Arc::new(
            SyntheticEmbeddings::builder()
                .dimensions(16)
                .seed(3)
                .build(&repo),
        );
        let engine = MutableEngine::partitioned(
            Arc::clone(&repo),
            Some(Arc::clone(&emb)),
            KoiosConfig::new(2, 0.5),
            2,
            7,
            cosine_factory(),
        )
        .unwrap();
        let cold = SearchService::from_mutable(engine, ServiceConfig::new().with_workers(1));
        let dir = std::env::temp_dir().join("koios-service-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.ksnap");
        cold.backend().write_snapshot(&path, Some(&emb)).unwrap();
        assert!(cold.snapshot_info().is_none());
        assert!(cold.stats().snapshot.is_none());

        let warm = SearchService::from_snapshot(
            &path,
            KoiosConfig::new(2, 0.5),
            ServiceConfig::new().with_workers(1),
        )
        .unwrap();
        assert_eq!(warm.partitions(), 2);
        let info = warm.snapshot_info().expect("provenance recorded");
        assert_eq!(info.partitions, 2);
        assert_eq!(info.num_sets, repo.num_sets());
        assert!(info.bytes > 0);
        assert_eq!(info.deltas, 0, "plain base: no delta chain");
        assert_eq!(info.latest_epoch, 0);
        assert_eq!(warm.stats().snapshot, Some(info));

        let q = repo.intern_query(["LA", "Blain", "SC"]);
        let a = cold.search(SearchRequest::new(q.clone()));
        let b = warm.search(SearchRequest::new(q));
        assert_eq!(a.result.hits, b.result.hits, "warm ≡ cold over the service");
    }

    #[test]
    fn metrics_cover_stages_queue_and_lock_wait() {
        let (repo, svc) = service(2, 8);
        let q = repo.intern_query(["a", "b", "c"]);
        svc.search(SearchRequest::new(q.clone()));
        svc.search(SearchRequest::new(q)); // result-cache hit
        let m = svc.metrics();
        assert_eq!(m.stage_refine.snapshot().count(), 1, "one executed search");
        assert_eq!(m.stage_verify.snapshot().count(), 1);
        assert_eq!(m.request_search.snapshot().count(), 1);
        assert_eq!(m.request_queue.snapshot().count(), 2, "hits queue too");
        assert!(
            m.lock_wait_result.snapshot().count() >= 3,
            "probe + fill + probe each timed the cache mutex"
        );
        assert!(
            m.lock_wait_token.snapshot().count() > 0,
            "shared token cache acquisitions are timed"
        );
        let text = svc.render_metrics();
        for series in [
            "koios_stage_seconds",
            "koios_queue_depth",
            "koios_queue_wait_seconds",
            "koios_lock_wait_seconds",
            "koios_request_seconds",
            "koios_uptime_seconds",
            "koios_cache_ops_total",
            "koios_token_cache_bytes",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        assert!(text.contains("koios_cache_ops_total{cache=\"result\",op=\"hit\"} 1"));
        assert!(text.contains("koios_stage_seconds_count{stage=\"refine\"} 1"));
        // Queue wait is the queue phase itself; the depth is read from the
        // pool at scrape time.
        assert!(text.contains("koios_queue_wait_seconds_count 2"));
        assert!(text.contains("koios_request_seconds_count{phase=\"queue\"} 2"));
        assert!(
            text.contains("koios_queue_depth 0"),
            "both requests drained"
        );
    }

    #[test]
    fn partitioned_service_emits_shard_and_merge_series() {
        let (repo, _) = service(1, 8);
        let svc = SearchService::from_mutable(
            sharded(&repo, 3),
            ServiceConfig::new().with_workers(1).with_cache_capacity(0),
        );
        let q = repo.intern_query(["a", "b", "c"]);
        svc.search(SearchRequest::new(q));
        let m = svc.metrics();
        let shards = m.shards();
        assert_eq!(shards.len(), 3);
        for (shard, h) in shards.iter().enumerate() {
            assert_eq!(h.snapshot().count(), 1, "shard {shard}");
        }
        assert_eq!(m.stage_merge.snapshot().count(), 1);
        let text = svc.render_metrics();
        assert!(text.contains("koios_shard_seconds_count{shard=\"2\"} 1"));
        assert!(text.contains("koios_stage_seconds_count{stage=\"merge\"} 1"));
    }

    #[test]
    fn single_engine_service_emits_no_shard_or_merge_series() {
        let (repo, svc) = service(1, 8);
        let q = repo.intern_query(["a", "b"]);
        svc.search(SearchRequest::new(q));
        let text = svc.render_metrics();
        assert!(!text.contains("koios_shard_seconds_bucket"));
        assert!(text.contains("koios_stage_seconds_count{stage=\"merge\"} 0"));
    }

    #[test]
    fn slow_query_log_captures_offenders() {
        use std::sync::Mutex as StdMutex;
        let lines = Arc::new(StdMutex::new(Vec::<String>::new()));
        let sink = {
            let lines = Arc::clone(&lines);
            Arc::new(move |line: &str| lines.lock().unwrap().push(line.to_string())) as _
        };
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c", "d"]);
        b.add_set("s1", ["a", "b", "x", "y"]);
        let repo = Arc::new(b.build());
        let svc = SearchService::from_mutable(
            single(&repo, KoiosConfig::new(1, 0.9)),
            ServiceConfig::new()
                .with_workers(1)
                .with_slow_query_log(SlowQueryLog::new(Duration::ZERO, sink)),
        );
        let q = repo.intern_query(["a", "b"]);
        svc.search(SearchRequest::new(q.clone()));
        svc.search(SearchRequest::new(q.clone())); // hit — also over the 0ns threshold
                                                   // Both rejection exits log too.
        svc.search(SearchRequest::new(q.clone()).with_k(0));
        let dead = SearchRequest::new(q).bypassing_cache();
        svc.search(dead.with_time_budget(Duration::ZERO));
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 4, "every request crossed the zero threshold");
        assert!(lines[0].contains("\"cache\":\"miss\""));
        assert!(lines[0].contains("\"refine_ns\":"));
        assert!(lines[0].contains("\"k\":1"));
        assert!(lines[0].contains("\"fingerprint\":\"0x"));
        assert!(lines[1].contains("\"cache\":\"hit\""));
        assert!(!lines[1].contains("refine_ns"), "hits did no engine work");
        assert!(lines[2].contains("\"cache\":\"rejected\""), "{}", lines[2]);
        assert!(lines[2].contains("\"k\":0"), "{}", lines[2]);
        assert!(lines[3].contains("\"cache\":\"bypassed\""), "{}", lines[3]);
        assert!(lines[3].contains("\"timed_out\":true"), "{}", lines[3]);
        assert!(lines[3].contains("\"search_ns\":0"), "{}", lines[3]);
    }

    /// The ring is bounded: once it holds only privileged traces, each new
    /// one evicts the oldest, so exactly the newest `capacity` slow-log
    /// lines resolve to their traces.
    #[test]
    fn slow_log_trace_joins_hold_for_the_ring_capacity() {
        use koios_telemetry::trace::SamplingPolicy;
        use std::sync::Mutex as StdMutex;
        let lines = Arc::new(StdMutex::new(Vec::<String>::new()));
        let sink = {
            let lines = Arc::clone(&lines);
            Arc::new(move |line: &str| lines.lock().unwrap().push(line.to_string())) as _
        };
        let (repo, _) = service(1, 8);
        let policy = SamplingPolicy {
            probability: 0.0,
            top_percent: 0.0,
            seed: 1,
            slow_threshold: None,
        };
        let svc = SearchService::from_mutable(
            single(&repo, KoiosConfig::new(2, 0.9)),
            ServiceConfig::new()
                .with_workers(1)
                .with_slow_query_log(SlowQueryLog::new(Duration::ZERO, sink))
                .with_tracing(TraceConfig {
                    capacity: 4,
                    policy,
                }),
        );
        let q = repo.intern_query(["a", "b", "c"]);
        for _ in 0..8 {
            svc.search(SearchRequest::new(q.clone()).bypassing_cache());
        }
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 8);
        let resolves: Vec<bool> = lines
            .iter()
            .map(|line| {
                let hex = line
                    .split("\"trace_id\":\"0x")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .expect("slow-log line carries a trace id");
                svc.trace(u64::from_str_radix(hex, 16).unwrap()).is_some()
            })
            .collect();
        assert_eq!(
            resolves,
            [false, false, false, false, true, true, true, true]
        );
    }

    /// A sampling policy with a larger slow threshold than the slow log's
    /// (and no coin, no top-p) must still retain every trace a slow-log
    /// line names.
    #[test]
    fn slow_log_lines_resolve_to_traces_under_a_larger_policy_threshold() {
        use koios_telemetry::trace::SamplingPolicy;
        use std::sync::Mutex as StdMutex;
        let lines = Arc::new(StdMutex::new(Vec::<String>::new()));
        let sink = {
            let lines = Arc::clone(&lines);
            Arc::new(move |line: &str| lines.lock().unwrap().push(line.to_string())) as _
        };
        let (repo, _) = service(1, 8);
        let policy = SamplingPolicy {
            probability: 0.0,
            top_percent: 0.0,
            seed: 1,
            slow_threshold: Some(Duration::from_secs(3600)),
        };
        let svc = SearchService::from_mutable(
            single(&repo, KoiosConfig::new(2, 0.9)),
            ServiceConfig::new()
                .with_workers(1)
                .with_slow_query_log(SlowQueryLog::new(Duration::ZERO, sink))
                .with_tracing(TraceConfig {
                    capacity: 16,
                    policy,
                }),
        );
        let q = repo.intern_query(["a", "b", "c"]);
        svc.search(SearchRequest::new(q.clone()));
        svc.search(SearchRequest::new(q)); // a hit logs too
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2);
        for line in lines.iter() {
            let hex = line
                .split("\"trace_id\":\"0x")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .expect("slow-log line carries a trace id");
            let id = u64::from_str_radix(hex, 16).unwrap();
            assert!(svc.trace(id).is_some(), "trace {hex} of {line} dropped");
        }
    }

    #[test]
    fn stats_report_uptime_and_start_time() {
        let (repo, svc) = service(1, 8);
        let before = svc.stats();
        assert!(before.start_time > std::time::SystemTime::UNIX_EPOCH);
        svc.search(SearchRequest::new(repo.intern_query(["a"])));
        let after = svc.stats();
        assert!(after.uptime_secs >= before.uptime_secs);
        assert_eq!(after.start_time, before.start_time, "start time is fixed");
        assert_eq!((before.searched, after.searched), (0, 1));
        assert!(svc.stats().uptime_secs >= after.uptime_secs);
    }

    #[test]
    fn live_ingest_mutates_the_served_corpus() {
        let (repo, _) = service(1, 8);
        let svc = SearchService::from_mutable(
            single(&repo, KoiosConfig::new(2, 0.9)),
            ServiceConfig::new().with_workers(2).with_cache_capacity(8),
        );
        assert_eq!(svc.engine_epoch(), 0);

        let q = repo.intern_query(["m", "n", "o"]);
        let before = svc.search(SearchRequest::new(q.clone()));
        assert_eq!(before.result.stats.epoch, 0);
        // Pin the pre-mutation backend: it must keep serving its frozen
        // corpus after the swap.
        let frozen = svc.backend();

        let out = svc
            .ingest(&[CorpusOp::insert("s4", ["m", "n", "o"])])
            .unwrap();
        assert_eq!((out.inserted, out.removed, out.epoch), (1, 0, 1));
        let st = svc.stats();
        assert_eq!(st.engine_epoch, 1);
        assert_eq!((st.sets_added, st.sets_removed), (1, 0));

        let after = svc.search(SearchRequest::new(q.clone()));
        assert_eq!(after.cache, CacheOutcome::Miss, "epoch keys the cache");
        assert_eq!(after.result.stats.epoch, 1);
        let repo_now = svc.repository();
        assert!(
            after
                .result
                .hits
                .iter()
                .any(|h| repo_now.set_name(h.set) == "s4"),
            "the ingested set ranks for its own tokens"
        );
        assert_eq!(frozen.repository().num_sets(), 4, "old backend frozen");
        assert_eq!(frozen.search(&q).hits, before.result.hits);

        // Tombstoning takes it back out.
        let s4 = SetId(4);
        let out = svc.ingest(&[CorpusOp::remove(s4)]).unwrap();
        assert_eq!((out.inserted, out.removed, out.epoch), (0, 1, 2));
        let gone = svc.search(SearchRequest::new(q));
        assert!(gone.result.hits.iter().all(|h| h.set != s4));
        assert_eq!(svc.stats().sets_removed, 1);

        // A rejected batch mutates nothing and keeps the epoch.
        let err = svc.ingest(&[CorpusOp::remove(SetId(99))]).unwrap_err();
        assert!(matches!(err, LiveServiceError::Rejected(_)), "{err}");
        assert_eq!(svc.engine_epoch(), 2);

        // A non-cosine warm start: the snapshot carries no embeddings, and
        // the reload restores it under the writer's equality factory.
        let dir = std::env::temp_dir().join("koios-service-live");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("equality.ksnap");
        let _ = std::fs::remove_file(&path);
        assert!(!svc.snapshot_to(&path).unwrap().has_embeddings);
        svc.ingest(&[CorpusOp::insert("s5", ["a", "b", "c", "d"])])
            .unwrap();
        let info = svc.reload(&path).unwrap();
        assert_eq!((info.num_sets, info.deltas), (5, 0));
        assert_eq!(svc.engine_epoch(), 4, "above the replaced engine's 3");
        // Its hits equal a cold engine's that applied the same two batches.
        let mut cold = single(&repo, KoiosConfig::new(2, 0.9));
        cold.apply(&[CorpusOp::insert("s4", ["m", "n", "o"])])
            .unwrap();
        cold.apply(&[CorpusOp::remove(s4)]).unwrap();
        let cold = cold.backend();
        for tokens in [["m", "n", "o"], ["a", "b", "c"], ["a", "b", "x"]] {
            let q = svc.repository().intern_query(tokens);
            let warm = svc.search(SearchRequest::new(q.clone()));
            assert_eq!(warm.cache, CacheOutcome::Miss);
            assert_eq!(warm.result.hits, cold.search(&q).hits, "{tokens:?}");
        }
    }

    #[test]
    fn snapshot_to_appends_deltas_and_reload_hot_swaps() {
        use koios_embed::synthetic::SyntheticEmbeddings;
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton"]);
        b.add_set("c2", ["LA", "Sacramento", "SC"]);
        let repo = Arc::new(b.build());
        let emb = Arc::new(
            SyntheticEmbeddings::builder()
                .dimensions(8)
                .seed(5)
                .build(&repo),
        );
        let engine = koios_core::mutable::MutableEngine::single(
            Arc::clone(&repo),
            Some(emb),
            KoiosConfig::new(2, 0.5),
            koios_core::mutable::cosine_factory(),
        )
        .unwrap();
        let svc = SearchService::from_mutable(engine, ServiceConfig::new().with_workers(1));

        let dir = std::env::temp_dir().join("koios-service-live");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.ksnap");
        let _ = std::fs::remove_file(&path);

        let meta = svc.snapshot_to(&path).unwrap();
        assert!(meta.deltas.is_empty(), "first write is a fresh base");

        svc.ingest(&[CorpusOp::insert("n1", ["LA", "SC", "Fresno"])])
            .unwrap();
        let meta = svc.snapshot_to(&path).unwrap();
        assert_eq!(meta.deltas.len(), 1, "second write appends one delta");
        assert_eq!(meta.latest_epoch(), 1);
        let again = svc.snapshot_to(&path).unwrap();
        assert_eq!(again.deltas.len(), 1, "nothing pending: chain unchanged");

        // A fresh service restores base + delta and resumes the epoch.
        let warm = SearchService::from_snapshot(
            &path,
            KoiosConfig::new(2, 0.5),
            ServiceConfig::new().with_workers(1),
        )
        .unwrap();
        assert_eq!(warm.engine_epoch(), 1);
        assert_eq!(warm.repository().num_sets(), repo.num_sets() + 1);
        let info = warm.snapshot_info().unwrap();
        assert_eq!((info.deltas, info.latest_epoch), (1, 1));
        let q = warm.repository().intern_query(["LA", "SC"]);
        assert_eq!(
            warm.search(SearchRequest::new(q.clone())).result.hits,
            svc.search(SearchRequest::new(q.clone())).result.hits,
            "restored service answers identically"
        );

        // Hot reload rolls the original service back to the file's state,
        // with a strictly higher epoch than the replaced engine.
        svc.ingest(&[CorpusOp::insert("n2", ["Blain"])]).unwrap(); // epoch 2, unsnapshotted
        let info = svc.reload(&path).unwrap();
        assert_eq!((info.deltas, info.latest_epoch), (1, 1));
        assert_eq!(svc.engine_epoch(), 3, "max(old + 1, chain latest)");
        assert_eq!(svc.repository().num_sets(), repo.num_sets() + 1, "n2 gone");
        assert_eq!(svc.stats().snapshot, Some(info));
        assert_eq!(
            svc.search(SearchRequest::new(q.clone())).result.hits,
            warm.search(SearchRequest::new(q)).result.hits
        );
    }

    /// A warm-started service that appends a delta to the file it was
    /// loaded from reports the longer chain.
    #[test]
    fn snapshot_to_its_own_file_refreshes_the_provenance() {
        let dir = std::env::temp_dir().join("koios-service-live");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("provenance.ksnap");
        let mut b = RepositoryBuilder::new();
        b.add_set("c1", ["LA", "Blain", "Appleton"]);
        b.add_set("c2", ["LA", "Sacramento", "SC"]);
        let repo = Arc::new(b.build());
        let emb = koios_embed::synthetic::SyntheticEmbeddings::builder()
            .dimensions(8)
            .seed(5)
            .build(&repo);
        koios_core::mutable::MutableEngine::single(
            repo,
            Some(Arc::new(emb)),
            KoiosConfig::new(2, 0.5),
            cosine_factory(),
        )
        .unwrap()
        .write_snapshot(&path)
        .unwrap();
        let svc = SearchService::from_snapshot(
            &path,
            KoiosConfig::new(2, 0.5),
            ServiceConfig::new().with_workers(1),
        )
        .unwrap();
        assert_eq!(svc.snapshot_info().unwrap().deltas, 0);
        svc.ingest(&[CorpusOp::insert("n1", ["LA", "Fresno"])])
            .unwrap();
        let meta = svc.snapshot_to(&path).unwrap();
        let info = svc.snapshot_info().unwrap();
        assert_eq!(info.deltas, 1);
        assert_eq!(
            (info.latest_epoch, info.bytes),
            (meta.latest_epoch(), meta.total_bytes)
        );
        assert_eq!(svc.stats().snapshot, Some(info));
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_repo, svc) = service(4, 8);
        assert!(svc.search_batch(&[]).is_empty());
    }

    #[test]
    fn batch_preserves_submission_order() {
        let (repo, svc) = service(4, 0);
        let queries: Vec<Vec<TokenId>> = vec![
            repo.intern_query(["a", "b", "c", "d"]),
            repo.intern_query(["a", "m"]),
            repo.intern_query(["y", "z"]),
            repo.intern_query(["a", "b", "c", "d"]),
        ];
        let requests: Vec<SearchRequest> =
            queries.iter().cloned().map(SearchRequest::new).collect();
        let responses = svc.search_batch(&requests);
        assert_eq!(responses.len(), queries.len());
        for (q, r) in queries.iter().zip(&responses) {
            let direct = svc.backend().search(q);
            assert_eq!(r.result.hits, direct.hits, "order mismatch for {q:?}");
        }
    }
}
