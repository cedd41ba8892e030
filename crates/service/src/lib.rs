//! Concurrent query serving for Koios.
//!
//! The paper (ICDE 2023) evaluates single-query latency; a production
//! deployment instead serves a *stream* of queries against one corpus. The
//! expensive parts of a Koios search setup — building the inverted index,
//! wiring the similarity function — are query-independent, and the
//! filter–verification pipeline repeats most of its work across similar
//! queries. This crate amortizes both:
//!
//! * **Owned engine backends** — [`SearchService`] is built over a
//!   [`MutableEngine`](koios_core::MutableEngine), its writer, which mints
//!   the served [`EngineBackend`](koios_core::EngineBackend): a single
//!   [`Koios`](koios_core::Koios) or a sharded
//!   [`PartitionedKoios`](koios_core::PartitionedKoios) (paper §VI:
//!   per-shard indexes searched in parallel under one shared monotone
//!   `θlb`). Every engine owns an `Arc<Repository>`, so the service has no
//!   borrowed lifetime and can live for the process duration, shared
//!   across threads. Routing is backend-transparent: identical queries produce
//!   identical scores and identical cache keys on either variant, and
//!   per-request deadlines bound every shard *and* the partitioned
//!   merge-verification loop.
//! * **A persistent worker pool with a submission queue** —
//!   a [`koios_common::pool::Pool`] keeps a fixed set of long-lived threads
//!   draining one FIFO queue.
//!   [`SearchService::submit`] enqueues a single request and returns a
//!   [`ResponseHandle`] to await later; [`SearchService::search_batch`] is
//!   a thin submit-all/await-all wrapper that returns responses in
//!   submission order (each lands in its own ticket slot — no re-sort).
//!   Per-request deadlines cover queue *and* search time; requests whose
//!   deadline lapses before pickup are rejected unrun (admission control).
//!   Shutdown drains: every handle issued before [`SearchService::shutdown`]
//!   (or drop) resolves.
//! * **An LRU result cache** — the workspace's striped LRU
//!   ([`koios_common::cache::StripedLru`]) at weight 1 per entry, keyed by
//!   a stable 64-bit fingerprint of the normalized query tokens and every
//!   result-affecting parameter (`k`, `α`, UB mode, filter toggles, epoch),
//!   with hit/miss/eviction counters and explicit invalidation. Collisions
//!   are detected by full-key comparison and served as misses, never as
//!   wrong results.
//! * **A shared token-level kNN cache** — one
//!   [`koios_index::knn_cache::TokenKnnCache`] installed into the engine
//!   configuration so *overlapping* (not just identical) queries reuse
//!   complete per-element similarity lists. A live batch keeps them (each
//!   list records the vocabulary it covers); they are invalidated together
//!   with the result cache via a generation bump
//!   ([`SearchService::invalidate_cache`], [`SearchService::reload`]).
//!
//! Observability is first-class: a `koios-telemetry` registry
//! ([`metrics::ServiceMetrics`]) tracks latency distributions —
//! per-stage histograms (`refine`/`verify`/
//! `postprocess`/`merge`, matching the paper's pipeline names), per-shard
//! search time, queue wait, cache mutex lock-wait, and the request's
//! queue/search/serialize phase split. Counters and gauges (queue depth,
//! mutation and cache totals, uptime, the `/debug` mirrors) are read from
//! their sources at scrape time, so each fact is recorded once.
//! [`ServiceStats`]
//! is a view of the same counters (plus the result LRU's own and the
//! paper's funnel totals), so `/stats` and `/metrics` agree. Scrape it with
//! [`SearchService::render_metrics`] (Prometheus text format; served as
//! `GET /metrics` by `koios-net`), and catch outliers with the structured
//! slow-query log ([`slowlog::SlowQueryLog`]): one JSON line per request
//! over a configurable latency threshold, through a pluggable sink.
//!
//! Every request also yields a **span tree** ([`tracer::Tracer`] over
//! [`koios_telemetry::trace`]): queue wait, cache probes, the executor
//! batch with per-shard spans, the refine/verify/merge stage breakdown,
//! and — for live mutations — epoch-stamped ingest/snapshot/reload spans.
//! A request's tree, its slow-log line, its outcome counters and its
//! response are all drawn from one per-request record, at the request's
//! one exit.
//! A fixed ring retains the interesting tail (timeouts, rejections, slow
//! and top-percentile requests, plus a deterministic sample), browsable
//! via [`SearchService::traces`] / `GET /traces`, with slow-log lines and
//! `/metrics` exemplars carrying the joinable `trace_id`.

pub mod metrics;
pub mod request;
pub mod service;
pub mod slowlog;
pub mod stats;
pub mod tracer;

pub use koios_common::cache::CacheCounters;
pub use koios_common::pool::Ticket;
pub use metrics::ServiceMetrics;
pub use request::{CacheKey, CacheOutcome, SearchRequest, ServiceResponse};
pub use service::{IngestOutcome, LiveServiceError, ResponseHandle, SearchService, ServiceConfig};
pub use slowlog::{SlowQueryLog, SlowQuerySink};
pub use stats::{EngineTotals, ServiceStats, SnapshotInfo};
pub use tracer::Tracer;
