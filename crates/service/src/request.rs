//! Service requests and responses.

use koios_common::fingerprint::Fingerprinter;
use koios_common::TokenId;
use koios_core::{KoiosConfig, SearchResult};
use koios_embed::repository::Repository;
use koios_telemetry::trace::TraceContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One top-k query submitted to the service.
///
/// Requests inherit the service engine's [`KoiosConfig`] and may override
/// the per-query knobs (`k`, `α`, time budget) without rebuilding any
/// index. Tokens need not be sorted or deduplicated — the service
/// normalizes them, so permutations and duplicates of the same query
/// fingerprint identically.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// Query tokens (see `Repository::intern_query`).
    pub tokens: Vec<TokenId>,
    /// Override of the engine's `k`.
    pub k: Option<usize>,
    /// Override of the engine's `α`.
    pub alpha: Option<f64>,
    /// Per-request deadline budget, measured from submission; covers queue
    /// time *and* search time. The service turns it into one absolute
    /// deadline at submission. There is no service-wide default: `None`
    /// runs the search unbounded.
    pub time_budget: Option<Duration>,
    /// Skip the result cache for this request (no lookup, no fill).
    pub bypass_cache: bool,
    /// Propagated trace context (parsed from a `traceparent`-style header
    /// by the HTTP front-end, or minted by an in-process caller). `None`
    /// lets the service mint its own trace id; the context's `sampled`
    /// flag force-retains the trace in the `GET /traces` ring.
    pub trace: Option<TraceContext>,
    /// EXPLAIN mode: the response's stats render as the per-stage funnel
    /// report ([`koios_core::SearchStats::funnel_json`]). Hits and counts
    /// are the same either way, so explain is deliberately *not* part of
    /// the cache key — but an explain request served from the cache carries
    /// no funnel (no engine work ran to count).
    pub explain: bool,
}

impl SearchRequest {
    /// A request for `tokens` with every knob inherited from the service.
    pub fn new(tokens: Vec<TokenId>) -> Self {
        SearchRequest {
            tokens,
            k: None,
            alpha: None,
            time_budget: None,
            bypass_cache: false,
            trace: None,
            explain: false,
        }
    }

    /// Overrides the number of results.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Overrides the similarity threshold `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Sets the request deadline budget.
    pub fn with_time_budget(self, budget: Duration) -> Self {
        SearchRequest {
            time_budget: Some(budget),
            ..self
        }
    }

    /// Disables the result cache for this request.
    pub fn bypassing_cache(mut self) -> Self {
        self.bypass_cache = true;
        self
    }

    /// Attaches a propagated trace context (the request's span tree is
    /// recorded under `ctx.trace_id`, rooted at `ctx.parent_span`).
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Enables EXPLAIN mode: the response carries the funnel report.
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }
}

/// The full cache key: normalized query plus every parameter a request
/// can change — `k` and `α` — and the corpus epoch. The filter settings
/// are not in it: a result cache lives as long as its service, whose
/// engine config (reloads included) keeps them fixed. Stored next to the
/// cached value so a fingerprint collision can never surface a wrong
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheKey {
    /// Sorted, deduplicated query tokens.
    pub tokens: Vec<TokenId>,
    /// Effective `k`.
    pub k: usize,
    /// Effective `α` (bit pattern — exact-value identity).
    pub alpha_bits: u64,
    /// Corpus epoch the answer was computed against. Part of the key so a
    /// result cached before a live mutation (or a snapshot reload) can
    /// never be served — or refilled by an in-flight search — after the
    /// backend was swapped for a newer corpus version.
    pub epoch: u64,
}

impl Eq for CacheKey {}

impl CacheKey {
    /// Builds the key for a normalized query under an effective config.
    pub fn new(normalized_tokens: Vec<TokenId>, cfg: &KoiosConfig) -> Self {
        CacheKey {
            tokens: normalized_tokens,
            k: cfg.k,
            alpha_bits: cfg.alpha.to_bits(),
            epoch: cfg.epoch,
        }
    }

    /// The stable 64-bit fingerprint of this key.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u32_ids(self.tokens.iter().map(|t| t.0));
        fp.write_usize(self.k);
        fp.write_u64(self.alpha_bits);
        fp.write_u64(self.epoch);
        fp.finish()
    }
}

/// How the cache participated in answering a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// The cache was probed without success. Executed requests searched
    /// (and, when complete, stored the result); a deadline-rejected
    /// request also reports `Miss`, since the probe runs before admission
    /// control.
    Miss,
    /// The cache was never consulted because the request opted out via
    /// [`SearchRequest::bypass_cache`].
    Bypassed,
    /// The cache was never consulted because the request was rejected
    /// before the probe (invalid parameter overrides) — reported truthfully
    /// instead of masquerading as [`CacheOutcome::Bypassed`], so
    /// per-outcome metrics never conflate deliberate bypasses with
    /// rejections.
    Rejected,
}

/// The service's answer to one [`SearchRequest`].
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The search result. For cache hits the hits are the cached ones and
    /// the stats are zeroed (no engine work happened). For rejected
    /// requests the hits are empty; deadline rejections additionally set
    /// `stats.timed_out` (invalid-parameter rejections do not, and report
    /// [`CacheOutcome::Rejected`]).
    pub result: SearchResult,
    /// Cache participation.
    pub cache: CacheOutcome,
    /// The request was refused without running: its deadline had already
    /// expired when a worker picked it up (admission control), or its
    /// parameter overrides were invalid.
    pub rejected: bool,
    /// Time between batch submission and a worker starting the request.
    pub queue_time: Duration,
    /// Id of the span tree this request recorded (`None` when the service
    /// runs without tracing). Resolve it via `GET /traces?id=…` — if the
    /// tail sampler retained the trace and the bounded ring has not
    /// evicted it since: a slow, timed-out, rejected or forced trace stays
    /// until `capacity` newer ones of those kinds have arrived.
    pub trace_id: Option<u64>,
    /// The repository of the backend this request was served from (the one
    /// the worker pinned, cache hits included): every [`SetId`] in `result`
    /// resolves against it, however many live mutations have swapped the
    /// service's backend since.
    ///
    /// [`SetId`]: koios_common::SetId
    pub repository: Arc<Repository>,
}

/// What one request did, as the decide half of the request lifecycle
/// leaves it: the answer plus every fact the diagnostics read. The tail
/// of the lifecycle draws all of them from this one record — the outcome
/// counters, the span tree ([`crate::Tracer`]), the slow-query line
/// ([`crate::SlowQueryLog`]) and the [`ServiceResponse`] — so the
/// surfaces cannot disagree about a request.
pub(crate) struct RequestRecord {
    /// The caller's propagated trace context, if any.
    pub trace: Option<TraceContext>,
    /// Submission instant: the span tree starts here, so the queue span
    /// begins at offset zero.
    pub submitted: Instant,
    /// Time between submission and a worker starting the request.
    pub queue: Duration,
    /// Fingerprint of the normalized cache key.
    pub fingerprint: u64,
    /// Effective `k`, `α` and corpus epoch (the backend the worker
    /// pinned, so a line stays attributable after later mutations).
    pub k: usize,
    pub alpha: f64,
    pub epoch: u64,
    pub cache: CacheOutcome,
    /// Start and duration of the result-cache probe (`None`: not probed).
    pub probe: Option<(Instant, Duration)>,
    /// Start and duration of the search (`None`: no search ran).
    pub search: Option<(Instant, Duration)>,
    pub rejected: bool,
    pub result: SearchResult,
    pub repository: Arc<Repository>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A searched miss over an empty repository, for the diagnostics tests.
    pub(crate) fn record() -> RequestRecord {
        let now = Instant::now();
        RequestRecord {
            trace: None,
            submitted: now,
            queue: Duration::from_nanos(100),
            fingerprint: 0xE6F2_8F54_69D3_412F,
            k: 5,
            alpha: 0.8,
            epoch: 7,
            cache: CacheOutcome::Miss,
            probe: Some((now, Duration::from_nanos(10))),
            search: Some((now, Duration::from_nanos(900))),
            rejected: false,
            result: SearchResult::default(),
            repository: Arc::new(koios_embed::repository::RepositoryBuilder::new().build()),
        }
    }

    fn key(tokens: Vec<u32>, cfg: &KoiosConfig) -> CacheKey {
        CacheKey::new(tokens.into_iter().map(TokenId).collect(), cfg)
    }

    #[test]
    fn fingerprint_is_parameter_sensitive() {
        let cfg = KoiosConfig::new(5, 0.8);
        let base = key(vec![1, 2, 3], &cfg).fingerprint();
        assert_eq!(base, key(vec![1, 2, 3], &cfg).fingerprint());
        assert_ne!(base, key(vec![1, 2, 4], &cfg).fingerprint());
        assert_ne!(
            base,
            key(vec![1, 2, 3], &KoiosConfig::new(6, 0.8)).fingerprint()
        );
        assert_ne!(
            base,
            key(vec![1, 2, 3], &KoiosConfig::new(5, 0.81)).fingerprint()
        );
        // A mutated corpus (new epoch) invalidates every earlier entry.
        let bumped = KoiosConfig::new(5, 0.8).with_epoch(1);
        assert_ne!(base, key(vec![1, 2, 3], &bumped).fingerprint());
    }

    #[test]
    fn request_builder_sets_fields() {
        let r = SearchRequest::new(vec![TokenId(1)])
            .with_k(3)
            .with_alpha(0.5)
            .with_time_budget(Duration::from_millis(10))
            .bypassing_cache()
            .with_explain(true);
        assert_eq!(r.k, Some(3));
        assert_eq!(r.alpha, Some(0.5));
        assert_eq!(r.time_budget, Some(Duration::from_millis(10)));
        assert!(r.bypass_cache);
        assert!(r.explain);
    }
}
