//! Service-level observability.

use koios_common::cache::CacheCounters;
use koios_index::knn_cache::KnnCacheSnapshot;
use std::time::{Duration, SystemTime};

/// Provenance of a backend restored from a `koios-store` snapshot
/// ([`crate::SearchService::from_snapshot`]): which file, how big, and how
/// long the warm start took — what an operator checks to confirm a restart
/// really skipped the rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The snapshot file the backend was restored from.
    pub path: String,
    /// The snapshot's format version.
    pub format_version: u32,
    /// Total snapshot size in bytes.
    pub bytes: u64,
    /// Partitions restored (1 for a single-index layout).
    pub partitions: usize,
    /// Sets in the restored repository.
    pub num_sets: usize,
    /// Vocabulary size of the restored repository.
    pub vocab_size: usize,
    /// Length of the snapshot's delta chain (0 for a plain base — see
    /// `koios_store::append_delta`). Each delta was replayed onto the base
    /// during the load.
    pub deltas: usize,
    /// Highest epoch recorded in the delta chain (0 for a plain base); the
    /// restored engine resumes its epoch count from here.
    pub latest_epoch: u64,
    /// Wall time of read + restore (file to query-ready backend).
    pub load_time: Duration,
}

/// The paper's funnel columns (Koios §VIII, Tables II–V) summed over every
/// search a [`crate::SearchService`] executed: each request's
/// [`koios_core::SearchStats`] adds its counts once, and
/// `cumulative_time` is the sum of the `refine`, `postprocess` and `merge`
/// `koios_stage_seconds` histograms — cumulative engine time across all
/// workers, not wall-clock time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineTotals {
    /// Distinct candidate sets discovered.
    pub candidates: u64,
    /// Exact matchings run to completion.
    pub em_full: u64,
    /// Sets certified into the top-k without exact matching (No-EM).
    pub no_em: u64,
    /// Tuples consumed from the token stream.
    pub stream_tuples: u64,
    /// Σ refinement + post-processing + merge wall time.
    pub cumulative_time: Duration,
}

/// Counters of a [`crate::SearchService`] since construction — a view,
/// not a second copy: each figure is read from the one place the service
/// keeps it. `cache_hits` and `cache` are the result LRU's own counters,
/// `searched` is the count of `koios_request_seconds{phase="search"}`,
/// and `engine.cumulative_time` the stage-histogram sums, so `GET /stats`
/// and `GET /metrics` agree by construction.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests received (including cache hits and rejections).
    pub queries: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Requests answered from the result cache (`cache.hits`).
    pub cache_hits: u64,
    /// Requests that ran a search (the `koios_request_seconds{phase=
    /// "search"}` count).
    pub searched: u64,
    /// Requests refused without running a search: their deadline had
    /// already expired at admission, or their parameter overrides were
    /// invalid. Deadline expiries are *also* counted in `timed_out`.
    pub rejected: u64,
    /// Requests that observed a deadline expiry — rejected at admission
    /// (also in `rejected`) or expired mid-search (partial results, not
    /// cached). Always agrees with the number of responses whose
    /// `result.stats.timed_out` is set, so callers and operators see the
    /// same count.
    pub timed_out: u64,
    /// Number of index partitions the backend searches (1 for a single
    /// engine; see [`koios_core::EngineBackend`]).
    pub partitions: usize,
    /// Result-cache behaviour (hits/misses/evictions/invalidations).
    pub cache: CacheCounters,
    /// Shared token-level kNN cache state and behaviour (`None` when the
    /// service runs with `token_cache_bytes == 0`): bytes held, entries,
    /// hits, evictions, generation. Element-level hit counts also appear
    /// per search in each response's `stats.knn_cache`.
    pub token_cache: Option<KnnCacheSnapshot>,
    /// Provenance of the snapshot the backend was warm-started from
    /// (`None` when the service was built from live structures). Updated
    /// by [`crate::SearchService::reload`].
    pub snapshot: Option<SnapshotInfo>,
    /// Epoch of the currently served backend: 0 at construction, +1 per
    /// applied [`crate::SearchService::ingest`] batch, strictly increasing
    /// across [`crate::SearchService::reload`]. Every search response's
    /// `stats.epoch` reports the epoch of the backend that served it.
    pub engine_epoch: u64,
    /// Sets appended by live ingestion since construction.
    pub sets_added: u64,
    /// Sets tombstoned by live ingestion since construction.
    pub sets_removed: u64,
    /// Funnel counts and engine time summed over executed searches.
    pub engine: EngineTotals,
    /// Seconds since the service was constructed (monotone clock).
    pub uptime_secs: f64,
    /// Wall-clock instant of service construction, for correlating
    /// restarts across machines (`UNIX_EPOCH` on a default snapshot).
    pub start_time: SystemTime,
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats {
            queries: 0,
            batches: 0,
            cache_hits: 0,
            searched: 0,
            rejected: 0,
            timed_out: 0,
            partitions: 0,
            cache: CacheCounters::default(),
            token_cache: None,
            snapshot: None,
            engine_epoch: 0,
            sets_added: 0,
            sets_removed: 0,
            engine: EngineTotals::default(),
            uptime_secs: 0.0,
            start_time: SystemTime::UNIX_EPOCH,
        }
    }
}

impl ServiceStats {
    /// Fraction of non-bypassing requests answered from the result cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Fraction of per-element kNN probes answered from the token cache
    /// (0 when the token cache is disabled or was never probed).
    pub fn token_cache_hit_rate(&self) -> f64 {
        self.token_cache
            .map(|tc| tc.counters.hit_rate())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = ServiceStats::default();
        assert_eq!(s.queries, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.engine.em_full, 0);
        assert_eq!(s.uptime_secs, 0.0);
        assert_eq!(s.start_time, SystemTime::UNIX_EPOCH);
    }
}
