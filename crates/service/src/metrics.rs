//! The service's metric surface: one [`Registry`] plus pre-resolved
//! handles for every hot-path instrument.
//!
//! Instrument handles are resolved once at service construction so the
//! request path never touches the registry lock — recording is a couple of
//! relaxed atomic adds ([`Histogram::record`]). Only histograms record on
//! the request path: every counter and gauge is a view of a value the
//! service already keeps, stored when it is read — at scrape time
//! ([`crate::SearchService::render_metrics`], also the only time the
//! registry is walked), or by the `/debug` route whose figures it mirrors.
//!
//! Naming follows Prometheus conventions (`_seconds`, `_total`), with the
//! paper's pipeline vocabulary in the `stage` label: `refine` (§V
//! streaming refinement), `verify` (exact-matching verification, Lemmas
//! 7/8), `postprocess` (the whole post-filter phase containing `verify`)
//! and `merge` (the partitioned merge loop, §VI).

use koios_telemetry::{Gauge, Histogram, Registry};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Pre-resolved instrument handles shared by the workers and the caches.
/// Cheap to record into from any thread.
pub struct ServiceMetrics {
    registry: Arc<Registry>,
    /// `koios_stage_seconds{stage="refine"}` — streaming refinement wall
    /// time per executed search.
    pub stage_refine: Arc<Histogram>,
    /// `koios_stage_seconds{stage="postprocess"}` — post-processing wall
    /// time per executed search (contains `verify`).
    pub stage_postprocess: Arc<Histogram>,
    /// `koios_stage_seconds{stage="verify"}` — exact-matching verification
    /// wall time per executed search.
    pub stage_verify: Arc<Histogram>,
    /// `koios_stage_seconds{stage="merge"}` — partitioned merge-loop wall
    /// time; only recorded for partitioned searches.
    pub stage_merge: Arc<Histogram>,
    /// `koios_request_seconds{phase="queue"}` — submission to worker
    /// pickup, per request. Also filed as `koios_queue_wait_seconds`: the
    /// service pool runs nothing but requests, so the two families are one
    /// histogram.
    pub request_queue: Arc<Histogram>,
    /// `koios_request_seconds{phase="search"}` — worker pickup to search
    /// completion, per executed search.
    pub request_search: Arc<Histogram>,
    /// `koios_request_seconds{phase="serialize"}` — response serialization
    /// (recorded by the HTTP front-end; empty under direct in-process use).
    pub request_serialize: Arc<Histogram>,
    /// `koios_request_seconds{phase="ingest"}` — wall time of one applied
    /// [`crate::SearchService::ingest`] batch (lock wait + apply + swap).
    pub request_ingest: Arc<Histogram>,
    /// `koios_request_seconds{phase="snapshot"}` — wall time of one
    /// [`crate::SearchService::snapshot_to`] (base write or delta append).
    pub request_snapshot: Arc<Histogram>,
    /// `koios_request_seconds{phase="reload"}` — wall time of one
    /// [`crate::SearchService::reload`] hot swap.
    pub request_reload: Arc<Histogram>,
    /// `koios_lock_wait_seconds{cache="result"}` — blocked time acquiring
    /// the result-cache mutex on the request path.
    pub lock_wait_result: Arc<Histogram>,
    /// `koios_lock_wait_seconds{cache="token"}` — blocked time acquiring
    /// the shared token-kNN-cache mutex (installed into the cache via
    /// [`koios_index::knn_cache::TokenKnnCache::install_lock_wait`]).
    pub lock_wait_token: Arc<Histogram>,
    /// `koios_uptime_seconds` — refreshed at scrape time.
    pub uptime: Arc<Gauge>,
    /// `koios_shard_seconds{shard="i"}` handles, grown lazily on first
    /// sight of shard `i` (partition counts are per-backend, not static).
    shards: Mutex<Vec<Arc<Histogram>>>,
}

impl ServiceMetrics {
    /// A fresh registry with every request-path instrument pre-registered.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let stage = |s: &str| {
            registry.histogram(
                "koios_stage_seconds",
                "Wall time of one pipeline stage per executed search",
                &[("stage", s)],
            )
        };
        let phase = |p: &str| {
            registry.histogram(
                "koios_request_seconds",
                "End-to-end request latency split by phase",
                &[("phase", p)],
            )
        };
        let lock = |c: &str| {
            registry.histogram(
                "koios_lock_wait_seconds",
                "Blocked time acquiring a shared cache mutex",
                &[("cache", c)],
            )
        };
        let request_queue = phase("queue");
        registry.register_histogram(
            "koios_queue_wait_seconds",
            "Pool queue wait (submit to dequeue) per job",
            &[],
            &request_queue,
        );
        ServiceMetrics {
            stage_refine: stage("refine"),
            stage_postprocess: stage("postprocess"),
            stage_verify: stage("verify"),
            stage_merge: stage("merge"),
            request_queue,
            request_search: phase("search"),
            request_serialize: phase("serialize"),
            request_ingest: phase("ingest"),
            request_snapshot: phase("snapshot"),
            request_reload: phase("reload"),
            lock_wait_result: lock("result"),
            lock_wait_token: lock("token"),
            uptime: registry.gauge(
                "koios_uptime_seconds",
                "Seconds since the service was constructed",
                &[],
            ),
            shards: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// The registry behind the handles (for scrape rendering and for
    /// instruments registered outside the hot path).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one search's per-shard wall times into
    /// `koios_shard_seconds{shard="i"}`, registering shard `i` on first
    /// sight: one lock acquisition per partitioned search, none for a
    /// single-engine one (which therefore never emits shard series).
    pub fn record_shards(&self, times: &[Duration]) {
        if times.is_empty() {
            return;
        }
        let mut shards = self.shards.lock().expect("shard metrics lock");
        while shards.len() < times.len() {
            let label = shards.len().to_string();
            shards.push(self.registry.histogram(
                "koios_shard_seconds",
                "Per-shard search wall time of partitioned searches",
                &[("shard", &label)],
            ));
        }
        for (shard, &t) in shards.iter().zip(times) {
            shard.record_duration(t);
        }
    }

    /// Every `koios_shard_seconds` histogram registered so far, by shard
    /// index.
    pub fn shards(&self) -> Vec<Arc<Histogram>> {
        self.shards.lock().expect("shard metrics lock").clone()
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceMetrics").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_land_in_one_registry() {
        let m = ServiceMetrics::new();
        m.stage_refine.record(1_000);
        m.request_queue.record(3_000);
        m.record_shards(&[Duration::ZERO, Duration::from_nanos(2_000)]);
        let text = m.registry().render_prometheus();
        assert!(text.contains("koios_stage_seconds_bucket{stage=\"refine\""));
        assert!(text.contains("koios_request_seconds_count{phase=\"queue\"} 1"));
        assert!(text.contains("koios_queue_wait_seconds_count 1"));
        assert!(text.contains(
            "# HELP koios_queue_wait_seconds Pool queue wait (submit to dequeue) per job"
        ));
        assert!(text.contains("koios_shard_seconds_bucket{shard=\"1\""));
        assert!(text.contains("koios_shard_seconds_count{shard=\"0\"} 1"));
    }

    #[test]
    fn shard_handles_are_stable() {
        let m = ServiceMetrics::new();
        m.record_shards(&[]);
        assert!(
            m.shards().is_empty(),
            "a single-engine search registers none"
        );
        m.record_shards(&[Duration::from_nanos(5); 3]);
        let first = m.shards();
        m.record_shards(&[Duration::from_nanos(5); 3]);
        let second = m.shards();
        assert_eq!(first.len(), 3);
        assert!(first.iter().zip(&second).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(second[2].snapshot().count(), 2, "same underlying histogram");
    }
}
