//! The service's metric surface: one [`Registry`] plus pre-resolved
//! handles for every hot-path instrument.
//!
//! Instrument handles are resolved once at service construction so the
//! request path never touches the registry lock — recording is a couple of
//! relaxed atomic adds ([`Histogram::record`]). The registry itself is only
//! walked at scrape time ([`crate::SearchService::render_metrics`]).
//!
//! Naming follows Prometheus conventions (`_seconds`, `_total`), with the
//! paper's pipeline vocabulary in the `stage` label: `refine` (§V
//! streaming refinement), `verify` (exact-matching verification, Lemmas
//! 7/8), `postprocess` (the whole post-filter phase containing `verify`)
//! and `merge` (the partitioned merge loop, §VI).

use koios_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, Mutex};

/// Pre-resolved instrument handles shared by the workers, the pool, and
/// the caches. Cheap to record into from any thread.
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
    /// pickup, per request.
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
    /// `koios_mutations_total{op="ingest"}` — successfully applied ingest
    /// batches.
    pub mutations_ingest: Arc<Counter>,
    /// `koios_mutations_total{op="snapshot"}` — successful snapshot writes.
    pub mutations_snapshot: Arc<Counter>,
    /// `koios_mutations_total{op="reload"}` — successful hot reloads.
    pub mutations_reload: Arc<Counter>,
    /// `koios_lock_wait_seconds{cache="result"}` — blocked time acquiring
    /// the result-cache mutex on the request path.
    pub lock_wait_result: Arc<Histogram>,
    /// `koios_lock_wait_seconds{cache="token"}` — blocked time acquiring
    /// the shared token-kNN-cache mutex (installed into the cache via
    /// [`koios_index::knn_cache::TokenKnnCache::install_lock_wait`]).
    pub lock_wait_token: Arc<Histogram>,
    /// `koios_queue_depth` — requests submitted but not yet picked up.
    pub queue_depth: Arc<Gauge>,
    /// `koios_queue_wait_seconds` — submit→dequeue wait per pool job.
    pub queue_wait: Arc<Histogram>,
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
        let mutation = |op: &str| {
            registry.counter(
                "koios_mutations_total",
                "Successful corpus mutations by operation",
                &[("op", op)],
            )
        };
        ServiceMetrics {
            stage_refine: stage("refine"),
            stage_postprocess: stage("postprocess"),
            stage_verify: stage("verify"),
            stage_merge: stage("merge"),
            request_queue: phase("queue"),
            request_search: phase("search"),
            request_serialize: phase("serialize"),
            request_ingest: phase("ingest"),
            request_snapshot: phase("snapshot"),
            request_reload: phase("reload"),
            mutations_ingest: mutation("ingest"),
            mutations_snapshot: mutation("snapshot"),
            mutations_reload: mutation("reload"),
            lock_wait_result: lock("result"),
            lock_wait_token: lock("token"),
            queue_depth: registry.gauge(
                "koios_queue_depth",
                "Requests submitted but not yet picked up by a worker",
                &[],
            ),
            queue_wait: registry.histogram(
                "koios_queue_wait_seconds",
                "Pool queue wait (submit to dequeue) per job",
                &[],
            ),
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

    /// The `koios_shard_seconds{shard="index"}` histogram, registering it
    /// on first use. Only called after partitioned searches, so a
    /// single-engine service never emits shard series.
    pub fn shard(&self, index: usize) -> Arc<Histogram> {
        let mut shards = self.shards.lock().expect("shard metrics lock");
        while shards.len() <= index {
            let label = shards.len().to_string();
            shards.push(self.registry.histogram(
                "koios_shard_seconds",
                "Per-shard search wall time of partitioned searches",
                &[("shard", &label)],
            ));
        }
        Arc::clone(&shards[index])
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
        m.queue_depth.set(3);
        m.shard(1).record(2_000); // registers shards 0 and 1
        let text = m.registry().render_prometheus();
        assert!(text.contains("koios_stage_seconds_bucket{stage=\"refine\""));
        assert!(text.contains("koios_queue_depth 3"));
        assert!(text.contains("koios_shard_seconds_bucket{shard=\"1\""));
        assert!(text.contains("koios_shard_seconds_count{shard=\"0\"} 0"));
    }

    #[test]
    fn shard_handles_are_stable() {
        let m = ServiceMetrics::new();
        let a = m.shard(2);
        let b = m.shard(2);
        a.record(5);
        assert_eq!(b.snapshot().count(), 1, "same underlying histogram");
    }
}
