//! Request-trace assembly for the service layer.
//!
//! The engine crates stay telemetry-free (the PR 6 rule): the service
//! translates what it already measures — queue wait, cache probes, the
//! [`SearchStats`] timing seams, mutation epochs — into the span trees of
//! [`koios_telemetry::trace`]. One [`Tracer`] per service owns the shared
//! [`TraceSink`]; each request builds its tree in a worker-owned
//! [`TraceBuilder`] (no locks on the hot path) and offers it to the sink
//! on completion, where tail-based sampling decides retention.

use koios_common::fingerprint::Fingerprinter;
use koios_core::SearchStats;
use koios_telemetry::trace::{
    mint_id, TraceBuilder, TraceConfig, TraceContext, TraceSink, TraceSinkStats,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Per-service trace recorder: mints trace ids, starts builders, and owns
/// the retention ring.
#[derive(Debug)]
pub struct Tracer {
    sink: Arc<TraceSink>,
    // Id seed: fingerprint of the construction wall clock, so two services
    // in one process (or across restarts) mint disjoint id streams.
    seed: u64,
    next: AtomicU64,
}

impl Tracer {
    /// Builds the recorder. `slow_threshold` (the slow-query-log
    /// threshold) becomes a retention rule: traces are kept as slow from
    /// the lower of it and the policy's own threshold, so every slow-log
    /// line stays joinable against `GET /traces`.
    pub fn new(mut cfg: TraceConfig, slow_threshold: Option<Duration>) -> Self {
        if let Some(t) = slow_threshold {
            cfg.policy.slow_threshold = Some(cfg.policy.slow_threshold.map_or(t, |p| p.min(t)));
        }
        let mut fp = Fingerprinter::new();
        let now = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap_or_default();
        fp.write_u64(now.as_nanos() as u64);
        fp.write_u64(cfg.policy.seed);
        Tracer {
            sink: Arc::new(TraceSink::new(cfg.capacity, cfg.policy)),
            seed: fp.finish(),
            next: AtomicU64::new(1),
        }
    }

    /// Mints a fresh non-zero trace id (fingerprint machinery: seed ×
    /// monotone sequence through the FNV/splitmix mixer).
    pub fn mint_trace_id(&self) -> u64 {
        mint_id(self.seed, self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a request trace at `started` (the submission instant, so the
    /// queue span begins at offset zero). A wire-propagated context keeps
    /// the remote caller's trace id and parent span; its `sampled` flag
    /// force-retains the trace.
    pub fn begin(&self, ctx: Option<TraceContext>, started: Instant) -> TraceBuilder {
        match ctx {
            Some(c) => TraceBuilder::new(c.trace_id, c.parent_span, c.sampled, started),
            None => TraceBuilder::new(self.mint_trace_id(), 0, false, started),
        }
    }

    /// Seals a request tree and offers it to the sink; returns the trace
    /// id for the response.
    pub fn finish(
        &self,
        builder: TraceBuilder,
        total: Duration,
        timed_out: bool,
        rejected: bool,
    ) -> u64 {
        let id = builder.trace_id();
        self.sink.offer(builder.finish(total, timed_out, rejected));
        id
    }

    /// Records a mutation (`ingest`/`snapshot`/`reload`) as a single-span
    /// trace stamped with the epoch it published. Mutations are rare and
    /// operationally interesting, so they are always retained (forced).
    pub fn record_mutation(
        &self,
        op: &'static str,
        epoch: u64,
        started: Instant,
        duration: Duration,
    ) -> u64 {
        let mut tb = TraceBuilder::new(self.mint_trace_id(), 0, true, started);
        let root = tb.root();
        tb.add_detail(op, root, 0, duration.as_nanos() as u64, None, None, epoch);
        tb.set_epoch(epoch);
        self.finish(tb, duration, false, false)
    }

    /// The retention ring (lookups, listing, late spans).
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Sink lifetime counters.
    pub fn stats(&self) -> TraceSinkStats {
        self.sink.stats()
    }
}

/// Synthesizes the search sub-tree of a request trace from the
/// [`SearchStats`] timing seams: an `executor` span covering the shard
/// batch (submission → last partial back), one `shard` span per
/// partition, the `refine`/`postprocess`/`verify`/`merge` stage spans, and
/// a `cache.token` span summarizing the shared kNN cache's outcome.
///
/// Stage *durations* are the engine's own measurements; stage *offsets*
/// are reconstructed (refine precedes post-processing in the single-engine
/// pipeline; partitioned stage times are parallel maxima across shards),
/// so overlapping spans within the search window are expected for
/// partitioned queries.
pub fn record_search_spans(
    tb: &mut TraceBuilder,
    stats: &SearchStats,
    start_ns: u64,
    search_ns: u64,
) {
    let root = tb.root();
    let search = tb.add_detail("search", root, start_ns, search_ns, None, None, stats.epoch);
    let parent = if search == 0 { root } else { search };

    let knn = &stats.knn_cache;
    if knn.hits + knn.misses > 0 {
        let outcome = if knn.misses == 0 {
            "hit"
        } else if knn.hits == 0 {
            "miss"
        } else {
            "mixed"
        };
        tb.add_detail("cache.token", parent, start_ns, 0, None, Some(outcome), 0);
    }

    if !stats.shard_times.is_empty() {
        let exec_ns = stats.executor_time.as_nanos() as u64;
        let exec = tb.add("executor", parent, start_ns, exec_ns);
        let exec_parent = if exec == 0 { parent } else { exec };
        for (i, t) in stats.shard_times.iter().enumerate() {
            tb.add_detail(
                "shard",
                exec_parent,
                start_ns,
                t.as_nanos() as u64,
                Some(i as u32),
                None,
                0,
            );
        }
    }

    let refine_ns = stats.refine_time.as_nanos() as u64;
    let post_ns = stats.postprocess_time.as_nanos() as u64;
    let verify_ns = stats.verify_time.as_nanos() as u64;
    let merge_ns = stats.merge_time.as_nanos() as u64;
    let mut cursor = start_ns;
    if refine_ns > 0 {
        tb.add("refine", parent, cursor, refine_ns);
        cursor += refine_ns;
    }
    if post_ns > 0 || verify_ns > 0 {
        let post = tb.add("postprocess", parent, cursor, post_ns);
        let post_parent = if post == 0 { parent } else { post };
        if verify_ns > 0 {
            tb.add("verify", post_parent, cursor, verify_ns);
        }
    }
    if merge_ns > 0 {
        let merge_start = (start_ns + search_ns).saturating_sub(merge_ns);
        tb.add("merge", parent, merge_start, merge_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_telemetry::trace::SamplingPolicy;

    fn tracer() -> Tracer {
        Tracer::new(
            TraceConfig {
                capacity: 32,
                policy: SamplingPolicy {
                    probability: 1.0,
                    top_percent: 0.0,
                    seed: 7,
                    slow_threshold: None,
                },
            },
            None,
        )
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let t = tracer();
        let a = t.mint_trace_id();
        let b = t.mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn search_spans_cover_the_partitioned_pipeline() {
        let t = tracer();
        let mut tb = t.begin(None, Instant::now());
        let root = tb.root();
        tb.add("queue", root, 0, 1_000);
        let stats = SearchStats {
            refine_time: Duration::from_millis(5),
            postprocess_time: Duration::from_millis(2),
            verify_time: Duration::from_millis(1),
            merge_time: Duration::from_millis(1),
            executor_time: Duration::from_millis(6),
            shard_times: vec![Duration::from_millis(6), Duration::from_millis(4)],
            epoch: 3,
            ..SearchStats::default()
        };
        record_search_spans(&mut tb, &stats, 1_000, 9_000_000);
        let id = t.finish(tb, Duration::from_millis(9), false, false);
        let trace = t.sink().get(id).expect("probability 1.0 retains");
        assert!(trace.well_formed());
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        for expect in [
            "request",
            "queue",
            "search",
            "executor",
            "shard",
            "refine",
            "postprocess",
            "verify",
            "merge",
        ] {
            assert!(names.contains(&expect), "missing span {expect}: {names:?}");
        }
        let shards: Vec<u32> = trace.spans.iter().filter_map(|s| s.shard).collect();
        assert_eq!(shards, vec![0, 1]);
        assert_eq!(
            trace
                .spans
                .iter()
                .find(|s| s.name == "search")
                .unwrap()
                .epoch,
            3
        );
    }

    #[test]
    fn mutation_traces_are_forced_and_epoch_stamped() {
        let t = tracer();
        let id = t.record_mutation("ingest", 9, Instant::now(), Duration::from_millis(2));
        let trace = t.sink().get(id).unwrap();
        assert!(trace.forced);
        assert_eq!(trace.spans[0].epoch, 9);
        assert_eq!(trace.spans[1].name, "ingest");
        assert_eq!(trace.spans[1].epoch, 9);
    }
}
