//! Structured slow-query logging.
//!
//! Requests whose end-to-end latency (queue + search) crosses a
//! configurable threshold emit **one JSON line** through a pluggable sink:
//! the request fingerprint (the same hex form operators see in cache keys,
//! [`koios_common::fingerprint::hex`]), the effective `k`/`α`, the
//! per-stage nanosecond breakdown, the cache outcome, and — for
//! partitioned backends — the per-shard split. Every exit of the request
//! lifecycle is judged, rejections included: the line is drawn from the
//! same per-request record as the response and the span tree, and its
//! `trace_id`/`trace_depth` from that tree. Nothing is rendered, and the
//! tree's depth is not walked, until a query actually crosses the
//! threshold.
//!
//! Sinks are plain `Fn(&str)` closures behind an `Arc`, so tests collect
//! into a `Mutex<Vec<String>>`, servers append to a file
//! ([`SlowQueryLog::to_file`]), and CI ships the file as an artifact.

use crate::request::{CacheOutcome, RequestRecord};
use koios_common::fingerprint;
use koios_telemetry::trace::Trace;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where slow-query lines go. Called once per offending query with one
/// complete JSON line (no trailing newline).
pub type SlowQuerySink = Arc<dyn Fn(&str) + Send + Sync>;

/// Threshold + sink pair installed via
/// [`crate::ServiceConfig::with_slow_query_log`].
#[derive(Clone)]
pub struct SlowQueryLog {
    threshold: Duration,
    sink: SlowQuerySink,
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("threshold", &self.threshold)
            .field("sink", &"<fn>")
            .finish()
    }
}

impl SlowQueryLog {
    /// Logs queries slower than `threshold` through `sink`.
    pub fn new(threshold: Duration, sink: SlowQuerySink) -> Self {
        SlowQueryLog { threshold, sink }
    }

    /// Appends lines to the file at `path` (created if missing), fsync-free
    /// — the OS flushes; a crash loses at most the tail of a diagnostic
    /// log. Writes are serialized by an internal mutex.
    pub fn to_file(threshold: Duration, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let file = Mutex::new(file);
        Ok(Self::new(
            threshold,
            Arc::new(move |line| {
                let mut f = file.lock().expect("slow-query log file lock");
                let _ = writeln!(f, "{line}");
            }),
        ))
    }

    /// The configured latency threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Emits one line if the request's latency (queue + search) crosses
    /// the threshold. `trace` is the request's span tree (`None` when
    /// tracing is disabled).
    pub(crate) fn observe(&self, record: &RequestRecord, trace: Option<&Trace>) {
        let search = record.search.map_or(Duration::ZERO, |(_, took)| took);
        if record.queue + search >= self.threshold {
            (self.sink)(&render(record, search, trace));
        }
    }
}

/// One slow-query line. The stage breakdown is omitted for cache hits (no
/// engine work happened); a rejection reports its zeros and, for an
/// expired deadline, `"timed_out":true`.
fn render(record: &RequestRecord, search: Duration, trace: Option<&Trace>) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"fingerprint\":\"{}\",\"k\":{},\"alpha\":{},\"epoch\":{},\"total_ns\":{},\
         \"queue_ns\":{},\"search_ns\":{},\"cache\":\"{}\"",
        fingerprint::hex(record.fingerprint),
        record.k,
        record.alpha,
        record.epoch,
        (record.queue + search).as_nanos(),
        record.queue.as_nanos(),
        search.as_nanos(),
        match record.cache {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypassed => "bypassed",
            CacheOutcome::Rejected => "rejected",
        },
    );
    // Slow traces are retained by the tail sampler, so the id joins
    // against `GET /traces?id=…` until `capacity` newer privileged traces
    // have evicted it (see `ServiceConfig::tracing`); the depth tells a
    // full partitioned tree from a flat cache-hit trace before fetching it.
    if let Some(trace) = trace {
        let _ = write!(
            line,
            ",\"trace_id\":\"{}\",\"trace_depth\":{}",
            fingerprint::hex(trace.trace_id),
            trace.depth(),
        );
    }
    if record.cache != CacheOutcome::Hit {
        let stats = &record.result.stats;
        let _ = write!(
            line,
            ",\"refine_ns\":{},\"postprocess_ns\":{},\"verify_ns\":{},\"merge_ns\":{},\
             \"knn_cache_hits\":{},\"knn_cache_misses\":{},\"timed_out\":{}",
            stats.refine_time.as_nanos(),
            stats.postprocess_time.as_nanos(),
            stats.verify_time.as_nanos(),
            stats.merge_time.as_nanos(),
            stats.knn_cache.hits,
            stats.knn_cache.misses,
            stats.timed_out,
        );
        if !stats.shard_times.is_empty() {
            line.push_str(",\"shards_ns\":[");
            for (i, t) in stats.shard_times.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{}", t.as_nanos());
            }
            line.push(']');
        }
        // EXPLAIN requests attach the stage funnel, so a retained slow
        // line answers "where did the candidates go" without a rerun.
        if let Some(summary) = stats.funnel_summary() {
            let _ = write!(line, ",\"funnel\":\"{summary}\"");
        }
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::tests::record;
    use koios_core::SearchStats;
    use koios_telemetry::trace::TraceBuilder;
    use std::time::Instant;

    fn collecting() -> (SlowQuerySink, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let lines = Arc::clone(&lines);
            Arc::new(move |line: &str| lines.lock().unwrap().push(line.to_string()))
                as SlowQuerySink
        };
        (sink, lines)
    }

    /// A three-deep tree under trace id `0xABCD`.
    fn trace() -> Trace {
        let mut tb = TraceBuilder::new(0xABCD, 0, false, Instant::now());
        let search = tb.add("search", tb.root(), 0, 900);
        tb.add("refine", search, 0, 700);
        tb.finish(Duration::from_nanos(1000), false, false)
    }

    #[test]
    fn below_threshold_stays_silent() {
        let (sink, lines) = collecting();
        let log = SlowQueryLog::new(Duration::from_micros(10), sink);
        log.observe(&record(), Some(&trace()));
        assert!(lines.lock().unwrap().is_empty());
    }

    #[test]
    fn slow_queries_emit_one_json_line() {
        let (sink, lines) = collecting();
        let log = SlowQueryLog::new(Duration::from_nanos(1000), sink);
        let mut r = record();
        r.result.stats = SearchStats {
            refine_time: Duration::from_nanos(700),
            postprocess_time: Duration::from_nanos(200),
            verify_time: Duration::from_nanos(150),
            merge_time: Duration::from_nanos(50),
            shard_times: vec![Duration::from_nanos(300), Duration::from_nanos(400)],
            ..Default::default()
        };
        log.observe(&r, Some(&trace()));
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"fingerprint\":\"0xe6f28f5469d3412f\""));
        assert!(line.contains("\"epoch\":7"));
        assert!(line.contains("\"total_ns\":1000"));
        assert!(line.contains("\"refine_ns\":700"));
        assert!(line.contains("\"verify_ns\":150"));
        assert!(line.contains("\"shards_ns\":[300,400]"));
        assert!(line.contains("\"timed_out\":false"));
        assert!(line.contains("\"trace_id\":\"0x000000000000abcd\""));
        assert!(line.contains("\"trace_depth\":3"));
    }

    #[test]
    fn explain_stats_attach_the_funnel_summary() {
        let (sink, lines) = collecting();
        let log = SlowQueryLog::new(Duration::ZERO, sink);
        let mut r = record();
        r.result.stats.candidates = 4;
        // The counts alone do not attach a funnel; explain does.
        log.observe(&r, None);
        r.result.stats.funnel = Some(Box::new(koios_core::FunnelCounts {
            returned: 2,
            ..Default::default()
        }));
        log.observe(&r, None);
        let lines = lines.lock().unwrap();
        assert!(!lines[0].contains("\"funnel\""), "{}", lines[0]);
        let summary = r.result.stats.funnel_summary().unwrap();
        assert!(lines[1].contains(&format!("\"funnel\":\"{summary}\"")));
        assert!(lines[1].contains("\"funnel\":\"discovered=4"));
        assert!(lines[1].contains("returned=2\""));
    }

    #[test]
    fn untraced_services_omit_the_trace_fields() {
        let (sink, lines) = collecting();
        let log = SlowQueryLog::new(Duration::ZERO, sink);
        log.observe(&record(), None);
        assert!(!lines.lock().unwrap()[0].contains("trace_id"));
    }

    #[test]
    fn cache_hits_log_without_stage_breakdown() {
        let (sink, lines) = collecting();
        let log = SlowQueryLog::new(Duration::ZERO, sink);
        let mut r = record();
        r.cache = CacheOutcome::Hit;
        r.search = None;
        log.observe(&r, Some(&trace()));
        let lines = lines.lock().unwrap();
        assert!(lines[0].contains("\"cache\":\"hit\""));
        assert!(lines[0].contains("\"search_ns\":0"));
        assert!(!lines[0].contains("refine_ns"));
    }

    #[test]
    fn file_sink_appends_lines() {
        let dir = std::env::temp_dir().join("koios-slowlog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = SlowQueryLog::to_file(Duration::ZERO, &path).unwrap();
        log.observe(&record(), None);
        log.observe(&record(), None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
