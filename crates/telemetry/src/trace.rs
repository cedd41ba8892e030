//! Request-scoped tracing: span trees, tail-based sampling, ring retention.
//!
//! PR 6's histograms answer *"how slow is the p99?"*; this module answers
//! *"which stage of which query was the p99?"*. Each request yields one
//! **span tree** — queue wait, cache probes, executor batch, per-shard
//! search, refine/verify/merge, serialize — assembled in a
//! [`TraceBuilder`] by the thread that answered the request, with **no
//! locks and one bounded allocation** (the span `Vec`, capped at
//! [`MAX_SPANS`]). The sealed tree is offered to the shared
//! [`TraceSink`], and only traces the sampling policy retains ever touch
//! the sink's ring-buffer mutex.
//!
//! **Tail-based sampling** ([`SamplingPolicy`]): the keep/drop decision is
//! made *after* the request finishes, when its fate is known. Every trace
//! that timed out, was rejected, crossed the slow-log threshold, or lands
//! in the top-p% by duration is retained; the ordinary rest are sampled
//! with a deterministic per-trace-id coin (seeded splitmix, no RNG state),
//! so two runs over the same trace ids retain the same set. The ring
//! buffer evicts unprivileged (probability-sampled) traces first, so the
//! interesting tail survives bursts of healthy traffic.
//!
//! Trace and span ids are minted from the PR 1 fingerprint machinery
//! ([`koios_common::fingerprint`]); trace context crosses process
//! boundaries in a W3C `traceparent`-style header ([`TraceContext`]), so a
//! remote client's id shows up in the server's tree.

use koios_common::fingerprint::{hex, mix64, Fingerprinter};
use koios_common::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::Histogram;

/// Hard cap on spans retained per trace (bounded allocation). A 64-shard
/// partitioned query plus every stage span fits comfortably; anything past
/// the cap increments [`Trace::dropped_spans`] instead of growing the tree.
pub const MAX_SPANS: usize = 96;

/// Mints a non-zero 64-bit id from two words via the fingerprint mixer.
/// Zero is reserved as "no id" in wire formats, so it is remapped.
pub fn mint_id(a: u64, b: u64) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u64(a);
    fp.write_u64(b);
    let id = fp.finish();
    if id == 0 {
        1
    } else {
        id
    }
}

/// Propagated trace context: the tuple a `traceparent`-style header
/// carries across the wire. `parent_span` is the caller's span id — the
/// server's root span links to it so cross-process trees stitch together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id (non-zero).
    pub trace_id: u64,
    /// Caller's span id (zero when the caller has no span of its own).
    pub parent_span: u64,
    /// W3C "sampled" flag: the caller asks for this trace to be retained
    /// regardless of the tail-sampling coin.
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh root context around `trace_id`, flagged sampled: the caller
    /// minting an explicit id wants to look the trace up afterwards.
    pub fn new(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: mint_id(trace_id, u64::MAX),
            sampled: true,
        }
    }

    /// Renders the W3C `traceparent` header value
    /// (`00-<32 hex trace>-<16 hex span>-<2 hex flags>`). Koios ids are 64
    /// bits, so the trace-id field is zero-extended to 128.
    pub fn render_traceparent(&self) -> String {
        let flags = if self.sampled { 1 } else { 0 };
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id, self.parent_span, flags
        )
    }

    /// Parses a `traceparent` header value. The 128-bit trace-id field is
    /// folded to 64 bits (high ^ low), which is the identity for headers
    /// this stack rendered itself. Returns `None` for malformed input or
    /// an all-zero trace id (invalid per the W3C spec).
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let span = parts.next()?;
        let flags = parts.next()?;
        if version.len() != 2 || trace.len() != 32 || span.len() != 16 || flags.len() != 2 {
            return None;
        }
        let hi = u64::from_str_radix(&trace[..16], 16).ok()?;
        let lo = u64::from_str_radix(&trace[16..], 16).ok()?;
        let trace_id = hi ^ lo;
        if trace_id == 0 {
            return None;
        }
        let parent_span = u64::from_str_radix(span, 16).ok()?;
        let flags = u8::from_str_radix(flags, 16).ok()?;
        Some(TraceContext {
            trace_id,
            parent_span,
            sampled: flags & 1 == 1,
        })
    }
}

/// One recorded span: a node of a request's tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (non-zero, unique within the trace).
    pub id: u64,
    /// Parent span id; for the root span this is the *remote* caller's
    /// span id (or zero when the trace originated in this process).
    pub parent: u64,
    /// Stage name (`"queue"`, `"shard"`, `"refine"`, …).
    pub name: &'static str,
    /// Shard index for per-shard search spans.
    pub shard: Option<u32>,
    /// Cache outcome tag (`"hit"`, `"miss"`, …) for cache-probe spans.
    pub cache: Option<&'static str>,
    /// Corpus epoch observed by this span (0 = not stamped).
    pub epoch: u64,
    /// Monotonic start offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

/// Why the sink retained a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainReason {
    /// Caller set the `sampled` flag (explicit trace context) or the span
    /// source force-retains (mutation traces).
    Forced,
    /// The request's deadline expired.
    TimedOut,
    /// Admission control or validation rejected the request.
    Rejected,
    /// Total duration crossed the slow-log threshold.
    Slow,
    /// Landed in the top-p% of completed-trace durations.
    TopPercent,
    /// Won the deterministic probability coin.
    Sampled,
}

impl RetainReason {
    /// Stable lower-case label for wire formats.
    pub fn as_str(self) -> &'static str {
        match self {
            RetainReason::Forced => "forced",
            RetainReason::TimedOut => "timeout",
            RetainReason::Rejected => "rejected",
            RetainReason::Slow => "slow",
            RetainReason::TopPercent => "top_p",
            RetainReason::Sampled => "sampled",
        }
    }

    /// Privileged traces are never evicted ahead of probability-sampled
    /// ones when the ring wraps.
    fn privileged(self) -> bool {
        !matches!(self, RetainReason::Sampled)
    }
}

/// A finished, retained trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Trace id (non-zero).
    pub trace_id: u64,
    /// Root span id (`spans[0].id`).
    pub root: u64,
    /// Spans in recording order; `spans[0]` is the root.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded past [`MAX_SPANS`].
    pub dropped_spans: u64,
    /// End-to-end duration.
    pub duration_ns: u64,
    /// The request's deadline expired.
    pub timed_out: bool,
    /// The request was rejected (admission control / validation).
    pub rejected: bool,
    /// Crossed the slow-log threshold.
    pub slow: bool,
    /// Caller requested retention (explicit context / mutation trace).
    pub forced: bool,
    /// Why the sink kept this trace.
    pub reason: RetainReason,
    /// Completion sequence number (sink-assigned, monotone).
    pub seq: u64,
    /// When the trace started (in-process only; not serialized).
    pub started: Instant,
    /// EXPLAIN funnel summary (`stage=count …`), when the request ran with
    /// funnel accounting — a retained slow trace then answers "where did
    /// the candidates go" on its own.
    pub funnel: Option<String>,
}

impl Trace {
    /// Maximum parent-chain depth of the tree (root = 1). Walks at most
    /// `spans.len()` links per span, so malformed input cannot loop.
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        for span in &self.spans {
            let mut d = 1usize;
            let mut parent = span.parent;
            let mut hops = 0usize;
            while parent != 0 && hops < self.spans.len() {
                match self.spans.iter().find(|s| s.id == parent) {
                    Some(p) => {
                        d += 1;
                        parent = p.parent;
                    }
                    None => break, // remote parent (root links off-process)
                }
                hops += 1;
            }
            max = max.max(d);
        }
        max
    }

    /// Every span's parent resolves within the trace (the root may link to
    /// a remote parent) and parent chains terminate (no cycles).
    pub fn well_formed(&self) -> bool {
        if self.spans.is_empty() || self.spans[0].id != self.root {
            return false;
        }
        for (i, span) in self.spans.iter().enumerate() {
            if span.id == 0 {
                return false;
            }
            if i == 0 {
                continue; // root's parent is the remote caller (or zero)
            }
            // Non-root parents must exist in-trace…
            if !self.spans.iter().any(|s| s.id == span.parent) {
                return false;
            }
            // …and chains must reach the root without cycling.
            let mut parent = span.parent;
            let mut hops = 0usize;
            while parent != 0 {
                if hops > self.spans.len() {
                    return false; // cycle
                }
                if parent == self.root {
                    break;
                }
                match self.spans.iter().find(|s| s.id == parent) {
                    Some(p) => parent = p.parent,
                    None => return false,
                }
                hops += 1;
            }
        }
        true
    }
}

/// One span tree under construction, owned by the thread that assembles
/// it: recording a span is a bounds-checked `Vec::push`, no atomics, no
/// locks. Span ids are minted deterministically from the trace id and a
/// per-trace sequence via [`mint_id`].
#[derive(Debug)]
pub struct TraceBuilder {
    trace_id: u64,
    root: u64,
    forced: bool,
    started: Instant,
    spans: Vec<SpanRecord>,
    next_seq: u64,
    dropped: u64,
    funnel: Option<String>,
}

impl TraceBuilder {
    /// Starts a trace. `ctx` carries a remote caller's id and sampled flag;
    /// without one, `trace_id` must be a freshly minted non-zero id.
    pub fn new(trace_id: u64, remote_parent: u64, forced: bool, started: Instant) -> Self {
        let mut tb = TraceBuilder {
            trace_id,
            root: 0,
            forced,
            started,
            spans: Vec::with_capacity(16),
            next_seq: 0,
            dropped: 0,
            funnel: None,
        };
        let root = tb.mint_span();
        tb.root = root;
        tb.spans.push(SpanRecord {
            id: root,
            parent: remote_parent,
            name: "request",
            shard: None,
            cache: None,
            epoch: 0,
            start_ns: 0,
            duration_ns: 0,
        });
        tb
    }

    fn mint_span(&mut self) -> u64 {
        self.next_seq += 1;
        mint_id(self.trace_id, mix64(self.next_seq))
    }

    /// The root span's id (parent for top-level stage spans).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Records a plain stage span; returns its id (0 if the cap dropped it).
    pub fn add(&mut self, name: &'static str, parent: u64, start_ns: u64, duration_ns: u64) -> u64 {
        self.add_detail(name, parent, start_ns, duration_ns, None, None, 0)
    }

    /// Records a span with shard / cache-outcome / epoch annotations.
    #[allow(clippy::too_many_arguments)]
    pub fn add_detail(
        &mut self,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        duration_ns: u64,
        shard: Option<u32>,
        cache: Option<&'static str>,
        epoch: u64,
    ) -> u64 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = self.mint_span();
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            shard,
            cache,
            epoch,
            start_ns,
            duration_ns,
        });
        id
    }

    /// Stamps the corpus epoch on the root span.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.spans[0].epoch = epoch;
    }

    /// Attaches the EXPLAIN funnel summary to the trace.
    pub fn set_funnel(&mut self, summary: String) {
        self.funnel = Some(summary);
    }

    /// Seals the tree into a [`Trace`] carrying its outcome flags. The
    /// root span's duration becomes `duration`.
    pub fn finish(mut self, duration: Duration, timed_out: bool, rejected: bool) -> Trace {
        let duration_ns = duration.as_nanos() as u64;
        self.spans[0].duration_ns = duration_ns;
        Trace {
            trace_id: self.trace_id,
            root: self.root,
            spans: self.spans,
            dropped_spans: self.dropped,
            duration_ns,
            timed_out,
            rejected,
            slow: false, // stamped by the sink against its threshold
            forced: self.forced,
            reason: RetainReason::Sampled,
            seq: 0,
            started: self.started,
            funnel: self.funnel,
        }
    }
}

/// Tail-based sampling policy: which finished traces the sink retains.
#[derive(Debug, Clone)]
pub struct SamplingPolicy {
    /// Probability of keeping an ordinary (non-privileged) trace. The coin
    /// is a deterministic hash of `seed ^ trace_id` — no RNG state, same
    /// decisions on every run over the same ids.
    pub probability: f64,
    /// Retain traces in the top-p% of completed-trace durations (estimated
    /// from a log2 histogram of everything offered so far).
    pub top_percent: f64,
    /// Seed for the sampling coin.
    pub seed: u64,
    /// Retain everything at or over this duration (the slow-log
    /// threshold), independent of the coin.
    pub slow_threshold: Option<Duration>,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            probability: 0.05,
            top_percent: 5.0,
            seed: 0x5EED_0F0C_1005,
            slow_threshold: None,
        }
    }
}

impl SamplingPolicy {
    /// Deterministic per-trace coin: true with ~`probability`.
    pub fn coin(&self, trace_id: u64) -> bool {
        let h = mix64(self.seed ^ trace_id);
        // 53 high-quality bits → uniform in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.probability
    }
}

/// Tracing configuration carried by the service config.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity (retained traces).
    pub capacity: usize,
    /// Tail-sampling policy.
    pub policy: SamplingPolicy,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 256,
            policy: SamplingPolicy::default(),
        }
    }
}

/// Counters describing a sink's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSinkStats {
    /// Traces offered (completed requests).
    pub completed: u64,
    /// Traces retained by any rule.
    pub retained: u64,
    /// Retained via the probability coin only.
    pub sampled: u64,
    /// Ring capacity.
    pub capacity: usize,
    /// Traces currently stored.
    pub stored: usize,
}

/// Fixed-size ring buffer of retained traces with tail-based sampling.
///
/// `offer` is the only completion-path entry point: counters and the
/// duration histogram are lock-free; the ring mutex is taken only for
/// traces that pass the retention rules (a dropped trace never locks).
#[derive(Debug)]
pub struct TraceSink {
    capacity: usize,
    policy: SamplingPolicy,
    durations: Histogram,
    completed: AtomicU64,
    retained: AtomicU64,
    sampled: AtomicU64,
    seq: AtomicU64,
    ring: Mutex<VecDeque<Trace>>,
}

impl TraceSink {
    /// An empty sink retaining at most `capacity` traces.
    pub fn new(capacity: usize, policy: SamplingPolicy) -> Self {
        TraceSink {
            capacity: capacity.max(1),
            policy,
            durations: Histogram::new(),
            completed: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The sampling policy.
    pub fn policy(&self) -> &SamplingPolicy {
        &self.policy
    }

    /// Decides a finished trace's fate. Returns the retention reason, or
    /// `None` when the trace was dropped.
    pub fn offer(&self, mut trace: Trace) -> Option<RetainReason> {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.durations.record(trace.duration_ns);
        if let Some(t) = self.policy.slow_threshold {
            trace.slow = trace.duration_ns >= t.as_nanos() as u64;
        }
        let reason = if trace.forced {
            RetainReason::Forced
        } else if trace.timed_out {
            RetainReason::TimedOut
        } else if trace.rejected {
            RetainReason::Rejected
        } else if trace.slow {
            RetainReason::Slow
        } else if self.in_top_percent(trace.duration_ns) {
            RetainReason::TopPercent
        } else if self.policy.coin(trace.trace_id) {
            self.sampled.fetch_add(1, Ordering::Relaxed);
            RetainReason::Sampled
        } else {
            return None;
        };
        trace.reason = reason;
        trace.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.retained.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            // Evict the oldest probability-sampled trace first; privileged
            // traces (timeout/rejected/slow/forced/top-p) only make room
            // for each other, oldest first.
            match ring.iter().position(|t| !t.reason.privileged()) {
                Some(i) => {
                    ring.remove(i);
                }
                None => {
                    ring.pop_front();
                }
            }
        }
        ring.push_back(trace);
        Some(reason)
    }

    fn in_top_percent(&self, duration_ns: u64) -> bool {
        if self.policy.top_percent <= 0.0 {
            return false;
        }
        let snap = self.durations.snapshot();
        if snap.count() < 20 {
            // Too few observations to call anything "the top p%".
            return false;
        }
        let q = 1.0 - (self.policy.top_percent / 100.0).clamp(0.0, 1.0);
        duration_ns as f64 >= snap.quantile_ns(q)
    }

    /// Looks up a retained trace by id (newest match wins).
    pub fn get(&self, trace_id: u64) -> Option<Trace> {
        let ring = self.ring.lock().unwrap();
        ring.iter().rev().find(|t| t.trace_id == trace_id).cloned()
    }

    /// All retained traces, newest first.
    pub fn list(&self) -> Vec<Trace> {
        let ring = self.ring.lock().unwrap();
        ring.iter().rev().cloned().collect()
    }

    /// The slowest retained trace.
    pub fn slowest(&self) -> Option<Trace> {
        let ring = self.ring.lock().unwrap();
        ring.iter().max_by_key(|t| t.duration_ns).cloned()
    }

    /// Appends a late span (e.g. response serialization, measured after
    /// the worker sealed the tree) to a retained trace. The span becomes a
    /// child of the root; the trace's duration extends to cover it. No-op
    /// when the trace was not retained.
    pub fn append_span(
        &self,
        trace_id: u64,
        name: &'static str,
        start: Instant,
        duration: Duration,
    ) -> bool {
        let mut ring = self.ring.lock().unwrap();
        let Some(trace) = ring.iter_mut().rev().find(|t| t.trace_id == trace_id) else {
            return false;
        };
        if trace.spans.len() >= MAX_SPANS {
            trace.dropped_spans += 1;
            return false;
        }
        let start_ns = start.saturating_duration_since(trace.started).as_nanos() as u64;
        let duration_ns = duration.as_nanos() as u64;
        let seq = trace.spans.len() as u64 + trace.dropped_spans + 1;
        trace.spans.push(SpanRecord {
            id: mint_id(trace_id, mix64(seq)),
            parent: trace.root,
            name,
            shard: None,
            cache: None,
            epoch: 0,
            start_ns,
            duration_ns,
        });
        trace.duration_ns = trace.duration_ns.max(start_ns + duration_ns);
        true
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TraceSinkStats {
        TraceSinkStats {
            completed: self.completed.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
            capacity: self.capacity,
            stored: self.ring.lock().unwrap().len(),
        }
    }
}

/// Serializes one span for the `GET /traces` wire format.
pub fn span_to_json(span: &SpanRecord) -> Json {
    let mut fields = vec![
        ("id", Json::str(hex(span.id))),
        (
            "parent",
            if span.parent == 0 {
                Json::Null
            } else {
                Json::str(hex(span.parent))
            },
        ),
        ("name", Json::str(span.name)),
    ];
    if let Some(shard) = span.shard {
        fields.push(("shard", Json::num(shard as f64)));
    }
    if let Some(cache) = span.cache {
        fields.push(("cache", Json::str(cache)));
    }
    if span.epoch != 0 {
        fields.push(("epoch", Json::num(span.epoch as f64)));
    }
    fields.push(("start_ns", Json::num(span.start_ns as f64)));
    fields.push(("duration_ns", Json::num(span.duration_ns as f64)));
    Json::obj(fields)
}

/// Serializes a full trace (span tree + outcome flags) for `GET /traces`.
pub fn trace_to_json(trace: &Trace) -> Json {
    let mut fields = vec![
        ("trace_id", Json::str(hex(trace.trace_id))),
        ("root", Json::str(hex(trace.root))),
        ("duration_ns", Json::num(trace.duration_ns as f64)),
        ("depth", Json::num(trace.depth() as f64)),
        ("timed_out", Json::Bool(trace.timed_out)),
        ("rejected", Json::Bool(trace.rejected)),
        ("slow", Json::Bool(trace.slow)),
        ("reason", Json::str(trace.reason.as_str())),
        ("dropped_spans", Json::num(trace.dropped_spans as f64)),
    ];
    if let Some(f) = &trace.funnel {
        fields.push(("funnel", Json::str(f.clone())));
    }
    fields.push((
        "spans",
        Json::arr(trace.spans.iter().map(span_to_json).collect::<Vec<_>>()),
    ));
    Json::obj(fields)
}

/// Serializes a one-line summary (no spans) for the `GET /traces` list.
pub fn trace_summary_json(trace: &Trace) -> Json {
    Json::obj([
        ("trace_id", Json::str(hex(trace.trace_id))),
        ("duration_ns", Json::num(trace.duration_ns as f64)),
        ("spans", Json::num(trace.spans.len() as f64)),
        ("depth", Json::num(trace.depth() as f64)),
        ("timed_out", Json::Bool(trace.timed_out)),
        ("rejected", Json::Bool(trace.rejected)),
        ("slow", Json::Bool(trace.slow)),
        ("reason", Json::str(trace.reason.as_str())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(trace_id: u64, duration_ms: u64) -> Trace {
        let mut tb = TraceBuilder::new(trace_id, 0, false, Instant::now());
        let root = tb.root();
        tb.add("queue", root, 0, 1_000);
        tb.finish(Duration::from_millis(duration_ms), false, false)
    }

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext::new(0xDEAD_BEEF_1234_5678);
        let header = ctx.render_traceparent();
        assert_eq!(header.len(), 55);
        let parsed = TraceContext::parse_traceparent(&header).unwrap();
        assert_eq!(parsed, ctx);
    }

    #[test]
    fn traceparent_rejects_malformed() {
        assert!(TraceContext::parse_traceparent("").is_none());
        assert!(TraceContext::parse_traceparent("00-zz-ff-01").is_none());
        // All-zero trace id is invalid.
        let zero = format!("00-{:032x}-{:016x}-01", 0, 7);
        assert!(TraceContext::parse_traceparent(&zero).is_none());
    }

    #[test]
    fn builder_caps_spans() {
        let mut tb = TraceBuilder::new(42, 0, false, Instant::now());
        let root = tb.root();
        for _ in 0..(MAX_SPANS * 2) {
            tb.add("stage", root, 0, 1);
        }
        let t = tb.finish(Duration::from_millis(1), false, false);
        assert_eq!(t.spans.len(), MAX_SPANS);
        assert!(t.dropped_spans > 0);
        assert!(t.well_formed());
    }

    #[test]
    fn sampling_is_deterministic_under_a_seed() {
        let policy = SamplingPolicy {
            probability: 0.25,
            top_percent: 0.0,
            seed: 99,
            slow_threshold: None,
        };
        let a = TraceSink::new(1024, policy.clone());
        let b = TraceSink::new(1024, policy);
        let mut kept_a = Vec::new();
        let mut kept_b = Vec::new();
        for id in 1..=400u64 {
            let t = build(mint_id(id, 7), 1);
            let tid = t.trace_id;
            if a.offer(t.clone()).is_some() {
                kept_a.push(tid);
            }
            if b.offer(t).is_some() {
                kept_b.push(tid);
            }
        }
        assert_eq!(kept_a, kept_b);
        // ~25% of 400, with generous slack for the hash's variance.
        assert!(kept_a.len() > 40 && kept_a.len() < 200, "{}", kept_a.len());
        // A different seed flips some decisions.
        let other = TraceSink::new(
            1024,
            SamplingPolicy {
                probability: 0.25,
                top_percent: 0.0,
                seed: 100,
                slow_threshold: None,
            },
        );
        let mut kept_other = Vec::new();
        for id in 1..=400u64 {
            let t = build(mint_id(id, 7), 1);
            let tid = t.trace_id;
            if other.offer(t).is_some() {
                kept_other.push(tid);
            }
        }
        assert_ne!(kept_a, kept_other);
    }

    #[test]
    fn ring_eviction_keeps_timed_out_traces() {
        let sink = TraceSink::new(
            8,
            SamplingPolicy {
                probability: 1.0, // retain everything, force wraparound
                top_percent: 0.0,
                seed: 1,
                slow_threshold: None,
            },
        );
        let mut timed_out_ids = Vec::new();
        for i in 1..=40u64 {
            let mut t = build(mint_id(i, 3), 1);
            if i % 10 == 0 {
                t.timed_out = true;
                timed_out_ids.push(t.trace_id);
            }
            assert!(sink.offer(t).is_some());
        }
        // 4 timed-out traces among 40 offered into capacity 8: every one
        // must survive; sampled traces absorb all the eviction.
        for id in &timed_out_ids {
            let got = sink.get(*id).expect("timed-out trace evicted");
            assert!(got.timed_out);
            assert_eq!(got.reason, RetainReason::TimedOut);
        }
        assert_eq!(sink.stats().stored, 8);
    }

    #[test]
    fn slow_threshold_and_forced_retention() {
        let sink = TraceSink::new(
            16,
            SamplingPolicy {
                probability: 0.0,
                top_percent: 0.0,
                seed: 5,
                slow_threshold: Some(Duration::from_millis(50)),
            },
        );
        // Fast, unforced: dropped.
        assert!(sink.offer(build(11, 1)).is_none());
        // Slow: kept.
        assert_eq!(sink.offer(build(12, 60)), Some(RetainReason::Slow));
        // Forced (explicit context): kept even when fast.
        let mut forced = build(13, 1);
        forced.forced = true;
        assert_eq!(sink.offer(forced), Some(RetainReason::Forced));
        let stats = sink.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.retained, 2);
        assert_eq!(stats.sampled, 0);
    }

    #[test]
    fn append_span_extends_a_retained_trace() {
        let sink = TraceSink::new(
            4,
            SamplingPolicy {
                probability: 1.0,
                top_percent: 0.0,
                seed: 2,
                slow_threshold: None,
            },
        );
        let t = build(77, 1);
        let started = t.started;
        sink.offer(t).unwrap();
        assert!(sink.append_span(
            77,
            "serialize",
            started + Duration::from_millis(2),
            Duration::from_micros(300),
        ));
        let got = sink.get(77).unwrap();
        let ser = got.spans.iter().find(|s| s.name == "serialize").unwrap();
        assert_eq!(ser.parent, got.root);
        assert!(got.well_formed());
        assert!(got.duration_ns >= 2_000_000);
        // Unknown trace: no-op.
        assert!(!sink.append_span(78, "serialize", started, Duration::ZERO));
    }

    #[test]
    fn json_rendering_includes_tree_fields() {
        let mut tb = TraceBuilder::new(9, 5, true, Instant::now());
        let root = tb.root();
        let search = tb.add("search", root, 10, 100);
        tb.add_detail("shard", search, 12, 40, Some(3), None, 0);
        tb.add_detail("cache.result", root, 2, 5, None, Some("miss"), 0);
        tb.set_epoch(4);
        let t = tb.finish(Duration::from_millis(1), false, false);
        assert!(t.well_formed());
        assert_eq!(t.depth(), 3);
        let json = trace_to_json(&t).encode();
        assert!(json.contains("\"trace_id\""));
        assert!(json.contains("\"shard\":3"));
        assert!(json.contains("\"cache\":\"miss\""));
        assert!(json.contains("\"epoch\":4"));
        let summary = trace_summary_json(&t).encode();
        assert!(summary.contains("\"depth\":3"));
    }
}
