//! Dependency-free metrics for the Koios workspace.
//!
//! The serving stack needs to *see* where a query's budget goes — queue
//! wait, per-stage engine time, lock contention on the shared caches — but
//! this environment cannot reach crates.io, so the usual `prometheus` /
//! `metrics` crates are out. This crate hand-rolls the minimal primitives
//! on `std::sync::atomic` alone:
//!
//! * [`Counter`] — a lock-free monotone `u64`, stored at scrape time from
//!   the total its owner already keeps.
//! * [`Gauge`] — a lock-free signed instantaneous value, set at scrape
//!   time (queue depth, uptime).
//! * [`Histogram`] — a fixed array of 65 `AtomicU64` buckets indexed by
//!   the bit width of the recorded nanosecond value (log2 buckets), plus
//!   atomic sum and max. Recording is wait-free; quantiles are estimated
//!   from a [`HistogramSnapshot`] by linear interpolation inside the
//!   target bucket, so any estimate is within 2× of the true value.
//! * [`Registry`] — named metric families with `label="value"` series
//!   (`stage`, `shard`, `route`, …), get-or-create handles shared as
//!   `Arc`, rendered to the Prometheus text exposition format by
//!   [`Registry::render_prometheus`] for a `GET /metrics` route. One
//!   histogram may be filed under two families
//!   ([`Registry::register_histogram`]).
//!
//! Time is always recorded in **nanoseconds** and rendered in **seconds**
//! (histogram families should be named `*_seconds` per Prometheus
//! convention).
//!
//! ```
//! use koios_telemetry::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let refine = registry.histogram(
//!     "koios_stage_seconds",
//!     "Wall-clock time per pipeline stage",
//!     &[("stage", "refine")],
//! );
//! refine.record_duration(Duration::from_micros(250));
//! refine.record_duration(Duration::from_millis(3));
//! let text = registry.render_prometheus();
//! assert!(text.contains("# TYPE koios_stage_seconds histogram"));
//! assert!(text.contains("koios_stage_seconds_bucket{stage=\"refine\",le=\"+Inf\"} 2"));
//! let p99 = refine.snapshot().quantile_ns(0.99);
//! assert!((1.5e6..=3e6).contains(&p99), "within 2x of the 3 ms sample");
//! ```

pub mod profile;
pub mod trace;

pub use profile::{Profile, SelfTime};
pub use trace::{
    RetainReason, SamplingPolicy, SpanRecord, Trace, TraceBuilder, TraceConfig, TraceContext,
    TraceSink, TraceSinkStats,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of log2 buckets: bucket `b` holds values whose bit width is `b`
/// (bucket 0 holds exactly the value 0, bucket 64 holds values with the
/// top bit set). Covers the full `u64` nanosecond range — ~584 years.
pub const NUM_BUCKETS: usize = 65;

/// A lock-free monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrites the total — for scrape-time synchronisation of a counter
    /// whose source of truth is maintained elsewhere (e.g. the cache
    /// hit/miss/eviction totals kept by `CacheCounters`). The caller is
    /// responsible for only ever storing monotone values.
    pub fn store(&self, total: u64) {
        self.value.store(total, Ordering::Relaxed);
    }
}

/// A lock-free instantaneous value (e.g. queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The log2 bucket of a nanosecond value: its bit width.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

/// The *inclusive* upper bound of bucket `b`, in nanoseconds
/// (`2^b - 1`; bucket 64 saturates at `u64::MAX`).
fn bucket_upper_ns(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// The inclusive lower bound of bucket `b`, in nanoseconds.
fn bucket_lower_ns(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// A wait-free histogram of nanosecond durations over fixed log2 buckets.
///
/// [`record`](Histogram::record) is a single `fetch_add` on the value's
/// bucket (plus sum/max updates) — cheap enough for per-request hot
/// paths. Reads go through [`snapshot`](Histogram::snapshot).
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum_ns", &s.sum_ns)
            .field("max_ns", &s.max_ns)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one nanosecond observation.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a [`Duration`] (saturating at `u64::MAX` ns).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the buckets (individually consistent;
    /// concurrent recording may race the aggregate fields by a sample,
    /// which is fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum.load(Ordering::Relaxed),
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`Histogram`].
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (index = bit width of the value).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("sum_ns", &self.sum_ns)
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds by
    /// locating the bucket of the target rank and interpolating linearly
    /// inside it. The estimate lands in the same log2 bucket as the true
    /// order statistic, so it is always within a factor of 2. Returns 0
    /// when empty; `q >= 1.0` returns the exact recorded maximum.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max_ns as f64;
        }
        // Rank of the target order statistic, 1-based.
        let rank = (q * n as f64).floor() as u64 + 1;
        let rank = rank.min(n);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lower_ns(b) as f64;
                let hi = (bucket_upper_ns(b) as f64).min(self.max_ns as f64).max(lo);
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / c as f64;
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        self.max_ns as f64
    }
}

/// Metric family kinds, matching the Prometheus `# TYPE` keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    kind: Kind,
    help: String,
    /// Rendered label set (`stage="refine"`) → instrument, sorted so the
    /// exposition output is deterministic.
    series: BTreeMap<String, Instrument>,
}

/// A registry of named metric families with labelled series.
///
/// Handles are get-or-create: the first call for a `(name, labels)` pair
/// creates the instrument, later calls return the same `Arc` — so the
/// instrumented code and the scraper share state through nothing but the
/// registry and a name. Instrument reads/writes are lock-free; the
/// registry mutex guards only creation and rendering.
///
/// # Panics
///
/// Requesting an existing family under a different kind (e.g.
/// `counter("x", ..)` after `histogram("x", ..)`) panics: that is a
/// programming error that would corrupt the exposition output.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock");
        f.debug_struct("Registry")
            .field("families", &inner.len())
            .finish()
    }
}

/// Renders a label set (sorted by key, values escaped) as
/// `key="value",key2="value2"` — empty string for no labels.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// Whether `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        create: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut inner = self.inner.lock().expect("registry lock");
        let family = inner.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} already registered as a {}",
            family.kind.as_str()
        );
        family
            .series
            .entry(render_labels(labels))
            .or_insert_with(create)
            .clone()
    }

    /// The counter `name{labels}`, created with `help` on first sight.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, help, labels, Kind::Counter, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// The gauge `name{labels}`, created with `help` on first sight.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, help, labels, Kind::Gauge, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// The histogram `name{labels}`, created with `help` on first sight.
    /// Histograms record nanoseconds and render as seconds; name families
    /// `*_seconds` accordingly.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.instrument(name, help, labels, Kind::Histogram, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Files an existing histogram as the series `name{labels}` too, so one
    /// set of samples renders under a second family name.
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: &Arc<Histogram>,
    ) {
        let series = Instrument::Histogram(Arc::clone(histogram));
        self.instrument(name, help, labels, Kind::Histogram, || series);
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, one line per series,
    /// histograms as cumulative `_bucket{le="…"}` lines (seconds) plus
    /// `_sum` / `_count`. Families and series are emitted in sorted order
    /// so consecutive scrapes of unchanged state are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::new();
        for (name, family) in inner.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&family.help.replace('\\', "\\\\").replace('\n', "\\n"));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labels, instrument) in family.series.iter() {
                match instrument {
                    Instrument::Counter(c) => {
                        render_series_line(&mut out, name, "", labels, None, c.get() as f64);
                    }
                    Instrument::Gauge(g) => {
                        render_series_line(&mut out, name, "", labels, None, g.get() as f64);
                    }
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        // Emit buckets only up to the highest occupied one —
                        // 65 lines per empty series would drown the output.
                        let top = snap
                            .buckets
                            .iter()
                            .rposition(|&c| c > 0)
                            .map(|b| b + 1)
                            .unwrap_or(0);
                        let mut cum = 0u64;
                        for b in 0..top {
                            cum += snap.buckets[b];
                            let le = format!("{}", bucket_upper_ns(b) as f64 / 1e9);
                            render_series_line(
                                &mut out,
                                name,
                                "_bucket",
                                labels,
                                Some(&le),
                                cum as f64,
                            );
                        }
                        let count = snap.count();
                        render_series_line(
                            &mut out,
                            name,
                            "_bucket",
                            labels,
                            Some("+Inf"),
                            count as f64,
                        );
                        render_series_line(
                            &mut out,
                            name,
                            "_sum",
                            labels,
                            None,
                            snap.sum_ns as f64 / 1e9,
                        );
                        render_series_line(&mut out, name, "_count", labels, None, count as f64);
                    }
                }
            }
        }
        out
    }
}

/// Appends one exposition line: `name[suffix]{labels[,le="…"]} value`.
fn render_series_line(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &str,
    le: Option<&str>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    let le_part = le.map(|le| format!("le=\"{le}\""));
    match (labels.is_empty(), le_part) {
        (true, None) => {}
        (true, Some(le)) => {
            out.push('{');
            out.push_str(&le);
            out.push('}');
        }
        (false, None) => {
            out.push('{');
            out.push_str(labels);
            out.push('}');
        }
        (false, Some(le)) => {
            out.push('{');
            out.push_str(labels);
            out.push(',');
            out.push_str(&le);
            out.push('}');
        }
    }
    out.push(' ');
    // `{}` on f64 never uses scientific notation and prints integers bare.
    out.push_str(&format!("{value}"));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.store(9);
        assert_eq!(c.get(), 9);

        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(10);
        assert_eq!(g.get(), 10);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn buckets_partition_the_value_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..NUM_BUCKETS {
            assert_eq!(bucket_of(bucket_lower_ns(b)), b);
            assert_eq!(bucket_of(bucket_upper_ns(b)), b);
        }
    }

    /// The sorted-reference quantile with the same rank convention as
    /// `quantile_ns`.
    fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).floor() as usize + 1).min(sorted.len());
        sorted[rank - 1]
    }

    fn assert_quantiles_close(values: &[u64]) {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = snap.quantile_ns(q);
            let exact = reference_quantile(&sorted, q) as f64;
            // The estimate interpolates inside the true value's log2
            // bucket, so it can be off by at most 2× in either direction.
            assert!(
                est <= exact * 2.0 + 1.0 && exact <= est * 2.0 + 1.0,
                "q={q}: estimate {est} too far from exact {exact}"
            );
        }
        assert_eq!(snap.quantile_ns(1.0), *sorted.last().unwrap() as f64);
        assert_eq!(snap.max_ns, *sorted.last().unwrap());
        assert_eq!(snap.count(), values.len() as u64);
        assert_eq!(snap.sum_ns, values.iter().sum::<u64>());
    }

    #[test]
    fn quantiles_track_a_uniform_distribution() {
        let values: Vec<u64> = (1..=100_000u64).collect();
        assert_quantiles_close(&values);
    }

    #[test]
    fn quantiles_track_a_constant_distribution() {
        assert_quantiles_close(&vec![1_234_567; 1000]);
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(1_048_576); // exactly 2^20
        }
        // Every sample in one bucket whose upper bound is capped by max:
        // the estimate must not exceed the recorded maximum.
        assert!(h.snapshot().quantile_ns(0.99) <= 1_048_576.0);
    }

    #[test]
    fn quantiles_track_a_heavy_tailed_distribution() {
        // 99% fast (~1 µs), 1% slow (~1 s): the p99 must see the tail.
        let mut values = vec![1_000u64; 990];
        values.extend(std::iter::repeat_n(1_000_000_000u64, 10));
        assert_quantiles_close(&values);
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        assert!(snap.quantile_ns(0.5) < 3_000.0);
        assert!(snap.quantile_ns(0.995) > 500_000_000.0);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile_ns(0.5), 0.0);
        assert_eq!(snap.quantile_ns(1.0), 0.0);
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Histogram::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let h = &h;
                sc.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i + 1);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum_ns, n * (n + 1) / 2);
        assert_eq!(snap.max_ns, n);
    }

    #[test]
    fn registry_shares_instruments_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("koios_requests_total", "requests", &[("route", "/search")]);
        let b = r.counter("koios_requests_total", "requests", &[("route", "/search")]);
        let other = r.counter("koios_requests_total", "requests", &[("route", "/stats")]);
        a.store(1);
        assert_eq!(b.get(), 1, "same (name, labels) shares one counter");
        assert_eq!(other.get(), 0);

        let h1 = r.histogram("koios_stage_seconds", "stages", &[("stage", "refine")]);
        let h2 = r.histogram("koios_stage_seconds", "stages", &[("stage", "refine")]);
        h1.record(5);
        assert_eq!(h2.snapshot().count(), 1);

        // A histogram filed under a second family is the same samples.
        r.register_histogram("koios_stage_wait_seconds", "waits", &[], &h1);
        let text = r.render_prometheus();
        assert!(text.contains("koios_stage_seconds_count{stage=\"refine\"} 1"));
        assert!(text.contains("koios_stage_wait_seconds_count 1"));
        assert!(text.contains("# HELP koios_stage_wait_seconds waits"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("koios_thing", "x", &[]);
        let _ = r.histogram("koios_thing", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let _ = Registry::new().counter("0bad name", "x", &[]);
    }

    #[test]
    fn labels_render_sorted_and_escaped() {
        assert_eq!(render_labels(&[]), "");
        assert_eq!(
            render_labels(&[("stage", "refine"), ("shard", "0")]),
            "shard=\"0\",stage=\"refine\""
        );
        assert_eq!(
            render_labels(&[("q", "a\"b\\c\nd")]),
            "q=\"a\\\"b\\\\c\\nd\""
        );
    }

    /// A minimal validity check for one exposition line.
    fn assert_valid_line(line: &str) {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            return;
        }
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "value not a float: {value:?} in {line:?}"
        );
        let name_end = series.find('{').unwrap_or(series.len());
        assert!(
            valid_metric_name(&series[..name_end]),
            "bad series name in {line:?}"
        );
        if let Some(rest) = series.get(name_end..) {
            if !rest.is_empty() {
                assert!(rest.starts_with('{') && rest.ends_with('}'), "{line:?}");
            }
        }
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = Registry::new();
        r.counter(
            "koios_requests_total",
            "Total requests",
            &[("route", "/search")],
        )
        .store(7);
        r.gauge("koios_queue_depth", "Jobs waiting", &[]).set(3);
        let h = r.histogram(
            "koios_stage_seconds",
            "Stage wall time",
            &[("stage", "refine")],
        );
        h.record(1_500); // bucket 11
        h.record(1_000_000); // bucket 20
        let text = r.render_prometheus();
        for line in text.lines() {
            assert_valid_line(line);
        }
        assert!(text.contains("# TYPE koios_requests_total counter"));
        assert!(text.contains("koios_requests_total{route=\"/search\"} 7"));
        assert!(text.contains("# TYPE koios_queue_depth gauge"));
        assert!(text.contains("koios_queue_depth 3"));
        assert!(text.contains("# TYPE koios_stage_seconds histogram"));
        assert!(text.contains("koios_stage_seconds_bucket{stage=\"refine\",le=\"+Inf\"} 2"));
        assert!(text.contains("koios_stage_seconds_count{stage=\"refine\"} 2"));
        // Cumulative bucket counts are monotone non-decreasing.
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "non-monotone buckets: {text}");
            last = v;
        }
        // Two identical scrapes are byte-identical.
        assert_eq!(text, r.render_prometheus());
    }

    #[test]
    fn render_emits_no_buckets_for_empty_histograms() {
        let r = Registry::new();
        let _ = r.histogram(
            "koios_stage_seconds",
            "Stage wall time",
            &[("stage", "merge")],
        );
        let text = r.render_prometheus();
        assert!(text.contains("koios_stage_seconds_bucket{stage=\"merge\",le=\"+Inf\"} 0"));
        // +Inf only — no finite-bucket lines for an empty series.
        assert_eq!(text.matches("_bucket{").count(), 1);
        assert!(text.contains("koios_stage_seconds_count{stage=\"merge\"} 0"));
    }
}
