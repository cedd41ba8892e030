//! Cooperative wall-clock profiler — the *sampling* side.
//!
//! Worker threads publish their current `(stage, shard)` into per-thread
//! atomic slots (`koios_common::profile`); a [`Profiler`] owns a sampler
//! thread that scans every slot once per tick and bumps one cell of a
//! lock-free stage×shard counter matrix. Sample counts are proportional
//! to wall time spent per stage, so the matrix renders directly as
//! flamegraph-compatible collapsed stacks ([`Profiler::collapsed_stacks`])
//! and a self-time table ([`Profiler::self_time`]).
//!
//! The tick source is abstracted behind [`Ticker`] so tests drive the
//! sampler with a deterministic fake clock: a [`CountedTicker`] fires an
//! exact number of times with no sleeping, making sampled counts exact.
//!
//! Overhead model: workers pay one relaxed atomic swap per *phase* (not
//! per tuple); the sampler pays one registry scan per tick. At the
//! service's 1 ms period that is ~1k scans/s over a handful of slots; the
//! sampler is on in every perf-ledger run, so its cost is inside those
//! end-to-end numbers.

use koios_common::profile::{decode, sample_slots, Stage, NUM_STAGES};
use koios_common::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Shard columns tracked per stage: shards 0..63 get their own column,
/// anything larger folds into the last ("other") column. One more column
/// (index 0) counts samples with no shard attribution.
const SHARD_COLS: usize = 66;

/// A tick source for the sampler thread. Returns `false` to stop.
pub trait Ticker: Send + 'static {
    /// Blocks until the next sample should be taken; `false` ends the
    /// sampler loop.
    fn tick(&mut self) -> bool;
}

/// Wall-clock ticker: one tick per `period`, stopping when the profiler
/// is dropped. Sleeps in short bounded naps so `stop()` is never blocked
/// behind a long period.
pub struct RealTicker {
    period: Duration,
    running: Arc<AtomicBool>,
}

impl Ticker for RealTicker {
    fn tick(&mut self) -> bool {
        let mut left = self.period;
        while !left.is_zero() {
            if !self.running.load(Ordering::Relaxed) {
                return false;
            }
            let nap = left.min(Duration::from_millis(20));
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
        self.running.load(Ordering::Relaxed)
    }
}

/// Deterministic ticker: fires exactly `remaining` times, no sleeping.
/// The fake clock of the sampling-determinism tests.
pub struct CountedTicker {
    remaining: u64,
}

impl CountedTicker {
    /// A ticker that fires exactly `n` times.
    pub fn new(n: u64) -> Self {
        CountedTicker { remaining: n }
    }
}

impl Ticker for CountedTicker {
    fn tick(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// The lock-free sample accumulation matrix: `NUM_STAGES × SHARD_COLS`
/// counters plus a total-ticks counter.
#[derive(Debug)]
struct Matrix {
    cells: Vec<AtomicU64>,
    ticks: AtomicU64,
}

impl Matrix {
    fn new() -> Self {
        Matrix {
            cells: (0..NUM_STAGES * SHARD_COLS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            ticks: AtomicU64::new(0),
        }
    }

    fn col_of(shard: Option<u32>) -> usize {
        match shard {
            None => 0,
            Some(s) => (s as usize + 1).min(SHARD_COLS - 1),
        }
    }

    fn bump(&self, stage_id: u8, shard: Option<u32>) {
        let stage = (stage_id as usize).min(NUM_STAGES - 1);
        let idx = stage * SHARD_COLS + Self::col_of(shard);
        self.cells[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self, stage: usize, col: usize) -> u64 {
        self.cells[stage * SHARD_COLS + col].load(Ordering::Relaxed)
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Stage name.
    pub stage: &'static str,
    /// Samples observed in this stage (all shards folded).
    pub samples: u64,
    /// Fraction of all non-idle samples (0 when nothing was sampled).
    pub fraction: f64,
}

/// The sampling profiler: owns the counter matrix and (when started with
/// a [`RealTicker`]) the sampler thread. Dropping the profiler stops the
/// thread and releases the publish enable.
#[derive(Debug)]
pub struct Profiler {
    matrix: Arc<Matrix>,
    running: Arc<AtomicBool>,
    period: Duration,
    handle: Option<JoinHandle<()>>,
}

impl Profiler {
    /// Starts a wall-clock sampler ticking every `period` (clamped to
    /// ≥ 100 µs) and enables stage publishing process-wide.
    pub fn start(period: Duration) -> Profiler {
        let period = period.max(Duration::from_micros(100));
        let running = Arc::new(AtomicBool::new(true));
        let ticker = RealTicker {
            period,
            running: Arc::clone(&running),
        };
        let mut p = Self::with_ticker(ticker);
        p.running = running;
        p.period = period;
        p
    }

    /// Starts a sampler driven by an arbitrary [`Ticker`] (tests pass a
    /// [`CountedTicker`] for exact, sleep-free sampling). Publishing is
    /// enabled until the profiler is dropped.
    pub fn with_ticker(mut ticker: impl Ticker) -> Profiler {
        koios_common::profile::enable();
        let matrix = Arc::new(Matrix::new());
        let thread_matrix = Arc::clone(&matrix);
        let handle = std::thread::Builder::new()
            .name("koios-profiler".into())
            .spawn(move || {
                let mut slots = Vec::new();
                while ticker.tick() {
                    sample_once(&thread_matrix, &mut slots);
                }
            })
            .expect("spawn profiler sampler");
        Profiler {
            matrix,
            running: Arc::new(AtomicBool::new(true)),
            period: Duration::ZERO,
            handle: Some(handle),
        }
    }

    /// Waits for the sampler thread to finish its remaining ticks — only
    /// meaningful with a finite ticker like [`CountedTicker`]; a
    /// wall-clock profiler joins on drop instead.
    pub fn join_sampler(&mut self) {
        if let Some(h) = self.handle.take() {
            h.join().expect("profiler sampler panicked");
        }
    }

    /// Total sampler ticks so far.
    pub fn ticks(&self) -> u64 {
        self.matrix.ticks.load(Ordering::Relaxed)
    }

    /// The configured sampling period (zero for custom tickers).
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Samples observed for `stage`, folded across shards.
    pub fn stage_samples(&self, stage: Stage) -> u64 {
        (0..SHARD_COLS)
            .map(|c| self.matrix.get(stage as usize, c))
            .sum()
    }

    /// Flamegraph-compatible collapsed stacks: one `frames count` line per
    /// non-zero cell, frames joined by `;` rooted at `koios`. Shard
    /// attribution appears as a third frame (`koios;shard;shard:3 127`).
    /// Idle samples are reported under `koios;idle` so totals add up to
    /// the tick-by-slot product.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for stage in Stage::ALL {
            let base = self.matrix.get(stage as usize, 0);
            if base > 0 {
                out.push_str(&format!("koios;{} {}\n", stage.name(), base));
            }
            for col in 1..SHARD_COLS {
                let n = self.matrix.get(stage as usize, col);
                if n == 0 {
                    continue;
                }
                let shard = col - 1;
                if col == SHARD_COLS - 1 {
                    out.push_str(&format!("koios;{};shard:other {}\n", stage.name(), n));
                } else {
                    out.push_str(&format!("koios;{};shard:{} {}\n", stage.name(), shard, n));
                }
            }
        }
        out
    }

    /// The self-time table: per-stage sample counts and their fraction of
    /// all non-idle samples, descending by samples (idle is reported last
    /// with fraction 0).
    pub fn self_time(&self) -> Vec<SelfTime> {
        let mut rows: Vec<SelfTime> = Stage::ALL
            .iter()
            .map(|&s| SelfTime {
                stage: s.name(),
                samples: self.stage_samples(s),
                fraction: 0.0,
            })
            .collect();
        let busy: u64 = rows
            .iter()
            .filter(|r| r.stage != "idle")
            .map(|r| r.samples)
            .sum();
        if busy > 0 {
            for r in rows.iter_mut().filter(|r| r.stage != "idle") {
                r.fraction = r.samples as f64 / busy as f64;
            }
        }
        rows.sort_by(|a, b| {
            (a.stage == "idle")
                .cmp(&(b.stage == "idle"))
                .then(b.samples.cmp(&a.samples))
                .then(a.stage.cmp(b.stage))
        });
        rows
    }

    /// The `GET /debug/profile` report: sampler configuration, the
    /// self-time table and the collapsed-stack text in one JSON object.
    pub fn to_json(&self) -> Json {
        let rows = self.self_time();
        Json::obj([
            ("ticks", Json::num(self.ticks() as f64)),
            ("period_us", Json::num(self.period.as_micros() as f64)),
            (
                "registered_threads",
                Json::num(koios_common::profile::registered_slots() as f64),
            ),
            (
                "self_time",
                Json::arr(rows.iter().map(|r| {
                    Json::obj([
                        ("stage", Json::str(r.stage)),
                        ("samples", Json::num(r.samples as f64)),
                        ("fraction", Json::num(r.fraction)),
                    ])
                })),
            ),
            ("collapsed", Json::str(self.collapsed_stacks())),
        ])
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
        koios_common::profile::disable();
    }
}

/// One sampler tick: scan every registered slot and bump its cell.
/// `slots` is scratch reused across ticks to avoid per-tick allocation.
fn sample_once(matrix: &Matrix, slots: &mut Vec<u64>) {
    sample_slots(slots);
    for &bits in slots.iter() {
        let (stage_id, shard) = decode(bits);
        matrix.bump(stage_id, shard);
    }
    matrix.ticks.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_common::profile::{enter, enter_shard};
    use std::sync::Mutex;

    // Slot registration and the enable refcount are process-global; keep
    // profiler tests serialized.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counted_ticker_samples_exactly() {
        let _lock = TEST_LOCK.lock().unwrap();
        let _g = {
            koios_common::profile::enable();
            let g = enter(Stage::Refine).expect("enabled");
            koios_common::profile::disable();
            g
        };
        let mut p = Profiler::with_ticker(CountedTicker::new(250));
        p.join_sampler();
        assert_eq!(p.ticks(), 250);
        assert_eq!(p.stage_samples(Stage::Refine), 250);
        assert_eq!(p.stage_samples(Stage::Verify), 0);
    }

    #[test]
    fn sampling_is_deterministic_with_a_fake_clock() {
        let _lock = TEST_LOCK.lock().unwrap();
        let run = || {
            koios_common::profile::enable();
            let g = enter_shard(Stage::Shard, 2).expect("enabled");
            koios_common::profile::disable();
            let mut p = Profiler::with_ticker(CountedTicker::new(100));
            p.join_sampler();
            drop(g);
            (p.collapsed_stacks(), p.self_time())
        };
        let (stacks_a, table_a) = run();
        let (stacks_b, table_b) = run();
        assert_eq!(stacks_a, stacks_b, "fake-clock sampling must be exact");
        assert_eq!(table_a, table_b);
        assert!(stacks_a.contains("koios;shard;shard:2 100"), "{stacks_a}");
    }

    #[test]
    fn self_time_fractions_ignore_idle() {
        let _lock = TEST_LOCK.lock().unwrap();
        koios_common::profile::enable();
        let g = enter(Stage::Verify).expect("enabled");
        koios_common::profile::disable();
        let mut p = Profiler::with_ticker(CountedTicker::new(10));
        p.join_sampler();
        drop(g);
        let rows = p.self_time();
        let verify = rows.iter().find(|r| r.stage == "verify").unwrap();
        assert_eq!(verify.samples, 10);
        assert!((verify.fraction - 1.0).abs() < 1e-12);
        assert_eq!(rows.last().unwrap().stage, "idle");
        let json = p.to_json();
        assert_eq!(json.get("ticks").unwrap().as_u64(), Some(10));
        assert!(json
            .get("collapsed")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("koios;verify 10"));
    }

    #[test]
    fn wall_clock_profiler_ticks_and_stops() {
        let _lock = TEST_LOCK.lock().unwrap();
        let p = Profiler::start(Duration::from_micros(200));
        let _g = enter(Stage::Search).expect("start enables publishing");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while p.ticks() < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(p.ticks() >= 5, "sampler must tick");
        drop(p);
        assert!(!koios_common::profile::profiling_enabled());
    }
}
