//! Cooperative wall-clock profiler — the *publishing* side.
//!
//! Sampling profilers answer "where does CPU time go *between* the
//! instrumented seams" without per-event overhead: each worker thread
//! publishes its current `(stage, shard)` into a private atomic slot, and
//! a sampler thread (see `koios-telemetry::profile`) reads every slot at a
//! fixed rate, accumulating a stage×shard count matrix. Because workers
//! only ever *store* one word and the sampler only ever *loads*, the hot
//! path never blocks and there are no locks between sampler and workers.
//!
//! This module owns the primitives the engine and service crates publish
//! through; it lives in `koios-common` so the engine crates can publish
//! stages without depending on the telemetry crate (the PR 6 layering
//! rule). When no sampler is running ([`profiling_enabled`] is false),
//! [`enter`] is a single relaxed atomic load returning `None` — the
//! disabled cost is one predictable branch per *phase*, not per tuple.
//!
//! ```
//! use koios_common::profile::{self, Stage};
//! // Worker side: publish the current stage for the scope of a guard.
//! {
//!     let _g = profile::enter(Stage::Refine); // None while disabled: free
//!     // ... refine ...
//! } // slot restored to the previous stage on drop
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The pipeline stages a worker can publish. `Idle` (0) is the default
/// state of every registered slot — a thread that registered but is not
/// inside any guarded scope samples as idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Registered but not inside any instrumented scope.
    Idle = 0,
    /// A service worker executing a search request end-to-end.
    Search = 1,
    /// The refinement phase (token stream + filters).
    Refine = 2,
    /// The post-processing phase (scheduling, No-EM, re-ranking).
    Postprocess = 3,
    /// Exact-matching verification (Hungarian runs).
    Verify = 4,
    /// The partitioned merge loop.
    Merge = 5,
    /// A shard task on the shard executor (carries the shard index).
    Shard = 6,
    /// A mutation (ingest/snapshot/reload) applying on a worker.
    Ingest = 7,
    /// Response serialization on a connection thread.
    Serialize = 8,
}

/// Number of distinct stages (matrix dimension for samplers).
pub const NUM_STAGES: usize = 9;

impl Stage {
    /// Every stage, in id order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Idle,
        Stage::Search,
        Stage::Refine,
        Stage::Postprocess,
        Stage::Verify,
        Stage::Merge,
        Stage::Shard,
        Stage::Ingest,
        Stage::Serialize,
    ];

    /// Stable lowercase name (collapsed-stack frames, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Idle => "idle",
            Stage::Search => "search",
            Stage::Refine => "refine",
            Stage::Postprocess => "postprocess",
            Stage::Verify => "verify",
            Stage::Merge => "merge",
            Stage::Shard => "shard",
            Stage::Ingest => "ingest",
            Stage::Serialize => "serialize",
        }
    }

    /// The stage with this id, if any.
    pub fn from_id(id: u8) -> Option<Stage> {
        Stage::ALL.get(id as usize).copied()
    }
}

/// Packs a `(stage, shard)` pair into one slot word: stage in the low 32
/// bits, `shard + 1` in the high 32 (0 = no shard), so a plain `0` is
/// "idle, no shard".
pub fn encode(stage: Stage, shard: Option<usize>) -> u64 {
    let shard_bits = match shard {
        Some(s) => (s as u64).saturating_add(1).min(u32::MAX as u64) << 32,
        None => 0,
    };
    stage as u64 | shard_bits
}

/// Unpacks a slot word into `(stage id, shard)`.
pub fn decode(bits: u64) -> (u8, Option<u32>) {
    let shard = (bits >> 32) as u32;
    ((bits & 0xFF) as u8, shard.checked_sub(1))
}

/// One thread's published state. Slots are created lazily on a thread's
/// first [`enter`] and removed from the registry when the thread exits, so
/// short-lived threads (scoped verification helpers) never leak entries.
#[derive(Debug)]
struct Slot {
    bits: AtomicU64,
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Sampler refcount: publishing is enabled while at least one sampler
/// runs. A refcount (not a flag) lets two services in one process each
/// own a profiler without one's shutdown blinding the other.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

/// Whether any sampler is currently running (workers publish only then).
#[inline]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) > 0
}

/// Enables publishing (called by a sampler when it starts). Pair every
/// call with exactly one [`disable`].
pub fn enable() {
    ENABLED.fetch_add(1, Ordering::Relaxed);
}

/// Disables publishing once the matching [`enable`]'s sampler stops.
pub fn disable() {
    ENABLED.fetch_sub(1, Ordering::Relaxed);
}

struct ThreadSlot {
    slot: Arc<Slot>,
}

impl ThreadSlot {
    fn register() -> Self {
        let slot = Arc::new(Slot {
            bits: AtomicU64::new(0),
        });
        registry().lock().unwrap().push(Arc::clone(&slot));
        ThreadSlot { slot }
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        let mut reg = registry().lock().unwrap();
        if let Some(i) = reg.iter().position(|s| Arc::ptr_eq(s, &self.slot)) {
            reg.swap_remove(i);
        }
    }
}

thread_local! {
    static SLOT: ThreadSlot = ThreadSlot::register();
}

/// RAII stage publication: the thread's slot holds the new `(stage,
/// shard)` until the guard drops, when the previous value is restored
/// (guards nest — `Verify` inside `Postprocess` inside `Search`).
#[derive(Debug)]
pub struct StageGuard {
    slot: Arc<Slot>,
    prev: u64,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        self.slot.bits.store(self.prev, Ordering::Relaxed);
    }
}

/// Publishes `stage` for the scope of the returned guard. Returns `None`
/// (for ~zero cost) while no sampler is running.
#[inline]
pub fn enter(stage: Stage) -> Option<StageGuard> {
    enter_with(stage, None)
}

/// Publishes `stage` on shard `shard` for the scope of the returned guard.
#[inline]
pub fn enter_shard(stage: Stage, shard: usize) -> Option<StageGuard> {
    enter_with(stage, Some(shard))
}

fn enter_with(stage: Stage, shard: Option<usize>) -> Option<StageGuard> {
    if !profiling_enabled() {
        return None;
    }
    let slot = SLOT.with(|s| Arc::clone(&s.slot));
    let prev = slot.bits.swap(encode(stage, shard), Ordering::Relaxed);
    Some(StageGuard { slot, prev })
}

/// Reads every registered slot's current word into `out` (the sampler's
/// per-tick scan). The registry lock is held only for the copy; workers
/// never take it.
pub fn sample_slots(out: &mut Vec<u64>) {
    out.clear();
    let reg = registry().lock().unwrap();
    out.extend(reg.iter().map(|s| s.bits.load(Ordering::Relaxed)));
}

/// Number of currently registered slots (threads that have published at
/// least once and are still alive).
pub fn registered_slots() -> usize {
    registry().lock().unwrap().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable refcount is process-global; tests that toggle or assert
    // it serialize through this lock so the harness can stay parallel.
    // Poison-tolerant, so one failing test cannot fail its siblings.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn encode_decode_round_trips() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_id(stage as u8), Some(stage));
            let (id, shard) = decode(encode(stage, None));
            assert_eq!(id, stage as u8);
            assert_eq!(shard, None);
            let (id, shard) = decode(encode(stage, Some(7)));
            assert_eq!(id, stage as u8);
            assert_eq!(shard, Some(7));
        }
        assert_eq!(decode(0), (0, None));
        assert_eq!(Stage::from_id(200), None);
    }

    #[test]
    fn disabled_enter_is_none() {
        let _lock = serialized();
        assert!(!profiling_enabled());
        assert!(enter(Stage::Search).is_none());
    }

    #[test]
    fn guards_nest_and_restore() {
        let _lock = serialized();
        enable();
        // On a joined thread of its own: its slot leaves the registry
        // before this test unlocks (the test thread's locals, and with them
        // a slot registered there, are torn down only after it returned).
        std::thread::scope(|s| {
            s.spawn(|| {
                let _outer = enter(Stage::Search).expect("enabled");
                let mut sampled = Vec::new();
                sample_slots(&mut sampled);
                assert!(sampled.contains(&encode(Stage::Search, None)));
                {
                    let _inner = enter_shard(Stage::Shard, 3).expect("enabled");
                    sample_slots(&mut sampled);
                    assert!(sampled.contains(&encode(Stage::Shard, Some(3))));
                }
                sample_slots(&mut sampled);
                assert!(sampled.contains(&encode(Stage::Search, None)));
            })
            .join()
            .unwrap();
        });
        disable();
        assert!(!profiling_enabled());
    }

    #[test]
    fn short_lived_threads_deregister() {
        let _lock = serialized();
        enable();
        // Sibling tests register and drop slots of their own, so the global
        // slot count proves nothing: follow this thread's slot by a shard
        // id nobody else publishes.
        const SHARD: usize = 0xDE_AD;
        let on_shard = |words: &[u64]| words.iter().any(|&w| decode(w).1 == Some(SHARD as u32));
        std::thread::spawn(move || {
            // Leak the guard: the word stays published until the thread's
            // slot itself leaves the registry.
            std::mem::forget(enter_shard(Stage::Verify, SHARD).expect("enabled"));
            let mut sampled = Vec::new();
            sample_slots(&mut sampled);
            assert!(on_shard(&sampled), "the live thread must be visible");
        })
        .join()
        .unwrap();
        let mut sampled = Vec::new();
        sample_slots(&mut sampled);
        assert!(!on_shard(&sampled), "an exited thread left its slot behind");
        disable();
    }
}
