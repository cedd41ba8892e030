//! The workspace's one LRU: generic, weighted, striped.
//!
//! [`StripedLru`] maps a caller-supplied 64-bit hash plus the **full key**
//! to a value. The hash picks the stripe and the map slot; the full key is
//! compared on every probe, so a hash collision is a miss (and the
//! colliding insert replaces the entry), never a wrong value. Both shared
//! caches of the serving stack are instantiations: the result cache
//! (`koios-service`, weight 1 per entry, budget = entry capacity) and the
//! token kNN cache (`koios-index`, weight = list bytes, budget = bytes).
//!
//! # Contract
//!
//! * **Global, not per-stripe.** Entries live in [`STRIPES`] hash-selected
//!   segments behind independent mutexes, but recency stamps come from one
//!   clock and weights count against one budget: eviction removes the
//!   globally least-recently-used entry wherever it lives. Single-threaded,
//!   the striping is *exactly* a global LRU (a differential test against a
//!   reference model pins this).
//! * **Every lock is a leaf.** No two stripe locks are ever held together:
//!   `rebalance` peeks one stripe at a time and re-locks only the winner,
//!   so concurrent inserts cannot deadlock against the scan.
//! * **Admission is decided under the stripe lock.** [`StripedLru::insert`]
//!   runs its `admit` closure after acquiring the entry's stripe, so a
//!   caller that publishes "the world changed" *before* calling
//!   [`StripedLru::clear`] gets: a racing insert is either rejected by
//!   `admit` or swept by the clear — never resurrected.
//! * **No clock.** An entry leaves only by eviction, replacement or
//!   [`StripedLru::clear`]; its age is reported in a [`CacheSnapshot`],
//!   never acted on. Both callers key or check their entries so that a
//!   stale value is never served.
//! * **A cache is derived data, so poison is survivable.** User `Eq` /
//!   `Clone` run under the stripe lock; if one panics, the next
//!   acquisition of that stripe drops its entries (counted as
//!   invalidations, global weight corrected), clears the poison and
//!   carries on. Every mutation keeps stripe-local and global accounting
//!   in step before any user code can run, so the recovery arithmetic is
//!   exact.
//!
//! The stripe count is a constant: 8 is the only value non-test code ever
//! used, and no committed workload can show what another value buys.

use crate::fingerprint::mix64;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Number of lock stripes (a power of two).
pub const STRIPES: usize = 8;

/// Receives the time one hot-path (`get`/`insert`) acquisition spent
/// blocked on its stripe mutex. `koios-telemetry` depends on this crate,
/// so the hook is a plain closure the wrappers fill from a histogram.
pub type LockWaitObserver = Arc<dyn Fn(Duration) + Send + Sync>;

/// Monotone behaviour counters since construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes that returned a value.
    pub hits: u64,
    /// Probes that found nothing, a colliding key, or a refused entry.
    pub misses: u64,
    /// Values stored (replacements included).
    pub insertions: u64,
    /// Entries displaced by budget pressure.
    pub evictions: u64,
    /// Entries dropped by [`StripedLru::clear`] (or poison recovery).
    pub invalidations: u64,
    /// Inserts refused: heavier than the whole budget, or not admitted.
    pub rejected_inserts: u64,
}

impl CacheCounters {
    /// Accumulates another counter set (per-stripe → cache-global).
    pub fn merge(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.rejected_inserts += other.rejected_inserts;
    }

    /// `hits / (hits + misses)`, or 0 when the cache was never probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One stripe's occupancy in a [`CacheSnapshot`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StripeRow {
    /// Entries held.
    pub entries: usize,
    /// Weight held.
    pub weight: usize,
    /// Age of the oldest entry, measured from insertion (not last hit), so
    /// a hot-but-old entry shows its true residency; `None` when empty.
    pub oldest_age: Option<Duration>,
}

/// A point-in-time view taken in one sweep (each stripe locked once): the
/// totals are the sums of the rows, so they agree by construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Counters summed across stripes.
    pub counters: CacheCounters,
    /// Entries held.
    pub entries: usize,
    /// Weight held.
    pub weight: usize,
    /// The weight budget.
    pub budget: usize,
    /// Per-stripe rows, in stripe order.
    pub stripes: [StripeRow; STRIPES],
}

struct Entry<K, V> {
    key: K,
    value: V,
    weight: usize,
    stamp: u64,
    created: Instant,
}

struct Stripe<K, V> {
    map: HashMap<u64, Entry<K, V>>,
    recency: BTreeMap<u64, u64>, // stamp -> hash, oldest first
    weight: usize,
    counters: CacheCounters,
}

/// A concurrent weighted LRU; see the module docs for the contract. All
/// methods take `&self`.
pub struct StripedLru<K, V> {
    stripes: [Mutex<Stripe<K, V>>; STRIPES],
    // Cache-global recency clock: stamps are unique and totally ordered
    // across stripes.
    tick: AtomicU64,
    // Cache-global weight, the sum of the `Stripe::weight`s; the budget
    // check reads it without taking any stripe lock.
    weight: AtomicUsize,
    budget: usize,
    lock_wait: OnceLock<LockWaitObserver>,
}

impl<K: Eq, V: Clone> StripedLru<K, V> {
    /// A cache holding at most `budget` total weight. A budget of 0
    /// disables caching: every insert of non-zero weight is rejected.
    pub fn new(budget: usize) -> Self {
        StripedLru {
            stripes: std::array::from_fn(|_| {
                Mutex::new(Stripe {
                    map: HashMap::new(),
                    recency: BTreeMap::new(),
                    weight: 0,
                    counters: CacheCounters::default(),
                })
            }),
            tick: AtomicU64::new(0),
            weight: AtomicUsize::new(0),
            budget,
            lock_wait: OnceLock::new(),
        }
    }

    /// The weight budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Installs the lock-wait observer. Idempotent: the first installation
    /// wins. With none installed an acquisition does no timing. Only the
    /// `get`/`insert` acquisitions are observed — the series measures
    /// hot-path contention, not eviction scans or snapshot sweeps.
    pub fn install_lock_wait(&self, observer: LockWaitObserver) {
        let _ = self.lock_wait.set(observer);
    }

    /// Acquires stripe `idx` — the one place a stripe mutex is locked, and
    /// the one place the poison policy lives (see the module docs).
    fn lock_stripe(&self, idx: usize) -> MutexGuard<'_, Stripe<K, V>> {
        self.stripes[idx].lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            self.drain(&mut guard);
            self.stripes[idx].clear_poison();
            guard
        })
    }

    /// [`Self::lock_stripe`] for the stripe owning `hash` (mixed, so
    /// structured hashes spread evenly), reporting the blocked time to the
    /// lock-wait observer when one is installed.
    fn lock_timed(&self, hash: u64) -> MutexGuard<'_, Stripe<K, V>> {
        let idx = mix64(hash) as usize & (STRIPES - 1);
        let Some(observe) = self.lock_wait.get() else {
            return self.lock_stripe(idx);
        };
        let start = Instant::now();
        let guard = self.lock_stripe(idx);
        observe(start.elapsed());
        guard
    }

    /// Drops every entry of `stripe`, counted as invalidations.
    fn drain(&self, stripe: &mut Stripe<K, V>) {
        stripe.counters.invalidations += stripe.map.len() as u64;
        self.weight.fetch_sub(stripe.weight, Ordering::AcqRel);
        stripe.weight = 0;
        stripe.recency.clear();
        stripe.map.clear();
    }

    /// Removes the entry under `hash` (if any) from `stripe`'s map, recency
    /// index and weight, and from the global weight.
    fn unlink(&self, stripe: &mut Stripe<K, V>, hash: u64) -> Option<Entry<K, V>> {
        let entry = stripe.map.remove(&hash)?;
        stripe.recency.remove(&entry.stamp);
        stripe.weight -= entry.weight;
        self.weight.fetch_sub(entry.weight, Ordering::AcqRel);
        Some(entry)
    }

    /// Looks up `key` under `hash`, refreshing its recency on a hit.
    pub fn get(&self, hash: u64, key: &K) -> Option<V> {
        self.get_if(hash, key, |_| true)
    }

    /// [`Self::get`] for a value that is usable only under a condition
    /// the caller checks: `accept` sees the live entry under the stripe
    /// lock and may update it in place (its weight must not change). A
    /// refused entry stays cached and the probe counts as a miss, so the
    /// counters report what the caller could use.
    pub fn get_if(&self, hash: u64, key: &K, accept: impl FnOnce(&mut V) -> bool) -> Option<V> {
        let mut guard = self.lock_timed(hash);
        let stripe = &mut *guard;
        let entry = match stripe.map.get_mut(&hash) {
            Some(entry) if entry.key == *key => entry,
            _ => {
                stripe.counters.misses += 1;
                return None;
            }
        };
        if !accept(&mut entry.value) {
            stripe.counters.misses += 1;
            return None;
        }
        stripe.recency.remove(&entry.stamp);
        entry.stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        stripe.recency.insert(entry.stamp, hash);
        stripe.counters.hits += 1;
        Some(entry.value.clone())
    }

    /// Stores `value` under `(hash, key)` with the given `weight`, then
    /// evicts globally least-recently-used entries until the total fits the
    /// budget. An entry already under `hash` (same key or a collision) is
    /// replaced in place. Returns whether the value was stored: an entry
    /// heavier than the whole budget, or one `admit` — evaluated under the
    /// stripe lock — refuses, is rejected and counted.
    pub fn insert(
        &self,
        hash: u64,
        key: K,
        value: V,
        weight: usize,
        admit: impl FnOnce() -> bool,
    ) -> bool {
        let mut guard = self.lock_timed(hash);
        let stripe = &mut *guard;
        if weight > self.budget || !admit() {
            stripe.counters.rejected_inserts += 1;
            return false;
        }
        let replaced = self.unlink(stripe, hash);
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Entry {
            key,
            value,
            weight,
            stamp,
            created: Instant::now(),
        };
        stripe.map.insert(hash, entry);
        stripe.recency.insert(stamp, hash);
        stripe.weight += weight;
        self.weight.fetch_add(weight, Ordering::AcqRel);
        stripe.counters.insertions += 1;
        drop(guard);
        drop(replaced);
        self.rebalance();
        true
    }

    /// Evicts globally least-recently-used entries until the total weight
    /// fits the budget (a no-op while under it). Each round peeks every
    /// stripe's oldest stamp — one lock at a time — then re-locks the
    /// winning stripe and evicts whatever is oldest there *now* (the peeked
    /// entry may have been touched meanwhile; its successor is then the
    /// victim). The entry an in-progress insert just stored carries the
    /// newest stamp, so it is only chosen once it is the last one — at
    /// which point the total already fits (per-entry budget check).
    fn rebalance(&self) {
        while self.weight.load(Ordering::Acquire) > self.budget {
            let oldest = (0..STRIPES)
                .filter_map(|i| {
                    let stripe = self.lock_stripe(i);
                    let stamp = *stripe.recency.keys().next()?;
                    Some((stamp, i))
                })
                .min();
            // Every stripe empty while the total reads over budget can
            // only be a transient of a concurrent clear — nothing to evict.
            let Some((_, i)) = oldest else { return };
            let mut guard = self.lock_stripe(i);
            let stripe = &mut *guard;
            if let Some(&victim) = stripe.recency.values().next() {
                let _evicted = self.unlink(stripe, victim).expect("recency maps into map");
                stripe.counters.evictions += 1;
            }
        }
    }

    /// Drops every entry, stripe by stripe.
    pub fn clear(&self) {
        for i in 0..STRIPES {
            self.drain(&mut self.lock_stripe(i));
        }
    }

    /// Number of entries (sums the stripes, one lock at a time).
    pub fn len(&self) -> usize {
        (0..STRIPES).map(|i| self.lock_stripe(i).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight currently held (lock-free).
    pub fn weight(&self) -> usize {
        self.weight.load(Ordering::Acquire)
    }

    /// Counters, totals and per-stripe rows from one sweep. Exact once
    /// concurrent operations have completed; a mid-flight read may miss an
    /// operation still holding a stripe the sweep has passed.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snap = CacheSnapshot {
            budget: self.budget,
            ..CacheSnapshot::default()
        };
        for (i, row) in snap.stripes.iter_mut().enumerate() {
            let stripe = self.lock_stripe(i);
            let oldest = stripe.map.values().map(|e| e.created).min();
            *row = StripeRow {
                entries: stripe.map.len(),
                weight: stripe.weight,
                oldest_age: oldest.map(|t| t.elapsed()),
            };
            snap.counters.merge(&stripe.counters);
            snap.entries += row.entries;
            snap.weight += row.weight;
        }
        snap
    }

    /// The counters of a [`Self::snapshot`].
    pub fn counters(&self) -> CacheCounters {
        self.snapshot().counters
    }
}

impl<K, V> std::fmt::Debug for StripedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedLru")
            .field("weight", &self.weight.load(Ordering::Acquire))
            .field("budget", &self.budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicBool;

    type Lru = StripedLru<u32, u64>;

    /// Runs `check(unit)` for the two weightings the workspace instantiates:
    /// unit weight against an entry budget (the result cache) and byte-sized
    /// weights against a byte budget (the token cache). A cache that should
    /// hold `n` entries gets the budget `n * unit`.
    fn both(check: impl Fn(usize)) {
        check(1);
        check(112);
    }

    /// Inserts `key -> value` under its own value as the hash.
    fn put(c: &Lru, key: u32, value: u64, weight: usize) -> bool {
        c.insert(u64::from(key), key, value, weight, || true)
    }

    fn get(c: &Lru, key: u32) -> Option<u64> {
        c.get(u64::from(key), &key)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        both(|unit| {
            let c = Lru::new(4 * unit);
            assert_eq!(get(&c, 1), None);
            assert!(put(&c, 1, 11, unit));
            assert_eq!(get(&c, 1), Some(11));
            let n = c.counters();
            assert_eq!((n.hits, n.misses, n.insertions), (1, 1, 1));
            assert_eq!((c.len(), c.weight(), c.budget()), (1, unit, 4 * unit));
            assert!(format!("{c:?}").contains("StripedLru"));
        });
    }

    #[test]
    fn fingerprint_collision_is_a_miss_not_a_wrong_value() {
        let c: StripedLru<u32, &str> = StripedLru::new(4);
        c.insert(7, 100, "for-100", 1, || true);
        // Same hash, different full key.
        assert_eq!(c.get(7, &200), None);
        assert_eq!(c.counters().misses, 1);
        // The colliding insert replaces the entry.
        c.insert(7, 200, "for-200", 1, || true);
        assert_eq!(c.get(7, &200), Some("for-200"));
        assert_eq!(c.get(7, &100), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        both(|unit| {
            let c = Lru::new(2 * unit);
            put(&c, 1, 11, unit);
            put(&c, 2, 22, unit);
            // Touch 1 so 2 becomes the LRU.
            assert_eq!(get(&c, 1), Some(11));
            put(&c, 3, 33, unit);
            assert_eq!(c.len(), 2);
            assert_eq!(get(&c, 2), None, "LRU entry evicted");
            assert_eq!(get(&c, 1), Some(11));
            assert_eq!(get(&c, 3), Some(33));
            assert_eq!(c.counters().evictions, 1);
            assert!(c.weight() <= c.budget());
        });
    }

    #[test]
    fn striped_capacity_is_global_not_per_stripe() {
        both(|unit| {
            // Room for two entries; 32 keys spread over every stripe. A
            // per-stripe bound would keep up to 2 × STRIPES of them.
            let c = Lru::new(2 * unit);
            let spread = Lru::new(32 * unit);
            for key in 0..32 {
                put(&c, key, 0, unit);
                put(&spread, key, 0, unit);
            }
            assert!(spread.snapshot().stripes.iter().all(|row| row.entries > 0));
            assert_eq!((c.len(), c.weight()), (2, 2 * unit));
            assert_eq!(c.counters().evictions, 30);
            // The survivors are the two most recent, wherever they live.
            assert_eq!(
                (get(&c, 30), get(&c, 31), get(&c, 29)),
                (Some(0), Some(0), None)
            );
        });
    }

    #[test]
    fn reinsert_same_key_updates_value_without_eviction() {
        both(|unit| {
            let c = Lru::new(2 * unit);
            put(&c, 1, 10, unit);
            put(&c, 1, 20, unit);
            assert_eq!((c.len(), c.weight()), (1, unit));
            assert_eq!(c.counters().evictions, 0);
            assert_eq!(get(&c, 1), Some(20));
        });
    }

    #[test]
    fn oversized_entry_is_rejected_and_refused_admission_is_counted() {
        both(|unit| {
            let c = Lru::new(2 * unit);
            put(&c, 1, 11, unit);
            assert!(!put(&c, 2, 22, 2 * unit + 1), "heavier than the budget");
            assert!(!c.insert(3, 3, 33, unit, || false), "not admitted");
            assert_eq!(get(&c, 1), Some(11), "a rejected insert evicts nothing");
            let n = c.counters();
            assert_eq!((n.rejected_inserts, n.insertions, n.evictions), (2, 1, 0));
        });
    }

    #[test]
    fn zero_capacity_disables_caching() {
        both(|unit| {
            let c = Lru::new(0);
            assert!(!put(&c, 1, 1, unit));
            assert!(c.is_empty());
            assert_eq!(get(&c, 1), None);
            assert_eq!(c.counters().rejected_inserts, 1);
        });
    }

    #[test]
    fn conditional_probe_refuses_as_a_miss_and_updates_in_place() {
        both(|unit| {
            let c = Lru::new(4 * unit);
            put(&c, 1, 11, unit);
            assert_eq!(c.get_if(1, &1, |_| false), None);
            assert_eq!(get(&c, 1), Some(11), "refused entries stay cached");
            assert_eq!(
                c.get_if(1, &1, |v| std::mem::replace(v, 12) == 11),
                Some(12)
            );
            assert_eq!(get(&c, 1), Some(12), "accepted updates persist");
            let n = c.counters();
            assert_eq!((n.hits, n.misses, n.insertions), (3, 1, 1));
            assert_eq!((c.len(), c.weight()), (1, unit));
        });
    }

    #[test]
    fn invalidate_all_clears_and_counts() {
        both(|unit| {
            let c = Lru::new(64 * unit);
            for key in 0..32 {
                put(&c, key, 0, unit);
            }
            c.clear();
            assert_eq!((c.len(), c.weight()), (0, 0));
            assert_eq!(c.counters().invalidations, 32);
            assert_eq!(c.snapshot().stripes, [StripeRow::default(); STRIPES]);
            assert_eq!(get(&c, 1), None);
        });
    }

    #[test]
    fn hit_rate_reflects_lookups() {
        let c = Lru::new(2);
        assert_eq!(c.counters().hit_rate(), 0.0);
        put(&c, 1, 1, 1);
        get(&c, 1);
        get(&c, 2);
        assert!((c.counters().hit_rate() - 0.5).abs() < 1e-12);
        get(&c, 1);
        let n = c.counters();
        assert_eq!((n.hits, n.misses), (2, 1));
        assert!((n.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stripe_debug_matches_usage_and_reports_ages() {
        // The per-stripe rows `GET /debug/cache` renders: they sum to the
        // totals printed beside them, and only occupied stripes have an age.
        both(|unit| {
            let c = Lru::new(64 * unit);
            for key in 0..32 {
                put(&c, key, 0, unit);
            }
            let snap = c.snapshot();
            assert_eq!(
                (snap.entries, snap.weight, snap.budget),
                (32, 32 * unit, 64 * unit)
            );
            assert_eq!(snap.stripes.iter().map(|r| r.entries).sum::<usize>(), 32);
            assert_eq!(
                snap.stripes.iter().map(|r| r.weight).sum::<usize>(),
                c.weight()
            );
            for row in snap.stripes {
                assert_eq!(row.oldest_age.is_some(), row.entries > 0, "{snap:?}");
            }
        });
    }

    #[test]
    fn lock_wait_observer_counts_hot_path_acquisitions() {
        let c = Lru::new(1);
        let seen = Arc::new(AtomicUsize::new(0));
        let count = |seen: &Arc<AtomicUsize>| -> LockWaitObserver {
            let seen = Arc::clone(seen);
            Arc::new(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            })
        };
        c.install_lock_wait(count(&seen));
        c.install_lock_wait(count(&Arc::new(AtomicUsize::new(0)))); // ignored
        put(&c, 1, 11, 1);
        put(&c, 2, 22, 1); // evicts 1: the rebalance scan is not observed
        assert_eq!(get(&c, 2), Some(22));
        c.snapshot();
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn striped_churn_holds_capacity_and_counter_invariants() {
        // 8 threads of mixed get/insert over 64 keys against room for 16:
        // constant cross-stripe eviction, yet every bound and counter
        // identity of a single-owner LRU must hold afterwards.
        const THREADS: u32 = 8;
        const OPS: u32 = 400;
        both(|unit| {
            let c = Lru::new(16 * unit);
            std::thread::scope(|sc| {
                for t in 0..THREADS {
                    let c = &c;
                    // Disjoint per-thread keyspaces: a key is only ever
                    // inserted by its owner, so no insert is a replacement
                    // and the entry-count identity below is exact. Eviction
                    // still crosses threads and stripes.
                    sc.spawn(move || {
                        for op in 0..OPS {
                            let key = t * 8 + op % 8;
                            if get(c, key).is_none() {
                                put(c, key, u64::from(key) * 2, unit);
                            }
                        }
                    });
                }
            });
            let snap = c.snapshot();
            let n = snap.counters;
            assert_eq!(n.hits + n.misses, u64::from(THREADS * OPS));
            assert_eq!((n.insertions, n.rejected_inserts), (n.misses, 0));
            assert!(n.evictions > 0, "budget pressure must have evicted");
            assert!(snap.weight <= snap.budget, "{snap:?}");
            assert_eq!((snap.weight, snap.entries), (c.weight(), c.len()));
            assert_eq!(snap.weight, snap.entries * unit);
            assert_eq!(
                snap.entries as u64,
                n.insertions - n.evictions - n.invalidations
            );
            // Surviving values are never torn — each maps to its own key.
            for key in 0..64 {
                if let Some(v) = get(&c, key) {
                    assert_eq!(v, u64::from(key) * 2);
                }
            }
        });
    }

    /// Records its key when the cache lets go of it (the cache holds the
    /// only long-lived `Arc`), so victims are observable without any hook
    /// in the product code.
    struct Tracked(u32, Arc<Mutex<Vec<u32>>>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.1.lock().unwrap().push(self.0);
        }
    }

    /// The reference: a single-threaded weighted LRU, least recent first.
    #[derive(Default)]
    struct Model {
        order: VecDeque<(u32, usize)>,
        budget: usize,
        counters: CacheCounters,
        dropped: Vec<u32>,
    }

    impl Model {
        fn get(&mut self, key: u32) -> bool {
            let Some(at) = self.order.iter().position(|&(k, _)| k == key) else {
                self.counters.misses += 1;
                return false;
            };
            let entry = self.order.remove(at).unwrap();
            self.order.push_back(entry);
            self.counters.hits += 1;
            true
        }

        fn insert(&mut self, key: u32, weight: usize) -> bool {
            if weight > self.budget {
                self.counters.rejected_inserts += 1;
                self.dropped.push(key); // the refused value itself
                return false;
            }
            if let Some(at) = self.order.iter().position(|&(k, _)| k == key) {
                self.order.remove(at);
                self.dropped.push(key);
            }
            self.order.push_back((key, weight));
            self.counters.insertions += 1;
            while self.order.iter().map(|&(_, w)| w).sum::<usize>() > self.budget {
                self.dropped.push(self.order.pop_front().unwrap().0);
                self.counters.evictions += 1;
            }
            true
        }

        fn clear(&mut self) {
            self.counters.invalidations += self.order.len() as u64;
            self.dropped.extend(self.order.drain(..).map(|(k, _)| k));
        }
    }

    #[test]
    fn striping_is_exactly_a_global_lru() {
        // A seeded script of get / insert (varying weights, some over
        // budget) / clear against the 8-stripe cache and the reference:
        // same outcome per op, same victims in the same order, same
        // counters, same totals.
        const BUDGET: usize = 1000;
        let log = Arc::new(Mutex::new(Vec::new()));
        let c: StripedLru<u32, Arc<Tracked>> = StripedLru::new(BUDGET);
        let mut model = Model {
            budget: BUDGET,
            ..Model::default()
        };
        for step in 0..20_000u64 {
            let r = mix64(0x5EED ^ step);
            let key = (r >> 8) as u32 % 48;
            let hash = u64::from(key);
            match r % 100 {
                0 => {
                    c.clear();
                    model.clear();
                    // A clear drops stripe by stripe, in map order.
                    log.lock().unwrap().sort_unstable();
                    model.dropped.sort_unstable();
                }
                1..=44 => {
                    let weight = 20 + (r >> 40) as usize % 200 * (1 + (r >> 60) as usize);
                    let value = Arc::new(Tracked(key, Arc::clone(&log)));
                    let stored = c.insert(hash, key, value, weight, || true);
                    assert_eq!(stored, model.insert(key, weight), "step {step}");
                }
                _ => assert_eq!(c.get(hash, &key).is_some(), model.get(key), "step {step}"),
            }
            let victims = std::mem::take(&mut *log.lock().unwrap());
            assert_eq!(victims, std::mem::take(&mut model.dropped), "step {step}");
        }
        let snap = c.snapshot();
        assert_eq!(snap.counters, model.counters);
        assert!(snap.counters.evictions > 1000 && snap.counters.rejected_inserts > 0);
        assert_eq!(snap.entries, model.order.len());
        assert_eq!(
            snap.weight,
            model.order.iter().map(|&(_, w)| w).sum::<usize>()
        );
    }

    /// A value whose `Clone` — which `get` runs under the stripe lock —
    /// panics while `armed`.
    struct Grenade(Arc<AtomicBool>);

    impl Clone for Grenade {
        fn clone(&self) -> Self {
            assert!(!self.0.load(Ordering::Relaxed), "boom (injected fault)");
            Grenade(Arc::clone(&self.0))
        }
    }

    #[test]
    fn poisoned_stripe_is_dropped_and_the_cache_carries_on() {
        let armed = Arc::new(AtomicBool::new(false));
        let c: StripedLru<u32, Grenade> = StripedLru::new(40);
        let put = |key: u32| {
            let value = Grenade(Arc::clone(&armed));
            c.insert(u64::from(key), key, value, 1, || true)
        };
        (0..32).for_each(|key| assert!(put(key)));
        assert!(c.snapshot().stripes.iter().all(|row| row.entries > 0));

        armed.store(true, Ordering::Relaxed);
        let outcome = std::thread::scope(|sc| sc.spawn(|| c.get(0, &0)).join());
        assert!(outcome.is_err(), "the probe panicked under its stripe lock");
        armed.store(false, Ordering::Relaxed);

        // The next acquisition drops the poisoned stripe's entries, and only
        // those, as invalidations.
        let after = c.snapshot();
        let emptied = after.stripes.iter().filter(|row| row.entries == 0);
        assert_eq!(emptied.count(), 1);
        assert_eq!(after.counters.invalidations, 32 - after.entries as u64);
        // Every stripe keeps serving probes, inserts (under eviction
        // pressure: 64 keys, room for 40) and snapshots, and the global
        // accounting still matches the stripes'.
        for key in 0..64 {
            if c.get(u64::from(key), &key).is_none() {
                assert!(put(key));
            }
        }
        let snap = c.snapshot();
        let n = snap.counters;
        assert!(n.evictions > 0 && snap.weight <= snap.budget, "{snap:?}");
        assert_eq!((snap.weight, snap.entries), (c.weight(), c.len()));
        assert_eq!(
            snap.entries as u64,
            n.insertions - n.evictions - n.invalidations
        );
    }
}
