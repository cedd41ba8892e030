//! The result cache: the workspace's striped LRU
//! ([`koios_common::cache::StripedLru`]) instantiated with weight 1 per
//! entry against a budget of `capacity` entries.
//!
//! The service keys entries by a 64-bit request [fingerprint] but hands
//! the *full* key along with it, and the LRU verifies equality on lookup —
//! a fingerprint collision is reported as a miss (and the colliding insert
//! replaces the entry), never as a wrong result.
//!
//! Capacity, recency order and TTL are global across the stripes, every
//! lock is a leaf, and a poisoned stripe is dropped rather than propagated
//! — the contract is stated once, on the core. With a **TTL**
//! ([`StripedLruCache::with_ttl`]) a probe that finds an entry at least
//! that old evicts it and reports a miss, bounding how stale a served
//! answer can be when the corpus changes out of band.
//!
//! [fingerprint]: koios_common::fingerprint::Fingerprinter

use koios_common::cache::{CacheSnapshot, StripedLru};
use koios_telemetry::Histogram;
use std::sync::Arc;
use std::time::Duration;

pub use koios_common::cache::CacheCounters;

/// A concurrent LRU map from `(fingerprint, full key)` to values holding
/// at most `capacity` entries. All methods take `&self`; share it freely.
#[derive(Debug)]
pub struct StripedLruCache<K, V> {
    lru: StripedLru<K, V>,
}

impl<K: Eq, V: Clone> StripedLruCache<K, V> {
    /// A cache holding at most `capacity` entries in total; `capacity == 0`
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        StripedLruCache {
            lru: StripedLru::new(capacity),
        }
    }

    /// Sets a time-to-live: probes evict (and miss on) entries inserted at
    /// least `ttl` ago. `None` restores the default.
    pub fn with_ttl(self, ttl: Option<Duration>) -> Self {
        StripedLruCache {
            lru: self.lru.with_ttl(ttl),
        }
    }

    /// The configured time-to-live, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.lru.ttl()
    }

    /// Installs a histogram recording, in nanoseconds, the time each
    /// probe/insert spends blocked acquiring its stripe mutex. Idempotent;
    /// first installation wins. Without one, acquisition does no timing.
    pub fn install_lock_wait(&self, histogram: Arc<Histogram>) {
        self.lru
            .install_lock_wait(Arc::new(move |wait| histogram.record_duration(wait)));
    }

    /// Total entries across stripes.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Counters, totals and per-stripe rows from one sweep of the stripes.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.lru.snapshot()
    }

    /// The counters of a [`Self::snapshot`].
    pub fn counters(&self) -> CacheCounters {
        self.lru.counters()
    }

    /// Zeroes the counters (entries are kept).
    pub fn reset_counters(&self) {
        self.lru.reset_counters();
    }

    /// Looks up `key` under `fp`, refreshing its recency on a hit.
    pub fn get(&self, fp: u64, key: &K) -> Option<V> {
        self.lru.get(fp, key)
    }

    /// Stores `value` under `(fp, key)`, evicting the globally
    /// least-recently-used entry when the total exceeds capacity. An
    /// insert with the same fingerprint replaces the entry in place.
    pub fn insert(&self, fp: u64, key: K, value: V) {
        self.lru.insert(fp, key, value, 1, || true);
    }

    /// Drops every entry (e.g. after the underlying repository or
    /// similarity model changed).
    pub fn invalidate_all(&self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    //! The wrapper's own surface only: fingerprint + full-key plumbing,
    //! weight 1 against an entry capacity, the TTL / invalidation /
    //! histogram pass-throughs. The LRU mechanics are tested once, on the
    //! core (`koios_common::cache`).
    use super::*;

    #[test]
    fn striped_hit_after_insert_miss_before() {
        let c: StripedLruCache<u32, String> = StripedLruCache::new(4);
        assert_eq!(c.get(1, &10), None);
        c.insert(1, 10, "a".into());
        assert_eq!(c.get(1, &10), Some("a".into()));
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.insertions), (1, 1, 1));
        assert!(format!("{c:?}").contains("StripedLruCache"));
    }

    #[test]
    fn striped_collision_is_a_miss_not_a_wrong_value() {
        let c: StripedLruCache<u32, String> = StripedLruCache::new(4);
        c.insert(7, 100, "for-100".into());
        assert_eq!(c.get(7, &200), None);
        c.insert(7, 200, "for-200".into());
        assert_eq!(c.get(7, &200), Some("for-200".into()));
        assert_eq!(c.get(7, &100), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn striped_zero_capacity_disables_caching() {
        let c: StripedLruCache<u32, u32> = StripedLruCache::new(0);
        c.insert(1, 1, 1);
        assert!(c.is_empty());
        assert_eq!(c.get(1, &1), None);
    }

    #[test]
    fn striped_zero_ttl_expires_on_first_probe() {
        let c: StripedLruCache<u32, u32> = StripedLruCache::new(4).with_ttl(Some(Duration::ZERO));
        assert_eq!(c.ttl(), Some(Duration::ZERO));
        c.insert(1, 1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, &1), None, "already past its TTL");
        assert!(c.is_empty(), "expired entry evicted on probe");
        let n = c.counters();
        assert_eq!((n.misses, n.expirations, n.hits), (1, 1, 0));
    }

    #[test]
    fn striped_invalidate_all_clears_every_stripe() {
        let c: StripedLruCache<u32, u32> = StripedLruCache::new(64);
        for i in 0..32 {
            c.insert(i, i as u32, i as u32);
        }
        let snap = c.snapshot();
        assert_eq!((snap.entries, snap.weight, snap.budget), (32, 32, 64));
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.counters().invalidations, 32);
        assert!(c.snapshot().stripes.iter().all(|row| row.entries == 0));
    }

    #[test]
    fn striped_lock_wait_histogram_counts_acquisitions() {
        let c: StripedLruCache<u32, u32> = StripedLruCache::new(4);
        let h = Arc::new(Histogram::new());
        c.install_lock_wait(Arc::clone(&h));
        c.install_lock_wait(Arc::new(Histogram::new())); // second install ignored
        c.insert(1, 1, 11); // 1 acquisition (under capacity: no rebalance locks)
        assert_eq!(c.get(1, &1), Some(11)); // 1 more
        assert_eq!(h.snapshot().count(), 2);
    }
}
