//! The bucketised iUB filter (paper §V).
//!
//! Updating `iUB(C) = S_i + m_i·s` for every candidate on every stream
//! tuple would be quadratic. Koios instead groups candidates into buckets by
//! their remaining capacity `m`; inside a bucket, a min-heap orders them by
//! ascending `S_i`. On a prune sweep with current stream similarity `s` and
//! threshold `θlb`, bucket `m` evicts candidates from its front while
//! `S_i < θlb − m·s`; the first survivor proves the rest of the bucket safe,
//! so a sweep touching no prunable candidate costs one comparison per
//! bucket. Candidates move to a lower bucket exactly when a stream tuple
//! hits them, so maintenance is proportional to actual stream traffic.
//!
//! **Lazy deletion.** A move pushes the new key and leaves the old entry
//! where it is, so it costs one heap push. A key changes only when a
//! tuple adds a row, which strictly lowers `m`; a candidate therefore has
//! at most one entry per bucket, and an entry is *current* iff its
//! candidate is unpruned and the candidate's current `m` is the bucket's.
//! The caller owns the candidate state, so it decides: the sweep pops
//! every entry below the threshold at a bucket's front and hands it to a
//! callback that prunes the candidate if the entry is current and says
//! whether it did; a stale entry is simply dropped. An
//! entry at or above the threshold stops the bucket whether it is stale or
//! not, since every current entry behind it has a base at least as large.
//!
//! Refinement never sweeps the heaps at the end of the stream — that would
//! pop every stale entry. It collapses the bounds in one pass over its
//! candidate states with the same comparison at `s = 0` (`refine.rs`).

use koios_common::{HeapSize, SetId, Sim};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One bucket: a min-heap of `(S_i, set)` entries, stale ones included.
type Bucket = BinaryHeap<Reverse<(Sim, SetId)>>;

/// Buckets of `(S_i, set)` indexed by remaining capacity `m`.
#[derive(Debug, Default)]
pub struct BucketIndex {
    buckets: Vec<Bucket>,
    /// Bit `m` is set iff bucket `m` holds an entry: a sweep visits only
    /// those, not every `m` up to `|Q|`.
    occupied: Vec<u64>,
}

impl BucketIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a candidate with remaining capacity `m` and matched score
    /// base `base` — at discovery, and again on every move (the entry the
    /// candidate leaves goes stale).
    pub fn insert(&mut self, m: u32, base: f64, set: SetId) {
        let m = m as usize;
        if m >= self.buckets.len() {
            self.buckets.resize_with(m + 1, Bucket::new);
            self.occupied.resize(m / 64 + 1, 0);
        }
        self.buckets[m].push(Reverse((Sim::new(base), set)));
        self.occupied[m / 64] |= 1 << (m % 64);
    }

    /// Pops every front entry whose upper bound `base + m·s` is strictly
    /// below `theta` and hands it to `prune(set, m)`, which prunes the
    /// candidate if the entry is current and returns whether it did;
    /// returns the number pruned.
    ///
    /// Strict comparison keeps ties alive, which guarantees at least the
    /// `θlb`-defining candidates survive (their `UB ≥ LB ≥ θlb`).
    pub fn sweep(
        &mut self,
        s: f64,
        theta: f64,
        mut prune: impl FnMut(SetId, u32) -> bool,
    ) -> usize {
        let mut pruned = 0;
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let m = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = &mut self.buckets[m];
                let threshold = theta - m as f64 * s;
                while let Some(&Reverse((base, set))) = bucket.peek() {
                    if base.get() < threshold {
                        bucket.pop();
                        pruned += usize::from(prune(set, m as u32));
                    } else {
                        break;
                    }
                }
                if bucket.is_empty() {
                    *word &= !(1 << (m % 64));
                }
            }
        }
        pruned
    }
}

impl HeapSize for BucketIndex {
    fn heap_size(&self) -> usize {
        let entry = std::mem::size_of::<Reverse<(Sim, SetId)>>();
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.occupied.capacity() * std::mem::size_of::<u64>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * entry)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_common::fingerprint::mix64;
    use std::collections::HashMap;

    fn sid(v: u32) -> SetId {
        SetId(v)
    }

    impl BucketIndex {
        /// Number of entries held, stale ones included.
        fn len(&self) -> usize {
            self.buckets.iter().map(Bucket::len).sum()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// A sweep callback over a map of current keys: prunes (removes) the
    /// set iff the popped entry's bucket is its current `m`.
    fn prune_current(keys: &mut HashMap<SetId, u32>) -> impl FnMut(SetId, u32) -> bool + '_ {
        move |set, m| {
            let current = keys.get(&set) == Some(&m);
            if current {
                keys.remove(&set);
            }
            current
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        // Removal is lazy: a moved candidate's old entry stays until a
        // sweep reaches it, and then leaves without counting as a prune.
        let mut b = BucketIndex::new();
        b.insert(3, 1.0, sid(1));
        b.insert(3, 2.0, sid(2));
        b.insert(5, 0.5, sid(3));
        b.insert(2, 1.5, sid(1)); // sid(1) moves 3 → 2
        assert_eq!(b.len(), 4);
        let mut keys = HashMap::from([(sid(1), 2), (sid(2), 3), (sid(3), 5)]);
        // θ = 1.25 at s = 0: only entries with base < 1.25 leave the front.
        let n = b.sweep(0.0, 1.25, prune_current(&mut keys));
        assert_eq!(n, 1, "sid(3) pruned; sid(1)'s stale entry dropped");
        assert_eq!(b.len(), 2);
        assert!(keys.contains_key(&sid(1)) && !keys.contains_key(&sid(3)));
    }

    #[test]
    fn sweep_prunes_only_below_threshold() {
        let mut b = BucketIndex::new();
        // Bucket m=2: UB = base + 2s.
        b.insert(2, 0.5, sid(1)); // UB at s=0.5 → 1.5
        b.insert(2, 2.0, sid(2)); // UB → 3.0
        b.insert(0, 1.9, sid(3)); // UB → 1.9 regardless of s
        let mut pruned = Vec::new();
        let n = b.sweep(0.5, 2.0, |s, _| {
            pruned.push(s);
            true
        });
        assert_eq!(n, 2);
        assert_eq!(pruned, vec![sid(3), sid(1)]); // bucket 0 first
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn sweep_is_strict_on_ties() {
        let mut b = BucketIndex::new();
        b.insert(1, 1.0, sid(1)); // UB = 1.0 + 1·1.0 = 2.0 == theta → kept
        let n = b.sweep(1.0, 2.0, |_, _| panic!("tie must survive"));
        assert_eq!(n, 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn reinsert_moves_between_buckets() {
        let mut b = BucketIndex::new();
        b.insert(4, 0.0, sid(7));
        b.insert(3, 0.9, sid(7)); // the move: one push, old entry stale
        let mut keys = HashMap::from([(sid(7), 3)]);
        // Prunable only under the new key: UB = 0.9 + 0.3 = 1.2 < 1.3. The
        // stale bucket-4 entry (UB 0.4) is dropped without a second prune.
        let n = b.sweep(0.1, 1.3, prune_current(&mut keys));
        assert_eq!(n, 1);
        assert!(keys.is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn drain_returns_everything_sorted_by_bucket() {
        // A sweep below every bound visits buckets in ascending `m` and
        // each bucket in ascending base — the order `drain` used to give.
        let mut b = BucketIndex::new();
        b.insert(2, 1.0, sid(1));
        b.insert(1, 3.0, sid(2));
        b.insert(1, 0.5, sid(3));
        let mut order = Vec::new();
        let n = b.sweep(0.0, f64::MAX, |s, m| {
            order.push((m, s));
            true
        });
        assert_eq!(n, 3);
        assert!(b.is_empty());
        assert_eq!(order, vec![(1, sid(3)), (1, sid(2)), (2, sid(1))]);
    }

    #[test]
    fn sweep_early_exits_per_bucket() {
        let mut b = BucketIndex::new();
        for i in 0..100 {
            b.insert(1, 1.0 + i as f64, sid(i));
        }
        // theta - m*s = 1.5: only base 1.0 is below.
        let n = b.sweep(0.0, 1.5, |_, _| true);
        assert_eq!(n, 1);
        assert_eq!(b.len(), 99);
    }

    #[test]
    fn stale_front_entry_below_threshold_is_dropped_not_pruned() {
        let mut b = BucketIndex::new();
        b.insert(2, 0.25, sid(1)); // goes stale below the threshold
        b.insert(2, 3.0, sid(2));
        b.insert(1, 4.0, sid(1)); // sid(1) moves 2 → 1, far above θ
        let mut keys = HashMap::from([(sid(1), 1), (sid(2), 2)]);
        let n = b.sweep(0.5, 2.0, prune_current(&mut keys));
        assert_eq!(n, 0, "the stale entry is not a prune");
        assert_eq!(keys.len(), 2);
        assert_eq!(b.len(), 2, "only the stale entry left");
    }

    /// A splitmix64 stream for the differential script.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(self.0) % n
        }

        /// A multiple of 1/8 in `[0, n/8)`: dyadic, so `θ − m·s` is exact
        /// and exact ties come up often.
        fn eighths(&mut self, n: u64) -> f64 {
            self.below(n) as f64 / 8.0
        }
    }

    #[test]
    fn lazy_sweeps_match_a_brute_force_oracle() {
        let (mut ties, mut stale_drops, mut prunes) = (0usize, 0usize, 0usize);
        for seed in 0..200u64 {
            let mut rng = Rng(seed);
            let mut b = BucketIndex::new();
            // The oracle: every unpruned set's current key.
            let mut keys: HashMap<SetId, (u32, f64)> = HashMap::new();
            let mut next_id = 0u32;
            let (mut s, mut theta) = (1.0f64, 0.0f64);
            for _ in 0..120 {
                match rng.below(4) {
                    0 => {
                        // `m` in 0..8 or 60..68: the occupancy bitmap
                        // spans two words.
                        let m = (rng.below(8) + 60 * rng.below(2)) as u32;
                        let base = rng.eighths(24);
                        b.insert(m, base, sid(next_id));
                        keys.insert(sid(next_id), (m, base));
                        next_id += 1;
                    }
                    1 => {
                        // Move a set with room left: m strictly down, base up.
                        let mut movable: Vec<SetId> = keys
                            .iter()
                            .filter(|(_, k)| k.0 > 0)
                            .map(|(&s, _)| s)
                            .collect();
                        movable.sort();
                        if movable.is_empty() {
                            continue;
                        }
                        let set = movable[rng.below(movable.len() as u64) as usize];
                        let (m, base) = keys[&set];
                        let key = (rng.below(m as u64) as u32, base + 0.125 + rng.eighths(8));
                        b.insert(key.0, key.1, set);
                        keys.insert(set, key);
                    }
                    _ => {
                        s = (s - rng.eighths(2)).max(0.0);
                        theta += rng.eighths(3);
                        let mut expected: Vec<SetId> = keys
                            .iter()
                            .filter(|(_, &(m, base))| base < theta - m as f64 * s)
                            .map(|(&set, _)| set)
                            .collect();
                        ties += keys
                            .values()
                            .filter(|&&(m, base)| base == theta - m as f64 * s)
                            .count();
                        let mut got = Vec::new();
                        let n = b.sweep(s, theta, |set, m| {
                            let current = keys.get(&set).is_some_and(|k| k.0 == m);
                            if current {
                                keys.remove(&set);
                                got.push(set);
                            } else {
                                stale_drops += 1;
                            }
                            current
                        });
                        expected.sort();
                        got.sort();
                        assert_eq!(n, got.len());
                        assert_eq!(got, expected, "seed {seed}");
                        prunes += n;
                    }
                }
            }
        }
        assert!(
            ties > 0 && stale_drops > 0 && prunes > 0,
            "{ties} {stale_drops} {prunes}"
        );
    }
}
