//! Heap-footprint accounting.
//!
//! The paper reports the memory footprint of Koios as the sum of the
//! footprints of its search data structures (inverted index, token stream,
//! candidate states, buckets, top-k lists — §VIII-D). [`HeapSize`] is a
//! lightweight estimator of the *heap* bytes owned by a value; stack size is
//! excluded (add `size_of::<T>()` at the root if desired).
//!
//! Estimates intentionally mirror the container layouts (`Vec` capacity ×
//! element size, hash-map capacity × bucket size) rather than allocator
//! internals: they are meant for comparative plots (Fig. 5d/6d/7d), not
//! byte-exact accounting.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};

/// Estimated number of heap bytes owned by a value.
pub trait HeapSize {
    /// Heap bytes owned (excluding the shallow `size_of` of `self`).
    fn heap_size(&self) -> usize;
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_size(&self) -> usize { 0 }
        })*
    };
}

zero_heap!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    crate::ids::TokenId,
    crate::ids::SetId,
    crate::sim::Sim
);

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size() + self.2.heap_size()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for VecDeque<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_size(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

impl HeapSize for Box<str> {
    fn heap_size(&self) -> usize {
        self.len()
    }
}

impl<T: HeapSize> HeapSize for BinaryHeap<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

/// Approximate per-slot overhead of `std::collections::HashMap` (SwissTable
/// control byte + load-factor headroom baked into `capacity()`).
const HASH_SLOT_OVERHEAD: usize = 1;

impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_size(&self) -> usize {
        self.capacity() * (std::mem::size_of::<(K, V)>() + HASH_SLOT_OVERHEAD)
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

impl<T: HeapSize, S> HeapSize for HashSet<T, S> {
    fn heap_size(&self) -> usize {
        self.capacity() * (std::mem::size_of::<T>() + HASH_SLOT_OVERHEAD)
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

/// B-tree nodes hold up to 11 entries; ~2/3 average occupancy plus edge
/// pointers is approximated with a 1.5× factor on the entry payload.
fn btree_entry_bytes(n: usize, entry: usize) -> usize {
    (n * entry * 3) / 2
}

impl<K: HeapSize, V: HeapSize> HeapSize for BTreeMap<K, V> {
    fn heap_size(&self) -> usize {
        btree_entry_bytes(self.len(), std::mem::size_of::<(K, V)>())
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for BTreeSet<T> {
    fn heap_size(&self) -> usize {
        btree_entry_bytes(self.len(), std::mem::size_of::<T>())
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

/// A labelled memory report: structure name → bytes.
///
/// The harness sums these per phase to reproduce the paper's footprint
/// tables; `Display` renders a human-readable breakdown.
#[derive(Default, Debug, Clone)]
pub struct MemoryReport {
    entries: Vec<(&'static str, usize)>,
}

impl MemoryReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` for structure `name` (accumulates on repeat).
    pub fn add(&mut self, name: &'static str, bytes: usize) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 += bytes;
        } else {
            self.entries.push((name, bytes));
        }
    }

    /// Total bytes across all structures.
    pub fn total(&self) -> usize {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    /// Total in mebibytes.
    pub fn total_mib(&self) -> f64 {
        self.total() as f64 / (1024.0 * 1024.0)
    }

    /// Iterates `(name, bytes)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.entries.iter().copied()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &MemoryReport) {
        for (n, b) in other.iter() {
            self.add(n, b);
        }
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, bytes) in &self.entries {
            writeln!(
                f,
                "{name:>24}: {:>10.3} MiB",
                *bytes as f64 / (1024.0 * 1024.0)
            )?;
        }
        write!(f, "{:>24}: {:>10.3} MiB", "total", self.total_mib())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_heap_size_counts_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(v.heap_size(), 16 * 8);
    }

    #[test]
    fn nested_vec_counts_children() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4]];
        let inner: usize = v.iter().map(|x| x.capacity() * 4).sum();
        assert_eq!(
            v.heap_size(),
            v.capacity() * std::mem::size_of::<Vec<u32>>() + inner
        );
    }

    #[test]
    fn string_counts_bytes() {
        let s = String::from("abcd");
        assert!(s.heap_size() >= 4);
    }

    #[test]
    fn hashmap_nonzero_after_insert() {
        let mut m: HashMap<u32, u64> = HashMap::new();
        assert_eq!(m.heap_size(), 0);
        m.insert(1, 2);
        assert!(m.heap_size() > 0);
    }

    #[test]
    fn report_accumulates_and_totals() {
        let mut r = MemoryReport::new();
        r.add("index", 100);
        r.add("index", 50);
        r.add("stream", 25);
        assert_eq!(r.total(), 175);
        let mut other = MemoryReport::new();
        other.add("index", 20);
        other.add("other", 10);
        r.merge(&other);
        assert_eq!(r.total(), 205);
        let entries: Vec<_> = r.iter().collect();
        assert_eq!(entries, [("index", 170), ("stream", 25), ("other", 10)]);
    }

    #[test]
    fn report_display_mentions_total() {
        let mut r = MemoryReport::new();
        r.add("x", 1024 * 1024);
        let s = format!("{r}");
        assert!(s.contains("total"));
        assert!(s.contains("1.000 MiB"));
    }
}
