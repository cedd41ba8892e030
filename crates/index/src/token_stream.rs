//! The token stream `Ie` (paper §IV).
//!
//! Merges the per-query-element kNN sources through a priority queue of
//! size `|Q|`: the queue holds, for every query element, its next unseen
//! most-similar vocabulary token; popping the maximum yields the globally
//! next tuple and re-probes only that element's source. Tuples therefore
//! arrive in non-increasing similarity order, which is the property every
//! refinement bound relies on. The stream ends when the best remaining
//! similarity drops below `α` (sources enforce the cutoff).

use crate::knn::KnnSource;
use koios_common::TokenId;
use std::collections::BinaryHeap;

/// One stream element: query element `q_idx` (index into the query vector)
/// is similar to vocabulary token `token` with similarity `sim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTuple {
    /// Index of the query element in the query token vector.
    pub q_idx: u32,
    /// The vocabulary token.
    pub token: TokenId,
    /// Their similarity (`≥ α`).
    pub sim: f64,
}

#[derive(PartialEq)]
struct Entry {
    sim: f64,
    q_idx: u32,
    token: TokenId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sim
            .partial_cmp(&other.sim)
            .expect("similarities are never NaN")
            // Deterministic tie-break: lower q_idx, then lower token first.
            .then_with(|| other.q_idx.cmp(&self.q_idx))
            .then_with(|| other.token.cmp(&self.token))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The merged descending token stream.
pub struct TokenStream<K: KnnSource> {
    source: K,
    heap: BinaryHeap<Entry>,
    emitted: usize,
    last_sim: f64,
}

impl<K: KnnSource> TokenStream<K> {
    /// Builds the stream over `query_len` elements, probing each source once
    /// to fill the initial queue (the paper's initialisation step). Every
    /// element is probed here, so the source is first told to
    /// [prefetch](KnnSource::prefetch) them all: the exact sources then
    /// score the whole query in one vocabulary pass.
    pub fn new(mut source: K, query_len: usize) -> Self {
        source.prefetch(&(0..query_len).collect::<Vec<_>>());
        let mut heap = BinaryHeap::with_capacity(query_len);
        for q_idx in 0..query_len {
            if let Some((token, sim)) = source.next(q_idx) {
                heap.push(Entry {
                    sim,
                    q_idx: q_idx as u32,
                    token,
                });
            }
        }
        TokenStream {
            source,
            heap,
            emitted: 0,
            last_sim: f64::INFINITY,
        }
    }

    /// The next tuple in non-increasing similarity order.
    ///
    /// Named `next` deliberately (the stream is iterator-like but needs
    /// `&mut self` state the `Iterator` trait cannot capture cheaply).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<StreamTuple> {
        let top = self.heap.pop()?;
        // Refill from the popped element's source only (§IV).
        if let Some((token, sim)) = self.source.next(top.q_idx as usize) {
            self.heap.push(Entry {
                sim,
                q_idx: top.q_idx,
                token,
            });
        }
        debug_assert!(
            top.sim <= self.last_sim + 1e-12,
            "token stream order violated: {} after {}",
            top.sim,
            self.last_sim
        );
        self.last_sim = top.sim;
        self.emitted += 1;
        Some(StreamTuple {
            q_idx: top.q_idx,
            token: top.token,
            sim: top.sim,
        })
    }

    /// Number of tuples emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The merged kNN source (e.g. to read
    /// [`KnnSource::cache_counters`] after the stream was consumed).
    pub fn source(&self) -> &K {
        &self.source
    }

    /// Estimated heap bytes of the stream (queue + sources), for the memory
    /// experiments.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Entry>() + self.source.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::ExactScanKnn;
    use koios_common::TokenId;
    use koios_embed::repository::{Repository, RepositoryBuilder};
    use koios_embed::sim::{ElementSimilarity, QGramJaccard};
    use std::sync::Arc;

    fn setup(_alpha: f64) -> (Repository, Arc<dyn ElementSimilarity>, Vec<TokenId>) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["Blaine", "Charleston", "Columbia"]);
        b.add_set("s1", ["Blain", "Charlestown", "Columbias"]);
        b.add_set("s2", ["Blainey", "Charlton", "Col"]);
        let repo = b.build();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        let q = repo.intern_query(["Blaine", "Charleston"]);
        (repo, sim, q)
    }

    fn drain<K: KnnSource>(mut ts: TokenStream<K>) -> Vec<StreamTuple> {
        let mut out = Vec::new();
        while let Some(t) = ts.next() {
            out.push(t);
        }
        out
    }

    #[test]
    fn stream_is_descending() {
        let (repo, sim, q) = setup(0.2);
        let src = ExactScanKnn::new(sim, q.clone(), repo.vocab_size(), 0.2);
        let tuples = drain(TokenStream::new(src, q.len()));
        assert!(!tuples.is_empty());
        for w in tuples.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
    }

    #[test]
    fn stream_is_complete_vs_bruteforce() {
        let alpha = 0.2;
        let (repo, sim, q) = setup(alpha);
        let src = ExactScanKnn::new(sim.clone(), q.clone(), repo.vocab_size(), alpha);
        let tuples = drain(TokenStream::new(src, q.len()));
        // Oracle: every (q_idx, token) pair with sim >= alpha, plus the self
        // pair, appears exactly once.
        let mut expected = std::collections::HashSet::new();
        for (qi, &qt) in q.iter().enumerate() {
            for t in 0..repo.vocab_size() as u32 {
                let t = TokenId(t);
                let s = if t == qt { 1.0 } else { sim.sim(qt, t) };
                if s >= alpha || t == qt {
                    expected.insert((qi as u32, t));
                }
            }
        }
        let got: std::collections::HashSet<_> = tuples.iter().map(|t| (t.q_idx, t.token)).collect();
        assert_eq!(got.len(), tuples.len(), "duplicate tuples emitted");
        assert_eq!(got, expected);
    }

    #[test]
    fn self_tokens_emitted_first() {
        let (repo, sim, q) = setup(0.2);
        let src = ExactScanKnn::new(sim, q.clone(), repo.vocab_size(), 0.2);
        let tuples = drain(TokenStream::new(src, q.len()));
        // The first |Q| tuples all have similarity 1.0 and include each
        // query element matched to itself.
        let head: Vec<_> = tuples.iter().take(q.len()).collect();
        assert!(head.iter().all(|t| t.sim == 1.0));
        for (qi, &qt) in q.iter().enumerate() {
            assert!(
                head.iter().any(|t| t.q_idx == qi as u32 && t.token == qt),
                "self pair for query element {qi} missing from the head"
            );
        }
    }

    /// A source that only answers probes: `prefetch` is the no-op default.
    struct ProbeOnly<K>(K);

    impl<K: KnnSource> KnnSource for ProbeOnly<K> {
        fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
            self.0.next(q_idx)
        }
        fn heap_bytes(&self) -> usize {
            self.0.heap_bytes()
        }
    }

    #[test]
    fn prefetching_changes_no_tuple() {
        let (repo, sim, q) = setup(0.2);
        let source = || ExactScanKnn::new(sim.clone(), q.clone(), repo.vocab_size(), 0.2);
        let batched = drain(TokenStream::new(source(), q.len()));
        assert_eq!(
            batched,
            drain(TokenStream::new(ProbeOnly(source()), q.len()))
        );
    }

    #[test]
    fn empty_query_yields_empty_stream() {
        let (repo, sim, _) = setup(0.2);
        let src = ExactScanKnn::new(sim, Vec::new(), repo.vocab_size(), 0.2);
        let mut ts = TokenStream::new(src, 0);
        assert!(ts.next().is_none());
        assert_eq!(ts.emitted(), 0);
    }

    #[test]
    fn emitted_counter_tracks() {
        let (repo, sim, q) = setup(0.5);
        let src = ExactScanKnn::new(sim, q.clone(), repo.vocab_size(), 0.5);
        let mut ts = TokenStream::new(src, q.len());
        let mut n = 0;
        while ts.next().is_some() {
            n += 1;
            assert_eq!(ts.emitted(), n);
        }
    }
}
