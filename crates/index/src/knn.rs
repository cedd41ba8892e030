//! Per-query-element kNN sources over the vocabulary.
//!
//! The paper plugs a GPU Faiss index into the token stream; any index that
//! returns, for a query element, the vocabulary tokens in exact descending
//! similarity order can take its place (§IV: "K OIOS returns an exact
//! solution as long as the index returns exact results"). The exact
//! implementation is [`ExactScanKnn`]: it scores the whole vocabulary for a
//! query element, keeps everything `≥ α`, and sorts it once; probes pop
//! from the sorted list.
//! [`TokenStream::new`](crate::token_stream::TokenStream::new) probes every
//! element, so every element is scored up front: a search that prunes
//! early saves only the pops it never makes, not the scan.
//!
//! It scores every element the stream [prefetches](KnnSource::prefetch) in
//! one [`ElementSimilarity::scores_above_many`] call — one blocked pass over
//! the vocabulary for the whole query instead of one pass per element. An
//! element probed without a prefetch is scored alone.
//!
//! It honours the stream contract of §V: the **query element itself is the
//! first result of its own probe** (similarity 1), which seeds the bounds
//! with the vanilla overlap and covers out-of-vocabulary elements.

use koios_common::{HeapSize, TokenId};
use koios_embed::sim::ElementSimilarity;
use std::sync::Arc;

/// A source of descending-similarity `(token, sim)` pairs per query element.
pub trait KnnSource {
    /// The next most similar unseen vocabulary token for query element
    /// `q_idx` (an index into the query token vector), or `None` once all
    /// tokens with similarity `≥ α` are exhausted.
    fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)>;

    /// Announces that the elements `q_idxs` will all be probed, so a
    /// source can do their work together ([`ExactScanKnn`] scores them in
    /// one vocabulary pass). [`TokenStream::new`] calls it with every
    /// element before its initial probes. A hint: the default does
    /// nothing, and [`Self::next`] must work whether or not it was called.
    ///
    /// [`TokenStream::new`]: crate::token_stream::TokenStream::new
    fn prefetch(&mut self, q_idxs: &[usize]) {
        let _ = q_idxs;
    }

    /// Estimated heap bytes held by the source (for the memory experiments).
    fn heap_bytes(&self) -> usize;

    /// Token-cache effectiveness of this source, if it is (or wraps) a
    /// [`CachedKnn`](crate::knn_cache::CachedKnn). Plain sources report
    /// `None`; the engine folds `Some` counters into its `SearchStats`.
    fn cache_counters(&self) -> Option<crate::knn_cache::KnnCacheSearchStats> {
        None
    }
}

/// Exact scan source with fully sorted per-element lists (computed at the
/// prefetch, or else on the first probe, of each element).
pub struct ExactScanKnn {
    sim: Arc<dyn ElementSimilarity>,
    query: Vec<TokenId>,
    vocab: usize,
    alpha: f64,
    lists: Vec<Option<SortedList>>,
}

struct SortedList {
    /// Descending by similarity, ties by ascending token id.
    items: Vec<(f64, TokenId)>,
    pos: usize,
}

impl ExactScanKnn {
    /// Creates a source for `query` over a vocabulary of `vocab` tokens.
    pub fn new(
        sim: Arc<dyn ElementSimilarity>,
        query: Vec<TokenId>,
        vocab: usize,
        alpha: f64,
    ) -> Self {
        let lists = (0..query.len()).map(|_| None).collect();
        ExactScanKnn {
            sim,
            query,
            vocab,
            alpha,
            lists,
        }
    }
}

impl KnnSource for ExactScanKnn {
    fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
        if self.lists[q_idx].is_none() {
            self.prefetch(&[q_idx]);
        }
        let list = self.lists[q_idx].as_mut().expect("scored by the prefetch");
        let &(s, t) = list.items.get(list.pos)?;
        list.pos += 1;
        Some((t, s))
    }

    /// Fills every still-unscored element among `q_idxs` with its list —
    /// all vocabulary tokens with `simα(q, t) ≥ α`, the query token itself
    /// always included (sim 1.0) — scoring them all in one
    /// [`ElementSimilarity::scores_above_many`] call.
    fn prefetch(&mut self, q_idxs: &[usize]) {
        let missing: Vec<usize> = q_idxs
            .iter()
            .copied()
            .filter(|&i| self.lists[i].is_none())
            .collect();
        if missing.is_empty() {
            return;
        }
        let qs: Vec<TokenId> = missing.iter().map(|&i| self.query[i]).collect();
        let mut outs = vec![Vec::new(); qs.len()];
        self.sim
            .scores_above_many(&qs, self.vocab, self.alpha, &mut outs);
        for (i, mut items) in missing.into_iter().zip(outs) {
            items.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("similarities are never NaN")
                    .then_with(|| a.1.cmp(&b.1))
            });
            self.lists[i] = Some(SortedList { items, pos: 0 });
        }
    }

    fn heap_bytes(&self) -> usize {
        self.query.heap_size()
            + self
                .lists
                .iter()
                .flatten()
                .map(|l| l.items.capacity() * std::mem::size_of::<(f64, TokenId)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::QGramJaccard;

    fn setup() -> (Arc<dyn ElementSimilarity>, Vec<TokenId>, usize) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s", ["Blaine", "Blain", "Blainey", "Zurich", "Zurch"]);
        let repo = b.build();
        let q = repo.intern_query(["Blaine", "Zurich"]);
        let vocab = repo.vocab_size();
        let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
        (sim, q, vocab)
    }

    fn drain(src: &mut dyn KnnSource, q_idx: usize) -> Vec<(TokenId, f64)> {
        let mut out = Vec::new();
        while let Some(x) = src.next(q_idx) {
            out.push(x);
        }
        out
    }

    #[test]
    fn first_result_is_self_token() {
        let (sim, q, vocab) = setup();
        let q0 = q[0];
        let mut src = ExactScanKnn::new(sim, q, vocab, 0.3);
        let (t, s) = src.next(0).unwrap();
        assert_eq!(t, q0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn results_descend_and_respect_alpha() {
        let (sim, q, vocab) = setup();
        let mut src = ExactScanKnn::new(sim, q, vocab, 0.3);
        for q_idx in 0..2 {
            let items = drain(&mut src, q_idx);
            assert!(!items.is_empty());
            for w in items.windows(2) {
                assert!(w[0].1 >= w[1].1, "descending order violated");
            }
            for (i, &(_, s)) in items.iter().enumerate() {
                if i > 0 {
                    assert!(s >= 0.3, "sub-alpha similarity leaked: {s}");
                }
            }
        }
    }

    #[test]
    fn exhausted_source_stays_exhausted() {
        let (sim, q, vocab) = setup();
        let mut src = ExactScanKnn::new(sim, q, vocab, 0.99);
        let items = drain(&mut src, 0);
        // Only the self token survives a 0.99 threshold.
        assert_eq!(items.len(), 1);
        assert!(src.next(0).is_none());
        assert!(src.next(0).is_none());
    }

    #[test]
    fn heap_bytes_nonzero_after_probe() {
        let (sim, q, vocab) = setup();
        let mut src = ExactScanKnn::new(sim, q, vocab, 0.1);
        src.next(0);
        assert!(src.heap_bytes() > 0);
    }
}
