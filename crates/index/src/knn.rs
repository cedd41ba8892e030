//! Per-query-element kNN lists over the vocabulary.
//!
//! The paper plugs a GPU Faiss index into the token stream; any index that
//! returns, for a query element, the vocabulary tokens in exact descending
//! similarity order can take its place (§IV: "K OIOS returns an exact
//! solution as long as the index returns exact results"). The exact
//! implementation fetches every element's list up front: [`lists`] scores
//! the whole vocabulary for all query elements in one
//! [`ElementSimilarity::scores_above_many`] call — one blocked pass over
//! the vocabulary for the whole query — keeps everything `≥ α`, and sorts
//! each list once. A search that prunes early saves only the pops it never
//! makes, not the scan. With a [`TokenKnnCache`], the fetch replays every
//! cached list that covers the vocabulary, scans only the misses, and
//! publishes each scanned list at once: a fetched list is complete by
//! construction.
//!
//! [`ExactScanKnn`] replays fetched lists as a [`KnnSource`] for the
//! [`TokenStream`](crate::token_stream::TokenStream). A list honours the
//! stream contract of §V: the **query element itself is its first entry**
//! (similarity 1), which seeds the bounds with the vanilla overlap and
//! covers out-of-vocabulary elements.

use crate::knn_cache::{Key, KnnCacheSearchStats, TokenKnnCache};
use koios_common::TokenId;
use koios_embed::sim::ElementSimilarity;
use std::sync::Arc;

/// A source of descending-similarity `(token, sim)` pairs per query element.
pub trait KnnSource {
    /// The next most similar unseen vocabulary token for query element
    /// `q_idx` (an index into the query token vector), or `None` once all
    /// tokens with similarity `≥ α` are exhausted.
    fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)>;

    /// Estimated heap bytes held by the source (for the memory experiments).
    fn heap_bytes(&self) -> usize;
}

/// A complete per-element kNN list: `(similarity, token)` descending by
/// similarity, ties by ascending token id — every vocabulary token with
/// `simα(q, t) ≥ α`, the query token itself always included (sim 1.0).
pub type KnnList = Arc<Vec<(f64, TokenId)>>;

/// The complete list of every element of `query` over the vocabulary
/// `0..vocab`, in query order, and what the token cache did for them.
///
/// With `cache` — the shared cache and this similarity's tag in it
/// ([`TokenKnnCache::sim_tag`]) — every element whose entry covers `vocab`
/// is replayed, the misses are scanned in one
/// [`ElementSimilarity::scores_above_many`] call, and each scanned list is
/// published under the generation read on entry: a
/// [`TokenKnnCache::bump_generation`] during the scan rejects the inserts,
/// never the lists returned. Without a cache every element is scanned and
/// the counters stay 0.
pub fn lists(
    sim: &dyn ElementSimilarity,
    query: &[TokenId],
    vocab: usize,
    alpha: f64,
    cache: Option<(&TokenKnnCache, u64)>,
) -> (Vec<KnnList>, KnnCacheSearchStats) {
    let mut stats = KnnCacheSearchStats::default();
    let cache = cache.map(|(cache, sim_tag)| (cache, cache.generation(), sim_tag));
    let key = |token, generation, sim_tag| Key::new(token, alpha, generation, sim_tag);
    let mut lists: Vec<Option<KnnList>> = query
        .iter()
        .map(|&token| {
            let (cache, generation, sim_tag) = cache?;
            let hit = cache.replay(&key(token, generation, sim_tag), sim, vocab);
            match &hit {
                Some(list) => {
                    stats.hits += 1;
                    stats.bytes_served += list.len() * std::mem::size_of::<(f64, TokenId)>();
                }
                None => stats.misses += 1,
            }
            hit
        })
        .collect();
    let misses: Vec<usize> = (0..query.len()).filter(|&i| lists[i].is_none()).collect();
    if !misses.is_empty() {
        let qs: Vec<TokenId> = misses.iter().map(|&i| query[i]).collect();
        let mut outs = vec![Vec::new(); qs.len()];
        sim.scores_above_many(&qs, vocab, alpha, &mut outs);
        for (i, mut items) in misses.into_iter().zip(outs) {
            items.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("similarities are never NaN")
                    .then_with(|| a.1.cmp(&b.1))
            });
            // The cache charges capacity: keep it at the length.
            items.shrink_to_fit();
            let list = Arc::new(items);
            if let Some((cache, generation, sim_tag)) = cache {
                let published =
                    cache.publish(key(query[i], generation, sim_tag), Arc::clone(&list), vocab);
                stats.inserted += usize::from(published);
            }
            lists[i] = Some(list);
        }
    }
    let lists = lists
        .into_iter()
        .map(|l| l.expect("replayed or scanned"))
        .collect();
    (lists, stats)
}

/// Replays complete per-element lists ([`lists`]) as a [`KnnSource`].
pub struct ExactScanKnn {
    lists: Arc<[KnnList]>,
    pos: Vec<usize>,
}

impl ExactScanKnn {
    /// A source for `query` over a vocabulary of `vocab` tokens: scans
    /// every element now ([`lists`] without a cache).
    pub fn new(
        sim: Arc<dyn ElementSimilarity>,
        query: Vec<TokenId>,
        vocab: usize,
        alpha: f64,
    ) -> Self {
        Self::replay(lists(sim.as_ref(), &query, vocab, alpha, None).0.into())
    }

    /// A source replaying `lists`, one per query element (shared, e.g.
    /// by the shards of a partitioned search).
    pub fn replay(lists: Arc<[KnnList]>) -> Self {
        let pos = vec![0; lists.len()];
        ExactScanKnn { lists, pos }
    }
}

impl KnnSource for ExactScanKnn {
    fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
        let pos = &mut self.pos[q_idx];
        let &(s, t) = self.lists[q_idx].get(*pos)?;
        *pos += 1;
        Some((t, s))
    }

    /// The cursor, plus the lists when this cursor alone holds them. Lists
    /// shared between cursors (the shards of a partitioned search) are
    /// counted once by the search that shares them.
    fn heap_bytes(&self) -> usize {
        let lists = if Arc::strong_count(&self.lists) == 1 {
            lists_heap_bytes(&self.lists)
        } else {
            0
        };
        self.pos.capacity() * std::mem::size_of::<usize>() + lists
    }
}

/// The heap bytes of `lists`, counted in full whether or not the token
/// cache shares them: they are live memory a search keeps reachable.
pub fn lists_heap_bytes(lists: &[KnnList]) -> usize {
    lists
        .iter()
        .map(|l| l.capacity() * std::mem::size_of::<(f64, TokenId)>())
        .sum()
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
