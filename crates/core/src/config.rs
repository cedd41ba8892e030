//! Search configuration.

use koios_index::knn_cache::TokenKnnCache;
use std::sync::Arc;

/// Tunable parameters of a Koios search.
#[derive(Debug, Clone)]
pub struct KoiosConfig {
    /// Number of results (`k`).
    pub k: usize,
    /// Element-similarity threshold `α` (edges below it weigh 0; Def. 1).
    pub alpha: f64,
    /// Enable the EM-Early-Terminated filter (Lemma 8). On by default.
    pub em_early_termination: bool,
    /// Enable the No-EM filter (Lemma 7). On by default. When disabled,
    /// every reported hit carries an exact score (useful for oracles).
    pub no_em_filter: bool,
    /// Enable the iUB bucket filter (§V). On by default; disabling it
    /// degrades refinement to the plain UB-filter (the `Baseline+`→Baseline
    /// spectrum of §VIII-A4).
    pub iub_filter: bool,
    /// Number of exact matchings verified concurrently during
    /// post-processing (1 = sequential; the paper uses a thread pool).
    pub parallel_em: usize,
    /// Verify **every** unpruned candidate with a full exact matching
    /// instead of pulling by upper bound — the cost model of the paper's
    /// exhaustive Baseline/Baseline+ (§VIII-A4). Off for Koios proper.
    pub verify_all: bool,
    /// Shared token-level kNN cache. When set, a search fetches its lists
    /// through it ([`koios_index::knn::lists`]), so complete per-element
    /// similarity lists are reused across searches that share query
    /// elements (same `(token, α)`). `None` (the default) scans fresh
    /// every time. Cloning a config shares the cache — sibling engines
    /// ([`crate::Koios::with_config`]) hit the same entries, which is
    /// sound because per-element lists are query-independent. A
    /// partitioned engine fetches once per query for all its shards.
    pub token_cache: Option<Arc<TokenKnnCache>>,
    /// Corpus epoch this engine serves. `0` for a freshly built corpus;
    /// the mutable engine (`crate::MutableEngine`) bumps it once per
    /// applied batch so every [`crate::SearchStats`] (and downstream
    /// slow-query log line) records which corpus version answered the
    /// query. Purely observational — the epoch never changes scores.
    pub epoch: u64,
    /// EXPLAIN mode: attach a [`crate::stats::FunnelCounts`] so the search's
    /// [`crate::SearchStats`] counters render as the per-stage funnel. Off
    /// by default; results and counters are identical either way — the
    /// flag only decides whether the per-probe posting lengths and the
    /// shard rows are recorded.
    pub explain: bool,
}

impl KoiosConfig {
    /// A configuration with the paper's defaults (`em_early_termination`,
    /// `no_em_filter`, `iub_filter` on; sequential EM).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `alpha` is not in `(0, 1]`.
    pub fn new(k: usize, alpha: f64) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        KoiosConfig {
            k,
            alpha,
            em_early_termination: true,
            no_em_filter: true,
            iub_filter: true,
            parallel_em: 1,
            verify_all: false,
            token_cache: None,
            epoch: 0,
            explain: false,
        }
    }

    /// Turns the EXPLAIN-mode funnel report on or off (builder style).
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Sets the corpus epoch stamped into every search's stats (builder
    /// style). Serving layers use this to correlate results with the
    /// corpus version that produced them.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the number of parallel exact matchings.
    pub fn with_parallel_em(mut self, n: usize) -> Self {
        self.parallel_em = n.max(1);
        self
    }

    /// Shares a token-level kNN cache with this engine (builder style).
    /// Results are unchanged — cached lists are complete and replayed in
    /// the exact emission order — only repeated per-element vocabulary
    /// scans are skipped.
    pub fn with_token_cache(mut self, cache: Arc<TokenKnnCache>) -> Self {
        self.token_cache = Some(cache);
        self
    }

    /// Disables all advanced filters — the exhaustive **Baseline** of
    /// §VIII-A4 (token stream + exact matching of every candidate).
    pub fn baseline(mut self) -> Self {
        self.em_early_termination = false;
        self.no_em_filter = false;
        self.iub_filter = false;
        self.verify_all = true;
        self
    }

    /// Baseline plus the iUB filter — the paper's **Baseline+**.
    pub fn baseline_plus(mut self) -> Self {
        self.em_early_termination = false;
        self.no_em_filter = false;
        self.iub_filter = true;
        self.verify_all = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_filters() {
        let c = KoiosConfig::new(10, 0.8);
        assert_eq!(c.k, 10);
        assert_eq!(c.alpha, 0.8);
        assert!(c.em_early_termination && c.no_em_filter && c.iub_filter);
        assert!(!c.verify_all);
        assert_eq!(c.parallel_em, 1);
    }

    #[test]
    fn baseline_disables_filters() {
        let c = KoiosConfig::new(5, 0.7).baseline();
        assert!(!c.em_early_termination && !c.no_em_filter && !c.iub_filter);
        assert!(c.verify_all);
        let cp = KoiosConfig::new(5, 0.7).baseline_plus();
        assert!(cp.iub_filter && !cp.no_em_filter && cp.verify_all);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        let _ = KoiosConfig::new(0, 0.8);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = KoiosConfig::new(1, 0.0);
    }

    #[test]
    fn builder_methods() {
        let c = KoiosConfig::new(1, 0.5).with_parallel_em(0);
        assert_eq!(c.parallel_em, 1); // clamped
        assert!(c.token_cache.is_none());
        assert_eq!(c.epoch, 0);
        assert!(!c.explain);
        assert!(c.clone().with_explain(true).explain);
        assert_eq!(c.with_epoch(7).epoch, 7);
    }

    #[test]
    fn token_cache_is_shared_by_clones() {
        let cache = Arc::new(TokenKnnCache::new(1 << 16));
        let c = KoiosConfig::new(1, 0.5).with_token_cache(Arc::clone(&cache));
        let d = c.clone();
        let (a, b) = (c.token_cache.unwrap(), d.token_cache.unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
