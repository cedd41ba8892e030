//! Per-query instrumentation.
//!
//! Every counter maps to a column of the paper's evaluation tables:
//! `candidates` / `ub_filter_pruned` + `iub_pruned` / `no_em` /
//! `em_early_terminated` / `em_full` are Tables II, IV and V;
//! `refine_time` / `postprocess_time` are the phase-breakdown panels of
//! Figs. 5–7; `memory` feeds the footprint panels. The EXPLAIN funnel
//! ([`SearchStats::funnel_json`]) is a rendering of the same counters.

use koios_common::json::Json;
use koios_common::memsize::MemoryReport;
use koios_index::knn_cache::KnnCacheSearchStats;
use std::time::Duration;

/// What an EXPLAIN report needs beyond the counters every search keeps.
///
/// The funnel's counts — candidates, each filter's prunes, the matchings,
/// θ raises, matrix cells, kNN-cache hits — are plain [`SearchStats`]
/// fields, counted on every search; the report renders them. What is left
/// here allocates per probe (the posting lengths) or is read only by the
/// report (the hit count, the shard rows), so it exists only when the query
/// ran with [`crate::KoiosConfig::explain`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FunnelCounts {
    /// Length of the posting list probed for each stream tuple, in probe
    /// order — the raw material of the per-token fan-out histogram. A token
    /// similar to several query elements is probed once per element, so
    /// there is one entry per [`SearchStats::stream_tuples`].
    pub posting_lengths: Vec<usize>,
    /// Hits returned to the caller.
    pub returned: usize,
    /// Per-shard sub-funnels of a partitioned search, indexed by
    /// partition. Empty for single-engine searches.
    pub shards: Vec<ShardFunnel>,
}

impl FunnelCounts {
    /// Folds another funnel into this one (partitioned aggregation):
    /// posting lengths and shard rows concatenate, hit counts sum.
    pub fn merge(&mut self, other: &FunnelCounts) {
        self.posting_lengths
            .extend_from_slice(&other.posting_lengths);
        self.returned += other.returned;
        self.shards.extend_from_slice(&other.shards);
    }
}

/// One partition's contribution to a partitioned search's funnel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardFunnel {
    /// Partition index.
    pub shard: usize,
    /// Stream tuples this shard consumed.
    pub stream_tuples: usize,
    /// Candidates this shard discovered.
    pub candidates: usize,
    /// Discovery-time UB-filter prunes.
    pub ub_filter_pruned: usize,
    /// iUB bucket-filter prunes.
    pub iub_pruned: usize,
    /// Candidates entering the shard's post-processing.
    pub entered_postprocess: usize,
    /// No-EM certifications.
    pub no_em_certified: usize,
    /// Early-terminated matchings.
    pub em_early_terminated: usize,
    /// Completed matchings.
    pub em_verified: usize,
    /// Hits the shard offered to the merge.
    pub returned: usize,
}

impl ShardFunnel {
    /// Summarizes a shard engine's search, which offered `returned` hits to
    /// the merge, as one row of the partitioned report.
    pub fn from_stats(shard: usize, s: &SearchStats, returned: usize) -> Self {
        ShardFunnel {
            shard,
            stream_tuples: s.stream_tuples,
            candidates: s.candidates,
            ub_filter_pruned: s.ub_filter_pruned,
            iub_pruned: s.iub_pruned,
            entered_postprocess: s.to_postprocess,
            no_em_certified: s.no_em,
            em_early_terminated: s.em_early_terminated,
            em_verified: s.em_full,
            returned,
        }
    }

    fn to_json(self) -> Json {
        let num = |n: usize| Json::num(n as f64);
        Json::obj([
            ("shard", num(self.shard)),
            ("stream_tuples", num(self.stream_tuples)),
            ("candidates", num(self.candidates)),
            ("ub_filter_pruned", num(self.ub_filter_pruned)),
            ("iub_pruned", num(self.iub_pruned)),
            ("entered_postprocess", num(self.entered_postprocess)),
            ("no_em_certified", num(self.no_em_certified)),
            ("em_early_terminated", num(self.em_early_terminated)),
            ("em_verified", num(self.em_verified)),
            ("returned", num(self.returned)),
        ])
    }
}

/// Counters and timings collected by one search.
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    /// Tuples consumed from the token stream `Ie`.
    pub stream_tuples: usize,
    /// Posting entries skipped because the set is tombstoned in the
    /// serving delta-chain (live engines only).
    pub tombstone_skips: usize,
    /// Distinct candidate sets discovered (non-zero semantic overlap).
    pub candidates: usize,
    /// Candidates pruned at discovery by the UB-filter (Lemma 2).
    pub ub_filter_pruned: usize,
    /// Candidates pruned by the bucketised iUB filter during refinement
    /// (including the end-of-stream upper-bound collapse).
    pub iub_pruned: usize,
    /// Candidates entering the post-processing phase.
    pub to_postprocess: usize,
    /// Post-processing sets discarded lazily because their upper bound fell
    /// under `θlb` before any matching was attempted.
    pub postprocess_ub_pruned: usize,
    /// Sets certified into the top-k *without* exact matching (Lemma 7).
    pub no_em: usize,
    /// Exact matchings aborted by the label-sum filter (Lemma 8).
    pub em_early_terminated: usize,
    /// Exact matchings run to completion. For a partitioned search this
    /// also counts merge-time verifications of interval-scored hits
    /// (see [`crate::PartitionedKoios::search_with_deadline`]) — after a deadline
    /// expiry the merge performs none, so a timed-out partitioned search
    /// reports exactly the matchings that ran before the budget lapsed.
    pub em_full: usize,
    /// The subset of [`em_full`](Self::em_full) performed by the
    /// partitioned merge loop on interval-scored hits (§VI).
    pub merge_verifications: usize,
    /// Similarity-matrix cells materialised by verification. A matching
    /// built from the stream's edges ([`crate::overlap::QueryEdges`] — the
    /// engine's own searches, every shard included) materialises only its
    /// non-zero support, so it adds the same number here as to
    /// [`support_cells`](Self::support_cells); a dense matching
    /// (caller-provided source, deadline-cut stream, the partitioned merge
    /// loop) fills all `|Q| × |C|` cells.
    pub matrix_cells: u64,
    /// Support-graph cells the bounded Hungarian actually relaxed.
    pub support_cells: u64,
    /// Moves between iUB buckets (filter maintenance cost, §V).
    pub bucket_moves: usize,
    /// Times the running threshold `θlb` rose — a lower bound or exact
    /// score entered the top-k lower-bound list (Lemma 4).
    pub theta_raises: usize,
    /// Wall time of the refinement phase.
    pub refine_time: Duration,
    /// Wall time of the post-processing phase.
    pub postprocess_time: Duration,
    /// Wall time spent inside exact-matching **verification** (the paper's
    /// "verify" stage: Hungarian runs, early-terminated or complete, plus
    /// the bounded overlaps of `verify_all` mode). A strict subset of
    /// `postprocess_time` for a single-engine search; a partitioned search
    /// adds its merge-loop verifications here too.
    pub verify_time: Duration,
    /// Wall time of the partitioned merge loop (resolving interval-scored
    /// hits in descending-UB order, §VI). Zero for single-engine searches.
    pub merge_time: Duration,
    /// Wall time the [`crate::ShardExecutor`] batch held the query: from
    /// submitting the per-shard tasks until the last shard's partial result
    /// returned (covers shard queue wait *and* shard search). Zero for
    /// single-engine searches. Feeds the `executor` span of a request
    /// trace.
    pub executor_time: Duration,
    /// Per-shard wall time of a partitioned search, indexed by partition
    /// (empty for single-engine searches). Merges take the element-wise
    /// max — shards of one query run concurrently.
    pub shard_times: Vec<Duration>,
    /// Whether the deadline expired (partial results). Sticky across
    /// merges: a partitioned search is timed out if *any* shard — or the
    /// merge loop itself — observed the expiry.
    pub timed_out: bool,
    /// Token-level kNN cache effectiveness (all zeros when the engine runs
    /// without a [`crate::KoiosConfig::token_cache`]): how many query
    /// elements were answered from shared cached lists instead of scanning
    /// the vocabulary, and how many payload bytes those lists served.
    pub knn_cache: KnnCacheSearchStats,
    /// Corpus epoch of the engine that answered the query
    /// ([`crate::KoiosConfig::epoch`]). Merges take the max — shard
    /// engines always share their parent's epoch.
    pub epoch: u64,
    /// Peak footprint of the search data structures.
    pub memory: MemoryReport,
    /// EXPLAIN-mode extras: the per-probe posting lengths, the hit count
    /// and the shard rows. `None` unless the query ran with
    /// [`crate::KoiosConfig::explain`]; it decides whether the funnel
    /// renders, while the counts it renders are the fields above. The
    /// boxed indirection keeps the disabled path at one pointer.
    pub funnel: Option<Box<FunnelCounts>>,
}

impl SearchStats {
    /// The EXPLAIN extras when explain mode is on (`None` otherwise) —
    /// the few sites that fill them branch on a null pointer.
    #[inline]
    pub fn funnel_mut(&mut self) -> Option<&mut FunnelCounts> {
        self.funnel.as_deref_mut()
    }

    /// The stage-by-stage survivor counts of the funnel diagram, top to
    /// bottom: discovered → surviving refinement → entering verification →
    /// resolved without full matching → verified exactly → returned.
    /// `None` unless the query ran with explain.
    pub fn funnel_stages(&self) -> Option<[(&'static str, usize); 6]> {
        let f = self.funnel.as_deref()?;
        Some([
            ("discovered", self.candidates),
            (
                "survived_refinement",
                self.candidates
                    .saturating_sub(self.ub_filter_pruned + self.iub_pruned),
            ),
            ("entered_postprocess", self.to_postprocess),
            (
                "resolved_without_matching",
                self.postprocess_ub_pruned + self.no_em + self.em_early_terminated,
            ),
            ("verified_exactly", self.em_full),
            ("returned", f.returned),
        ])
    }

    /// The full explain report as a JSON object — the single encoding used
    /// by the wire reply. `None` unless the query ran with explain.
    ///
    /// Two keys are derived from the posting lengths: `postings_probed` is
    /// their count — one probe per stream tuple, so a token similar to
    /// several query elements counts once per element and the key always
    /// equals `stream_tuples` — and `posting_entries_scanned` their sum.
    pub fn funnel_json(&self) -> Option<Json> {
        let f = self.funnel.as_deref()?;
        let num = |n: usize| Json::num(n as f64);
        Some(Json::obj([
            ("stream_tuples", num(self.stream_tuples)),
            ("postings_probed", num(f.posting_lengths.len())),
            (
                "posting_entries_scanned",
                num(f.posting_lengths.iter().sum()),
            ),
            (
                "posting_lengths",
                Json::arr(f.posting_lengths.iter().map(|&l| num(l))),
            ),
            ("tombstone_skips", num(self.tombstone_skips)),
            ("candidates_discovered", num(self.candidates)),
            ("ub_filter_pruned", num(self.ub_filter_pruned)),
            ("iub_pruned", num(self.iub_pruned)),
            ("theta_raises", num(self.theta_raises)),
            ("bucket_moves", num(self.bucket_moves)),
            ("entered_postprocess", num(self.to_postprocess)),
            ("postprocess_ub_pruned", num(self.postprocess_ub_pruned)),
            ("no_em_certified", num(self.no_em)),
            ("em_early_terminated", num(self.em_early_terminated)),
            ("em_verified", num(self.em_full)),
            ("merge_verifications", num(self.merge_verifications)),
            ("matrix_cells", Json::num(self.matrix_cells as f64)),
            ("support_cells", Json::num(self.support_cells as f64)),
            ("returned", num(f.returned)),
            ("knn_cache_hits", num(self.knn_cache.hits)),
            ("knn_cache_misses", num(self.knn_cache.misses)),
            ("shards", Json::arr(f.shards.iter().map(|s| s.to_json()))),
        ]))
    }

    /// A one-line summary (the slow-log / trace attachment): the funnel
    /// stages as `name=count` pairs. `None` unless the query ran with
    /// explain.
    pub fn funnel_summary(&self) -> Option<String> {
        let stages = self.funnel_stages()?;
        let pairs: Vec<String> = stages
            .iter()
            .map(|(name, count)| format!("{name}={count}"))
            .collect();
        Some(pairs.join(" "))
    }

    /// Total wall time across phases: refinement, post-processing and —
    /// on a partitioned search, where it runs after the shards return —
    /// the merge loop (zero on a single engine).
    pub fn response_time(&self) -> Duration {
        self.refine_time + self.postprocess_time + self.merge_time
    }

    /// Fraction of candidates pruned during refinement (the paper's
    /// "iUB-Filter" pruning-power column folds the discovery-time UB-filter
    /// into the refinement count).
    pub fn refinement_prune_ratio(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        (self.ub_filter_pruned + self.iub_pruned) as f64 / self.candidates as f64
    }

    /// Fraction of post-processing sets resolved without a completed exact
    /// matching (No-EM certified or early-terminated).
    pub fn postprocess_prune_ratio(&self) -> f64 {
        if self.to_postprocess == 0 {
            return 0.0;
        }
        (self.no_em + self.em_early_terminated + self.postprocess_ub_pruned) as f64
            / self.to_postprocess as f64
    }

    /// Merges counters from another search (used when aggregating partition
    /// stats; timings take the max, since partitions run in parallel, and
    /// memory adds up, since partition footprints coexist).
    pub fn merge_parallel(&mut self, other: &SearchStats) {
        self.merge_counters(other);
        if let Some(theirs) = other.funnel.as_deref() {
            match self.funnel.as_deref_mut() {
                Some(mine) => mine.merge(theirs),
                None => self.funnel = Some(Box::new(theirs.clone())),
            }
        }
        self.refine_time = self.refine_time.max(other.refine_time);
        self.postprocess_time = self.postprocess_time.max(other.postprocess_time);
        self.verify_time = self.verify_time.max(other.verify_time);
        self.merge_time = self.merge_time.max(other.merge_time);
        self.executor_time = self.executor_time.max(other.executor_time);
        max_shard_times(&mut self.shard_times, &other.shard_times);
        self.memory.merge(&other.memory);
    }

    fn merge_counters(&mut self, other: &SearchStats) {
        self.stream_tuples += other.stream_tuples;
        self.tombstone_skips += other.tombstone_skips;
        self.candidates += other.candidates;
        self.ub_filter_pruned += other.ub_filter_pruned;
        self.iub_pruned += other.iub_pruned;
        self.to_postprocess += other.to_postprocess;
        self.postprocess_ub_pruned += other.postprocess_ub_pruned;
        self.no_em += other.no_em;
        self.em_early_terminated += other.em_early_terminated;
        self.em_full += other.em_full;
        self.merge_verifications += other.merge_verifications;
        self.matrix_cells += other.matrix_cells;
        self.support_cells += other.support_cells;
        self.bucket_moves += other.bucket_moves;
        self.theta_raises += other.theta_raises;
        self.timed_out |= other.timed_out;
        self.knn_cache.merge(&other.knn_cache);
        self.epoch = self.epoch.max(other.epoch);
    }
}

/// Element-wise max of per-shard timings, extending with the other side's
/// entries where lengths differ.
fn max_shard_times(into: &mut Vec<Duration>, other: &[Duration]) {
    if into.len() < other.len() {
        into.resize(other.len(), Duration::ZERO);
    }
    for (a, &b) in into.iter_mut().zip(other.iter()) {
        *a = (*a).max(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = SearchStats::default();
        assert_eq!(s.refinement_prune_ratio(), 0.0);
        assert_eq!(s.postprocess_prune_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = SearchStats {
            candidates: 100,
            ub_filter_pruned: 30,
            iub_pruned: 50,
            to_postprocess: 20,
            no_em: 5,
            em_early_terminated: 5,
            em_full: 10,
            ..Default::default()
        };
        assert!((s.refinement_prune_ratio() - 0.8).abs() < 1e-12);
        assert!((s.postprocess_prune_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_parallel_sums_counts_and_maxes_times() {
        let mut a = SearchStats {
            candidates: 10,
            refine_time: Duration::from_millis(30),
            verify_time: Duration::from_millis(4),
            shard_times: vec![Duration::from_millis(9)],
            epoch: 3,
            ..Default::default()
        };
        let b = SearchStats {
            candidates: 5,
            refine_time: Duration::from_millis(50),
            verify_time: Duration::from_millis(2),
            merge_time: Duration::from_millis(3),
            shard_times: vec![Duration::from_millis(5), Duration::from_millis(7)],
            timed_out: true,
            epoch: 2,
            ..Default::default()
        };
        a.merge_parallel(&b);
        assert_eq!(a.candidates, 15);
        assert_eq!(a.epoch, 3);
        assert_eq!(a.refine_time, Duration::from_millis(50));
        assert_eq!(a.verify_time, Duration::from_millis(4));
        assert_eq!(a.merge_time, Duration::from_millis(3));
        assert_eq!(
            a.shard_times,
            vec![Duration::from_millis(9), Duration::from_millis(7)]
        );
        assert!(a.timed_out);
    }

    #[test]
    fn funnel_merges_parallel_but_not_sequential() {
        let explained = |candidates: usize| SearchStats {
            candidates,
            theta_raises: 1,
            funnel: Some(Box::new(FunnelCounts {
                posting_lengths: vec![candidates],
                ..FunnelCounts::default()
            })),
            ..Default::default()
        };
        let rendered = |s: &SearchStats, key: &str| {
            s.funnel_json()
                .and_then(|j| j.get(key).and_then(Json::as_u64))
        };
        let mut a = explained(3);
        a.merge_parallel(&explained(4));
        assert_eq!(rendered(&a, "candidates_discovered"), Some(7));
        assert_eq!(rendered(&a, "theta_raises"), Some(2));
        assert_eq!(rendered(&a, "postings_probed"), Some(2));
        assert_eq!(rendered(&a, "posting_entries_scanned"), Some(7));
        assert_eq!(a.funnel.as_deref().unwrap().posting_lengths, vec![3, 4]);

        // A funnel-less aggregate adopts the other side's report.
        let mut bare = SearchStats::default();
        bare.merge_parallel(&a);
        assert_eq!(rendered(&bare, "candidates_discovered"), Some(7));
    }

    #[test]
    fn funnel_stages_and_summary_are_consistent() {
        let mut s = SearchStats {
            candidates: 100,
            ub_filter_pruned: 40,
            iub_pruned: 30,
            to_postprocess: 30,
            postprocess_ub_pruned: 5,
            no_em: 10,
            em_early_terminated: 5,
            em_full: 10,
            ..Default::default()
        };
        // Without explain the counts exist but nothing renders.
        assert!(s.funnel_stages().is_none());
        assert!(s.funnel_summary().is_none());
        assert!(s.funnel_json().is_none());

        s.funnel = Some(Box::new(FunnelCounts {
            returned: 10,
            ..FunnelCounts::default()
        }));
        let stages = s.funnel_stages().unwrap();
        assert_eq!(stages[0], ("discovered", 100));
        assert_eq!(stages[1], ("survived_refinement", 30));
        assert_eq!(stages[3], ("resolved_without_matching", 20));
        assert_eq!(stages[5], ("returned", 10));
        let summary = s.funnel_summary().unwrap();
        assert!(summary.starts_with("discovered=100 "), "{summary}");
        assert!(summary.ends_with(" returned=10"), "{summary}");
        let json = s.funnel_json().unwrap();
        assert_eq!(
            json.get("candidates_discovered").unwrap().as_u64(),
            Some(100)
        );
        assert_eq!(json.get("no_em_certified").unwrap().as_u64(), Some(10));
        assert_eq!(json.get("returned").unwrap().as_u64(), Some(10));
        assert_eq!(json.get("shards").unwrap().as_array().unwrap().len(), 0);
    }
}
