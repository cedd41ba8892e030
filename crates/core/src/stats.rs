//! Per-query instrumentation.
//!
//! Every counter maps to a column of the paper's evaluation tables:
//! `candidates` / `ub_filter_pruned` + `iub_pruned` / `no_em` /
//! `em_early_terminated` / `em_full` are Tables II, IV and V;
//! `refine_time` / `postprocess_time` are the phase-breakdown panels of
//! Figs. 5–7; `memory` feeds the footprint panels.

use koios_common::json::Json;
use koios_common::memsize::MemoryReport;
use koios_index::knn_cache::KnnCacheSearchStats;
use std::time::Duration;

/// EXPLAIN-mode funnel accounting: stage-by-stage candidate attrition for
/// one query, from token-stream discovery through the refinement filters
/// (Lemmas 2 and 4, §V) to verification (Lemmas 7–8) and the returned
/// top-k. Opt-in via [`crate::KoiosConfig::explain`] — when the flag is
/// off, [`SearchStats::funnel`] stays `None` and the hot paths pay one
/// predictable branch per counter site.
///
/// Counters that shadow an existing [`SearchStats`] field (e.g.
/// [`candidates_discovered`](Self::candidates_discovered) vs
/// [`SearchStats::candidates`]) are incremented at the *same* code sites,
/// so the two always reconcile exactly; the rest (posting lengths, theta
/// raises, matching effort, per-shard sub-funnels) exist only here.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FunnelCounts {
    /// Tuples consumed from the token stream `Ie` (mirrors
    /// [`SearchStats::stream_tuples`]).
    pub stream_tuples: usize,
    /// Distinct query tokens whose inverted-index posting lists were
    /// walked during candidate discovery.
    pub postings_probed: usize,
    /// Total posting entries touched across all probed lists.
    pub posting_entries_scanned: usize,
    /// Length of each posting list probed, in probe order — the raw
    /// material of the per-token fan-out histogram in an explain report.
    pub posting_lengths: Vec<usize>,
    /// Posting entries skipped because the set is tombstoned in the
    /// serving delta-chain (live engines only).
    pub tombstone_skips: usize,
    /// Distinct candidate sets discovered (mirrors
    /// [`SearchStats::candidates`]).
    pub candidates_discovered: usize,
    /// Candidates pruned at discovery by the UB-filter (mirrors
    /// [`SearchStats::ub_filter_pruned`]).
    pub ub_filter_pruned: usize,
    /// Candidates pruned by the bucketised iUB filter (mirrors
    /// [`SearchStats::iub_pruned`]).
    pub iub_pruned: usize,
    /// Times the running threshold `θlb` rose (lower-bound tightening
    /// iterations, Lemma 4).
    pub theta_raises: usize,
    /// Moves between iUB buckets (upper-bound tightening iterations;
    /// mirrors [`SearchStats::bucket_moves`]).
    pub bucket_moves: usize,
    /// Candidates surviving refinement into post-processing (mirrors
    /// [`SearchStats::to_postprocess`]).
    pub entered_postprocess: usize,
    /// Post-processing sets discarded because their upper bound fell under
    /// `θlb` (mirrors [`SearchStats::postprocess_ub_pruned`]).
    pub postprocess_ub_pruned: usize,
    /// Sets certified into the top-k without matching (mirrors
    /// [`SearchStats::no_em`]).
    pub no_em_certified: usize,
    /// Exact matchings aborted early (mirrors
    /// [`SearchStats::em_early_terminated`]).
    pub em_early_terminated: usize,
    /// Exact matchings run to completion, including merge-time
    /// verifications of a partitioned search (mirrors
    /// [`SearchStats::em_full`]).
    pub em_verified: usize,
    /// The subset of [`em_verified`](Self::em_verified) performed by the
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
    /// Hits returned to the caller.
    pub returned: usize,
    /// Query elements answered from the shared kNN cache (mirrors
    /// [`SearchStats::knn_cache`] hits).
    pub knn_cache_hits: usize,
    /// Query elements that scanned the vocabulary (mirrors
    /// [`SearchStats::knn_cache`] misses).
    pub knn_cache_misses: usize,
    /// Per-shard sub-funnels of a partitioned search, indexed by
    /// partition. Empty for single-engine searches.
    pub shards: Vec<ShardFunnel>,
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
    /// Summarizes a shard engine's funnel as one row of the partitioned
    /// report.
    pub fn from_counts(shard: usize, f: &FunnelCounts) -> Self {
        ShardFunnel {
            shard,
            stream_tuples: f.stream_tuples,
            candidates: f.candidates_discovered,
            ub_filter_pruned: f.ub_filter_pruned,
            iub_pruned: f.iub_pruned,
            entered_postprocess: f.entered_postprocess,
            no_em_certified: f.no_em_certified,
            em_early_terminated: f.em_early_terminated,
            em_verified: f.em_verified,
            returned: f.returned,
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("shard", Json::num(self.shard as f64)),
            ("stream_tuples", Json::num(self.stream_tuples as f64)),
            ("candidates", Json::num(self.candidates as f64)),
            ("ub_filter_pruned", Json::num(self.ub_filter_pruned as f64)),
            ("iub_pruned", Json::num(self.iub_pruned as f64)),
            (
                "entered_postprocess",
                Json::num(self.entered_postprocess as f64),
            ),
            ("no_em_certified", Json::num(self.no_em_certified as f64)),
            (
                "em_early_terminated",
                Json::num(self.em_early_terminated as f64),
            ),
            ("em_verified", Json::num(self.em_verified as f64)),
            ("returned", Json::num(self.returned as f64)),
        ])
    }
}

impl FunnelCounts {
    /// Folds another funnel into this one (partitioned aggregation):
    /// counters sum, posting lengths and shard rows concatenate.
    pub fn merge(&mut self, other: &FunnelCounts) {
        self.stream_tuples += other.stream_tuples;
        self.postings_probed += other.postings_probed;
        self.posting_entries_scanned += other.posting_entries_scanned;
        self.posting_lengths
            .extend_from_slice(&other.posting_lengths);
        self.tombstone_skips += other.tombstone_skips;
        self.candidates_discovered += other.candidates_discovered;
        self.ub_filter_pruned += other.ub_filter_pruned;
        self.iub_pruned += other.iub_pruned;
        self.theta_raises += other.theta_raises;
        self.bucket_moves += other.bucket_moves;
        self.entered_postprocess += other.entered_postprocess;
        self.postprocess_ub_pruned += other.postprocess_ub_pruned;
        self.no_em_certified += other.no_em_certified;
        self.em_early_terminated += other.em_early_terminated;
        self.em_verified += other.em_verified;
        self.merge_verifications += other.merge_verifications;
        self.matrix_cells += other.matrix_cells;
        self.support_cells += other.support_cells;
        self.returned += other.returned;
        self.knn_cache_hits += other.knn_cache_hits;
        self.knn_cache_misses += other.knn_cache_misses;
        self.shards.extend_from_slice(&other.shards);
    }

    /// The stage-by-stage survivor counts of the funnel diagram, top to
    /// bottom: discovered → surviving refinement → entering verification →
    /// resolved without full matching → verified exactly → returned.
    pub fn stages(&self) -> [(&'static str, usize); 6] {
        [
            ("discovered", self.candidates_discovered),
            (
                "survived_refinement",
                self.candidates_discovered
                    .saturating_sub(self.ub_filter_pruned + self.iub_pruned),
            ),
            ("entered_postprocess", self.entered_postprocess),
            (
                "resolved_without_matching",
                self.postprocess_ub_pruned + self.no_em_certified + self.em_early_terminated,
            ),
            ("verified_exactly", self.em_verified),
            ("returned", self.returned),
        ]
    }

    /// The full explain report as a JSON object — the single encoding used
    /// by the wire reply, the slow-query log and retained traces.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stream_tuples", Json::num(self.stream_tuples as f64)),
            ("postings_probed", Json::num(self.postings_probed as f64)),
            (
                "posting_entries_scanned",
                Json::num(self.posting_entries_scanned as f64),
            ),
            (
                "posting_lengths",
                Json::arr(self.posting_lengths.iter().map(|&l| Json::num(l as f64))),
            ),
            ("tombstone_skips", Json::num(self.tombstone_skips as f64)),
            (
                "candidates_discovered",
                Json::num(self.candidates_discovered as f64),
            ),
            ("ub_filter_pruned", Json::num(self.ub_filter_pruned as f64)),
            ("iub_pruned", Json::num(self.iub_pruned as f64)),
            ("theta_raises", Json::num(self.theta_raises as f64)),
            ("bucket_moves", Json::num(self.bucket_moves as f64)),
            (
                "entered_postprocess",
                Json::num(self.entered_postprocess as f64),
            ),
            (
                "postprocess_ub_pruned",
                Json::num(self.postprocess_ub_pruned as f64),
            ),
            ("no_em_certified", Json::num(self.no_em_certified as f64)),
            (
                "em_early_terminated",
                Json::num(self.em_early_terminated as f64),
            ),
            ("em_verified", Json::num(self.em_verified as f64)),
            (
                "merge_verifications",
                Json::num(self.merge_verifications as f64),
            ),
            ("matrix_cells", Json::num(self.matrix_cells as f64)),
            ("support_cells", Json::num(self.support_cells as f64)),
            ("returned", Json::num(self.returned as f64)),
            ("knn_cache_hits", Json::num(self.knn_cache_hits as f64)),
            ("knn_cache_misses", Json::num(self.knn_cache_misses as f64)),
            ("shards", Json::arr(self.shards.iter().map(|s| s.to_json()))),
        ])
    }

    /// A one-line summary (the slow-log / trace attachment): the funnel
    /// stages as `name=count` pairs.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, (name, count)) in self.stages().iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(name);
            out.push('=');
            out.push_str(&count.to_string());
        }
        out
    }
}

/// Counters and timings collected by one search.
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    /// Tuples consumed from the token stream `Ie`.
    pub stream_tuples: usize,
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
    /// Moves between iUB buckets (filter maintenance cost, §V).
    pub bucket_moves: usize,
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
    /// (empty for single-engine searches). Parallel merges take the
    /// element-wise max — shards of one query run concurrently — while
    /// sequential service aggregation sums element-wise into cumulative
    /// per-shard engine time.
    pub shard_times: Vec<Duration>,
    /// Whether the time budget expired (partial results). Sticky across
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
    /// engines always share their parent's epoch, and a service aggregate
    /// reports the newest corpus version that contributed.
    pub epoch: u64,
    /// Peak footprint of the search data structures.
    pub memory: MemoryReport,
    /// EXPLAIN-mode funnel report. `None` unless the query ran with
    /// [`crate::KoiosConfig::explain`] — the boxed indirection keeps the
    /// disabled path at one pointer of overhead.
    pub funnel: Option<Box<FunnelCounts>>,
}

impl SearchStats {
    /// The funnel accumulator when explain mode is on (`None` otherwise).
    /// Instrumentation sites use this so the disabled path is a single
    /// branch on a null pointer.
    #[inline]
    pub fn funnel_mut(&mut self) -> Option<&mut FunnelCounts> {
        self.funnel.as_deref_mut()
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
        merge_shard_times(&mut self.shard_times, &other.shard_times, |a, b| a.max(b));
        self.memory.merge(&other.memory);
    }

    /// Merges counters from another search run *after* this one (service
    /// aggregation across queries): timings add up — the total is
    /// cumulative engine time — while memory takes the per-label max, since
    /// each search's footprint is a transient snapshot of the same
    /// structures (summing snapshots across a service lifetime would read
    /// like an unbounded leak). Funnel reports are per-query diagnostics
    /// and are *not* folded — concatenating posting-length vectors across
    /// a service lifetime would grow without bound.
    pub fn merge_sequential(&mut self, other: &SearchStats) {
        self.merge_counters(other);
        self.refine_time += other.refine_time;
        self.postprocess_time += other.postprocess_time;
        self.verify_time += other.verify_time;
        self.merge_time += other.merge_time;
        self.executor_time += other.executor_time;
        merge_shard_times(&mut self.shard_times, &other.shard_times, |a, b| a + b);
        self.memory.max_merge(&other.memory);
    }

    fn merge_counters(&mut self, other: &SearchStats) {
        self.stream_tuples += other.stream_tuples;
        self.candidates += other.candidates;
        self.ub_filter_pruned += other.ub_filter_pruned;
        self.iub_pruned += other.iub_pruned;
        self.to_postprocess += other.to_postprocess;
        self.postprocess_ub_pruned += other.postprocess_ub_pruned;
        self.no_em += other.no_em;
        self.em_early_terminated += other.em_early_terminated;
        self.em_full += other.em_full;
        self.bucket_moves += other.bucket_moves;
        self.timed_out |= other.timed_out;
        self.knn_cache.merge(&other.knn_cache);
        self.epoch = self.epoch.max(other.epoch);
    }
}

/// Element-wise fold of per-shard timings, extending with the other side's
/// entries where lengths differ (e.g. folding a single-engine search into
/// a partitioned aggregate).
fn merge_shard_times(
    into: &mut Vec<Duration>,
    other: &[Duration],
    fold: impl Fn(Duration, Duration) -> Duration,
) {
    if into.len() < other.len() {
        into.resize(other.len(), Duration::ZERO);
    }
    for (a, &b) in into.iter_mut().zip(other.iter()) {
        *a = fold(*a, b);
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
        let funnel = |candidates: usize| {
            Some(Box::new(FunnelCounts {
                candidates_discovered: candidates,
                posting_lengths: vec![candidates],
                ..FunnelCounts::default()
            }))
        };
        let mut a = SearchStats {
            funnel: funnel(3),
            ..Default::default()
        };
        let b = SearchStats {
            funnel: funnel(4),
            ..Default::default()
        };
        a.merge_parallel(&b);
        let f = a.funnel.as_deref().unwrap();
        assert_eq!(f.candidates_discovered, 7);
        assert_eq!(f.posting_lengths, vec![3, 4]);

        // A funnel-less aggregate adopts the other side's report...
        let mut bare = SearchStats::default();
        bare.merge_parallel(&a);
        assert_eq!(bare.funnel.as_deref().unwrap().candidates_discovered, 7);
        // ...but sequential (service-lifetime) aggregation never folds it.
        let mut seq = SearchStats::default();
        seq.merge_sequential(&a);
        assert!(seq.funnel.is_none());
    }

    #[test]
    fn funnel_stages_and_summary_are_consistent() {
        let f = FunnelCounts {
            candidates_discovered: 100,
            ub_filter_pruned: 40,
            iub_pruned: 30,
            entered_postprocess: 30,
            postprocess_ub_pruned: 5,
            no_em_certified: 10,
            em_early_terminated: 5,
            em_verified: 10,
            returned: 10,
            ..FunnelCounts::default()
        };
        let stages = f.stages();
        assert_eq!(stages[0], ("discovered", 100));
        assert_eq!(stages[1], ("survived_refinement", 30));
        assert_eq!(stages[3], ("resolved_without_matching", 20));
        assert_eq!(stages[5], ("returned", 10));
        let summary = f.summary();
        assert!(summary.contains("discovered=100"), "{summary}");
        assert!(summary.contains("returned=10"), "{summary}");
        let json = f.to_json();
        assert_eq!(
            json.get("candidates_discovered").unwrap().as_u64(),
            Some(100)
        );
        assert_eq!(json.get("shards").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn merge_sequential_sums_counts_and_times() {
        let mut a = SearchStats {
            candidates: 10,
            refine_time: Duration::from_millis(30),
            postprocess_time: Duration::from_millis(5),
            verify_time: Duration::from_millis(2),
            merge_time: Duration::from_millis(1),
            shard_times: vec![Duration::from_millis(4)],
            ..Default::default()
        };
        let b = SearchStats {
            candidates: 5,
            refine_time: Duration::from_millis(50),
            postprocess_time: Duration::from_millis(10),
            verify_time: Duration::from_millis(3),
            merge_time: Duration::from_millis(2),
            shard_times: vec![Duration::from_millis(6), Duration::from_millis(8)],
            ..Default::default()
        };
        a.merge_sequential(&b);
        assert_eq!(a.candidates, 15);
        assert_eq!(a.refine_time, Duration::from_millis(80));
        assert_eq!(a.postprocess_time, Duration::from_millis(15));
        assert_eq!(a.verify_time, Duration::from_millis(5));
        assert_eq!(a.merge_time, Duration::from_millis(3));
        assert_eq!(
            a.shard_times,
            vec![Duration::from_millis(10), Duration::from_millis(8)]
        );
        assert!(!a.timed_out);
    }
}
