//! Partitioned (scale-out) search (paper §VI end, Fig. 7a).
//!
//! The repository is sharded pseudo-randomly into `p` partitions; each
//! partition runs a full Koios top-k search as a task on the shared
//! [`ShardExecutor`], and all partitions share the global monotone `θlb`
//! ([`SharedTheta`]) — a lower bound proven by any partition prunes
//! candidates in every other. The final result merges the `k·p` partial
//! results; hits certified by the No-EM filter (interval scores) are
//! verified exactly at merge time so the global ranking is well-defined.

use crate::config::KoiosConfig;
use crate::engine::{effective_deadline, Koios};
use crate::executor::ShardExecutor;
use crate::overlap::{semantic_overlap, semantic_overlap_bounded_with_effort};
use crate::result::{Hit, ScoreBound, SearchResult};
use crate::stats::{SearchStats, ShardFunnel};
use crate::theta::SharedTheta;
use koios_common::{profile, SetId, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_index::inverted::InvertedIndex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A Koios engine fanned out over `p` repository partitions.
///
/// Like [`Koios`], it shares ownership of its repository, so it is
/// `'static`: every query's shard searches run as tasks on the process-wide
/// [`ShardExecutor`], never on threads spawned per query.
#[derive(Clone)]
pub struct PartitionedKoios {
    repo: Arc<Repository>,
    sim: Arc<dyn ElementSimilarity>,
    cfg: KoiosConfig,
    indexes: Vec<Arc<InvertedIndex>>,
    seed: u64,
    /// One engine per shard, built once at partition build / snapshot load
    /// / reconfiguration time and reused by every request. They carry the
    /// partition's config with the relative `time_budget` cleared: shards
    /// receive the query's absolute deadline instead, so the budget is
    /// never double-applied per shard.
    engines: Vec<Arc<Koios>>,
}

/// Builds the per-shard engines of a partitioned engine.
fn shard_engines(
    repo: &Arc<Repository>,
    sim: &Arc<dyn ElementSimilarity>,
    cfg: &KoiosConfig,
    indexes: &[Arc<InvertedIndex>],
) -> Vec<Arc<Koios>> {
    let mut shard_cfg = cfg.clone();
    shard_cfg.time_budget = None;
    indexes
        .iter()
        .map(|index| {
            Arc::new(Koios::with_index(
                Arc::clone(repo),
                Arc::clone(sim),
                Arc::clone(index),
                shard_cfg.clone(),
            ))
        })
        .collect()
}

/// Deterministic pseudo-random partition of a set id. Delegates to the
/// workspace's single shard-assignment function so live-ingest routing
/// (`crate::MutableEngine`) and snapshot delta replay (`koios-store`)
/// structurally agree with build-time sharding.
fn partition_of(seed: u64, set: SetId, partitions: usize) -> usize {
    koios_common::fingerprint::partition_of(seed, set, partitions)
}

impl PartitionedKoios {
    /// Shards `repo` into `partitions` pieces (seeded, deterministic) and
    /// builds one inverted index per shard.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`.
    pub fn new(
        repo: Arc<Repository>,
        sim: Arc<dyn ElementSimilarity>,
        cfg: KoiosConfig,
        partitions: usize,
        seed: u64,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let mut shards: Vec<Vec<SetId>> = vec![Vec::new(); partitions];
        for (id, _) in repo.iter_sets() {
            shards[partition_of(seed, id, partitions)].push(id);
        }
        let indexes: Vec<Arc<InvertedIndex>> = shards
            .into_iter()
            .map(|sets| Arc::new(InvertedIndex::build_subset(&repo, sets)))
            .collect();
        let engines = shard_engines(&repo, &sim, &cfg, &indexes);
        PartitionedKoios {
            repo,
            sim,
            cfg,
            indexes,
            seed,
            engines,
        }
    }

    /// Wires up a partitioned engine over **pre-built** shard indexes — the
    /// snapshot warm-start path (`koios-store` restores each shard's
    /// inverted index bit-exactly, so no set assignment or index build runs
    /// here). `seed` records the shard-assignment seed the indexes were
    /// originally built with (observability only; the shard contents come
    /// from the indexes themselves).
    ///
    /// # Panics
    ///
    /// Panics if `indexes` is empty.
    pub fn from_indexes(
        repo: Arc<Repository>,
        sim: Arc<dyn ElementSimilarity>,
        cfg: KoiosConfig,
        indexes: Vec<Arc<InvertedIndex>>,
        seed: u64,
    ) -> Self {
        assert!(!indexes.is_empty(), "need at least one partition index");
        let engines = shard_engines(&repo, &sim, &cfg, &indexes);
        PartitionedKoios {
            repo,
            sim,
            cfg,
            indexes,
            seed,
            engines,
        }
    }

    /// The repository.
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// Shared ownership of the repository (an `Arc` bump).
    pub fn repository_arc(&self) -> Arc<Repository> {
        Arc::clone(&self.repo)
    }

    /// The engine configuration (shared by every shard search).
    pub fn config(&self) -> &KoiosConfig {
        &self.cfg
    }

    /// The similarity function.
    pub fn similarity(&self) -> &Arc<dyn ElementSimilarity> {
        &self.sim
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.indexes.len()
    }

    /// The per-shard inverted indexes, in shard order (what a snapshot
    /// serializes).
    pub fn indexes(&self) -> &[Arc<InvertedIndex>] {
        &self.indexes
    }

    /// The deterministic shard-assignment seed this engine was built with.
    pub fn partition_seed(&self) -> u64 {
        self.seed
    }

    /// A sibling over the same repository, similarity and shard indexes but
    /// a different configuration (no index rebuild — per-request `k`/`α`
    /// overrides in serving layers are this cheap, mirroring
    /// [`Koios::with_config`]; the shard engines are rebuilt from the
    /// shared indexes, which is a handful of `Arc` bumps per shard).
    pub fn with_config(&self, cfg: KoiosConfig) -> Self {
        let engines = shard_engines(&self.repo, &self.sim, &cfg, &self.indexes);
        PartitionedKoios {
            repo: Arc::clone(&self.repo),
            sim: Arc::clone(&self.sim),
            cfg,
            indexes: self.indexes.clone(),
            seed: self.seed,
            engines,
        }
    }

    /// The exact semantic overlap of `query` with one set (verification
    /// without any filtering; mirrors [`Koios::exact_overlap`]).
    pub fn exact_overlap(&self, query: &[TokenId], set: SetId) -> f64 {
        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();
        semantic_overlap(&self.repo, self.sim.as_ref(), self.cfg.alpha, &q, set)
    }

    /// Runs the query on all partitions in parallel and merges the results.
    ///
    /// The configuration's relative [`KoiosConfig::time_budget`] (when set)
    /// starts counting here and bounds shards *and* merge; see
    /// [`Self::search_with_deadline`] for the absolute-deadline variant
    /// serving layers use.
    pub fn search(&self, query: &[TokenId]) -> SearchResult {
        self.search_with_deadline(query, None)
    }

    /// Runs the query on all partitions in parallel, bounded by an
    /// *absolute* deadline, and merges the results deadline-safely.
    ///
    /// The deadline (combined with the configuration's relative
    /// `time_budget` — the earlier limit wins) is threaded through every
    /// shard search **and** the merge phase, so a request whose budget
    /// expires mid-merge stops doing exact-verification work immediately
    /// instead of burning unbounded time after timing out. Hits left
    /// unverified by an expiry keep their certified interval scores
    /// ([`ScoreBound::Range`]) and the result honestly reports
    /// `stats.timed_out = true`; complete runs return exact scores only.
    pub fn search_with_deadline(
        &self,
        query: &[TokenId],
        deadline: Option<Instant>,
    ) -> SearchResult {
        let deadline = effective_deadline(deadline, self.cfg.time_budget);
        // The pre-built shard engines already carry this partition's config
        // with the relative budget cleared; shards get the absolute
        // deadline directly, so it is not double-applied from each shard's
        // start time.
        let executor_start = Instant::now();
        // Shard tasks are `'static` and run on the process-wide executor: no
        // per-request thread spawn, and total search threads stay bounded
        // by core count across all in-flight requests. Per-shard wall time
        // is measured inside the task (the straggler breakdown
        // `ServiceStats`/`/metrics` surface per partition).
        let theta = Arc::new(SharedTheta::new());
        let query: Arc<[TokenId]> = Arc::from(query);
        let tasks: Vec<_> = self
            .engines
            .iter()
            .enumerate()
            .map(|(shard, engine)| {
                let engine = Arc::clone(engine);
                let theta = Arc::clone(&theta);
                let query = Arc::clone(&query);
                move || {
                    let _stage = profile::enter_shard(profile::Stage::Shard, shard);
                    let shard_start = Instant::now();
                    let result = engine.search_shared_deadline(&query, &theta, deadline);
                    (result, shard_start.elapsed())
                }
            })
            .collect();
        let partials: Vec<(SearchResult, Duration)> = ShardExecutor::global().run(tasks);
        // Submission → last partial back: shard queue wait + shard search
        // (the `executor` span of a request trace).
        let executor_time = executor_start.elapsed();

        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();

        let mut stats = SearchStats::default();
        let mut pool: Vec<Hit> = Vec::new();
        let mut shard_times = Vec::with_capacity(partials.len());
        // EXPLAIN mode: summarize each shard's counts as a sub-funnel row
        // before the parallel merge folds the per-shard totals together.
        let mut shard_rows: Vec<ShardFunnel> = Vec::new();
        for (shard, (partial, shard_time)) in partials.into_iter().enumerate() {
            if partial.stats.funnel.is_some() {
                shard_rows.push(ShardFunnel::from_stats(
                    shard,
                    &partial.stats,
                    partial.hits.len(),
                ));
            }
            stats.merge_parallel(&partial.stats);
            shard_times.push(shard_time);
            pool.extend(partial.hits);
        }
        // Assigned (not merged): each entry is one shard of *this* search.
        stats.shard_times = shard_times;
        stats.executor_time = executor_time;
        let merge_start = Instant::now();
        let merge_stage = profile::enter(profile::Stage::Merge);
        let hits = self.merge_partials(&q, pool, deadline, &mut stats);
        drop(merge_stage);
        stats.merge_time = merge_start.elapsed();
        if let Some(f) = stats.funnel_mut() {
            f.shards = shard_rows;
            f.returned = hits.len();
        }
        SearchResult { hits, stats }
    }

    /// Merges the `≤ k·p` partial hits into the global top-k.
    ///
    /// Partitions are disjoint, so every set appears at most once; the only
    /// merge-time work is resolving interval-scored hits (certified by the
    /// No-EM filter inside their shard) into exact scores so the global
    /// ranking is well-defined. Hits are verified lazily in descending
    /// upper-bound order, and verification stops early once the k-th best
    /// exact score dominates every remaining upper bound — at that point no
    /// unverified hit can enter the top-k. Before each verification the
    /// deadline is checked; on expiry the remaining hits keep their
    /// interval scores and `timed_out` is set.
    fn merge_partials(
        &self,
        q: &[TokenId],
        mut pool: Vec<Hit>,
        deadline: Option<Instant>,
        stats: &mut SearchStats,
    ) -> Vec<Hit> {
        // Descending UB, ties by set id — both the verification schedule
        // and the final report order. A hit's exact score can only be at or
        // below its UB, so once k exact scores strictly beat `pool[i].ub()`
        // the suffix from `i` is out.
        fn rank(a: &Hit, b: &Hit) -> std::cmp::Ordering {
            b.score
                .ub()
                .partial_cmp(&a.score.ub())
                .expect("scores are never NaN")
                .then_with(|| a.set.cmp(&b.set))
        }
        pool.sort_by(rank);

        let k = self.cfg.k;
        // The k best exact scores so far, ascending (element 0 is the bar
        // an unverified hit must clear).
        let mut best: Vec<f64> = Vec::with_capacity(k + 1);
        let mut resolved: Vec<Hit> = Vec::new();
        let mut merged: Vec<Hit> = Vec::new();
        for (i, hit) in pool.iter().enumerate() {
            if best.len() == k && best[0] > hit.score.ub() {
                // Top-k certain: every remaining UB sits strictly under the
                // k-th best exact score. Exact UB ties are still verified —
                // a tied hit with a smaller set id must win the final
                // tie-break exactly as it would in an exhaustive merge.
                break;
            }
            let exact = match hit.score {
                ScoreBound::Exact(s) => s,
                ScoreBound::Range { .. } => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Budget exhausted: no further exact matchings.
                        // Surface the suffix as certified intervals.
                        stats.timed_out = true;
                        merged.extend_from_slice(&pool[i..]);
                        break;
                    }
                    stats.em_full += 1; // merge-time verification
                    stats.merge_verifications += 1;
                    let verify_start = Instant::now();
                    let (outcome, effort) = semantic_overlap_bounded_with_effort(
                        &self.repo,
                        self.sim.as_ref(),
                        self.cfg.alpha,
                        q,
                        hit.set,
                        None,
                    );
                    stats.verify_time += verify_start.elapsed();
                    stats.matrix_cells += effort.matrix_cells;
                    stats.support_cells += effort.support_cells;
                    outcome.score()
                }
            };
            resolved.push(Hit {
                set: hit.set,
                score: ScoreBound::Exact(exact),
            });
            let at = best.partition_point(|&b| b < exact);
            best.insert(at, exact);
            if best.len() > k {
                best.remove(0);
            }
        }
        merged.append(&mut resolved);
        merged.sort_by(rank);
        merged.truncate(k);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;

    fn repo() -> Arc<Repository> {
        let mut b = RepositoryBuilder::new();
        for i in 0..40 {
            // Sets with progressively less overlap with {t0, t1, t2, t3}.
            let keep = 4 - (i % 4);
            let mut elems: Vec<String> = (0..keep).map(|j| format!("t{j}")).collect();
            for j in keep..4 {
                elems.push(format!("filler{i}-{j}"));
            }
            b.add_set(&format!("s{i}"), elems);
        }
        Arc::new(b.build())
    }

    #[test]
    fn partition_assignment_is_deterministic_and_total() {
        let r = repo();
        let p1 = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
            4,
            7,
        );
        let p2 = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
            4,
            7,
        );
        assert_eq!(p1.num_partitions(), 4);
        let total: usize = p1.indexes.iter().map(|i| i.total_postings()).sum();
        let total2: usize = p2.indexes.iter().map(|i| i.total_postings()).sum();
        assert_eq!(total, total2);
        assert_eq!(total, 40 * 4);
    }

    #[test]
    fn partitioned_matches_single_engine_scores() {
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let single = Koios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(5, 0.9),
        );
        let sres = single.search(&q);
        for parts in [1, 2, 3, 8] {
            let part = PartitionedKoios::new(
                Arc::clone(&r),
                Arc::new(EqualitySimilarity),
                KoiosConfig::new(5, 0.9),
                parts,
                42,
            );
            let pres = part.search(&q);
            assert_eq!(pres.hits.len(), sres.hits.len());
            // Scores (not necessarily ids — ties) must agree.
            let s_scores: Vec<f64> = sres.hits.iter().map(|h| h.score.ub()).collect();
            let p_scores: Vec<f64> = pres.hits.iter().map(|h| h.score.exact().unwrap()).collect();
            for (a, b) in s_scores.iter().zip(&p_scores) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "parts={parts}: {s_scores:?} vs {p_scores:?}"
                );
            }
        }
    }

    #[test]
    fn zero_budget_performs_no_merge_verification() {
        // Regression: merge-time exact verification used to run unbounded
        // `semantic_overlap` calls with no deadline, so an expired request
        // kept burning time after timing out.
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let part = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(4, 0.9).with_time_budget(std::time::Duration::ZERO),
            3,
            1,
        );
        let res = part.search(&q);
        assert!(res.stats.timed_out, "expired budget must be reported");
        assert_eq!(res.stats.em_full, 0, "no exact matchings after expiry");
    }

    fn range(set: u32, lb: f64, ub: f64) -> Hit {
        Hit {
            set: SetId(set),
            score: ScoreBound::Range { lb, ub },
        }
    }

    #[test]
    fn merge_stops_verifying_once_top_k_is_certain() {
        let r = repo();
        let part = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
            2,
            1,
        );
        let q = r.intern_query(["t0", "t1"]);
        let pool = vec![
            Hit {
                set: SetId(0),
                score: ScoreBound::Exact(2.0),
            },
            Hit {
                set: SetId(1),
                score: ScoreBound::Exact(1.9),
            },
            // Both UBs sit under the 2nd-best exact score: unreachable.
            range(2, 0.5, 1.5),
            range(3, 0.5, 1.2),
        ];
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 0, "unreachable hits must not be verified");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score.exact().is_some()));
        assert!(!stats.timed_out);
    }

    #[test]
    fn merge_verifies_ub_ties_for_deterministic_tie_break() {
        // Regression for the early-termination bound: a Range hit whose UB
        // exactly ties the k-th best exact score must still be verified —
        // if its exact score ties too, the smaller set id wins the final
        // tie-break, exactly as in an exhaustive merge. Sets 1 and 9 both
        // have exact overlap 3 with the query; set 9 hides behind a loose
        // UB of 5 and resolves first.
        let r = repo();
        let part = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(1, 0.9),
            2,
            1,
        );
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let pool = vec![range(9, 1.0, 5.0), range(1, 1.0, 3.0)];
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, None, &mut stats);
        assert_eq!(stats.em_full, 2, "the tied-UB hit must be verified");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].set, SetId(1), "smaller id wins the exact tie");
        assert_eq!(hits[0].score.exact(), Some(3.0));
    }

    #[test]
    fn merge_with_expired_deadline_keeps_ranges_and_flags_timeout() {
        let r = repo();
        let part = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(2, 0.9),
            2,
            1,
        );
        let q = r.intern_query(["t0", "t1"]);
        // Range hits whose UBs beat every exact score: the merge *wants* to
        // verify them, but the deadline has already passed.
        let pool = vec![
            range(2, 1.0, 4.0),
            range(3, 1.0, 3.5),
            Hit {
                set: SetId(0),
                score: ScoreBound::Exact(2.0),
            },
        ];
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let mut stats = SearchStats::default();
        let hits = part.merge_partials(&q, pool, Some(expired), &mut stats);
        assert!(stats.timed_out, "expiry mid-merge must be reported");
        assert_eq!(stats.em_full, 0, "no verification may run after expiry");
        // Partial answer: unverified hits survive with their intervals.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score.exact().is_none()));
    }

    #[test]
    fn search_reports_per_shard_and_merge_times() {
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let part = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(3, 0.9),
            3,
            1,
        );
        let res = part.search(&q);
        assert_eq!(res.stats.shard_times.len(), 3, "one timing per shard");
        assert!(res.stats.shard_times.iter().all(|&t| t > Duration::ZERO));
        // Each shard's wall time bounds the parallel-max phase timings.
        let slowest = *res.stats.shard_times.iter().max().unwrap();
        assert!(res.stats.refine_time <= slowest);
        // The merge ran (its wall clock was measured, however small).
        assert!(res.stats.merge_time > Duration::ZERO);
        // …and is part of the response time the wire reports.
        assert_eq!(
            res.stats.response_time(),
            res.stats.refine_time + res.stats.postprocess_time + res.stats.merge_time
        );
    }

    #[test]
    fn owned_engine_runs_on_the_executor_and_matches_borrowed() {
        // Shard searches run on the caller (the executor runs the first task
        // inline) or on `koios-shard-*` pool workers — never on threads
        // spawned per query, which are unnamed. A similarity that records
        // the thread each `scores_above` call runs on observes that.
        struct ThreadRecording {
            names: std::sync::Mutex<Vec<Option<String>>>,
        }
        impl ElementSimilarity for ThreadRecording {
            fn sim(&self, a: TokenId, b: TokenId) -> f64 {
                EqualitySimilarity.sim(a, b)
            }
            fn name(&self) -> &'static str {
                "thread-recording"
            }
            fn scores_above(
                &self,
                q: TokenId,
                vocab: usize,
                alpha: f64,
                out: &mut Vec<(f64, TokenId)>,
            ) {
                let name = std::thread::current().name().map(str::to_owned);
                self.names.lock().unwrap().push(name);
                EqualitySimilarity.scores_above(q, vocab, alpha, out);
            }
        }

        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let recording = Arc::new(ThreadRecording {
            names: std::sync::Mutex::new(Vec::new()),
        });
        let sim: Arc<dyn ElementSimilarity> = recording.clone();
        let cfg = KoiosConfig::new(5, 0.9);
        assert!(cfg.token_cache.is_none(), "every search must scan");
        // Same sets and scores; the merge resolves the single engine's
        // No-EM intervals (here all tight) into exact scores.
        let scored = |res: &SearchResult| -> Vec<(SetId, f64, f64)> {
            res.hits
                .iter()
                .map(|h| (h.set, h.score.lb(), h.score.ub()))
                .collect()
        };
        let expect = scored(&Koios::new(Arc::clone(&r), Arc::clone(&sim), cfg.clone()).search(&q));
        recording.names.lock().unwrap().clear();

        let built = PartitionedKoios::new(Arc::clone(&r), Arc::clone(&sim), cfg.clone(), 4, 42);
        let restored = PartitionedKoios::from_indexes(
            Arc::clone(&r),
            Arc::clone(&sim),
            cfg.clone(),
            built.indexes().to_vec(),
            42,
        );
        let reconfigured = built.with_config(cfg);
        for engine in [&built, &restored, &reconfigured] {
            let got = engine.search(&q);
            assert_eq!(scored(&got), expect);
            assert_eq!(got.stats.shard_times.len(), 4);
            assert!(got.stats.shard_times.iter().all(|&t| t > Duration::ZERO));
        }

        let own = std::thread::current().name().map(str::to_owned);
        let names = recording.names.lock().unwrap();
        assert!(!names.is_empty(), "the shards scanned the vocabulary");
        for name in names.iter() {
            // The executor lets every submitter help drain the shared queue,
            // so a test running concurrently may pick up one of these tasks
            // on its own thread, which the test harness names `…::tests::…`.
            assert!(
                *name == own
                    || name.as_deref().is_some_and(|n| {
                        n.starts_with("koios-shard-") || n.contains("::tests::")
                    }),
                "shard task ran on {name:?}, not the caller or an executor thread"
            );
        }
    }

    #[test]
    fn merged_hits_are_exact_and_sorted() {
        let r = repo();
        let q = r.intern_query(["t0", "t1", "t2", "t3"]);
        let part = PartitionedKoios::new(
            Arc::clone(&r),
            Arc::new(EqualitySimilarity),
            KoiosConfig::new(6, 0.9),
            3,
            1,
        );
        let res = part.search(&q);
        assert!(res.hits.iter().all(|h| h.score.exact().is_some()));
        for w in res.hits.windows(2) {
            assert!(w[0].score.ub() >= w[1].score.ub());
        }
    }
}
