//! Operational behaviour: deadlines produce flagged partial results
//! (the paper's 2500 s query timeouts), and the memory report covers every
//! search structure of §VIII-D.

use koios::prelude::*;
use koios_core::overlap::semantic_overlap;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use koios_index::knn::ExactScanKnn;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A generated corpus's repository and the cosine similarity over its
/// embeddings.
fn corpus() -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
    let mut s = CorpusSpec::small(3001);
    s.num_sets = 300;
    s.vocab_size = 800;
    let c = Corpus::generate(s);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(c.embeddings)));
    (Arc::new(c.repository), sim)
}

#[test]
fn zero_budget_times_out_gracefully() {
    let (repo, sim) = corpus();
    let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8));
    let query = repo.set(SetId(0)).to_vec();
    let res = engine.search_with_deadline(&query, Some(Instant::now() + Duration::from_nanos(1)));
    assert!(res.stats.timed_out, "nanosecond budget must time out");
    // Partial results are still structurally sound (no duplicates, sorted).
    let mut ids = res.set_ids();
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n);
}

#[test]
fn generous_budget_never_times_out() {
    let (repo, sim) = corpus();
    let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8));
    let query = repo.set(SetId(1)).to_vec();
    let res = engine.search_with_deadline(&query, Some(Instant::now() + Duration::from_secs(300)));
    assert!(!res.stats.timed_out);
    assert_eq!(res.hits.len(), 5);
}

#[test]
fn memory_report_covers_both_phases() {
    let (repo, sim) = corpus();
    let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8));
    let query = repo.set(SetId(2)).to_vec();
    let res = engine.search(&query);
    let names: Vec<&str> = res.stats.memory.iter().map(|(n, _)| n).collect();
    for expected in [
        "token stream",
        "candidate states",
        "ub buckets",
        "top-k lb list",
        "query edges",
        "postprocess states",
        "ub priority queue",
        "top-k ub list",
        "inverted index",
    ] {
        assert!(names.contains(&expected), "missing structure: {expected}");
    }
    assert!(res.stats.memory.total() > 0);
    // The rendered report mentions a total line.
    assert!(format!("{}", res.stats.memory).contains("total"));
}

#[test]
fn stats_are_internally_consistent() {
    let (repo, sim) = corpus();
    let engine = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8));
    let query = repo.set(SetId(3)).to_vec();
    let s = engine.search(&query).stats;
    // Every candidate is pruned, survives to post-processing, or was a
    // discovery-time tombstone.
    assert_eq!(
        s.candidates,
        s.ub_filter_pruned + s.iub_pruned + s.to_postprocess,
        "candidate accounting must balance"
    );
    // Post-processing dispositions cannot exceed the sets that entered.
    assert!(
        s.no_em + s.em_early_terminated + s.em_full + s.postprocess_ub_pruned
            <= s.to_postprocess + s.em_full /* re-verification never happens */
    );
    assert!(s.response_time() >= s.refine_time);
}

fn has_query_edges(res: &SearchResult) -> bool {
    res.stats.memory.iter().any(|(n, _)| n == "query edges")
}

/// A deadline that stops refinement mid-stream leaves a *partial* α-graph:
/// the search must drop it (no `query edges`), verify nothing, and still
/// hand back certified intervals under an honest `timed_out`.
#[test]
fn deadline_in_refinement_drops_the_partial_edges() {
    let (repo, sim) = corpus();
    // α = 0.3 makes the stream longer than the 1024 tuples between two
    // deadline checks; the budget is gone before the first of them.
    let alpha = 0.3;
    let query = repo.set(SetId(0)).to_vec();
    let complete =
        Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(5, alpha)).search(&query);
    assert!(complete.stats.stream_tuples > 1024);
    assert!(has_query_edges(&complete));

    let engine = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(5, alpha));
    let res = engine.search_with_deadline(&query, Some(Instant::now() + Duration::from_nanos(1)));
    assert!(res.stats.timed_out);
    assert_eq!(res.stats.stream_tuples, 1024, "cut at the first check");
    assert!(!has_query_edges(&res), "a partial graph must not survive");
    assert_eq!(res.stats.em_full + res.stats.em_early_terminated, 0);
    assert_eq!(res.stats.verify_time, Duration::ZERO);
    assert!(!res.hits.is_empty());
    for hit in &res.hits {
        let ScoreBound::Range { lb, ub } = hit.score else {
            panic!("unverified hit {:?} reported as exact", hit.set);
        };
        // The greedy lower bound is a real matching over edges the stream
        // did emit, so it stays certified on a cut stream; the upper bound
        // charges every unseen row the last similarity emitted.
        let truth = semantic_overlap(&repo, sim.as_ref(), alpha, &query, hit.set);
        assert!(lb <= truth + 1e-9, "lb {lb} above SO {truth}");
        assert!(truth <= ub + 1e-9, "SO {truth} above ub {ub}");
    }
}

/// `parallel_em > 1` verifies on scoped threads that all read the one
/// `QueryEdges` of the search: same hits as the sequential edge path and
/// as the dense path, in the pull loop and in `verify_all`.
#[test]
fn parallel_verification_shares_the_query_edges() {
    let (repo, sim) = corpus();
    let query = repo.set(SetId(4)).to_vec();
    let mut exact = KoiosConfig::new(6, 0.7);
    exact.no_em_filter = false; // exact scores: hits comparable across schedules
    for cfg in [exact, KoiosConfig::new(6, 0.7).baseline()] {
        let seq = Koios::new(Arc::clone(&repo), sim.clone(), cfg.clone());
        let par = seq.with_config(cfg.clone().with_parallel_em(4));
        let (seq, par_edges) = (seq.search(&query), par.search(&query));
        let source = ExactScanKnn::new(sim.clone(), query.clone(), repo.vocab_size(), 0.7);
        let par_dense = par.search_with_source(query.clone(), source, &SharedTheta::new());
        assert!(has_query_edges(&par_edges) && !has_query_edges(&par_dense));
        assert_eq!(seq.hits.len(), 6);
        assert_eq!(par_edges.hits, seq.hits);
        assert_eq!(par_edges.hits, par_dense.hits);
    }
}

/// A partitioned search fetches one set of lists and builds one α-graph
/// for all its shards, so its memory report counts each once: the same
/// `query edges` as a single engine, and a `token stream` of the lists
/// plus one replay cursor per shard.
#[test]
fn partitioned_memory_counts_shared_structures_once() {
    let (repo, sim) = corpus();
    let cfg = KoiosConfig::new(5, 0.8);
    let query = repo.set(SetId(2)).to_vec();
    let bytes = |res: &SearchResult, name: &str| {
        res.stats
            .memory
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b)
            .unwrap_or_else(|| panic!("no {name} entry"))
    };
    let single = Koios::new(Arc::clone(&repo), sim.clone(), cfg.clone()).search(&query);
    let sharded = PartitionedKoios::new(Arc::clone(&repo), sim.clone(), cfg, 4, 7).search(&query);
    assert_eq!(single.set_ids(), sharded.set_ids());
    assert_eq!(
        bytes(&sharded, "query edges"),
        bytes(&single, "query edges")
    );

    let mut q = query.clone();
    q.sort_unstable();
    q.dedup();
    let lists = koios_index::knn::lists(sim.as_ref(), &q, repo.vocab_size(), 0.8, None).0;
    let lists = koios_index::knn::lists_heap_bytes(&lists);
    let cursor = bytes(&single, "token stream") - lists;
    assert!(lists > 0 && cursor > 0);
    assert_eq!(bytes(&sharded, "token stream"), lists + 4 * cursor);
}
