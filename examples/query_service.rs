//! Serving layer demo: one engine, many concurrent queries.
//!
//! Generates a synthetic corpus, wraps a [`MutableEngine`] in a
//! [`SearchService`], and pushes a mixed workload through it: a concurrent
//! batch on the worker pool, repeated queries that hit the LRU result
//! cache, a per-request `k` override, and a deadline that rejects a
//! request before it runs. A slow-query log at a zero threshold records
//! every request, the rejected one included, and each of its lines joins
//! against the request's retained span tree. Finally the same service is rebuilt over a
//! *sharded* engine ([`MutableEngine::partitioned`], paper §VI) to
//! show that routing is backend-transparent: identical scores, same API.
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::prelude::*;
use koios::service::SlowQueryLog;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    // One corpus, embedded once — the service owns everything via Arcs.
    let corpus = Corpus::generate(CorpusSpec::small(42));
    let repo = Arc::new(corpus.repository);
    let embeddings = Arc::new(corpus.embeddings);

    let engine = MutableEngine::single(
        Arc::clone(&repo),
        Some(Arc::clone(&embeddings)),
        KoiosConfig::new(5, 0.8),
        cosine_factory(),
    )
    .expect("the corpus carries embeddings");
    // Every request crosses a zero threshold, so every one logs a line.
    let slow_lines = Arc::new(Mutex::new(Vec::<String>::new()));
    let sink = {
        let lines = Arc::clone(&slow_lines);
        Arc::new(move |line: &str| lines.lock().unwrap().push(line.to_string())) as _
    };
    let service = SearchService::from_mutable(
        engine,
        ServiceConfig::new()
            .with_workers(4)
            .with_cache_capacity(256)
            .with_slow_query_log(SlowQueryLog::new(Duration::ZERO, sink)),
    );
    println!(
        "service up: {} sets, {} workers, cache capacity 256\n",
        repo.num_sets(),
        service.workers()
    );

    // A batch of queries — every 3rd one repeats, so the cache earns its keep.
    let requests: Vec<SearchRequest> = (0..24)
        .map(|i| {
            let set = SetId((i % 8) as u32);
            SearchRequest::new(repo.set(set).to_vec())
        })
        .collect();
    let responses = service.search_batch(&requests);
    let hits = responses
        .iter()
        .filter(|r| r.cache == CacheOutcome::Hit)
        .count();
    println!("batch of {}: {} served from cache", responses.len(), hits);

    // Identical resubmission: everything is a hit now.
    let again = service.search_batch(&requests);
    let hits = again
        .iter()
        .filter(|r| r.cache == CacheOutcome::Hit)
        .count();
    println!(
        "resubmitted batch: {hits}/{} served from cache",
        again.len()
    );

    // Per-request override: top-1 instead of the engine's top-5 — a
    // different cache entry, no index rebuild.
    let narrow = service.search(SearchRequest::new(repo.set(SetId(0)).to_vec()).with_k(1));
    println!(
        "k=1 override: {} hit(s), outcome {:?}",
        narrow.result.hits.len(),
        narrow.cache
    );

    // Admission control: a request whose deadline already lapsed is
    // rejected without occupying a worker.
    let dead = service.search(
        SearchRequest::new(repo.set(SetId(3)).to_vec())
            .bypassing_cache()
            .with_time_budget(Duration::ZERO),
    );
    println!(
        "zero-budget request: rejected={}, timed_out={}",
        dead.rejected, dead.result.stats.timed_out
    );

    let stats = service.stats();
    println!(
        "\nservice stats: {} queries in {} batches — {} searched, {} cache hits \
         ({:.0}% hit rate), {} rejected",
        stats.queries,
        stats.batches,
        stats.searched,
        stats.cache_hits,
        100.0 * stats.cache_hit_rate(),
        stats.rejected,
    );
    let engine = stats.engine;
    println!(
        "engine totals: {} stream tuples, {} candidates, {} exact matchings, \
         {} No-EM certificates, {:.1?} cumulative engine time",
        engine.stream_tuples,
        engine.candidates,
        engine.em_full,
        engine.no_em,
        engine.cumulative_time,
    );

    // Model swap? Invalidate and the next identical query recomputes.
    service.invalidate_cache();
    let fresh = service.search(SearchRequest::new(repo.set(SetId(0)).to_vec()));
    println!(
        "after invalidation: outcome {:?} (cache refilled, len {})",
        fresh.cache,
        service.cache_len()
    );

    // The slow log and the traces are drawn from the same record: every
    // line's trace id resolves (the ring holds far more than these
    // requests), the zero-budget rejection's line among them.
    let lines = slow_lines.lock().unwrap();
    let trace_ids: Vec<u64> = lines
        .iter()
        .map(|line| {
            let json = Json::parse(line).expect("one JSON object per line");
            let hex = json.get("trace_id").and_then(|id| id.as_str()).unwrap();
            u64::from_str_radix(hex.trim_start_matches("0x"), 16).unwrap()
        })
        .collect();
    assert!(trace_ids.iter().all(|&id| service.trace(id).is_some()));
    assert!(trace_ids.contains(&dead.trace_id.expect("tracing is on by default")));
    println!(
        "slow log: {} lines, every trace_id resolves",
        trace_ids.len()
    );

    // Scale-out: the same service API over a sharded backend (§VI). Four
    // per-shard indexes search in parallel under one shared θlb; one token
    // cache serves every shard; deadlines bound shards *and* the merge.
    let engine = MutableEngine::partitioned(
        Arc::clone(&repo),
        Some(embeddings),
        KoiosConfig::new(5, 0.8),
        4,
        0xC0FFEE,
        cosine_factory(),
    )
    .expect("the corpus carries embeddings");
    let sharded = SearchService::from_mutable(
        engine,
        ServiceConfig::new()
            .with_workers(4)
            .with_cache_capacity(256),
    );
    let q = repo.set(SetId(0)).to_vec();
    let single_hits = fresh.result.hits;
    let sharded_resp = sharded.search(SearchRequest::new(q));
    // The single engine may report No-EM-certified interval scores (and
    // pick a different set among exact score ties); the partitioned merge
    // resolves everything to exact scores. Agreement check: rank by rank,
    // the sharded exact score falls inside the single engine's certified
    // interval.
    let sharded_hits = &sharded_resp.result.hits;
    let agree = single_hits.len() == sharded_hits.len()
        && single_hits.iter().zip(sharded_hits).all(|(a, b)| {
            b.score.ub() >= a.score.lb() - 1e-9 && b.score.ub() <= a.score.ub() + 1e-9
        });
    println!(
        "\nsharded service: {} partitions, top-k agrees with the single engine: {agree}",
        sharded.partitions(),
    );
}
