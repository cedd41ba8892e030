//! End-to-end tests for request-scoped tracing: wire-propagated trace
//! context, the `GET /traces` endpoint, slow-log ↔ trace joinability, and
//! result determinism under traced concurrency.

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::embed::vectors::Embeddings;
use koios::net::client::KoiosClient;
use koios::net::server::KoiosServer;
use koios::prelude::*;
use koios::service::SlowQueryLog;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn corpus_parts() -> (Arc<Repository>, Arc<Embeddings>) {
    let corpus = Corpus::generate(CorpusSpec::small(23));
    (Arc::new(corpus.repository), Arc::new(corpus.embeddings))
}

fn partitioned_service(
    repo: &Arc<Repository>,
    emb: &Arc<Embeddings>,
    cfg: ServiceConfig,
) -> SearchService {
    let engine = MutableEngine::partitioned(
        Arc::clone(repo),
        Some(Arc::clone(emb)),
        KoiosConfig::new(5, 0.8),
        4,
        13,
        cosine_factory(),
    );
    SearchService::from_mutable(engine.unwrap(), cfg.with_workers(2).with_cache_capacity(64))
}

fn hex_to_id(s: &str) -> u64 {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex trace id")
}

/// The tentpole acceptance criterion: a client-minted trace context rides
/// a `traceparent` header through `POST /search` on a partitioned backend,
/// and `GET /traces?id=…` returns a span tree — recorded under the
/// *client's* id, rooted at the client's span — covering queue, executor,
/// per-shard search, refine, verify, merge, and serialize.
#[test]
fn wire_propagated_trace_yields_a_full_span_tree() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(partitioned_service(&repo, &emb, ServiceConfig::new()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();

    let ctx = TraceContext::new(0xC0FF_EE00_DEAD_BEEF);
    let mut client = KoiosClient::new(server.addr()).with_traceparent(ctx.render_traceparent());

    let body = Json::obj([
        (
            "tokens",
            Json::arr(repo.set(SetId(0)).iter().map(|t| Json::num(t.0 as f64))),
        ),
        ("bypass_cache", Json::Bool(true)),
    ]);
    let (status, reply) = client.search(&body).unwrap();
    assert_eq!(status, 200, "{reply}");
    let echoed = reply.get("trace_id").unwrap().as_str().unwrap();
    assert_eq!(
        hex_to_id(echoed),
        ctx.trace_id,
        "server must record under the propagated id"
    );

    let (status, tree) = client.trace(ctx.trace_id).unwrap();
    assert_eq!(status, 200, "sampled-flag context must be retained: {tree}");
    assert_eq!(
        hex_to_id(tree.get("trace_id").unwrap().as_str().unwrap()),
        ctx.trace_id
    );
    let spans = tree.get("spans").unwrap().as_array().unwrap();
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for expect in [
        "request",
        "queue",
        "search",
        "executor",
        "shard",
        "refine",
        "postprocess",
        "verify",
        "merge",
        "serialize",
    ] {
        assert!(names.contains(&expect), "missing span {expect}: {names:?}");
    }
    // The root is parented to the client's own span: this server-side tree
    // is a subtree of the remote caller's trace.
    let root = &spans[0];
    assert_eq!(root.get("name").unwrap().as_str(), Some("request"));
    assert_eq!(
        hex_to_id(root.get("parent").unwrap().as_str().unwrap()),
        ctx.parent_span
    );
    // One shard span per partition, each tagged with its shard id.
    let shards: Vec<u64> = spans
        .iter()
        .filter(|s| s.get("name").unwrap().as_str() == Some("shard"))
        .map(|s| s.get("shard").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(shards, vec![0, 1, 2, 3]);

    // The listing endpoint knows about it too.
    let (status, listing) = client.traces().unwrap();
    assert_eq!(status, 200);
    assert_eq!(listing.get("enabled").unwrap().as_bool(), Some(true));
    assert!(
        listing
            .get("stats")
            .unwrap()
            .get("retained")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    let ids: Vec<u64> = listing
        .get("traces")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|t| hex_to_id(t.get("trace_id").unwrap().as_str().unwrap()))
        .collect();
    assert!(ids.contains(&ctx.trace_id), "{ids:?}");

    // Unknown ids are clean 404s, not dangling references.
    let (status, _) = client.trace(0x1).unwrap();
    assert_eq!(status, 404);
}

/// Every slow-log line must carry a `trace_id` that resolves against the
/// trace ring (the slow-log threshold doubles as a retention rule), plus
/// the retained tree's depth.
#[test]
fn slow_log_lines_join_against_retained_traces() {
    let (repo, emb) = corpus_parts();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let lines = Arc::clone(&lines);
        Arc::new(move |line: &str| lines.lock().unwrap().push(line.to_string())) as _
    };
    // Threshold zero: every request is "slow", so every line must join.
    let cfg = ServiceConfig::new().with_slow_query_log(SlowQueryLog::new(Duration::ZERO, sink));
    let service = partitioned_service(&repo, &emb, cfg);

    for set in 0..4u32 {
        let resp = service.search(SearchRequest::new(repo.set(SetId(set)).to_vec()));
        assert!(resp.trace_id.is_some());
    }
    // One cache hit to cover the flat-trace shape as well.
    service.search(SearchRequest::new(repo.set(SetId(0)).to_vec()));

    let lines = lines.lock().unwrap();
    assert_eq!(lines.len(), 5);
    for line in lines.iter() {
        let json = Json::parse(line).unwrap();
        let id = hex_to_id(json.get("trace_id").unwrap().as_str().unwrap());
        let trace = service
            .trace(id)
            .unwrap_or_else(|| panic!("unretained slow trace {line}"));
        assert!(trace.slow, "{line}");
        assert!(trace.well_formed(), "{line}");
        assert_eq!(
            json.get("trace_depth").unwrap().as_u64().unwrap(),
            trace.depth() as u64,
            "{line}"
        );
    }
}

/// Eight threads hammer a traced, profiled service (the defaults); the
/// answers must be byte-identical to the sequential answers of a service
/// with tracing and the profiler both switched off, and every retained
/// trace must be a well-formed tree.
#[test]
fn traced_concurrency_diverges_nowhere_and_keeps_trees_well_formed() {
    let (repo, emb) = corpus_parts();
    let traced = Arc::new(partitioned_service(
        &repo,
        &emb,
        ServiceConfig::new().with_tracing(TraceConfig::default()),
    ));
    let untraced = partitioned_service(
        &repo,
        &emb,
        ServiceConfig::new().without_tracing().without_profiler(),
    );
    assert!(traced.profiler().is_some() && untraced.profiler().is_none());

    let queries: Vec<Vec<TokenId>> = (0..8).map(|i| repo.set(SetId(i)).to_vec()).collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            let resp = untraced.search(SearchRequest::new(q.clone()).bypassing_cache());
            assert_eq!(resp.trace_id, None, "untraced service must not mint ids");
            resp.result.hits
        })
        .collect();

    std::thread::scope(|sc| {
        for t in 0..8 {
            let traced = &traced;
            let queries = &queries;
            let expected = &expected;
            sc.spawn(move || {
                for round in 0..4 {
                    for (q, want) in queries.iter().zip(expected) {
                        let resp = traced.search(SearchRequest::new(q.clone()).bypassing_cache());
                        assert_eq!(
                            &resp.result.hits, want,
                            "thread {t} round {round}: traced result diverged"
                        );
                        assert!(resp.trace_id.is_some());
                    }
                }
            });
        }
    });

    let stats = traced.trace_stats().unwrap();
    assert_eq!(stats.completed, 8 * 4 * 8, "every request was offered");
    let retained = traced.traces();
    assert_eq!(stats.stored, retained.len());
    for trace in &retained {
        assert!(trace.well_formed(), "malformed tree {:#?}", trace);
        assert!(trace.duration_ns > 0);
    }
}

/// Tracing can be switched off entirely: no ids in responses and `409`
/// from the HTTP endpoint, while searches keep working.
#[test]
fn disabled_tracing_is_inert_over_http() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(partitioned_service(
        &repo,
        &emb,
        ServiceConfig::new().without_tracing(),
    ));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client =
        KoiosClient::new(server.addr()).with_traceparent(TraceContext::new(7).render_traceparent());

    let body = Json::obj([(
        "tokens",
        Json::arr(repo.set(SetId(0)).iter().map(|t| Json::num(t.0 as f64))),
    )]);
    let (status, reply) = client.search(&body).unwrap();
    assert_eq!(status, 200);
    assert!(reply.get("trace_id").unwrap().as_str().is_none());
    let (status, _) = client.traces().unwrap();
    assert_eq!(status, 409);
}
