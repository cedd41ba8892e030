//! End-to-end tests for the `koios-net` HTTP front-end: a remote client
//! must get byte-for-byte the scores an in-process `SearchService::search`
//! call produces, on either engine backend; framing and payload errors
//! must answer clean 4xx JSON instead of dropping the connection silently.

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::embed::vectors::Embeddings;
use koios::net::client::KoiosClient;
use koios::net::server::KoiosServer;
use koios::prelude::*;
use koios_index::knn::ExactScanKnn;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

/// An object's keys, in wire order.
fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

fn corpus_parts() -> (Arc<Repository>, Arc<Embeddings>) {
    let corpus = Corpus::generate(CorpusSpec::small(11));
    (Arc::new(corpus.repository), Arc::new(corpus.embeddings))
}

fn single_service(
    repo: &Arc<Repository>,
    emb: &Arc<Embeddings>,
    factory: &SimFactory,
) -> SearchService {
    let cfg = KoiosConfig::new(5, 0.8);
    let engine = MutableEngine::single(
        Arc::clone(repo),
        Some(Arc::clone(emb)),
        cfg,
        Arc::clone(factory),
    );
    SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new().with_workers(2).with_cache_capacity(64),
    )
}

fn partitioned_service(
    repo: &Arc<Repository>,
    emb: &Arc<Embeddings>,
    factory: &SimFactory,
) -> SearchService {
    let cfg = KoiosConfig::new(5, 0.8);
    let engine = MutableEngine::partitioned(
        Arc::clone(repo),
        Some(Arc::clone(emb)),
        cfg,
        4,
        13,
        Arc::clone(factory),
    );
    SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new().with_workers(2).with_cache_capacity(64),
    )
}

/// The acceptance criterion of the subsystem: an HTTP client runs a top-k
/// search end-to-end against a server backed by *either* `EngineBackend`
/// variant and sees scores identical to calling the service in-process.
#[test]
fn http_search_matches_in_process_on_both_backends() {
    let (repo, emb) = corpus_parts();
    for (label, service) in [
        ("single", single_service(&repo, &emb, &cosine_factory())),
        (
            "partitioned",
            partitioned_service(&repo, &emb, &cosine_factory()),
        ),
    ] {
        let service = Arc::new(service);
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = KoiosClient::new(server.addr());

        for set in 0..6u32 {
            let tokens = repo.set(SetId(set)).to_vec();
            let in_process = service
                .search(SearchRequest::new(tokens.clone()).bypassing_cache())
                .result;
            let body = Json::obj([
                (
                    "tokens",
                    Json::arr(tokens.iter().map(|t| Json::num(t.0 as f64))),
                ),
                ("bypass_cache", Json::Bool(true)),
            ]);
            let (status, reply) = client.search(&body).unwrap();
            assert_eq!(status, 200, "{label}: {reply}");
            let hits = reply.get("hits").unwrap().as_array().unwrap();
            assert_eq!(hits.len(), in_process.hits.len(), "{label} set {set}");
            for (wire, want) in hits.iter().zip(&in_process.hits) {
                assert_eq!(
                    wire.get("set").unwrap().as_u64(),
                    Some(want.set.0 as u64),
                    "{label} set {set}"
                );
                assert_eq!(
                    wire.get("name").unwrap().as_str(),
                    Some(repo.set_name(want.set)),
                    "{label} set {set}"
                );
                let lb = wire.get("lb").unwrap().as_f64().unwrap();
                let ub = wire.get("ub").unwrap().as_f64().unwrap();
                assert!(
                    (lb - want.score.lb()).abs() < 1e-9 && (ub - want.score.ub()).abs() < 1e-9,
                    "{label} set {set}: wire ({lb}, {ub}) != engine ({}, {})",
                    want.score.lb(),
                    want.score.ub()
                );
            }
            assert_eq!(reply.get("rejected").unwrap().as_bool(), Some(false));
        }
        if label == "partitioned" {
            // `response_ms` covers the merge loop: it is at least the
            // `merge` span the same request's trace reports.
            let ctx = TraceContext::new(0x4A);
            let mut traced =
                KoiosClient::new(server.addr()).with_traceparent(ctx.render_traceparent());
            let (_, reply) = traced
                .search_elements(&[repo.token_str(TokenId(0))])
                .unwrap();
            let (status, tree) = traced.trace(ctx.trace_id).unwrap();
            assert_eq!(status, 200, "{tree}");
            let merge_ns = tree
                .get("spans")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .find(|s| s.get("name").unwrap().as_str() == Some("merge"))
                .and_then(|s| s.get("duration_ns").unwrap().as_f64())
                .expect("a partitioned search records a merge span");
            assert!(reply.get("response_ms").unwrap().as_f64().unwrap() * 1e6 >= merge_ns);
        }
    }
}

/// String elements intern server-side exactly like `intern_query` (unknown
/// strings dropped), and per-request k overrides work over the wire.
#[test]
fn element_queries_and_overrides_work_over_http() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());

    // Use a real set's element strings as the query.
    let elements: Vec<String> = repo
        .set(SetId(0))
        .iter()
        .map(|t| repo.token_str(*t).to_string())
        .collect();
    let mut with_unknown = elements.clone();
    with_unknown.push("certainly-not-in-the-vocabulary".to_string());

    let body = Json::obj([
        ("elements", Json::arr(with_unknown.iter().map(Json::str))),
        ("k", Json::num(2.0)),
        ("bypass_cache", Json::Bool(true)),
    ]);
    let (status, reply) = client.search(&body).unwrap();
    assert_eq!(status, 200, "{reply}");
    let hits = reply.get("hits").unwrap().as_array().unwrap();
    assert_eq!(hits.len(), 2, "k override respected: {reply}");

    let expected = service
        .search(
            SearchRequest::new(repo.intern_query(elements.iter()))
                .with_k(2)
                .bypassing_cache(),
        )
        .result;
    for (wire, want) in hits.iter().zip(&expected.hits) {
        assert_eq!(wire.get("set").unwrap().as_u64(), Some(want.set.0 as u64));
    }
}

/// `{"k": 2⁴⁰}` answers 200 on both backends: the wire passes any `u64`
/// through, and no layer below sizes an allocation by it.
#[test]
fn huge_k_over_http_answers_on_both_backends() {
    let (repo, emb) = corpus_parts();
    let factory = cosine_factory();
    for service in [
        single_service(&repo, &emb, &factory),
        partitioned_service(&repo, &emb, &factory),
    ] {
        let server = KoiosServer::bind(Arc::new(service), "127.0.0.1:0").unwrap();
        let mut client = KoiosClient::new(server.addr());
        let body = Json::obj([
            (
                "tokens",
                Json::arr(repo.set(SetId(2)).iter().map(|t| Json::num(t.0 as f64))),
            ),
            ("k", Json::num((1u64 << 40) as f64)),
        ]);
        let (status, reply) = client.search(&body).unwrap();
        assert_eq!(status, 200, "{reply}");
        assert!(!reply.get("hits").unwrap().as_array().unwrap().is_empty());
    }
}

/// The result cache is observable over the wire: a repeated query reports
/// `"cache": "hit"`, `/invalidate` resets it, `/stats` counts it.
#[test]
fn cache_lifecycle_over_http() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());

    let body = Json::obj([(
        "tokens",
        Json::arr(repo.set(SetId(1)).iter().map(|t| Json::num(t.0 as f64))),
    )]);
    let (_, first) = client.search(&body).unwrap();
    assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
    let (_, second) = client.search(&body).unwrap();
    assert_eq!(second.get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(first.get("hits").unwrap(), second.get("hits").unwrap());

    let (status, inv) = client.invalidate().unwrap();
    assert_eq!(status, 200);
    assert_eq!(inv.get("invalidated").unwrap().as_bool(), Some(true));
    let (_, third) = client.search(&body).unwrap();
    assert_eq!(third.get("cache").unwrap().as_str(), Some("miss"));

    let (status, stats) = client.stats().unwrap();
    assert_eq!(status, 200);
    assert_eq!(stats.get("queries").unwrap().as_u64(), Some(3));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("searched").unwrap().as_u64(), Some(2));
    let rc = stats.get("result_cache").unwrap();
    assert_eq!(rc.get("invalidations").unwrap().as_u64(), Some(1));
    assert_eq!(
        keys(rc),
        ["hits", "misses", "evictions", "invalidations", "insertions"]
    );
    assert_eq!(
        keys(stats.get("token_cache").unwrap()),
        ["entries", "bytes", "generation", "hits", "misses"]
    );
    assert_eq!(stats.get("partitions").unwrap().as_u64(), Some(1));
}

/// `/healthz` answers, and semantically invalid overrides come back as
/// service-level rejections (HTTP 200, `"rejected": true`), not 400s.
#[test]
fn healthz_and_service_level_rejections() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());

    let (status, health) = client.healthz().unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        health.get("sets").unwrap().as_u64(),
        Some(repo.num_sets() as u64)
    );

    let body = Json::obj([
        ("tokens", Json::arr([Json::num(0.0)])),
        ("k", Json::num(0.0)),
    ]);
    let (status, reply) = client.search(&body).unwrap();
    assert_eq!(status, 200, "wire-valid but service-invalid");
    assert_eq!(reply.get("rejected").unwrap().as_bool(), Some(true));
    assert_eq!(reply.get("cache").unwrap().as_str(), Some("rejected"));
    assert!(reply.get("hits").unwrap().as_array().unwrap().is_empty());
}

/// Malformed payloads and wrong routes answer clean JSON errors.
#[test]
fn malformed_requests_get_4xx_json() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());

    // Invalid JSON body.
    let (status, reply) = client
        .request("POST", "/search", Some(&Json::str("{not json")))
        .unwrap();
    assert_eq!(status, 400, "{reply}");
    // (A JSON *string* body parses fine but is not an object.)
    assert!(reply.get("error").is_some());

    // Schema violations.
    for bad in [
        Json::obj([("elements", Json::num(3.0))]),
        Json::obj([("tokens", Json::arr([Json::str("x")]))]),
        Json::obj([("tokens", Json::arr([Json::num(1e9)]))]),
        Json::obj::<String>([]),
    ] {
        let (status, reply) = client.search(&bad).unwrap();
        assert_eq!(status, 400, "accepted {bad}: {reply}");
        assert!(reply.get("error").unwrap().as_str().is_some());
    }

    // Unknown route and wrong method.
    let (status, _) = client.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/search", None).unwrap();
    assert_eq!(status, 405);
    let (status, _) = client.request("POST", "/healthz", None).unwrap();
    assert_eq!(status, 405);

    // Raw garbage on the socket: the server answers 400 and closes.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf:?}");

    // The service is fine afterwards.
    let (status, _) = client.healthz().unwrap();
    assert_eq!(status, 200);
}

/// An `/ingest` carrying a vector value that is not finite as `f32`
/// (`1e39` overflows it, `1e400` overflows `f64`) answers 400 naming the
/// token, applies none of its ops and leaves the epoch where it was: such a
/// row would score `±∞` or NaN against every query. The bodies go out as
/// raw bytes, since the client would encode an infinite `f64` as `null`.
#[test]
fn ingest_rejects_non_finite_vectors() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());
    let epoch = |client: &mut KoiosClient| {
        let (status, full) = client.healthz_full().unwrap();
        assert_eq!(status, 200);
        full.get("epoch").unwrap().as_u64().unwrap()
    };
    let before = epoch(&mut client);
    let dim = emb.dim();
    for value in ["1e39", "-1e39", "1e400"] {
        let row = vec!["0.5"; dim - 1].join(", ");
        let body = format!(
            r#"{{"ops": [{{"op": "remove", "set": 0}},
                {{"op": "insert", "name": "hostile", "tokens": ["never-seen"],
                  "vectors": {{"never-seen": [{row}, {value}]}}}}]}}"#
        );
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        write!(
            raw,
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "{value}: {reply}");
        assert!(reply.contains("finite"), "{value}: {reply}");
        assert!(reply.contains("never-seen"), "{value}: {reply}");
    }
    assert_eq!(epoch(&mut client), before);
    let (_, engine) = client.debug_engine().unwrap();
    let live = engine.get("sets").unwrap().get("live").unwrap().as_u64();
    assert_eq!(live, Some(repo.num_sets() as u64), "{engine}");
}

/// Many client threads hammer one server concurrently; every reply must
/// equal the sequential in-process answer for its query.
#[test]
fn concurrent_http_clients_get_consistent_answers() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(partitioned_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let queries: Vec<Vec<TokenId>> = (0..8).map(|i| repo.set(SetId(i as u32)).to_vec()).collect();
    let expected: Vec<Vec<(u64, f64)>> = queries
        .iter()
        .map(|q| {
            service
                .search(SearchRequest::new(q.clone()).bypassing_cache())
                .result
                .hits
                .iter()
                .map(|h| (h.set.0 as u64, h.score.ub()))
                .collect()
        })
        .collect();

    std::thread::scope(|sc| {
        for t in 0..4 {
            let queries = &queries;
            let expected = &expected;
            sc.spawn(move || {
                let mut client = KoiosClient::new(addr);
                for round in 0..3 {
                    for (q, want) in queries.iter().zip(expected) {
                        let body = Json::obj([
                            (
                                "tokens",
                                Json::arr(q.iter().map(|tok| Json::num(tok.0 as f64))),
                            ),
                            ("bypass_cache", Json::Bool(true)),
                        ]);
                        let (status, reply) = client.search(&body).unwrap();
                        assert_eq!(status, 200, "thread {t} round {round}");
                        let hits = reply.get("hits").unwrap().as_array().unwrap();
                        assert_eq!(hits.len(), want.len());
                        for (wire, (set, ub)) in hits.iter().zip(want) {
                            assert_eq!(wire.get("set").unwrap().as_u64(), Some(*set));
                            let got = wire.get("ub").unwrap().as_f64().unwrap();
                            assert!((got - ub).abs() < 1e-9, "thread {t}: {got} != {ub}");
                        }
                    }
                }
            });
        }
    });
}

/// `GET /metrics` serves well-formed Prometheus text exposition covering
/// the stage/queue/lock-wait series, and the search/stats routes keep
/// agreeing with in-process results after the scrape.
#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(partitioned_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());

    // Populate the histograms with real traffic first.
    for set in 0..4u32 {
        let body = Json::obj([(
            "tokens",
            Json::arr(repo.set(SetId(set)).iter().map(|t| Json::num(t.0 as f64))),
        )]);
        let (status, _) = client.search(&body).unwrap();
        assert_eq!(status, 200);
    }

    let (status, text) = client.metrics().unwrap();
    assert_eq!(status, 200);
    assert!(!text.is_empty());
    // Every line is a `# HELP`/`# TYPE` comment or `series value` with a
    // parseable finite value and a legal metric name.
    for line in text.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line without a value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        assert!(value.is_finite(), "{line:?}");
        let name_end = series.find('{').unwrap_or(series.len());
        assert!(
            !series[..name_end].is_empty()
                && series[..name_end]
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        if name_end < series.len() {
            assert!(series.ends_with('}'), "unterminated labels in {line:?}");
        }
    }
    for want in [
        "koios_stage_seconds_bucket{stage=\"refine\"",
        "koios_stage_seconds_count{stage=\"verify\"}",
        "koios_shard_seconds",
        "koios_queue_depth",
        "koios_queue_wait_seconds_count",
        "koios_lock_wait_seconds_count{cache=\"result\"}",
        "koios_lock_wait_seconds_count{cache=\"token\"}",
        "koios_request_seconds_count{phase=\"serialize\"}",
        "koios_uptime_seconds",
        "koios_cache_ops_total{cache=\"result\",op=\"hit\"}",
    ] {
        assert!(text.contains(want), "missing {want} in:\n{text}");
    }

    // The search route still serializes hits byte-identically to the
    // in-process wire encoding of the same query.
    let q = repo.set(SetId(0)).to_vec();
    let in_process = service.search(SearchRequest::new(q.clone()).bypassing_cache());
    let expected_hits = koios::net::wire::response_to_json(&in_process, &repo)
        .get("hits")
        .unwrap()
        .encode();
    let body = Json::obj([
        ("tokens", Json::arr(q.iter().map(|t| Json::num(t.0 as f64)))),
        ("bypass_cache", Json::Bool(true)),
    ]);
    let (_, reply) = client.search(&body).unwrap();
    assert_eq!(reply.get("hits").unwrap().encode(), expected_hits);

    // The stats route agrees with the in-process snapshot and carries the
    // new uptime fields.
    let (status, stats) = client.stats().unwrap();
    assert_eq!(status, 200);
    let local = service.stats();
    assert_eq!(stats.get("queries").unwrap().as_u64(), Some(local.queries));
    assert_eq!(
        stats.get("searched").unwrap().as_u64(),
        Some(local.searched)
    );
    assert!(stats.get("uptime_secs").unwrap().as_f64().unwrap() >= 0.0);
    assert!(stats.get("start_time_unix_secs").unwrap().as_u64().unwrap() > 0);

    // Wrong method on the new route answers 405 like the others.
    let (status, _) = client.request("POST", "/metrics", None).unwrap();
    assert_eq!(status, 405);
}

/// Shutdown while clients hold open keep-alive connections: the server
/// joins cleanly and the port stops answering.
#[test]
fn shutdown_closes_cleanly() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let mut server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut client = KoiosClient::new(addr);
    let (status, _) = client.healthz().unwrap();
    assert_eq!(status, 200);

    // Keep the connection open across shutdown.
    server.shutdown();
    assert!(
        client.healthz().is_err(),
        "server must stop answering after shutdown"
    );
    drop(repo);
}

/// The introspection suite: `/healthz?full`, `/debug/engine`,
/// `/debug/cache` and `/debug/profile` all serve JSON that round-trips
/// through the wire codec with the load-bearing fields present, on both
/// engine backends, and reject non-GET methods like every other route.
#[test]
fn debug_suite_round_trips_on_both_backends() {
    let (repo, emb) = corpus_parts();
    for (label, service, partitions) in [
        (
            "single",
            single_service(&repo, &emb, &cosine_factory()),
            1u64,
        ),
        (
            "partitioned",
            partitioned_service(&repo, &emb, &cosine_factory()),
            4u64,
        ),
    ] {
        let service = Arc::new(service);
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = KoiosClient::new(server.addr());

        // Drive real traffic first so caches and the profile have content.
        for set in 0..4u32 {
            let body = Json::obj([
                (
                    "tokens",
                    Json::arr(repo.set(SetId(set)).iter().map(|t| Json::num(t.0 as f64))),
                ),
                ("explain", Json::Bool(true)),
            ]);
            let (status, reply) = client.search(&body).unwrap();
            assert_eq!(status, 200, "{label}: {reply}");
            let funnel = reply
                .get("funnel")
                .unwrap_or_else(|| panic!("{label}: explain search must return a funnel: {reply}"));
            assert!(funnel
                .get("candidates_discovered")
                .unwrap()
                .as_u64()
                .is_some());
            assert!(funnel.get("returned").unwrap().as_u64().is_some());
            assert!(funnel.get("shards").unwrap().as_array().is_some());
        }
        // A cache hit of the same explain query omits the funnel: the
        // cache stores hits only, and explain never forks the cache key.
        let body = Json::obj([
            (
                "tokens",
                Json::arr(repo.set(SetId(0)).iter().map(|t| Json::num(t.0 as f64))),
            ),
            ("explain", Json::Bool(true)),
        ]);
        let (_, cached) = client.search(&body).unwrap();
        assert_eq!(
            cached.get("cache").unwrap().as_str(),
            Some("hit"),
            "{label}"
        );
        assert!(cached.get("funnel").is_none(), "{label}: {cached}");

        // Deep readiness: the bare fast path keeps its original shape...
        let (status, bare) = client.healthz().unwrap();
        assert_eq!(status, 200);
        assert!(
            bare.get("ready").is_none(),
            "{label}: bare healthz stays lean"
        );
        // ...while `?full` adds the readiness report.
        let (status, full) = client.healthz_full().unwrap();
        assert_eq!(status, 200, "{label}");
        assert_eq!(full.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            full.get("ready").unwrap().as_bool(),
            Some(true),
            "{label}: {full}"
        );
        assert_eq!(full.get("workers").unwrap().as_u64(), Some(2));
        assert_eq!(full.get("live_workers").unwrap().as_u64(), Some(2));
        assert_eq!(full.get("queue_depth").unwrap().as_u64(), Some(0));
        assert!(full.get("epoch").unwrap().as_u64().is_some());
        assert!(full.get("queue_pressure").unwrap().as_f64().is_some());

        // /debug/engine: corpus and per-partition index stats, no MinHash.
        let (status, engine) = client.debug_engine().unwrap();
        assert_eq!(status, 200, "{label}");
        assert_eq!(
            keys(&engine),
            [
                "epoch",
                "partitions",
                "sets",
                "vocab_size",
                "delta_chain_len",
                "indexes",
                "memory"
            ],
            "{label}"
        );
        assert!(engine.get("minhash").is_none(), "{label}");
        assert_eq!(
            engine.get("sets").unwrap().get("live").unwrap().as_u64(),
            Some(repo.num_sets() as u64),
            "{label}: {engine}"
        );
        assert_eq!(engine.get("partitions").unwrap().as_u64(), Some(partitions));
        let indexes = engine.get("indexes").unwrap().as_array().unwrap();
        assert_eq!(indexes.len(), partitions as usize, "{label}");
        for idx in indexes {
            assert!(idx.get("active_tokens").unwrap().as_u64().is_some());
            assert!(idx
                .get("posting_len_histogram")
                .unwrap()
                .as_array()
                .is_some());
        }
        assert!(
            engine
                .get("memory")
                .unwrap()
                .get("repository_bytes")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );

        // /debug/cache: per-stripe occupancy for both striped caches; the
        // result cache holds the five entries the traffic above inserted.
        let (status, cache) = client.debug_cache().unwrap();
        assert_eq!(status, 200, "{label}");
        let rc = cache.get("result").unwrap();
        let stripe_total: u64 = rc
            .get("stripes")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("entries").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(
            rc.get("entries").unwrap().as_u64(),
            Some(stripe_total),
            "{label}"
        );
        assert!(
            stripe_total > 0,
            "{label}: traffic above must have populated the cache"
        );
        // Each cache is rendered from one snapshot, so the token cache's
        // stripe rows sum to the totals printed beside them as well.
        let tc = cache.get("token").unwrap();
        let counters = ["hits", "misses", "evictions", "insertions", "invalidations"];
        assert_eq!(keys(rc.get("counters").unwrap()), counters, "{label}");
        assert_eq!(
            keys(tc.get("counters").unwrap()),
            [&counters[..], &["rejected_inserts"]].concat(),
            "{label}"
        );
        for field in ["entries", "bytes"] {
            let rows = tc.get("stripes").unwrap().as_array().unwrap().iter();
            let sum: u64 = rows.map(|s| s.get(field).unwrap().as_u64().unwrap()).sum();
            assert_eq!(
                tc.get(field).unwrap().as_u64(),
                Some(sum),
                "{label} {field}"
            );
        }

        // /debug/profile: JSON and collapsed forms.
        let (status, profile) = client.debug_profile().unwrap();
        assert_eq!(status, 200, "{label}");
        assert!(profile.get("uptime_us").unwrap().as_u64().is_some());
        assert_eq!(profile.get("workers").unwrap().as_u64(), Some(2));
        assert!(profile.get("self_time").unwrap().as_array().is_some());
        let (status, collapsed) = client.debug_profile_collapsed().unwrap();
        assert_eq!(status, 200, "{label}");
        for line in collapsed.lines() {
            assert!(
                line.starts_with("koios;"),
                "{label}: bad stack line {line:?}"
            );
            let (_, count) = line.rsplit_once(' ').unwrap();
            count
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{label}: {line:?}"));
        }

        // Wrong methods answer 405, like the rest of the route table.
        for path in ["/debug/engine", "/debug/cache", "/debug/profile"] {
            let (status, _) = client.request("POST", path, None).unwrap();
            assert_eq!(status, 405, "{label} {path}");
        }
    }
}

/// The wire shape of an explain reply's `"funnel"` object is a contract
/// (the ledger and README read it): exactly these keys, in this order, on
/// both backends, with values that agree with the reply's own `"stats"`.
#[test]
fn explain_funnel_wire_shape_is_pinned() {
    const FUNNEL_KEYS: [&str; 22] = [
        "stream_tuples",
        "postings_probed",
        "posting_entries_scanned",
        "posting_lengths",
        "tombstone_skips",
        "candidates_discovered",
        "ub_filter_pruned",
        "iub_pruned",
        "theta_raises",
        "bucket_moves",
        "entered_postprocess",
        "postprocess_ub_pruned",
        "no_em_certified",
        "em_early_terminated",
        "em_verified",
        "merge_verifications",
        "matrix_cells",
        "support_cells",
        "returned",
        "knn_cache_hits",
        "knn_cache_misses",
        "shards",
    ];
    const SHARD_KEYS: [&str; 10] = [
        "shard",
        "stream_tuples",
        "candidates",
        "ub_filter_pruned",
        "iub_pruned",
        "entered_postprocess",
        "no_em_certified",
        "em_early_terminated",
        "em_verified",
        "returned",
    ];
    let num = |j: &Json, key: &str| j.get(key).unwrap().as_u64().unwrap();

    let (repo, emb) = corpus_parts();
    for (label, service, shards) in [
        (
            "single",
            single_service(&repo, &emb, &cosine_factory()),
            0usize,
        ),
        (
            "partitioned",
            partitioned_service(&repo, &emb, &cosine_factory()),
            4,
        ),
    ] {
        let service = Arc::new(service);
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = KoiosClient::new(server.addr());
        for set in 0..4u32 {
            let body = Json::obj([
                (
                    "tokens",
                    Json::arr(repo.set(SetId(set)).iter().map(|t| Json::num(t.0 as f64))),
                ),
                ("explain", Json::Bool(true)),
                ("bypass_cache", Json::Bool(true)),
            ]);
            let (status, reply) = client.search(&body).unwrap();
            assert_eq!(status, 200, "{label}: {reply}");
            let funnel = reply.get("funnel").unwrap();
            assert_eq!(keys(funnel), FUNNEL_KEYS, "{label} set {set}");

            let rows = funnel.get("shards").unwrap().as_array().unwrap();
            assert_eq!(rows.len(), shards, "{label} set {set}");
            for row in rows {
                assert_eq!(keys(row), SHARD_KEYS, "{label} set {set}");
            }

            // The funnel and the stats block are views of the same counts.
            let stats = reply.get("stats").unwrap();
            for (f, s) in [
                ("candidates_discovered", "candidates"),
                ("em_verified", "em_full"),
                ("no_em_certified", "no_em"),
                ("knn_cache_hits", "knn_cache_hits"),
                ("knn_cache_misses", "knn_cache_misses"),
            ] {
                assert_eq!(num(funnel, f), num(stats, s), "{label} set {set}: {f}");
            }
            assert_eq!(
                num(funnel, "returned") as usize,
                reply.get("hits").unwrap().as_array().unwrap().len(),
                "{label} set {set}"
            );

            // One probe per stream tuple; the posting lengths account for
            // every probe and every scanned entry.
            let lengths = funnel.get("posting_lengths").unwrap().as_array().unwrap();
            let tuples = num(funnel, "stream_tuples");
            assert_eq!(num(funnel, "postings_probed"), tuples, "{label} set {set}");
            assert_eq!(lengths.len() as u64, tuples, "{label} set {set}");
            assert_eq!(
                lengths.iter().map(|l| l.as_u64().unwrap()).sum::<u64>(),
                num(funnel, "posting_entries_scanned"),
                "{label} set {set}"
            );
        }
    }
}

/// `/debug/profile` is a view of the time `/metrics` records: once traffic
/// has finished, every non-idle self-time row is its series' `_sum` minus
/// the sums of its children (clamped at 0), to the microsecond, on both
/// backends — and `serialize`, recorded by the HTTP front-end, is among
/// them.
#[test]
fn profile_rows_are_metrics_sums_minus_children_on_both_backends() {
    // The `_sum` of `family{label="value"}`, in microseconds (0 when absent).
    fn sum_us(metrics: &str, family: &str, label: &str, value: impl std::fmt::Display) -> f64 {
        let prefix = format!("{family}_sum{{{label}=\"{value}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .map_or(0.0, |v| v.parse::<f64>().unwrap() * 1e6)
    }
    let (repo, emb) = corpus_parts();
    for (label, service, shards) in [
        (
            "single",
            single_service(&repo, &emb, &cosine_factory()),
            0usize,
        ),
        (
            "partitioned",
            partitioned_service(&repo, &emb, &cosine_factory()),
            4,
        ),
    ] {
        let service = Arc::new(service);
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = KoiosClient::new(server.addr());
        for set in 0..6u32 {
            let body = Json::obj([(
                "tokens",
                Json::arr(repo.set(SetId(set)).iter().map(|t| Json::num(t.0 as f64))),
            )]);
            let (status, reply) = client.search(&body).unwrap();
            assert_eq!(status, 200, "{label}: {reply}");
        }

        let (status, profile) = client.debug_profile().unwrap();
        assert_eq!(status, 200, "{label}");
        let (status, metrics) = client.metrics().unwrap();
        assert_eq!(status, 200, "{label}");
        let stage = |s: &str| sum_us(&metrics, "koios_stage_seconds", "stage", s);
        let phase = |p: &str| sum_us(&metrics, "koios_request_seconds", "phase", p);
        let shard_total: f64 = (0..shards)
            .map(|i| sum_us(&metrics, "koios_shard_seconds", "shard", i))
            .sum();
        let mut expected = vec![
            (
                "search",
                phase("search") - stage("refine") - stage("postprocess") - stage("merge"),
            ),
            ("refine", stage("refine")),
            ("postprocess", stage("postprocess") - stage("verify")),
            ("verify", stage("verify")),
            ("merge", stage("merge")),
            ("serialize", phase("serialize")),
            ("ingest", phase("ingest")),
        ];
        if shards > 0 {
            expected.push(("shard", shard_total));
        }

        let rows = profile.get("self_time").unwrap().as_array().unwrap();
        let (idle, busy) = rows.split_last().unwrap();
        assert_eq!(idle.get("stage").unwrap().as_str(), Some("idle"), "{label}");
        assert_eq!(idle.get("fraction").unwrap().as_f64(), Some(0.0), "{label}");
        assert_eq!(busy.len(), expected.len(), "{label}: {profile}");
        for (name, want) in expected {
            let row = busy
                .iter()
                .find(|r| r.get("stage").unwrap().as_str() == Some(name))
                .unwrap_or_else(|| panic!("{label}: no {name} row in {profile}"));
            let us = row.get("us").unwrap().as_u64().unwrap() as f64;
            assert!(
                (us - want.max(0.0)).abs() <= 1.0 + 1e-6,
                "{label} {name}: profile {us} µs, /metrics {want} µs"
            );
        }
        let serialize = busy
            .iter()
            .find(|r| r.get("stage").unwrap().as_str() == Some("serialize"))
            .unwrap();
        assert!(
            serialize.get("us").unwrap().as_u64().unwrap() > 0,
            "{label}: HTTP searches must show serialize time: {profile}"
        );

        let (status, collapsed) = client.debug_profile_collapsed().unwrap();
        assert_eq!(status, 200, "{label}");
        assert!(
            collapsed.contains("koios;search;refine "),
            "{label}: {collapsed}"
        );
        for line in collapsed.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            let frames: Vec<&str> = stack.split(';').collect();
            assert!(
                frames.len() >= 2 && frames[0] == "koios" && frames.iter().all(|f| !f.is_empty()),
                "{label}: bad stack {line:?}"
            );
            weight
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{label}: bad weight {line:?}"));
        }
    }
}

/// `/stats` is a view of the counters `/metrics` exports, so the two agree
/// exactly once traffic has finished: `searched` is the search-phase count,
/// `cache_hits` the result cache's hit total, and the cumulative engine
/// time the refine + postprocess + merge stage sums.
/// The value of one exposition line, by its exact series (0 when absent).
fn value(metrics: &str, series: &str) -> f64 {
    let prefix = format!("{series} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .map_or(0.0, |v| v.parse::<f64>().unwrap())
}

#[test]
fn stats_agree_with_metrics_on_both_backends() {
    let (repo, emb) = corpus_parts();
    for (label, service) in [
        ("single", single_service(&repo, &emb, &cosine_factory())),
        (
            "partitioned",
            partitioned_service(&repo, &emb, &cosine_factory()),
        ),
    ] {
        let service = Arc::new(service);
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = KoiosClient::new(server.addr());
        let tokens =
            |set: u32| Json::arr(repo.set(SetId(set)).iter().map(|t| Json::num(t.0 as f64)));
        let requests = [
            ("miss", Json::obj([("tokens", tokens(2))])),
            ("hit", Json::obj([("tokens", tokens(2))])),
            (
                "bypassed",
                Json::obj([("tokens", tokens(3)), ("bypass_cache", Json::Bool(true))]),
            ),
            (
                "rejected",
                Json::obj([("tokens", tokens(4)), ("alpha", Json::num(1.5))]),
            ),
        ];
        for (outcome, body) in &requests {
            let (status, reply) = client.search(body).unwrap();
            assert_eq!(status, 200, "{label}: {reply}");
            assert_eq!(
                reply.get("cache").unwrap().as_str(),
                Some(*outcome),
                "{label}"
            );
        }

        let (status, stats) = client.stats().unwrap();
        assert_eq!(status, 200, "{label}");
        let (status, metrics) = client.metrics().unwrap();
        assert_eq!(status, 200, "{label}");
        let count = |key: &str| stats.get(key).unwrap().as_u64().unwrap();
        assert_eq!(
            (count("queries"), count("searched"), count("cache_hits")),
            (4, 2, 1),
            "{label}: {stats}"
        );
        assert_eq!(count("rejected"), 1, "{label}: {stats}");
        assert_eq!(
            count("searched") as f64,
            value(&metrics, "koios_request_seconds_count{phase=\"search\"}"),
            "{label}"
        );
        assert_eq!(
            count("cache_hits") as f64,
            value(
                &metrics,
                "koios_cache_ops_total{cache=\"result\",op=\"hit\"}"
            ),
            "{label}"
        );
        let stage_ms: f64 = ["refine", "postprocess", "merge"]
            .iter()
            .map(|s| {
                value(
                    &metrics,
                    &format!("koios_stage_seconds_sum{{stage=\"{s}\"}}"),
                ) * 1e3
            })
            .sum();
        let engine = stats.get("engine").unwrap();
        let engine_ms = engine
            .get("cumulative_engine_ms")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(stage_ms > 0.0, "{label}: {metrics}");
        assert!(
            (engine_ms - stage_ms).abs() <= 1e-3,
            "{label}: /stats {engine_ms} ms, /metrics {stage_ms} ms"
        );
        assert!(
            engine.get("candidates").unwrap().as_u64().unwrap() > 0,
            "{label}: {stats}"
        );
    }
}

/// Cosine behind a gate: while it is closed every vocabulary scan blocks,
/// which parks the worker mid-search so requests queue behind it.
struct GatedCosine {
    inner: Arc<dyn ElementSimilarity>,
    open: Arc<(Mutex<bool>, Condvar)>,
}

impl ElementSimilarity for GatedCosine {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        self.inner.sim(a, b)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn scores_above(&self, q: TokenId, vocab: usize, alpha: f64, out: &mut Vec<(f64, TokenId)>) {
        let (open, cv) = &*self.open;
        drop(cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        self.inner.scores_above(q, vocab, alpha, out)
    }
}

/// `/metrics` series that state one fact under two names are one record:
/// queue wait is the queue phase, mutation totals are the mutation phase
/// counts, and the queue depth is the pool's own, as `/healthz?full`
/// reports it.
#[test]
fn metrics_series_recorded_once_agree() {
    let (repo, emb) = corpus_parts();
    let open = Arc::new((Mutex::new(true), Condvar::new()));
    let factory: SimFactory = {
        let open = Arc::clone(&open);
        Arc::new(move |repo, emb| {
            Ok(Arc::new(GatedCosine {
                inner: cosine_factory()(repo, emb)?,
                open: Arc::clone(&open),
            }) as Arc<dyn ElementSimilarity>)
        })
    };
    let engine = MutableEngine::single(
        Arc::clone(&repo),
        Some(emb),
        KoiosConfig::new(5, 0.8),
        factory,
    );
    let service = Arc::new(SearchService::from_mutable(
        engine.unwrap(),
        ServiceConfig::new().with_workers(1),
    ));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());
    let scrape = |client: &mut KoiosClient| {
        let (status, metrics) = client.metrics().unwrap();
        assert_eq!(status, 200);
        metrics
    };
    let queue_agrees = |metrics: &str| {
        for part in ["count", "sum"] {
            assert_eq!(
                value(metrics, &format!("koios_queue_wait_seconds_{part}")),
                value(
                    metrics,
                    &format!("koios_request_seconds_{part}{{phase=\"queue\"}}")
                ),
                "{part}: {metrics}"
            );
        }
    };

    // A miss and a hit: both queue.
    for _ in 0..2 {
        let tokens = Json::arr(repo.set(SetId(2)).iter().map(|t| Json::num(t.0 as f64)));
        let (status, reply) = client.search(&Json::obj([("tokens", tokens)])).unwrap();
        assert_eq!(status, 200, "{reply}");
    }
    let metrics = scrape(&mut client);
    assert_eq!(value(&metrics, "koios_queue_wait_seconds_count"), 2.0);
    queue_agrees(&metrics);

    // One of each mutation, over the wire.
    let donor: Vec<String> = repo
        .set(SetId(0))
        .iter()
        .map(|&t| repo.token_str(t).to_string())
        .collect();
    let insert = Json::obj([(
        "ops",
        Json::arr([Json::obj([
            ("op", Json::str("insert")),
            ("name", Json::str("recorded-once")),
            ("tokens", Json::arr(donor.iter().map(Json::str))),
        ])]),
    )]);
    assert_eq!(client.ingest(&insert).unwrap().0, 200);
    let dir = std::env::temp_dir().join("koios-net-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("recorded-once-{}.ksnap", std::process::id()));
    let path_str = path.to_str().unwrap();
    assert_eq!(client.snapshot(path_str).unwrap().0, 200);
    assert_eq!(client.reload(path_str).unwrap().0, 200);
    let _ = std::fs::remove_file(&path);
    let metrics = scrape(&mut client);
    for op in ["ingest", "snapshot", "reload"] {
        let total = value(&metrics, &format!("koios_mutations_total{{op=\"{op}\"}}"));
        assert_eq!(total, 1.0, "{op}: {metrics}");
        let phase = format!("koios_request_seconds_count{{phase=\"{op}\"}}");
        assert_eq!(total, value(&metrics, &phase), "{op}");
    }

    // Park the only worker inside a search (the reload bumped the token
    // cache's generation, so this scan is not served from it), then queue
    // three requests behind it.
    *open.0.lock().unwrap() = false;
    let blocker = service.submit(SearchRequest::new(repo.set(SetId(1)).to_vec()).bypassing_cache());
    while service.queued() > 0 {
        std::thread::yield_now();
    }
    let queued: Vec<_> = (3..6u32)
        .map(|set| service.submit(SearchRequest::new(repo.set(SetId(set)).to_vec())))
        .collect();
    let metrics = scrape(&mut client);
    let (status, full) = client.healthz_full().unwrap();
    *open.0.lock().unwrap() = true;
    open.1.notify_all();
    assert_eq!(status, 200);
    assert_eq!(value(&metrics, "koios_queue_depth"), 3.0, "{metrics}");
    assert_eq!(full.get("queue_depth").unwrap().as_u64(), Some(3), "{full}");

    blocker.wait();
    queued.into_iter().for_each(|t| drop(t.wait()));
    let metrics = scrape(&mut client);
    assert_eq!(value(&metrics, "koios_queue_wait_seconds_count"), 6.0);
    assert_eq!(value(&metrics, "koios_queue_depth"), 0.0);
    queue_agrees(&metrics);
}

/// The `koios_debug_*` series are read at scrape time: after an ingest and
/// a search, with no `/debug` route called yet, `/metrics` already shows
/// what `/debug/engine` and `/debug/cache` then report.
#[test]
fn debug_mirrors_on_metrics_are_current_without_a_debug_call() {
    let (repo, emb) = corpus_parts();
    let service = Arc::new(single_service(&repo, &emb, &cosine_factory()));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());
    let donor = repo
        .set(SetId(0))
        .iter()
        .map(|&t| Json::str(repo.token_str(t)));
    let insert = Json::obj([(
        "ops",
        Json::arr([Json::obj([
            ("op", Json::str("insert")),
            ("name", Json::str("mirrored")),
            ("tokens", Json::arr(donor)),
        ])]),
    )]);
    assert_eq!(client.ingest(&insert).unwrap().0, 200);
    let tokens = Json::arr(repo.set(SetId(2)).iter().map(|t| Json::num(t.0 as f64)));
    assert_eq!(
        client.search(&Json::obj([("tokens", tokens)])).unwrap().0,
        200
    );

    let (status, metrics) = client.metrics().unwrap();
    assert_eq!(status, 200);
    let (_, engine) = client.debug_engine().unwrap();
    let (_, cache) = client.debug_cache().unwrap();
    let field = |j: &Json, outer: &str, inner: &str| {
        j.get(outer).unwrap().get(inner).unwrap().as_u64().unwrap() as f64
    };
    let live = field(&engine, "sets", "live");
    assert_eq!(live, (repo.num_sets() + 1) as f64, "{engine}");
    assert_eq!(
        value(&metrics, "koios_debug_engine_sets{state=\"live\"}"),
        live,
        "{metrics}"
    );
    let entries = field(&cache, "result", "entries");
    assert_eq!(entries, 1.0, "{cache}");
    assert_eq!(
        value(&metrics, "koios_debug_cache_entries{cache=\"result\"}"),
        entries,
        "{metrics}"
    );
}

/// A similarity that panics when asked about the `marker` token from the
/// query side — the fault a plugged-in `ElementSimilarity` can plant anywhere
/// the engine evaluates it (`fill_matrix` reaches it through `sim`).
struct PanicsOnMarker {
    inner: Arc<dyn ElementSimilarity>,
    marker: TokenId,
}

impl ElementSimilarity for PanicsOnMarker {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        assert!(a != self.marker, "similarity hit the marker token");
        self.inner.sim(a, b)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn scores_above(&self, q: TokenId, vocab: usize, alpha: f64, out: &mut Vec<(f64, TokenId)>) {
        assert!(q != self.marker, "similarity hit the marker token");
        self.inner.scores_above(q, vocab, alpha, out)
    }
}

/// The corpus, a factory for its poisoned similarity, and a query that
/// trips it.
fn poisoned_parts() -> (Arc<Repository>, Arc<Embeddings>, SimFactory, Vec<TokenId>) {
    let (repo, emb) = corpus_parts();
    let poisoned = repo.set(SetId(3)).to_vec();
    let marker = poisoned[0];
    let factory: SimFactory = Arc::new(move |repo, emb| {
        let inner = cosine_factory()(repo, emb)?;
        Ok(Arc::new(PanicsOnMarker { inner, marker }) as Arc<dyn ElementSimilarity>)
    });
    (repo, emb, factory, poisoned)
}

/// A search that panics — on the request worker (single) or inside a shard
/// task, re-raised through the executor (partitioned) — is that request's
/// `500`; the connection, its slot and every worker survive it.
#[test]
fn a_panicking_search_answers_500_and_the_connection_survives() {
    let (repo, emb, factory, poisoned) = poisoned_parts();
    let healthy = repo.set(SetId(0)).to_vec();
    assert!(
        !healthy.contains(&poisoned[0]),
        "a query without the marker"
    );
    let elements = |q: &[TokenId]| q.iter().map(|&t| repo.token_str(t)).collect::<Vec<_>>();
    for (label, service) in [
        ("single", single_service(&repo, &emb, &factory)),
        ("partitioned", partitioned_service(&repo, &emb, &factory)),
    ] {
        let service = Arc::new(service);
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let want = service.search(SearchRequest::new(healthy.clone())).result;
        let want: Vec<_> = want.hits.iter().map(|hit| hit.set.0 as u64).collect();
        for round in 0..3 {
            // A fresh client: the first exchange of a connection is never
            // resubmitted, so a dropped connection shows as an error here.
            let mut client = KoiosClient::new(server.addr());
            let (status, reply) = client.search_elements(&elements(&poisoned)).unwrap();
            assert_eq!(status, 500, "{label} round {round}: {reply}");
            let error = reply.get("error").unwrap().as_str().unwrap();
            assert!(error.contains("similarity hit the marker token"), "{error}");
            // The same keep-alive connection serves the next request.
            let (status, reply) = client.search_elements(&elements(&healthy)).unwrap();
            assert_eq!(status, 200, "{label} round {round}: {reply}");
            let hits = reply.get("hits").unwrap().as_array().unwrap().iter();
            let hits: Vec<_> = hits
                .map(|h| h.get("set").unwrap().as_u64().unwrap())
                .collect();
            assert_eq!(hits, want, "{label} round {round}");
            assert_eq!(service.live_workers(), service.workers(), "{label}");
            assert_eq!(client.healthz().unwrap().0, 200, "{label}");
        }
    }
}

/// A panic keeps the similarity's own message on its way to the caller:
/// through the shard executor, which re-raises a shard task's panic on the
/// thread that searched …
#[test]
#[should_panic(expected = "similarity hit the marker token")]
fn a_panic_in_a_borrowed_shard_keeps_its_message() {
    let (repo, emb, factory, poisoned) = poisoned_parts();
    let sim = factory(&repo, Some(&emb)).unwrap();
    PartitionedKoios::new(Arc::clone(&repo), sim, KoiosConfig::new(5, 0.8), 4, 13)
        .search(&poisoned);
}

/// … and through the `parallel_em` verification threads (dense path: the
/// stream comes from the healthy similarity, the matrices from the
/// poisoned one).
#[test]
#[should_panic(expected = "similarity hit the marker token")]
fn a_panic_in_a_verification_thread_keeps_its_message() {
    let (repo, emb, factory, poisoned) = poisoned_parts();
    let sim = factory(&repo, Some(&emb)).unwrap();
    let healthy = Arc::new(CosineSimilarity::new(emb));
    let source = ExactScanKnn::new(healthy, poisoned.clone(), repo.vocab_size(), 0.8);
    let engine = Koios::new(
        Arc::clone(&repo),
        sim,
        KoiosConfig::new(5, 0.8).with_parallel_em(4),
    );
    engine.search_with_source(poisoned, source, &SharedTheta::new());
}
