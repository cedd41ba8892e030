//! Network serving demo: the whole stack behind one socket.
//!
//! Generates a synthetic corpus, wraps a sharded *mutable* engine in a
//! [`SearchService`] (persistent worker pool + submission queue), binds a
//! [`KoiosServer`] to an ephemeral loopback port, and then acts as its own
//! remote client: top-k searches over HTTP (string elements and raw token
//! ids), a per-request `k` override, a cache hit, a malformed request that
//! bounces with a 400, a live `/ingest` that mutates the served corpus
//! mid-flight (then finds the new set by searching for it), a traced
//! search whose full span tree comes back from `GET /traces`, `/stats`,
//! a Prometheus `/metrics` scrape, an EXPLAIN search whose funnel report
//! rides back with the hits, the `/healthz?full` readiness report, the
//! `/debug/engine` + `/debug/cache` introspection pair, the recorded
//! stage time as collapsed stacks from `/debug/profile`, and `/invalidate`.
//!
//! ```text
//! cargo run --release --example http_service
//! ```

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::prelude::*;
use std::sync::Arc;

fn main() {
    let corpus = Corpus::generate(CorpusSpec::small(42));
    let repo = Arc::new(corpus.repository);
    let embeddings = Arc::new(corpus.embeddings);

    // A sharded engine: like every service, this one owns its writer, so
    // the server can ingest, snapshot and reload live.
    let engine = MutableEngine::partitioned(
        Arc::clone(&repo),
        Some(embeddings),
        KoiosConfig::new(5, 0.8),
        4,
        0xC0FFEE,
        cosine_factory(),
    )
    .expect("corpus has embeddings");
    let service = Arc::new(SearchService::from_mutable(
        engine,
        ServiceConfig::new()
            .with_workers(4)
            .with_cache_capacity(256),
    ));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    println!(
        "koios-net server on http://{} — {} sets, {} shards, {} workers\n",
        server.addr(),
        repo.num_sets(),
        service.partitions(),
        service.workers()
    );

    let mut client = KoiosClient::new(server.addr());

    // Health first, like any load balancer would.
    let (status, health) = client.healthz().expect("healthz");
    println!("GET /healthz -> {status} {health}");

    // A top-k search by raw token ids (the tokens of set 0).
    let tokens = repo.set(SetId(0)).to_vec();
    let body = Json::obj([(
        "tokens",
        Json::arr(tokens.iter().map(|t| Json::num(t.0 as f64))),
    )]);
    let (status, reply) = client.search(&body).expect("search");
    let hits = reply.get("hits").expect("hits").as_array().expect("array");
    println!(
        "\nPOST /search (token ids) -> {status}, {} hits:",
        hits.len()
    );
    for h in hits {
        println!(
            "  {} (set {}) score [{:.3}, {:.3}]",
            h.get("name").unwrap().as_str().unwrap(),
            h.get("set").unwrap().as_u64().unwrap(),
            h.get("lb").unwrap().as_f64().unwrap(),
            h.get("ub").unwrap().as_f64().unwrap(),
        );
    }

    // Same query again: served from the result cache.
    let (_, again) = client.search(&body).expect("search");
    println!(
        "repeat -> cache outcome {:?}",
        again.get("cache").unwrap().as_str().unwrap()
    );

    // String elements with a k override — the server interns them.
    let elements: Vec<String> = tokens
        .iter()
        .take(4)
        .map(|t| repo.token_str(*t).to_string())
        .collect();
    let narrow = Json::obj([
        ("elements", Json::arr(elements.iter().map(Json::str))),
        ("k", Json::num(1.0)),
    ]);
    let (status, reply) = client.search(&narrow).expect("search");
    println!(
        "\nPOST /search (elements, k=1) -> {status}, {} hit(s)",
        reply.get("hits").unwrap().as_array().unwrap().len()
    );

    // A malformed request bounces without hurting the connection.
    let bad = Json::obj([("tokens", Json::str("not-an-array"))]);
    let (status, err) = client.search(&bad).expect("transport ok");
    println!(
        "\nPOST /search (malformed) -> {status} {}",
        err.get("error").unwrap().as_str().unwrap()
    );

    // Live ingestion: append a set over the wire, then find it by
    // searching for its own elements. The backend hot-swaps under the
    // readers — zero downtime, and the epoch bump keys the result cache so
    // no stale answer survives the mutation. The token cache is kept: its
    // lists record the vocabulary they cover, so the batch invalidates
    // none of them.
    let token_cache = |client: &mut KoiosClient| {
        let (_, dbg) = client.debug_cache().expect("debug cache");
        let tc = dbg.get("token").expect("token cache enabled");
        let count = |v: &Json| v.as_u64().expect("count");
        let invalidations = count(tc.get("counters").unwrap().get("invalidations").unwrap());
        (count(tc.get("entries").unwrap()), invalidations)
    };
    let (_, invalidations_before) = token_cache(&mut client);
    let fresh: Vec<String> = elements.iter().take(3).cloned().collect();
    let ingest = Json::obj([(
        "ops",
        Json::arr([Json::obj([
            ("op", Json::str("insert")),
            ("name", Json::str("ingested-live")),
            ("tokens", Json::arr(fresh.iter().map(Json::str))),
        ])]),
    )]);
    let (status, outcome) = client.ingest(&ingest).expect("ingest");
    println!(
        "\nPOST /ingest -> {status}, inserted {} set(s), epoch now {}",
        outcome.get("inserted").unwrap().as_u64().unwrap(),
        outcome.get("epoch").unwrap().as_u64().unwrap(),
    );
    let (kept, invalidations) = token_cache(&mut client);
    assert_eq!(
        invalidations, invalidations_before,
        "an ingest invalidated token lists"
    );
    assert!(kept > 0, "no token list survived the ingest");
    println!("token cache kept {kept} lists across ingest");
    let (_, found) = client.search_elements(&fresh).expect("search");
    let top = found.get("hits").unwrap().as_array().unwrap();
    println!(
        "POST /search (the ingested elements) -> {} hits, best: {}",
        top.len(),
        top.first()
            .map(|h| h.get("name").unwrap().as_str().unwrap())
            .unwrap_or("<none>"),
    );

    // Request-scoped tracing: hand the server our own trace context via
    // a W3C-style `traceparent` header. The `01` sampled flag forces the
    // tail sampler to pin the trace, so the full span tree — queue wait,
    // cache probe, the executor batch with one span per shard, and the
    // paper's refine/verify/merge stages — comes back on `GET /traces`.
    let ctx = TraceContext::new(0x0DD_BA11_F00D);
    let mut traced = KoiosClient::new(server.addr()).with_traceparent(ctx.render_traceparent());
    let (_, reply) = traced.search(&narrow).expect("traced search");
    let trace_hex = reply.get("trace_id").unwrap().as_str().unwrap();
    let (status, tree) = traced.trace(ctx.trace_id).expect("trace fetch");
    let spans = tree.get("spans").unwrap().as_array().unwrap();
    println!(
        "\nGET /traces?id={trace_hex} -> {status}, retained \"{}\", {} spans:",
        tree.get("reason").unwrap().as_str().unwrap(),
        spans.len()
    );
    let parents: std::collections::HashMap<&str, Option<&str>> = spans
        .iter()
        .map(|s| {
            (
                s.get("id").unwrap().as_str().unwrap(),
                s.get("parent").and_then(|p| p.as_str()),
            )
        })
        .collect();
    for span in spans {
        let mut depth = 0usize;
        let mut cursor = span.get("parent").and_then(|p| p.as_str());
        // The root's parent is the caller's remote span: not in the map.
        while let Some(up) = cursor.and_then(|p| parents.get(p)) {
            depth += 1;
            cursor = *up;
        }
        let shard = span
            .get("shard")
            .and_then(|v| v.as_u64())
            .map(|v| format!(" shard={v}"))
            .unwrap_or_default();
        let cache = span
            .get("cache")
            .and_then(|v| v.as_str())
            .map(|v| format!(" [{v}]"))
            .unwrap_or_default();
        let micros = span.get("duration_ns").unwrap().as_f64().unwrap() / 1000.0;
        println!(
            "  {:indent$}{}{shard}{cache} ({micros:.1}us)",
            "",
            span.get("name").unwrap().as_str().unwrap(),
            indent = depth * 2
        );
    }

    // Observability and invalidation round out the operator surface.
    let (_, stats) = client.stats().expect("stats");
    println!(
        "\nGET /stats -> queries {}, searched {}, cache_hits {}, partitions {}, \
         engine_epoch {}, sets_added {}",
        stats.get("queries").unwrap().as_u64().unwrap(),
        stats.get("searched").unwrap().as_u64().unwrap(),
        stats.get("cache_hits").unwrap().as_u64().unwrap(),
        stats.get("partitions").unwrap().as_u64().unwrap(),
        stats.get("engine_epoch").unwrap().as_u64().unwrap(),
        stats.get("sets_added").unwrap().as_u64().unwrap(),
    );
    // Prometheus scrape: the same registry an operator would poll. The
    // CI smoke gate greps this output for the stage/queue/lock-wait and
    // cache-op series, so keep the highlight prefixes in sync with ci.yml.
    let (status, text) = client.metrics().expect("metrics");
    let highlights = [
        "koios_stage_seconds_count",
        "koios_shard_seconds_count",
        "koios_queue_depth",
        "koios_queue_wait_seconds_count",
        "koios_lock_wait_seconds_count",
        "koios_cache_ops_total",
        "koios_request_seconds_count",
        "koios_trace_exemplar_ns",
    ];
    println!(
        "\nGET /metrics -> {status}, {} series lines; highlights:",
        text.lines().filter(|l| !l.starts_with('#')).count()
    );
    for line in text
        .lines()
        .filter(|l| highlights.iter().any(|p| l.starts_with(p)))
    {
        println!("  {line}");
    }
    // `/stats` is a view of the counters `/metrics` exports: no search ran
    // between the two reads, so they agree exactly.
    let series = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .map_or(0, |v| v.parse::<f64>().expect("numeric sample") as u64)
    };
    let searched = stats.get("searched").unwrap().as_u64().unwrap();
    let cache_hits = stats.get("cache_hits").unwrap().as_u64().unwrap();
    assert_eq!(
        searched,
        series("koios_request_seconds_count{phase=\"search\"}")
    );
    assert_eq!(
        cache_hits,
        series("koios_cache_ops_total{cache=\"result\",op=\"hit\"}")
    );
    println!("/stats agrees with /metrics: searched {searched}, cache_hits {cache_hits}");
    // A fact is recorded once and rendered under each of its names: queue
    // wait is the queue phase histogram, and a mutation total is its
    // phase's sample count.
    let queued = series("koios_request_seconds_count{phase=\"queue\"}");
    assert_eq!(series("koios_queue_wait_seconds_count"), queued);
    for op in ["ingest", "snapshot", "reload"] {
        assert_eq!(
            series(&format!("koios_mutations_total{{op=\"{op}\"}}")),
            series(&format!("koios_request_seconds_count{{phase=\"{op}\"}}")),
            "{op}"
        );
    }
    println!(
        "/metrics records once: queue wait = queue phase ({queued}), mutations = phase counts"
    );

    // EXPLAIN mode: the same query with `"explain": true` brings the
    // filter→refine→verify funnel back next to the hits — how many
    // candidates the inverted index surfaced, how many each pruning
    // lemma retired, and how many reached an exact matching. The hits
    // are byte-identical to the plain search; explain is observation
    // only. (CI greps the funnel line — keep the fields in sync.)
    let explained = Json::obj([
        (
            "tokens",
            Json::arr(tokens.iter().map(|t| Json::num(t.0 as f64))),
        ),
        ("explain", Json::Bool(true)),
        ("bypass_cache", Json::Bool(true)),
    ]);
    let (status, reply) = client.search(&explained).expect("explain search");
    let funnel = reply.get("funnel").expect("explain reply carries a funnel");
    let fnum = |key: &str| funnel.get(key).unwrap().as_u64().unwrap();
    println!(
        "\nPOST /search (explain) -> {status}; funnel: candidates_discovered={} \
         ub_filter_pruned={} iub_pruned={} entered_postprocess={} no_em_certified={} \
         em_verified={} returned={}",
        fnum("candidates_discovered"),
        fnum("ub_filter_pruned"),
        fnum("iub_pruned"),
        fnum("entered_postprocess"),
        fnum("no_em_certified"),
        fnum("em_verified"),
        fnum("returned"),
    );

    // The introspection suite: deep readiness, engine/cache internals,
    // and the recorded stage time as collapsed stacks weighted in µs (pipe
    // them into flamegraph.pl as-is).
    let (_, full) = client.healthz_full().expect("healthz full");
    println!(
        "\nGET /healthz?full -> ready {}, epoch {}, live_workers {}/{}, queue_depth {}",
        full.get("ready").unwrap().as_bool().unwrap(),
        full.get("epoch").unwrap().as_u64().unwrap(),
        full.get("live_workers").unwrap().as_u64().unwrap(),
        full.get("workers").unwrap().as_u64().unwrap(),
        full.get("queue_depth").unwrap().as_u64().unwrap(),
    );
    let (_, engine_dbg) = client.debug_engine().expect("debug engine");
    let sets = engine_dbg.get("sets").unwrap();
    println!(
        "GET /debug/engine -> {} live / {} tombstoned sets, vocab {}, delta_chain {}",
        sets.get("live").unwrap().as_u64().unwrap(),
        sets.get("tombstoned").unwrap().as_u64().unwrap(),
        engine_dbg.get("vocab_size").unwrap().as_u64().unwrap(),
        engine_dbg.get("delta_chain_len").unwrap().as_u64().unwrap(),
    );
    let (_, cache_dbg) = client.debug_cache().expect("debug cache");
    let rc = cache_dbg.get("result").unwrap();
    println!(
        "GET /debug/cache -> result cache {} entr(ies) across {} stripes",
        rc.get("entries").unwrap().as_u64().unwrap(),
        rc.get("stripes").unwrap().as_array().unwrap().len(),
    );
    let (status, collapsed) = client.debug_profile_collapsed().expect("collapsed profile");
    println!("GET /debug/profile?format=collapsed -> {status}, recorded stacks (µs):");
    for line in collapsed.lines() {
        println!("  {line}");
    }

    let (status, _) = client.invalidate().expect("invalidate");
    let (_, after) = client.search(&body).expect("search");
    println!(
        "POST /invalidate -> {status}; repeat search now a {:?}",
        after.get("cache").unwrap().as_str().unwrap()
    );
}
