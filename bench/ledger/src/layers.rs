//! The traced run: the per-layer numbers.
//!
//! Everything here is measured from outside the crates: spans around HTTP
//! round trips (carrying the reply's funnel counts), around an in-process
//! replay of the pipeline the server's handler runs on the same request
//! bytes, and around direct calls into each crate's public kernels on
//! inputs captured from the workload. The spans go to
//! `bench/out/<workload>.trace.jsonl`; [`derive`] turns that file — and
//! nothing else — into the per-layer table.

use crate::http::{body_json, Conn};
use crate::run::{
    fmt, read_window, summarize_reads, Metric, Outcome, ReadWindow, RunOpts, Session, StealMeter,
    WriteWindow,
};
use crate::stats::{median, percentile, sorted};
use crate::system::{json_matches, Error};
use crate::trace::{self, Recorder, Span, LANE};
use crate::workload::{Load, Spec, WriteOp, ALPHA, K};
use koios_common::{Json, SetId, TokenId};
use koios_core::{EngineBackend, KoiosConfig};
use koios_embed::sim::ElementSimilarity;
use koios_index::knn_cache::TokenKnnCache;
use koios_index::{ExactScanKnn, InvertedIndex, TokenStream};
use koios_matching::{solve_max_matching, MatchOutcome, WeightMatrix};
use koios_net::http::{HttpRequest, HttpResponse};
use koios_net::wire;
use koios_service::{CacheOutcome, SearchRequest, ServiceStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per replayed kernel.
const REPLAY_CALLS: usize = 200;
/// Requests of the paired phase (each is a full search, twice).
const PAIRED_REQUESTS: usize = 100;
/// Queries behind the `service.hit_path` replay; each is searched once to
/// fill the result cache and then [`REPLAY_CALLS`]` / HIT_PATH_QUERIES`
/// times as a hit.
const HIT_PATH_QUERIES: usize = 50;
/// Repetitions of the heavyweight replays (index build, snapshot I/O).
const HEAVY_REPS: usize = 5;

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// exactly these; a unit test keeps the two in step.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("net.http_parse_us", "us", "lower"),
    ("net.wire_decode_us", "us", "lower"),
    ("net.wire_encode_us", "us", "lower"),
    ("net.roundtrip_overhead_us", "us", "lower"),
    ("net.unattributed_us", "us", "lower"),
    ("common.json_parse_us", "us", "lower"),
    ("common.json_encode_us", "us", "lower"),
    ("common.reply_bytes", "bytes", "lower"),
    ("service.p50_ms", "ms", "lower"),
    ("service.open_p95_ms", "ms", "lower"),
    ("service.queue_wait_p50_us", "us", "lower"),
    ("service.queue_wait_p95_us", "us", "lower"),
    ("service.hit_path_us", "us", "lower"),
    ("service.result_hit_rate", "share", "higher"),
    ("service.result_evictions", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.timed_out", "count", "lower"),
    ("service.ingest_p50_ms", "ms", "lower"),
    ("core.refine_ms", "ms", "lower"),
    ("core.postprocess_ms", "ms", "lower"),
    ("core.verify_ms", "ms", "lower"),
    ("core.merge_ms", "ms", "lower"),
    ("core.executor_ms", "ms", "lower"),
    ("core.refine_share", "share", "lower"),
    ("core.verify_share", "share", "lower"),
    ("core.merge_share", "share", "lower"),
    ("core.unattributed_share", "share", "lower"),
    ("core.shard_skew", "ratio", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.postprocess_share", "share", "lower"),
    ("core.no_em_share", "share", "higher"),
    ("core.em_early_share", "share", "higher"),
    ("core.em_per_hit", "ratio", "lower"),
    ("core.merge_verifications_per_hit", "ratio", "lower"),
    ("core.matrix_cells_per_hit", "count", "lower"),
    ("core.theta_raises", "count", "higher"),
    ("core.bucket_moves", "count", "lower"),
    ("core.apply_batch_ms", "ms", "lower"),
    ("core.backend_mint_ms", "ms", "lower"),
    ("index.postings_scanned", "count", "lower"),
    ("index.postings_per_candidate", "ratio", "lower"),
    ("index.knn_hit_rate", "share", "higher"),
    ("index.knn_evictions", "count", "lower"),
    ("index.knn_bytes", "bytes", "lower"),
    ("index.stream_drain_us", "us", "lower"),
    ("index.stream_ns_per_tuple", "ns", "lower"),
    ("index.posting_walk_ns", "ns", "lower"),
    ("index.knn_get_ns", "ns", "lower"),
    ("index.knn_insert_ns", "ns", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("index.apply_op_us", "us", "lower"),
    ("embed.scan_ns_per_token", "ns", "lower"),
    ("embed.scan_bytes", "bytes", "lower"),
    ("embed.fill_ns_per_cell", "ns", "lower"),
    ("embed.cells", "count", "lower"),
    ("matching.solve_us", "us", "lower"),
    ("matching.ns_per_cell", "ns", "lower"),
    ("matching.early_abort_share", "share", "higher"),
    ("matching.relaxed_share", "share", "lower"),
    ("store.write_snapshot_ms", "ms", "lower"),
    ("store.append_delta_ms", "ms", "lower"),
    ("store.read_snapshot_ms", "ms", "lower"),
    ("store.compact_ms", "ms", "lower"),
    ("store.bytes_per_set", "bytes", "lower"),
    ("store.delta_chain_len", "count", "lower"),
    ("store.snapshot_p50_ms", "ms", "lower"),
    ("telemetry.render_us", "us", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.generator_late_p95_us", "us", "lower"),
    ("bench.cpu_steal_share", "share", "lower"),
];

/// Funnel counts copied from an `"explain": true` reply onto its span.
const FUNNEL_KEYS: &[&str] = &[
    "stream_tuples",
    "posting_entries_scanned",
    "candidates_discovered",
    "theta_raises",
    "bucket_moves",
    "entered_postprocess",
    "no_em_certified",
    "em_early_terminated",
    "em_verified",
    "merge_verifications",
    "matrix_cells",
    "support_cells",
    "returned",
];

fn counts<const N: usize>(pairs: [(&str, f64); N]) -> Vec<(String, f64)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The counts a `POST /search` reply carries, as span counts.
fn reply_counts(body: &[u8], phase: &str) -> Vec<(String, f64)> {
    let mut out = counts([(phase, 1.0), ("reply_bytes", body.len() as f64)]);
    let Some(reply) = body_json(body) else {
        return out;
    };
    let num = |key| reply.get(key).and_then(Json::as_f64);
    out.push(("queue_us".into(), num("queue_ms").unwrap_or(0.0) * 1e3));
    out.push((
        "response_us".into(),
        num("response_ms").unwrap_or(0.0) * 1e3,
    ));
    let hit = reply.get("cache").and_then(Json::as_str) == Some("hit");
    out.push(("hit".into(), f64::from(u8::from(hit))));
    if let Some(funnel) = reply.get("funnel") {
        out.push(("funnel".into(), 1.0));
        for &key in FUNNEL_KEYS {
            if let Some(v) = funnel.get(key).and_then(Json::as_f64) {
                out.push((key.to_string(), v));
            }
        }
    }
    out
}

/// One `http.roundtrip` root per sample of a traced read window.
fn record_roundtrips(rec: &mut Recorder, window: &ReadWindow, next_request: &mut u64) {
    for (s, _) in window.samples() {
        *next_request += 1;
        rec.push(
            "http.roundtrip",
            None,
            *next_request,
            rec.at(s.start),
            rec.at(s.done),
            reply_counts(&s.body, "round"),
        );
    }
}

/// `http.ingest` / `http.snapshot` roots for the write traffic, and the
/// mirror's replay of the acknowledged batches (`core.apply_batch`,
/// `core.backend_mint`; durations, not instants).
fn record_writes(rec: &mut Recorder, writes: &WriteWindow) {
    for (op, s, _) in &writes.ops {
        let name = match op {
            WriteOp::Ingest(_) => "http.ingest",
            WriteOp::Snapshot => "http.snapshot",
        };
        rec.push(
            name,
            None,
            0,
            rec.at(s.start),
            rec.at(s.done),
            counts([("late_us", s.late().as_secs_f64() * 1e6)]),
        );
    }
    for &(apply, mint) in &writes.replay {
        let t = rec.at(Instant::now());
        rec.push(
            "core.apply_batch",
            None,
            0,
            t,
            t + apply.as_nanos() as u64,
            Vec::new(),
        );
        rec.push(
            "core.backend_mint",
            None,
            0,
            t,
            t + mint.as_nanos() as u64,
            Vec::new(),
        );
    }
}

/// Evenly spaced sample of `n` pool indices (cycling when the pool is
/// smaller, so every kernel still gets its `n` calls).
fn sample_queries(pool: usize, n: usize) -> Vec<usize> {
    let stride = (pool / n).max(1);
    (0..n).map(|i| (i * stride) % pool).collect()
}

/// The paired phase: one request in flight. For each sampled query, under a
/// `replay` root, the pipeline the server's handler runs — in process, on
/// the request's own bytes: `net.http_parse → common.json_parse →
/// net.wire_decode → service.search → net.wire_encode`, the stage children
/// of `service.search` laid out from the returned `SearchStats`. Then the
/// pair: the same request over HTTP (`http.roundtrip`) and once more in
/// process (`service.search_again`). The replay ran first and found the
/// caches as the workload left them; the pair finds them as the replay left
/// them — both halves alike, so it differs by the network side only.
fn paired_phase(
    rec: &mut Recorder,
    session: &mut Session,
    next_request: &mut u64,
) -> Result<(), Error> {
    let service = Arc::clone(&session.served.service);
    let mut conn: Conn = session.served.connect(1)?.remove(0);
    let queries = sample_queries(
        session.inputs.pool.len(),
        if session.opts.quick {
            PAIRED_REQUESTS / 4
        } else {
            PAIRED_REQUESTS
        },
    );
    for q in queries {
        *next_request += 1;
        let rid = *next_request;
        let bytes = session.inputs.pool[q].request.clone();

        let root = rec.open("replay", None, rid);
        let (parsed, parse_span) = rec.timed("net.http_parse", Some(root), rid, || {
            HttpRequest::read_from(&mut bytes.as_slice())
        });
        rec.set_counts(parse_span, counts([("bytes", bytes.len() as f64)]));
        let request = parsed?.ok_or("request bytes hold no request")?;
        let (json, _) = rec.timed("common.json_parse", Some(root), rid, || {
            Json::parse(std::str::from_utf8(&request.body).unwrap_or(""))
        });
        let json = json?;
        let repo = service.repository();
        let (decoded, _) = rec.timed("net.wire_decode", Some(root), rid, || {
            wire::parse_search_request(&json, &repo)
        });
        let search_request: SearchRequest = decoded?;
        let search = rec.open("service.search", Some(root), rid);
        let response = service.search(search_request.clone());
        rec.close(search, Vec::new());
        let stage_counts = lay_out_stages(rec, search, rid, &response);
        rec.set_counts(search, stage_counts);
        let (encoded, encode_span) = rec.timed("net.wire_encode", Some(root), rid, || {
            let mut buf = Vec::new();
            HttpResponse::json(200, &wire::response_to_json(&response, &repo))
                .write_to(&mut buf, true)
                .map(|()| buf)
        });
        rec.set_counts(encode_span, counts([("bytes", encoded?.len() as f64)]));
        rec.close(root, Vec::new());

        // Outside the replay root: the JSON encoder alone, on the reply the
        // pipeline just produced.
        let reply_value = wire::response_to_json(&response, &repo);
        let (text, encode_only) = rec.timed("common.json_encode", None, 0, || reply_value.encode());
        rec.set_counts(encode_only, counts([("bytes", text.len() as f64)]));

        let sent = Instant::now();
        let reply = conn.exchange(&bytes)?;
        let done = Instant::now();
        rec.push(
            "http.roundtrip",
            None,
            rid,
            rec.at(sent),
            rec.at(done),
            reply_counts(&reply.body, "paired"),
        );
        let (again, again_span) = rec.timed("service.search_again", None, rid, || {
            service.search(search_request)
        });
        let hit = again.cache == CacheOutcome::Hit;
        rec.set_counts(again_span, counts([("hit", f64::from(u8::from(hit)))]));

        let same = reply.status == 200
            && body_json(&reply.body).is_some_and(|r| json_matches(&r, &again.result.hits))
            && again.result.hits == response.result.hits;
        session.tally.check(same, || {
            format!("HTTP and in-process answers differ for pool query {q}")
        });
    }
    Ok(())
}

/// Lays the stage children of a replayed `service.search` span out from
/// the `SearchStats` it returned (queue first, then the stages back to
/// back; the shards of a partitioned search as parallel lanes inside
/// `core.executor`), clamped to the parent. Returns the same numbers as
/// counts so the per-layer table needs no tree walk.
fn lay_out_stages(
    rec: &mut Recorder,
    parent: u32,
    rid: u64,
    response: &koios_service::ServiceResponse,
) -> Vec<(String, f64)> {
    let (start, end) = {
        let p = rec.span(parent);
        (p.start_ns, p.end_ns)
    };
    let stats = &response.result.stats;
    let ns = |d: Duration| d.as_nanos() as u64;
    let mut cursor = start;
    let child = |rec: &mut Recorder, name: &str, parent: u32, from: u64, len: u64, lane: bool| {
        let lo = from.min(end);
        let hi = (from + len).min(end);
        let c = if lane {
            counts([(LANE, 1.0)])
        } else {
            Vec::new()
        };
        (rec.push(name, Some(parent), rid, lo, hi, c), hi)
    };
    let (_, after_queue) = child(
        rec,
        "service.queue",
        parent,
        cursor,
        ns(response.queue_time),
        false,
    );
    cursor = after_queue;
    let partitioned = !stats.shard_times.is_empty();
    if partitioned {
        let (executor, after) = child(
            rec,
            "core.executor",
            parent,
            cursor,
            ns(stats.executor_time),
            false,
        );
        for (i, &t) in stats.shard_times.iter().enumerate() {
            child(rec, &format!("shard.{i}"), executor, cursor, ns(t), true);
        }
        child(
            rec,
            "core.merge",
            parent,
            after,
            ns(stats.merge_time),
            false,
        );
    } else if response.cache != CacheOutcome::Hit {
        let (_, after) = child(
            rec,
            "core.refine",
            parent,
            cursor,
            ns(stats.refine_time),
            false,
        );
        let (post, _) = child(
            rec,
            "core.postprocess",
            parent,
            after,
            ns(stats.postprocess_time),
            false,
        );
        let verify = ns(stats.verify_time.min(stats.postprocess_time));
        child(rec, "core.verify", post, after, verify, false);
    }
    let shard_ns: Vec<f64> = stats.shard_times.iter().map(|&t| ns(t) as f64).collect();
    let shard_mean = shard_ns.iter().sum::<f64>() / shard_ns.len().max(1) as f64;
    counts([
        (
            "hit",
            f64::from(u8::from(response.cache == CacheOutcome::Hit)),
        ),
        ("partitioned", f64::from(u8::from(partitioned))),
        ("queue_ns", ns(response.queue_time) as f64),
        ("refine_ns", ns(stats.refine_time) as f64),
        ("postprocess_ns", ns(stats.postprocess_time) as f64),
        ("verify_ns", ns(stats.verify_time) as f64),
        ("executor_ns", ns(stats.executor_time) as f64),
        ("merge_ns", ns(stats.merge_time) as f64),
        ("shard_max_ns", shard_ns.iter().copied().fold(0.0, f64::max)),
        ("shard_mean_ns", shard_mean),
    ])
}

/// The similarity and the inverted indexes of a backend.
fn engine_parts(backend: &EngineBackend) -> (Arc<dyn ElementSimilarity>, Vec<Arc<InvertedIndex>>) {
    match backend {
        EngineBackend::Single(e) => (Arc::clone(e.similarity()), vec![Arc::clone(e.index())]),
        EngineBackend::Partitioned(p) => (Arc::clone(p.similarity()), p.indexes().to_vec()),
    }
}

/// Direct calls into each crate's public kernels on inputs captured from
/// the workload's own queries and answers, one span per call.
fn kernel_replays(rec: &mut Recorder, session: &mut Session) -> Result<(), Error> {
    let calls = if session.opts.quick {
        REPLAY_CALLS / 4
    } else {
        REPLAY_CALLS
    };
    let service = Arc::clone(&session.served.service);
    let backend = service.backend();
    let repo = backend.repository_arc();
    let (sim, indexes) = engine_parts(&backend);
    let vocab = repo.vocab_size();
    let dim = session.inputs.emb.dim();
    let queries = sample_queries(session.inputs.pool.len(), calls);

    // embed.scan: one vocabulary scan per distinct query token.
    let mut tokens: Vec<TokenId> = queries
        .iter()
        .flat_map(|&q| session.inputs.pool[q].tokens.iter().copied())
        .collect();
    tokens.sort_unstable();
    tokens.dedup();
    let step = (tokens.len() / calls).max(1);
    let mut lists: Vec<(TokenId, Vec<(f64, TokenId)>)> = Vec::new();
    for &t in tokens.iter().step_by(step).take(calls) {
        let (list, span) = rec.timed("embed.scan", None, 0, || {
            let mut out = Vec::new();
            sim.scores_above(t, vocab, ALPHA, &mut out);
            out
        });
        rec.set_counts(
            span,
            counts([
                ("tokens", vocab as f64),
                ("emitted", list.len() as f64),
                ("bytes", (vocab * dim * std::mem::size_of::<f32>()) as f64),
            ]),
        );
        lists.push((t, list));
    }

    // index.knn_insert / index.knn_get on a private cache with those lists.
    let cache = TokenKnnCache::new(16 << 20);
    let (alpha_bits, generation) = (ALPHA.to_bits(), cache.generation());
    for (t, list) in &lists {
        let list = Arc::new(list.clone());
        rec.timed("index.knn_insert", None, 0, || {
            cache.insert(*t, alpha_bits, generation, 0, list)
        });
    }
    for (t, _) in &lists {
        let (got, _) = rec.timed("index.knn_get", None, 0, || {
            cache.get(*t, alpha_bits, generation, 0)
        });
        std::hint::black_box(got);
    }

    // index.stream_drain, then index.posting_walk over what it emitted.
    for &q in &queries {
        let query = session.inputs.pool[q].tokens.clone();
        let (emitted, span) = rec.timed("index.stream_drain", None, 0, || {
            let source = ExactScanKnn::new(Arc::clone(&sim), query.clone(), vocab, ALPHA);
            let mut stream = TokenStream::new(source, query.len());
            let mut emitted = Vec::new();
            while let Some(tuple) = stream.next() {
                emitted.push(tuple.token);
            }
            emitted
        });
        rec.set_counts(span, counts([("tuples", emitted.len() as f64)]));
        let (entries, span) = rec.timed("index.posting_walk", None, 0, || {
            let mut entries = 0usize;
            for index in &indexes {
                for &t in &emitted {
                    for set in index.postings(t) {
                        entries += 1;
                        std::hint::black_box(set);
                    }
                }
            }
            entries
        });
        rec.set_counts(span, counts([("entries", entries as f64)]));
    }

    // embed.fill and matching.solve on query × answer pairs: the sets the
    // search returned, and as many sets it discovered but did not return.
    let mut matrices = 0usize;
    for &q in &queries {
        if matrices >= 2 * calls {
            break;
        }
        let query = {
            let mut t = session.inputs.pool[q].tokens.clone();
            t.sort_unstable();
            t.dedup();
            t
        };
        let hits = backend.search(&query).hits;
        let theta = hits
            .iter()
            .map(|h| h.score.lb())
            .fold(f64::INFINITY, f64::min);
        let returned: Vec<SetId> = hits.iter().take(2).map(|h| h.set).collect();
        let losers: Vec<SetId> = indexes
            .iter()
            .flat_map(|index| index.postings(query[0]).iter().copied())
            .filter(|s| repo.is_live(*s) && !hits.iter().any(|h| h.set == *s))
            .take(2)
            .collect();
        for set in returned.into_iter().chain(losers) {
            let tokens = repo.set(set);
            let cells = (query.len() * tokens.len()) as f64;
            let (weights, span) = rec.timed("embed.fill", None, 0, || {
                let mut w = vec![0.0; query.len() * tokens.len()];
                sim.fill_matrix(&query, tokens, ALPHA, &mut w);
                w
            });
            rec.set_counts(span, counts([("cells", cells)]));
            let m = WeightMatrix::from_vec(query.len(), tokens.len(), weights);
            let (_, span) = rec.timed("matching.solve", None, 0, || solve_max_matching(&m, None));
            rec.set_counts(span, counts([("cells", cells)]));
            let (bounded, span) = rec.timed("matching.solve", None, 0, || {
                solve_max_matching(&m, theta.is_finite().then_some(theta))
            });
            let aborted = matches!(bounded, MatchOutcome::EarlyTerminated { .. });
            rec.set_counts(
                span,
                counts([
                    ("cells", cells),
                    ("bounded", 1.0),
                    ("aborted", f64::from(u8::from(aborted))),
                ]),
            );
            matrices += 1;
        }
    }

    // service.hit_path: the in-process search of a request the result
    // cache holds (normalize + fingerprint + probe + ticket).
    for &q in queries.iter().take(HIT_PATH_QUERIES) {
        let request = || SearchRequest::new(session.inputs.pool[q].tokens.clone());
        service.search(request());
        for _ in 0..calls / HIT_PATH_QUERIES {
            let (response, span) =
                rec.timed("service.hit_path", None, 0, || service.search(request()));
            let hit = response.cache == CacheOutcome::Hit;
            rec.set_counts(span, counts([("hit", f64::from(u8::from(hit)))]));
        }
    }

    // telemetry.render
    for _ in 0..calls / 10 {
        let (text, span) = rec.timed("telemetry.render", None, 0, || service.render_metrics());
        rec.set_counts(span, counts([("bytes", text.len() as f64)]));
    }

    // index.build and index.apply_op on private copies of the base corpus.
    for _ in 0..HEAVY_REPS {
        let (index, _) = rec.timed("index.build", None, 0, || {
            InvertedIndex::build(&session.inputs.repo)
        });
        std::hint::black_box(index);
    }
    let mut repo_copy = (*session.inputs.repo).clone();
    let mut emb_copy = (*session.inputs.emb).clone();
    let mut index_copy = InvertedIndex::build(&repo_copy);
    for op in session.inputs.oplog.iter().flatten() {
        let (applied, _) = rec.timed("index.apply_op", None, 0, || {
            koios_index::apply_op(
                &mut repo_copy,
                Some(&mut emb_copy),
                &mut [&mut index_copy],
                None,
                &|_| 0,
                op,
            )
        });
        applied?;
    }
    Ok(())
}

/// The store replays on a scratch file: base write, delta appends, warm
/// start (file → serving backend), compaction.
fn store_replays(rec: &mut Recorder, session: &Session) -> Result<Vec<(String, f64)>, Error> {
    let path = session.opts.out_dir().join(format!(
        "{}-{}-replay.ksnap",
        session.spec.name,
        std::process::id()
    ));
    let cfg = KoiosConfig::new(K, ALPHA);
    let engine = session.inputs.engine()?;
    let mut bytes_per_set = 0.0;
    let reps = if session.opts.quick { 2 } else { HEAVY_REPS };
    for _ in 0..reps {
        let (meta, _) = rec.timed("store.write_snapshot", None, 0, || {
            engine.write_snapshot(&path)
        });
        let meta = meta?;
        bytes_per_set = meta.total_bytes as f64 / meta.num_sets.max(1) as f64;
        for (i, ops) in session.inputs.oplog.iter().enumerate() {
            let (appended, _) = rec.timed("store.append_delta", None, 0, || {
                koios_store::append_delta(&path, ops, i as u64 + 1)
            });
            appended?;
        }
        let (restored, _) = rec.timed("store.read_snapshot", None, 0, || {
            EngineBackend::from_snapshot(&path, cfg.clone())
        });
        std::hint::black_box(restored?);
        let (compacted, _) = rec.timed("store.compact", None, 0, || koios_store::compact(&path));
        compacted?;
    }
    let _ = std::fs::remove_file(&path);
    Ok(counts([("bytes_per_set", bytes_per_set)]))
}

/// The cache and admission counters that moved between two snapshots.
fn stats_delta(before: &ServiceStats, after: &ServiceStats) -> Vec<(String, f64)> {
    let knn = |s: &ServiceStats| s.token_cache.map(|t| t.counters).unwrap_or_default();
    let (k0, k1) = (knn(before), knn(after));
    counts([
        ("result_hits", (after.cache.hits - before.cache.hits) as f64),
        (
            "result_misses",
            (after.cache.misses - before.cache.misses) as f64,
        ),
        (
            "result_evictions",
            (after.cache.evictions - before.cache.evictions) as f64,
        ),
        ("rejected", (after.rejected - before.rejected) as f64),
        ("timed_out", (after.timed_out - before.timed_out) as f64),
        ("knn_hits", (k1.hits - k0.hits) as f64),
        ("knn_misses", (k1.misses - k0.misses) as f64),
        ("knn_evictions", (k1.evictions - k0.evictions) as f64),
        (
            "knn_bytes",
            after.token_cache.map_or(0.0, |t| t.bytes as f64),
        ),
    ])
}

/// The traced run: every per-layer metric.
pub fn run_traced(spec: &Spec, opts: &RunOpts) -> Result<Outcome, Error> {
    let mut rec = Recorder::new();
    let mut session = Session::start(spec, opts)?;
    let mut next_request = 0u64;
    println!(
        "{} (traced): pool {} queries, set-up {} s",
        spec.name,
        session.inputs.pool.len(),
        fmt(session.setups[0].as_secs_f64())
    );

    // An untraced window, then the same with `"explain": true`: one round
    // each in a closed loop, half the run's seconds each otherwise.
    let half = match spec.load {
        Load::Closed { .. } => 0.0,
        _ => opts.seconds / 2.0,
    };
    let (plain, plain_writes) = read_window(&mut session, half, false)?;
    let before = session.served.service.stats();
    let steal = StealMeter::start();
    let (traced, traced_writes) = read_window(&mut session, half, true)?;
    let steal_share = steal.share();
    let after = session.served.service.stats();
    let plain_summary = summarize_reads(&plain, spec);
    let traced_summary = summarize_reads(&traced, spec);
    record_roundtrips(&mut rec, &traced, &mut next_request);

    paired_phase(&mut rec, &mut session, &mut next_request)?;
    kernel_replays(&mut rec, &mut session)?;

    let probe = (!session.is_live())
        .then(|| session.write_probe())
        .transpose()?;
    for writes in [plain_writes, traced_writes].into_iter().chain(probe) {
        record_writes(&mut rec, &writes);
    }
    let store_counts = store_replays(&mut rec, &session)?;
    let delta_chain_len = session.final_checks()?;

    let overhead = if plain_summary.qps > 0.0 {
        1.0 - traced_summary.qps / plain_summary.qps
    } else {
        0.0
    };
    let mut summary = stats_delta(&before, &after);
    summary.extend(store_counts);
    summary.extend(counts([
        ("delta_chain_len", delta_chain_len as f64),
        ("trace_overhead_share", overhead),
        ("generator_late_p95_us", traced_summary.late_p95_us),
        ("cpu_steal_share", steal_share),
        ("plain_qps", plain_summary.qps),
        ("traced_qps", traced_summary.qps),
        ("p50_ms", plain_summary.p50_ms),
        (
            "open_p95_ms",
            match spec.load {
                Load::Open { .. } => plain_summary.p95_ms,
                _ => 0.0,
            },
        ),
    ]));
    let now = rec.at(Instant::now());
    rec.push("bench.summary", None, 0, now, now, summary);

    // The table is derived from the file, not from memory.
    let path = opts.out_dir().join(format!("{}.trace.jsonl", spec.name));
    trace::write_jsonl(&path, rec.spans())?;
    let spans = trace::read_jsonl(&path)?;
    let accounted = self_time_identity(&spans);
    session.tally.check(accounted.1 == 0, || {
        format!(
            "{} of {} traced requests: self times + unattributed != root",
            accounted.1, accounted.0
        )
    });
    let metrics = derive(&spans);
    println!(
        "  {} spans in {}; self times + unattributed = root for {}/{} traced requests",
        spans.len(),
        path.display(),
        accounted.0 - accounted.1,
        accounted.0
    );
    println!(
        "  untraced window {} correct/s, traced {} correct/s",
        fmt(plain_summary.qps),
        fmt(traced_summary.qps)
    );

    let (_, tally) = session.finish(0)?;
    let detail = Json::obj([
        ("spans", Json::num(spans.len() as f64)),
        ("trace_file", Json::str(path.to_string_lossy())),
        ("traced_requests", Json::num(accounted.0 as f64)),
        ("failures", Json::arr(tally.reasons.iter().map(Json::str))),
    ]);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        noisy: traced_summary.noisy(steal_share),
        detail,
    })
}

/// `(replay trees, trees whose Σ self times differ from the root)`.
fn self_time_identity(spans: &[Span]) -> (usize, usize) {
    let sums = trace::tree_self_sums(spans);
    let replays: Vec<_> = sums
        .iter()
        .filter(|(root, _)| spans[*root].name == "replay")
        .collect();
    let off = replays
        .iter()
        .filter(|(root, sum)| *sum != spans[*root].duration_ns())
        .count();
    (replays.len(), off)
}

/// The per-layer table, from the spans of a trace file alone.
pub fn derive(spans: &[Span]) -> Vec<Metric> {
    fn by_name<'a>(spans: &'a [Span], name: &'static str) -> impl Iterator<Item = &'a Span> {
        spans.iter().filter(move |s| s.name == name)
    }
    let named = |name| by_name(spans, name);
    let dur_ns =
        |name: &'static str| -> Vec<f64> { named(name).map(|s| s.duration_ns() as f64).collect() };
    let med_ns = |name: &'static str| median(&dur_ns(name));
    // Median of duration per unit of work (`count`), over spans that did any.
    let per = |name: &'static str, count: &str| -> f64 {
        median(
            &named(name)
                .filter_map(|s| {
                    let n = s.count(count)?;
                    (n > 0.0).then(|| s.duration_ns() as f64 / n)
                })
                .collect::<Vec<_>>(),
        )
    };
    let sum_count =
        |set: &[&Span], key: &str| -> f64 { set.iter().filter_map(|s| s.count(key)).sum() };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let summary = named("bench.summary").last();
    let total = |key: &str| summary.and_then(|s| s.count(key)).unwrap_or(0.0);

    // Round trips of the traced window, and those that ran the engine.
    let round: Vec<&Span> = named("http.roundtrip")
        .filter(|s| s.count("round").is_some())
        .collect();
    let executed: Vec<&Span> = round
        .iter()
        .copied()
        .filter(|s| s.count("funnel").is_some())
        .collect();
    let per_search = |key: &str| ratio(sum_count(&executed, key), executed.len() as f64);
    let queue_us = sorted(round.iter().filter_map(|s| s.count("queue_us")).collect());

    // Pairs: the HTTP round trip and the in-process replay of one request.
    let by_request = |name: &'static str| -> HashMap<u64, &Span> {
        named(name)
            .filter(|s| s.request > 0)
            .map(|s| (s.request, s))
            .collect()
    };
    let paired: Vec<&Span> = named("http.roundtrip")
        .filter(|s| s.count("paired").is_some())
        .collect();
    let searches = by_request("service.search");
    let again = by_request("service.search_again");
    let stage = |name: &'static str| by_request(name);
    let (parse, json_parse, decode, encode) = (
        stage("net.http_parse"),
        stage("common.json_parse"),
        stage("net.wire_decode"),
        stage("net.wire_encode"),
    );
    let mut overhead = Vec::new();
    let mut unattributed = Vec::new();
    for http in &paired {
        let Some(search) = again.get(&http.request) else {
            continue;
        };
        if http.count("hit") != search.count("hit") {
            continue;
        }
        let d =
            |m: &HashMap<u64, &Span>| m.get(&http.request).map_or(0.0, |s| s.duration_ns() as f64);
        let rt = http.duration_ns() as f64;
        overhead.push(rt - search.duration_ns() as f64);
        unattributed.push(
            rt - d(&parse) - d(&json_parse) - d(&decode) - search.duration_ns() as f64 - d(&encode),
        );
    }

    // Replayed searches that ran the engine: stage times and shares of the
    // in-process `SearchService::search` wall time.
    let ran: Vec<&Span> = searches
        .values()
        .copied()
        .filter(|s| s.count("hit") == Some(0.0))
        .collect();
    let stage_ms =
        |key: &str| median(&ran.iter().filter_map(|s| s.count(key)).collect::<Vec<_>>()) / 1e6;
    let stage_share = |f: &dyn Fn(&Span) -> f64| {
        median(
            &ran.iter()
                .map(|s| ratio(f(s), s.duration_ns() as f64))
                .collect::<Vec<_>>(),
        )
    };
    let c = |s: &Span, key: &str| s.count(key).unwrap_or(0.0);
    let engine_ns = |s: &Span| {
        if c(s, "partitioned") > 0.0 {
            c(s, "executor_ns") + c(s, "merge_ns")
        } else {
            c(s, "refine_ns") + c(s, "postprocess_ns")
        }
    };
    let skew = median(
        &ran.iter()
            .filter(|s| c(s, "shard_mean_ns") > 0.0)
            .map(|s| c(s, "shard_max_ns") / c(s, "shard_mean_ns"))
            .collect::<Vec<_>>(),
    );

    let solves: Vec<&Span> = named("matching.solve").collect();
    let bounded: Vec<&Span> = solves
        .iter()
        .copied()
        .filter(|s| s.count("bounded").is_some())
        .collect();
    let fills: Vec<f64> = named("embed.fill")
        .filter_map(|s| s.count("cells"))
        .collect();
    let reply_bytes: Vec<f64> = paired
        .iter()
        .filter_map(|s| s.count("reply_bytes"))
        .collect();
    let hit_paths: Vec<f64> = named("service.hit_path")
        .filter(|s| s.count("hit") == Some(1.0))
        .map(|s| s.duration_ns() as f64)
        .collect();

    let value = |name: &str| -> f64 {
        match name {
            "net.http_parse_us" => med_ns("net.http_parse") / 1e3,
            "net.wire_decode_us" => med_ns("net.wire_decode") / 1e3,
            "net.wire_encode_us" => med_ns("net.wire_encode") / 1e3,
            "net.roundtrip_overhead_us" => median(&overhead) / 1e3,
            "net.unattributed_us" => median(&unattributed) / 1e3,
            "common.json_parse_us" => med_ns("common.json_parse") / 1e3,
            "common.json_encode_us" => med_ns("common.json_encode") / 1e3,
            "common.reply_bytes" => median(&reply_bytes),
            "service.p50_ms" => total("p50_ms"),
            "service.open_p95_ms" => total("open_p95_ms"),
            "service.queue_wait_p50_us" => percentile(&queue_us, 0.50),
            "service.queue_wait_p95_us" => percentile(&queue_us, 0.95),
            "service.hit_path_us" => median(&hit_paths) / 1e3,
            "service.result_hit_rate" => ratio(
                total("result_hits"),
                total("result_hits") + total("result_misses"),
            ),
            "service.result_evictions" => total("result_evictions"),
            "service.rejected" => total("rejected"),
            "service.timed_out" => total("timed_out"),
            "service.ingest_p50_ms" => med_ns("http.ingest") / 1e6,
            "core.refine_ms" => stage_ms("refine_ns"),
            "core.postprocess_ms" => stage_ms("postprocess_ns"),
            "core.verify_ms" => stage_ms("verify_ns"),
            "core.merge_ms" => stage_ms("merge_ns"),
            "core.executor_ms" => stage_ms("executor_ns"),
            "core.refine_share" => stage_share(&|s| c(s, "refine_ns")),
            "core.verify_share" => stage_share(&|s| c(s, "verify_ns")),
            "core.merge_share" => stage_share(&|s| c(s, "merge_ns")),
            "core.unattributed_share" => {
                stage_share(&|s| s.duration_ns() as f64 - c(s, "queue_ns") - engine_ns(s))
            }
            "core.shard_skew" => skew,
            "core.candidates" => per_search("candidates_discovered"),
            "core.postprocess_share" => ratio(
                sum_count(&executed, "entered_postprocess"),
                sum_count(&executed, "candidates_discovered"),
            ),
            "core.no_em_share" => ratio(
                sum_count(&executed, "no_em_certified"),
                sum_count(&executed, "entered_postprocess"),
            ),
            "core.em_early_share" => ratio(
                sum_count(&executed, "em_early_terminated"),
                sum_count(&executed, "entered_postprocess"),
            ),
            "core.em_per_hit" => ratio(
                sum_count(&executed, "em_verified"),
                sum_count(&executed, "returned"),
            ),
            "core.merge_verifications_per_hit" => ratio(
                sum_count(&executed, "merge_verifications"),
                sum_count(&executed, "returned"),
            ),
            "core.matrix_cells_per_hit" => ratio(
                sum_count(&executed, "matrix_cells"),
                sum_count(&executed, "returned"),
            ),
            "core.theta_raises" => per_search("theta_raises"),
            "core.bucket_moves" => per_search("bucket_moves"),
            "core.apply_batch_ms" => med_ns("core.apply_batch") / 1e6,
            "core.backend_mint_ms" => med_ns("core.backend_mint") / 1e6,
            "index.postings_scanned" => per_search("posting_entries_scanned"),
            "index.postings_per_candidate" => ratio(
                sum_count(&executed, "posting_entries_scanned"),
                sum_count(&executed, "candidates_discovered"),
            ),
            "index.knn_hit_rate" => {
                ratio(total("knn_hits"), total("knn_hits") + total("knn_misses"))
            }
            "index.knn_evictions" => total("knn_evictions"),
            "index.knn_bytes" => total("knn_bytes"),
            "index.stream_drain_us" => med_ns("index.stream_drain") / 1e3,
            "index.stream_ns_per_tuple" => per("index.stream_drain", "tuples"),
            "index.posting_walk_ns" => per("index.posting_walk", "entries"),
            "index.knn_get_ns" => med_ns("index.knn_get"),
            "index.knn_insert_ns" => med_ns("index.knn_insert"),
            "index.build_ms" => med_ns("index.build") / 1e6,
            "index.apply_op_us" => med_ns("index.apply_op") / 1e3,
            "embed.scan_ns_per_token" => per("embed.scan", "tokens"),
            "embed.scan_bytes" => named("embed.scan")
                .find_map(|s| s.count("bytes"))
                .unwrap_or(0.0),
            "embed.fill_ns_per_cell" => per("embed.fill", "cells"),
            "embed.cells" => median(&fills),
            "matching.solve_us" => med_ns("matching.solve") / 1e3,
            "matching.ns_per_cell" => per("matching.solve", "cells"),
            "matching.early_abort_share" => {
                ratio(sum_count(&bounded, "aborted"), bounded.len() as f64)
            }
            "matching.relaxed_share" => ratio(
                sum_count(&executed, "support_cells"),
                sum_count(&executed, "matrix_cells"),
            ),
            "store.write_snapshot_ms" => med_ns("store.write_snapshot") / 1e6,
            "store.append_delta_ms" => med_ns("store.append_delta") / 1e6,
            "store.read_snapshot_ms" => med_ns("store.read_snapshot") / 1e6,
            "store.compact_ms" => med_ns("store.compact") / 1e6,
            "store.bytes_per_set" => total("bytes_per_set"),
            "store.delta_chain_len" => total("delta_chain_len"),
            "store.snapshot_p50_ms" => med_ns("http.snapshot") / 1e6,
            "telemetry.render_us" => med_ns("telemetry.render") / 1e3,
            "bench.trace_overhead_share" => total("trace_overhead_share"),
            "bench.generator_late_p95_us" => total("generator_late_p95_us"),
            "bench.cpu_steal_share" => total("cpu_steal_share"),
            other => unreachable!("per-layer metric {other} has no derivation"),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric::new(name, unit, value(name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, request: u64, start: u64, end: u64, c: Vec<(String, f64)>) -> Span {
        Span {
            id: 0,
            parent: None,
            request,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            counts: c,
        }
    }

    fn metric(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn derive_reads_medians_ratios_and_pairs_from_spans() {
        let mut spans = vec![
            span(
                "embed.scan",
                0,
                0,
                6_000,
                counts([("tokens", 3000.0), ("bytes", 384000.0)]),
            ),
            span(
                "embed.scan",
                0,
                0,
                9_000,
                counts([("tokens", 3000.0), ("bytes", 384000.0)]),
            ),
            span(
                "embed.scan",
                0,
                0,
                12_000,
                counts([("tokens", 3000.0), ("bytes", 384000.0)]),
            ),
            // A traced round trip that ran the engine, and one cache hit.
            span(
                "http.roundtrip",
                1,
                0,
                1_000_000,
                counts([
                    ("round", 1.0),
                    ("funnel", 1.0),
                    ("queue_us", 40.0),
                    ("candidates_discovered", 200.0),
                    ("entered_postprocess", 10.0),
                    ("em_verified", 4.0),
                    ("returned", 2.0),
                    ("matrix_cells", 1000.0),
                    ("support_cells", 250.0),
                ]),
            ),
            span(
                "http.roundtrip",
                2,
                0,
                200_000,
                counts([("round", 1.0), ("queue_us", 20.0)]),
            ),
            // One replay and its pair: HTTP 500 us, in process again 420 us.
            span(
                "http.roundtrip",
                3,
                0,
                500_000,
                counts([("paired", 1.0), ("hit", 0.0)]),
            ),
            span("net.http_parse", 3, 0, 10_000, Vec::new()),
            span("common.json_parse", 3, 0, 5_000, Vec::new()),
            span("net.wire_decode", 3, 0, 5_000, Vec::new()),
            span(
                "service.search",
                3,
                0,
                420_000,
                counts([
                    ("hit", 0.0),
                    ("queue_ns", 20_000.0),
                    ("refine_ns", 300_000.0),
                    ("postprocess_ns", 80_000.0),
                    ("verify_ns", 60_000.0),
                ]),
            ),
            span("net.wire_encode", 3, 0, 20_000, Vec::new()),
            span(
                "service.search_again",
                3,
                0,
                420_000,
                counts([("hit", 0.0)]),
            ),
            span(
                "bench.summary",
                0,
                0,
                0,
                counts([
                    ("knn_hits", 30.0),
                    ("knn_misses", 70.0),
                    ("result_hits", 0.0),
                    ("p50_ms", 0.6),
                ]),
            ),
        ];
        for (i, s) in spans.iter_mut().enumerate() {
            s.id = i as u32;
        }
        let m = derive(&spans);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(metric(&m, "embed.scan_ns_per_token"), 3.0);
        assert_eq!(metric(&m, "embed.scan_bytes"), 384000.0);
        assert_eq!(metric(&m, "core.candidates"), 200.0);
        assert_eq!(metric(&m, "core.postprocess_share"), 0.05);
        assert_eq!(metric(&m, "core.em_per_hit"), 2.0);
        assert_eq!(metric(&m, "matching.relaxed_share"), 0.25);
        assert_eq!(metric(&m, "service.queue_wait_p50_us"), 20.0);
        assert_eq!(metric(&m, "service.queue_wait_p95_us"), 40.0);
        assert_eq!(metric(&m, "net.roundtrip_overhead_us"), 80.0);
        assert_eq!(metric(&m, "net.unattributed_us"), 40.0);
        assert_eq!(metric(&m, "core.refine_ms"), 0.3);
        assert!((metric(&m, "core.refine_share") - 300.0 / 420.0).abs() < 1e-12);
        assert!((metric(&m, "core.unattributed_share") - 20.0 / 420.0).abs() < 1e-12);
        assert_eq!(metric(&m, "index.knn_hit_rate"), 0.3);
        assert_eq!(metric(&m, "service.result_hit_rate"), 0.0);
        assert_eq!(metric(&m, "service.p50_ms"), 0.6);
        // Nothing recorded: zero, not a panic.
        assert_eq!(metric(&m, "store.compact_ms"), 0.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String, String)> = json
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
