//! The JSON wire contract: request/response mapping between HTTP payloads
//! and the service types.
//!
//! Once queries cross a network boundary, the request/response model has to
//! be a serialized, versionable contract rather than rust structs. This
//! module is that contract, in one place:
//!
//! * **`POST /search` request** — `{"elements": ["LA", "SC"]}` (strings,
//!   interned against the server's repository; unknown strings are dropped,
//!   exactly like [`Repository::intern_query`]) and/or `{"tokens": [1, 2]}`
//!   (raw token ids, validated against the vocabulary). Optional knobs
//!   mirror [`SearchRequest`]: `"k"`, `"alpha"`, `"time_budget_ms"`,
//!   `"bypass_cache"`, `"explain"`.
//! * **`POST /search` response** — hits with set id, set name and certified
//!   score bounds, the cache outcome, rejection/timeout flags and timings.
//!   An `"explain": true` request additionally carries `"funnel"`: the full
//!   report of [`SearchStats::funnel_json`](koios_core::SearchStats::funnel_json)
//!   (absent when the answer came from the result cache — no engine work ran
//!   to count). Its `"postings_probed"` counts posting-list probes, one per
//!   stream tuple — a token similar to several query elements is probed
//!   once per element — so it always equals `"stream_tuples"`, not the
//!   number of distinct tokens.
//! * **`GET /stats` response** — a [`ServiceStats`] snapshot.
//!
//! Malformed payloads return `Err(String)` which the server maps to a 400;
//! *semantically* invalid parameter overrides (k = 0, α out of range) are
//! deliberately not wire errors — they travel to the service, are refused
//! by its admission logic, and come back as `"rejected": true` with
//! `"cache": "rejected"`, keeping one source of truth for validation.

use koios_common::{Json, SetId, TokenId};
use koios_embed::ops::CorpusOp;
use koios_embed::repository::Repository;
use koios_service::{
    CacheOutcome, IngestOutcome, SearchRequest, ServiceResponse, ServiceStats, SnapshotInfo,
};
use koios_store::snapshot::SnapshotMeta;
use std::time::Duration;

/// Decodes a `POST /search` body into a [`SearchRequest`].
pub fn parse_search_request(body: &Json, repo: &Repository) -> Result<SearchRequest, String> {
    if !matches!(body, Json::Obj(_)) {
        return Err("request body must be a JSON object".into());
    }
    let elements = body.get("elements");
    let token_ids = body.get("tokens");
    if elements.is_none() && token_ids.is_none() {
        return Err("provide \"elements\" (strings) and/or \"tokens\" (ids)".into());
    }

    let mut tokens: Vec<TokenId> = Vec::new();
    if let Some(v) = elements {
        let items = v
            .as_array()
            .ok_or_else(|| "\"elements\" must be an array of strings".to_string())?;
        let strs = items
            .iter()
            .map(|e| {
                e.as_str()
                    .ok_or_else(|| "\"elements\" must contain only strings".to_string())
            })
            .collect::<Result<Vec<&str>, String>>()?;
        tokens.extend(repo.intern_query(strs));
    }
    if let Some(v) = token_ids {
        let items = v
            .as_array()
            .ok_or_else(|| "\"tokens\" must be an array of token ids".to_string())?;
        for item in items {
            let id = item
                .as_u64()
                .ok_or_else(|| "\"tokens\" must contain non-negative integers".to_string())?;
            if id >= repo.vocab_size() as u64 {
                return Err(format!(
                    "token id {id} out of range (vocabulary has {} tokens)",
                    repo.vocab_size()
                ));
            }
            tokens.push(TokenId(id as u32));
        }
    }

    let mut req = SearchRequest::new(tokens);
    if let Some(v) = body.get("k") {
        let k = v
            .as_u64()
            .ok_or_else(|| "\"k\" must be a non-negative integer".to_string())?;
        req = req.with_k(k as usize);
    }
    if let Some(v) = body.get("alpha") {
        let alpha = v
            .as_f64()
            .ok_or_else(|| "\"alpha\" must be a number".to_string())?;
        req = req.with_alpha(alpha);
    }
    if let Some(v) = body.get("time_budget_ms") {
        let ms = v
            .as_u64()
            .ok_or_else(|| "\"time_budget_ms\" must be a non-negative integer".to_string())?;
        req = req.with_time_budget(Duration::from_millis(ms));
    }
    if let Some(v) = body.get("bypass_cache") {
        let b = v
            .as_bool()
            .ok_or_else(|| "\"bypass_cache\" must be a boolean".to_string())?;
        if b {
            req = req.bypassing_cache();
        }
    }
    if let Some(v) = body.get("explain") {
        let b = v
            .as_bool()
            .ok_or_else(|| "\"explain\" must be a boolean".to_string())?;
        req = req.with_explain(b);
    }
    Ok(req)
}

/// Decodes a `POST /ingest` body into a batch of [`CorpusOp`]s.
///
/// Shape: `{"ops": [...]}` where each op is either
/// `{"op": "insert", "name": "...", "tokens": ["...", ...]}` — optionally
/// with `"vectors": {"token": [f32, ...], ...}` supplying embedding rows
/// for tokens new to the corpus — or `{"op": "remove", "set": id}`.
pub fn parse_ingest_request(body: &Json) -> Result<Vec<CorpusOp>, String> {
    if !matches!(body, Json::Obj(_)) {
        return Err("request body must be a JSON object".into());
    }
    let ops = body
        .get("ops")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "provide \"ops\": an array of mutation objects".to_string())?;
    ops.iter()
        .enumerate()
        .map(|(i, op)| parse_op(op).map_err(|e| format!("ops[{i}]: {e}")))
        .collect()
}

fn parse_op(op: &Json) -> Result<CorpusOp, String> {
    let kind = op
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "\"op\" must be \"insert\" or \"remove\"".to_string())?;
    match kind {
        "insert" => {
            let name = op
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| "\"name\" must be a string".to_string())?;
            let tokens = op
                .get("tokens")
                .and_then(|v| v.as_array())
                .ok_or_else(|| "\"tokens\" must be an array of strings".to_string())?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "\"tokens\" must contain only strings".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?;
            let mut vectors = Vec::new();
            if let Some(v) = op.get("vectors") {
                let Json::Obj(entries) = v else {
                    return Err("\"vectors\" must map token strings to number arrays".into());
                };
                for (token, row) in entries {
                    let row = row
                        .as_array()
                        .ok_or_else(|| format!("vector for {token:?} must be an array"))?
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .map(|f| f as f32)
                                .ok_or_else(|| format!("vector for {token:?} must be numeric"))
                        })
                        .collect::<Result<Vec<f32>, String>>()?;
                    vectors.push((token.clone(), row));
                }
            }
            Ok(CorpusOp::Insert {
                name: name.to_string(),
                tokens,
                vectors,
            })
        }
        "remove" => {
            let set = op
                .get("set")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| "\"set\" must be a non-negative set id".to_string())?;
            Ok(CorpusOp::remove(SetId(set as u32)))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Encodes an applied ingest batch as the `POST /ingest` reply.
pub fn ingest_outcome_to_json(out: IngestOutcome) -> Json {
    Json::obj([
        ("inserted", Json::num(out.inserted as f64)),
        ("removed", Json::num(out.removed as f64)),
        ("epoch", Json::num(out.epoch as f64)),
    ])
}

/// Decodes a `{"path": "..."}` body (`POST /snapshot`, `POST /reload`).
pub fn parse_path_request(body: &Json) -> Result<String, String> {
    body.get("path")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| "provide \"path\": the snapshot file to use".to_string())
}

/// Encodes the on-disk state written by `POST /snapshot`.
pub fn snapshot_meta_to_json(path: &str, meta: &SnapshotMeta) -> Json {
    Json::obj([
        ("path", Json::str(path)),
        ("format_version", Json::num(meta.format_version as f64)),
        ("bytes", Json::num(meta.total_bytes as f64)),
        ("num_sets", Json::num(meta.num_sets as f64)),
        ("deltas", Json::num(meta.deltas.len() as f64)),
        ("latest_epoch", Json::num(meta.latest_epoch() as f64)),
    ])
}

fn snapshot_info_to_json(sn: &SnapshotInfo) -> Json {
    Json::obj([
        ("path", Json::str(&sn.path)),
        ("format_version", Json::num(sn.format_version as f64)),
        ("bytes", Json::num(sn.bytes as f64)),
        ("partitions", Json::num(sn.partitions as f64)),
        ("num_sets", Json::num(sn.num_sets as f64)),
        ("vocab_size", Json::num(sn.vocab_size as f64)),
        ("deltas", Json::num(sn.deltas as f64)),
        ("latest_epoch", Json::num(sn.latest_epoch as f64)),
        ("load_ms", millis(sn.load_time)),
    ])
}

/// Encodes the provenance of a completed `POST /reload` hot swap.
pub fn reload_to_json(info: &SnapshotInfo, epoch: u64) -> Json {
    Json::obj([
        ("reloaded", Json::Bool(true)),
        ("epoch", Json::num(epoch as f64)),
        ("snapshot", snapshot_info_to_json(info)),
    ])
}

fn cache_outcome_str(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Bypassed => "bypassed",
        CacheOutcome::Rejected => "rejected",
    }
}

fn millis(d: Duration) -> Json {
    Json::num(d.as_secs_f64() * 1e3)
}

/// Encodes a [`ServiceResponse`] as the `POST /search` reply.
pub fn response_to_json(resp: &ServiceResponse, repo: &Repository) -> Json {
    let hits = resp
        .result
        .hits
        .iter()
        .map(|h| {
            Json::obj([
                ("set", Json::num(h.set.0 as f64)),
                ("name", Json::str(repo.set_name(h.set))),
                ("lb", Json::num(h.score.lb())),
                ("ub", Json::num(h.score.ub())),
                ("exact", Json::Bool(h.score.exact().is_some())),
            ])
        })
        .collect::<Vec<_>>();
    let s = &resp.result.stats;
    // The trace id uses the same hex form as cache-key fingerprints, so a
    // client can paste it straight into `GET /traces?id=…`.
    let trace_id = match resp.trace_id {
        Some(id) => Json::str(koios_common::fingerprint::hex(id)),
        None => Json::Null,
    };
    let mut fields = vec![
        ("hits", Json::Arr(hits)),
        ("cache", Json::str(cache_outcome_str(resp.cache))),
        ("rejected", Json::Bool(resp.rejected)),
        ("timed_out", Json::Bool(s.timed_out)),
        ("trace_id", trace_id),
        ("queue_ms", millis(resp.queue_time)),
        ("response_ms", millis(s.response_time())),
        (
            "stats",
            Json::obj([
                ("candidates", Json::num(s.candidates as f64)),
                ("em_full", Json::num(s.em_full as f64)),
                ("no_em", Json::num(s.no_em as f64)),
                ("knn_cache_hits", Json::num(s.knn_cache.hits as f64)),
                ("knn_cache_misses", Json::num(s.knn_cache.misses as f64)),
            ]),
        ),
    ];
    // Present exactly when the search ran with funnel accounting: explain
    // requests answered from the result cache carry no funnel.
    if let Some(funnel) = s.funnel_json() {
        fields.push(("funnel", funnel));
    }
    Json::obj(fields)
}

/// Encodes a [`ServiceStats`] snapshot as the `GET /stats` reply.
pub fn stats_to_json(st: &ServiceStats) -> Json {
    let token_cache = match &st.token_cache {
        None => Json::Null,
        Some(tc) => Json::obj([
            ("entries", Json::num(tc.entries as f64)),
            ("bytes", Json::num(tc.bytes as f64)),
            ("generation", Json::num(tc.generation as f64)),
            ("hits", Json::num(tc.counters.hits as f64)),
            ("misses", Json::num(tc.counters.misses as f64)),
            ("expirations", Json::num(tc.counters.expirations as f64)),
        ]),
    };
    let snapshot = match &st.snapshot {
        None => Json::Null,
        Some(sn) => snapshot_info_to_json(sn),
    };
    // Wall-clock start time as whole seconds since the Unix epoch (0 for
    // a default snapshot whose start time is the epoch itself).
    let start_unix = st
        .start_time
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Json::obj([
        ("queries", Json::num(st.queries as f64)),
        ("batches", Json::num(st.batches as f64)),
        ("uptime_secs", Json::num(st.uptime_secs)),
        ("start_time_unix_secs", Json::num(start_unix as f64)),
        ("cache_hits", Json::num(st.cache_hits as f64)),
        ("searched", Json::num(st.searched as f64)),
        ("rejected", Json::num(st.rejected as f64)),
        ("timed_out", Json::num(st.timed_out as f64)),
        ("partitions", Json::num(st.partitions as f64)),
        ("engine_epoch", Json::num(st.engine_epoch as f64)),
        ("sets_added", Json::num(st.sets_added as f64)),
        ("sets_removed", Json::num(st.sets_removed as f64)),
        (
            "result_cache",
            Json::obj([
                ("hits", Json::num(st.cache.hits as f64)),
                ("misses", Json::num(st.cache.misses as f64)),
                ("evictions", Json::num(st.cache.evictions as f64)),
                ("invalidations", Json::num(st.cache.invalidations as f64)),
                ("insertions", Json::num(st.cache.insertions as f64)),
                ("expirations", Json::num(st.cache.expirations as f64)),
            ]),
        ),
        ("token_cache", token_cache),
        ("snapshot", snapshot),
        (
            "engine",
            Json::obj([
                ("candidates", Json::num(st.engine.candidates as f64)),
                ("em_full", Json::num(st.engine.em_full as f64)),
                ("no_em", Json::num(st.engine.no_em as f64)),
                ("stream_tuples", Json::num(st.engine.stream_tuples as f64)),
                ("cumulative_engine_ms", millis(st.engine.cumulative_time)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_embed::repository::RepositoryBuilder;

    fn repo() -> Repository {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c"]);
        b.add_set("s1", ["a", "x", "y"]);
        b.build()
    }

    #[test]
    fn parses_elements_and_knobs() {
        let repo = repo();
        let body = Json::parse(
            r#"{"elements": ["a", "b", "nope"], "k": 2, "alpha": 0.75,
                "time_budget_ms": 250, "bypass_cache": true}"#,
        )
        .unwrap();
        let req = parse_search_request(&body, &repo).unwrap();
        assert_eq!(req.tokens.len(), 2, "unknown element dropped");
        assert_eq!(req.k, Some(2));
        assert_eq!(req.alpha, Some(0.75));
        assert_eq!(req.time_budget, Some(Duration::from_millis(250)));
        assert!(req.bypass_cache);
    }

    #[test]
    fn parses_raw_token_ids_and_validates_them() {
        let repo = repo();
        let ok = Json::parse(r#"{"tokens": [0, 1]}"#).unwrap();
        let req = parse_search_request(&ok, &repo).unwrap();
        assert_eq!(req.tokens, vec![TokenId(0), TokenId(1)]);
        let bad = Json::parse(r#"{"tokens": [999]}"#).unwrap();
        assert!(parse_search_request(&bad, &repo)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn rejects_malformed_bodies() {
        let repo = repo();
        for bad in [
            r#"[1, 2]"#,
            r#"{}"#,
            r#"{"elements": "a"}"#,
            r#"{"elements": [1]}"#,
            r#"{"tokens": ["a"]}"#,
            r#"{"tokens": [1.5]}"#,
            r#"{"elements": ["a"], "k": -1}"#,
            r#"{"elements": ["a"], "k": 1.5}"#,
            r#"{"elements": ["a"], "alpha": "x"}"#,
            r#"{"elements": ["a"], "time_budget_ms": -5}"#,
            r#"{"elements": ["a"], "bypass_cache": 1}"#,
        ] {
            let body = Json::parse(bad).unwrap();
            assert!(
                parse_search_request(&body, &repo).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn parses_ingest_ops() {
        let body = Json::parse(
            r#"{"ops": [
                {"op": "insert", "name": "s9", "tokens": ["a", "b"],
                 "vectors": {"b": [0.5, 0.25]}},
                {"op": "remove", "set": 3}
            ]}"#,
        )
        .unwrap();
        let ops = parse_ingest_request(&body).unwrap();
        assert_eq!(ops.len(), 2);
        match &ops[0] {
            CorpusOp::Insert {
                name,
                tokens,
                vectors,
            } => {
                assert_eq!(name, "s9");
                assert_eq!(tokens, &["a", "b"]);
                assert_eq!(vectors, &[("b".to_string(), vec![0.5, 0.25])]);
            }
            other => panic!("expected insert, got {other:?}"),
        }
        assert_eq!(ops[1], CorpusOp::remove(SetId(3)));
    }

    #[test]
    fn rejects_malformed_ingest_bodies() {
        for bad in [
            r#"[1]"#,
            r#"{}"#,
            r#"{"ops": 3}"#,
            r#"{"ops": [{"op": "upsert"}]}"#,
            r#"{"ops": [{"op": "insert", "tokens": ["a"]}]}"#,
            r#"{"ops": [{"op": "insert", "name": "s", "tokens": [1]}]}"#,
            r#"{"ops": [{"op": "insert", "name": "s", "tokens": ["a"], "vectors": [1]}]}"#,
            r#"{"ops": [{"op": "insert", "name": "s", "tokens": ["a"], "vectors": {"a": "x"}}]}"#,
            r#"{"ops": [{"op": "remove"}]}"#,
            r#"{"ops": [{"op": "remove", "set": -1}]}"#,
        ] {
            let body = Json::parse(bad).unwrap();
            assert!(parse_ingest_request(&body).is_err(), "accepted {bad}");
        }
        // Errors carry the offending op's index.
        let body = Json::parse(r#"{"ops": [{"op": "remove", "set": 0}, {"op": "x"}]}"#).unwrap();
        assert!(parse_ingest_request(&body).unwrap_err().contains("ops[1]"));
    }

    #[test]
    fn path_requests_roundtrip() {
        let ok = Json::parse(r#"{"path": "/tmp/x.ksnap"}"#).unwrap();
        assert_eq!(parse_path_request(&ok).unwrap(), "/tmp/x.ksnap");
        for bad in [r#"{}"#, r#"{"path": 3}"#, r#"[]"#] {
            assert!(parse_path_request(&Json::parse(bad).unwrap()).is_err());
        }
    }

    #[test]
    fn stats_json_carries_live_counters() {
        let st = ServiceStats {
            engine_epoch: 4,
            sets_added: 9,
            sets_removed: 2,
            ..Default::default()
        };
        let json = stats_to_json(&st);
        assert_eq!(json.get("engine_epoch").unwrap().as_u64(), Some(4));
        assert_eq!(json.get("sets_added").unwrap().as_u64(), Some(9));
        assert_eq!(json.get("sets_removed").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn stats_json_carries_uptime_and_start_time() {
        let st = ServiceStats {
            uptime_secs: 12.5,
            start_time: std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000),
            ..Default::default()
        };
        let json = stats_to_json(&st);
        assert_eq!(json.get("uptime_secs").unwrap().as_f64(), Some(12.5));
        assert_eq!(
            json.get("start_time_unix_secs").unwrap().as_u64(),
            Some(1_700_000_000)
        );
    }

    #[test]
    fn semantically_invalid_overrides_pass_through() {
        // k = 0 / α out of range are the *service's* call, not the wire's.
        let repo = repo();
        let body = Json::parse(r#"{"elements": ["a"], "k": 0, "alpha": 7.5}"#).unwrap();
        let req = parse_search_request(&body, &repo).unwrap();
        assert_eq!(req.k, Some(0));
        assert_eq!(req.alpha, Some(7.5));
    }
}
