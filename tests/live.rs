//! Live-corpus acceptance suite: mutation must be *indistinguishable from
//! a rebuild* and hot swaps must never drop a request.
//!
//! The mutability refactor (PR 8) threads `CorpusOp` batches through every
//! layer — repository tombstones, incremental embedding rows, index
//! insert/remove, the COW `MutableEngine`, snapshot delta chains and the
//! RCU-swapped service backend. These tests drive the whole stack at once:
//! a writer churns ops while 8 threads query, and the end state has to be
//! byte-identical to a cold replay of the same ops onto the same seed
//! corpus, on both engine layouts, with zero rejected requests along the
//! way. Snapshot deltas round-trip through `POST`-style service calls and
//! corrupted delta bytes must refuse to load, never serve wrong results.

use koios::datagen::corpus::{Corpus, CorpusSpec};
use koios::prelude::*;
use koios::store::SectionKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const THREADS: usize = 8;

fn corpus(seed: u64) -> Corpus {
    // Same compact shape as the concurrency suite: determinism shows at
    // any scale, and small sets keep Hungarian verification cheap in
    // debug builds.
    let mut spec = CorpusSpec::small(seed);
    spec.num_sets = 60;
    spec.vocab_size = 240;
    spec.clusters = 30;
    spec.set_size_min = 3;
    spec.set_size_max = 10;
    Corpus::generate(spec)
}

/// A deterministic op script: `inserts` new sets built from existing vocab
/// strings (so cosine has vectors to work with), interleaved with removes
/// of both seed sets and previously inserted sets. Every prefix is valid:
/// removes only target ids that are live when the op applies.
fn op_script(repo: &Repository, inserts: usize) -> Vec<CorpusOp> {
    let vocab: Vec<String> = (0..repo.vocab_size())
        .map(|t| repo.token_str(TokenId(t as u32)).to_string())
        .collect();
    let base = repo.num_sets() as u32;
    let mut ops = Vec::new();
    // Ids live at each point of the script, so removes always target a
    // set that exists and was not already tombstoned — seed sets and
    // script-inserted sets alike.
    let mut live: Vec<u32> = (0..base).collect();
    for i in 0..inserts {
        let len = 3 + (i * 7) % 6;
        let tokens: Vec<String> = (0..len)
            .map(|j| vocab[(i * 31 + j * 17) % vocab.len()].clone())
            .collect();
        ops.push(CorpusOp::insert(&format!("live{i}"), tokens));
        live.push(base + i as u32);
        // Every third insert retires a pseudo-randomly chosen live set.
        if i % 3 == 2 {
            let victim = live.swap_remove((i * 13) % live.len());
            ops.push(CorpusOp::remove(SetId(victim)));
        }
    }
    ops
}

fn engine(c: &Corpus, partitions: usize, cfg: KoiosConfig) -> MutableEngine {
    let repo = Arc::new(c.repository.clone());
    let emb = Arc::new(c.embeddings.clone());
    match partitions {
        1 => MutableEngine::single(repo, Some(emb), cfg, cosine_factory()).unwrap(),
        p => {
            MutableEngine::partitioned(repo, Some(emb), cfg, p, 0xC0FFEE, cosine_factory()).unwrap()
        }
    }
}

/// A set's tokens as the strings a wire client would send.
fn set_strings(repo: &Repository, id: SetId) -> Vec<String> {
    repo.set(id)
        .iter()
        .map(|t| repo.token_str(*t).to_string())
        .collect()
}

fn queries(repo: &Repository) -> Vec<Vec<TokenId>> {
    (0..6u32)
        .map(|i| repo.set(SetId(i * 9 % repo.num_sets() as u32)).to_vec())
        .collect()
}

/// ≥1k ops stream through a live service while 8 threads keep querying:
/// no request may be rejected, and when the writer finishes, the served
/// state must answer every probe identically to a *cold* engine built by
/// replaying the same script onto the same seed corpus — on both layouts.
#[test]
fn hammered_mutation_equals_cold_rebuild_with_zero_drops() {
    let c = corpus(8001);
    let ops = op_script(&c.repository, 800);
    assert!(ops.len() >= 1000, "script has {} ops", ops.len());
    let qs = queries(&c.repository);
    for partitions in [1usize, 4] {
        let cfg = KoiosConfig::new(5, 0.8).with_token_cache(Arc::new(TokenKnnCache::new(8 << 20)));
        let service = SearchService::from_mutable(
            engine(&c, partitions, cfg.clone()),
            ServiceConfig::new()
                .with_workers(THREADS)
                .with_cache_capacity(64),
        );

        let writer_done = AtomicBool::new(false);
        let answered = AtomicU64::new(0);
        let service_ref = &service;
        let qs_ref = &qs;
        let ops_ref = &ops;
        let done = &writer_done;
        let answered_ref = &answered;
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                sc.spawn(move || {
                    let mut i = t; // stagger collision patterns
                    while !done.load(Ordering::Relaxed) {
                        let q = qs_ref[i % qs_ref.len()].clone();
                        let resp = service_ref.search(SearchRequest::new(q));
                        assert!(!resp.rejected, "thread {t}: dropped request");
                        assert!(!resp.result.stats.timed_out);
                        answered_ref.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            // The writer: one batch of 10 ops at a time, epoch per batch.
            for (b, batch) in ops_ref.chunks(10).enumerate() {
                let out = service_ref
                    .ingest(batch)
                    .unwrap_or_else(|e| panic!("batch {b} rejected: {e}"));
                assert_eq!(out.epoch, b as u64 + 1);
            }
            done.store(true, Ordering::Relaxed);
        });
        assert!(
            answered.load(Ordering::Relaxed) > 0,
            "hammer produced no queries"
        );

        // Cold replay: a fresh engine over the same seed corpus, the same
        // script applied in one sitting. Mutation history must not matter.
        let mut cold = engine(&c, partitions, cfg);
        cold.apply(&ops).unwrap();
        let cold_backend = cold.backend();
        let live_backend = service.backend();
        let live_repo = service.repository();
        assert_eq!(live_repo.num_sets(), cold.repository().num_sets());
        for (id, tokens) in cold.repository().live_sets() {
            assert!(live_repo.is_live(id), "p={partitions}: set {id:?} liveness");
            assert_eq!(live_repo.set(id), tokens, "p={partitions}: set {id:?}");
        }
        // Probe with queries over the *final* corpus, including tokens
        // that only exist because the script interned them.
        let mut probes = queries(&live_repo);
        probes.push(
            live_repo
                .set(SetId(live_repo.num_sets() as u32 - 1))
                .to_vec(),
        );
        for (i, q) in probes.iter().enumerate() {
            assert_eq!(
                live_backend.search(q).hits,
                cold_backend.search(q).hits,
                "p={partitions}: probe {i} diverged from cold rebuild"
            );
        }

        let st = service.stats();
        assert_eq!(st.engine_epoch, (ops.len() as u64).div_ceil(10));
        assert_eq!(
            st.sets_added as usize,
            ops.iter().filter(|o| o.is_insert()).count()
        );
        assert_eq!(
            st.sets_removed as usize,
            ops.iter().filter(|o| !o.is_insert()).count()
        );
        assert_eq!(st.rejected, 0, "admission control dropped requests");
    }
}

/// Delta chaining through the service: base write, delta append, warm
/// restore, hot reload — provenance visible in `/stats` the whole way.
#[test]
fn service_delta_snapshots_roundtrip_and_hot_reload() {
    let c = corpus(8002);
    let cfg = KoiosConfig::new(5, 0.8);
    let service = SearchService::from_mutable(
        engine(&c, 4, cfg.clone()),
        ServiceConfig::new().with_workers(2),
    );
    let dir = std::env::temp_dir().join("koios-live-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.ksnap");
    let _ = std::fs::remove_file(&path);

    let meta = service.snapshot_to(&path).unwrap();
    assert!(meta.deltas.is_empty());

    let ops = op_script(&c.repository, 12);
    service.ingest(&ops).unwrap();
    let meta = service.snapshot_to(&path).unwrap();
    assert_eq!(meta.deltas.len(), 1);
    assert_eq!(meta.latest_epoch(), 1);
    assert_eq!(meta.deltas[0].ops, ops.len());

    // Warm restore on a second service: provenance + identical answers.
    let warm =
        SearchService::from_snapshot(&path, cfg.clone(), ServiceConfig::new().with_workers(2))
            .unwrap();
    let info = warm.stats().snapshot.expect("warm start has provenance");
    assert_eq!((info.deltas, info.latest_epoch), (1, 1));
    assert_eq!(info.partitions, 4);
    assert_eq!(warm.engine_epoch(), 1);
    for q in queries(&warm.repository()) {
        assert_eq!(
            warm.search(SearchRequest::new(q.clone())).result.hits,
            service.search(SearchRequest::new(q)).result.hits
        );
    }

    // Compaction folds the delta into the base; answers are unchanged.
    let compacted = koios::store::compact(&path).unwrap();
    assert!(compacted.deltas.is_empty());
    let from_compacted =
        SearchService::from_snapshot(&path, cfg, ServiceConfig::new().with_workers(2)).unwrap();
    for q in queries(&warm.repository()) {
        assert_eq!(
            from_compacted
                .search(SearchRequest::new(q.clone()))
                .result
                .hits,
            warm.search(SearchRequest::new(q)).result.hits
        );
    }

    // Hot reload: the first service diverges (more ops), then swaps back
    // to the file's state with a strictly higher epoch.
    service
        .ingest(&[CorpusOp::insert("stray", ["x", "y", "z"])])
        .unwrap();
    let before_reload = service.engine_epoch();
    let info = service.reload(&path).unwrap();
    assert!(service.engine_epoch() > before_reload);
    assert_eq!(
        service.repository().num_sets(),
        warm.repository().num_sets()
    );
    assert_eq!(service.stats().snapshot, Some(info));
}

/// Every corrupted byte in a delta section must be detected at load time:
/// flips across the delta byte range always fail with a checksum or chain
/// error — never a quietly different corpus.
#[test]
fn delta_bit_flips_never_load() {
    let c = corpus(8003);
    let service = SearchService::from_mutable(
        engine(&c, 1, KoiosConfig::new(5, 0.8)),
        ServiceConfig::new().with_workers(1),
    );
    let dir = std::env::temp_dir().join("koios-live-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bitflip.ksnap");
    let _ = std::fs::remove_file(&path);
    service.snapshot_to(&path).unwrap();
    service.ingest(&op_script(&c.repository, 6)).unwrap();
    let meta = service.snapshot_to(&path).unwrap();
    let delta_sections: Vec<(u64, u64)> = meta
        .sections
        .iter()
        .filter(|s| s.kind == SectionKind::Delta)
        .map(|s| (s.offset, s.len))
        .collect();
    assert!(!delta_sections.is_empty());

    let pristine = std::fs::read(&path).unwrap();
    for (offset, len) in delta_sections {
        // Stride through the section: cheap, and every byte class (length
        // prefixes, op payloads, vector bits) gets hit.
        for i in (0..len as usize).step_by(7) {
            let mut bytes = pristine.clone();
            bytes[offset as usize + i] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let err = SearchService::from_snapshot(
                &path,
                KoiosConfig::new(5, 0.8),
                ServiceConfig::new().with_workers(1),
            )
            .err()
            .unwrap_or_else(|| panic!("flip at +{i} loaded fine"));
            let msg = err.to_string();
            assert!(
                msg.contains("checksum") || msg.contains("delta chain"),
                "flip at +{i}: unexpected error {msg}"
            );
        }
    }
    std::fs::write(&path, &pristine).unwrap();
    assert!(SearchService::from_snapshot(
        &path,
        KoiosConfig::new(5, 0.8),
        ServiceConfig::new().with_workers(1)
    )
    .is_ok());
}

/// The HTTP admin surface end-to-end: ingest over the wire, watch the
/// epoch and counters in `/stats`, snapshot + reload remotely, and get a
/// clean 400 for malformed ops.
#[test]
fn http_admin_routes_mutate_snapshot_and_reload() {
    let c = corpus(8004);
    let service = Arc::new(SearchService::from_mutable(
        engine(&c, 1, KoiosConfig::new(5, 0.8)),
        ServiceConfig::new().with_workers(2),
    ));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = KoiosClient::new(server.addr());

    // A set whose name we can find again after ingesting it over HTTP.
    let donor = set_strings(&c.repository, SetId(0));
    let body = Json::obj([(
        "ops",
        Json::arr([Json::obj([
            ("op", Json::str("insert")),
            ("name", Json::str("wire0")),
            ("tokens", Json::arr(donor.iter().map(Json::str))),
        ])]),
    )]);
    let (status, reply) = client.ingest(&body).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("inserted").unwrap().as_u64(), Some(1));
    assert_eq!(reply.get("epoch").unwrap().as_u64(), Some(1));

    // The ingested set is immediately searchable and tops its own query.
    let (status, reply) = client.search_elements(&donor).unwrap();
    assert_eq!(status, 200);
    let hits = reply.get("hits").unwrap().as_array().unwrap();
    assert!(hits
        .iter()
        .any(|h| h.get("name").unwrap().as_str() == Some("wire0")));

    // /stats carries the live counters.
    let (_, stats) = client.stats().unwrap();
    assert_eq!(stats.get("engine_epoch").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("sets_added").unwrap().as_u64(), Some(1));

    // Snapshot + divergence + reload, all over the wire.
    let dir = std::env::temp_dir().join("koios-live-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("http.ksnap");
    let _ = std::fs::remove_file(&path);
    let path_str = path.to_str().unwrap();
    let (status, reply) = client.snapshot(path_str).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("deltas").unwrap().as_u64(), Some(0));
    let remove = Json::obj([(
        "ops",
        Json::arr([Json::obj([
            ("op", Json::str("remove")),
            ("set", Json::num(c.repository.num_sets() as f64)),
        ])]),
    )]);
    let (status, _) = client.ingest(&remove).unwrap();
    assert_eq!(status, 200);
    let (status, reply) = client.reload(path_str).unwrap();
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(reply.get("reloaded").unwrap().as_bool(), Some(true));
    let snap = reply.get("snapshot").unwrap();
    assert_eq!(snap.get("latest_epoch").unwrap().as_u64(), Some(0));
    // The reloaded corpus has wire0 back (the remove happened after the
    // snapshot was taken).
    let (_, reply) = client.search_elements(&donor).unwrap();
    let hits = reply.get("hits").unwrap().as_array().unwrap();
    assert!(hits
        .iter()
        .any(|h| h.get("name").unwrap().as_str() == Some("wire0")));
    // /stats now shows the reload provenance.
    let (_, stats) = client.stats().unwrap();
    let snap = stats.get("snapshot").unwrap();
    assert_eq!(snap.get("deltas").unwrap().as_u64(), Some(0));

    // The admin routes are instrumented: mutation counters and phase
    // histograms in /metrics, plus epoch-stamped forced traces in the ring
    // (ingest ×2, snapshot ×1, reload ×1 so far).
    let (status, text) = client.metrics().unwrap();
    assert_eq!(status, 200);
    for want in [
        "koios_mutations_total{op=\"ingest\"} 2",
        "koios_mutations_total{op=\"snapshot\"} 1",
        "koios_mutations_total{op=\"reload\"} 1",
        "koios_request_seconds_count{phase=\"ingest\"} 2",
        "koios_request_seconds_count{phase=\"snapshot\"} 1",
        "koios_request_seconds_count{phase=\"reload\"} 1",
    ] {
        assert!(text.contains(want), "missing {want} in:\n{text}");
    }
    let mutation_traces: Vec<_> = service
        .traces()
        .into_iter()
        .filter(|t| t.spans.iter().any(|s| s.name == "reload"))
        .collect();
    assert_eq!(mutation_traces.len(), 1, "reload trace always retained");
    assert!(mutation_traces[0].forced);
    // The reload published epoch 3: two ingests bumped the live engine to
    // 2, and the hot swap bumps past it so stale cache entries die.
    assert_eq!(mutation_traces[0].spans[0].epoch, 3);

    // Malformed ops are 400s.
    let (status, reply) = client
        .ingest(&Json::obj([("ops", Json::num(3.0))]))
        .unwrap();
    assert_eq!(status, 400, "{reply:?}");
}

/// Cosine behind a gate: while it is closed every vocabulary scan blocks,
/// which parks a worker mid-search so the test decides what queues behind
/// it and what the writer publishes meanwhile.
struct GatedCosine {
    inner: Arc<dyn ElementSimilarity>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl ElementSimilarity for GatedCosine {
    fn sim(&self, a: TokenId, b: TokenId) -> f64 {
        self.inner.sim(a, b)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn scores_above(&self, q: TokenId, vocab: usize, alpha: f64, out: &mut Vec<(f64, TokenId)>) {
        let (open, cv) = &*self.gate;
        drop(cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        self.inner.scores_above(q, vocab, alpha, out)
    }
}

/// `GET /stats` never waits on the writer. A factory that blocks once
/// armed parks an `ingest` inside `MutableEngine::backend` — after the
/// batch applied, while the ingest holds the writer lock — and `stats()`
/// on another thread must still answer.
#[test]
fn stats_answer_while_an_ingest_holds_the_writer() {
    let c = corpus(8006);
    let armed = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let factory: SimFactory = {
        let (armed, parked, gate) = (Arc::clone(&armed), Arc::clone(&parked), Arc::clone(&gate));
        Arc::new(move |repo, emb| {
            if armed.load(Ordering::SeqCst) {
                parked.store(true, Ordering::SeqCst);
                let (open, cv) = &*gate;
                drop(cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
            }
            cosine_factory()(repo, emb)
        })
    };
    let engine = MutableEngine::single(
        Arc::new(c.repository.clone()),
        Some(Arc::new(c.embeddings.clone())),
        KoiosConfig::new(3, 0.8),
        factory,
    )
    .unwrap();
    let service = SearchService::from_mutable(engine, ServiceConfig::new().with_workers(1));
    armed.store(true, Ordering::SeqCst);

    std::thread::scope(|sc| {
        let service = &service;
        let donor = set_strings(&c.repository, SetId(0));
        let writer = sc.spawn(move || service.ingest(&[CorpusOp::insert("parked", donor)]));
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        sc.spawn(move || tx.send(service.stats()).unwrap());
        let answered = rx.recv_timeout(std::time::Duration::from_secs(5));
        // Release the writer whatever happened, so a failure cannot hang.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let stats = answered.expect("stats() waited on the writer lock");
        assert_eq!((stats.engine_epoch, stats.sets_added), (0, 0));
        assert_eq!(writer.join().unwrap().unwrap().epoch, 1);
    });
    assert_eq!(service.stats().sets_added, 1);
}

/// ROADMAP 1a: a `/search` parsed at epoch *e* and served at *e′ > e* must
/// name its hits from the repository it was *served* from. Four HTTP
/// readers are parsed and queued behind a parked worker, the writer then
/// ingests one set per reader that tops that reader's query, and only
/// then does the worker run them: every reply has to be a 200 that names
/// the set that did not exist when the request was parsed — not a
/// connection thread that indexed past its parse-time repository and died.
#[test]
fn http_search_overtaken_by_reachable_ingest_names_the_new_sets() {
    const READERS: usize = 4;
    let c = corpus(8005);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let factory: SimFactory = {
        let gate = Arc::clone(&gate);
        Arc::new(move |repo, emb| {
            Ok(Arc::new(GatedCosine {
                inner: cosine_factory()(repo, emb)?,
                gate: Arc::clone(&gate),
            }) as Arc<dyn ElementSimilarity>)
        })
    };
    let engine = MutableEngine::single(
        Arc::new(c.repository.clone()),
        Some(Arc::new(c.embeddings.clone())),
        KoiosConfig::new(3, 0.8),
        factory,
    )
    .unwrap();
    let service = Arc::new(SearchService::from_mutable(
        engine,
        ServiceConfig::new().with_workers(1),
    ));
    let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let donors: Vec<Vec<String>> = (0..READERS as u32)
        .map(|i| set_strings(&c.repository, SetId(i * 7)))
        .collect();

    // Park the only worker inside a search.
    let blocker = service.submit(SearchRequest::new(c.repository.set(SetId(1)).to_vec()));
    while service.queued() > 0 {
        std::thread::yield_now();
    }
    std::thread::scope(|sc| {
        let readers: Vec<_> = donors
            .iter()
            .map(|donor| sc.spawn(move || KoiosClient::new(addr).search_elements(donor)))
            .collect();
        // All four are parsed (against epoch 0) and waiting for the worker.
        while service.queued() < READERS {
            std::thread::yield_now();
        }
        let ops: Vec<CorpusOp> = donors
            .iter()
            .enumerate()
            .map(|(i, donor)| CorpusOp::insert(&format!("hot{i}"), donor.clone()))
            .collect();
        assert_eq!(service.ingest(&ops).unwrap().epoch, 1);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();

        for (i, reader) in readers.into_iter().enumerate() {
            let (status, reply) = reader
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("reader {i}: connection died: {e:?}"));
            assert_eq!(status, 200, "reader {i}: {reply:?}");
            let names: Vec<&str> = reply
                .get("hits")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|h| h.get("name").unwrap().as_str().unwrap())
                .collect();
            // The donor seed set and its fresh copy tie at full overlap.
            let hot = format!("hot{i}");
            assert!(names.contains(&hot.as_str()), "reader {i}: {names:?}");
        }
    });
    assert!(!blocker.wait().rejected);
}
