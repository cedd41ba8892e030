//! The system under test and the ledger's own copy of it.
//!
//! [`Served`] is a real `KoiosServer` on a loopback port over a mutable
//! `SearchService` with the default `ServiceConfig` (tracing ring and 1 ms
//! profiler on) and two workers. [`Mirror`] is the ledger's private
//! `MutableEngine` over the same inputs: it replays the acknowledged op log
//! and answers "what should epoch *e* have returned for this query".

use crate::http::{body_json, request_bytes, Conn};
use crate::load::{closed_pass, Sample};
use crate::workload::{self, Load, Spec, ALPHA, K};
use koios_common::{Json, SetId, TokenId};
use koios_core::{cosine_factory, EngineBackend, Hit, KoiosConfig, MutableEngine};
use koios_embed::ops::CorpusOp;
use koios_embed::repository::Repository;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use koios_embed::vectors::Embeddings;
use koios_net::server::KoiosServer;
use koios_service::{SearchRequest, SearchService, ServiceConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the served pool and client threads of the generator.
pub const CORES: usize = 2;
/// Partition seed of the sharded layout (any constant; routing only).
const SHARD_SEED: u64 = 42;

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// One query of the pool with its pre-encoded requests.
pub struct PoolQuery {
    pub tokens: Vec<TokenId>,
    /// The measured request.
    pub request: Vec<u8>,
    /// The same request with `"explain": true` (traced run).
    pub explain_request: Vec<u8>,
}

/// Everything generated before the system is built.
pub struct Inputs {
    pub spec: Spec,
    pub repo: Arc<Repository>,
    pub emb: Arc<Embeddings>,
    pub pool: Vec<PoolQuery>,
    pub oplog: Vec<Vec<CorpusOp>>,
    pub ingest_requests: Vec<Vec<u8>>,
}

impl Inputs {
    /// Dataset from the workload's profile; pool and `batches` op-log
    /// batches from the seed.
    pub fn generate(spec: &Spec, pool_size: usize, batches: usize, seed: u64) -> Inputs {
        let corpus = spec.profile().generate();
        // Inserts that race reads must not be returnable (see `Inserts`).
        let inserts = match spec.load {
            Load::Live { .. } => workload::Inserts::Unreachable,
            _ => workload::Inserts::Reachable,
        };
        let oplog = workload::op_log(&corpus, batches, inserts, seed);
        let ingest_requests = oplog
            .iter()
            .map(|ops| request_bytes("POST", "/ingest", &workload::ingest_body(ops)))
            .collect();
        let repo = Arc::new(corpus.repository);
        let pool = workload::sample_pool(&repo, spec, pool_size, seed)
            .into_iter()
            .map(|id| {
                let tokens = repo.set(id).to_vec();
                let encode = |explain| {
                    let body =
                        workload::search_body(&repo, &tokens, spec.bypass_result_cache, explain);
                    request_bytes("POST", "/search", &body)
                };
                PoolQuery {
                    request: encode(false),
                    explain_request: encode(true),
                    tokens,
                }
            })
            .collect();
        Inputs {
            spec: spec.clone(),
            repo,
            emb: Arc::new(corpus.embeddings),
            pool,
            oplog,
            ingest_requests,
        }
    }

    pub fn requests(&self, explain: bool) -> Vec<&[u8]> {
        self.pool
            .iter()
            .map(|q| {
                if explain {
                    q.explain_request.as_slice()
                } else {
                    q.request.as_slice()
                }
            })
            .collect()
    }

    /// A fresh mutable engine over the base corpus in the workload's layout.
    pub fn engine(&self) -> Result<MutableEngine, Error> {
        let cfg = KoiosConfig::new(K, ALPHA);
        let (repo, emb) = (Arc::clone(&self.repo), Some(Arc::clone(&self.emb)));
        Ok(if self.spec.partitions > 1 {
            MutableEngine::partitioned(
                repo,
                emb,
                cfg,
                self.spec.partitions,
                SHARD_SEED,
                cosine_factory(),
            )?
        } else {
            MutableEngine::single(repo, emb, cfg, cosine_factory())?
        })
    }

    /// Client connections of the read side.
    pub fn read_connections(&self) -> usize {
        match self.spec.load {
            Load::Closed { clients } => clients,
            Load::Open { connections, .. } => connections,
            Load::Live { .. } => 1,
        }
    }

    /// The pool indices of the warm-up pass.
    pub fn warmup_order(&self, seed: u64) -> Vec<usize> {
        match self.spec.load {
            Load::Open { zipf_s, .. } => {
                workload::warmup_draws(self.pool.len(), zipf_s, self.spec.warmup, seed)
            }
            // The reader starts at the head of the pool: warming the tail
            // keeps its first round from being served out of the result
            // cache the warm-up filled.
            Load::Live { .. } => {
                (self.pool.len().saturating_sub(self.spec.warmup)..self.pool.len()).collect()
            }
            Load::Closed { .. } => (0..self.spec.warmup.min(self.pool.len())).collect(),
        }
    }
}

/// The running system: server, service, snapshot file.
pub struct Served {
    pub server: KoiosServer,
    pub service: Arc<SearchService>,
    pub snapshot: PathBuf,
    /// `POST /snapshot` to [`Served::snapshot`].
    pub snapshot_request: Vec<u8>,
}

impl Served {
    /// Index/partition build, service construction, bind, base snapshot
    /// write, warm-up pass over HTTP — everything between "corpus in
    /// memory" and "first measured request", and how long it took.
    pub fn set_up(
        inputs: &Inputs,
        snapshot: &Path,
        warmup: &[usize],
    ) -> Result<(Served, Duration), Error> {
        let t0 = Instant::now();
        let engine = inputs.engine()?;
        let service = Arc::new(SearchService::from_mutable(
            engine,
            ServiceConfig::new()
                .with_workers(CORES)
                .with_cache_capacity(inputs.spec.result_cache)
                .with_token_cache_bytes(inputs.spec.token_cache_bytes),
        ));
        let server = KoiosServer::bind(Arc::clone(&service), "127.0.0.1:0")?;
        let _ = std::fs::remove_file(snapshot);
        let snapshot_request = request_bytes(
            "POST",
            "/snapshot",
            &Json::obj([("path", Json::str(snapshot.to_string_lossy()))]),
        );
        let served = Served {
            server,
            service,
            snapshot: snapshot.to_path_buf(),
            snapshot_request,
        };
        let mut conns = served.connect(inputs.read_connections())?;
        let base = conns[0].exchange(&served.snapshot_request)?;
        if base.status != 200 {
            return Err(format!("base snapshot answered {}", base.status).into());
        }
        closed_pass(&mut conns, &inputs.requests(false), warmup)?;
        let took = t0.elapsed();
        Ok((served, took))
    }

    pub fn connect(&self, n: usize) -> Result<Vec<Conn>, Error> {
        (0..n)
            .map(|_| Ok(Conn::open(self.server.addr())?))
            .collect()
    }

    /// Stops the server and removes the snapshot file.
    pub fn tear_down(mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.snapshot);
    }
}

/// Runs `f(i)` for `i in 0..n` on [`CORES`] threads; results in index order.
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CORES)
            .map(|_| {
                sc.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// The in-process reference of the served epoch-0 corpus for the given pool
/// queries: `SearchService::search` with the result cache bypassed, which
/// also leaves the token cache as warm as one pass over them makes it.
pub fn reference_pass(
    service: &SearchService,
    inputs: &Inputs,
    queries: &[usize],
) -> HashMap<usize, Vec<Hit>> {
    let hits = parallel_map(queries.len(), |i| {
        let req = SearchRequest::new(inputs.pool[queries[i]].tokens.clone()).bypassing_cache();
        service.search(req).result.hits
    });
    queries.iter().copied().zip(hits).collect()
}

/// The ledger's own engine over the same inputs.
pub struct Mirror {
    engine: MutableEngine,
    /// The corpus as of each epoch — every epoch when reads race the
    /// writer, only the latest otherwise (each is a copy of the corpus).
    backends: BTreeMap<u64, EngineBackend>,
    history: bool,
}

impl Mirror {
    pub fn new(inputs: &Inputs, history: bool) -> Result<Mirror, Error> {
        let engine = inputs.engine()?;
        let backends = BTreeMap::from([(0, engine.backend())]);
        Ok(Mirror {
            engine,
            backends,
            history,
        })
    }

    /// Replays one acknowledged batch; returns `(apply, mint)` times.
    pub fn apply(&mut self, ops: &[CorpusOp]) -> Result<(Duration, Duration), Error> {
        // The previous backend is still alive here, as it is in a serving
        // process: the apply pays the copy-on-write.
        let t0 = Instant::now();
        self.engine.apply(ops)?;
        let applied = t0.elapsed();
        let t1 = Instant::now();
        let backend = self.engine.backend();
        let minted = t1.elapsed();
        if !self.history {
            self.backends.clear();
        }
        self.backends.insert(self.engine.epoch(), backend);
        Ok((applied, minted))
    }

    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// The latest corpus and a cosine similarity over its vectors.
    pub fn latest(&self) -> (Arc<Repository>, Arc<dyn ElementSimilarity>) {
        let emb = self.engine.embeddings().expect("mirror carries vectors");
        (
            Arc::clone(self.engine.repository()),
            Arc::new(CosineSimilarity::new(Arc::clone(emb))),
        )
    }

    /// What epoch `epoch` of the corpus returns for `tokens`.
    pub fn search(&self, tokens: &[TokenId], epoch: u64) -> Vec<Hit> {
        self.backends[&epoch].search(tokens).hits
    }

    /// Reference hits for every distinct `(pool query, epoch)` a set of
    /// samples may have been served from.
    pub fn references(
        &self,
        inputs: &Inputs,
        samples: &[&Sample],
    ) -> HashMap<(usize, u64), Vec<Hit>> {
        let mut wanted: Vec<(usize, u64)> = samples
            .iter()
            .flat_map(|s| (s.epochs.0..=s.epochs.1).map(|e| (s.item, e)))
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let hits = parallel_map(wanted.len(), |i| {
            let (q, e) = wanted[i];
            self.search(&inputs.pool[q].tokens, e)
        });
        wanted.into_iter().zip(hits).collect()
    }
}

/// Whether a `POST /search` reply is a complete 200 answer carrying exactly
/// the reference hits: same sets in the same order, `lb`/`ub` to 1e-9.
pub fn reply_matches(status: u16, body: &[u8], reference: &[Hit]) -> bool {
    status == 200 && body_json(body).is_some_and(|json| json_matches(&json, reference))
}

/// [`reply_matches`] on an already parsed reply.
pub fn json_matches(reply: &Json, reference: &[Hit]) -> bool {
    let flag = |key| reply.get(key).and_then(Json::as_bool);
    if flag("rejected") != Some(false) || flag("timed_out") != Some(false) {
        return false;
    }
    let Some(hits) = reply.get("hits").and_then(Json::as_array) else {
        return false;
    };
    hits.len() == reference.len()
        && hits.iter().zip(reference).all(|(got, want)| {
            let num = |key| got.get(key).and_then(Json::as_f64);
            got.get("set").and_then(Json::as_u64) == Some(want.set.0 as u64)
                && num("lb").is_some_and(|lb| (lb - want.score.lb()).abs() <= 1e-9)
                && num("ub").is_some_and(|ub| (ub - want.score.ub()).abs() <= 1e-9)
        })
}

/// Checks a reply against the exhaustive baseline's top-k on the same
/// corpus: as many hits, every hit's true overlap inside its reported
/// interval, and the true overlaps of the served sets equal to the
/// baseline's scores (ties may pick different sets, never different
/// scores).
pub fn matches_exhaustive(
    reply: &Json,
    repo: &Repository,
    sim: &Arc<dyn ElementSimilarity>,
    query: &[TokenId],
) -> bool {
    let mut normalized = query.to_vec();
    normalized.sort_unstable();
    normalized.dedup();
    let baseline = koios_baselines::exhaustive::baseline_search(
        repo,
        Arc::clone(sim),
        &normalized,
        K,
        ALPHA,
        CORES,
        None,
    );
    let Some(hits) = reply.get("hits").and_then(Json::as_array) else {
        return false;
    };
    let mut served = Vec::with_capacity(hits.len());
    for hit in hits {
        let num = |key| hit.get(key).and_then(Json::as_f64);
        let (Some(set), Some(lb), Some(ub)) =
            (hit.get("set").and_then(Json::as_u64), num("lb"), num("ub"))
        else {
            return false;
        };
        let set = SetId(set as u32);
        if set.0 as usize >= repo.num_sets() || !repo.is_live(set) {
            return false;
        }
        let exact =
            koios_core::overlap::semantic_overlap(repo, sim.as_ref(), ALPHA, &normalized, set);
        if exact < lb - 1e-9 || exact > ub + 1e-9 {
            return false;
        }
        served.push(exact);
    }
    let mut truth: Vec<f64> = baseline.hits.iter().map(|h| h.score.ub()).collect();
    served.sort_by(|a, b| b.partial_cmp(a).expect("scores are never NaN"));
    truth.sort_by(|a, b| b.partial_cmp(a).expect("scores are never NaN"));
    served.len() == truth.len()
        && served
            .iter()
            .zip(&truth)
            .all(|(a, b)| (a - b).abs() <= 1e-9)
}

/// Whether two repositories hold the same corpus: vocabulary, and for every
/// set id the same liveness, name and tokens.
pub fn same_corpus(a: &Repository, b: &Repository) -> bool {
    a.num_sets() == b.num_sets()
        && a.vocab_size() == b.vocab_size()
        && (0..a.vocab_size() as u32).all(|t| a.token_str(TokenId(t)) == b.token_str(TokenId(t)))
        && a.iter_sets().all(|(id, tokens)| {
            a.is_live(id) == b.is_live(id)
                && a.set_name(id) == b.set_name(id)
                && tokens == b.set(id)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_core::ScoreBound;

    fn reference() -> Vec<Hit> {
        vec![
            Hit {
                set: SetId(4),
                score: ScoreBound::Exact(2.5),
            },
            Hit {
                set: SetId(1),
                score: ScoreBound::Range { lb: 1.0, ub: 2.0 },
            },
        ]
    }

    fn reply(hits: &str) -> String {
        format!(r#"{{"hits":{hits},"cache":"miss","rejected":false,"timed_out":false}}"#)
    }

    #[test]
    fn oracle_accepts_the_reference_and_nothing_else() {
        let good = reply(
            r#"[{"set":4,"name":"a","lb":2.5,"ub":2.5,"exact":true},
                {"set":1,"name":"b","lb":1.0000000001,"ub":2,"exact":false}]"#,
        );
        assert!(reply_matches(200, good.as_bytes(), &reference()));
        assert!(!reply_matches(503, good.as_bytes(), &reference()));
        let swapped = reply(r#"[{"set":1,"lb":1,"ub":2},{"set":4,"lb":2.5,"ub":2.5}]"#);
        assert!(!reply_matches(200, swapped.as_bytes(), &reference()));
        let off = reply(r#"[{"set":4,"lb":2.5,"ub":2.5},{"set":1,"lb":1.00001,"ub":2}]"#);
        assert!(!reply_matches(200, off.as_bytes(), &reference()));
        let short = reply(r#"[{"set":4,"lb":2.5,"ub":2.5}]"#);
        assert!(!reply_matches(200, short.as_bytes(), &reference()));
        let timed_out = good.replace(r#""timed_out":false"#, r#""timed_out":true"#);
        assert!(!reply_matches(200, timed_out.as_bytes(), &reference()));
        assert!(!reply_matches(200, b"not json", &reference()));
    }

    #[test]
    fn parallel_map_keeps_index_order() {
        assert_eq!(
            parallel_map(100, |i| i * i),
            (0..100).map(|i| i * i).collect::<Vec<_>>()
        );
    }
}
