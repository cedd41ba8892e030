//! The four workloads and everything generated for them from the seed:
//! query pool, request schedule, op log.
//!
//! The *dataset* of a workload is the repository's own profile
//! (`koios_datagen::profiles`, a fixed corpus like the real OpenData or
//! Twitter dumps the paper uses) and its queries are a fixed sample of it
//! (see [`sample_pool`]); the seed draws the *traffic* — in which order the
//! queries are asked, every draw of the open-loop schedule, which sets the
//! writer inserts and removes. Sizing runs showed why: regenerating an
//! 800-set heavy-tailed corpus per seed moves closed-loop qps by ±20% (a
//! handful of 1,000-token sets decide the matching cost), which would bury
//! any bound, while reseeding the traffic over one corpus and one query set
//! moves it by what two runs of one seed differ by.

use koios_common::{Json, SetId, TokenId};
use koios_datagen::corpus::Corpus;
use koios_datagen::profiles::{self, DatasetProfile};
use koios_datagen::zipf::Zipf;
use koios_embed::ops::CorpusOp;
use koios_embed::rand_util::gaussian;
use koios_embed::repository::Repository;
use koios_embed::vectors::{dot, Embeddings};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Result size and element-similarity threshold: the paper's defaults.
pub const K: usize = 10;
pub const ALPHA: f64 = 0.8;

/// Every ingest batch: 8 inserts (new tokens carry vectors) + 4 removes.
pub const INSERTS_PER_BATCH: usize = 8;
pub const REMOVES_PER_BATCH: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    OpenData,
    Twitter,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each of `clients` connections sends its next request when the
    /// previous reply arrived; every round is one pass over the pool.
    Closed { clients: usize },
    /// Requests are due at a fixed rate whatever the replies do, spread
    /// over `connections`; queries are drawn Zipf(`zipf_s`) from the pool.
    /// The schedule is played for a share of the run; the rest replays the
    /// same mix closed loop (`run::replay_window`).
    Open {
        rate: f64,
        connections: usize,
        zipf_s: f64,
    },
    /// One closed-loop reader cycling over the pool while one writer
    /// follows an open-loop schedule of `/ingest` and `/snapshot` calls.
    Live {
        ingest_every: Duration,
        snapshot_every: Duration,
    },
}

/// One workload: fixed here, cited by name everywhere else.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    pub partitions: usize,
    /// Queries in the pool (fewer when the corpus has fewer eligible sets).
    pub pool: usize,
    /// Query cardinality `[lo, hi)`.
    pub cardinality: (usize, usize),
    /// Requests carry `"bypass_cache": true`.
    pub bypass_result_cache: bool,
    /// `ServiceConfig::cache_capacity`.
    pub result_cache: usize,
    /// `ServiceConfig::token_cache_bytes`.
    pub token_cache_bytes: usize,
    pub load: Load,
    /// Requests of the warm-up pass every set-up ends with.
    pub warmup: usize,
    /// Latency limit behind `slo_share`: ≈2× this workload's `p95_ms` at
    /// the commit that added the ledger, rounded (open loop: ≈4× the p95
    /// from the due time, which swings with the host). Fixed; never
    /// re-derived.
    pub slo_ms: f64,
}

/// Ingest batches of the write probe that follows the read window of the
/// workloads without a live writer.
pub const PROBE_BATCHES: usize = 30;

pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "large_sharded",
            why: "OpenData-like sets x10 shards, result cache bypassed, token cache warm: exact \
                  matching in shards and merge loop is >90% of engine time, so verify/merge/kernel \
                  work shows here only",
            dataset: Dataset::OpenData,
            scale: 0.1,
            partitions: 10,
            pool: 180,
            cardinality: (10, 100),
            bypass_result_cache: true,
            result_cache: 1024,
            token_cache_bytes: 16 << 20,
            load: Load::Closed { clients: 2 },
            warmup: 40,
            slo_ms: 150.0,
        },
        Spec {
            name: "small_stream",
            why:
                "Twitter-like sets, single engine, token cache (256 KiB) smaller than the working \
                  set: vocabulary scans, token stream and refinement are ~75% of engine time; \
                  bypass workload for merge/Hungarian changes",
            dataset: Dataset::Twitter,
            scale: 0.5,
            partitions: 1,
            pool: 300,
            cardinality: (5, 151),
            bypass_result_cache: true,
            result_cache: 1024,
            token_cache_bytes: 256 << 10,
            load: Load::Closed { clients: 2 },
            warmup: 60,
            slo_ms: 200.0,
        },
        Spec {
            name: "repeat_open",
            why: "Zipf(1.0) repeats over a 256-entry result LRU, two thirds of the requests cache \
                  hits: an open loop at 100 req/s for the latency limit, then the same mix closed \
                  loop x1 for capacity and the miss tail",
            dataset: Dataset::Twitter,
            scale: 0.2,
            partitions: 1,
            pool: 1000,
            cardinality: (5, 151),
            bypass_result_cache: false,
            result_cache: 256,
            token_cache_bytes: 16 << 20,
            load: Load::Open {
                rate: 100.0,
                connections: 2,
                zipf_s: 1.0,
            },
            warmup: 200,
            slo_ms: 100.0,
        },
        Spec {
            name: "live_mix",
            why: "mutable engine: a closed-loop reader against a writer ingesting 8 inserts + 4 \
                  removes every 250 ms and appending a delta snapshot every 500 ms, so write-side \
                  cost and cache invalidation show",
            dataset: Dataset::Twitter,
            scale: 0.2,
            partitions: 1,
            pool: 240,
            cardinality: (5, 151),
            bypass_result_cache: false,
            result_cache: 1024,
            token_cache_bytes: 16 << 20,
            load: Load::Live {
                ingest_every: Duration::from_millis(250),
                snapshot_every: Duration::from_millis(500),
            },
            warmup: 60,
            slo_ms: 80.0,
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

impl Spec {
    pub fn profile(&self) -> DatasetProfile {
        match self.dataset {
            Dataset::OpenData => profiles::opendata(self.scale),
            Dataset::Twitter => profiles::twitter(self.scale),
        }
    }
}

/// Independent random streams per purpose, so that e.g. lengthening the
/// schedule never changes the pool.
fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The query pool of a workload, in request order.
///
/// *Which* sets are queries is a property of the dataset, the same for
/// every seed — the fixed query benchmark that goes with a fixed corpus:
/// the eligible sets are sorted by cardinality and cut into `n` equal
/// strata, and one set is drawn from each with a constant stream. So is
/// the popularity rank of the open loop (pool position, a constant
/// shuffle): which queries are hot decides what the miss stream costs. The
/// seed decides the request *order* of the closed loops, and every draw of
/// the open loop's schedule. (Sizing: drawing the 180 sets per seed
/// moved `large_sharded` qps between 53 and 73 and its p95 between 57 and
/// 80 ms over ten seeds — query cost is heavy-tailed within a cardinality
/// stratum — which no 10% bound survives.)
pub fn sample_pool(repo: &Repository, spec: &Spec, n: usize, seed: u64) -> Vec<SetId> {
    let (lo, hi) = spec.cardinality;
    let mut eligible: Vec<SetId> = repo
        .iter_sets()
        .filter(|(_, s)| s.len() >= lo && s.len() < hi)
        .map(|(id, _)| id)
        .collect();
    eligible.sort_by_key(|&id| (repo.set_len(id), id));
    let n = n.min(eligible.len());
    let mut pick = stream(0, 1);
    let mut pool: Vec<SetId> = (0..n)
        .map(|i| {
            let (a, b) = (i * eligible.len() / n, (i + 1) * eligible.len() / n);
            eligible[pick.gen_range(a..b)]
        })
        .collect();
    let order_seed = match spec.load {
        Load::Open { .. } => 0,
        _ => seed,
    };
    pool.shuffle(&mut stream(order_seed, 5));
    pool
}

/// The order in which closed-loop round `round` asks the `n` pool queries:
/// every round holds the same requests, each in a permutation of its own.
/// With two clients, which queries run side by side decides what the slow
/// ones cost; one order repeated every round would make a run's p95 a
/// property of that order (57–76 ms over ten seeds on `large_sharded`).
pub fn round_order(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut stream(seed, 16 + round));
    order
}

/// `POST /search` body for a query, elements sent as strings the way a
/// client that knows no token ids would.
pub fn search_body(repo: &Repository, tokens: &[TokenId], bypass: bool, explain: bool) -> Json {
    let mut fields = vec![(
        "elements",
        Json::arr(tokens.iter().map(|&t| Json::str(repo.token_str(t)))),
    )];
    if bypass {
        fields.push(("bypass_cache", Json::Bool(true)));
    }
    if explain {
        fields.push(("explain", Json::Bool(true)));
    }
    Json::obj(fields)
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Offset from the start of the window at which the request is due.
    pub at: Duration,
    /// Pool index of the query.
    pub query: usize,
}

/// `count` requests due every `1/rate` seconds over pool positions that
/// follow Zipf(`zipf_s`) *exactly*: the positions are the law's quantiles
/// at `(j + u) / count` (one seeded offset `u`), so rank `r` appears
/// `count · p(r)` times give or take one whatever the seed, and the seed
/// shuffles them into the request order. Independent draws would leave the
/// share of cold — expensive — requests to luck.
pub fn open_schedule(pool: usize, rate: f64, zipf_s: f64, count: usize, seed: u64) -> Vec<Due> {
    let zipf = Zipf::new(pool, zipf_s);
    let cumulative: Vec<f64> = (0..pool)
        .scan(0.0, |acc, r| {
            *acc += zipf.pmf(r);
            Some(*acc)
        })
        .collect();
    let mut rng = stream(seed, 2);
    let u: f64 = rng.gen();
    let mut queries: Vec<usize> = (0..count)
        .map(|j| {
            let q = (j as f64 + u) / count as f64;
            cumulative.partition_point(|&c| c < q).min(pool - 1)
        })
        .collect();
    queries.shuffle(&mut rng);
    queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| Due {
            at: Duration::from_secs_f64(i as f64 / rate),
            query,
        })
        .collect()
}

/// The requests of one round of the open-loop workload's saturated replay
/// (pool indices): `count` requests that follow the popularity law exactly,
/// the same for every round and every seed — [`round_order`] draws each
/// round's order.
pub fn replay_mix(pool: usize, zipf_s: f64, count: usize) -> Vec<usize> {
    open_schedule(pool, 1.0, zipf_s, count, 0)
        .iter()
        .map(|due| due.query)
        .collect()
}

/// The closed-loop warm-up of the open-loop workload: the same popularity
/// law, an independent stream.
pub fn warmup_draws(pool: usize, zipf_s: f64, count: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(pool, zipf_s);
    let mut rng = stream(seed, 3);
    (0..count).map(|_| zipf.sample(&mut rng)).collect()
}

/// What the writer connection does and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteOp {
    /// `POST /ingest` with batch number `.0` of the op log.
    Ingest(usize),
    /// `POST /snapshot` to the run's snapshot file (a delta append).
    Snapshot,
}

/// Writer schedule: batch `i` due at `(i + 1) · ingest_every`, snapshots at
/// every `snapshot_every` shifted by half an ingest period so the two never
/// share a due time. Ends with the last ingest; sorted by due time.
pub fn write_schedule(
    batches: std::ops::Range<usize>,
    ingest_every: Duration,
    snapshot_every: Duration,
) -> Vec<(Duration, WriteOp)> {
    let n = batches.len() as u32;
    let mut events: Vec<(Duration, WriteOp)> = batches
        .enumerate()
        .map(|(i, b)| (ingest_every * (i as u32 + 1), WriteOp::Ingest(b)))
        .collect();
    let end = ingest_every * n;
    let mut at = snapshot_every + ingest_every / 2;
    while at < end {
        events.push((at, WriteOp::Snapshot));
        at += snapshot_every;
    }
    events.sort_by_key(|e| e.0);
    events
}

/// Whether the sets an op log inserts can match a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inserts {
    /// A thinned copy of a base set plus one or two tokens new to the
    /// vocabulary, each with a unit vector next to an existing token's:
    /// the set competes for every top-k its source competes for.
    Reachable,
    /// Only tokens new to the vocabulary, their vectors under α to every
    /// existing token's, so the set overlaps no query. For inserts that
    /// race reads: `koios_net::server::search`
    /// pins the repository *before* the worker picks its backend, so a
    /// search overtaken by an ingest that returns one of the just-inserted
    /// sets indexes past the pinned repository in `wire::response_to_json`
    /// and the connection thread panics (seen on the first sizing runs of
    /// `live_mix`). Until that is fixed, racing inserts must not be
    /// returnable or the workload fails operations at random; removes
    /// still change what the reader sees.
    Unreachable,
}

/// A unit vector at cosine `cos` from unit vector `v`.
fn vector_at(v: &[f32], cos: f32, rng: &mut StdRng) -> Vec<f32> {
    let mut r: Vec<f32> = v.iter().map(|_| rng.gen::<f64>() as f32 - 0.5).collect();
    let along: f32 = r.iter().zip(v).map(|(a, b)| a * b).sum();
    r.iter_mut().zip(v).for_each(|(a, b)| *a -= along * b);
    let norm = r.iter().map(|x| x * x).sum::<f32>().sqrt();
    let sin = (1.0 - cos * cos).sqrt();
    let mut out: Vec<f32> = v
        .iter()
        .zip(&r)
        .map(|(b, a)| cos * b + sin * a / norm)
        .collect();
    let norm = out.iter().map(|x| x * x).sum::<f32>().sqrt();
    out.iter_mut().for_each(|x| *x /= norm);
    out
}

/// A random unit vector whose cosine to every vector of `emb` stays under
/// `below` (redrawn until it does).
fn far_vector(emb: &Embeddings, below: f64, rng: &mut StdRng) -> Vec<f32> {
    loop {
        let mut v: Vec<f32> = (0..emb.dim()).map(|_| gaussian(rng) as f32).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= norm);
        let near = (0..emb.vocab() as u32)
            .filter_map(|t| emb.get(TokenId(t)))
            .any(|row| dot(row, &v) >= below);
        if !near {
            return v;
        }
    }
}

/// The op log: `batches` batches of [`INSERTS_PER_BATCH`] inserts (see
/// [`Inserts`]; new tokens carry vectors) and [`REMOVES_PER_BATCH`]
/// removes. Removes hit sets that are live at that point (base sets or
/// earlier inserts, never a set of the same batch).
pub fn op_log(corpus: &Corpus, batches: usize, inserts: Inserts, seed: u64) -> Vec<Vec<CorpusOp>> {
    let repo = &corpus.repository;
    let emb = &corpus.embeddings;
    let mut rng = stream(seed, 4);
    let base = repo.num_sets() as u32;
    let mut live: Vec<u32> = (0..base).collect();
    let mut next_id = base;
    let mut log = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut ops = Vec::with_capacity(INSERTS_PER_BATCH + REMOVES_PER_BATCH);
        for _ in 0..REMOVES_PER_BATCH {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(CorpusOp::remove(SetId(victim)));
        }
        for i in 0..INSERTS_PER_BATCH {
            let source = repo.set(SetId(rng.gen_range(0..base)));
            let (mut tokens, fresh): (Vec<String>, usize) = match inserts {
                Inserts::Reachable => {
                    let kept = source
                        .iter()
                        .filter(|_| rng.gen_bool(0.8))
                        .take(48)
                        .map(|&t| repo.token_str(t).to_string())
                        .collect();
                    (kept, rng.gen_range(1..3usize))
                }
                Inserts::Unreachable => (Vec::new(), source.len().min(6)),
            };
            let mut vectors = Vec::new();
            for j in 0..fresh {
                let token = format!("live{b:04}n{i}t{j}");
                let row = match inserts {
                    Inserts::Reachable => emb
                        .get(source[rng.gen_range(0..source.len())])
                        .map(|v| vector_at(v, 0.98, &mut rng)),
                    Inserts::Unreachable => Some(far_vector(emb, ALPHA - 0.05, &mut rng)),
                };
                vectors.extend(row.map(|row| (token.clone(), row)));
                tokens.push(token);
            }
            ops.push(CorpusOp::Insert {
                name: format!("live-{b:04}-{i}"),
                tokens,
                vectors,
            });
            live.push(next_id);
            next_id += 1;
        }
        // Removes were drawn first so they can only name sets of earlier
        // batches; on the wire they follow the inserts.
        ops.rotate_left(REMOVES_PER_BATCH);
        log.push(ops);
    }
    log
}

/// `POST /ingest` body for one batch.
pub fn ingest_body(ops: &[CorpusOp]) -> Json {
    let ops = ops.iter().map(|op| match op {
        CorpusOp::Insert {
            name,
            tokens,
            vectors,
        } => Json::obj([
            ("op", Json::str("insert")),
            ("name", Json::str(name)),
            ("tokens", Json::arr(tokens.iter().map(Json::str))),
            (
                "vectors",
                Json::obj(vectors.iter().map(|(t, row)| {
                    (
                        t.clone(),
                        Json::arr(row.iter().map(|&x| Json::num(x as f64))),
                    )
                })),
            ),
        ]),
        CorpusOp::Remove { set } => Json::obj([
            ("op", Json::str("remove")),
            ("set", Json::num(set.0 as f64)),
        ]),
    });
    Json::obj([("ops", Json::arr(ops))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_datagen::corpus::CorpusSpec;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusSpec::small(5))
    }

    fn small_spec() -> Spec {
        Spec {
            cardinality: (4, 41),
            ..spec("small_stream").unwrap()
        }
    }

    #[test]
    fn same_seed_same_requests_and_ops_other_seed_differs() {
        let c = corpus();
        let spec = small_spec();
        let pool = |seed| sample_pool(&c.repository, &spec, 40, seed);
        assert_eq!(pool(42), pool(42));
        assert_ne!(pool(42), pool(7), "another seed, another request order");
        assert_eq!(pool(42).len(), 40);
        let sorted = |mut p: Vec<SetId>| {
            p.sort();
            p
        };
        assert_eq!(sorted(pool(42)), sorted(pool(7)), "the same queries");

        let sched = |seed| open_schedule(40, 200.0, 1.0, 500, seed);
        assert_eq!(sched(42), sched(42));
        assert_ne!(sched(42), sched(7));
        assert_eq!(round_order(40, 42, 3), round_order(40, 42, 3));
        assert_ne!(round_order(40, 42, 3), round_order(40, 42, 4));
        assert_ne!(round_order(40, 42, 3), round_order(40, 7, 3));
        assert_eq!(
            warmup_draws(40, 1.0, 100, 42),
            warmup_draws(40, 1.0, 100, 42)
        );

        let ops = |seed| op_log(&c, 6, Inserts::Reachable, seed);
        assert_eq!(ops(42), ops(42));
        assert_ne!(ops(42), ops(7));
        // The encoded requests are a pure function of the generated inputs.
        assert_eq!(
            ingest_body(&ops(42)[0]).encode(),
            ingest_body(&ops(42)[0]).encode()
        );
    }

    #[test]
    fn pool_is_stratified_by_cardinality() {
        let c = corpus();
        let spec = small_spec();
        let n = 20;
        let mut eligible: Vec<usize> = c
            .repository
            .iter_sets()
            .map(|(_, s)| s.len())
            .filter(|&len| len >= spec.cardinality.0 && len < spec.cardinality.1)
            .collect();
        eligible.sort_unstable();
        let mut sizes: Vec<usize> = sample_pool(&c.repository, &spec, n, 1)
            .iter()
            .map(|&id| c.repository.set_len(id))
            .collect();
        sizes.sort_unstable();
        // The i-th smallest query comes from the i-th cardinality stratum.
        for (i, size) in sizes.iter().enumerate() {
            let (a, b) = (i * eligible.len() / n, (i + 1) * eligible.len() / n);
            assert!(
                (eligible[a]..=eligible[b - 1]).contains(size),
                "query {i} of size {size} outside stratum {:?}",
                (eligible[a], eligible[b - 1])
            );
        }
    }

    #[test]
    fn zipf_schedule_mass_follows_the_law() {
        let n = 50_000;
        let sched = open_schedule(2000, 200.0, 1.0, n, 11);
        let h: f64 = (1..=2000).map(|i| 1.0 / i as f64).sum();
        let top = |ranks: usize| sched.iter().filter(|d| d.query < ranks).count() as f64 / n as f64;
        let law = |ranks: usize| (1..=ranks).map(|i| 1.0 / i as f64).sum::<f64>() / h;
        assert!((top(1) - law(1)).abs() < 0.01, "rank 0 mass {}", top(1));
        assert!((top(256) - law(256)).abs() < 0.01, "top-256 {}", top(256));
        // Due times are an arithmetic progression at the stated rate.
        assert_eq!(sched[0].at, Duration::ZERO);
        assert_eq!(sched[200].at, Duration::from_secs(1));
    }

    #[test]
    fn replay_rounds_hold_more_distinct_queries_than_the_result_lru() {
        let spec = spec("repeat_open").unwrap();
        let Load::Open { zipf_s, .. } = spec.load else {
            panic!("repeat_open is the open-loop workload");
        };
        let mix = replay_mix(spec.pool, zipf_s, crate::run::REPLAY_ROUND);
        assert_eq!(mix, replay_mix(spec.pool, zipf_s, crate::run::REPLAY_ROUND));
        let mut distinct = mix.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // Otherwise a round could be served from what the previous one
        // left in the cache.
        assert!(distinct.len() > spec.result_cache, "{}", distinct.len());
        // The head of the law repeats: most requests can be hits.
        assert!(mix.iter().filter(|&&q| q < spec.result_cache).count() > mix.len() / 2);
    }

    #[test]
    fn op_log_only_removes_live_sets_and_applies_cleanly() {
        let c = corpus();
        let log = op_log(&c, 10, Inserts::Reachable, 3);
        let mut engine = koios_core::MutableEngine::single(
            std::sync::Arc::new(c.repository.clone()),
            Some(std::sync::Arc::new(c.embeddings.clone())),
            koios_core::KoiosConfig::new(K, ALPHA),
            koios_core::cosine_factory(),
        )
        .unwrap();
        for batch in &log {
            assert_eq!(batch.len(), INSERTS_PER_BATCH + REMOVES_PER_BATCH);
            engine.apply(batch).expect("generated batch is valid");
        }
        assert_eq!(engine.epoch(), 10);
        let repo = engine.repository();
        assert_eq!(
            repo.num_live_sets(),
            c.repository.num_sets() + 10 * (INSERTS_PER_BATCH - REMOVES_PER_BATCH)
        );
        assert!(repo.vocab_size() > c.repository.vocab_size());
    }

    #[test]
    fn unreachable_inserts_overlap_no_base_set() {
        use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
        let c = corpus();
        let log = op_log(&c, 4, Inserts::Unreachable, 9);
        let mut engine = koios_core::MutableEngine::single(
            std::sync::Arc::new(c.repository.clone()),
            Some(std::sync::Arc::new(c.embeddings.clone())),
            koios_core::KoiosConfig::new(K, ALPHA),
            koios_core::cosine_factory(),
        )
        .unwrap();
        for batch in &log {
            engine.apply(batch).expect("generated batch is valid");
        }
        let repo = engine.repository();
        let sim = CosineSimilarity::new(std::sync::Arc::clone(engine.embeddings().unwrap()));
        let base_vocab = c.repository.vocab_size() as u32;
        let mut new_tokens = 0;
        for (_, tokens) in repo.iter_sets().skip(c.repository.num_sets()) {
            for &t in tokens {
                assert!(
                    t.0 >= base_vocab,
                    "an unreachable set holds only new tokens"
                );
                new_tokens += 1;
                let best = (0..base_vocab)
                    .map(|b| sim.sim(t, koios_common::TokenId(b)))
                    .fold(0.0, f64::max);
                assert!(best < ALPHA, "new token within α of a base token: {best}");
            }
        }
        assert!(new_tokens > 0);
    }

    #[test]
    fn write_schedule_interleaves_without_ties() {
        let s = write_schedule(0..8, Duration::from_millis(250), Duration::from_millis(500));
        let ingests: Vec<_> = s
            .iter()
            .filter(|e| matches!(e.1, WriteOp::Ingest(_)))
            .collect();
        assert_eq!(ingests.len(), 8);
        assert_eq!(ingests[0].0, Duration::from_millis(250));
        assert_eq!(s.last().unwrap().1, WriteOp::Ingest(7));
        let snaps: Vec<_> = s.iter().filter(|e| e.1 == WriteOp::Snapshot).collect();
        assert_eq!(snaps.len(), 3); // 625, 1125, 1625 ms
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
