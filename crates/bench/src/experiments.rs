//! Regeneration of every table and figure in the paper's evaluation (§VIII).
//!
//! Each `table*` / `fig*` function runs the corresponding experiment on the
//! scaled synthetic profiles and renders the same rows/series the paper
//! reports. Absolute numbers differ from the paper (laptop vs 64-core +
//! 4-GPU testbed, scaled corpora); the *shapes* — who wins, pruning ratios,
//! trends across query cardinality and parameters — are the reproduction
//! target.

use crate::setup::{cap_queries, setup_profile_cached, ProfileRun};
use crate::table::{fmt_secs, pct, TextTable};
use koios_baselines::silkmoth::{SilkMoth, SilkMothVariant};
use koios_baselines::vanilla_topk;
use koios_common::{SetId, TokenId};
use koios_core::{Koios, KoiosConfig, PartitionedKoios, SearchResult};
use koios_datagen::profiles;
use koios_embed::sim::{ElementSimilarity, QGramJaccard};
use koios_index::inverted::InvertedIndex;
use koios_index::knn_cache::TokenKnnCache;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Harness-wide knobs (the paper's defaults are α = 0.8, k = 10,
/// partitions = 10, 2500 s timeout).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Corpus scale multiplier (1.0 = the laptop-scale profile defaults).
    pub scale: f64,
    /// Result size `k`.
    pub k: usize,
    /// Element similarity threshold `α`.
    pub alpha: f64,
    /// Partitions for the response-time experiments.
    pub partitions: usize,
    /// Queries per cardinality interval (time control).
    pub queries_per_interval: usize,
    /// Per-query timeout (the paper uses 2500 s at testbed scale).
    pub timeout: Duration,
    /// Benchmark sampling seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.1,
            k: 10,
            alpha: 0.8,
            partitions: 10,
            queries_per_interval: 2,
            timeout: Duration::from_secs(10),
            seed: 42,
        }
    }
}

impl HarnessConfig {
    /// The deadline of a query starting now: [`Self::timeout`] away.
    fn deadline(&self) -> Option<Instant> {
        Some(Instant::now() + self.timeout)
    }

    /// The shared corpus-builder: every experiment asking for the same
    /// profile reuses one generated corpus ([`setup_profile_cached`]); only
    /// the query cap is applied per experiment.
    fn profile_run(&self, profile: koios_datagen::profiles::DatasetProfile) -> ProfileRun {
        let mut run = setup_profile_cached(profile, self.seed);
        cap_queries(&mut run.benchmark, self.queries_per_interval);
        run
    }
}

/// One query's outcome annotated with its benchmark interval.
struct Outcome {
    interval: usize,
    result: SearchResult,
}

/// Runs the benchmark on a `--partitions`-way [`PartitionedKoios`]. Its
/// shard searches run as tasks on the process-wide
/// [`ShardExecutor`](koios_core::ShardExecutor), the execution model the
/// serving stack uses, so response times include the executor's queueing
/// and no thread is spawned per query.
fn run_partitioned(run: &ProfileRun, hc: &HarnessConfig) -> Vec<Outcome> {
    let engine = PartitionedKoios::new(
        Arc::clone(&run.repo),
        Arc::clone(&run.sim),
        KoiosConfig::new(hc.k, hc.alpha),
        hc.partitions.max(1),
        hc.seed,
    );
    run.benchmark
        .queries
        .iter()
        .map(|q| Outcome {
            interval: q.interval,
            result: engine.search_with_deadline(&q.tokens, hc.deadline()),
        })
        .collect()
}

fn run_single(run: &ProfileRun, hc: &HarnessConfig, cfg: KoiosConfig) -> Vec<Outcome> {
    let engine = Koios::new(Arc::clone(&run.repo), Arc::clone(&run.sim), cfg);
    run.benchmark
        .queries
        .iter()
        .map(|q| Outcome {
            interval: q.interval,
            result: engine.search_with_deadline(&q.tokens, hc.deadline()),
        })
        .collect()
}

fn run_baseline(run: &ProfileRun, hc: &HarnessConfig, plus: bool) -> Vec<Outcome> {
    let mut cfg = if plus {
        KoiosConfig::new(hc.k, hc.alpha).baseline_plus()
    } else {
        KoiosConfig::new(hc.k, hc.alpha).baseline()
    };
    cfg = cfg.with_parallel_em(hc.partitions.max(1));
    run_single(run, hc, cfg)
}

fn avg(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Table I: characteristics of the (generated) datasets.
pub fn table1(hc: &HarnessConfig) -> String {
    let mut t = TextTable::new(vec![
        "dataset",
        "#Sets",
        "MaxSize",
        "AvgSize",
        "#UniqElems",
        "coverage",
        "gen time",
    ]);
    for profile in profiles::DatasetProfile::all(hc.scale) {
        let name = profile.spec.name.clone();
        let run = setup_profile_cached(profile, hc.seed);
        let st = run.repo.stats();
        t.row(vec![
            name,
            st.num_sets.to_string(),
            st.max_size.to_string(),
            format!("{:.1}", st.avg_size),
            st.unique_elems.to_string(),
            pct(run.embeddings.coverage()),
            fmt_secs(run.generation_time.as_secs_f64()),
        ]);
    }
    format!(
        "Table I — dataset characteristics (scale {}):\n{}",
        hc.scale,
        t.render()
    )
}

/// Table II: average percentage of sets pruned by each filter.
pub fn table2(hc: &HarnessConfig) -> String {
    let mut t = TextTable::new(vec![
        "dataset",
        "iUB-Filter",
        "EM-Early-Terminated",
        "No-EM",
    ]);
    for profile in profiles::DatasetProfile::all(hc.scale) {
        let name = profile.spec.name.clone();
        let run = hc.profile_run(profile);
        let outcomes = run_partitioned(&run, hc);
        let refine = avg(outcomes
            .iter()
            .map(|o| o.result.stats.refinement_prune_ratio()));
        let em_early = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            if s.to_postprocess == 0 {
                0.0
            } else {
                s.em_early_terminated as f64 / s.to_postprocess as f64
            }
        }));
        let no_em = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            if s.to_postprocess == 0 {
                0.0
            } else {
                s.no_em as f64 / s.to_postprocess as f64
            }
        }));
        t.row(vec![name, pct(refine), pct(em_early), pct(no_em)]);
    }
    format!(
        "Table II — avg % of sets pruned by filter (refinement % of candidates;\npost-processing % of surviving sets). Paper: iUB 53–91%, EM-early 0–5%, No-EM 1.4–55%.\n{}",
        t.render()
    )
}

/// Table III: average response time and memory, Koios vs Baseline.
pub fn table3(hc: &HarnessConfig) -> String {
    let mut t = TextTable::new(vec![
        "dataset",
        "K refine",
        "K postproc",
        "K response",
        "K mem(MB)",
        "B response",
        "B mem(MB)",
        "B timeouts",
        "speedup",
    ]);
    for profile in profiles::DatasetProfile::all(hc.scale) {
        let name = profile.spec.name.clone();
        let run = hc.profile_run(profile);
        let koios = run_partitioned(&run, hc);
        let base = run_baseline(&run, hc, false);
        let k_ref = avg(koios
            .iter()
            .map(|o| o.result.stats.refine_time.as_secs_f64()));
        let k_post = avg(koios
            .iter()
            .map(|o| o.result.stats.postprocess_time.as_secs_f64()));
        let k_resp = avg(koios
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let k_mem = avg(koios.iter().map(|o| o.result.stats.memory.total_mib()));
        let b_resp = avg(base
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let b_mem = avg(base.iter().map(|o| o.result.stats.memory.total_mib()));
        let b_to = base.iter().filter(|o| o.result.stats.timed_out).count();
        t.row(vec![
            name,
            fmt_secs(k_ref),
            fmt_secs(k_post),
            fmt_secs(k_resp),
            format!("{k_mem:.1}"),
            fmt_secs(b_resp),
            format!("{b_mem:.1}"),
            format!("{b_to}/{}", base.len()),
            format!("{:.1}x", b_resp / k_resp.max(1e-9)),
        ]);
    }
    format!(
        "Table III — avg response time & memory, Koios (K, {} partitions) vs Baseline (B).\nBaseline timeouts ({}s budget) floor its reported time, as in the paper.\n{}",
        hc.partitions,
        hc.timeout.as_secs(),
        t.render()
    )
}

fn prune_table(hc: &HarnessConfig, profile: koios_datagen::profiles::DatasetProfile) -> TextTable {
    let intervals = profile.intervals.clone();
    let run = hc.profile_run(profile);
    let outcomes = run_partitioned(&run, hc);
    let mut t = TextTable::new(vec![
        "query card.",
        "Candidates",
        "iUB-Filtered",
        "No-EM",
        "EM-Early-Term",
        "EM",
    ]);
    for (idx, (lo, hi)) in intervals.iter().enumerate() {
        let of_interval: Vec<&Outcome> = outcomes.iter().filter(|o| o.interval == idx).collect();
        if of_interval.is_empty() {
            continue;
        }
        let f = |g: fn(&koios_core::SearchStats) -> usize| {
            avg(of_interval.iter().map(|o| g(&o.result.stats) as f64))
        };
        t.row(vec![
            format!("{lo}-{hi}"),
            format!("{:.0}", f(|s| s.candidates)),
            format!("{:.0}", f(|s| s.ub_filter_pruned + s.iub_pruned)),
            format!("{:.0}", f(|s| s.no_em)),
            format!("{:.0}", f(|s| s.em_early_terminated)),
            format!("{:.0}", f(|s| s.em_full)),
        ]);
    }
    t
}

/// Table IV: OpenData — number of sets pruned by each filter per interval.
pub fn table4(hc: &HarnessConfig) -> String {
    format!(
        "Table IV — OpenData-like: avg #sets pruned by filter per query-cardinality interval.\n{}",
        prune_table(hc, profiles::opendata(hc.scale)).render()
    )
}

/// Table V: WDC — number of sets pruned by each filter per interval.
pub fn table5(hc: &HarnessConfig) -> String {
    format!(
        "Table V — WDC-like: avg #sets pruned by filter per query-cardinality interval.\n{}",
        prune_table(hc, profiles::wdc(hc.scale)).render()
    )
}

fn interval_figure(
    hc: &HarnessConfig,
    profile: koios_datagen::profiles::DatasetProfile,
    label: &str,
) -> String {
    let intervals = profile.intervals.clone();
    let run = hc.profile_run(profile);
    let koios = run_partitioned(&run, hc);
    let base = run_baseline(&run, hc, false);
    let mut t = TextTable::new(vec![
        "query card.",
        "K time",
        "K refine%",
        "K postproc%",
        "K mem(MB)",
        "B time",
        "B mem(MB)",
        "K t/o",
        "B t/o",
    ]);
    for (idx, (lo, hi)) in intervals.iter().enumerate() {
        let ko: Vec<&Outcome> = koios.iter().filter(|o| o.interval == idx).collect();
        let bo: Vec<&Outcome> = base.iter().filter(|o| o.interval == idx).collect();
        if ko.is_empty() {
            continue;
        }
        let k_time = avg(ko
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let k_ref = avg(ko.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        let k_mem = avg(ko.iter().map(|o| o.result.stats.memory.total_mib()));
        let b_time = avg(bo
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let b_mem = avg(bo.iter().map(|o| o.result.stats.memory.total_mib()));
        let k_to = ko.iter().filter(|o| o.result.stats.timed_out).count();
        let b_to = bo.iter().filter(|o| o.result.stats.timed_out).count();
        t.row(vec![
            format!("{lo}-{hi}"),
            fmt_secs(k_time),
            pct(k_ref),
            pct(1.0 - k_ref),
            format!("{k_mem:.1}"),
            fmt_secs(b_time),
            format!("{b_mem:.1}"),
            k_to.to_string(),
            b_to.to_string(),
        ]);
    }
    format!(
        "{label} — response time, phase breakdown and memory vs query cardinality\n(K = Koios with {} partitions, B = Baseline):\n{}",
        hc.partitions,
        t.render()
    )
}

/// Fig. 5: OpenData panels (a)–(d).
pub fn fig5(hc: &HarnessConfig) -> String {
    interval_figure(hc, profiles::opendata(hc.scale), "Fig. 5 — OpenData-like")
}

/// Fig. 6: WDC panels (a)–(d).
pub fn fig6(hc: &HarnessConfig) -> String {
    interval_figure(hc, profiles::wdc(hc.scale), "Fig. 6 — WDC-like")
}

/// Fig. 7: parameter analysis on OpenData (partitions, α, k, memory vs α).
pub fn fig7(hc: &HarnessConfig) -> String {
    let mut out = String::new();
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);

    // (a) partitions sweep.
    let mut t = TextTable::new(vec!["partitions", "time", "refine%", "postproc%"]);
    for parts in [1usize, 2, 5, 10, 20] {
        let mut sub = hc.clone();
        sub.partitions = parts;
        let outcomes = run_partitioned(&run, &sub);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let refine = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        t.row(vec![
            parts.to_string(),
            fmt_secs(time),
            pct(refine),
            pct(1.0 - refine),
        ]);
    }
    out.push_str(&format!(
        "Fig. 7a — time vs #partitions (k={}, α={}):\n{}\n\n",
        hc.k,
        hc.alpha,
        t.render()
    ));

    // (b) + (d): α sweep (time and memory).
    let mut t = TextTable::new(vec!["alpha", "time", "refine%", "mem(MB)"]);
    for alpha in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let outcomes = run_single(&run, hc, KoiosConfig::new(hc.k, alpha));
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let refine = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        let mem = avg(outcomes.iter().map(|o| o.result.stats.memory.total_mib()));
        t.row(vec![
            format!("{alpha}"),
            fmt_secs(time),
            pct(refine),
            format!("{mem:.1}"),
        ]);
    }
    out.push_str(&format!(
        "Fig. 7b/7d — time & memory vs element similarity threshold α (k={}, 1 partition):\n{}\n\n",
        hc.k,
        t.render()
    ));

    // (c) k sweep.
    let mut t = TextTable::new(vec!["k", "time", "refine%", "postproc sets"]);
    for k in [1usize, 5, 10, 25, 50] {
        let mut sub = hc.clone();
        sub.k = k;
        let outcomes = run_partitioned(&run, &sub);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let refine = avg(outcomes.iter().map(|o| {
            let s = &o.result.stats;
            s.refine_time.as_secs_f64() / s.response_time().as_secs_f64().max(1e-12)
        }));
        let post = avg(outcomes
            .iter()
            .map(|o| o.result.stats.to_postprocess as f64));
        t.row(vec![
            k.to_string(),
            fmt_secs(time),
            pct(refine),
            format!("{post:.0}"),
        ]);
    }
    out.push_str(&format!(
        "Fig. 7c — time vs result size k (α={}, {} partitions):\n{}",
        hc.alpha,
        hc.partitions,
        t.render()
    ));
    out
}

/// Fig. 8: quality of semantic vs vanilla top-k on OpenData.
pub fn fig8(hc: &HarnessConfig) -> String {
    let profile = profiles::opendata(hc.scale);
    let intervals = profile.intervals.clone();
    let run = hc.profile_run(profile);
    let repo = &run.repo;
    let index = InvertedIndex::build(repo);
    let engine = Koios::new(
        Arc::clone(repo),
        Arc::clone(&run.sim),
        KoiosConfig::new(hc.k, hc.alpha),
    );

    let mut t = TextTable::new(vec![
        "query card.",
        "kth vanilla (van list)",
        "kth vanilla (sem list)",
        "kth semantic (sem list)",
        "kth semantic (van list)",
        "|intersection|/k",
    ]);
    for (idx, (lo, hi)) in intervals.iter().enumerate() {
        let queries: Vec<_> = run.benchmark.interval_queries(idx).collect();
        if queries.is_empty() {
            continue;
        }
        let mut van_van = Vec::new();
        let mut sem_van = Vec::new();
        let mut sem_sem = Vec::new();
        let mut van_sem = Vec::new();
        let mut inter = Vec::new();
        for q in queries {
            let sem = engine.search_with_deadline(&q.tokens, hc.deadline());
            let van = vanilla_topk(repo, &index, &q.tokens, hc.k);
            if sem.hits.is_empty() || van.is_empty() {
                continue;
            }
            let sem_ids: Vec<SetId> = sem.set_ids();
            let van_ids: Vec<SetId> = van.iter().map(|v| v.0).collect();
            // k-th (= last) entries of each list, measured both ways.
            van_van.push(van.last().unwrap().1 as f64);
            sem_van.push(repo.vanilla_overlap(&q.tokens, *sem_ids.last().unwrap()) as f64);
            sem_sem.push(sem.hits.last().unwrap().score.lb());
            van_sem.push(engine.exact_overlap(&q.tokens, *van_ids.last().unwrap()));
            let common = sem_ids.iter().filter(|id| van_ids.contains(id)).count();
            inter.push(common as f64 / sem_ids.len().max(1) as f64);
        }
        t.row(vec![
            format!("{lo}-{hi}"),
            format!("{:.1}", avg(van_van.into_iter())),
            format!("{:.1}", avg(sem_van.into_iter())),
            format!("{:.2}", avg(sem_sem.into_iter())),
            format!("{:.2}", avg(van_sem.into_iter())),
            pct(avg(inter.into_iter())),
        ]);
    }
    format!(
        "Fig. 8 — semantic vs vanilla top-k quality (k = {}). The semantic list's k-th\nset has lower vanilla overlap but higher semantic overlap; the intersection\nshows how many vanilla results semantic search shares (paper: ~50% at the\nsmallest interval).\n{}",
        hc.k,
        t.render()
    )
}

/// §VIII-B: Koios vs SilkMoth-syntactic vs SilkMoth-semantic on q-gram
/// Jaccard element similarity.
pub fn silkmoth(hc: &HarnessConfig) -> String {
    // Smaller corpus: SilkMoth-semantic is deliberately slow.
    let mut profile = profiles::opendata((hc.scale * 0.5).max(0.01));
    profile.queries_per_interval = 2;
    let run = hc.profile_run(profile);
    let repo = &run.repo;
    let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(repo, 3));
    let alpha = hc.alpha;

    // Koios first — also yields each query's θ*k; the paper feeds SilkMoth
    // the *minimum* θ*k over the benchmark (an advantage for SilkMoth).
    let mut cfg = KoiosConfig::new(hc.k, alpha);
    cfg.no_em_filter = false;
    let engine = Koios::new(Arc::clone(repo), Arc::clone(&sim), cfg);
    let mut koios_time = Vec::new();
    let mut theta_min = f64::INFINITY;
    let mut results = Vec::new();
    for q in &run.benchmark.queries {
        let res = engine.search_with_deadline(&q.tokens, hc.deadline());
        koios_time.push(res.stats.response_time().as_secs_f64());
        if let Some(h) = res.hits.last() {
            theta_min = theta_min.min(h.score.lb());
        }
        results.push(res);
    }
    if !theta_min.is_finite() {
        theta_min = 0.0;
    }

    let mut t = TextTable::new(vec!["engine", "avg time", "avg candidates", "avg verified"]);
    t.row(vec![
        "koios".to_string(),
        fmt_secs(avg(koios_time.iter().copied())),
        format!(
            "{:.0}",
            avg(results.iter().map(|r| r.stats.candidates as f64))
        ),
        format!("{:.0}", avg(results.iter().map(|r| r.stats.em_full as f64))),
    ]);
    for variant in [SilkMothVariant::Syntactic, SilkMothVariant::Semantic] {
        let sm = SilkMoth::new(repo, variant, 3, alpha);
        let mut times = Vec::new();
        let mut cands = Vec::new();
        let mut ver = Vec::new();
        for q in &run.benchmark.queries {
            let t0 = Instant::now();
            let (_, stats) = sm.search_topk(&q.tokens, hc.k, theta_min);
            times.push(t0.elapsed().as_secs_f64());
            cands.push(stats.candidate_sets as f64);
            ver.push(stats.verified as f64);
        }
        t.row(vec![
            format!("silkmoth-{variant:?}").to_lowercase(),
            fmt_secs(avg(times.into_iter())),
            format!("{:.0}", avg(cands.into_iter())),
            format!("{:.0}", avg(ver.into_iter())),
        ]);
    }
    format!(
        "§VIII-B — Koios vs SilkMoth on q-gram Jaccard (α = {alpha}, θ*k = {theta_min:.2} fed\nto SilkMoth as in the paper; paper shape: Koios < syntactic < semantic):\n{}",
        t.render()
    )
}

/// Token-level kNN cache experiment (ROADMAP "smarter caching"): cold vs
/// warm searches on an overlapping-query workload.
///
/// The workload takes every benchmark query and adds two sibling queries
/// sharing all but one element (head/tail dropped), the overlap pattern a
/// serving workload exhibits (users refining a query, dashboards with
/// shared dimensions). Three engine passes run over it:
///
/// * `no-cache` — the reference engine, fresh vocabulary scans per query;
/// * `cold` — a [`TokenKnnCache`]-backed engine with an empty cache (this
///   pass both measures fill overhead and populates the cache);
/// * `warm` — the same engine again, now served from the shared lists.
///
/// All three passes must return identical hits (printed as
/// `identical: true`); the refine-time column shows the kNN/refinement
/// work the warm pass avoids.
pub fn token_cache(hc: &HarnessConfig) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let repo = &run.repo;

    let mut workload: Vec<Vec<TokenId>> = Vec::new();
    for q in &run.benchmark.queries {
        workload.push(q.tokens.clone());
        if q.tokens.len() > 2 {
            workload.push(q.tokens[1..].to_vec());
            workload.push(q.tokens[..q.tokens.len() - 1].to_vec());
        }
    }

    let plain = Koios::new(
        Arc::clone(repo),
        Arc::clone(&run.sim),
        KoiosConfig::new(hc.k, hc.alpha),
    );
    let cache = Arc::new(TokenKnnCache::new(256 << 20));
    let caching =
        plain.with_config(KoiosConfig::new(hc.k, hc.alpha).with_token_cache(Arc::clone(&cache)));

    let run_pass = |engine: &Koios| -> (Vec<SearchResult>, f64, f64) {
        let results: Vec<SearchResult> = workload
            .iter()
            .map(|q| engine.search_with_deadline(q, hc.deadline()))
            .collect();
        let refine = avg(results.iter().map(|r| r.stats.refine_time.as_secs_f64()));
        let resp = avg(results
            .iter()
            .map(|r| r.stats.response_time().as_secs_f64()));
        (results, refine, resp)
    };

    let (ref_results, ref_refine, ref_resp) = run_pass(&plain);
    let (cold_results, cold_refine, cold_resp) = run_pass(&caching);
    let (warm_results, warm_refine, warm_resp) = run_pass(&caching);

    let identical = ref_results
        .iter()
        .zip(&cold_results)
        .zip(&warm_results)
        .all(|((a, b), c)| a.hits == b.hits && c.hits == a.hits);

    let mut t = TextTable::new(vec![
        "pass",
        "avg refine",
        "avg response",
        "kNN hits",
        "kNN misses",
        "hit rate",
        "bytes served(MB)",
    ]);
    let pass_row =
        |t: &mut TextTable, label: &str, results: &[SearchResult], refine: f64, resp: f64| {
            let hits: usize = results.iter().map(|r| r.stats.knn_cache.hits).sum();
            let misses: usize = results.iter().map(|r| r.stats.knn_cache.misses).sum();
            let served: usize = results.iter().map(|r| r.stats.knn_cache.bytes_served).sum();
            let total = (hits + misses).max(1);
            t.row(vec![
                label.to_string(),
                fmt_secs(refine),
                fmt_secs(resp),
                hits.to_string(),
                misses.to_string(),
                pct(hits as f64 / total as f64),
                format!("{:.1}", served as f64 / (1 << 20) as f64),
            ]);
        };
    pass_row(&mut t, "no-cache", &ref_results, ref_refine, ref_resp);
    pass_row(
        &mut t,
        "cold (fills)",
        &cold_results,
        cold_refine,
        cold_resp,
    );
    pass_row(&mut t, "warm", &warm_results, warm_refine, warm_resp);

    let snap = cache.snapshot();
    format!(
        "Token cache — cold vs warm on an overlapping workload ({} queries incl.\n\
         head/tail-dropped siblings, k={}, α={}). identical: {identical}.\n\
         warm refine speedup vs no-cache: {:.1}x; cache: {} lists, {:.1} MB held.\n{}",
        workload.len(),
        hc.k,
        hc.alpha,
        ref_refine / warm_refine.max(1e-9),
        snap.entries,
        snap.bytes as f64 / (1 << 20) as f64,
        t.render()
    )
}

/// Ablation of the iUB filter (§V, with the row-max bound of
/// ARCHITECTURE.md, "Deviations from the paper" 1): refinement with the
/// bucket filter against refinement with the plain UB-filter only. Both
/// rows must return the same top-k scores; the filter only prunes.
pub fn ablation(hc: &HarnessConfig) -> String {
    let profile = profiles::opendata(hc.scale);
    let run = hc.profile_run(profile);
    let mut t = TextTable::new(vec![
        "iUB",
        "avg time",
        "refine pruned%",
        "postproc sets",
        "bucket moves",
    ]);
    let mut score_sets: Vec<Vec<f64>> = Vec::new();
    for (label, iub) in [("sound-rowmax", true), ("iub-off", false)] {
        let mut cfg = KoiosConfig::new(hc.k, hc.alpha);
        cfg.iub_filter = iub;
        cfg.no_em_filter = false; // exact scores for the agreement check
        let outcomes = run_single(&run, hc, cfg);
        let time = avg(outcomes
            .iter()
            .map(|o| o.result.stats.response_time().as_secs_f64()));
        let pruned = avg(outcomes
            .iter()
            .map(|o| o.result.stats.refinement_prune_ratio()));
        let post = avg(outcomes
            .iter()
            .map(|o| o.result.stats.to_postprocess as f64));
        let moves = avg(outcomes.iter().map(|o| o.result.stats.bucket_moves as f64));
        t.row(vec![
            label.to_string(),
            fmt_secs(time),
            pct(pruned),
            format!("{post:.0}"),
            format!("{moves:.0}"),
        ]);
        score_sets.push(
            outcomes
                .iter()
                .flat_map(|o| o.result.hits.iter().map(|h| h.score.ub()))
                .collect(),
        );
    }
    let agree = score_sets.iter().skip(1).all(|s| {
        s.len() == score_sets[0].len()
            && s.iter()
                .zip(&score_sets[0])
                .all(|(a, b)| (a - b).abs() < 1e-6)
    });
    format!(
        "Ablation (ARCHITECTURE.md, Deviations 1) — the iUB filter on OpenData-like (k={}, α={}).\nBoth rows returned identical top-k scores: {}.\n{}",
        hc.k,
        hc.alpha,
        agree,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            scale: 0.01,
            k: 3,
            alpha: 0.8,
            partitions: 2,
            queries_per_interval: 1,
            timeout: Duration::from_secs(10),
            seed: 1,
        }
    }

    #[test]
    fn table1_renders_four_rows() {
        let out = table1(&tiny());
        assert!(out.contains("dblp"));
        assert!(out.contains("wdc"));
        assert_eq!(out.lines().count(), 7); // title + header + sep + 4 rows
    }

    #[test]
    fn table2_and_3_render() {
        let hc = tiny();
        let t2 = table2(&hc);
        assert!(t2.contains("iUB-Filter"));
        let t3 = table3(&hc);
        assert!(t3.contains("speedup"));
    }

    #[test]
    fn interval_tables_render() {
        let hc = tiny();
        assert!(table4(&hc).contains("Candidates"));
        assert!(fig8(&hc).contains("intersection"));
    }

    #[test]
    fn token_cache_identical_and_renders() {
        let out = token_cache(&tiny());
        assert!(out.contains("identical: true"), "{out}");
        assert!(out.contains("warm"));
        assert!(out.contains("hit rate"));
    }

    #[test]
    fn silkmoth_and_ablation_render() {
        let hc = tiny();
        let s = silkmoth(&hc);
        assert!(s.contains("silkmoth-syntactic"));
        let a = ablation(&hc);
        assert!(a.contains("sound-rowmax"));
        assert!(a.contains("identical top-k scores: true"), "{a}");
    }
}
