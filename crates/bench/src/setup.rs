//! Corpus/benchmark plumbing shared by the harness experiments.

use koios_datagen::benchmark::QueryBenchmark;
use koios_datagen::corpus::Corpus;
use koios_datagen::profiles::DatasetProfile;
use koios_embed::sim::{CosineSimilarity, ElementSimilarity};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A generated profile ready to run: corpus, cosine similarity over its
/// synthetic embeddings, query benchmark, and the build times the paper
/// reports separately from query response times (§VIII-A3).
///
/// The corpus and similarity are behind `Arc`s, so clones are cheap and
/// [`setup_profile_cached`] can hand the same generated corpus to every
/// experiment that asks for the same profile.
#[derive(Clone)]
pub struct ProfileRun {
    /// The profile that produced this run.
    pub profile: DatasetProfile,
    /// The generated corpus (shared across cached runs).
    pub corpus: Arc<Corpus>,
    /// Cosine element similarity over the corpus embeddings.
    pub sim: Arc<dyn ElementSimilarity>,
    /// The query workload.
    pub benchmark: QueryBenchmark,
    /// Corpus generation time (excluded from response times).
    pub generation_time: std::time::Duration,
}

/// Generates a profile's corpus, embeddings and benchmark from scratch.
///
/// Use this when the *build itself* is what you are measuring (e.g. the
/// cold-build side of the snapshot experiment); everything else should go
/// through [`setup_profile_cached`] so a multi-experiment harness run
/// generates each corpus once.
pub fn setup_profile(profile: DatasetProfile, query_seed: u64) -> ProfileRun {
    let t0 = Instant::now();
    let corpus = profile.generate();
    let generation_time = t0.elapsed();
    let sim: Arc<dyn ElementSimilarity> =
        Arc::new(CosineSimilarity::new(Arc::new(corpus.embeddings.clone())));
    let benchmark = profile.benchmark(&corpus, query_seed);
    ProfileRun {
        profile,
        corpus: Arc::new(corpus),
        sim,
        benchmark,
        generation_time,
    }
}

/// [`setup_profile`] behind a process-wide memo: the first request for a
/// `(profile, query_seed)` pair generates the corpus, every later request
/// clones the shared `Arc`s. Generation is deterministic in the profile
/// spec and seed, so the cached corpus is exactly what a fresh build would
/// produce — `harness all` used to regenerate the same OpenData corpus for
/// nearly every experiment; now it builds once.
pub fn setup_profile_cached(profile: DatasetProfile, query_seed: u64) -> ProfileRun {
    static CORPORA: OnceLock<Mutex<HashMap<String, ProfileRun>>> = OnceLock::new();
    // The debug rendering of the profile covers every generation input
    // (spec fields, intervals, queries per interval), so equal keys imply
    // identical corpora and benchmarks.
    let key = format!("{profile:?}#{query_seed}");
    let cache = CORPORA.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("corpus cache lock");
    cache
        .entry(key)
        .or_insert_with(|| setup_profile(profile, query_seed))
        .clone()
}

/// Caps the number of queries per interval (harness time control).
pub fn cap_queries(bench: &mut QueryBenchmark, per_interval: usize) {
    let n_intervals = bench.intervals.len().max(1);
    let mut kept = Vec::new();
    let mut counts = vec![0usize; n_intervals];
    for q in bench.queries.drain(..) {
        if counts[q.interval] < per_interval {
            counts[q.interval] += 1;
            kept.push(q);
        }
    }
    bench.queries = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use koios_datagen::profiles;

    #[test]
    fn setup_produces_queries_and_sim() {
        let run = setup_profile(profiles::twitter(0.01), 1);
        assert!(run.corpus.repository.num_sets() > 0);
        assert!(!run.benchmark.is_empty());
        assert!(run.generation_time.as_nanos() > 0);
    }

    #[test]
    fn cap_queries_limits_per_interval() {
        let run = setup_profile(profiles::twitter(0.01), 2);
        let mut b = run.benchmark.clone();
        cap_queries(&mut b, 3);
        assert!(b.len() <= 3);
    }

    #[test]
    fn cached_setup_shares_one_corpus() {
        let a = setup_profile_cached(profiles::twitter(0.01), 7);
        let b = setup_profile_cached(profiles::twitter(0.01), 7);
        assert!(
            Arc::ptr_eq(&a.corpus, &b.corpus),
            "identical profiles must share the generated corpus"
        );
        assert_eq!(a.benchmark.len(), b.benchmark.len());
        // A different query seed keys its own entry.
        let c = setup_profile_cached(profiles::twitter(0.01), 8);
        assert!(!Arc::ptr_eq(&a.corpus, &c.corpus));
        // Cached contents match a fresh build exactly.
        let fresh = setup_profile(profiles::twitter(0.01), 7);
        for (id, set) in fresh.corpus.repository.iter_sets() {
            assert_eq!(a.corpus.repository.set(id), set);
        }
    }
}
