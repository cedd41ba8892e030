//! Laptop-scaled dataset profiles mirroring the paper's Table I.
//!
//! Absolute sizes are scaled down from the paper (the authors used a
//! 64-core / 512 GB / 4-GPU machine); the *shape* is preserved: relative
//! set counts, cardinality skew, vocabulary-to-set ratios and posting-list
//! skew. Every profile accepts a `scale` multiplier on set count and
//! vocabulary for cheaper or heavier runs (`--scale` in the harness).
//!
//! | Profile  | Paper (#sets / max / avg / vocab) | Here at scale 1.0 |
//! |----------|-----------------------------------|-------------------|
//! | DBLP     | 4,246 / 514 / 178.7 / 25,159      | 4,000 / 400 / ~130 / 25,000 |
//! | OpenData | 15,636 / 31,901 / 86.4 / 179,830  | 8,000 / 1,200 / ~60 / 30,000 |
//! | Twitter  | 27,204 / 151 / 22.6 / 72,910      | 20,000 / 150 / ~20 / 40,000 |
//! | WDC      | 1,014,369 / 10,240 / 30.6 / 328,357 | 50,000 / 800 / ~25 / 50,000 |

use crate::benchmark::QueryBenchmark;
use crate::corpus::{Corpus, CorpusSpec};

/// A named corpus spec plus the query-benchmark recipe the paper pairs
/// with it.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// The corpus spec.
    pub spec: CorpusSpec,
    /// Cardinality intervals for benchmark sampling; empty = uniform.
    pub intervals: Vec<(usize, usize)>,
    /// Queries per interval (or total, for uniform benchmarks).
    pub queries_per_interval: usize,
}

impl DatasetProfile {
    /// Generates the corpus.
    pub fn generate(&self) -> Corpus {
        Corpus::generate(self.spec.clone())
    }

    /// Generates the benchmark the paper pairs with this dataset.
    pub fn benchmark(&self, corpus: &Corpus, seed: u64) -> QueryBenchmark {
        if self.intervals.is_empty() {
            QueryBenchmark::uniform(&corpus.repository, self.queries_per_interval, seed)
        } else {
            QueryBenchmark::by_intervals(
                &corpus.repository,
                &self.intervals,
                self.queries_per_interval,
                seed,
            )
        }
    }

    /// All four paper profiles at the given scale.
    pub fn all(scale: f64) -> Vec<DatasetProfile> {
        vec![dblp(scale), opendata(scale), twitter(scale), wdc(scale)]
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(16)
}

/// Clamps a size range into the (possibly scaled-down) vocabulary.
fn clamp_sizes(min: usize, max: usize, vocab: usize) -> (usize, usize) {
    let max = max.min(vocab);
    (min.min(max), max)
}

/// DBLP-like: few, large, text-heavy sets with modest vocabulary; uniform
/// query sampling (paper draws 100 random sets).
pub fn dblp(scale: f64) -> DatasetProfile {
    let vocab = scaled(25_000, scale);
    let (size_min, size_max) = clamp_sizes(40, 400, vocab);
    DatasetProfile {
        spec: CorpusSpec {
            name: "dblp".to_string(),
            num_sets: scaled(4000, scale),
            vocab_size: vocab,
            set_size_min: size_min,
            set_size_max: size_max,
            set_size_exponent: 0.8,
            token_exponent: 0.7,
            clusters: scaled(2500, scale),
            coherence: 0.5,
            oov_fraction: 0.1,
            noise: 0.35,
            dims: 32,
            seed: 0xD81B,
        },
        intervals: Vec::new(),
        queries_per_interval: 20,
    }
}

/// OpenData-like: strongly size-skewed table columns with large vocabulary;
/// interval benchmark (the paper's six ranges, scaled).
pub fn opendata(scale: f64) -> DatasetProfile {
    let vocab = scaled(30_000, scale);
    let (size_min, size_max) = clamp_sizes(10, 1200, vocab);
    DatasetProfile {
        spec: CorpusSpec {
            name: "opendata".to_string(),
            num_sets: scaled(8000, scale),
            vocab_size: vocab,
            set_size_min: size_min,
            set_size_max: size_max,
            set_size_exponent: 1.6,
            token_exponent: 0.6,
            clusters: scaled(3000, scale),
            coherence: 0.7,
            oov_fraction: 0.15,
            noise: 0.35,
            dims: 32,
            seed: 0x09E4,
        },
        intervals: vec![(10, 100), (100, 250), (250, 500), (500, 800), (800, 1201)],
        queries_per_interval: 5,
    }
}

/// Twitter-like: many small sets (tweets as word sets).
pub fn twitter(scale: f64) -> DatasetProfile {
    let vocab = scaled(40_000, scale);
    let (size_min, size_max) = clamp_sizes(5, 150, vocab);
    DatasetProfile {
        spec: CorpusSpec {
            name: "twitter".to_string(),
            num_sets: scaled(20_000, scale),
            vocab_size: vocab,
            set_size_min: size_min,
            set_size_max: size_max,
            set_size_exponent: 1.5,
            token_exponent: 0.9,
            clusters: scaled(4000, scale),
            coherence: 0.4,
            oov_fraction: 0.1,
            noise: 0.35,
            dims: 32,
            seed: 0x7717,
        },
        intervals: Vec::new(),
        queries_per_interval: 20,
    }
}

/// WDC-like: the largest collection, with very frequent head tokens
/// (excessively long posting lists → huge candidate counts, §VIII-A1).
pub fn wdc(scale: f64) -> DatasetProfile {
    let vocab = scaled(50_000, scale);
    let (size_min, size_max) = clamp_sizes(5, 800, vocab);
    DatasetProfile {
        spec: CorpusSpec {
            name: "wdc".to_string(),
            num_sets: scaled(50_000, scale),
            vocab_size: vocab,
            set_size_min: size_min,
            set_size_max: size_max,
            set_size_exponent: 1.8,
            token_exponent: 1.05,
            clusters: scaled(5000, scale),
            coherence: 0.5,
            oov_fraction: 0.15,
            noise: 0.35,
            dims: 32,
            seed: 0x3DC0,
        },
        intervals: vec![(5, 100), (100, 250), (250, 500), (500, 801)],
        queries_per_interval: 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_counts() {
        let full = opendata(1.0);
        let tenth = opendata(0.1);
        assert_eq!(full.spec.num_sets, 8000);
        assert_eq!(tenth.spec.num_sets, 800);
        assert!(tenth.spec.vocab_size < full.spec.vocab_size);
        // Size distribution is shape, not scale (vocab is big enough here).
        assert_eq!(full.spec.set_size_max, tenth.spec.set_size_max);
        // At extreme scales the range clamps into the vocabulary.
        let tiny = opendata(0.001);
        assert!(tiny.spec.set_size_max <= tiny.spec.vocab_size);
    }

    #[test]
    fn all_returns_four_profiles() {
        let all = DatasetProfile::all(0.05);
        let names: Vec<_> = all.iter().map(|p| p.spec.name.clone()).collect();
        assert_eq!(names, vec!["dblp", "opendata", "twitter", "wdc"]);
    }

    #[test]
    fn tiny_profile_generates_and_benchmarks() {
        let p = twitter(0.01); // 200 sets
        let c = p.generate();
        assert_eq!(c.repository.num_sets(), p.spec.num_sets);
        let b = p.benchmark(&c, 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn interval_profile_produces_interval_queries() {
        let mut p = opendata(0.02); // 160 sets
                                    // Shrink intervals to the sizes a tiny corpus actually has.
        p.intervals = vec![(10, 50), (50, 1201)];
        p.queries_per_interval = 3;
        let c = p.generate();
        let b = p.benchmark(&c, 2);
        assert!(!b.is_empty());
        assert!(b.queries.iter().all(|q| q.interval < 2));
    }

    /// The cosine scan is exact on every profile's embeddings: whatever
    /// the lane count (one tile, a padded tile, many tiles), each token's
    /// list equals a per-pair `dot` reference bit for bit, in token order,
    /// self pair and out-of-vocabulary tokens included.
    #[test]
    fn cosine_scan_equals_per_pair_dot_on_every_profile() {
        use koios_common::TokenId;
        use koios_embed::vectors::dot;
        use koios_embed::{CosineSimilarity, ElementSimilarity};
        use std::sync::Arc;
        for profile in DatasetProfile::all(0.05) {
            let emb = Arc::new(profile.generate().embeddings);
            let vocab = emb.vocab();
            let cosine = CosineSimilarity::new(Arc::clone(&emb));
            for lanes in [1, 3, 8, 17, 50] {
                let qs: Vec<TokenId> = (0..lanes)
                    .map(|i| TokenId((i * 37 % vocab) as u32))
                    .collect();
                for alpha in [0.5, 0.8] {
                    let mut outs = vec![Vec::new(); lanes];
                    cosine.scores_above_many(&qs, vocab, alpha, &mut outs);
                    for (&q, got) in qs.iter().zip(&outs) {
                        let want: Vec<(u64, TokenId)> = (0..vocab as u32)
                            .map(TokenId)
                            .filter_map(|t| match (emb.get(q), emb.get(t)) {
                                _ if t == q => Some((1.0, t)),
                                (Some(a), Some(b)) => Some((dot(a, b).clamp(0.0, 1.0), t)),
                                _ => None,
                            })
                            .filter(|&(s, t)| t == q || s >= alpha)
                            .map(|(s, t)| (s.to_bits(), t))
                            .collect();
                        let got: Vec<(u64, TokenId)> =
                            got.iter().map(|&(s, t)| (s.to_bits(), t)).collect();
                        let at = format!(
                            "{} {q:?} of {lanes} lanes, alpha {alpha}",
                            profile.spec.name
                        );
                        assert_eq!(got, want, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn stats_shape_is_plausible() {
        let p = dblp(0.05); // 200 sets
        let c = p.generate();
        let st = c.repository.stats();
        assert!(st.avg_size >= 40.0, "avg {}", st.avg_size);
        assert!(st.max_size <= 400);
    }
}
