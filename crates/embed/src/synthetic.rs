//! Synthetic clustered embeddings — the FastText substitute.
//!
//! The paper's experiments use pre-trained FastText vectors; those are not
//! available offline, so we generate vectors with the *structure Koios
//! depends on* (ARCHITECTURE.md, "Deviations from the paper" 2): tokens
//! are partitioned into semantic clusters; a token's vector is its
//! cluster centroid plus isotropic Gaussian noise, re-normalised. Within a cluster the expected cosine is
//! `1/(1+σ²)` (σ = [`SyntheticEmbeddings::noise`]), across clusters it
//! concentrates around `0 ± 1/√dim`, so an `α ≈ 0.8` threshold separates
//! "semantic neighbours" from noise exactly like the real embeddings do.
//!
//! Determinism: every cluster centroid and every token vector is generated
//! from an RNG stream seeded by `(seed, cluster)` / `(seed, token)`, so the
//! output is independent of generation order and stable across runs.

use crate::rand_util::{gaussian_vec, stream_seed};
use crate::repository::Repository;
use crate::vectors::Embeddings;
use koios_common::TokenId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builder for synthetic clustered embeddings.
///
/// ```
/// use koios_embed::repository::RepositoryBuilder;
/// use koios_embed::synthetic::SyntheticEmbeddings;
///
/// let mut b = RepositoryBuilder::new();
/// b.add_set("s", ["dog", "hound", "car"]);
/// let mut repo = b.build();
/// let emb = SyntheticEmbeddings::builder()
///     .dimensions(16)
///     .seed(1)
///     .synonyms(&mut repo, &[&["dog", "hound"]])
///     .build(&repo);
/// let dog = repo.token_id("dog").unwrap();
/// let hound = repo.token_id("hound").unwrap();
/// let car = repo.token_id("car").unwrap();
/// assert!(emb.cosine(dog, hound).unwrap() > emb.cosine(dog, car).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticEmbeddings {
    dim: usize,
    seed: u64,
    clusters: Option<usize>,
    noise: f64,
    synonym_noise: f64,
    oov_fraction: f64,
    groups: Vec<Vec<TokenId>>,
}

impl Default for SyntheticEmbeddings {
    fn default() -> Self {
        SyntheticEmbeddings {
            dim: 64,
            seed: 42,
            clusters: None,
            noise: 0.35,
            synonym_noise: 0.2,
            oov_fraction: 0.0,
            groups: Vec::new(),
        }
    }
}

impl SyntheticEmbeddings {
    /// Starts a builder with defaults (64 dims, σ = 0.35, no OOV).
    pub fn builder() -> Self {
        Self::default()
    }

    /// Sets the embedding dimensionality (paper: 300; default here: 64).
    pub fn dimensions(mut self, dim: usize) -> Self {
        assert!(dim > 0);
        self.dim = dim;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of background clusters (default: `vocab / 8`,
    /// at least 1).
    pub fn clusters(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.clusters = Some(n);
        self
    }

    /// Sets the within-cluster noise σ. Expected within-cluster cosine is
    /// `1/(1+σ²)`: σ = 0.35 → ≈ 0.89, σ = 0.5 → 0.8.
    pub fn noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.noise = sigma;
        self
    }

    /// Sets the noise for explicitly declared synonym groups (tighter than
    /// background clusters by default).
    pub fn synonym_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.synonym_noise = sigma;
        self
    }

    /// Fraction of tokens left without a vector (out-of-vocabulary); the
    /// paper keeps sets with ≥70% coverage, i.e. up to 30% OOV.
    pub fn oov_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.oov_fraction = f;
        self
    }

    /// Declares groups of strings that must be mutual semantic neighbours
    /// (each group gets its own tight cluster). Strings are interned into
    /// `repo` so they can be queried even when absent from every set.
    pub fn synonyms(mut self, repo: &mut Repository, groups: &[&[&str]]) -> Self {
        for group in groups {
            let ids = group
                .iter()
                .map(|s| repo.interner_mut().intern(s))
                .collect();
            self.groups.push(ids);
        }
        self
    }

    /// Generates the embedding table for the current vocabulary of `repo`.
    pub fn build(&self, repo: &Repository) -> Embeddings {
        self.build_with_clusters(repo).0
    }

    /// Generates the embeddings plus the cluster assignment of each token
    /// (`None` = out-of-vocabulary). Used by the data generators to build
    /// semantically coherent sets.
    pub fn build_with_clusters(&self, repo: &Repository) -> (Embeddings, Vec<Option<u32>>) {
        let vocab = repo.vocab_size();
        let n_groups = self.groups.len();
        let n_bg = self.clusters.unwrap_or((vocab / 8).max(1));
        let mut assignment: Vec<Option<u32>> = vec![None; vocab];
        let mut forced = vec![false; vocab];

        // Synonym groups take cluster ids [0, n_groups).
        for (g, members) in self.groups.iter().enumerate() {
            for &t in members {
                assignment[t.idx()] = Some(g as u32);
                forced[t.idx()] = true;
            }
        }
        // Everything else: OOV with probability `oov_fraction`, otherwise a
        // uniform background cluster in [n_groups, n_groups + n_bg).
        for t in 0..vocab {
            if forced[t] {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, 0x0A55 ^ t as u64));
            if rng.gen::<f64>() < self.oov_fraction {
                assignment[t] = None;
            } else {
                assignment[t] = Some((n_groups + rng.gen_range(0..n_bg)) as u32);
            }
        }

        let sigma_of = |cluster: u32| {
            if (cluster as usize) < n_groups {
                self.synonym_noise
            } else {
                self.noise
            }
        };
        let emb = clustered_embeddings(self.dim, &assignment, sigma_of, self.seed);
        (emb, assignment)
    }
}

/// Low-level generator: one unit vector per token from
/// `normalize(centroid[cluster] + σ(cluster)·gauss)`.
///
/// `assignment[t] = None` leaves token `t` out-of-vocabulary.
pub fn clustered_embeddings(
    dim: usize,
    assignment: &[Option<u32>],
    sigma_of: impl Fn(u32) -> f64,
    seed: u64,
) -> Embeddings {
    let mut emb = Embeddings::new(dim, assignment.len());
    let mut centroid_cache: std::collections::HashMap<u32, Vec<f64>> =
        std::collections::HashMap::new();
    let mut noise = vec![0.0f64; dim];
    let mut v = vec![0.0f64; dim];
    for (t, &cluster) in assignment.iter().enumerate() {
        let Some(c) = cluster else { continue };
        let centroid = centroid_cache.entry(c).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0xC1u64 << 32 | c as u64));
            let mut cv = vec![0.0f64; dim];
            gaussian_vec(&mut rng, &mut cv);
            let norm = cv.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            cv.iter_mut().for_each(|x| *x /= norm);
            cv
        });
        let sigma = sigma_of(c);
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x70u64 << 40 | t as u64));
        gaussian_vec(&mut rng, &mut noise);
        // Per-dimension noise scaled so the *total* perturbation norm is
        // ≈ sigma (noise vector has expected norm √dim before scaling).
        let scale = sigma / (dim as f64).sqrt();
        for i in 0..dim {
            v[i] = centroid[i] + noise[i] * scale;
        }
        emb.set(TokenId(t as u32), &v);
    }
    emb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::RepositoryBuilder;

    fn repo_with_tokens(n: usize) -> Repository {
        let mut b = RepositoryBuilder::new();
        for i in 0..n {
            b.intern(&format!("tok{i}"));
        }
        b.build()
    }

    #[test]
    fn deterministic_across_builds() {
        let repo = repo_with_tokens(50);
        let b = SyntheticEmbeddings::builder().dimensions(16).seed(9);
        let e1 = b.clone().build(&repo);
        let e2 = b.build(&repo);
        for t in 0..50 {
            assert_eq!(e1.get(TokenId(t)), e2.get(TokenId(t)));
        }
    }

    #[test]
    fn within_cluster_cosine_beats_cross_cluster() {
        let repo = repo_with_tokens(200);
        let (emb, clusters) = SyntheticEmbeddings::builder()
            .dimensions(64)
            .clusters(10)
            .noise(0.35)
            .seed(3)
            .build_with_clusters(&repo);
        let mut within = Vec::new();
        let mut cross = Vec::new();
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let (Some(ca), Some(cb)) = (clusters[a as usize], clusters[b as usize]) else {
                    continue;
                };
                if let Some(c) = emb.cosine(TokenId(a), TokenId(b)) {
                    if ca == cb {
                        within.push(c);
                    } else {
                        cross.push(c);
                    }
                }
            }
        }
        assert!(!within.is_empty() && !cross.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mw = mean(&within);
        let mc = mean(&cross);
        assert!(
            mw > 0.75,
            "within-cluster mean cosine too low: {mw} (σ=0.35 ⇒ ≈0.89)"
        );
        assert!(mc < 0.4, "cross-cluster mean cosine too high: {mc}");
    }

    #[test]
    fn oov_fraction_respected() {
        let repo = repo_with_tokens(500);
        let emb = SyntheticEmbeddings::builder()
            .dimensions(8)
            .oov_fraction(0.3)
            .seed(5)
            .build(&repo);
        let cov = emb.coverage();
        assert!((cov - 0.7).abs() < 0.08, "coverage {cov} far from 0.7");
    }

    #[test]
    fn synonym_groups_are_tight_and_interned() {
        let mut b = RepositoryBuilder::new();
        b.add_set("s", ["LA", "Boston"]);
        let mut repo = b.build();
        let emb = SyntheticEmbeddings::builder()
            .dimensions(32)
            .seed(11)
            .synonyms(&mut repo, &[&["NewYorkCity", "BigApple"]])
            .build(&repo);
        let nyc = repo.token_id("NewYorkCity").expect("interned by synonyms");
        let big = repo.token_id("BigApple").unwrap();
        let la = repo.token_id("LA").unwrap();
        let c_syn = emb.cosine(nyc, big).unwrap();
        assert!(c_syn > 0.85, "synonyms should be close, got {c_syn}");
        let c_other = emb.cosine(nyc, la).unwrap();
        assert!(c_syn > c_other);
    }

    #[test]
    fn vectors_are_unit_length() {
        let repo = repo_with_tokens(20);
        let emb = SyntheticEmbeddings::builder().dimensions(16).build(&repo);
        for t in 0..20u32 {
            if let Some(v) = emb.get(TokenId(t)) {
                let n: f64 = v.iter().map(|x| (*x as f64) * (*x as f64)).sum();
                assert!((n - 1.0).abs() < 1e-5);
            }
        }
    }
}
