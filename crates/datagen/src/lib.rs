//! Synthetic corpora and query benchmarks for the Koios experiments.
//!
//! The paper evaluates on DBLP, OpenData, Twitter and WDC (Table I). Those
//! corpora and the FastText vectors they are paired with are not available
//! offline, so this crate generates corpora that reproduce the
//! *distributional* properties the evaluation phenomena depend on
//! (ARCHITECTURE.md, "Deviations from the paper" 2):
//!
//! * Zipfian token frequencies — long posting lists make candidate counts
//!   explode (the WDC effect, §VIII-A1);
//! * power-law set cardinalities — queries are benchmarked per cardinality
//!   interval (§VIII-A2);
//! * semantic topic structure — every token belongs to a topic cluster;
//!   sets are topically coherent mixtures, and the clustered embeddings of
//!   `koios-embed` give within-topic pairs high cosine similarity;
//! * out-of-vocabulary tokens — the paper keeps sets with ≥70% embedding
//!   coverage, i.e. up to 30% OOV elements.
//!
//! [`profiles`] provides laptop-scaled presets mirroring each paper dataset;
//! [`benchmark`] samples per-interval query workloads exactly like §VIII-A2.
//!
//! Entry points: pick a [`DatasetProfile`] (e.g.
//! [`profiles::opendata`]), call [`DatasetProfile::generate`] for the
//! [`Corpus`] and [`DatasetProfile::benchmark`] for its
//! [`QueryBenchmark`]; `koios-bench::setup` wraps exactly this sequence.

pub mod benchmark;
pub mod corpus;
pub mod profiles;
pub mod zipf;

pub use benchmark::{BenchQuery, QueryBenchmark};
pub use corpus::{Corpus, CorpusSpec};
pub use profiles::DatasetProfile;
pub use zipf::Zipf;
