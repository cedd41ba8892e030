//! Cross-baseline semantics: vanilla overlap as a lower bound (Lemma 1),
//! equality-similarity degeneration, SilkMoth agreement, and the greedy
//! mis-ranking of Example 2 reproduced end-to-end.

use koios::prelude::*;
use koios_baselines::silkmoth::{SilkMoth, SilkMothVariant};
use koios_baselines::{greedy_topk, vanilla_topk};
use koios_core::overlap::semantic_overlap;
use koios_datagen::corpus::{Corpus, CorpusSpec};
use koios_index::inverted::InvertedIndex;
use std::sync::Arc;

const EPS: f64 = 1e-9;

#[test]
fn vanilla_overlap_lower_bounds_semantic_overlap() {
    // Lemma 1 over a whole corpus.
    let c = Corpus::generate(CorpusSpec::small(1000));
    let sim = CosineSimilarity::new(Arc::new(c.embeddings.clone()));
    let query = c.repository.set(SetId(0)).to_vec();
    for (id, _) in c.repository.iter_sets().take(60) {
        let so = semantic_overlap(&c.repository, &sim, 0.8, &query, id);
        let vo = c.repository.vanilla_overlap(&query, id) as f64;
        assert!(so >= vo - EPS, "set {id:?}: SO {so} < vanilla {vo}");
    }
}

#[test]
fn equality_similarity_degenerates_to_vanilla_topk() {
    let repo = Arc::new(Corpus::generate(CorpusSpec::small(1001)).repository);
    let idx = InvertedIndex::build(&repo);
    let query = repo.set(SetId(7)).to_vec();
    let k = 8;
    let vanilla = vanilla_topk(&repo, &idx, &query, k);
    let mut cfg = KoiosConfig::new(k, 1.0);
    cfg.no_em_filter = false;
    let koios = Koios::new(Arc::clone(&repo), Arc::new(EqualitySimilarity), cfg).search(&query);
    assert_eq!(vanilla.len(), koios.hits.len());
    for ((_, count), hit) in vanilla.iter().zip(&koios.hits) {
        assert!(
            (hit.score.exact().unwrap() - *count as f64).abs() < EPS,
            "vanilla count {count} vs koios {:?}",
            hit.score
        );
    }
}

#[test]
fn silkmoth_topk_agrees_with_koios_on_qgram_similarity() {
    let repo = Arc::new(Corpus::generate(CorpusSpec::small(1002)).repository);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(QGramJaccard::new(&repo, 3));
    let alpha = 0.6;
    let k = 5;
    let query = repo.set(SetId(12)).to_vec();
    let mut cfg = KoiosConfig::new(k, alpha);
    cfg.no_em_filter = false;
    let koios = Koios::new(Arc::clone(&repo), sim.clone(), cfg).search(&query);
    let theta_k = koios
        .hits
        .last()
        .map(|h| h.score.exact().unwrap())
        .unwrap_or(0.0);
    for variant in [SilkMothVariant::Syntactic, SilkMothVariant::Semantic] {
        let sm = SilkMoth::new(&repo, variant, 3, alpha);
        let (res, stats) = sm.search_topk(&query, k, theta_k);
        assert_eq!(res.len(), koios.hits.len(), "{variant:?}");
        for ((_, so), hit) in res.iter().zip(&koios.hits) {
            assert!(
                (so - hit.score.exact().unwrap()).abs() < EPS,
                "{variant:?}: {so} vs {:?}",
                hit.score
            );
        }
        assert!(stats.verified >= res.len());
    }
}

#[test]
fn greedy_misranks_the_paper_example() {
    // Example 2: greedy scores C2 as 3.74 < C1's 4.09 although the true
    // semantic overlap ranks C2 (4.49) above C1 (4.09). We rebuild the
    // figure's similarity structure with hand-crafted synonym clusters.
    let mut b = RepositoryBuilder::new();
    b.add_set(
        "c1",
        [
            "LA",
            "Blain",
            "Appleton",
            "MtPleasant",
            "Lexington",
            "WestCoast",
        ],
    );
    b.add_set(
        "c2",
        [
            "LA",
            "Sacramento",
            "Southern",
            "Blain",
            "SC",
            "Minnesota",
            "NewYorkCity",
        ],
    );
    let mut repo = b.build();
    let query = repo.intern_query_mut([
        "LA",
        "Seattle",
        "Columbia",
        "Blaine",
        "BigApple",
        "Charleston",
    ]);
    let emb = SyntheticEmbeddings::builder()
        .dimensions(48)
        .seed(3)
        .synonym_noise(0.15)
        .synonyms(
            &mut repo,
            &[
                &["Blaine", "Blain"],
                &["BigApple", "NewYorkCity"],
                &["Charleston", "SC", "Columbia"],
                &["Seattle", "WestCoast", "Sacramento"],
                &["MtPleasant", "Lexington"],
            ],
        )
        .build(&repo);
    let repo = Arc::new(repo);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(emb)));
    let alpha = 0.7;

    let so1 = semantic_overlap(&repo, sim.as_ref(), alpha, &query, SetId(0));
    let so2 = semantic_overlap(&repo, sim.as_ref(), alpha, &query, SetId(1));
    assert!(
        so2 > so1,
        "semantic overlap must rank c2 ({so2}) above c1 ({so1})"
    );

    // Koios agrees with the exact ranking.
    let engine = Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(1, alpha));
    let res = engine.search(&query);
    assert_eq!(res.hits[0].set, SetId(1), "top-1 must be c2");

    // The greedy comparator may or may not mis-rank depending on the exact
    // synthetic similarities, but it must never exceed the true overlap.
    let idx = InvertedIndex::build(&repo);
    let greedy = greedy_topk(&repo, &idx, sim.as_ref(), &query, 2, alpha);
    for &(set, g) in &greedy {
        let so = semantic_overlap(&repo, sim.as_ref(), alpha, &query, set);
        assert!(g <= so + EPS);
    }
}

#[test]
fn semantic_search_recovers_sets_vanilla_misses() {
    // The Fig. 8 phenomenon: under semantic overlap, sets with few exact
    // matches but many synonyms outrank sets with slightly more exact
    // matches and no semantic relation.
    let mut b = RepositoryBuilder::new();
    // Two exact matches, nothing else related.
    b.add_set(
        "exactish",
        ["alpha0", "alpha1", "unrel0", "unrel1", "unrel2"],
    );
    // One exact match plus four synonyms of query elements.
    b.add_set("semantic", ["alpha0", "syn1", "syn2", "syn3", "syn4"]);
    let mut repo = b.build();
    let query = repo.intern_query_mut(["alpha0", "alpha1", "q1", "q2", "q3", "q4"]);
    let emb = SyntheticEmbeddings::builder()
        .dimensions(32)
        .seed(9)
        .synonym_noise(0.1)
        .synonyms(
            &mut repo,
            &[
                &["q1", "syn1"],
                &["q2", "syn2"],
                &["q3", "syn3"],
                &["q4", "syn4"],
            ],
        )
        .build(&repo);
    let repo = Arc::new(repo);
    let sim: Arc<dyn ElementSimilarity> = Arc::new(CosineSimilarity::new(Arc::new(emb)));
    let idx = InvertedIndex::build(&repo);
    // Vanilla ranks "exactish" first.
    let v = vanilla_topk(&repo, &idx, &query, 1);
    assert_eq!(v[0].0, SetId(0));
    // Semantic overlap ranks "semantic" first.
    let res = Koios::new(Arc::clone(&repo), sim, KoiosConfig::new(1, 0.7)).search(&query);
    assert_eq!(res.hits[0].set, SetId(1));
}
