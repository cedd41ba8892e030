//! The post-processing phase (paper §VI, Algorithm 2).
//!
//! Survivors are verified in descending upper-bound order through three
//! structures: `Lub` (top-k sets by current upper bound, whose bottom is
//! `θub`), `Qub` (a priority queue holding the rest), and the `Llb` list
//! carried over from refinement (whose bottom keeps raising the shared
//! `θlb`). Three filters cut verification work:
//!
//! * **No-EM** (Lemma 7): `LB(C) ≥ θub` certifies top-k membership without
//!   computing the matching — the hit is reported with its bound interval.
//! * **EM-Early-Terminated** (Lemma 8): the Hungarian run aborts once its
//!   label-sum upper bound sinks below `θlb`.
//! * **Lazy UB pruning**: sets popped from `Qub` with `UB < θlb` are
//!   discarded outright.
//!
//! Completed matchings re-rank the set by its exact score (it re-enters
//! `Lub` through `Qub` if still competitive — Example 4's `D6` dance).
//! With `parallel_em > 1`, the top unchecked sets verify concurrently and
//! share the global `θlb` (the paper's background thread pool).
//!
//! Every exact matching goes through `Verifier::verify_one`: from the stream's
//! [`QueryEdges`] when the engine collected them (its own exact source,
//! drained to the end), from the dense similarity matrix for a
//! caller-provided source. A stream the deadline cut verifies nothing: the
//! deadline has passed, and both verification loops check it first.

use crate::config::KoiosConfig;
use crate::overlap::{self, MatchingEffort, QueryEdges};
use crate::refine::Survivor;
use crate::result::{Hit, ScoreBound};
use crate::stats::SearchStats;
use crate::theta::{slack, SharedTheta};
use koios_common::topk::TopKList;
use koios_common::{HeapSize, SetId, Sim, TokenId};
use koios_embed::repository::Repository;
use koios_embed::sim::ElementSimilarity;
use koios_matching::MatchOutcome;
use std::collections::{BinaryHeap, HashMap};
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Instant;

struct Post {
    lb: f64,
    ub: f64,
    exact: Option<f64>,
    checked: bool,
    alive: bool,
}

/// The Lemma-8 threshold for an exact-matching run: only meaningful when
/// positive (a zero θlb can never terminate a non-negative label sum).
fn em_threshold(cfg: &KoiosConfig, theta: &SharedTheta) -> Option<f64> {
    if !cfg.em_early_termination {
        return None;
    }
    let t = theta.get();
    (t > 0.0).then(|| slack(t))
}

/// What one verification needs besides the set and its threshold; `Copy`
/// so the scoped verification threads each take it by value.
#[derive(Clone, Copy)]
struct Verifier<'a> {
    repo: &'a Repository,
    sim: &'a dyn ElementSimilarity,
    alpha: f64,
    query: &'a [TokenId],
    edges: Option<&'a QueryEdges>,
}

impl Verifier<'_> {
    /// One exact matching of the query against `set`: looked up from the
    /// stream's edges when the search has them, recomputed densely for a
    /// caller-provided source. A deadline-cut stream never gets here: the
    /// loops check the deadline before each verification.
    fn verify_one(self, set: SetId, theta: Option<f64>) -> (MatchOutcome, MatchingEffort) {
        match self.edges {
            Some(edges) => edges.overlap_bounded(self.repo.set(set), theta),
            None => overlap::semantic_overlap_bounded_with_effort(
                self.repo, self.sim, self.alpha, self.query, set, theta,
            ),
        }
    }

    /// Verifies a batch — on the caller's thread when it is a single set,
    /// on one scoped thread per set otherwise. `theta` is read per set at
    /// spawn time: completions of sibling verifications keep raising θlb
    /// between batches.
    fn verify_batch(
        self,
        batch: &[SetId],
        theta: impl Fn() -> Option<f64> + Sync,
    ) -> Vec<(SetId, MatchOutcome, MatchingEffort)> {
        let one = |set: SetId| {
            let (outcome, effort) = self.verify_one(set, theta());
            (set, outcome, effort)
        };
        if let [set] = *batch {
            return vec![one(set)];
        }
        let one = &one;
        std::thread::scope(|sc| {
            let handles: Vec<_> = batch
                .iter()
                .map(|&set| sc.spawn(move || one(set)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    }
}

/// Runs post-processing and returns the final hits (descending upper bound).
/// `edges` are the query's drained stream edges, when the search may verify
/// from them (see [`QueryEdges`]).
#[allow(clippy::too_many_arguments)]
pub fn postprocess(
    repo: &Repository,
    sim: &Arc<dyn ElementSimilarity>,
    query: &[TokenId],
    cfg: &KoiosConfig,
    theta: &SharedTheta,
    llb: &mut TopKList,
    survivors: Vec<Survivor>,
    stats: &mut SearchStats,
    deadline: Option<Instant>,
    edges: Option<&QueryEdges>,
) -> Vec<Hit> {
    let verifier = Verifier {
        repo,
        sim: sim.as_ref(),
        alpha: cfg.alpha,
        query,
        edges,
    };
    if cfg.verify_all {
        return verify_all(verifier, cfg, llb, survivors, stats, deadline);
    }

    let mut states: HashMap<SetId, Post> = HashMap::with_capacity(survivors.len());
    let mut lub = TopKList::new(cfg.k);
    let mut qub: BinaryHeap<(Sim, SetId)> = BinaryHeap::new();

    // Survivors arrive sorted by descending ub: the first k seed Lub.
    for (i, sv) in survivors.iter().enumerate() {
        states.insert(
            sv.set,
            Post {
                lb: sv.lb,
                ub: sv.ub,
                exact: None,
                checked: false,
                alive: true,
            },
        );
        if i < cfg.k {
            lub.offer(sv.set, Sim::new(sv.ub));
        } else {
            qub.push((Sim::new(sv.ub), sv.set));
        }
    }

    stats.memory.add(
        "postprocess states",
        states.capacity() * (std::mem::size_of::<(SetId, Post)>() + 1),
    );
    stats.memory.add(
        "ub priority queue",
        qub.capacity() * std::mem::size_of::<(Sim, SetId)>(),
    );
    stats.memory.add("top-k ub list", lub.heap_size());

    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                stats.timed_out = true;
                break;
            }
        }
        // Refill Lub to k live sets, lazily pruning sub-θlb entries.
        while lub.len() < cfg.k {
            let Some(&(ub, set)) = qub.peek() else { break };
            qub.pop();
            let Some(p) = states.get_mut(&set) else {
                continue;
            };
            // Stale queue entries: superseded key or already placed/pruned.
            if !p.alive || lub.contains(set) || Sim::new(p.ub) != ub {
                continue;
            }
            if p.ub < slack(theta.get()) {
                p.alive = false;
                stats.postprocess_ub_pruned += 1;
                continue;
            }
            lub.offer(set, ub);
        }

        let unchecked: Vec<SetId> = lub
            .iter_desc()
            .filter(|&(set, _)| !states[&set].checked)
            .map(|(set, _)| set)
            .collect();
        if unchecked.is_empty() {
            break;
        }

        // No-EM filter (Lemma 7): θub is the k-th largest current UB among
        // live sets — exactly Lub's bottom once full.
        if cfg.no_em_filter && lub.is_full() {
            let theta_ub = lub.bottom().expect("lub is full");
            let mut certified = 0;
            for &set in &unchecked {
                let p = states.get_mut(&set).expect("listed set has state");
                if Sim::new(p.lb) >= theta_ub {
                    p.checked = true;
                    certified += 1;
                }
            }
            if certified > 0 {
                stats.no_em += certified;
                continue;
            }
        }

        // Verify the highest-UB unchecked sets (a batch when parallel).
        let batch: Vec<SetId> = unchecked.into_iter().take(cfg.parallel_em.max(1)).collect();
        let verify_start = Instant::now();
        let outcomes = verifier.verify_batch(&batch, || em_threshold(cfg, theta));
        stats.verify_time += verify_start.elapsed();

        for (set, outcome, effort) in outcomes {
            stats.matrix_cells += effort.matrix_cells;
            stats.support_cells += effort.support_cells;
            match outcome {
                MatchOutcome::EarlyTerminated { upper_bound } => {
                    stats.em_early_terminated += 1;
                    debug_assert!(upper_bound < theta.get() + 1e-9);
                    let p = states.get_mut(&set).expect("verified set has state");
                    p.alive = false;
                    p.checked = true;
                    lub.remove(set);
                }
                MatchOutcome::Exact(m) => {
                    stats.em_full += 1;
                    let so = m.score;
                    let p = states.get_mut(&set).expect("verified set has state");
                    p.exact = Some(so);
                    p.checked = true;
                    p.lb = so;
                    p.ub = so;
                    if llb.offer(set, Sim::new(so)) {
                        stats.theta_raises += 1;
                        if let Some(b) = llb.bottom() {
                            theta.raise(b.get());
                        }
                    }
                    // Re-rank by the exact score: the set re-enters Lub via
                    // Qub if still among the top-k upper bounds.
                    lub.remove(set);
                    qub.push((Sim::new(so), set));
                }
            }
        }
    }

    lub.iter_desc()
        .map(|(set, _)| {
            let p = &states[&set];
            let score = match p.exact {
                Some(s) => ScoreBound::Exact(s),
                None => ScoreBound::Range { lb: p.lb, ub: p.ub },
            };
            Hit { set, score }
        })
        .collect()
}

/// The exhaustive Baseline/Baseline+ verification of §VIII-A4: run the full
/// matching for *every* survivor (in `parallel_em`-sized waves, mirroring
/// the paper's thread pool) and keep the top k.
fn verify_all(
    verifier: Verifier<'_>,
    cfg: &KoiosConfig,
    llb: &mut TopKList,
    survivors: Vec<Survivor>,
    stats: &mut SearchStats,
    deadline: Option<Instant>,
) -> Vec<Hit> {
    let mut scored: Vec<(f64, SetId)> = Vec::with_capacity(survivors.len());
    let threads = cfg.parallel_em.max(1);
    for wave in survivors.chunks(threads) {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                stats.timed_out = true;
                break;
            }
        }
        let verify_start = Instant::now();
        let wave: Vec<SetId> = wave.iter().map(|sv| sv.set).collect();
        let outcomes = verifier.verify_batch(&wave, || None);
        stats.verify_time += verify_start.elapsed();
        for (set, outcome, effort) in outcomes {
            let so = outcome.score();
            stats.em_full += 1;
            stats.matrix_cells += effort.matrix_cells;
            stats.support_cells += effort.support_cells;
            llb.offer(set, Sim::new(so));
            scored.push((so, set));
        }
    }
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("scores are never NaN")
            .then_with(|| a.1.cmp(&b.1))
    });
    scored.truncate(cfg.k);
    scored
        .into_iter()
        .map(|(so, set)| Hit {
            set,
            score: ScoreBound::Exact(so),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KoiosConfig;
    use koios_embed::repository::RepositoryBuilder;
    use koios_embed::sim::EqualitySimilarity;

    /// Builds a repo of singleton-ish sets where semantic overlap equals
    /// vanilla overlap (equality sim), letting us hand-craft bounds.
    fn setup() -> (Repository, Arc<dyn ElementSimilarity>, Vec<TokenId>) {
        let mut b = RepositoryBuilder::new();
        b.add_set("s0", ["a", "b", "c"]); // SO = 3
        b.add_set("s1", ["a", "b", "x"]); // SO = 2
        b.add_set("s2", ["a", "y", "z"]); // SO = 1
        b.add_set("s3", ["p", "q", "r"]); // SO = 0 (never a candidate)
        let repo = b.build();
        let q = repo.intern_query(["a", "b", "c"]);
        (repo, Arc::new(EqualitySimilarity), q)
    }

    fn survivors() -> Vec<Survivor> {
        vec![
            Survivor {
                set: SetId(0),
                lb: 3.0,
                ub: 3.0,
            },
            Survivor {
                set: SetId(1),
                lb: 2.0,
                ub: 2.0,
            },
            Survivor {
                set: SetId(2),
                lb: 1.0,
                ub: 1.0,
            },
        ]
    }

    #[test]
    fn returns_top_k_and_respects_k() {
        let (repo, sim, q) = setup();
        let cfg = KoiosConfig::new(2, 0.9);
        let theta = SharedTheta::new();
        let mut llb = TopKList::new(2);
        for sv in survivors() {
            llb.offer(sv.set, Sim::new(sv.lb));
        }
        theta.raise(llb.threshold().get());
        let mut stats = SearchStats::default();
        let hits = postprocess(
            &repo,
            &sim,
            &q,
            &cfg,
            &theta,
            &mut llb,
            survivors(),
            &mut stats,
            None,
            None,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].set, SetId(0));
        assert_eq!(hits[1].set, SetId(1));
    }

    #[test]
    fn no_em_certifies_without_matching() {
        let (repo, sim, q) = setup();
        let cfg = KoiosConfig::new(1, 0.9);
        let theta = SharedTheta::new();
        let mut llb = TopKList::new(1);
        // Tight bounds: lb of the best equals its ub => No-EM must fire.
        let sv = vec![
            Survivor {
                set: SetId(0),
                lb: 3.0,
                ub: 3.0,
            },
            Survivor {
                set: SetId(1),
                lb: 2.0,
                ub: 2.0,
            },
        ];
        for s in &sv {
            llb.offer(s.set, Sim::new(s.lb));
        }
        theta.raise(llb.threshold().get());
        let mut stats = SearchStats::default();
        let hits = postprocess(
            &repo, &sim, &q, &cfg, &theta, &mut llb, sv, &mut stats, None, None,
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].set, SetId(0));
        assert_eq!(stats.no_em, 1);
        assert_eq!(stats.em_full, 0);
        assert_eq!(stats.verify_time, std::time::Duration::ZERO);
        // No-EM hits carry interval scores.
        assert!(hits[0].score.exact().is_none());
    }

    #[test]
    fn disabled_no_em_yields_exact_scores() {
        let (repo, sim, q) = setup();
        let mut cfg = KoiosConfig::new(2, 0.9);
        cfg.no_em_filter = false;
        let theta = SharedTheta::new();
        let mut llb = TopKList::new(2);
        let mut stats = SearchStats::default();
        let hits = postprocess(
            &repo,
            &sim,
            &q,
            &cfg,
            &theta,
            &mut llb,
            survivors(),
            &mut stats,
            None,
            None,
        );
        assert_eq!(hits.len(), 2);
        for h in &hits {
            assert!(h.score.exact().is_some());
        }
        assert_eq!(hits[0].score.exact(), Some(3.0));
        assert_eq!(hits[1].score.exact(), Some(2.0));
        assert!(
            stats.verify_time > std::time::Duration::ZERO,
            "completed matchings must account verify time"
        );
    }

    #[test]
    fn loose_upper_bounds_get_verified_and_reranked() {
        let (repo, sim, q) = setup();
        let mut cfg = KoiosConfig::new(2, 0.9);
        cfg.no_em_filter = false;
        let theta = SharedTheta::new();
        let mut llb = TopKList::new(2);
        // s2 looks best by UB but verifies to 1.0; true order must win.
        let sv = vec![
            Survivor {
                set: SetId(2),
                lb: 0.5,
                ub: 10.0,
            },
            Survivor {
                set: SetId(0),
                lb: 1.0,
                ub: 3.5,
            },
            Survivor {
                set: SetId(1),
                lb: 1.0,
                ub: 2.5,
            },
        ];
        let mut stats = SearchStats::default();
        let hits = postprocess(
            &repo, &sim, &q, &cfg, &theta, &mut llb, sv, &mut stats, None, None,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].set, SetId(0));
        assert_eq!(hits[0].score.exact(), Some(3.0));
        assert_eq!(hits[1].set, SetId(1));
        assert_eq!(hits[1].score.exact(), Some(2.0));
    }

    #[test]
    fn parallel_em_matches_sequential() {
        let (repo, sim, q) = setup();
        let theta_a = SharedTheta::new();
        let theta_b = SharedTheta::new();
        let mut cfg_seq = KoiosConfig::new(2, 0.9);
        cfg_seq.no_em_filter = false;
        let cfg_par = cfg_seq.clone().with_parallel_em(4);
        let mut llb_a = TopKList::new(2);
        let mut llb_b = TopKList::new(2);
        let mut st_a = SearchStats::default();
        let mut st_b = SearchStats::default();
        let ha = postprocess(
            &repo,
            &sim,
            &q,
            &cfg_seq,
            &theta_a,
            &mut llb_a,
            survivors(),
            &mut st_a,
            None,
            None,
        );
        let hb = postprocess(
            &repo,
            &sim,
            &q,
            &cfg_par,
            &theta_b,
            &mut llb_b,
            survivors(),
            &mut st_b,
            None,
            None,
        );
        assert_eq!(ha.len(), hb.len());
        for (a, b) in ha.iter().zip(&hb) {
            assert_eq!(a.set, b.set);
            assert_eq!(a.score.exact(), b.score.exact());
        }
    }

    #[test]
    fn fewer_survivors_than_k() {
        let (repo, sim, q) = setup();
        let cfg = KoiosConfig::new(10, 0.9);
        let theta = SharedTheta::new();
        let mut llb = TopKList::new(10);
        let mut stats = SearchStats::default();
        let hits = postprocess(
            &repo,
            &sim,
            &q,
            &cfg,
            &theta,
            &mut llb,
            survivors(),
            &mut stats,
            None,
            None,
        );
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn empty_survivors_yield_empty_hits() {
        let (repo, sim, q) = setup();
        let cfg = KoiosConfig::new(3, 0.9);
        let theta = SharedTheta::new();
        let mut llb = TopKList::new(3);
        let mut stats = SearchStats::default();
        let hits = postprocess(
            &repo,
            &sim,
            &q,
            &cfg,
            &theta,
            &mut llb,
            Vec::new(),
            &mut stats,
            None,
            None,
        );
        assert!(hits.is_empty());
    }
}
