//! The refinement phase (paper §IV–§V, Algorithm 1).
//!
//! Tuples from the token stream discover candidates through the inverted
//! index and update two per-candidate quantities:
//!
//! * **iLB** (Lemma 5): the score of the partial greedy matching assembled
//!   from the descending edge stream — seeded with the vanilla overlap
//!   because identical tokens arrive first at similarity 1.
//! * **iUB**: `S_i + m_i·s` with `s` the current stream similarity, where
//!   `S_i` sums the first emitted edge per query element and `m_i` counts
//!   the rows still unseen, up to `min(|Q|,|C|)`. Lemma 6 takes `S_i` to
//!   be the greedy score instead, which is unsound (ARCHITECTURE.md,
//!   Deviations 1). A stream that ran dry has emitted every edge `≥ α`,
//!   so the final bound is `S_i`; a stream the deadline cut at `s` keeps
//!   `S_i + m_i·s`, since each unseen row can still hold an edge of `s`.
//!
//! Candidates are pruned when their upper bound falls strictly below `θlb`,
//! the k-th best lower bound seen so far (Lemma 4) — at discovery via the
//! UB-filter (Lemma 2) and continuously via the bucket sweep (§V).
//!
//! Every posting entry of every stream tuple looks its set up, so the
//! candidate states live in a dense table: one `u32` slot per set id
//! pointing into a vector of candidates, kept per thread between
//! searches (`Scratch`). An improved lower bound is offered to `Llb`
//! only when it can enter: while the list is not full, or strictly above
//! its bottom.

use crate::buckets::BucketIndex;
use crate::config::KoiosConfig;
use crate::stats::SearchStats;
use crate::theta::{slack, SharedTheta};
use koios_common::sparse::{RowSet, Span, SpanArena};
use koios_common::topk::TopKList;
use koios_common::{HeapSize, SetId, Sim, TokenId};
use koios_embed::repository::Repository;
use koios_index::inverted::InvertedIndex;
use koios_index::knn::KnnSource;
use koios_index::token_stream::TokenStream;
use std::cell::Cell;
use std::time::Instant;

/// A candidate that survived refinement, with its final certified bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Survivor {
    /// The candidate set.
    pub set: SetId,
    /// Final lower bound (greedy matching score over the full stream).
    pub lb: f64,
    /// Final upper bound: the row-max sum once the stream ran dry; on a
    /// deadline-cut stream, plus the last emitted similarity for each
    /// unseen row.
    pub ub: f64,
}

/// Output of the refinement phase.
pub struct RefineOutput {
    /// Unpruned candidates, descending by upper bound (ties by set id).
    pub survivors: Vec<Survivor>,
    /// The running top-k lower-bound list (continues into post-processing).
    pub llb: TopKList,
}

/// Per-candidate bound state. Its token set and any query row from 64
/// up live in the search's [`SpanArena`], so a candidate owns no heap:
/// admitting one allocates nothing and pruning one frees nothing.
#[derive(Clone, Copy)]
struct Cand {
    /// `min(|Q|, |C|)` — the maximum matching cardinality.
    cap: u32,
    /// Greedy partial matching score (iLB).
    lb: f64,
    /// Query element indices matched by the greedy matching.
    matched_q: RowSet,
    /// Candidate tokens matched by the greedy matching.
    matched_t: Span,
    /// Row-max sum (the iUB base).
    row_sum: f64,
    /// Query rows counted into `row_sum`, at most `cap`.
    seen_q: RowSet,
    /// Tombstone flag: pruned candidates are remembered so posting hits
    /// cannot resurrect them (Algorithm 1 line 6).
    pruned: bool,
}

impl Cand {
    fn new(cap: u32) -> Self {
        Cand {
            cap,
            lb: 0.0,
            matched_q: RowSet::default(),
            matched_t: Span::default(),
            row_sum: 0.0,
            seen_q: RowSet::default(),
            pruned: false,
        }
    }

    fn tombstone(cap: u32) -> Self {
        Cand {
            pruned: true,
            ..Cand::new(cap)
        }
    }

    /// Applies a stream tuple `(q_idx, token, s)`; returns whether the lower
    /// bound improved.
    fn apply(&mut self, sets: &mut SpanArena, q_idx: u32, token: TokenId, s: f64) -> bool {
        debug_assert!(!self.pruned);
        // iUB: first emitted edge per query row, capped at `cap` rows (the
        // stream is descending, so the first `cap` rows carry the largest
        // row maxima).
        if (self.seen_q.len() as u32) < self.cap && self.seen_q.insert(sets, q_idx) {
            self.row_sum += s;
        }
        // iLB: greedy matching accepts the edge iff both endpoints are free
        // (Lemma 5 — any prefix of greedy choices is a valid matching).
        if !self.matched_q.contains(sets, q_idx) && !sets.contains(self.matched_t, token.0) {
            self.matched_q.insert(sets, q_idx);
            sets.insert(&mut self.matched_t, token.0);
            self.lb += s;
            true
        } else {
            false
        }
    }

    /// The `(m, S_i)` bucket key: rows still unseen, and the row-max sum.
    fn bucket_key(&self) -> (u32, f64) {
        (self.cap - self.seen_q.len() as u32, self.row_sum)
    }

    /// The upper bound once the stream stopped, with `residual` the most
    /// an unseen row can still add: 0 when the stream ran dry (every
    /// unseen edge is below `α`), the last emitted similarity when a
    /// deadline cut it.
    fn final_ub(&self, residual: f64) -> f64 {
        self.row_sum + (self.cap - self.seen_q.len() as u32) as f64 * residual
    }
}

/// What refinement keeps between the searches of one thread: the dense
/// candidate table and the arena of the candidates' sets. Between
/// searches every slot is [`NO_CAND`] and both vectors are empty.
#[derive(Default)]
struct Scratch {
    /// One entry per set id: the set's index in `cands`, or [`NO_CAND`].
    slot: Vec<u32>,
    /// This search's candidates, tombstones included, in discovery order.
    cands: Vec<(SetId, Cand)>,
    sets: SpanArena,
}

/// The slot of a set that is not a candidate.
const NO_CAND: u32 = u32::MAX;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A retained scratch larger than this many times what the last search
/// used is shrunk to that use; the slot table's use is the repository's
/// set count.
const RETAIN_FACTOR: usize = 4;

impl Scratch {
    /// This thread's scratch, its table covering `num_sets` set ids. It is
    /// taken, not borrowed: a search that panics drops it, and a nested
    /// search gets a fresh one.
    fn take(num_sets: usize) -> Self {
        let mut s = SCRATCH.take();
        if s.slot.len() < num_sets {
            s.slot.resize(num_sets, NO_CAND);
        }
        s
    }

    /// Empties the scratch — resetting only the candidates' slots — and
    /// gives it back to the thread, shrinking each part that is more than
    /// [`RETAIN_FACTOR`]× this search's use.
    fn put_back(mut self, num_sets: usize) {
        for &(set, _) in &self.cands {
            self.slot[set.idx()] = NO_CAND;
        }
        if self.slot.capacity() > RETAIN_FACTOR * num_sets {
            self.slot.truncate(num_sets);
            self.slot.shrink_to_fit();
        }
        let (cands, words) = (self.cands.len(), self.sets.len());
        self.cands.clear();
        if self.cands.capacity() > RETAIN_FACTOR * cands {
            self.cands.shrink_to(cands);
        }
        self.sets.clear();
        if self.sets.capacity() > RETAIN_FACTOR * words {
            self.sets.shrink_to(words);
        }
        SCRATCH.set(self);
    }
}

/// Runs the refinement phase over `stream`.
#[allow(clippy::too_many_arguments)]
pub fn refine<K: KnnSource>(
    repo: &Repository,
    index: &InvertedIndex,
    query: &[TokenId],
    cfg: &KoiosConfig,
    theta: &SharedTheta,
    stream: &mut TokenStream<K>,
    stats: &mut SearchStats,
    deadline: Option<Instant>,
) -> RefineOutput {
    let qlen = query.len();
    let num_sets = repo.num_sets();
    let mut scratch = Scratch::take(num_sets);
    let Scratch { slot, cands, sets } = &mut scratch;
    let mut buckets = BucketIndex::new();
    let mut llb = TopKList::new(cfg.k);
    // `llb`'s bottom once it is full: an lb at or below it cannot enter.
    // A listed candidate's lb only rises, so its new lb is strictly above
    // the bottom and is always offered.
    let mut floor = f64::NEG_INFINITY;
    let mut residual = 0.0;

    while let Some(tuple) = stream.next() {
        stats.stream_tuples += 1;
        let s = tuple.sim;
        let posting = index.postings(tuple.token);
        if let Some(f) = stats.funnel_mut() {
            f.posting_lengths.push(posting.len());
        }
        for &set in posting {
            // Tombstoned sets stay in posting lists until the owning index
            // is patched; never surface them as candidates (live corpora).
            if !repo.is_live(set) {
                stats.tombstone_skips += 1;
                continue;
            }
            let i = slot[set.idx()];
            let lb = if i != NO_CAND {
                let cand = &mut cands[i as usize].1;
                if cand.pruned {
                    continue;
                }
                let old_key = cand.bucket_key();
                let lb_improved = cand.apply(sets, tuple.q_idx, tuple.token, s);
                let new_key = cand.bucket_key();
                // A move is one push; the old entry goes stale.
                if cfg.iub_filter && new_key != old_key {
                    buckets.insert(new_key.0, new_key.1, set);
                    stats.bucket_moves += 1;
                }
                if !lb_improved {
                    continue;
                }
                cand.lb
            } else {
                stats.candidates += 1;
                slot[set.idx()] = cands.len() as u32;
                let clen = repo.set_len(set) as u32;
                let cap = (qlen as u32).min(clen);
                // UB-filter at discovery (Lemma 2 with the §IV cap):
                // the first tuple carries the set's maximum similarity.
                // Gated with the iUB filter so the Baseline config
                // (§VIII-A4) verifies every candidate unpruned.
                if cfg.iub_filter && (cap as f64) * s < slack(theta.get()) {
                    stats.ub_filter_pruned += 1;
                    cands.push((set, Cand::tombstone(cap)));
                    continue;
                }
                let mut cand = Cand::new(cap);
                cand.apply(sets, tuple.q_idx, tuple.token, s);
                if cfg.iub_filter {
                    let key = cand.bucket_key();
                    buckets.insert(key.0, key.1, set);
                }
                cands.push((set, cand));
                cand.lb
            };
            if lb > floor && llb.offer(set, Sim::new(lb)) {
                stats.theta_raises += 1;
                if let Some(b) = llb.bottom() {
                    floor = b.get();
                    theta.raise(floor);
                }
            }
        }
        // Prune sweep after every tuple (§V): `s` decays and `θlb` rises.
        if cfg.iub_filter {
            stats.iub_pruned += buckets.sweep(s, slack(theta.get()), |set, m| {
                let c = &mut cands[slot[set.idx()] as usize].1;
                let current = !c.pruned && c.bucket_key().0 == m;
                c.pruned |= current;
                current
            });
        }
        if stats.stream_tuples.is_multiple_of(1024) {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stats.timed_out = true;
                    residual = s;
                    break;
                }
            }
        }
    }
    // End-of-stream collapse: once every edge ≥ α has been emitted the
    // residual per-row potential drops to 0 and the bound is the row-max
    // sum; a cut stream keeps the last similarity as the residual. One
    // pass over the candidates applies that test to each; sweeping the
    // lazy heaps would pop every stale entry instead.
    let collapse = cfg.iub_filter.then(|| slack(theta.get()));
    let mut survivors: Vec<Survivor> = Vec::new();
    for &(set, ref c) in cands.iter().filter(|(_, c)| !c.pruned) {
        let ub = c.final_ub(residual);
        if collapse.is_some_and(|th| ub < th) {
            stats.iub_pruned += 1;
            continue;
        }
        survivors.push(Survivor { set, lb: c.lb, ub });
    }

    // Memory snapshot of the refinement structures (paper §VIII-D sums the
    // footprints of both phases' structures). The candidate states count
    // what this search used — the slot table over its repository, its
    // candidates and their sets — not what the thread's scratch retains
    // from earlier ones.
    let states_bytes = num_sets * std::mem::size_of::<u32>()
        + cands.len() * std::mem::size_of::<(SetId, Cand)>()
        + sets.len() * std::mem::size_of::<u32>();
    scratch.put_back(num_sets);
    stats.memory.add("token stream", stream.heap_bytes());
    stats.memory.add("candidate states", states_bytes);
    stats.memory.add("ub buckets", buckets.heap_size());
    stats.memory.add("top-k lb list", llb.heap_size());

    survivors.sort_by(|a, b| {
        b.ub.partial_cmp(&a.ub)
            .expect("bounds are never NaN")
            .then_with(|| a.set.cmp(&b.set))
    });
    stats.to_postprocess = survivors.len();
    RefineOutput { survivors, llb }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cand_greedy_respects_one_to_one() {
        let mut sets = SpanArena::new();
        let mut c = Cand::new(2);
        assert!(c.apply(&mut sets, 0, TokenId(10), 0.9));
        // Same query row: rejected by greedy.
        assert!(!c.apply(&mut sets, 0, TokenId(11), 0.8));
        // Same token: rejected by greedy.
        assert!(!c.apply(&mut sets, 1, TokenId(10), 0.7));
        // Fresh pair: accepted.
        assert!(c.apply(&mut sets, 1, TokenId(12), 0.6));
        assert!((c.lb - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sound_rowmax_counts_first_edge_per_row() {
        let mut sets = SpanArena::new();
        let mut c = Cand::new(2);
        c.apply(&mut sets, 0, TokenId(10), 0.9);
        c.apply(&mut sets, 0, TokenId(11), 0.8); // row 0 already seen
        c.apply(&mut sets, 1, TokenId(10), 0.7); // row 1 first edge
        assert!((c.row_sum - 1.6).abs() < 1e-12);
        assert_eq!(c.seen_q.len(), 2);
        // Row capacity exhausted: further rows ignored.
        c.apply(&mut sets, 2, TokenId(12), 0.6);
        assert!((c.row_sum - 1.6).abs() < 1e-12);
        assert_eq!(c.bucket_key(), (0, 1.6));
        assert!((c.final_ub(0.0) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn rowmax_dominates_greedy_lb() {
        // The injection argument of ARCHITECTURE.md, Deviations 1:
        // row_sum >= lb at all times.
        // |C| = 3 tokens {10, 11, 12}, |Q| = 4 rows → cap = 3.
        let tuples = [
            (0u32, 10u32, 0.9),
            (1, 10, 0.85),
            (2, 11, 0.8),
            (1, 11, 0.75),
            (3, 12, 0.7),
        ];
        let mut sets = SpanArena::new();
        let mut c = Cand::new(3);
        for (q, t, s) in tuples {
            c.apply(&mut sets, q, TokenId(t), s);
            assert!(
                c.row_sum + 1e-12 >= c.lb,
                "row_sum {} < lb {}",
                c.row_sum,
                c.lb
            );
        }
    }

    /// The iUB against the true overlap on a few thousand random bipartite
    /// graphs (|Q|, |C| ≤ 5, weights in [α, 1] or absent), fed in stream
    /// order: after every edge of similarity `s` the unseen rows can add at
    /// most `s` each, and once the stream ran dry nothing at all.
    #[test]
    fn rowmax_iub_bounds_the_exact_overlap_at_every_prefix() {
        use koios_common::fingerprint::mix64;
        use koios_matching::exhaustive::exhaustive_max_matching;
        use koios_matching::WeightMatrix;

        const ALPHA: f64 = 0.5;
        for g in 0..3000u64 {
            let h = mix64(g);
            let (rows, cols) = (1 + (h % 5) as usize, 1 + (h >> 8) as usize % 5);
            let m = WeightMatrix::from_fn(rows, cols, |i, j| {
                let r = mix64(h ^ ((i * 5 + j) as u64 + 1));
                let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
                if r.is_multiple_of(3) {
                    0.0
                } else {
                    ALPHA + (1.0 - ALPHA) * unit
                }
            });
            let exact = exhaustive_max_matching(&m);
            let mut edges: Vec<(u32, u32, f64)> = m.edges();
            edges.sort_by(|a, b| {
                b.2.total_cmp(&a.2)
                    .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
            });

            let mut sets = SpanArena::new();
            let mut c = Cand::new(rows.min(cols) as u32);
            for (q, t, s) in edges {
                c.apply(&mut sets, q, TokenId(t), s);
                assert!(
                    c.final_ub(s) + 1e-9 >= exact,
                    "graph {g}: iUB {} < SO {exact} after an edge at {s}",
                    c.final_ub(s)
                );
            }
            assert!(
                c.final_ub(0.0) + 1e-9 >= exact,
                "graph {g}: final iUB {} < SO {exact}",
                c.final_ub(0.0)
            );
        }
    }

    /// A tombstone holds no heap: a candidate's sets are spans into the
    /// search's arena, so pruning frees nothing, and the scratch goes
    /// back to the thread emptied when the search ends — every slot free
    /// again, though only the candidates' slots were reset.
    #[test]
    fn tombstone_releases_memory() {
        assert!(!std::mem::needs_drop::<Cand>(), "a candidate owns no heap");
        let mut scratch = Scratch::take(8);
        let mut c = Cand::new(4);
        for i in 0..50 {
            c.apply(&mut scratch.sets, i, TokenId(i + 100), 0.9);
        }
        assert!(!scratch.sets.is_empty());
        c.pruned = true;
        for (i, (set, cand)) in [(SetId(5), c), (SetId(2), Cand::tombstone(4))]
            .into_iter()
            .enumerate()
        {
            scratch.slot[set.idx()] = i as u32;
            scratch.cands.push((set, cand));
        }
        scratch.put_back(8);
        let retained = Scratch::take(8);
        assert!(retained.cands.is_empty() && retained.sets.is_empty());
        assert_eq!(retained.slot, vec![NO_CAND; 8]);
    }

    /// One query element similar to every token of the vocabulary: a
    /// stream long enough to cross the 1024-tuple deadline check.
    struct LongSource {
        next_token: u32,
        vocab: u32,
    }

    impl KnnSource for LongSource {
        fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
            assert_eq!(q_idx, 0);
            let t = self.next_token;
            self.next_token += 1;
            // The query token itself first (sim 1), then the rest at 0.9.
            (t < self.vocab).then_some((TokenId(t), if t == 0 { 1.0 } else { 0.9 }))
        }

        fn heap_bytes(&self) -> usize {
            0
        }
    }

    /// A repository over tokens `t0..t{vocab}` holding `sets`.
    fn repo_of(vocab: u32, sets: impl IntoIterator<Item = Vec<TokenId>>) -> Repository {
        let mut b = koios_embed::repository::RepositoryBuilder::new();
        for t in 0..vocab {
            b.intern(&format!("t{t}"));
        }
        for (i, set) in sets.into_iter().enumerate() {
            b.add_token_set(&format!("s{i}"), set);
        }
        b.build()
    }

    /// Refines `query` (k = 3, α = 0.5) over `source` on `repo`.
    fn refine_over<K: KnnSource>(
        repo: &Repository,
        query: &[TokenId],
        source: K,
        deadline: Option<Instant>,
    ) -> (RefineOutput, SearchStats) {
        let index = InvertedIndex::build(repo);
        let mut stream = TokenStream::new(source, query.len());
        let mut stats = SearchStats::default();
        let out = refine(
            repo,
            &index,
            query,
            &KoiosConfig::new(3, 0.5),
            &SharedTheta::new(),
            &mut stream,
            &mut stats,
            deadline,
        );
        (out, stats)
    }

    fn refine_long_stream(deadline: Option<Instant>) -> (RefineOutput, SearchStats) {
        const VOCAB: u32 = 1500;
        let sets = (0..15).map(|set| (set * 100..(set + 1) * 100).map(TokenId).collect());
        let source = LongSource {
            next_token: 0,
            vocab: VOCAB,
        };
        refine_over(&repo_of(VOCAB, sets), &[TokenId(0)], source, deadline)
    }

    /// A stream that runs dry hands refinement every edge, and each
    /// survivor's bound collapses onto the one edge its single row holds.
    /// The α-graph verification reads is the engine's, built from the
    /// fetched lists, not refinement's.
    #[test]
    fn drained_stream_returns_every_edge() {
        let (out, stats) = refine_long_stream(None);
        assert!(!stats.timed_out);
        assert_eq!(stats.stream_tuples, 1500);
        assert!(!out.survivors.is_empty());
        assert!(out.survivors.iter().all(|s| s.lb == s.ub));
        assert!(stats.memory.iter().all(|(n, _)| n != "query edges"));
    }

    /// Each query row replays its own descending list of edges.
    struct ScriptedSource {
        rows: Vec<std::vec::IntoIter<(TokenId, f64)>>,
    }

    impl KnnSource for ScriptedSource {
        fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
            self.rows[q_idx].next()
        }

        fn heap_bytes(&self) -> usize {
            0
        }
    }

    /// A deadline that cuts the stream while rows are still unseen must not
    /// count them as 0: each can still hold an edge of the last similarity
    /// emitted. Row 0 emits `t0` at 1.0 and then 1,197 edges at 0.95 into
    /// no set; rows 1 and 2 match `t1` and `t2` at 0.9. The cut lands inside
    /// row 0's run, before S = {t0, t1, t2} has seen rows 1 and 2, whose
    /// edges lift SO(S) to 1.0 + 0.9 + 0.9.
    #[test]
    fn deadline_cut_stream_keeps_a_sound_upper_bound() {
        const VOCAB: u32 = 1200;
        let repo = repo_of(VOCAB, [vec![TokenId(0), TokenId(1), TokenId(2)]]);
        let row0 = std::iter::once((TokenId(0), 1.0))
            .chain((3..VOCAB).map(|t| (TokenId(t), 0.95)))
            .collect::<Vec<_>>();
        let source = ScriptedSource {
            rows: vec![
                row0.into_iter(),
                vec![(TokenId(1), 0.9)].into_iter(),
                vec![(TokenId(2), 0.9)].into_iter(),
            ],
        };
        let query = [TokenId(0), TokenId(1), TokenId(2)];
        let (out, stats) = refine_over(&repo, &query, source, Some(Instant::now()));
        assert!(stats.timed_out);
        assert_eq!(stats.stream_tuples, 1024, "cut inside row 0's run");
        let so = 1.0 + 0.9 + 0.9;
        let [s] = out.survivors[..] else {
            panic!("expected S alone, got {:?}", out.survivors);
        };
        assert!(s.lb <= so + 1e-9, "{s:?}");
        assert!(
            s.ub + 1e-9 >= so,
            "{s:?} has an upper bound below SO(S) = {so}"
        );
    }

    /// A caller's source that panics once it has answered `left` probes.
    struct FailingSource {
        inner: koios_index::knn::ExactScanKnn,
        left: usize,
    }

    impl KnnSource for FailingSource {
        fn next(&mut self, q_idx: usize) -> Option<(TokenId, f64)> {
            assert!(self.left > 0, "source failed mid-stream");
            self.left -= 1;
            self.inner.next(q_idx)
        }

        fn heap_bytes(&self) -> usize {
            0
        }
    }

    /// What this thread's scratch retains: (candidates, arena words).
    fn retained() -> (usize, usize) {
        let s = SCRATCH.take();
        let r = (s.cands.capacity(), s.sets.capacity());
        SCRATCH.set(s);
        r
    }

    /// The length of this thread's retained slot table.
    fn retained_slots() -> usize {
        let s = SCRATCH.take();
        let r = s.slot.len();
        SCRATCH.set(s);
        r
    }

    /// Reusing one thread's scratch — after a search that panicked, and
    /// from a large search to small ones — changes no hit and no memory
    /// figure, and a small search shrinks what a large one left behind.
    /// The `"candidate states"` figure includes the slot table, 4 B per
    /// set of the repository: what this search used, not what the thread
    /// retains.
    #[test]
    fn scratch_reuse_is_invisible() {
        use crate::engine::Koios;
        use crate::result::SearchResult;
        use koios_embed::sim::{ElementSimilarity, EqualitySimilarity};
        use std::sync::Arc;

        // 2,000 sets, each holding three of 40 shared tokens and one of
        // its own: the 40-token query admits every set.
        let mut b = koios_embed::repository::RepositoryBuilder::new();
        for i in 0..2000 {
            let shared = [i % 40, (i * 7 + 3) % 40, (i * 13 + 5) % 40];
            let tokens = shared.map(|c| format!("c{c}"));
            b.add_set(&format!("s{i}"), tokens.iter().chain([&format!("u{i}")]));
        }
        let repo = Arc::new(b.build());
        let sim: Arc<dyn ElementSimilarity> = Arc::new(EqualitySimilarity);
        let engine = || Koios::new(Arc::clone(&repo), sim.clone(), KoiosConfig::new(10, 0.8));
        let query = |tokens: Vec<String>| {
            let mut q = repo.intern_query(tokens);
            q.sort_unstable();
            q.dedup();
            q
        };
        let large = query((0..40).map(|c| format!("c{c}")).collect());
        let smalls = [
            query(vec!["c0".into(), "u5".into(), "u17".into()]),
            query(vec!["c9".into(), "u900".into()]),
            query(vec!["c0".into(), "u5".into(), "u17".into()]),
        ];
        let candidate_states = |r: &SearchResult| {
            r.stats
                .memory
                .iter()
                .find(|(n, _)| *n == "candidate states")
                .map(|(_, b)| b)
        };
        // A fresh engine on a fresh thread has a fresh scratch.
        let fresh = |q: &[TokenId]| {
            std::thread::scope(|s| s.spawn(|| engine().search(q)).join()).expect("reference search")
        };
        let same = |got: &SearchResult, q: &[TokenId]| {
            let want = fresh(q);
            assert_eq!(format!("{:?}", got.hits), format!("{:?}", want.hits));
            assert_eq!(candidate_states(got), candidate_states(&want));
            assert_eq!(got.stats.candidates, want.stats.candidates);
        };

        let e = engine();
        let source =
            koios_index::knn::ExactScanKnn::new(sim.clone(), large.clone(), repo.vocab_size(), 0.8);
        let failing = FailingSource {
            inner: source,
            left: large.len() + 10,
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.search_with_source(large.clone(), failing, &SharedTheta::new())
        }));
        assert!(panicked.is_err());
        assert_eq!(retained(), (0, 0), "a panic leaves an empty scratch");

        let r = e.search(&large);
        assert_eq!(r.stats.candidates, 2000);
        same(&r, &large);
        let after_large = retained();
        for q in &smalls {
            let r = e.search(q);
            assert!(r.stats.candidates < 2000 / RETAIN_FACTOR);
            same(&r, q);
            let now = retained();
            assert!(
                now.0 < after_large.0 && now.1 < after_large.1,
                "{now:?} retained after {after_large:?}"
            );
        }
    }

    /// One thread's slot table follows the repository it searches: it
    /// grows for sets a live insert puts past its end, which then become
    /// hits, and shrinks when a much smaller repository follows. Every
    /// search answers what a fresh thread answers.
    #[test]
    fn slot_table_follows_the_repository() {
        use crate::backend::EngineBackend;
        use crate::mutable::{MutableEngine, SimFactory};
        use koios_embed::ops::CorpusOp;
        use koios_embed::sim::{ElementSimilarity, EqualitySimilarity};
        use std::sync::Arc;

        let equality: SimFactory =
            Arc::new(|_, _| Ok(Arc::new(EqualitySimilarity) as Arc<dyn ElementSimilarity>));
        let live = |sets: usize| {
            let mut b = koios_embed::repository::RepositoryBuilder::new();
            for i in 0..sets {
                b.add_set(&format!("s{i}"), [format!("t{}", i % 20), format!("u{i}")]);
            }
            let cfg = KoiosConfig::new(3, 0.8);
            MutableEngine::single(Arc::new(b.build()), None, cfg, equality.clone())
                .expect("equality needs no embeddings")
        };
        let search = |engine: &EngineBackend, tokens: &[&str]| {
            let q = engine.repository().intern_query(tokens.iter().copied());
            let fresh = std::thread::scope(|s| s.spawn(|| engine.search(&q)).join())
                .expect("reference search");
            let here = engine.search(&q);
            assert_eq!(format!("{:?}", here.hits), format!("{:?}", fresh.hits));
            here
        };

        let mut grown = live(400);
        search(&grown.backend(), &["t0", "t1", "new", "newer"]);
        assert_eq!(retained_slots(), 400);
        let inserts = ["n0", "n1", "n2"].map(|n| CorpusOp::insert(n, ["new", "newer", "t0"]));
        grown.apply(&inserts).expect("inserts apply");
        let r = search(&grown.backend(), &["t0", "t1", "new", "newer"]);
        let ids: Vec<u32> = r.hits.iter().map(|h| h.set.0).collect();
        assert_eq!(ids, [400, 401, 402], "the inserted sets are the hits");
        assert_eq!(retained_slots(), 403);

        let small = live(10);
        const { assert!(403 > RETAIN_FACTOR * 10) };
        search(&small.backend(), &["t0", "u3"]);
        assert_eq!(
            retained_slots(),
            10,
            "the table shrinks to the small repository"
        );
    }
}
