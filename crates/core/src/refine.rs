//! The refinement phase (paper §IV–§V, Algorithm 1).
//!
//! Tuples from the token stream discover candidates through the inverted
//! index and update two per-candidate quantities:
//!
//! * **iLB** (Lemma 5): the score of the partial greedy matching assembled
//!   from the descending edge stream — seeded with the vanilla overlap
//!   because identical tokens arrive first at similarity 1.
//! * **iUB**: `S_i + m_i·s` with `s` the current stream similarity. In
//!   [`UbMode::SoundRowMax`] (default) `S_i` sums the first emitted edge per
//!   query element (sound; DESIGN §2); in [`UbMode::PaperGreedy`] it is the
//!   greedy score, exactly as Lemma 6 states it.
//!
//! Candidates are pruned when their upper bound falls strictly below `θlb`,
//! the k-th best lower bound seen so far (Lemma 4) — at discovery via the
//! UB-filter (Lemma 2) and continuously via the bucket sweep (§V).

use crate::buckets::BucketIndex;
use crate::config::{KoiosConfig, UbMode};
use crate::overlap::QueryEdges;
use crate::stats::SearchStats;
use crate::theta::{slack, SharedTheta};
use koios_common::sparse::{Span, SpanArena};
use koios_common::topk::TopKList;
use koios_common::{HeapSize, SetId, Sim, TokenId};
use koios_embed::repository::Repository;
use koios_index::inverted::InvertedIndex;
use koios_index::knn::KnnSource;
use koios_index::token_stream::TokenStream;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// The candidate map's hasher: one multiply per set id instead of SipHash.
/// Set ids are dense indices the corpus assigned, not client-chosen keys,
/// so there is no flooding to defend against. The rotation brings the
/// product's well-mixed high bits down to the low bits that pick a slot.
#[derive(Default)]
struct SetIdHasher(u64);

impl Hasher for SetIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type CandMap = HashMap<SetId, Cand, BuildHasherDefault<SetIdHasher>>;

/// A candidate that survived refinement, with its final certified bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Survivor {
    /// The candidate set.
    pub set: SetId,
    /// Final lower bound (greedy matching score over the full stream).
    pub lb: f64,
    /// Final upper bound (mode-dependent end-of-stream collapse).
    pub ub: f64,
}

/// Output of the refinement phase.
pub struct RefineOutput {
    /// Unpruned candidates, descending by upper bound (ties by set id).
    pub survivors: Vec<Survivor>,
    /// The running top-k lower-bound list (continues into post-processing).
    pub llb: TopKList,
    /// Every edge the stream emitted, when `collect_edges` asked for them
    /// and the stream ran dry; `None` when the deadline cut it short — a
    /// partial graph must never be verified from.
    pub edges: Option<QueryEdges>,
}

/// Per-candidate bound state. Its three sets live in the search's
/// [`SpanArena`], so a candidate owns no heap: admitting one allocates
/// nothing and pruning one frees nothing.
#[derive(Clone, Copy)]
struct Cand {
    /// `min(|Q|, |C|)` — the maximum matching cardinality.
    cap: u32,
    /// Greedy partial matching score (iLB).
    lb: f64,
    /// Query element indices matched by the greedy matching.
    matched_q: Span,
    /// Candidate tokens matched by the greedy matching.
    matched_t: Span,
    /// Row-max sum (sound iUB base); unused in paper mode.
    row_sum: f64,
    /// Query rows counted into `row_sum`, at most `cap` (sound mode only).
    seen_q: Span,
    /// Tombstone flag: pruned candidates are remembered so posting hits
    /// cannot resurrect them (Algorithm 1 line 6).
    pruned: bool,
}

impl Cand {
    fn new(cap: u32) -> Self {
        Cand {
            cap,
            lb: 0.0,
            matched_q: Span::default(),
            matched_t: Span::default(),
            row_sum: 0.0,
            seen_q: Span::default(),
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
    fn apply(
        &mut self,
        sets: &mut SpanArena,
        q_idx: u32,
        token: TokenId,
        s: f64,
        mode: UbMode,
    ) -> bool {
        debug_assert!(!self.pruned);
        // Sound iUB: first emitted edge per query row, capped at `cap` rows
        // (the stream is descending, so the first `cap` rows carry the
        // largest row maxima).
        if mode == UbMode::SoundRowMax
            && (self.seen_q.len() as u32) < self.cap
            && sets.insert(&mut self.seen_q, q_idx)
        {
            self.row_sum += s;
        }
        // iLB: greedy matching accepts the edge iff both endpoints are free
        // (Lemma 5 — any prefix of greedy choices is a valid matching).
        if !sets.contains(self.matched_q, q_idx) && !sets.contains(self.matched_t, token.0) {
            sets.insert(&mut self.matched_q, q_idx);
            sets.insert(&mut self.matched_t, token.0);
            self.lb += s;
            true
        } else {
            false
        }
    }

    /// The `(m, S_i)` bucket key for the configured UB mode.
    fn bucket_key(&self, mode: UbMode) -> (u32, f64) {
        match mode {
            UbMode::SoundRowMax => (self.cap - self.seen_q.len() as u32, self.row_sum),
            UbMode::PaperGreedy => (self.cap - self.matched_q.len() as u32, self.lb),
        }
    }

    /// The end-of-stream upper bound: all unseen edges are below `α`, so
    /// unseen rows contribute 0 in the sound mode; the paper-mode bound
    /// keeps the Lemma-6 form with `s = α`.
    fn final_ub(&self, mode: UbMode, alpha: f64) -> f64 {
        match mode {
            UbMode::SoundRowMax => self.row_sum,
            UbMode::PaperGreedy => {
                self.lb + (self.cap - self.matched_q.len() as u32) as f64 * alpha
            }
        }
    }
}

/// What refinement keeps between the searches of one thread: the
/// candidate map and the arena of the candidates' sets, both empty
/// between searches.
#[derive(Default)]
struct Scratch {
    states: CandMap,
    sets: SpanArena,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A retained scratch larger than this many times what the last search
/// used is shrunk to that use.
const RETAIN_FACTOR: usize = 4;

impl Scratch {
    /// This thread's scratch. It is taken, not borrowed: a search that
    /// panics drops it, and a nested search gets a fresh one.
    fn take() -> Self {
        SCRATCH.take()
    }

    /// Empties the scratch and gives it back to the thread, shrinking
    /// each part that is more than [`RETAIN_FACTOR`]× this search's use.
    fn put_back(mut self) {
        let (cands, words) = (self.states.len(), self.sets.len());
        self.states.clear();
        if self.states.capacity() > RETAIN_FACTOR * cands {
            self.states.shrink_to(cands);
        }
        self.sets.clear();
        if self.sets.capacity() > RETAIN_FACTOR * words {
            self.sets.shrink_to(words);
        }
        SCRATCH.set(self);
    }
}

/// Runs the refinement phase over `stream`. With `collect_edges` the
/// drained tuples are kept as the query's [`QueryEdges`] — sound only for
/// an exact source, which is the caller's call to make.
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
    collect_edges: bool,
) -> RefineOutput {
    let qlen = query.len();
    let mode = cfg.ub_mode;
    let mut scratch = Scratch::take();
    let Scratch { states, sets } = &mut scratch;
    let mut buckets = BucketIndex::new();
    let mut llb = TopKList::new(cfg.k);
    let mut last_sim = 1.0f64;
    let mut tuples: Option<Vec<(TokenId, u32, f64)>> = collect_edges.then(Vec::new);

    while let Some(tuple) = stream.next() {
        stats.stream_tuples += 1;
        let s = tuple.sim;
        last_sim = s;
        if let Some(ts) = tuples.as_mut() {
            ts.push((tuple.token, tuple.q_idx, s));
        }
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
            match states.entry(set) {
                Entry::Occupied(mut e) => {
                    let cand = e.get_mut();
                    if cand.pruned {
                        continue;
                    }
                    let old_key = cand.bucket_key(mode);
                    let lb_improved = cand.apply(sets, tuple.q_idx, tuple.token, s, mode);
                    let new_key = cand.bucket_key(mode);
                    // A move is one push; the old entry goes stale.
                    if cfg.iub_filter && new_key != old_key {
                        buckets.insert(new_key.0, new_key.1, set);
                        stats.bucket_moves += 1;
                    }
                    if lb_improved {
                        let lb = cand.lb;
                        if llb.offer(set, Sim::new(lb)) {
                            stats.theta_raises += 1;
                            if let Some(b) = llb.bottom() {
                                theta.raise(b.get());
                            }
                        }
                    }
                }
                Entry::Vacant(v) => {
                    stats.candidates += 1;
                    let clen = repo.set_len(set) as u32;
                    let cap = (qlen as u32).min(clen);
                    // UB-filter at discovery (Lemma 2 with the §IV cap):
                    // the first tuple carries the set's maximum similarity.
                    // Gated with the iUB filter so the Baseline config
                    // (§VIII-A4) verifies every candidate unpruned.
                    if cfg.iub_filter && (cap as f64) * s < slack(theta.get()) {
                        stats.ub_filter_pruned += 1;
                        v.insert(Cand::tombstone(cap));
                        continue;
                    }
                    let mut cand = Cand::new(cap);
                    cand.apply(sets, tuple.q_idx, tuple.token, s, mode);
                    let key = cand.bucket_key(mode);
                    let lb = cand.lb;
                    v.insert(cand);
                    if cfg.iub_filter {
                        buckets.insert(key.0, key.1, set);
                    }
                    if llb.offer(set, Sim::new(lb)) {
                        stats.theta_raises += 1;
                        if let Some(b) = llb.bottom() {
                            theta.raise(b.get());
                        }
                    }
                }
            }
        }
        // Prune sweep after every tuple (§V): `s` decays and `θlb` rises.
        if cfg.iub_filter {
            stats.iub_pruned +=
                buckets.sweep(s, slack(theta.get()), |set, m| match states.get_mut(&set) {
                    Some(c) if !c.pruned && c.bucket_key(mode).0 == m => {
                        c.pruned = true;
                        true
                    }
                    _ => false,
                });
        }
        if stats.stream_tuples.is_multiple_of(1024) {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stats.timed_out = true;
                    tuples = None;
                    break;
                }
            }
        }
    }
    let edges = tuples.map(|ts| QueryEdges::from_tuples(qlen, ts));

    // End-of-stream collapse: every edge ≥ α has been emitted, so the
    // residual per-row potential drops to 0 (sound) / α (paper form). One
    // pass over the states applies the sweep's own test to each current
    // key; sweeping the lazy heaps would pop every stale entry instead.
    let collapse = cfg.iub_filter.then(|| {
        let s_final = match mode {
            UbMode::SoundRowMax => 0.0,
            UbMode::PaperGreedy => cfg.alpha.min(last_sim),
        };
        (s_final, slack(theta.get()))
    });
    let mut survivors: Vec<Survivor> = Vec::new();
    for (&set, c) in states.iter().filter(|(_, c)| !c.pruned) {
        if let Some((s_final, th)) = collapse {
            let (m, base) = c.bucket_key(mode);
            if base < th - m as f64 * s_final {
                stats.iub_pruned += 1;
                continue;
            }
        }
        survivors.push(Survivor {
            set,
            lb: c.lb,
            ub: c.final_ub(mode, cfg.alpha),
        });
    }

    // Memory snapshot of the refinement structures (paper §VIII-D sums the
    // footprints of both phases' structures). The candidate states count
    // what this search used, not what the thread's scratch retains from
    // earlier ones.
    let states_bytes = states.len() * (std::mem::size_of::<(SetId, Cand)>() + 1)
        + sets.len() * std::mem::size_of::<u32>();
    scratch.put_back();
    stats.memory.add("token stream", stream.heap_bytes());
    stats.memory.add("candidate states", states_bytes);
    stats.memory.add("ub buckets", buckets.heap_size());
    stats.memory.add("top-k lb list", llb.heap_size());
    if let Some(e) = &edges {
        stats.memory.add("query edges", e.heap_size());
    }

    survivors.sort_by(|a, b| {
        b.ub.partial_cmp(&a.ub)
            .expect("bounds are never NaN")
            .then_with(|| a.set.cmp(&b.set))
    });
    stats.to_postprocess = survivors.len();
    RefineOutput {
        survivors,
        llb,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cand_greedy_respects_one_to_one() {
        let mut sets = SpanArena::new();
        let mut c = Cand::new(2);
        assert!(c.apply(&mut sets, 0, TokenId(10), 0.9, UbMode::SoundRowMax));
        // Same query row: rejected by greedy.
        assert!(!c.apply(&mut sets, 0, TokenId(11), 0.8, UbMode::SoundRowMax));
        // Same token: rejected by greedy.
        assert!(!c.apply(&mut sets, 1, TokenId(10), 0.7, UbMode::SoundRowMax));
        // Fresh pair: accepted.
        assert!(c.apply(&mut sets, 1, TokenId(12), 0.6, UbMode::SoundRowMax));
        assert!((c.lb - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sound_rowmax_counts_first_edge_per_row() {
        let mut sets = SpanArena::new();
        let mut c = Cand::new(2);
        c.apply(&mut sets, 0, TokenId(10), 0.9, UbMode::SoundRowMax);
        c.apply(&mut sets, 0, TokenId(11), 0.8, UbMode::SoundRowMax); // row 0 already seen
        c.apply(&mut sets, 1, TokenId(10), 0.7, UbMode::SoundRowMax); // row 1 first edge
        assert!((c.row_sum - 1.6).abs() < 1e-12);
        assert_eq!(c.seen_q.len(), 2);
        // Row capacity exhausted: further rows ignored.
        c.apply(&mut sets, 2, TokenId(12), 0.6, UbMode::SoundRowMax);
        assert!((c.row_sum - 1.6).abs() < 1e-12);
        assert_eq!(c.bucket_key(UbMode::SoundRowMax), (0, 1.6));
        assert!((c.final_ub(UbMode::SoundRowMax, 0.5) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn rowmax_dominates_greedy_lb() {
        // DESIGN §2 injection argument: row_sum >= lb at all times.
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
            c.apply(&mut sets, q, TokenId(t), s, UbMode::SoundRowMax);
            assert!(
                c.row_sum + 1e-12 >= c.lb,
                "row_sum {} < lb {}",
                c.row_sum,
                c.lb
            );
        }
    }

    #[test]
    fn paper_mode_keys_track_greedy() {
        let mut sets = SpanArena::new();
        let mut c = Cand::new(3);
        c.apply(&mut sets, 0, TokenId(10), 0.9, UbMode::PaperGreedy);
        assert_eq!(c.bucket_key(UbMode::PaperGreedy), (2, 0.9));
        // Rejected edge leaves the key unchanged.
        c.apply(&mut sets, 0, TokenId(11), 0.8, UbMode::PaperGreedy);
        assert_eq!(c.bucket_key(UbMode::PaperGreedy), (2, 0.9));
        let ub = c.final_ub(UbMode::PaperGreedy, 0.8);
        assert!((ub - (0.9 + 2.0 * 0.8)).abs() < 1e-12);
    }

    /// A tombstone holds no heap: a candidate's sets are spans into the
    /// search's arena, so pruning frees nothing, and the scratch goes
    /// back to the thread emptied when the search ends.
    #[test]
    fn tombstone_releases_memory() {
        assert!(!std::mem::needs_drop::<Cand>(), "a candidate owns no heap");
        let mut sets = SpanArena::new();
        let mut c = Cand::new(4);
        for i in 0..50 {
            c.apply(&mut sets, i, TokenId(i + 100), 0.9, UbMode::SoundRowMax);
        }
        assert!(!sets.is_empty());
        c.pruned = true;
        let states = CandMap::from_iter([(SetId(0), c), (SetId(1), Cand::tombstone(4))]);
        Scratch { states, sets }.put_back();
        let retained = Scratch::take();
        assert!(retained.states.is_empty() && retained.sets.is_empty());
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

    fn refine_long_stream(
        deadline: Option<Instant>,
        collect_edges: bool,
    ) -> (RefineOutput, SearchStats) {
        const VOCAB: u32 = 1500;
        let mut b = koios_embed::repository::RepositoryBuilder::new();
        for t in 0..VOCAB {
            b.intern(&format!("t{t}"));
        }
        for set in 0..15 {
            b.add_token_set(
                &format!("s{set}"),
                (set * 100..(set + 1) * 100).map(TokenId).collect(),
            );
        }
        let repo = b.build();
        let index = InvertedIndex::build(&repo);
        let source = LongSource {
            next_token: 0,
            vocab: VOCAB,
        };
        let mut stream = TokenStream::new(source, 1);
        let mut stats = SearchStats::default();
        let out = refine(
            &repo,
            &index,
            &[TokenId(0)],
            &KoiosConfig::new(3, 0.5),
            &SharedTheta::new(),
            &mut stream,
            &mut stats,
            deadline,
            collect_edges,
        );
        (out, stats)
    }

    #[test]
    fn drained_stream_returns_every_edge() {
        let (out, stats) = refine_long_stream(None, true);
        assert!(!stats.timed_out);
        assert_eq!(stats.stream_tuples, 1500);
        assert_eq!(out.edges.expect("stream ran dry").len(), 1500);
        assert!(stats
            .memory
            .iter()
            .any(|(n, b)| n == "query edges" && b > 0));
        // Not asked, not collected.
        let (out, stats) = refine_long_stream(None, false);
        assert!(out.edges.is_none());
        assert!(stats.memory.iter().all(|(n, _)| n != "query edges"));
    }

    #[test]
    fn deadline_cut_stream_returns_no_edges() {
        let (out, stats) = refine_long_stream(Some(Instant::now()), true);
        assert!(stats.timed_out);
        assert_eq!(stats.stream_tuples, 1024, "stopped at the first check");
        assert!(out.edges.is_none(), "1024 of 1500 edges is not the graph");
        assert!(stats.memory.iter().all(|(n, _)| n != "query edges"));
        // Bounds stay certified: every set seen so far is a survivor with
        // the one edge it can have.
        assert!(!out.survivors.is_empty());
        assert!(out.survivors.iter().all(|s| s.lb <= s.ub && s.ub <= 1.0));
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

        fn prefetch(&mut self, q_idxs: &[usize]) {
            self.inner.prefetch(q_idxs);
        }

        fn heap_bytes(&self) -> usize {
            0
        }
    }

    /// What this thread's scratch retains: (candidate slots, arena words).
    fn retained() -> (usize, usize) {
        let s = Scratch::take();
        let r = (s.states.capacity(), s.sets.capacity());
        SCRATCH.set(s);
        r
    }

    /// Reusing one thread's scratch — after a search that panicked, and
    /// from a large search to small ones — changes no hit and no memory
    /// figure, and a small search shrinks what a large one left behind.
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
}
