//! Dense embedding storage.
//!
//! [`Embeddings`] stores one optional unit vector per vocabulary token,
//! aligned with [`TokenId`]s. Vectors are L2-normalised on insertion so
//! cosine similarity reduces to a dot product — the layout a Faiss-style
//! inner-product index would use.

use koios_common::{HeapSize, TokenId};

/// A vocabulary-aligned table of optional unit vectors.
#[derive(Debug, Clone)]
pub struct Embeddings {
    dim: usize,
    data: Vec<f32>,
    present: Vec<bool>,
    /// An upper bound on the norm of every present row, `+∞` once a row
    /// with a non-finite value is stored: the `M` of [`Self::dot_scan`]'s
    /// filter margin. It only ever rises, so overwriting a row leaves it a
    /// bound.
    max_norm: f64,
}

impl Embeddings {
    /// Creates an empty table for `vocab` tokens of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, vocab: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Embeddings {
            dim,
            data: vec![0.0; dim * vocab],
            present: vec![false; vocab],
            max_norm: 0.0,
        }
    }

    /// Rebuilds a table from raw storage — the snapshot restore path of
    /// `koios-store`. Unlike [`Self::set`], vectors are **not**
    /// re-normalised: the stored `f32` bit patterns are adopted verbatim,
    /// so a reloaded table is bit-identical to the one that was saved (and
    /// therefore every cosine, bound and hit score is too).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len() != dim * present.len()` (the
    /// snapshot decoder validates both before calling).
    pub fn from_raw(dim: usize, data: Vec<f32>, present: Vec<bool>) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert_eq!(
            data.len(),
            dim * present.len(),
            "raw data must be dim * vocab values"
        );
        let max_norm = data
            .chunks_exact(dim)
            .zip(&present)
            .filter(|&(_, &p)| p)
            .fold(0.0f64, |m, (row, _)| m.max(l2_norm(row)));
        Embeddings {
            dim,
            data,
            present,
            max_norm,
        }
    }

    /// The raw vector storage, row-major by token id (absent tokens hold
    /// zeroes). Paired with [`Self::present_mask`] this is the inverse of
    /// [`Self::from_raw`] — the snapshot writer reads it verbatim.
    pub fn raw_data(&self) -> &[f32] {
        &self.data
    }

    /// Which tokens have a vector, aligned with token ids.
    pub fn present_mask(&self) -> &[bool] {
        &self.present
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vocabulary slots (present or not).
    pub fn vocab(&self) -> usize {
        self.present.len()
    }

    /// Fraction of tokens with a vector (the paper filters datasets to ≥70%
    /// pre-trained-vector coverage).
    pub fn coverage(&self) -> f64 {
        if self.present.is_empty() {
            return 0.0;
        }
        self.present.iter().filter(|&&p| p).count() as f64 / self.present.len() as f64
    }

    /// Stores a vector for `t`, normalising it to unit length. A zero (or
    /// non-finite) vector marks the token as out-of-vocabulary instead.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `dim` or `t` is out of range.
    pub fn set(&mut self, t: TokenId, v: &[f64]) {
        assert_eq!(v.len(), self.dim, "vector has wrong dimensionality");
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let slot = &mut self.data[t.idx() * self.dim..(t.idx() + 1) * self.dim];
        if norm > 0.0 && norm.is_finite() {
            for (o, x) in slot.iter_mut().zip(v) {
                *o = (x / norm) as f32;
            }
            self.max_norm = self.max_norm.max(l2_norm(slot));
            self.present[t.idx()] = true;
        } else {
            slot.fill(0.0);
            self.present[t.idx()] = false;
        }
    }

    /// The unit vector of `t`, or `None` for out-of-vocabulary tokens.
    pub fn get(&self, t: TokenId) -> Option<&[f32]> {
        if *self.present.get(t.idx())? {
            Some(self.row(t.idx()))
        } else {
            None
        }
    }

    /// Row `t` of the storage, present or not.
    fn row(&self, t: usize) -> &[f32] {
        &self.data[t * self.dim..][..self.dim]
    }

    /// Whether `t` has a vector.
    pub fn has(&self, t: TokenId) -> bool {
        self.present.get(t.idx()).copied().unwrap_or(false)
    }

    /// Cosine similarity of two tokens (`None` if either is OOV).
    /// Vectors are unit length, so this is a dot product.
    pub fn cosine(&self, a: TokenId, b: TokenId) -> Option<f64> {
        let va = self.get(a)?;
        let vb = self.get(b)?;
        Some(dot(va, vb))
    }

    /// Grows the table to cover `vocab` tokens; new slots are absent
    /// (zero rows, `present = false`). Shrinking is not supported — the
    /// vocabulary is append-only — so a smaller `vocab` is a no-op. This is
    /// the live-ingest companion of [`Self::from_raw`]: appending rows
    /// never disturbs existing bit patterns, and absent rows leave the norm
    /// bound of the vocabulary scan as it was.
    pub fn grow(&mut self, vocab: usize) {
        if vocab <= self.present.len() {
            return;
        }
        self.data.resize(vocab * self.dim, 0.0);
        self.present.resize(vocab, false);
    }

    /// Stores a raw `f32` row for `t` **without normalising** — the
    /// live-ingest path, mirroring [`Self::from_raw`]'s bit-exactness so a
    /// mutated table equals the table a cold rebuild over the same rows
    /// produces. An all-zero row marks the token out-of-vocabulary, exactly
    /// as the snapshot codec treats absent rows.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from `dim` or `t` is out of range.
    pub fn set_raw_row(&mut self, t: TokenId, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "vector has wrong dimensionality");
        let slot = &mut self.data[t.idx() * self.dim..(t.idx() + 1) * self.dim];
        slot.copy_from_slice(row);
        self.present[t.idx()] = row.iter().any(|&x| x != 0.0);
        if self.present[t.idx()] {
            self.max_norm = self.max_norm.max(l2_norm(row));
        }
    }

    /// The vocabulary scan: calls `visit(lane, t, dot(queries[lane], row t))`
    /// for every query vector and every **present** row `t < rows` (rows
    /// past the table are absent) whose dot product is `≥ floor`. Each lane
    /// sees its rows in ascending token order, and every value is
    /// bit-identical to [`dot`].
    ///
    /// Two stages. The *filter* scores every (lane, row) pair in `f32` and
    /// keeps the pair when its score `s̃` is at least `floor − ε(q)`; the
    /// *rescore* recomputes every kept pair with [`dot`] and calls `visit`
    /// only when that is still `≥ floor`. The filter may round in any way
    /// within `ε`: no value it computes is ever visited.
    ///
    /// **The margin.** With `u = 2⁻²⁴` and `γₙ = n·u / (1 − n·u)`, a lane
    /// `q` of dimension `d` keeps a pair at
    ///
    /// `ε(q) = 2·γ_{d+1}·‖q‖·M + (d + 1)·2⁻¹⁴⁹`,
    ///
    /// where `M` bounds the norm of every present row (`Embeddings` raises
    /// it in `set`, `set_raw_row` and `from_raw`; `grow` adds only absent
    /// rows). For a row `r`, let `s` be the real dot product and
    /// `S = Σ|qᵢ·rᵢ| ≤ ‖q‖·‖r‖ ≤ ‖q‖·M` (Cauchy–Schwarz).
    /// * An `f32` evaluation of `s` in any summation order, each product
    ///   rounded or fused into an FMA, rounds every term at most `d` times,
    ///   so `|s̃ − s| ≤ γ_d·S` (Higham, *Accuracy and Stability of Numerical
    ///   Algorithms*, §3.1). A product or FMA that lands below the normal
    ///   range errs by at most `2⁻¹⁵⁰` more, and sums there are exact, so
    ///   underflow adds at most `d·2⁻¹⁵⁰·(1 + γ_d) ≤ (d + 1)·2⁻¹⁴⁹`.
    /// * [`dot`] forms every product exactly in `f64` and rounds only its
    ///   additions: `|dot − s| ≤ γ'_d·S`, where `γ'` uses `u' = 2⁻⁵³`.
    ///
    /// So a pair with `dot ≥ floor` has
    /// `s̃ ≥ floor − (γ_d + γ'_d)·S − (d + 1)·2⁻¹⁴⁹ ≥ floor − ε(q)`, and the
    /// filter keeps every pair the rescore visits. `‖q‖` and `M` are
    /// computed in `f64`, within a relative `γ'_{d+1}` of the real norms;
    /// the factor 2 leaves a slack of `γ_{d+1}·‖q‖·M`, far more than that
    /// and than the `f64` rounding of `floor − ε` (a floor outside
    /// `±2·‖q‖·M` keeps every pair or none either way). The threshold is
    /// then rounded *down* to `f32`, so the `f32` comparison loses nothing.
    ///
    /// **The fallback.** The bound needs every `f32` partial sum finite,
    /// and each is at most `(1 + γ_d)·S + (d + 1)·2⁻¹⁴⁹`. A lane
    /// whose `‖q‖·M` is not finite (a table with a non-finite row has
    /// `M = +∞`) or exceeds `f32::MAX / 4`, a lane whose `(d + 1)·u ≥ 1`,
    /// and every lane at `floor = −∞` (nothing to filter) skip the filter
    /// and run [`dot`] on every present row. No row, however hostile, can
    /// drop a pair.
    ///
    /// **The layout.** [`QueryTiles`] transposes the filtered lanes into
    /// tiles of [`TILE_LANES`] slots, so one register holds a dimension of
    /// every slot; the filter scores [`TILE_ROWS`] rows against a tile at a
    /// time in registers, and the table is walked in blocks of
    /// [`BLOCK_ROWS`] rows, every tile passing over a block while it is in
    /// cache. A scan with fewer lanes than a tile pads it: one pass over
    /// the table is bound by streaming the rows in, not by the arithmetic.
    /// On an x86-64 host with AVX2 and FMA the filter is [`filter_avx2`],
    /// fusing its products; every other host runs [`filter`]. The rescore
    /// is [`dot`] everywhere, so every host visits the same bits.
    ///
    /// # Panics
    ///
    /// Panics if a query vector's length differs from `dim`.
    pub(crate) fn dot_scan(
        &self,
        queries: &[&[f32]],
        rows: usize,
        floor: f64,
        mut visit: impl FnMut(usize, TokenId, f64),
    ) {
        let tiles = QueryTiles::new(queries, self.dim, self.max_norm, floor);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `scan_avx2` enables AVX2 and FMA and nothing else, and
            // the host has just reported both.
            unsafe { self.scan_avx2(&tiles, rows, floor, &mut visit) };
            return;
        }
        self.scan(&tiles, rows, floor, &mut visit, filter);
    }

    /// [`Self::scan`] compiled for AVX2 and FMA, with [`filter_avx2`].
    ///
    /// # Safety
    ///
    /// Calling it is sound only on a host with AVX2 and FMA (`dot_scan`
    /// checks).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn scan_avx2(
        &self,
        tiles: &QueryTiles,
        rows: usize,
        floor: f64,
        visit: &mut impl FnMut(usize, TokenId, f64),
    ) {
        self.scan(tiles, rows, floor, visit, |tile, rows, threshold| {
            filter_avx2(tile, rows, threshold)
        });
    }

    /// The body of [`Self::dot_scan`]: every tile, through `filter`, and
    /// every unfiltered lane against every block of the first `rows` rows.
    /// Always inlined, so each caller compiles it for its own target
    /// features.
    #[inline(always)]
    fn scan(
        &self,
        tiles: &QueryTiles,
        rows: usize,
        floor: f64,
        visit: &mut impl FnMut(usize, TokenId, f64),
        filter: impl Fn(&[[f32; TILE_LANES]], [&[f32]; TILE_ROWS], &[f32; TILE_LANES]) -> u64,
    ) {
        let rows = rows.min(self.vocab());
        for start in (0..rows).step_by(BLOCK_ROWS) {
            let end = (start + BLOCK_ROWS).min(rows);
            for (k, (lanes, threshold)) in tiles.tiles.iter().enumerate() {
                let tile = &tiles.transposed[k * self.dim..][..self.dim];
                for t0 in (start..end).step_by(TILE_ROWS) {
                    // Past the block's end the last row repeats; the
                    // rescore skips it.
                    let rows = std::array::from_fn(|r| self.row((t0 + r).min(end - 1)));
                    let mut kept = filter(tile, rows, threshold);
                    // The rescore: `dot` for every kept pair on a present row.
                    while kept != 0 {
                        let bit = kept.trailing_zeros() as usize;
                        kept &= kept - 1;
                        let t = t0 + bit / TILE_LANES;
                        if t < end && self.present[t] {
                            let lane = lanes[bit % TILE_LANES];
                            let d = dot(tiles.queries[lane], self.row(t));
                            if d >= floor {
                                visit(lane, TokenId(t as u32), d);
                            }
                        }
                    }
                }
            }
            for &lane in &tiles.exact {
                let q = tiles.queries[lane];
                for t in start..end {
                    if self.present[t] {
                        let d = dot(q, self.row(t));
                        if d >= floor {
                            visit(lane, TokenId(t as u32), d);
                        }
                    }
                }
            }
        }
    }
}

/// The query vectors of one [`Embeddings::dot_scan`], sorted for its
/// filter: the lanes it can bound, transposed into tiles of [`TILE_LANES`]
/// slots, and the lanes it cannot, which run [`dot`] on every row.
struct QueryTiles<'q> {
    queries: &'q [&'q [f32]],
    /// Per tile, the lane in each slot and its threshold `floor − ε(q)`
    /// rounded down to `f32`. Slots past the last lane hold a zero vector
    /// at threshold `+∞`, which keeps no row.
    tiles: Vec<([usize; TILE_LANES], [f32; TILE_LANES])>,
    /// The tiles' vectors, `dim` entries per tile: entry `i` holds
    /// dimension `i` of every slot.
    transposed: Vec<[f32; TILE_LANES]>,
    /// The lanes the filter cannot bound (see `Embeddings::dot_scan`).
    exact: Vec<usize>,
}

impl<'q> QueryTiles<'q> {
    fn new(queries: &'q [&'q [f32]], dim: usize, max_norm: f64, floor: f64) -> Self {
        let (mut filtered, mut exact) = (Vec::new(), Vec::new());
        for (lane, q) in queries.iter().enumerate() {
            assert_eq!(q.len(), dim, "query vector has wrong dimensionality");
            match filter_threshold(l2_norm(q) * max_norm, dim, floor) {
                Some(threshold) => filtered.push((lane, threshold)),
                None => exact.push(lane),
            }
        }
        let mut tiles = Vec::new();
        let mut transposed = Vec::new();
        for chunk in filtered.chunks(TILE_LANES) {
            let mut tile = ([0; TILE_LANES], [f32::INFINITY; TILE_LANES]);
            let mut data = vec![[0.0; TILE_LANES]; dim];
            for (l, &(lane, threshold)) in chunk.iter().enumerate() {
                (tile.0[l], tile.1[l]) = (lane, threshold);
                for (xs, &x) in data.iter_mut().zip(queries[lane]) {
                    xs[l] = x;
                }
            }
            tiles.push(tile);
            transposed.extend(data);
        }
        QueryTiles {
            queries,
            tiles,
            transposed,
            exact,
        }
    }
}

/// The filter's kept bits for [`TILE_ROWS`] rows against one transposed
/// tile (`tile[i]` holds dimension `i` of every slot): bit
/// `r·TILE_LANES + l` says row `r` scored at least `threshold[l]` in `f32`
/// against slot `l`. One accumulator per (row, slot); the rows are
/// independent chains.
#[inline]
fn filter(
    tile: &[[f32; TILE_LANES]],
    rows: [&[f32]; TILE_ROWS],
    threshold: &[f32; TILE_LANES],
) -> u64 {
    let dim = tile.len();
    assert!(rows.iter().all(|row| row.len() == dim));
    let mut acc = [[0.0f32; TILE_LANES]; TILE_ROWS];
    for (i, xs) in tile.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(rows) {
            for (s, &x) in a.iter_mut().zip(xs) {
                *s += x * row[i];
            }
        }
    }
    let mut kept = 0;
    for (r, a) in acc.iter().enumerate() {
        for (l, (&s, &t)) in a.iter().zip(threshold).enumerate() {
            kept |= u64::from(s >= t) << (r * TILE_LANES + l);
        }
    }
    kept
}

/// [`filter`] in AVX2 registers, each product fused into its sum: a
/// register holds a row's scores against all eight slots. Its intrinsics
/// take no pointers, so enabling AVX2 and FMA makes them safe to call;
/// code without both features may call it only through `unsafe`, and
/// `scan_avx2` is its one caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn filter_avx2(
    tile: &[[f32; TILE_LANES]],
    rows: [&[f32]; TILE_ROWS],
    threshold: &[f32; TILE_LANES],
) -> u64 {
    use std::arch::x86_64::*;
    let load =
        |v: &[f32; TILE_LANES]| _mm256_setr_ps(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
    let dim = tile.len();
    // Every row is `dim` long, which lets the compiler drop the bounds
    // checks of `row[i]` from the loop.
    assert!(rows.iter().all(|row| row.len() == dim));
    let mut acc = [_mm256_setzero_ps(); TILE_ROWS];
    for (i, xs) in tile.iter().enumerate() {
        let x = load(xs);
        for (a, row) in acc.iter_mut().zip(rows) {
            *a = _mm256_fmadd_ps(x, _mm256_broadcast_ss(&row[i]), *a);
        }
    }
    let threshold = load(threshold);
    let mut kept = 0;
    for (r, &a) in acc.iter().enumerate() {
        let above = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(a, threshold));
        kept |= u64::from(above as u8) << (r * TILE_LANES);
    }
    kept
}

/// The filter's threshold `floor − ε(q)` for a lane with `‖q‖·M = qm`,
/// rounded down to `f32` — or `None` where `Embeddings::dot_scan` proves
/// no margin and the lane must run [`dot`] on every row.
fn filter_threshold(qm: f64, dim: usize, floor: f64) -> Option<f32> {
    let nu = (dim + 1) as f64 * UNIT_ROUNDOFF;
    let too_large = !qm.is_finite() || qm > f64::from(f32::MAX) / 4.0;
    if too_large || nu >= 1.0 || floor == f64::NEG_INFINITY {
        return None;
    }
    let eps = 2.0 * (nu / (1.0 - nu)) * qm + (dim + 1) as f64 * f64::from(f32::from_bits(1));
    let threshold = floor - eps;
    let rounded = threshold as f32;
    Some(if f64::from(rounded) > threshold {
        rounded.next_down()
    } else {
        rounded
    })
}

/// The `f64` norm of an `f32` vector, `+∞` if it holds a non-finite value.
fn l2_norm(v: &[f32]) -> f64 {
    let n = v
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt();
    if n.is_nan() {
        f64::INFINITY
    } else {
        n
    }
}

/// The unit roundoff `u = 2⁻²⁴` of `f32`.
const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;

/// Slots per tile of [`Embeddings::dot_scan`]'s filter: one 256-bit
/// register of `f32` scores per row.
const TILE_LANES: usize = 8;

/// Rows the filter scores at once: `TILE_ROWS` independent accumulators,
/// enough to keep the FMA units busy past their latency.
const TILE_ROWS: usize = 8;

/// Table rows per block of [`Embeddings::dot_scan`]: at dim 32 a block is
/// 128 KiB of `f32`, small enough to stay in L2 while every tile passes.
const BLOCK_ROWS: usize = 1024;

/// Where a dot product's sum starts: `-0.0`, the identity of `f64`
/// addition and the start of `Iterator::sum` — an all-`-0.0` product list
/// sums to `-0.0`, and [`dot`] keeps that sign.
const DOT_START: f64 = -0.0;

/// Dot product of two equally-sized slices: the products
/// `(a[i] as f64) * (b[i] as f64)` added in ascending `i`, starting from
/// `-0.0`. The vocabulary scan (`Embeddings::dot_scan`) visits only
/// values this function computed, so the two agree bit for bit.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(DOT_START, |acc, (&x, &y)| acc + f64::from(x) * f64::from(y))
}

impl HeapSize for Embeddings {
    fn heap_size(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>() + self.present.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_normalises() {
        let mut e = Embeddings::new(2, 3);
        e.set(TokenId(0), &[3.0, 4.0]);
        let v = e.get(TokenId(0)).unwrap();
        assert!((v[0] - 0.6).abs() < 1e-6);
        assert!((v[1] - 0.8).abs() < 1e-6);
        assert!((dot(v, v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_is_oov() {
        let mut e = Embeddings::new(2, 1);
        e.set(TokenId(0), &[0.0, 0.0]);
        assert!(!e.has(TokenId(0)));
        assert!(e.get(TokenId(0)).is_none());
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let mut e = Embeddings::new(3, 2);
        e.set(TokenId(0), &[1.0, 2.0, 3.0]);
        e.set(TokenId(1), &[1.0, 2.0, 3.0]);
        assert!((e.cosine(TokenId(0), TokenId(1)).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let mut e = Embeddings::new(2, 2);
        e.set(TokenId(0), &[1.0, 0.0]);
        e.set(TokenId(1), &[0.0, 1.0]);
        assert!(e.cosine(TokenId(0), TokenId(1)).unwrap().abs() < 1e-6);
    }

    #[test]
    fn cosine_with_oov_is_none() {
        let mut e = Embeddings::new(2, 2);
        e.set(TokenId(0), &[1.0, 0.0]);
        assert!(e.cosine(TokenId(0), TokenId(1)).is_none());
    }

    #[test]
    fn coverage_counts_present() {
        let mut e = Embeddings::new(2, 4);
        e.set(TokenId(0), &[1.0, 0.0]);
        e.set(TokenId(2), &[0.0, 1.0]);
        assert!((e.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_raw_is_bit_identical() {
        let mut e = Embeddings::new(3, 2);
        e.set(TokenId(0), &[1.0, 2.0, 3.0]);
        let restored =
            Embeddings::from_raw(e.dim(), e.raw_data().to_vec(), e.present_mask().to_vec());
        assert_eq!(restored.raw_data(), e.raw_data());
        assert_eq!(restored.present_mask(), e.present_mask());
        assert_eq!(
            restored.cosine(TokenId(0), TokenId(0)),
            e.cosine(TokenId(0), TokenId(0))
        );
        assert!(!restored.has(TokenId(1)));
    }

    #[test]
    #[should_panic(expected = "dim * vocab")]
    fn from_raw_rejects_mismatched_lengths() {
        let _ = Embeddings::from_raw(2, vec![0.0; 3], vec![false; 2]);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn wrong_dim_rejected() {
        let mut e = Embeddings::new(3, 1);
        e.set(TokenId(0), &[1.0]);
    }

    #[test]
    fn grow_preserves_existing_rows_bit_exactly() {
        let mut e = Embeddings::new(2, 2);
        e.set(TokenId(0), &[3.0, 4.0]);
        let before = e.raw_data().to_vec();
        e.grow(5);
        assert_eq!(e.vocab(), 5);
        assert_eq!(&e.raw_data()[..4], &before[..]);
        assert!(!e.has(TokenId(3)));
        // Shrinking is a no-op.
        e.grow(1);
        assert_eq!(e.vocab(), 5);
    }

    /// A table of `vocab` rows of norm `scale` (every seventh absent),
    /// whose last six rows score `(0.8 + δ)·scale²` against row 2 for
    /// δ = ±1e-9, ±1e-7 and ±1e-5: pairs on either side of the floor
    /// `0.8·scale²`, within the filter's margin.
    fn scan_table(dim: usize, vocab: usize, scale: f64) -> Embeddings {
        let unit = |t: usize| -> Vec<f64> {
            let v: Vec<f64> = (0..dim)
                .map(|i| ((t * 7 + i * 3) as f64 * 0.37).sin() + 0.05 * i as f64)
                .collect();
            let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            v.iter().map(|x| x / n).collect()
        };
        let raw = |v: &[f64]| -> Vec<f32> { v.iter().map(|&x| (x * scale) as f32).collect() };
        let mut e = Embeddings::new(dim, vocab);
        for t in 0..vocab - 6 {
            if t % 7 != 3 {
                e.set_raw_row(TokenId(t as u32), &raw(&unit(t)));
            }
        }
        // q̂ = row 2's direction; p̂ ⊥ q̂.
        let q = unit(2);
        let mut p = unit(5);
        let along = p.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>();
        p.iter_mut().zip(&q).for_each(|(a, b)| *a -= along * b);
        let n = p.iter().map(|x| x * x).sum::<f64>().sqrt();
        p.iter_mut().for_each(|a| *a /= n);
        for (k, delta) in [-1e-5f64, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5]
            .into_iter()
            .enumerate()
        {
            let c = 0.8 + delta;
            let s = (1.0 - c * c).sqrt();
            let row: Vec<f64> = q.iter().zip(&p).map(|(a, b)| c * a + s * b).collect();
            e.set_raw_row(TokenId((vocab - 6 + k) as u32), &raw(&row));
        }
        e
    }

    /// Every lane of the scan equals `dot` bit for bit, in ascending row
    /// order, over padded tiles and several blocks — at dims 3, 32 and 300,
    /// for rows of norm 1, 1e-3, 10 and 1e15, with pairs just either side
    /// of the floor, and keeping `dot`'s sign of an all-`-0.0` sum. Both the
    /// generic body and the one `dot_scan` dispatches to on this host give
    /// every pair at or above the floor and none below it. A table holding
    /// a non-finite row sends every lane down the fallback, which is exact
    /// too.
    #[test]
    fn dot_scan_is_dot_bit_for_bit() {
        let check = |e: &Embeddings, floors: &[f64], filtered: bool| {
            for &floor in floors {
                for n in [0, 1, 3, 8, 15, 17] {
                    let queries: Vec<&[f32]> = (0..n)
                        .map(|i| e.get(TokenId([2, 0, 1, 4, 5][i % 5])).unwrap())
                        .collect();
                    let tiles = QueryTiles::new(&queries, e.dim(), e.max_norm, floor);
                    let unbounded = floor == f64::NEG_INFINITY || !filtered;
                    assert_eq!(tiles.exact.len(), if unbounded { n } else { 0 });
                    let rows = e.vocab() + 3;
                    let mut generic = vec![Vec::new(); n];
                    e.scan(
                        &tiles,
                        rows,
                        floor,
                        &mut |lane, t, s: f64| generic[lane].push((t, s.to_bits())),
                        filter,
                    );
                    let mut dispatched = vec![Vec::new(); n];
                    e.dot_scan(&queries, rows, floor, |lane, t, s| {
                        dispatched[lane].push((t, s.to_bits()))
                    });
                    for (i, q) in queries.iter().enumerate() {
                        let want: Vec<_> = (0..e.vocab() as u32)
                            .map(TokenId)
                            .filter_map(|t| Some((t, dot(q, e.get(t)?))))
                            .filter(|&(_, d)| d >= floor)
                            .map(|(t, d)| (t, d.to_bits()))
                            .collect();
                        let at = format!("dim {}, floor {floor}, lane {i} of {n}", e.dim());
                        assert_eq!(generic[i], want, "generic, {at}");
                        assert_eq!(dispatched[i], want, "dispatched, {at}");
                    }
                }
            }
        };
        let tables: [(usize, usize, &[f64]); 3] = [
            (3, 2 * BLOCK_ROWS + 5, &[1.0, 1e15]),
            (32, BLOCK_ROWS + 21, &[1.0, 1e-3, 10.0, 1e15]),
            (300, 133, &[1.0, 1e-3]),
        ];
        for (dim, vocab, scales) in tables {
            for &scale in scales {
                let mut e = scan_table(dim, vocab, scale);
                let s2 = scale * scale;
                let floors = [f64::NEG_INFINITY, -0.0, 0.3 * s2, 0.8 * s2, s2];
                check(&e, &floors, true);
                // Both sides of the floor are there to be kept or dropped.
                let q = e.get(TokenId(2)).unwrap();
                let near = (vocab - 6..vocab).map(|t| dot(q, e.get(TokenId(t as u32)).unwrap()));
                assert!(near.clone().any(|d| d >= 0.8 * s2) && near.clone().any(|d| d < 0.8 * s2));
                e.set_raw_row(TokenId(7), &vec![f32::INFINITY; dim]);
                e.set_raw_row(TokenId(8), &[vec![f32::NAN], vec![1.0; dim - 1]].concat());
                assert_eq!(e.max_norm, f64::INFINITY);
                check(&e, &floors, false);
            }
        }
        let mut e = Embeddings::new(3, 2);
        e.set(TokenId(0), &[1.0, 0.0, 0.0]);
        e.set(TokenId(1), &[-0.0, -1.0, -0.0]);
        let (a, b) = (e.get(TokenId(0)).unwrap(), e.get(TokenId(1)).unwrap());
        assert_eq!(dot(a, b).to_bits(), (-0.0f64).to_bits());
        let mut got = Vec::new();
        e.dot_scan(&[a], 2, -0.0, |_, t, s| got.push((t, s.to_bits())));
        assert_eq!(
            got,
            [
                (TokenId(0), 1.0f64.to_bits()),
                (TokenId(1), (-0.0f64).to_bits())
            ]
        );
    }

    #[test]
    fn set_raw_row_is_bit_exact_and_zero_means_oov() {
        let mut e = Embeddings::new(2, 3);
        let row = [0.6f32, 0.8f32];
        e.set_raw_row(TokenId(1), &row);
        assert_eq!(e.get(TokenId(1)).unwrap(), &row);
        e.set_raw_row(TokenId(2), &[0.0, 0.0]);
        assert!(!e.has(TokenId(2)));
        // A mutated table equals a from_raw rebuild over the same rows.
        let rebuilt =
            Embeddings::from_raw(e.dim(), e.raw_data().to_vec(), e.present_mask().to_vec());
        assert_eq!(rebuilt.raw_data(), e.raw_data());
        assert_eq!(rebuilt.present_mask(), e.present_mask());
    }
}
