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
        Embeddings { dim, data, present }
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
            self.present[t.idx()] = true;
        } else {
            slot.fill(0.0);
            self.present[t.idx()] = false;
        }
    }

    /// The unit vector of `t`, or `None` for out-of-vocabulary tokens.
    pub fn get(&self, t: TokenId) -> Option<&[f32]> {
        if *self.present.get(t.idx())? {
            Some(&self.data[t.idx() * self.dim..(t.idx() + 1) * self.dim])
        } else {
            None
        }
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
    /// never disturbs existing bit patterns.
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
    }

    /// The vocabulary scan: calls `visit(lane, t, dot(queries[lane], row t))`
    /// for every query vector and every **present** row `t < rows` (rows
    /// past the table are absent). Each lane sees its rows in ascending
    /// token order, and every value is bit-identical to [`dot`].
    ///
    /// One blocked pass instead of one pass per query: the queries are
    /// transposed into tiles of up to eight `f64` lanes, the table is
    /// walked in blocks of rows, and every tile is applied to a block
    /// while it is still in cache. Each lane adds its products exactly in
    /// `dot`'s order — no FMA, no reassociation, no `f32` accumulation —
    /// so only the order *across* pairs differs from calling `dot` per
    /// pair.
    ///
    /// # Panics
    ///
    /// Panics if a query vector's length differs from `dim`.
    pub(crate) fn dot_scan(
        &self,
        queries: &[&[f32]],
        rows: usize,
        mut visit: impl FnMut(usize, TokenId, f64),
    ) {
        let rows = rows.min(self.vocab());
        let dim = self.dim;
        // Tiles of 8 lanes, then 4, 2 and 1 for the remainder, each stored
        // transposed (`[dim][lanes]`) in one buffer.
        let mut tiles = Vec::new();
        let mut transposed = vec![0.0f64; queries.len() * dim];
        let mut first = 0;
        for lanes in [TILE_LANES, 4, 2, 1] {
            while queries.len() - first >= lanes {
                let tile = &mut transposed[first * dim..(first + lanes) * dim];
                for (lane, q) in queries[first..first + lanes].iter().enumerate() {
                    assert_eq!(q.len(), dim, "query vector has wrong dimensionality");
                    for (i, &x) in q.iter().enumerate() {
                        tile[i * lanes + lane] = f64::from(x);
                    }
                }
                tiles.push((first, lanes));
                first += lanes;
            }
        }
        for start in (0..rows).step_by(BLOCK_ROWS) {
            let block = start..(start + BLOCK_ROWS).min(rows);
            for &(first, lanes) in &tiles {
                let tile = &transposed[first * dim..(first + lanes) * dim];
                match lanes {
                    TILE_LANES => {
                        self.scan_tile::<TILE_LANES>(tile, first, block.clone(), &mut visit)
                    }
                    4 => self.scan_tile::<4>(tile, first, block.clone(), &mut visit),
                    2 => self.scan_tile::<2>(tile, first, block.clone(), &mut visit),
                    _ => self.scan_tile::<1>(tile, first, block.clone(), &mut visit),
                }
            }
        }
    }

    /// One tile of `L` transposed query vectors (lanes `first..first + L`)
    /// against the present rows of `block`.
    fn scan_tile<const L: usize>(
        &self,
        tile: &[f64],
        first: usize,
        block: std::ops::Range<usize>,
        visit: &mut impl FnMut(usize, TokenId, f64),
    ) {
        let (tile, _) = tile.as_chunks::<L>();
        for t in block {
            if !self.present[t] {
                continue;
            }
            let row = &self.data[t * self.dim..(t + 1) * self.dim];
            let mut acc = [DOT_START; L];
            for (&y, xs) in row.iter().zip(tile) {
                let y = f64::from(y);
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a += x * y;
                }
            }
            for (lane, &s) in acc.iter().enumerate() {
                visit(first + lane, TokenId(t as u32), s);
            }
        }
    }
}

/// Query vectors per tile of [`Embeddings::dot_scan`]: eight `f64`
/// accumulators, independent chains the core overlaps.
const TILE_LANES: usize = 8;

/// Table rows per block of [`Embeddings::dot_scan`]: at dim 32 a block is
/// 128 KiB of `f32`, small enough to stay in L2 while every tile passes.
const BLOCK_ROWS: usize = 1024;

/// Where a dot product's sum starts: `-0.0`, the identity of `f64`
/// addition and the start of `Iterator::sum` — an all-`-0.0` product list
/// sums to `-0.0`, and the kernels keep that sign.
const DOT_START: f64 = -0.0;

/// Dot product of two equally-sized slices: the products
/// `(a[i] as f64) * (b[i] as f64)` added in ascending `i`, starting from
/// `-0.0`. The blocked vocabulary scan (`Embeddings::dot_scan`) adds in
/// the same order per lane, so the two agree bit for bit.
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

    /// Every lane of the blocked scan equals `dot` bit for bit, in
    /// ascending row order, over remainder tiles and several blocks — and
    /// keeps `dot`'s sign of an all-`-0.0` sum.
    #[test]
    fn dot_scan_is_dot_bit_for_bit() {
        let mut e = Embeddings::new(3, 2 * BLOCK_ROWS + 5);
        for t in 0..e.vocab() as u32 {
            let x = f64::from(t);
            if t % 7 != 3 {
                e.set(
                    TokenId(t),
                    &[(x * 0.37).sin(), (x * 1.3).cos(), -(x * 0.11).sin()],
                );
            }
        }
        e.set(TokenId(0), &[1.0, 0.0, 0.0]);
        e.set(TokenId(1), &[-0.0, -1.0, -0.0]);
        let (a, b) = (e.get(TokenId(0)).unwrap(), e.get(TokenId(1)).unwrap());
        assert_eq!(dot(a, b).to_bits(), (-0.0f64).to_bits());
        for n in [0, 1, 3, 8, 15] {
            let queries: Vec<&[f32]> = (0..n)
                .map(|i| e.get(TokenId([0, 1, 2, 4, 5][i % 5])).unwrap())
                .collect();
            let mut got = vec![Vec::new(); n];
            e.dot_scan(&queries, e.vocab() + 3, |lane, t, s| {
                got[lane].push((t, s.to_bits()))
            });
            for (q, got) in queries.iter().zip(&got) {
                let want: Vec<_> = (0..e.vocab() as u32)
                    .map(TokenId)
                    .filter_map(|t| Some((t, dot(q, e.get(t)?).to_bits())))
                    .collect();
                assert_eq!(got, &want);
            }
        }
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
