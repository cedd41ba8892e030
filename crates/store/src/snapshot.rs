//! The versioned snapshot container: sections, checksums, read/write.
//!
//! ## File layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   magic "KOIOSNAP" (8B) · format version u32 ·        │
//! │          section count u32                                   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ table    per section: kind u32 · offset u64 · len u64 ·      │
//! │          crc32 u32                      (24 bytes per entry) │
//! ├──────────────────────────────────────────────────────────────┤
//! │ payloads Meta · Repository · [Embeddings] ·                  │
//! │          InvertedIndex × n (shard order) ·                   │
//! │          Delta × m (append order)                            │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is little-endian (see [`crate::codec`]). Each section is
//! guarded by its own CRC-32, so a flipped bit anywhere in a payload is
//! caught before any of it is decoded; the section table is bounds-checked
//! against the file length, so truncation is caught before any seek. All
//! failures are typed [`StoreError`]s — a corrupt snapshot can never panic
//! the loader.
//!
//! ## Deltas
//!
//! A snapshot is a **base** (the sections above the `Delta` rows) plus an
//! append-only chain of delta sections, each holding a batch of
//! [`CorpusOp`]s recorded by a live engine ([`append_delta`]). On load,
//! [`read_snapshot`] replays the chain through the same
//! [`koios_index::live::apply_op`] the live engine used, so a reloaded
//! engine is byte-identical to the one that wrote the deltas. The chain is
//! tamper-evident: every delta records its parent checksum — the CRC-32
//! folded over the base section checksums for the first delta, the previous
//! delta's own checksum after that — and a mismatch fails with
//! [`StoreError::DeltaChainBroken`] before any op is applied.
//! [`compact`] folds the chain into a fresh base.
//!
//! [`SnapshotMeta::read`] inspects a snapshot — layout, counts, section
//! sizes, the delta chain's epochs and parent checksums — by reading only
//! the header, the table, the small Meta section and each delta's fixed
//! header, without touching the (much larger) payloads. [`write_snapshot`]
//! writes to a temporary sibling file and renames it into place, so a crash
//! mid-write never leaves a half-written snapshot under the final name.

use crate::codec::{crc32, CodecError, Reader, Writer};
use koios_common::{SetId, TokenId};
use koios_embed::ops::CorpusOp;
use koios_embed::repository::{Repository, RepositoryBuilder};
use koios_embed::vectors::Embeddings;
use koios_index::inverted::InvertedIndex;
use std::fmt;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"KOIOSNAP";

/// The one snapshot format version; readers reject any other.
pub const FORMAT_VERSION: u32 = 2;

/// Conventional file extension for snapshots (`engine.ksnap`).
pub const SNAPSHOT_EXT: &str = "ksnap";

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 24;
/// Sanity bound on the section count: a corrupt header cannot make the
/// reader allocate an absurd table. Large enough for thousands of shards.
const MAX_SECTIONS: u32 = 16_384;

/// What a section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Layout and counts (small; read by [`SnapshotMeta::read`]).
    Meta,
    /// Vocabulary strings + sets (`Repository`).
    Repository,
    /// Token vectors (`Embeddings`, bit-exact `f32`s).
    Embeddings,
    /// One inverted index; repeated once per shard for partitioned
    /// layouts, in shard order.
    InvertedIndex,
    /// One appended batch of corpus mutations: a fixed header
    /// (parent checksum + epoch) followed by encoded [`CorpusOp`]s,
    /// replayed onto the base state on load.
    Delta,
}

impl SectionKind {
    fn to_u32(self) -> u32 {
        match self {
            SectionKind::Meta => 0,
            SectionKind::Repository => 1,
            SectionKind::Embeddings => 2,
            SectionKind::InvertedIndex => 3,
            // 4 was a MinHash section no product path wrote; a file that
            // carries one is refused as an unknown kind.
            SectionKind::Delta => 5,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(SectionKind::Meta),
            1 => Some(SectionKind::Repository),
            2 => Some(SectionKind::Embeddings),
            3 => Some(SectionKind::InvertedIndex),
            5 => Some(SectionKind::Delta),
            _ => None,
        }
    }

    /// A short label for error messages.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Meta => "meta",
            SectionKind::Repository => "repository",
            SectionKind::Embeddings => "embeddings",
            SectionKind::InvertedIndex => "inverted-index",
            SectionKind::Delta => "delta",
        }
    }
}

/// How the snapshotted engine was laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotLayout {
    /// One engine over one repository-wide inverted index.
    Single,
    /// A sharded engine: one inverted index per partition.
    Partitioned {
        /// Number of shards (equals the number of inverted-index
        /// sections).
        partitions: u32,
        /// The deterministic shard-assignment seed the engine was built
        /// with.
        seed: u64,
    },
}

impl SnapshotLayout {
    /// A human-readable description (`"single"` / `"partitioned(8)"`).
    pub fn describe(&self) -> String {
        match self {
            SnapshotLayout::Single => "single".to_string(),
            SnapshotLayout::Partitioned { partitions, .. } => {
                format!("partitioned({partitions})")
            }
        }
    }
}

/// One entry of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// What the section holds.
    pub kind: SectionKind,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// Provenance of one delta section, readable from its fixed header without
/// decoding the ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaInfo {
    /// Checksum of this delta's parent: the folded base checksum for the
    /// first delta, the previous delta's `crc` after that.
    pub parent_crc: u32,
    /// CRC-32 of this delta's payload (its identity in the chain).
    pub crc: u32,
    /// Engine epoch at the time the batch was appended.
    pub epoch: u64,
    /// Number of ops in the batch.
    pub ops: usize,
}

/// Everything a snapshot says about itself, readable without decoding the
/// payload sections (see [`SnapshotMeta::read`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The format version the file was written with.
    pub format_version: u32,
    /// Single or partitioned engine layout.
    pub layout: SnapshotLayout,
    /// Number of sets in the repository **base** (live + tombstoned;
    /// replayed deltas can grow this).
    pub num_sets: usize,
    /// Vocabulary size of the repository base.
    pub vocab_size: usize,
    /// Number of inverted-index sections (1, or the partition count).
    pub num_indexes: usize,
    /// Whether a token-vector section is present.
    pub has_embeddings: bool,
    /// Total file size in bytes.
    pub total_bytes: u64,
    /// The section table (kind, offset, length, checksum per section).
    pub sections: Vec<SectionInfo>,
    /// The delta chain, in replay order (empty for a fresh base).
    pub deltas: Vec<DeltaInfo>,
}

impl SnapshotMeta {
    /// The engine epoch of the newest delta (0 for a fresh or compacted
    /// base — bases do not record an epoch).
    pub fn latest_epoch(&self) -> u64 {
        self.deltas.last().map(|d| d.epoch).unwrap_or(0)
    }
}

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a Koios snapshot.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file is shorter than its header/table claims.
    Truncated {
        /// Bytes the header or table said must exist.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// The damaged section.
        kind: SectionKind,
    },
    /// A payload failed to decode (truncated mid-value, bad varint, …).
    Corrupt {
        /// The section being decoded.
        kind: SectionKind,
        /// The codec-level failure.
        source: CodecError,
    },
    /// A required section is absent.
    MissingSection(SectionKind),
    /// The file decoded but its contents are inconsistent (out-of-range
    /// ids, counts disagreeing with the meta section, …).
    Malformed(String),
    /// The snapshot's engine layout does not match what the caller asked
    /// to restore (e.g. loading a sharded snapshot into a single engine).
    LayoutMismatch {
        /// The layout the caller required.
        expected: &'static str,
        /// The layout the snapshot holds.
        found: String,
    },
    /// A delta section's recorded parent checksum does not match the chain
    /// tip — the base was rewritten, a delta was dropped, or sections were
    /// reordered after the delta was appended.
    DeltaChainBroken {
        /// Position of the offending delta in the chain (0-based).
        index: usize,
        /// The chain tip the delta should descend from.
        expected: u32,
        /// The parent checksum the delta actually records.
        found: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            StoreError::BadMagic => write!(f, "not a Koios snapshot (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot format version {v} (this reader understands {FORMAT_VERSION})"
            ),
            StoreError::Truncated { expected, actual } => write!(
                f,
                "snapshot truncated: header declares {expected} bytes, file has {actual}"
            ),
            StoreError::ChecksumMismatch { kind } => {
                write!(f, "checksum mismatch in {} section", kind.name())
            }
            StoreError::Corrupt { kind, source } => {
                write!(f, "corrupt {} section: {source}", kind.name())
            }
            StoreError::MissingSection(kind) => {
                write!(f, "snapshot is missing its {} section", kind.name())
            }
            StoreError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            StoreError::LayoutMismatch { expected, found } => write!(
                f,
                "snapshot layout mismatch: expected a {expected} engine, snapshot holds {found}"
            ),
            StoreError::DeltaChainBroken {
                index,
                expected,
                found,
            } => write!(
                f,
                "delta chain broken at delta {index}: parent checksum {found:#010x} \
                 does not match chain tip {expected:#010x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Borrowed query-ready state to serialize (the write-side dual of
/// [`SnapshotState`]). Assemble one from live structures — engines expose
/// a convenience wrapper, see `EngineBackend::write_snapshot` in
/// `koios-core`.
#[derive(Debug)]
pub struct SnapshotView<'a> {
    /// The repository (sets, names, interned vocabulary).
    pub repository: &'a Repository,
    /// Token vectors, when the engine's similarity is embedding-based.
    pub embeddings: Option<&'a Embeddings>,
    /// Single or partitioned layout.
    pub layout: SnapshotLayout,
    /// The inverted index(es): exactly one for [`SnapshotLayout::Single`],
    /// one per shard (in shard order) for
    /// [`SnapshotLayout::Partitioned`].
    pub indexes: Vec<&'a InvertedIndex>,
}

/// Owned query-ready state restored from a snapshot.
#[derive(Debug)]
pub struct SnapshotState {
    /// The snapshot's self-description.
    pub meta: SnapshotMeta,
    /// The restored repository (token ids identical to the saved one).
    pub repository: Repository,
    /// Restored token vectors (bit-identical), if saved.
    pub embeddings: Option<Embeddings>,
    /// The restored inverted index(es), in shard order.
    pub indexes: Vec<InvertedIndex>,
}

// ---------------------------------------------------------------------------
// Section payload encoders/decoders.
// ---------------------------------------------------------------------------

fn corrupt(kind: SectionKind) -> impl Fn(CodecError) -> StoreError {
    move |source| StoreError::Corrupt { kind, source }
}

fn encode_meta(view: &SnapshotView) -> Vec<u8> {
    let mut w = Writer::new();
    match view.layout {
        SnapshotLayout::Single => w.u8(0),
        SnapshotLayout::Partitioned { partitions, seed } => {
            w.u8(1);
            w.varint(partitions as u64);
            w.u64(seed);
        }
    }
    w.varint(view.repository.num_sets() as u64);
    w.varint(view.repository.vocab_size() as u64);
    w.varint(view.indexes.len() as u64);
    w.u8(view.embeddings.is_some() as u8);
    // A retired optional-section flag: always 0. The product has only ever
    // written 0 here, so every `.ksnap` it wrote keeps loading and is
    // rewritten byte-identically, with no FORMAT_VERSION bump.
    w.u8(0);
    w.into_bytes()
}

fn decode_meta(
    payload: &[u8],
    sections: Vec<SectionInfo>,
    total_bytes: u64,
) -> Result<SnapshotMeta, StoreError> {
    let kind = SectionKind::Meta;
    let mut r = Reader::new(payload);
    let layout = match r.u8().map_err(corrupt(kind))? {
        0 => SnapshotLayout::Single,
        1 => {
            let partitions = r.varint().map_err(corrupt(kind))?;
            let seed = r.u64().map_err(corrupt(kind))?;
            if partitions == 0 || partitions > u32::MAX as u64 {
                return Err(StoreError::Malformed(format!(
                    "partition count {partitions} out of range"
                )));
            }
            SnapshotLayout::Partitioned {
                partitions: partitions as u32,
                seed,
            }
        }
        other => return Err(StoreError::Malformed(format!("unknown layout tag {other}"))),
    };
    let num_sets = r.varint().map_err(corrupt(kind))? as usize;
    let vocab_size = r.varint().map_err(corrupt(kind))? as usize;
    let num_indexes = r.varint().map_err(corrupt(kind))? as usize;
    let has_embeddings = r.u8().map_err(corrupt(kind))? != 0;
    // The retired MinHash flag (see `encode_meta`).
    if r.u8().map_err(corrupt(kind))? != 0 {
        return Err(StoreError::Malformed(
            "meta flags a MinHash section, which this reader does not support".to_string(),
        ));
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed(
            "trailing bytes in meta section".to_string(),
        ));
    }
    let expected_indexes = match layout {
        SnapshotLayout::Single => 1,
        SnapshotLayout::Partitioned { partitions, .. } => partitions as usize,
    };
    if num_indexes != expected_indexes {
        return Err(StoreError::Malformed(format!(
            "layout {} declares {expected_indexes} index(es) but meta records {num_indexes}",
            layout.describe()
        )));
    }
    Ok(SnapshotMeta {
        format_version: FORMAT_VERSION,
        layout,
        num_sets,
        vocab_size,
        num_indexes,
        has_embeddings,
        total_bytes,
        sections,
        // Filled in by the caller from the delta headers (decode_meta only
        // sees the Meta payload).
        deltas: Vec::new(),
    })
}

fn encode_repository(repo: &Repository) -> Vec<u8> {
    let mut w = Writer::new();
    w.varint(repo.vocab_size() as u64);
    for (_, s) in repo.interner().iter() {
        w.str(s);
    }
    w.varint(repo.num_sets() as u64);
    for (id, set) in repo.iter_sets() {
        w.str(repo.set_name(id));
        w.delta_seq(set.iter().map(|t| t.0));
    }
    // Trailer: tombstoned set ids (slots are written above either way —
    // the id space stays dense — but removed sets must come back removed).
    w.delta_seq(
        repo.tombstones()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|s| s.0),
    );
    w.into_bytes()
}

/// Reads a [`Writer::delta_seq`] sequence straight into its target id
/// type, fusing decoding with the strictness and range validation so each
/// list costs exactly one allocation (the load hot path: one call per set
/// and per posting list).
fn read_id_seq<T>(
    r: &mut Reader,
    what: &'static str,
    kind: SectionKind,
    max: usize,
    wrap: impl Fn(u32) -> T,
) -> Result<Box<[T]>, StoreError> {
    let n = r.checked_len(1, what).map_err(corrupt(kind))?;
    let mut out: Vec<T> = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let delta = r.varint().map_err(corrupt(kind))?;
        if i > 0 && delta == 0 {
            return Err(StoreError::Malformed(format!(
                "{what} ids are not strictly increasing"
            )));
        }
        let v = if i == 0 {
            delta
        } else {
            // A crafted delta near u64::MAX must not wrap past the range
            // check (and must never panic the loader).
            prev.checked_add(delta)
                .ok_or_else(|| StoreError::Malformed(format!("{what} id overflows 64 bits")))?
        };
        if v >= max as u64 {
            return Err(StoreError::Malformed(format!(
                "{what} id {v} out of range (< {max})"
            )));
        }
        prev = v;
        out.push(wrap(v as u32));
    }
    Ok(out.into_boxed_slice())
}

fn decode_repository(payload: &[u8]) -> Result<Repository, StoreError> {
    let kind = SectionKind::Repository;
    let mut r = Reader::new(payload);
    let vocab = r.checked_len(1, "vocabulary").map_err(corrupt(kind))?;
    let mut strings: Vec<&str> = Vec::with_capacity(vocab);
    for _ in 0..vocab {
        strings.push(r.str("vocabulary string").map_err(corrupt(kind))?);
    }
    let num_sets = r.checked_len(1, "set table").map_err(corrupt(kind))?;
    let mut sets: Vec<(String, Vec<TokenId>)> = Vec::with_capacity(num_sets);
    for _ in 0..num_sets {
        let name = r.str("set name").map_err(corrupt(kind))?.to_string();
        let ids = read_id_seq(&mut r, "set element", kind, vocab, TokenId)?;
        sets.push((name, ids.into_vec()));
    }
    let tombstones = read_id_seq(&mut r, "tombstone", kind, num_sets, SetId)?;
    if !r.is_exhausted() {
        return Err(StoreError::Malformed(
            "trailing bytes in repository section".to_string(),
        ));
    }
    let mut repo = RepositoryBuilder::from_snapshot(strings, sets);
    if repo.vocab_size() != vocab {
        return Err(StoreError::Malformed(
            "duplicate vocabulary strings collapse under interning".to_string(),
        ));
    }
    for &id in tombstones.iter() {
        if !repo.remove_set(id) {
            return Err(StoreError::Malformed(format!(
                "tombstone names set {} twice",
                id.0
            )));
        }
    }
    Ok(repo)
}

fn encode_embeddings(emb: &Embeddings) -> Vec<u8> {
    let mut w = Writer::new();
    w.varint(emb.dim() as u64);
    w.varint(emb.vocab() as u64);
    for &p in emb.present_mask() {
        w.u8(p as u8);
    }
    let data = emb.raw_data();
    for (t, &p) in emb.present_mask().iter().enumerate() {
        if p {
            for &v in &data[t * emb.dim()..(t + 1) * emb.dim()] {
                w.f32(v);
            }
        }
    }
    w.into_bytes()
}

/// Widest embedding row the decoder accepts. Real models are two to three
/// orders of magnitude smaller (FastText: 300); the cap exists so a
/// corrupt length prefix cannot turn `dim * vocab` into a giant
/// allocation while every present flag is 0 (the one case the byte-budget
/// check below cannot bound).
const MAX_EMBED_DIM: usize = 1 << 16;

fn decode_embeddings(payload: &[u8], repo_vocab: usize) -> Result<Embeddings, StoreError> {
    let kind = SectionKind::Embeddings;
    let mut r = Reader::new(payload);
    let dim = r.varint().map_err(corrupt(kind))? as usize;
    if dim == 0 || dim > MAX_EMBED_DIM {
        return Err(StoreError::Malformed(format!(
            "embedding dimension {dim} out of range (1..={MAX_EMBED_DIM})"
        )));
    }
    let vocab = r
        .checked_len(1, "embedding vocabulary")
        .map_err(corrupt(kind))?;
    // Cross-checked against the repository *before* the `dim * vocab`
    // table is allocated, so the allocation is bounded by real repo size.
    if vocab != repo_vocab {
        return Err(StoreError::Malformed(format!(
            "embeddings cover {vocab} tokens, vocabulary has {repo_vocab}"
        )));
    }
    dim.checked_mul(vocab)
        .filter(|&n| n <= isize::MAX as usize / 4)
        .ok_or_else(|| StoreError::Malformed(format!("embedding table {dim}x{vocab} overflows")))?;
    let mut present = Vec::with_capacity(vocab);
    for _ in 0..vocab {
        match r.u8().map_err(corrupt(kind))? {
            0 => present.push(false),
            1 => present.push(true),
            other => {
                return Err(StoreError::Malformed(format!(
                    "present flag must be 0 or 1, got {other}"
                )))
            }
        }
    }
    let present_count = present.iter().filter(|&&p| p).count();
    let need = present_count as u64 * dim as u64 * 4;
    if need > r.remaining() as u64 {
        return Err(StoreError::Corrupt {
            kind,
            source: CodecError::Truncated {
                offset: r.pos(),
                what: "embedding vectors",
            },
        });
    }
    let mut data = vec![0.0f32; dim * vocab];
    for (t, &p) in present.iter().enumerate() {
        if p {
            r.f32_into(&mut data[t * dim..(t + 1) * dim])
                .map_err(corrupt(kind))?;
        }
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed(
            "trailing bytes in embeddings section".to_string(),
        ));
    }
    // Absent rows hold zeroes, so this checks exactly the stored values.
    if let Some(at) = data.iter().position(|v| !v.is_finite()) {
        return Err(StoreError::Malformed(format!(
            "embedding row for token {} has a non-finite value",
            at / dim
        )));
    }
    Ok(Embeddings::from_raw(dim, data, present))
}

fn encode_inverted(index: &InvertedIndex) -> Vec<u8> {
    let mut w = Writer::new();
    w.varint(index.num_tokens() as u64);
    for postings in index.iter_postings() {
        w.delta_seq(postings.iter().map(|s| s.0));
    }
    w.into_bytes()
}

fn decode_inverted(
    payload: &[u8],
    vocab: usize,
    num_sets: usize,
) -> Result<InvertedIndex, StoreError> {
    let kind = SectionKind::InvertedIndex;
    let mut r = Reader::new(payload);
    let tokens = r.checked_len(1, "posting table").map_err(corrupt(kind))?;
    if tokens != vocab {
        return Err(StoreError::Malformed(format!(
            "inverted index covers {tokens} tokens, repository vocabulary has {vocab}"
        )));
    }
    let mut postings: Vec<Box<[SetId]>> = Vec::with_capacity(tokens);
    for _ in 0..tokens {
        postings.push(read_id_seq(&mut r, "posting", kind, num_sets, SetId)?);
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed(
            "trailing bytes in inverted-index section".to_string(),
        ));
    }
    Ok(InvertedIndex::from_postings(postings))
}

// ---------------------------------------------------------------------------
// Delta sections: op codec and checksum chaining.
// ---------------------------------------------------------------------------

/// Fixed bytes at the head of every delta payload: parent CRC-32 (4) +
/// epoch (8). Everything after is the varint op count and the encoded ops.
const DELTA_HEADER_LEN: usize = 12;

/// The chain tip a snapshot's **first** delta must descend from: the
/// CRC-32 folded over the base sections' checksums (little-endian, table
/// order). Any change to any base payload changes this value, so a delta
/// appended against one base can never silently replay onto another.
fn base_chain_tip(sections: &[SectionInfo]) -> u32 {
    let mut bytes = Vec::with_capacity(sections.len() * 4);
    for s in sections.iter().filter(|s| s.kind != SectionKind::Delta) {
        bytes.extend_from_slice(&s.crc.to_le_bytes());
    }
    crc32(&bytes)
}

fn encode_op(w: &mut Writer, op: &CorpusOp) {
    match op {
        CorpusOp::Insert {
            name,
            tokens,
            vectors,
        } => {
            w.u8(0);
            w.str(name);
            w.varint(tokens.len() as u64);
            for t in tokens {
                w.str(t);
            }
            w.varint(vectors.len() as u64);
            for (t, row) in vectors {
                w.str(t);
                w.varint(row.len() as u64);
                for &v in row {
                    w.f32(v);
                }
            }
        }
        CorpusOp::Remove { set } => {
            w.u8(1);
            w.varint(set.0 as u64);
        }
    }
}

fn decode_op(r: &mut Reader) -> Result<CorpusOp, StoreError> {
    let kind = SectionKind::Delta;
    match r.u8().map_err(corrupt(kind))? {
        0 => {
            let name = r.str("op set name").map_err(corrupt(kind))?.to_string();
            let num_tokens = r.checked_len(1, "op tokens").map_err(corrupt(kind))?;
            let mut tokens = Vec::with_capacity(num_tokens);
            for _ in 0..num_tokens {
                tokens.push(r.str("op token").map_err(corrupt(kind))?.to_string());
            }
            let num_vectors = r.checked_len(1, "op vectors").map_err(corrupt(kind))?;
            let mut vectors = Vec::with_capacity(num_vectors);
            for _ in 0..num_vectors {
                let token = r.str("op vector token").map_err(corrupt(kind))?.to_string();
                let dim = r.checked_len(4, "op vector row").map_err(corrupt(kind))?;
                let mut row = vec![0.0f32; dim];
                r.f32_into(&mut row).map_err(corrupt(kind))?;
                vectors.push((token, row));
            }
            Ok(CorpusOp::Insert {
                name,
                tokens,
                vectors,
            })
        }
        1 => {
            let set = r.varint().map_err(corrupt(kind))?;
            if set > u32::MAX as u64 {
                return Err(StoreError::Malformed(format!(
                    "remove op names set {set}, beyond the 32-bit id space"
                )));
            }
            Ok(CorpusOp::Remove {
                set: SetId(set as u32),
            })
        }
        other => Err(StoreError::Malformed(format!("unknown op tag {other}"))),
    }
}

fn encode_delta(parent_crc: u32, epoch: u64, ops: &[CorpusOp]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(parent_crc);
    w.u64(epoch);
    w.varint(ops.len() as u64);
    for op in ops {
        encode_op(&mut w, op);
    }
    w.into_bytes()
}

fn decode_delta(payload: &[u8]) -> Result<(u32, u64, Vec<CorpusOp>), StoreError> {
    let kind = SectionKind::Delta;
    let mut r = Reader::new(payload);
    let parent_crc = r.u32().map_err(corrupt(kind))?;
    let epoch = r.u64().map_err(corrupt(kind))?;
    let count = r.checked_len(1, "delta ops").map_err(corrupt(kind))?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(decode_op(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(StoreError::Malformed(
            "trailing bytes in delta section".to_string(),
        ));
    }
    Ok((parent_crc, epoch, ops))
}

/// Decodes only a delta's fixed header and op count (the cheap-inspection
/// path of [`SnapshotMeta::read`]; `head` need not contain the ops).
fn decode_delta_head(head: &[u8], crc: u32) -> Result<DeltaInfo, StoreError> {
    let kind = SectionKind::Delta;
    let mut r = Reader::new(head);
    let parent_crc = r.u32().map_err(corrupt(kind))?;
    let epoch = r.u64().map_err(corrupt(kind))?;
    let ops = r.varint().map_err(corrupt(kind))? as usize;
    Ok(DeltaInfo {
        parent_crc,
        crc,
        epoch,
        ops,
    })
}

/// Walks the delta chain, verifying each delta's parent checksum against
/// the running tip. Returns the infos in replay order.
fn verify_chain(
    sections: &[SectionInfo],
    read_head: impl Fn(&SectionInfo) -> Result<DeltaInfo, StoreError>,
) -> Result<Vec<DeltaInfo>, StoreError> {
    let mut tip = base_chain_tip(sections);
    let mut deltas = Vec::new();
    for info in sections.iter().filter(|s| s.kind == SectionKind::Delta) {
        let head = read_head(info)?;
        if head.parent_crc != tip {
            return Err(StoreError::DeltaChainBroken {
                index: deltas.len(),
                expected: tip,
                found: head.parent_crc,
            });
        }
        tip = head.crc;
        deltas.push(head);
    }
    Ok(deltas)
}

// ---------------------------------------------------------------------------
// Container assembly and parsing.
// ---------------------------------------------------------------------------

/// Serializes `view` to `path` (temporary file + rename, so the final name
/// only ever holds a complete snapshot). Returns the written meta.
pub fn write_snapshot(path: &Path, view: &SnapshotView) -> Result<SnapshotMeta, StoreError> {
    let expected_indexes = match view.layout {
        SnapshotLayout::Single => 1,
        SnapshotLayout::Partitioned { partitions, .. } => partitions as usize,
    };
    if view.indexes.len() != expected_indexes {
        return Err(StoreError::Malformed(format!(
            "layout {} requires {expected_indexes} index(es), got {}",
            view.layout.describe(),
            view.indexes.len()
        )));
    }

    let mut sections: Vec<(SectionKind, Vec<u8>)> = Vec::with_capacity(4 + view.indexes.len());
    sections.push((SectionKind::Meta, encode_meta(view)));
    sections.push((SectionKind::Repository, encode_repository(view.repository)));
    if let Some(emb) = view.embeddings {
        sections.push((SectionKind::Embeddings, encode_embeddings(emb)));
    }
    for index in &view.indexes {
        sections.push((SectionKind::InvertedIndex, encode_inverted(index)));
    }

    let laid_out: Vec<(SectionKind, u32, &[u8])> = sections
        .iter()
        .map(|(kind, payload)| (*kind, crc32(payload), &payload[..]))
        .collect();
    let (infos, total_bytes) = write_file(path, &laid_out)?;
    decode_meta(&sections[0].1, infos, total_bytes)
}

/// Lays `sections` (kind, checksum, payload) out behind the header and the
/// section table, in order, and writes the file to a temporary sibling
/// that is then renamed over `path`: readers never observe a partially
/// written file. Returns the section table and the file length.
fn write_file(
    path: &Path,
    sections: &[(SectionKind, u32, &[u8])],
) -> Result<(Vec<SectionInfo>, u64), StoreError> {
    let mut offset = (HEADER_LEN + sections.len() * TABLE_ENTRY_LEN) as u64;
    let infos: Vec<SectionInfo> = sections
        .iter()
        .map(|&(kind, crc, payload)| {
            let info = SectionInfo {
                kind,
                offset,
                len: payload.len() as u64,
                crc,
            };
            offset += info.len;
            info
        })
        .collect();

    let mut file = Vec::with_capacity(offset as usize);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for info in &infos {
        file.extend_from_slice(&info.kind.to_u32().to_le_bytes());
        file.extend_from_slice(&info.offset.to_le_bytes());
        file.extend_from_slice(&info.len.to_le_bytes());
        file.extend_from_slice(&info.crc.to_le_bytes());
    }
    for (_, _, payload) in sections {
        file.extend_from_slice(payload);
    }

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, &file)?;
    std::fs::rename(&tmp, path)?;
    Ok((infos, offset))
}

/// Parses the header and section table, validating magic, version, section
/// count and every section's bounds against `file_len`.
fn parse_table(head: &[u8], file_len: u64) -> Result<Vec<SectionInfo>, StoreError> {
    if head.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            actual: head.len() as u64,
        });
    }
    if head[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(head[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(head[12..16].try_into().unwrap());
    if count == 0 || count > MAX_SECTIONS {
        return Err(StoreError::Malformed(format!(
            "implausible section count {count}"
        )));
    }
    let table_end = HEADER_LEN as u64 + count as u64 * TABLE_ENTRY_LEN as u64;
    if (head.len() as u64) < table_end || file_len < table_end {
        return Err(StoreError::Truncated {
            expected: table_end,
            actual: file_len.min(head.len() as u64),
        });
    }
    let mut infos = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let e = &head[HEADER_LEN + i * TABLE_ENTRY_LEN..HEADER_LEN + (i + 1) * TABLE_ENTRY_LEN];
        let raw_kind = u32::from_le_bytes(e[0..4].try_into().unwrap());
        let kind = SectionKind::from_u32(raw_kind)
            .ok_or_else(|| StoreError::Malformed(format!("unknown section kind {raw_kind}")))?;
        let offset = u64::from_le_bytes(e[4..12].try_into().unwrap());
        let len = u64::from_le_bytes(e[12..20].try_into().unwrap());
        let crc = u32::from_le_bytes(e[20..24].try_into().unwrap());
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::Malformed("section bounds overflow".to_string()))?;
        if offset < table_end || end > file_len {
            return Err(StoreError::Truncated {
                expected: end,
                actual: file_len,
            });
        }
        infos.push(SectionInfo {
            kind,
            offset,
            len,
            crc,
        });
    }
    Ok(infos)
}

fn checked_section<'a>(bytes: &'a [u8], info: &SectionInfo) -> Result<&'a [u8], StoreError> {
    let payload = &bytes[info.offset as usize..(info.offset + info.len) as usize];
    if crc32(payload) != info.crc {
        return Err(StoreError::ChecksumMismatch { kind: info.kind });
    }
    Ok(payload)
}

impl SnapshotMeta {
    /// Reads a snapshot's self-description — header, section table, the
    /// small Meta section and each delta's fixed header — without loading
    /// or decoding the payload sections. Cheap on arbitrarily large
    /// snapshots: the chain length, parent checksums and epochs of every
    /// delta are reported (and the chain verified) from fixed-size
    /// delta-header reads.
    pub fn read(path: &Path) -> Result<SnapshotMeta, StoreError> {
        let mut f = std::fs::File::open(path)?;
        let file_len = f.metadata()?.len();
        // Header + table: bounded by MAX_SECTIONS, read in one go.
        let head_len =
            (file_len as usize).min(HEADER_LEN + MAX_SECTIONS as usize * TABLE_ENTRY_LEN);
        let mut head = vec![0u8; head_len];
        f.read_exact(&mut head)?;
        let sections = parse_table(&head, file_len)?;
        let meta_info = *sections
            .iter()
            .find(|s| s.kind == SectionKind::Meta)
            .ok_or(StoreError::MissingSection(SectionKind::Meta))?;
        let mut payload = vec![0u8; meta_info.len as usize];
        f.seek(SeekFrom::Start(meta_info.offset))?;
        f.read_exact(&mut payload)?;
        if crc32(&payload) != meta_info.crc {
            return Err(StoreError::ChecksumMismatch {
                kind: SectionKind::Meta,
            });
        }
        let mut meta = decode_meta(&payload, sections, file_len)?;
        let f = std::cell::RefCell::new(f);
        meta.deltas = verify_chain(&meta.sections, |info| {
            // Only the fixed header plus the op-count varint (≤ 10 bytes).
            let want = (info.len as usize).min(DELTA_HEADER_LEN + 10);
            let mut buf = vec![0u8; want];
            let mut f = f.borrow_mut();
            f.seek(SeekFrom::Start(info.offset))?;
            f.read_exact(&mut buf)?;
            decode_delta_head(&buf, info.crc)
        })?;
        Ok(meta)
    }
}

/// Reads and fully restores a snapshot: every section checksum is verified
/// before decoding, the decoded contents are cross-validated against the
/// meta section (counts, layout, id ranges), and the delta chain — checked
/// link by link — is replayed onto the base through the same
/// [`koios_index::live::apply_op`] a live engine mutates with, so the
/// restored state is byte-identical to the engine that appended the
/// deltas.
pub fn read_snapshot(path: &Path) -> Result<SnapshotState, StoreError> {
    let bytes = std::fs::read(path)?;
    let sections = parse_table(&bytes, bytes.len() as u64)?;

    let meta_info = sections
        .iter()
        .find(|s| s.kind == SectionKind::Meta)
        .copied()
        .ok_or(StoreError::MissingSection(SectionKind::Meta))?;
    let meta = decode_meta(
        checked_section(&bytes, &meta_info)?,
        sections.clone(),
        bytes.len() as u64,
    )?;

    let repo_info = sections
        .iter()
        .find(|s| s.kind == SectionKind::Repository)
        .copied()
        .ok_or(StoreError::MissingSection(SectionKind::Repository))?;
    let mut repository = decode_repository(checked_section(&bytes, &repo_info)?)?;
    if repository.num_sets() != meta.num_sets || repository.vocab_size() != meta.vocab_size {
        return Err(StoreError::Malformed(format!(
            "repository holds {} sets / {} tokens, meta records {} / {}",
            repository.num_sets(),
            repository.vocab_size(),
            meta.num_sets,
            meta.vocab_size
        )));
    }

    let mut embeddings = None;
    let mut indexes = Vec::new();
    for info in &sections {
        match info.kind {
            SectionKind::Meta | SectionKind::Repository => {}
            SectionKind::Delta => {} // replayed below, after the base is validated
            SectionKind::Embeddings => {
                if embeddings.is_some() {
                    return Err(StoreError::Malformed(
                        "duplicate embeddings section".to_string(),
                    ));
                }
                embeddings = Some(decode_embeddings(
                    checked_section(&bytes, info)?,
                    repository.vocab_size(),
                )?);
            }
            SectionKind::InvertedIndex => indexes.push(decode_inverted(
                checked_section(&bytes, info)?,
                repository.vocab_size(),
                repository.num_sets(),
            )?),
        }
    }

    if indexes.is_empty() {
        return Err(StoreError::MissingSection(SectionKind::InvertedIndex));
    }
    if indexes.len() != meta.num_indexes {
        return Err(StoreError::Malformed(format!(
            "{} inverted-index section(s) present, meta records {}",
            indexes.len(),
            meta.num_indexes
        )));
    }
    if embeddings.is_some() != meta.has_embeddings {
        return Err(StoreError::Malformed(
            "optional sections disagree with the meta section".to_string(),
        ));
    }

    // Replay the delta chain. Routing must match the engine that appended
    // the ops: the workspace's single shard-assignment function for
    // partitioned layouts, shard 0 for single ones.
    let mut meta = meta;
    let route: Box<dyn Fn(SetId) -> usize> = match meta.layout {
        SnapshotLayout::Single => Box::new(|_| 0),
        SnapshotLayout::Partitioned { partitions, seed } => {
            let n = partitions as usize;
            Box::new(move |id| koios_common::fingerprint::partition_of(seed, id, n))
        }
    };
    let mut tip = base_chain_tip(&sections);
    for info in sections.iter().filter(|s| s.kind == SectionKind::Delta) {
        let (parent_crc, epoch, ops) = decode_delta(checked_section(&bytes, info)?)?;
        if parent_crc != tip {
            return Err(StoreError::DeltaChainBroken {
                index: meta.deltas.len(),
                expected: tip,
                found: parent_crc,
            });
        }
        tip = info.crc;
        let mut index_refs: Vec<&mut InvertedIndex> = indexes.iter_mut().collect();
        for op in &ops {
            koios_index::live::apply_op(
                &mut repository,
                embeddings.as_mut(),
                &mut index_refs,
                None,
                &route,
                op,
            )
            .map_err(|e| {
                StoreError::Malformed(format!("delta {} replay failed: {e}", meta.deltas.len()))
            })?;
        }
        meta.deltas.push(DeltaInfo {
            parent_crc,
            crc: info.crc,
            epoch,
            ops: ops.len(),
        });
    }

    Ok(SnapshotState {
        meta,
        repository,
        embeddings,
        indexes,
    })
}

/// Appends one batch of [`CorpusOp`]s to an existing snapshot as a new
/// delta section, chained to the current tip by checksum. The base payloads
/// are copied byte-for-byte (their checksums — and therefore the chain —
/// are unchanged); the whole file is rewritten through the same
/// temp-then-rename discipline as [`write_snapshot`], so a crash mid-append
/// leaves the previous snapshot intact. Every existing section's checksum
/// is verified first, so corruption is caught at append time rather than
/// compounded.
///
/// `epoch` is the appending engine's corpus epoch after applying `ops`
/// (pure provenance — replay order alone defines the restored state).
pub fn append_delta(path: &Path, ops: &[CorpusOp], epoch: u64) -> Result<SnapshotMeta, StoreError> {
    let bytes = std::fs::read(path)?;
    let sections = parse_table(&bytes, bytes.len() as u64)?;
    // Verify everything we are about to copy, decode the meta section (so
    // a file this reader cannot load is refused, not appended to), and
    // find the chain tip.
    let mut tip = base_chain_tip(&sections);
    let mut delta_idx = 0usize;
    for info in &sections {
        let payload = checked_section(&bytes, info)?;
        if info.kind == SectionKind::Meta {
            decode_meta(payload, Vec::new(), 0)?;
        } else if info.kind == SectionKind::Delta {
            let head = &payload[..DELTA_HEADER_LEN.min(payload.len())];
            let parent_crc = Reader::new(head)
                .u32()
                .map_err(corrupt(SectionKind::Delta))?;
            if parent_crc != tip {
                return Err(StoreError::DeltaChainBroken {
                    index: delta_idx,
                    expected: tip,
                    found: parent_crc,
                });
            }
            tip = info.crc;
            delta_idx += 1;
        }
    }

    let delta = encode_delta(tip, epoch, ops);
    let mut laid_out: Vec<(SectionKind, u32, &[u8])> = sections
        .iter()
        .map(|info| {
            let payload = &bytes[info.offset as usize..(info.offset + info.len) as usize];
            (info.kind, info.crc, payload)
        })
        .collect();
    laid_out.push((SectionKind::Delta, crc32(&delta), &delta));
    write_file(path, &laid_out)?;

    SnapshotMeta::read(path)
}

/// Folds a snapshot's delta chain into a fresh base: fully restores the
/// file (replaying every delta) and rewrites it as a delta-free
/// snapshot of the end state. Tombstoned set slots survive compaction —
/// the id space stays dense, so ids recorded elsewhere stay valid — but
/// the chain provenance (epochs, parent checksums) is consumed; read the
/// meta first if it needs to be archived. Returns the new meta.
pub fn compact(path: &Path) -> Result<SnapshotMeta, StoreError> {
    let state = read_snapshot(path)?;
    write_snapshot(
        path,
        &SnapshotView {
            repository: &state.repository,
            embeddings: state.embeddings.as_ref(),
            layout: state.meta.layout,
            indexes: state.indexes.iter().collect(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Repository, Embeddings, InvertedIndex) {
        let mut b = RepositoryBuilder::new();
        b.add_set("cities", ["LA", "Blain", "Appleton", "MtPleasant"]);
        b.add_set("coast", ["LA", "Sacramento", "SC"]);
        b.add_set("dup", ["LA"]);
        let repo = b.build();
        let mut emb = Embeddings::new(4, repo.vocab_size());
        emb.set(TokenId(0), &[1.0, 2.0, 3.0, 4.0]);
        emb.set(TokenId(2), &[0.5, -0.5, 0.25, 0.0]);
        let index = InvertedIndex::build(&repo);
        (repo, emb, index)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("koios-store-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_roundtrip_restores_everything() {
        let (repo, emb, index) = sample();
        let path = tmp("full.ksnap");
        let meta = write_snapshot(
            &path,
            &SnapshotView {
                repository: &repo,
                embeddings: Some(&emb),
                layout: SnapshotLayout::Single,
                indexes: vec![&index],
            },
        )
        .unwrap();
        assert_eq!(meta.layout, SnapshotLayout::Single);
        assert_eq!(meta.num_sets, 3);
        assert!(meta.has_embeddings);

        let state = read_snapshot(&path).unwrap();
        assert_eq!(state.meta, meta);
        assert_eq!(state.repository.num_sets(), repo.num_sets());
        for (id, set) in repo.iter_sets() {
            assert_eq!(state.repository.set(id), set);
            assert_eq!(state.repository.set_name(id), repo.set_name(id));
        }
        let remb = state.embeddings.unwrap();
        assert_eq!(remb.raw_data(), emb.raw_data());
        assert_eq!(remb.present_mask(), emb.present_mask());
        assert_eq!(state.indexes.len(), 1);
        for t in 0..repo.vocab_size() as u32 {
            assert_eq!(
                state.indexes[0].postings(TokenId(t)),
                index.postings(TokenId(t))
            );
        }
    }

    #[test]
    fn meta_read_skips_payloads() {
        let (repo, emb, index) = sample();
        let path = tmp("meta.ksnap");
        let written = write_snapshot(
            &path,
            &SnapshotView {
                repository: &repo,
                embeddings: Some(&emb),
                layout: SnapshotLayout::Single,
                indexes: vec![&index],
            },
        )
        .unwrap();
        let meta = SnapshotMeta::read(&path).unwrap();
        assert_eq!(meta, written);
        assert_eq!(meta.vocab_size, repo.vocab_size());
    }

    #[test]
    fn partitioned_layout_roundtrips_shard_order() {
        let (repo, _, _) = sample();
        let shard0 = InvertedIndex::build_subset(&repo, [SetId(0), SetId(2)]);
        let shard1 = InvertedIndex::build_subset(&repo, [SetId(1)]);
        let path = tmp("parted.ksnap");
        write_snapshot(
            &path,
            &SnapshotView {
                repository: &repo,
                embeddings: None,
                layout: SnapshotLayout::Partitioned {
                    partitions: 2,
                    seed: 7,
                },
                indexes: vec![&shard0, &shard1],
            },
        )
        .unwrap();
        let state = read_snapshot(&path).unwrap();
        assert_eq!(
            state.meta.layout,
            SnapshotLayout::Partitioned {
                partitions: 2,
                seed: 7
            }
        );
        assert_eq!(state.indexes.len(), 2);
        assert_eq!(state.indexes[0].total_postings(), shard0.total_postings());
        assert_eq!(state.indexes[1].total_postings(), shard1.total_postings());
    }

    #[test]
    fn wrong_index_count_is_rejected_at_write_time() {
        let (repo, _, index) = sample();
        let err = write_snapshot(
            &tmp("badcount.ksnap"),
            &SnapshotView {
                repository: &repo,
                embeddings: None,
                layout: SnapshotLayout::Partitioned {
                    partitions: 3,
                    seed: 0,
                },
                indexes: vec![&index],
            },
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_snapshot(Path::new("/nonexistent/koios.ksnap")).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        let err = SnapshotMeta::read(Path::new("/nonexistent/koios.ksnap")).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::LayoutMismatch {
            expected: "single",
            found: "partitioned(4)".to_string(),
        };
        assert!(e.to_string().contains("partitioned(4)"));
        let e = StoreError::ChecksumMismatch {
            kind: SectionKind::Repository,
        };
        assert!(e.to_string().contains("repository"));
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        let e = StoreError::DeltaChainBroken {
            index: 2,
            expected: 0xAB,
            found: 0xCD,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("delta 2") && msg.contains("0x000000ab") && msg.contains("0x000000cd")
        );
    }

    fn write_sample_base(path: &Path) -> (Repository, Embeddings) {
        let (repo, emb, index) = sample();
        write_snapshot(
            path,
            &SnapshotView {
                repository: &repo,
                embeddings: Some(&emb),
                layout: SnapshotLayout::Single,
                indexes: vec![&index],
            },
        )
        .unwrap();
        (repo, emb)
    }

    fn sample_ops() -> Vec<CorpusOp> {
        vec![
            CorpusOp::Insert {
                name: "valley".into(),
                tokens: vec!["Fresno".into(), "LA".into()],
                vectors: vec![("Fresno".into(), vec![0.1, 0.2, 0.3, 0.4])],
            },
            CorpusOp::remove(SetId(1)),
        ]
    }

    #[test]
    fn tombstones_roundtrip_through_the_base() {
        let (mut repo, emb, _) = sample();
        repo.remove_set(SetId(2));
        let index = InvertedIndex::build(&repo);
        let path = tmp("tombstoned-base.ksnap");
        write_snapshot(
            &path,
            &SnapshotView {
                repository: &repo,
                embeddings: Some(&emb),
                layout: SnapshotLayout::Single,
                indexes: vec![&index],
            },
        )
        .unwrap();
        let state = read_snapshot(&path).unwrap();
        assert_eq!(state.repository.num_sets(), 3);
        assert!(!state.repository.is_live(SetId(2)));
        assert!(state.repository.is_live(SetId(0)));
        // The tombstoned slot stays readable, exactly like the original.
        assert_eq!(state.repository.set(SetId(2)), repo.set(SetId(2)));
    }

    #[test]
    fn delta_replay_equals_in_memory_mutation() {
        let path = tmp("delta-replay.ksnap");
        let (mut repo, mut emb) = write_sample_base(&path);
        let ops = sample_ops();
        let meta = append_delta(&path, &ops, 1).unwrap();
        assert_eq!(meta.format_version, FORMAT_VERSION);
        assert_eq!(meta.deltas.len(), 1);
        assert_eq!(meta.deltas[0].epoch, 1);
        assert_eq!(meta.deltas[0].ops, 2);
        assert_eq!(meta.latest_epoch(), 1);

        // Reference: the same ops applied in memory to the same base.
        let mut index = InvertedIndex::build(&repo);
        for op in &ops {
            koios_index::live::apply_op(
                &mut repo,
                Some(&mut emb),
                &mut [&mut index],
                None,
                &|_| 0,
                op,
            )
            .unwrap();
        }

        let state = read_snapshot(&path).unwrap();
        assert_eq!(state.meta.deltas, meta.deltas);
        assert_eq!(state.repository.num_sets(), repo.num_sets());
        assert!(!state.repository.is_live(SetId(1)));
        let fresno = state.repository.token_id("Fresno").unwrap();
        let remb = state.embeddings.unwrap();
        assert_eq!(remb.raw_data(), emb.raw_data());
        assert_eq!(remb.present_mask(), emb.present_mask());
        assert!(remb.has(fresno));
        for t in 0..repo.vocab_size() as u32 {
            assert_eq!(
                state.indexes[0].postings(TokenId(t)),
                index.postings(TokenId(t))
            );
        }
    }

    #[test]
    fn delta_chain_links_by_checksum() {
        let path = tmp("delta-chain.ksnap");
        write_sample_base(&path);
        append_delta(&path, &[CorpusOp::insert("x", ["LA"])], 1).unwrap();
        let meta = append_delta(&path, &[CorpusOp::insert("y", ["SC"])], 2).unwrap();
        assert_eq!(meta.deltas.len(), 2);
        assert_eq!(meta.deltas[1].parent_crc, meta.deltas[0].crc);
        assert_eq!(meta.latest_epoch(), 2);
        // Cheap inspection agrees with the full read.
        let state = read_snapshot(&path).unwrap();
        assert_eq!(state.meta.deltas, meta.deltas);
        assert_eq!(state.repository.num_sets(), 5);
    }

    #[test]
    fn bit_flips_in_delta_sections_are_typed_errors() {
        let path = tmp("delta-flip.ksnap");
        write_sample_base(&path);
        append_delta(&path, &sample_ops(), 1).unwrap();
        let good = std::fs::read(&path).unwrap();
        let meta = SnapshotMeta::read(&path).unwrap();
        let info = *meta
            .sections
            .iter()
            .find(|s| s.kind == SectionKind::Delta)
            .unwrap();
        // Flip one bit at every byte of the delta payload: each read must
        // fail with a typed error (checksum or chain), never panic.
        for at in info.offset..info.offset + info.len {
            let mut bad = good.clone();
            bad[at as usize] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let err = read_snapshot(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch {
                        kind: SectionKind::Delta
                    } | StoreError::DeltaChainBroken { .. }
                ),
                "offset {at}: {err}"
            );
            // Appending to a corrupt file must refuse, not compound.
            assert!(append_delta(&path, &[CorpusOp::insert("z", ["LA"])], 9).is_err());
        }
        std::fs::write(&path, &good).unwrap();
        assert!(read_snapshot(&path).is_ok());
    }

    #[test]
    fn rewriting_the_base_breaks_the_chain() {
        let path = tmp("delta-rebase.ksnap");
        let (repo, _) = write_sample_base(&path);
        append_delta(&path, &sample_ops(), 1).unwrap();
        let with_delta = std::fs::read(&path).unwrap();

        // Write a *different* base (no embeddings), then graft the old
        // delta section onto it by re-appending its bytes: parent checksum
        // no longer matches the folded base checksums.
        let index = InvertedIndex::build(&repo);
        write_snapshot(
            &path,
            &SnapshotView {
                repository: &repo,
                embeddings: None, // dropped section: base checksum fold changes
                layout: SnapshotLayout::Single,
                indexes: vec![&index],
            },
        )
        .unwrap();
        let meta = SnapshotMeta::read(&path).unwrap();
        let delta_info = {
            let m = {
                std::fs::write(tmp("delta-rebase-probe.ksnap"), &with_delta).unwrap();
                SnapshotMeta::read(&tmp("delta-rebase-probe.ksnap")).unwrap()
            };
            *m.sections
                .iter()
                .find(|s| s.kind == SectionKind::Delta)
                .unwrap()
        };
        let delta_bytes =
            &with_delta[delta_info.offset as usize..(delta_info.offset + delta_info.len) as usize];

        // Hand-assemble base + stale delta.
        let base = std::fs::read(&path).unwrap();
        let count = meta.sections.len() + 1;
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&(count as u32).to_le_bytes());
        let shift = TABLE_ENTRY_LEN as u64;
        let mut tail_offset = 0;
        for info in &meta.sections {
            file.extend_from_slice(&info.kind.to_u32().to_le_bytes());
            file.extend_from_slice(&(info.offset + shift).to_le_bytes());
            file.extend_from_slice(&info.len.to_le_bytes());
            file.extend_from_slice(&info.crc.to_le_bytes());
            tail_offset = tail_offset.max(info.offset + shift + info.len);
        }
        file.extend_from_slice(&SectionKind::Delta.to_u32().to_le_bytes());
        file.extend_from_slice(&tail_offset.to_le_bytes());
        file.extend_from_slice(&(delta_bytes.len() as u64).to_le_bytes());
        file.extend_from_slice(&crc32(delta_bytes).to_le_bytes());
        file.extend_from_slice(&base[HEADER_LEN + meta.sections.len() * TABLE_ENTRY_LEN..]);
        file.extend_from_slice(delta_bytes);
        std::fs::write(&path, &file).unwrap();

        let err = read_snapshot(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::DeltaChainBroken { index: 0, .. }),
            "{err}"
        );
        let err = SnapshotMeta::read(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::DeltaChainBroken { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn compact_folds_the_chain_into_a_fresh_base() {
        let path = tmp("delta-compact.ksnap");
        write_sample_base(&path);
        append_delta(&path, &sample_ops(), 1).unwrap();
        append_delta(&path, &[CorpusOp::insert("y", ["SC", "Yuma"])], 2).unwrap();
        let before = read_snapshot(&path).unwrap();

        let meta = compact(&path).unwrap();
        assert!(meta.deltas.is_empty());
        assert_eq!(meta.num_sets, before.repository.num_sets());

        let after = read_snapshot(&path).unwrap();
        assert_eq!(after.repository.num_sets(), before.repository.num_sets());
        assert_eq!(
            after.repository.tombstones().collect::<Vec<_>>(),
            before.repository.tombstones().collect::<Vec<_>>()
        );
        let aemb = after.embeddings.unwrap();
        let bemb = before.embeddings.unwrap();
        assert_eq!(aemb.raw_data(), bemb.raw_data());
        assert_eq!(aemb.present_mask(), bemb.present_mask());
        for t in 0..after.repository.vocab_size() as u32 {
            assert_eq!(
                after.indexes[0].postings(TokenId(t)),
                before.indexes[0].postings(TokenId(t))
            );
        }
        // Further deltas chain onto the compacted base.
        let meta = append_delta(&path, &[CorpusOp::remove(SetId(0))], 3).unwrap();
        assert_eq!(meta.deltas.len(), 1);
        assert!(!read_snapshot(&path).unwrap().repository.is_live(SetId(0)));
    }

    #[test]
    fn v1_files_are_rejected_as_unsupported() {
        let path = tmp("v1-rejected.ksnap");
        write_sample_base(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let refused = |result: Result<(), StoreError>| {
            let err = result.unwrap_err();
            assert!(matches!(err, StoreError::UnsupportedVersion(1)), "{err}");
        };
        refused(read_snapshot(&path).map(drop));
        refused(SnapshotMeta::read(&path).map(drop));
        refused(append_delta(&path, &[CorpusOp::insert("x", ["LA"])], 1).map(drop));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "file left untouched");
    }

    #[test]
    fn delta_replay_of_a_bad_op_is_a_typed_error() {
        let path = tmp("delta-badop.ksnap");
        write_sample_base(&path);
        // Removing a set that does not exist decodes fine but cannot replay.
        append_delta(&path, &[CorpusOp::remove(SetId(77))], 1).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("replay"));

        // A row carrying NaN decodes fine but cannot replay either.
        write_sample_base(&path);
        let op = CorpusOp::Insert {
            name: "valley".into(),
            tokens: vec!["Fresno".into()],
            vectors: vec![("Fresno".into(), vec![0.1, f32::NAN, 0.3, 0.4])],
        };
        append_delta(&path, &[op], 1).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");

        // The base decoder holds a stored table to the same rule.
        let (repo, mut emb, index) = sample();
        emb.set_raw_row(TokenId(1), &[0.5, f32::NAN, 0.0, 0.0]);
        let view = SnapshotView {
            repository: &repo,
            embeddings: Some(&emb),
            layout: SnapshotLayout::Single,
            indexes: vec![&index],
        };
        write_snapshot(&path, &view).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("token 1"), "{err}");
    }
}
