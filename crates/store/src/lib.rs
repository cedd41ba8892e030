//! Versioned binary snapshots of query-ready Koios state.
//!
//! Every layer above this crate assumes the repository, token vectors and
//! indexes already exist in memory; before `koios-store`, a process restart
//! threw all of them away and rebuilt from scratch. This crate makes that
//! state durable: save a query-ready engine once
//! ([`snapshot::write_snapshot`]), restart, and warm-start in a fraction of
//! the build time ([`snapshot::read_snapshot`]) — with byte-identical
//! search results, because vectors and indexes are restored bit-exactly
//! rather than recomputed.
//!
//! The format is a hand-rolled little-endian container in the same
//! dependency-free spirit as `koios-common::json`: an 8-byte magic, a
//! format version, a section table, and one CRC-32 per section
//! (`Meta` / `Repository` / `Embeddings` / `InvertedIndex` × shards /
//! `Delta` × appends — see [`snapshot`] for the byte layout). Corruption of any
//! kind — truncation, flipped bits, an alien file, a newer format — fails
//! with a typed [`StoreError`], never a panic.
//!
//! Two layers:
//!
//! * [`codec`] — primitive little-endian writers and bounds-checked
//!   readers: fixed-width ints/floats, varints, length-prefixed strings,
//!   delta-encoded sorted id sequences, and the CRC-32.
//! * [`snapshot`] — the section container: [`write_snapshot`]
//!   (temp-file + rename), [`read_snapshot`] (verify-then-decode, replaying
//!   any appended delta sections), [`SnapshotMeta::read`] for cheap
//!   inspection without loading payloads, plus the live-corpus surface:
//!   [`append_delta`] chains a batch of corpus ops onto an existing
//!   snapshot by checksum, and [`compact`] folds the chain back into a
//!   fresh base.
//!
//! Entry points for applications live one level up:
//! `EngineBackend::{write_snapshot, from_snapshot}` in `koios-core`
//! restores a ready-to-serve engine (single or sharded) in one call, and
//! `SearchService::from_snapshot` in `koios-service` warm-starts a whole
//! serving stack.
//!
//! [`write_snapshot`]: snapshot::write_snapshot
//! [`read_snapshot`]: snapshot::read_snapshot
//! [`SnapshotMeta::read`]: snapshot::SnapshotMeta::read
//! [`append_delta`]: snapshot::append_delta
//! [`compact`]: snapshot::compact

pub mod codec;
pub mod snapshot;

pub use codec::{crc32, CodecError, Reader, Writer};
pub use snapshot::{
    append_delta, compact, read_snapshot, write_snapshot, DeltaInfo, SectionInfo, SectionKind,
    SnapshotLayout, SnapshotMeta, SnapshotState, SnapshotView, StoreError, FORMAT_VERSION,
    SNAPSHOT_EXT,
};
