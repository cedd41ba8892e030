//! Shared infrastructure for the Koios experiment harness.
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! evaluation section (§VIII) as formatted text; the `harness` binary is a
//! thin CLI over it. [`setup`] holds the corpus/benchmark plumbing the
//! experiments share. Serving-side measurement lives in `bench/ledger`.

pub mod experiments;
pub mod setup;
pub mod table;

pub use setup::{setup_profile, ProfileRun};
pub use table::TextTable;
