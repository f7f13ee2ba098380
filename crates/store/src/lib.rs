//! Persistent content-addressed verdict store.
//!
//! The in-process [`ArtifactCache`] (in `funtal-driver`) keys parse,
//! typecheck, lower, and compile artifacts on full content with stable
//! FNV-1a digests as the reported addresses. This crate adds the tier
//! below it: a disk-backed store so a *second process* (a `serve`
//! restart, the next CI job) starts warm.
//!
//! Only the work worth replaying is persisted: the FT typecheck
//! *verdicts* of the check and compile stages. Parsing and lowering
//! are cheaper to redo than to load, so they stay in memory. The store
//! moves opaque byte payloads; the driver encodes each verdict as
//! canonical type text and re-parses it on load.
//!
//! `disk` holds [`DiskStore`]: atomic temp-file + rename writes, a
//! container header that stores the *full key* (so a 64-bit digest
//! collision can never serve a wrong artifact), checksums, per-stage
//! hit/miss/reject counters, and size-capped mtime-LRU eviction.
//!
//! [`ArtifactCache`]: https://docs.rs/funtal-driver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;

pub use disk::{parse_container, DiskStore, Stage, StageDiskStats, StoreStats, FORMAT_VERSION};
