//! # gt-store — keyed multi-tenant sketch store
//!
//! One process, millions of small coordinated GT sketches, production
//! memory behavior. [`SketchStore`] keys each sketch by `u64` and layers
//! three mechanisms (see [`store`] for the full design):
//!
//! 1. **Arena-packed state** ([`arena`]) — per-shard slab arenas with
//!    power-of-two slot classes and free-list reuse; no per-key `Vec`s.
//! 2. **Sharded concurrent ingest** ([`store`]) — `(key, label)` batches
//!    staged, sorted by `(shard, key)`, and applied per key-run under one
//!    shard lock acquisition per batch.
//! 3. **Eviction + spill** ([`spill`]) — approximate-LRU eviction of cold
//!    keys under a byte budget, through the canonical codec to a per-shard
//!    on-disk log, restored bitwise-identically on the next touch.
//!
//! The store's contract with correctness is simple to state and is tested
//! property-style: for every key, whichever tier it is in and however many
//! evict/restore cycles it went through,
//! [`SketchStore::canonical_bytes`] equals `encode_sketch` of a standalone
//! [`gt_core::GtSketch`] fed that key's labels in arrival order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod metrics;
pub mod spill;
pub mod store;

pub use arena::{SketchHandle, SlotArena};
pub use metrics::StoreMetricsSnapshot;
pub use spill::SpillLog;
pub use store::{DistinctStore, SketchStore, StoreOptions, StorePayload, STORE_STAGE};

use gt_streams::CodecError;

/// Errors a [`SketchStore`] can surface: sketch-level coordination errors,
/// spill-log I/O, and canonical-codec failures while restoring.
#[derive(Debug)]
pub enum StoreError {
    /// Sketch-level error (coordination, invalid state).
    Sketch(gt_core::SketchError),
    /// Canonical-codec error while encoding or restoring spilled state.
    Codec(CodecError),
    /// Spill-log I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Sketch(e) => write!(f, "sketch error: {e}"),
            StoreError::Codec(e) => write!(f, "spill codec error: {e}"),
            StoreError::Io(e) => write!(f, "spill io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Sketch(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<gt_core::SketchError> for StoreError {
    fn from(e: gt_core::SketchError) -> Self {
        StoreError::Sketch(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Store-level result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
