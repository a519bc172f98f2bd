//! # gt-store — keyed multi-tenant sketch store
//!
//! One process, millions of small coordinated GT sketches, production
//! memory behavior. [`SketchStore`] keys each sketch by `u64` and layers
//! three mechanisms (see [`store`] for the full design):
//!
//! 1. **Packed state** — each resident key owns one slot of `u64` words
//!    (its packed sketch section plus a buffer of unhashed labels), sized
//!    in power-of-two multiples of the smallest slot and dropped when the
//!    key is evicted.
//! 2. **Sharded concurrent ingest** — `(key, label)` batches staged,
//!    sorted by `(shard, key)`, and applied per key-run under one shard
//!    lock acquisition per batch.
//! 3. **Eviction + spill** — approximate-LRU eviction of cold keys under a
//!    byte budget: the key's packed words, checksummed, go to a per-shard
//!    on-disk log and are checked and restored bitwise-identically on the
//!    next touch.
//!
//! The store's contract with correctness is simple to state and is tested
//! property-style: for every key, whichever tier it is in and however many
//! evict/restore cycles it went through,
//! [`SketchStore::canonical_bytes`] equals `encode_sketch` of a standalone
//! [`gt_core::GtSketch`] fed that key's labels in arrival order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
mod spill;
pub mod store;

pub use metrics::StoreMetricsSnapshot;
pub use store::{DistinctStore, SketchStore, StoreOptions, StorePayload, STORE_STAGE};

/// Errors a [`SketchStore`] can surface: sketch-level errors, a spill
/// record that fails its checks on restore, and spill-log I/O.
#[derive(Debug)]
pub enum StoreError {
    /// Sketch-level error (an ingested label outside the field).
    Sketch(gt_core::SketchError),
    /// A spill record failed its checksum or a structural check while
    /// restoring; the string names the first failed check. The key stays
    /// spilled, and every later restore of it fails the same way.
    CorruptRecord(String),
    /// Spill-log I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Sketch(e) => write!(f, "sketch error: {e}"),
            StoreError::CorruptRecord(reason) => write!(f, "corrupt spill record: {reason}"),
            StoreError::Io(e) => write!(f, "spill io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Sketch(e) => Some(e),
            StoreError::CorruptRecord(_) => None,
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<gt_core::SketchError> for StoreError {
    fn from(e: gt_core::SketchError) -> Self {
        StoreError::Sketch(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Store-level result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
