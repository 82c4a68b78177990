//! The Long Field Manager (LFM) — QBISM's storage substrate.
//!
//! "The Long Field Manager stores long fields directly in an operating
//! system disk device (not a file system) using a buddy allocation scheme
//! to promote contiguity, thereby exploiting the clustering properties of
//! the Hilbert curve.  The LFM supports fast random I/O to arbitrary
//! pieces of long fields directly to and from client memory without
//! internal buffering." (Section 5.1, after Lehman & Lindsay, VLDB '89)
//!
//! This crate reproduces that component over a simulated raw device:
//!
//! * [`BuddyAllocator`] — power-of-two block allocation in pages;
//! * [`LongFieldManager`] — create/read/write/delete long fields, with
//!   **piece reads** (the `read_pieces` path EXTRACT_DATA uses) that
//!   coalesce touched pages and never buffer, and whole-field **object
//!   reads** (`read_object`) that keep each field's decoded object, with
//!   the page cache off or on, so it is decoded once while it stays
//!   cached (host memory bounded by the device's data-area bytes; only
//!   the page cache models a buffer);
//! * [`IoStats`] — exact 4 KiB I/O counts, the unit Tables 3 and 4 report;
//! * [`DiskModel`] — converts counts into simulated seconds calibrated to
//!   the paper's 1994 RS/6000-530 testbed, so the *shape* of the real-time
//!   columns can be reproduced on modern hardware.
//!
//! # Example
//!
//! ```
//! use qbism_lfm::{DiskModel, LongFieldManager};
//!
//! let mut lfm = LongFieldManager::new(1 << 20, 4096).unwrap();
//! let id = lfm.create(&vec![7u8; 10_000]).unwrap();
//! lfm.reset_stats();
//! let piece = lfm.read_piece(id, 5_000, 100).unwrap();
//! assert_eq!(piece, vec![7u8; 100]);
//! assert_eq!(lfm.stats().pages_read, 1); // one 4 KiB page touched
//! let secs = DiskModel::RS6000_1994.seconds(&lfm.stats());
//! assert!(secs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "page and extent indices derive from the geometry math that sized the device"
)]
#![warn(missing_docs)]

mod acct;
mod buddy;
mod cache;
mod device;
mod journal;
mod manager;
mod model;
mod objects;

pub use acct::IoBracket;
pub use buddy::BuddyAllocator;
pub use cache::{CacheConfig, CacheStats};
pub use manager::{LongFieldId, LongFieldManager, MetaStats, RecoveryReport};
pub use model::{DiskModel, IoStats};

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfmError {
    /// The device has no free block large enough.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
    },
    /// Unknown long-field id (deleted or never created).
    NoSuchField(u64),
    /// A read or write runs past the end of the field.
    OutOfBounds {
        /// Field length in bytes.
        field_len: u64,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
    },
    /// The pieces of a vectored read are not sorted by offset, or
    /// overlap.
    UnsortedPieces {
        /// Index of the first piece that starts before its predecessor
        /// ends.
        index: usize,
    },
    /// Device geometry is invalid (zero page size, capacity not a
    /// multiple of the page size, …).
    BadGeometry(&'static str),
    /// A `(offset, order)` pair handed to [`BuddyAllocator::free`] does
    /// not name a live allocation: double free, misaligned offset, or
    /// wrong order.
    InvalidFree {
        /// Page offset of the rejected free.
        offset: u64,
        /// Order of the rejected free.
        order: u32,
    },
    /// The simulated device reported an I/O error for this operation
    /// (injected by the fault plane).
    DeviceFault {
        /// The fault site that errored, e.g. `"lfm.write"`.
        op: &'static str,
    },
    /// The simulated machine has crashed: the device refuses all
    /// traffic until [`LongFieldManager::recover`] runs.
    Crashed,
    /// On-device metadata failed validation (bad superblock, snapshot
    /// or journal checksums, allocator/directory disagreement).
    CorruptMetadata(String),
}

impl std::fmt::Display for LfmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LfmError::OutOfSpace { requested } => {
                write!(f, "device full: cannot allocate {requested} bytes")
            }
            LfmError::NoSuchField(id) => write!(f, "no long field with id {id}"),
            LfmError::OutOfBounds { field_len, offset, len } => {
                write!(f, "access [{offset}, {offset}+{len}) outside field of {field_len} bytes")
            }
            LfmError::UnsortedPieces { index } => {
                write!(f, "piece {index} starts before the previous piece ends")
            }
            LfmError::BadGeometry(what) => write!(f, "bad device geometry: {what}"),
            LfmError::InvalidFree { offset, order } => {
                write!(f, "invalid free: no live block at page {offset} with order {order}")
            }
            LfmError::DeviceFault { op } => write!(f, "simulated device fault during {op}"),
            LfmError::Crashed => {
                write!(f, "simulated device crashed; recover() before further I/O")
            }
            LfmError::CorruptMetadata(what) => write!(f, "corrupt device metadata: {what}"),
        }
    }
}

impl std::error::Error for LfmError {}

/// Result alias for LFM operations.
pub type Result<T> = std::result::Result<T, LfmError>;
