//! Integer coding for QBISM REGION compression.
//!
//! Section 4.2 of the paper studies how to store the h-run representation
//! of a REGION compactly.  It views a REGION as an alternating sequence of
//! *deltas* (run lengths and gap lengths along the Hilbert curve), measures
//! that delta lengths follow a power law `count ~ length^-a` with
//! `a ≈ 1.5–1.7` (EQ 1), rules out codes tailored to geometric
//! distributions (Golomb run-length codes, variable-length fixed-increment
//! codes), and picks the **Elias γ code**, which lands within a factor
//! ~1.17 of the empirical entropy bound (EQ 2, Figure 4).
//!
//! This crate supplies everything that study needs:
//!
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit-level I/O;
//! * [`EliasGamma`] — the universal code the paper picks;
//! * [`Golomb`] and [`Rice`] — the geometric-distribution codes the paper
//!   rejects (implemented so the rejection can be *measured*);
//! * [`Histogram`] — the EQ 2 entropy lower bound and the EQ 1 power-law fit.
//!
//! All codes implement [`IntCodec`] over strictly positive integers
//! (delta lengths are always ≥ 1).
//!
//! Beyond the offline Figure 4 study, the crate carries the one
//! *queryable* compressed REGION representation — a compact form a
//! kernel can merge and seek without decompressing:
//!
//! * [`write_uvarint`] / [`read_uvarint`] — byte-aligned LEB128 varints
//!   hardened against truncated and over-long input;
//! * [`k3tree`] — a k³-tree octree directory whose leaves are
//!   delta+varint run blocks ([`K3Cursor`] prunes subtrees by popcount
//!   and leaves by byte length);
//! * [`RunCursor`] — the streaming trait `qbism_region`'s kernels merge
//!   over.  [`K3Cursor`] is a *block* cursor: a leaf is decoded once
//!   into a small buffer and `peek` / `advance` / `seek` are answered
//!   from it.
//!
//! [`runcode`] (a flat skip-block run list) stores no REGION; it is kept
//! only for the frozen benchmark probes that compile against it.
//!
//! # Example
//!
//! ```
//! use qbism_coding::{BitReader, BitWriter, EliasGamma, IntCodec};
//!
//! let lengths = [1u64, 7, 2, 1, 300, 4];
//! let mut w = BitWriter::new();
//! for &v in &lengths {
//!     EliasGamma.encode(&mut w, v).unwrap();
//! }
//! let bytes = w.finish();
//! let mut r = BitReader::new(&bytes);
//! for &v in &lengths {
//!     assert_eq!(EliasGamma.decode(&mut r).unwrap(), v);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitio;
mod codecs;
mod entropy;
pub mod k3tree;
pub mod runcode;
mod varint;

pub use bitio::{BitReader, BitWriter};
pub use codecs::{EliasGamma, Golomb, IntCodec, Rice};
pub use entropy::Histogram;
pub use k3tree::K3Cursor;
pub use runcode::RunListCursor;
pub use varint::{read_uvarint, write_uvarint, MAX_VARINT_BYTES};

/// A streaming cursor over a compressed REGION's maximal `(start, end)`
/// run list, in increasing id order.
///
/// This is the merge contract for compressed-domain kernels: intersect,
/// union, difference and range restriction consume two (or k) cursors
/// and emit runs without ever materializing a decoded run vector.
///
/// # Seek contract
///
/// `seek(target)` positions the cursor on the first run whose *end* is
/// `>= target`.  A block-skipping implementation may clip the reported
/// run's start upward (never past `target`): every id `>= target` is
/// reported exactly, ids below `target` may be elided.  Merges only
/// consume ids `>= target` after a seek, so results are unaffected.
pub trait RunCursor {
    /// Current run, or `None` once the stream is exhausted.
    fn peek(&self) -> Option<(u64, u64)>;
    /// Steps to the next run in id order.
    fn advance(&mut self) -> Result<()>;
    /// Gallops forward to the first run with `end >= target`.
    /// Never moves backward; seeking behind the current run is a no-op.
    fn seek(&mut self, target: u64) -> Result<()>;
    /// Number of skip-jumps taken so far (blocks or subtrees bypassed
    /// without run assembly) — the observable win of queryability.
    fn skips(&self) -> u64;
}

/// Index of the first of `runs` (ends increasing) whose end reaches
/// `target`, `runs.len()` if none does — the in-block half of a block
/// cursor's `seek`.  An exponential probe then a binary search of the
/// last window: O(log skip), two compares when the first or second run
/// already suffices.
pub(crate) fn first_reaching(runs: &[(u64, u64)], target: u64) -> usize {
    let (mut base, mut step) = (0usize, 1usize);
    while runs.get(base + step).is_some_and(|&(_, end)| end < target) {
        base += step;
        step <<= 1;
    }
    let window = runs.get(base..(base + step).min(runs.len())).unwrap_or_default();
    base + window.partition_point(|&(_, end)| end < target)
}

/// Errors raised by encoders and decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// A value outside the codec's domain was supplied (e.g. zero for a
    /// code over positive integers, or an id width the k³-tree cannot
    /// take).
    ValueOutOfDomain {
        /// The offending value.
        value: u64,
        /// Name of the codec that rejected it.
        codec: &'static str,
    },
    /// The reader ran out of bits mid-codeword: the stream is truncated
    /// or was encoded with a different codec.
    UnexpectedEnd,
    /// A structurally invalid codeword was encountered (e.g. a unary
    /// prefix longer than any encodable value).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodingError::ValueOutOfDomain { value, codec } => {
                write!(f, "value {value} is outside the domain of codec {codec}")
            }
            CodingError::UnexpectedEnd => write!(f, "bit stream ended inside a codeword"),
            CodingError::Corrupt(what) => write!(f, "corrupt code stream: {what}"),
        }
    }
}

impl std::error::Error for CodingError {}

/// Result alias for coding operations.
pub type Result<T> = std::result::Result<T, CodingError>;
