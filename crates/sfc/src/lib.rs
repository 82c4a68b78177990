//! Space-filling curves for the QBISM reproduction.
//!
//! QBISM (Arya et al., ICDE 1994) stores both of its spatial data types on
//! linear orders derived from space-filling curves:
//!
//! * a `VOLUME` (a dense 3-D scalar field) is stored as a list of intensity
//!   values sorted in **Hilbert** order, so that spatially compact query
//!   regions touch few disk pages;
//! * a `REGION` (an arbitrary set of voxels) is stored as a list of **runs**
//!   of consecutive curve positions.
//!
//! This crate provides the curve machinery: the Morton (Z) curve, the
//! Hilbert curve, and a plain scanline order (used as a baseline), all in
//! arbitrary dimension with fast specializations for 2-D and 3-D.
//!
//! # Conventions
//!
//! * Grids are `2^bits` cells per axis; `bits * dims <= 63` so every curve
//!   index fits in a `u64`.
//! * Axis 0 is the most significant axis at each level of the recursive
//!   decomposition.  For the 2-D Morton curve on a 4x4 grid this yields
//!   `z-id = x1 y1 x0 y0`, exactly the convention used in Figure 2 of the
//!   paper (the cell at `x=01, y=00` has z-id `0010` = 2).
//! * The Hilbert curve uses the orientation that reproduces Table 2 of the
//!   paper on the Figure 3 example region (see `hilbert` module tests).
//!
//! # Example
//!
//! ```
//! use qbism_sfc::{CurveKind, SpaceFillingCurve};
//!
//! // A 128x128x128 grid, the atlas-space resolution used throughout QBISM.
//! let h = CurveKind::Hilbert.curve(3, 7);
//! let idx = h.index_of(&[10, 20, 30]);
//! let mut back = [0u32; 3];
//! h.coords_of(idx, &mut back);
//! assert_eq!(back, [10, 20, 30]);
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "curve tables and coordinate buffers are sized by the dims and bits that validate_geometry admits"
)]
#![warn(missing_docs)]

mod curve;
mod hilbert;
mod morton;
mod scanline;
mod walk;

pub use curve::{Curve, CurveKind, SpaceFillingCurve};
pub use hilbert::HilbertCurve;
pub use morton::MortonCurve;
pub use scanline::ScanlineCurve;
pub use walk::Walk3;

/// Maximum supported total index width in bits (indices are `u64`).
pub const MAX_INDEX_BITS: u32 = 63;

/// Validates a `(dims, bits)` pair, panicking with a clear message when the
/// resulting index would not fit in a `u64` or the dimension is degenerate.
#[doc(hidden)]
pub fn validate_geometry(dims: u32, bits: u32) {
    assert!(dims >= 1, "curve dimension must be at least 1");
    assert!(bits >= 1, "curve must have at least 1 bit per axis");
    assert!(
        dims * bits <= MAX_INDEX_BITS,
        "curve geometry too large: {dims} dims x {bits} bits = {} index bits (max {MAX_INDEX_BITS})",
        dims * bits
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "curve geometry too large")]
    fn rejects_oversized_geometry() {
        let _ = CurveKind::Hilbert.curve(4, 16);
    }

    #[test]
    #[should_panic(expected = "dimension must be at least 1")]
    fn rejects_zero_dims() {
        let _ = CurveKind::Morton.curve(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least 1 bit")]
    fn rejects_zero_bits() {
        let _ = CurveKind::Morton.curve(3, 0);
    }
}
