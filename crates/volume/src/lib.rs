//! The QBISM `VOLUME` data type.
//!
//! A VOLUME "encodes all values from a 3D scalar field (e.g., a PET study)
//! sampled on a complete, regular, cubic grid … the samples are stored in
//! a linearized form in an implied order" (Section 3.1).  Section 4.1
//! picks that implied order: **Hilbert order**, because
//!
//! 1. random access must stay fast and simple (rules out compression), and
//! 2. neighbouring grid points should be stored close together on disk
//!    (rules out scanline order), so extraction queries touch few pages.
//!
//! [`Field`] is the generic container (the paper notes vector fields work
//! "by simply storing vectors in place of scalars"); [`Volume`] is the
//! 8-bit scalar instance used by every experiment; [`DataRegion`] is the
//! footnote-6 return type of `EXTRACT_DATA` — a REGION plus one value per
//! voxel.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "voxel offsets derive from the same dims used to allocate the field"
)]
#![warn(missing_docs)]

mod data_region;
mod field;

pub use data_region::DataRegion;
pub use field::{Field, Volume};

/// Errors raised by volume operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// The region and volume live on different grids/curves.
    GeometryMismatch,
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::GeometryMismatch => {
                write!(f, "region and volume are defined over different grids or curves")
            }
        }
    }
}

impl std::error::Error for VolumeError {}
