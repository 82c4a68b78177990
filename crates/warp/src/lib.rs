//! Warping: patient space → atlas space.
//!
//! "A PET study of a patient is not perfectly aligned with the
//! corresponding atlas.  To solve this problem, spatial and statistical
//! warping techniques are used to derive affine transformations that
//! allow a study to be registered to an appropriate atlas.  Thus, when a
//! study is loaded into the database, warping matrices are computed and
//! stored along with the original and warped study." (Section 2.2)
//!
//! The specific warping literature is outside the paper's scope (their
//! words); what QBISM *stores and executes* is: an affine matrix, the raw
//! study, and the resampled (warped) 128³ volume.  This crate implements
//! exactly that pipeline:
//!
//! * [`RawStudy`] — an acquisition-resolution scanline volume (e.g. the
//!   paper's 128x128x51 PET or 512x512x44 MRI grids) with trilinear
//!   sampling;
//! * [`register_landmarks`] — least-squares affine registration from
//!   corresponding landmark pairs (the semi-automatic registration the
//!   paper cites boils down to producing this matrix);
//! * [`warp_to_atlas`] — resamples a raw study through the affine map
//!   onto the cubic atlas grid, producing the stored warped VOLUME.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "matrix and grid indices are bounded by fixed 3-D/4-D dimensions"
)]
#![warn(missing_docs)]

mod linalg;
mod raw;
mod register;
mod resample;

pub use linalg::solve_linear_system;
pub use raw::RawStudy;
pub use register::{register_landmarks, RegistrationError};
pub use resample::{warp_to_atlas, WarpError};
