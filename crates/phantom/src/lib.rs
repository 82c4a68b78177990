//! Synthetic brain phantoms — the stand-in for the paper's UCLA data.
//!
//! The original evaluation used an atlas "digitally extracted from the
//! Talairach & Tournoux atlas" with 11 neuro-anatomic structures, plus 5
//! PET studies (128x128x51) and 3 MRI studies (512x512x44), each warped
//! to a 128³ 8-bit atlas volume and banded into 8 intensity bands.  That
//! data is not publicly available, so this crate synthesizes a
//! statistically faithful substitute:
//!
//! * [`anatomy`] — 11 named analytic structures (hemispheres,
//!   putamen, hippocampus, thalamus, …) rasterized into volumetric
//!   REGIONs.  Structure volumes are tuned so the paper's query targets
//!   match: `ntal` ≈ 16 k voxels, `ntal1` (one hemisphere) ≈ 160 k at
//!   128³;
//! * [`field`] — continuous atlas-space intensity fields: MRI-like
//!   (tissue-dependent intensity + lattice noise) and PET-like (smooth
//!   metabolic baseline + focal activation blobs);
//! * [`study`] — acquisition simulation: a random rigid+scale
//!   misalignment, sampling onto the modality's native anisotropic grid,
//!   quantization noise, plus ground-truth landmarks for registration;
//! * [`demographics`] — deterministic patients (name, age, sex) so
//!   population queries ("PET studies of 40-year-old females") have
//!   something to select.
//!
//! Everything is deterministic given a seed, so every benchmark table
//! regenerates identically.
//!
//! Why the substitution preserves the evaluation: the paper's measured
//! quantities depend only on statistical properties of the data —
//! compact connected anatomic REGIONs, smooth fields whose intensity
//! bands have power-law delta lengths (EQ 1), and volumes of the right
//! magnitude.  The benches verify those properties rather than assume
//! them (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "voxel indices are produced by the loops that iterate the declared dims"
)]
#![warn(missing_docs)]

pub mod anatomy;
pub mod demographics;
pub mod field;
pub mod study;

mod noise;

pub use anatomy::{build_atlas, AtlasStructure, PhantomAtlas};
pub use demographics::{Patient, Sex};
pub use field::{MriField, PetField, ScalarField3};
pub use noise::ValueNoise;
pub use study::{AcquiredStudy, Modality, StudyGenerator};
