//! Visualization substrate — the IBM Data Explorer/6000 stand-in.
//!
//! In QBISM, DX "is responsible for all visualization tasks": the
//! *ImportVolume* module converts the spatially restricted data arriving
//! from the database into a renderable object, and the executive renders
//! it — structures alone, intensity data alone, or intensity data
//! texture-mapped onto structure surfaces (Figure 6).  Table 3 charges
//! two DX costs per query: ImportVolume time (∝ voxels received) and
//! "rendering +" time.
//!
//! This crate implements the same pipeline in software:
//!
//! * [`import_data_region`] — ImportVolume: a [`qbism_volume::DataRegion`]
//!   becomes a positioned point set with normalized intensities;
//! * [`extract_surface`] — boundary-face ("cuberille") surface extraction
//!   from a volumetric REGION into the triangle mesh the *Atlas
//!   Structure* entity stores;
//! * [`Rasterizer`] — a z-buffered Gouraud-shaded software renderer with
//!   a look-at [`Camera`], point splatting for intensity clouds, and
//!   solid texturing of meshes from a VOLUME;
//! * [`Framebuffer::to_ppm`] — image output;
//! * [`DxTimeModel`] — the calibrated 1994 cost model used when
//!   regenerating Table 3's DX columns.
//!
//! DX's cache of recent results is not modelled: the paper flushes it
//! before every measured run.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "marching-cubes table lookups are bounded by the 8-bit cube index"
)]
#![warn(missing_docs)]

mod camera;
mod import;
mod mesh;
mod model;
mod raster;

pub use camera::Camera;
pub use import::{import_data_region, DxField};
pub use mesh::extract_surface;
pub use model::DxTimeModel;
pub use raster::{Framebuffer, Rasterizer, Rgb};
