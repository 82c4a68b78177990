//! Geometry primitives for the QBISM reproduction.
//!
//! Everything spatial in QBISM lives on a regular 3-D grid (*atlas space*:
//! 128x128x128 in the paper) or in the continuous space the grid samples
//! (*patient space* before warping).  This crate provides:
//!
//! * [`Vec3`] — double-precision vectors/points for continuous space;
//! * [`IVec3`] / [`IBox3`] — integer voxel coordinates and inclusive boxes;
//! * [`Affine3`] — 4x4 affine transforms (the paper's warping matrices);
//! * [`Solid`] and the analytic solids used to synthesize anatomy
//!   ([`Ellipsoid`], [`Superquadric`], half-spaces, CSG combinators);
//! * [`TriMesh`] — the triangular surface meshes the *Atlas Structure*
//!   entity stores alongside each volumetric REGION for fast rendering;
//! * [`floor`] and [`round_to_byte`] — libm-free floor and byte rounding
//!   for the load path's per-voxel loops.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "vertex/triangle indices are minted by push_* methods that grow the arrays in lockstep"
)]
#![warn(missing_docs)]

mod affine;
mod box3;
mod mesh;
mod round;
mod solid;
mod vec3;

pub use affine::Affine3;
pub use box3::{IBox3, IVec3};
pub use mesh::TriMesh;
pub use round::{floor, round_to_byte};
pub use solid::{
    Bounds3, Complement, Difference, Ellipsoid, HalfSpace, Intersection, Solid, SolidBox, Sphere,
    Superquadric, Transformed, Union,
};
pub use vec3::Vec3;
