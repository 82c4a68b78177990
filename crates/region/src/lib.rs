//! The QBISM `REGION` data type.
//!
//! A REGION "encodes the spatial extent of an arbitrarily shaped entity,
//! such as an anatomical structure" (Section 3.1).  The paper's key
//! physical-design decisions, all implemented here:
//!
//! * **volumetric representation** — a REGION is a set of voxels, not a
//!   surface or CSG model, so intersections and extractions are merge
//!   scans (Section 4.2) — one [`kernel`] family, generic over the
//!   cursor, serves decoded run lists and k³ payloads alike;
//! * **runs, not octants** — the operational encoding is a sorted list of
//!   maximal runs of consecutive curve ids ("the number of runs never
//!   exceeds the number of octants");
//! * **Hilbert order, not Z order** — h-runs are ~1.27x fewer than z-runs
//!   on brain data;
//! * **Elias-γ-compressed deltas on disk** — ~8x smaller than the naive
//!   8-bytes-per-run encoding and within ~1.17x of the entropy bound.
//!
//! The octant and oblong-octant encodings, the Z-order variants, the
//! "naive" byte format, and the approximation schemes are all implemented
//! too, because the paper's evaluation (Tables 1, 2, 4 and Figure 4) is a
//! comparison among them.  Beside them, one queryable layout,
//! [`RegionCodec::K3Tree`] ([`compressed`]), is merged without decoding.
//!
//! # Example
//!
//! ```
//! use qbism_region::{GridGeometry, Region};
//! use qbism_sfc::CurveKind;
//!
//! // An 8x8x8 grid on the Hilbert curve.
//! let geom = GridGeometry::new(CurveKind::Hilbert, 3, 3);
//! let ball = Region::rasterize(geom, |p| {
//!     let d = |a: u32, b: f64| (a as f64 + 0.5 - b).powi(2);
//!     d(p[0], 4.0) + d(p[1], 4.0) + d(p[2], 4.0) <= 9.0
//! });
//! let octant = Region::from_box(geom, [0, 0, 0], [3, 3, 3]).unwrap();
//! let corner = ball.intersect(&octant);
//! assert!(ball.contains_region(&corner));
//! assert_eq!(corner.voxel_count(), ball.voxel_count_in_box([0,0,0], [3,3,3]));
//! ```

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "run-list indices follow the two-pointer merge invariants (i < a.len() guards)"
)]
#![warn(missing_docs)]

mod approx;
pub mod compressed;
mod encode;
mod geometry;
pub mod kernel;
mod octant;
mod region;
mod run;
mod stats;

pub use approx::ApproxParams;
pub use compressed::{compressed_cursor, encode_compressed, intersect_k3, open_k3};
pub use encode::{RegionCodec, RegionEncodeError};
pub use geometry::GridGeometry;
pub use octant::{Octant, OctantKind};
pub use region::Region;
pub use run::Run;
pub use stats::{linear_fit_through_origin, DeltaStats, RepresentationCounts};

/// The name the frozen `benchmark/` probes import the k-way cursor merge
/// under.  Remove at the next benchmark-archetype PR.
pub mod kernel_compressed {
    pub use crate::kernel::intersect_k_cursors as intersect_k_stream;
}
