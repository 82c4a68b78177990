//! Indexes for QBISM's stated future directions.
//!
//! Section 7 lists two index-shaped future directions:
//!
//! 1. *"Spatial indexing and query optimization techniques for
//!    efficiently locating spatial objects in large populations of
//!    studies"* — [`RTree`], a bulk-loaded (Sort-Tile-Recursive) R-tree
//!    over 3-D bounding boxes, in the spirit of the R*-tree the paper
//!    cites \[3\];
//! 2. *"the study of multi-dimensional indexing methods … to enable
//!    similarity searching"* over image feature vectors — [`KdTree`], a
//!    k-d tree with exact k-nearest-neighbour search.
//!
//! Both are plain in-memory data structures; `qbism::server` builds them
//! from catalog contents (structure bounds, per-study feature vectors).

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "k-d tree axes are taken modulo the point dimensionality every stored point shares"
)]
#![warn(missing_docs)]

mod kdtree;
mod rtree;

pub use kdtree::KdTree;
pub use rtree::{Aabb, RTree};
