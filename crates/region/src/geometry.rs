//! Grid geometry: which curve a region's ids live on.

use qbism_sfc::{Curve, CurveKind, SpaceFillingCurve};

/// The discrete space a [`crate::Region`] is defined over: a cubic grid of
/// `2^bits` cells per axis in `dims` dimensions, linearized by `kind`.
///
/// Two regions are only compatible (for intersection etc.) when their
/// geometries are equal — the same set of voxels has *different* ids under
/// different curves, which is the entire subject of the paper's Section 4
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridGeometry {
    kind: CurveKind,
    dims: u32,
    bits: u32,
}

impl GridGeometry {
    /// Creates a geometry; panics on unrepresentable `(dims, bits)`.
    pub fn new(kind: CurveKind, dims: u32, bits: u32) -> Self {
        // Curve construction validates the pair.
        let _ = kind.curve(dims, bits);
        GridGeometry { kind, dims, bits }
    }

    /// Curve kind.
    pub fn kind(&self) -> CurveKind {
        self.kind
    }

    /// Dimensions.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Bits per axis.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Cells per axis.
    pub fn side(&self) -> u32 {
        1 << self.bits
    }

    /// Total cells in the grid.
    pub fn cell_count(&self) -> u64 {
        1u64 << (self.dims * self.bits)
    }

    /// Instantiates the curve.
    pub fn curve(&self) -> Curve {
        self.kind.curve(self.dims, self.bits)
    }

    /// Same grid, different linearization.
    pub fn with_kind(&self, kind: CurveKind) -> Self {
        GridGeometry { kind, ..*self }
    }

    /// Maps coordinates to a curve id (convenience; construct the curve
    /// once via [`GridGeometry::curve`] in hot loops).
    pub fn index_of(&self, coords: &[u32]) -> u64 {
        self.curve().index_of(coords)
    }

    /// Maps a curve id to coordinates.
    pub fn coords_of(&self, index: u64, out: &mut [u32]) {
        self.curve().coords_of(index, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_kind_changes_only_the_curve() {
        let g = GridGeometry::new(CurveKind::Hilbert, 3, 7);
        let z = g.with_kind(CurveKind::Morton);
        assert_eq!(z.kind(), CurveKind::Morton);
        assert_eq!(z.dims(), g.dims());
        assert_eq!(z.bits(), g.bits());
        assert_ne!(g, z);
    }

    #[test]
    fn index_coord_roundtrip() {
        let g = GridGeometry::new(CurveKind::Morton, 3, 4);
        let id = g.index_of(&[3, 9, 14]);
        let mut c = [0u32; 3];
        g.coords_of(id, &mut c);
        assert_eq!(c, [3, 9, 14]);
    }
}
