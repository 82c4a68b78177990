//! The [`SpaceFillingCurve`] trait and the [`CurveKind`] selector.

use crate::{HilbertCurve, MortonCurve, ScanlineCurve};

/// A bijection between the cells of a `2^bits`-per-axis grid and the
/// integers `0 .. 2^(dims*bits)`.
///
/// Implementations must be total bijections on the grid; this is checked by
/// property tests in each implementation module.
pub trait SpaceFillingCurve {
    /// Number of spatial dimensions of the grid.
    fn dims(&self) -> u32;

    /// Number of bits per axis; the grid is `2^bits` cells along each axis.
    fn bits(&self) -> u32;

    /// Maps grid coordinates to the curve index.
    ///
    /// # Panics
    /// Panics if `coords.len() != dims()` or any coordinate is out of range.
    fn index_of(&self, coords: &[u32]) -> u64;

    /// Maps a curve index back to grid coordinates, writing into `coords`.
    ///
    /// # Panics
    /// Panics if `coords.len() != dims()` or the index is out of range.
    fn coords_of(&self, index: u64, coords: &mut [u32]);

    /// Total number of cells in the grid (`2^(dims*bits)`).
    fn cell_count(&self) -> u64 {
        1u64 << (self.dims() * self.bits())
    }

    /// Side length of the grid (`2^bits`).
    fn side(&self) -> u32 {
        1u32 << self.bits()
    }

    /// Convenience wrapper for 3-D curves.
    ///
    /// # Panics
    /// Panics if the curve is not 3-dimensional.
    fn index_of3(&self, x: u32, y: u32, z: u32) -> u64 {
        assert_eq!(self.dims(), 3, "index_of3 requires a 3-D curve");
        self.index_of(&[x, y, z])
    }

    /// Convenience wrapper for 3-D curves.
    ///
    /// # Panics
    /// Panics if the curve is not 3-dimensional.
    fn coords_of3(&self, index: u64) -> (u32, u32, u32) {
        assert_eq!(self.dims(), 3, "coords_of3 requires a 3-D curve");
        let mut c = [0u32; 3];
        self.coords_of(index, &mut c);
        let [x, y, z] = c;
        (x, y, z)
    }

    /// Convenience wrapper for 2-D curves.
    ///
    /// # Panics
    /// Panics if the curve is not 2-dimensional.
    fn index_of2(&self, x: u32, y: u32) -> u64 {
        assert_eq!(self.dims(), 2, "index_of2 requires a 2-D curve");
        self.index_of(&[x, y])
    }
}

/// Selector for the linear orders QBISM compares.
///
/// The paper evaluates Hilbert order against Z (Morton) order for both
/// REGION run counts (Section 4.2) and multi-study query time (Table 4);
/// scanline order is the layout a "flat file" system would use and serves
/// as the storage-layout baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CurveKind {
    /// The Hilbert curve: best spatial clustering, QBISM's choice.
    Hilbert,
    /// The Z curve (Morton key / bit shuffling / Peano as the paper calls
    /// its dotted-line example).
    Morton,
    /// Row-major scanline order (x fastest, axis 0 slowest).
    Scanline,
}

impl CurveKind {
    /// Instantiates the curve for a `dims`-dimensional grid with
    /// `2^bits` cells per axis.
    pub fn curve(self, dims: u32, bits: u32) -> Curve {
        crate::validate_geometry(dims, bits);
        match self {
            CurveKind::Hilbert => Curve::Hilbert(HilbertCurve::new(dims, bits)),
            CurveKind::Morton => Curve::Morton(MortonCurve::new(dims, bits)),
            CurveKind::Scanline => Curve::Scanline(ScanlineCurve::new(dims, bits)),
        }
    }

    /// All curve kinds, in the order the paper's tables list them.
    pub const ALL: [CurveKind; 3] = [CurveKind::Hilbert, CurveKind::Morton, CurveKind::Scanline];

    /// Whether the curve is a *hierarchical* (recursive, octree-aligned)
    /// order: every aligned id block `[q*2^(d*m), (q+1)*2^(d*m))` covers
    /// exactly one axis-aligned subcube of side `2^m`.
    ///
    /// Hilbert and Morton curves are built by recursive subdivision and
    /// have this property; scanline order does not (a row-major block is
    /// a slab, not a cube).  Run-native kernels use this to transcode and
    /// decompose whole blocks at a time instead of individual voxels.
    pub fn is_hierarchical(self) -> bool {
        match self {
            CurveKind::Hilbert | CurveKind::Morton => true,
            CurveKind::Scanline => false,
        }
    }

    /// Short lowercase name used in benchmark tables (`hilbert`, `z`,
    /// `scanline`), matching the paper's "h-" / "z-" prefixes.
    pub fn short_name(self) -> &'static str {
        match self {
            CurveKind::Hilbert => "hilbert",
            CurveKind::Morton => "z",
            CurveKind::Scanline => "scanline",
        }
    }
}

impl std::fmt::Display for CurveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A concrete curve instance (enum dispatch over the three implementations).
///
/// Enum dispatch keeps the hot `index_of` / `coords_of` paths free of
/// virtual calls while still letting callers pick the order at run time,
/// which the benchmark harness does constantly.
#[derive(Debug, Clone)]
pub enum Curve {
    /// Hilbert order.
    Hilbert(HilbertCurve),
    /// Z / Morton order.
    Morton(MortonCurve),
    /// Scanline order.
    Scanline(ScanlineCurve),
}

impl Curve {
    /// The [`CurveKind`] this instance implements.
    pub fn kind(&self) -> CurveKind {
        match self {
            Curve::Hilbert(_) => CurveKind::Hilbert,
            Curve::Morton(_) => CurveKind::Morton,
            Curve::Scanline(_) => CurveKind::Scanline,
        }
    }
}

impl SpaceFillingCurve for Curve {
    fn dims(&self) -> u32 {
        match self {
            Curve::Hilbert(c) => c.dims(),
            Curve::Morton(c) => c.dims(),
            Curve::Scanline(c) => c.dims(),
        }
    }

    fn bits(&self) -> u32 {
        match self {
            Curve::Hilbert(c) => c.bits(),
            Curve::Morton(c) => c.bits(),
            Curve::Scanline(c) => c.bits(),
        }
    }

    fn index_of(&self, coords: &[u32]) -> u64 {
        match self {
            Curve::Hilbert(c) => c.index_of(coords),
            Curve::Morton(c) => c.index_of(coords),
            Curve::Scanline(c) => c.index_of(coords),
        }
    }

    fn coords_of(&self, index: u64, coords: &mut [u32]) {
        match self {
            Curve::Hilbert(c) => c.coords_of(index, coords),
            Curve::Morton(c) => c.coords_of(index, coords),
            Curve::Scanline(c) => c.coords_of(index, coords),
        }
    }
}

pub(crate) fn check_coords(dims: u32, bits: u32, coords: &[u32]) {
    assert_eq!(
        coords.len(),
        dims as usize,
        "coordinate arity {} does not match curve dimension {dims}",
        coords.len()
    );
    let side = 1u32 << bits;
    for (axis, &c) in coords.iter().enumerate() {
        assert!(c < side, "coordinate {c} on axis {axis} out of range for grid side {side}");
    }
}

pub(crate) fn check_index(dims: u32, bits: u32, index: u64) {
    let cells = 1u64 << (dims * bits);
    assert!(index < cells, "curve index {index} out of range (grid has {cells} cells)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_and_names() {
        for kind in CurveKind::ALL {
            let c = kind.curve(3, 4);
            assert_eq!(c.kind(), kind);
            assert_eq!(c.dims(), 3);
            assert_eq!(c.bits(), 4);
            assert_eq!(c.side(), 16);
            assert_eq!(c.cell_count(), 4096);
        }
        assert_eq!(CurveKind::Hilbert.to_string(), "hilbert");
        assert_eq!(CurveKind::Morton.to_string(), "z");
        assert_eq!(CurveKind::Scanline.to_string(), "scanline");
    }

    #[test]
    fn hierarchical_blocks_are_cubes() {
        // The property `is_hierarchical` advertises: every aligned id
        // block of size 2^(3m) covers exactly one axis-aligned cube of
        // side 2^m (checked exhaustively on a 16^3 grid at every level).
        for kind in CurveKind::ALL {
            let c = kind.curve(3, 4);
            let mut coords = [0u32; 3];
            let mut all_levels_cubic = true;
            for m in 1..=4u32 {
                let block = 1u64 << (3 * m);
                for q in 0..(c.cell_count() / block) {
                    let (mut lo, mut hi) = ([u32::MAX; 3], [0u32; 3]);
                    for id in q * block..(q + 1) * block {
                        c.coords_of(id, &mut coords);
                        for a in 0..3 {
                            lo[a] = lo[a].min(coords[a]);
                            hi[a] = hi[a].max(coords[a]);
                        }
                    }
                    let side = (1u32 << m) - 1;
                    if (0..3).any(|a| hi[a] - lo[a] != side || lo[a] % (side + 1) != 0) {
                        all_levels_cubic = false;
                    }
                }
            }
            assert_eq!(all_levels_cubic, kind.is_hierarchical(), "{kind}");
        }
    }

    #[test]
    fn dispatch_agrees_with_direct_implementations() {
        let direct = HilbertCurve::new(3, 5);
        let dyn_c = CurveKind::Hilbert.curve(3, 5);
        for idx in [0u64, 1, 77, 4095, 32767] {
            let mut a = [0u32; 3];
            let mut b = [0u32; 3];
            direct.coords_of(idx, &mut a);
            dyn_c.coords_of(idx, &mut b);
            assert_eq!(a, b);
            assert_eq!(direct.index_of(&a), dyn_c.index_of(&b));
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let c = CurveKind::Morton.curve(3, 4);
        let _ = c.index_of(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_coord_panics() {
        let c = CurveKind::Morton.curve(2, 2);
        let _ = c.index_of(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let c = CurveKind::Hilbert.curve(2, 2);
        let mut out = [0u32; 2];
        c.coords_of(16, &mut out);
    }
}
