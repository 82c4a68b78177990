//! The Z curve (Morton order, bit shuffling).
//!
//! The z-id of a cell interleaves the bits of its coordinates, most
//! significant axis first: in 2-D, `z-id = x_{b-1} y_{b-1} ... x_0 y_0`.
//! This matches Figure 2 of the paper, where the cell at `x=01, y=00` has
//! z-id `0010` = 2.

use crate::curve::{check_coords, check_index};
use crate::SpaceFillingCurve;
use std::sync::OnceLock;

/// Morton (Z) curve over a `dims`-dimensional grid of `2^bits` per axis.
#[derive(Debug, Clone)]
pub struct MortonCurve {
    dims: u32,
    bits: u32,
}

impl MortonCurve {
    /// Creates a Morton curve.  See [`crate::validate_geometry`] for limits.
    pub fn new(dims: u32, bits: u32) -> Self {
        crate::validate_geometry(dims, bits);
        MortonCurve { dims, bits }
    }
}

/// The 3-D Z curve as an octant transducer for [`crate::walk`]: one
/// orientation, and the digit *is* the octant (axis 0 most significant).
pub(crate) fn transducer3() -> crate::walk::Transducer3 {
    const OCTANT: &[[u8; 8]] = &[[0, 1, 2, 3, 4, 5, 6, 7]];
    const NEXT: &[[u8; 8]] = &[[0; 8]];
    static MASKS: OnceLock<Vec<crate::walk::LeafMasks>> = OnceLock::new();
    let masks = MASKS.get_or_init(|| crate::walk::leaf_masks(OCTANT, NEXT));
    crate::walk::Transducer3 { start: 0, octant: OCTANT, next: NEXT, masks }
}

/// Spreads the low 21 bits of `v` so each lands 3 positions apart
/// (`abc` -> `a00b00c`), using the classic parallel-prefix magic masks.
#[inline]
fn spread3(v: u32) -> u64 {
    let mut x = u64::from(v) & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread3`]: gathers every third bit into the low 21 bits.
#[inline]
fn gather3(v: u64) -> u32 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x as u32
}

/// Spreads the low 31 bits of `v` so each lands 2 positions apart.
#[inline]
fn spread2(v: u32) -> u64 {
    let mut x = u64::from(v) & 0x7fff_ffff;
    x = (x | (x << 16)) & 0x0000ffff0000ffff;
    x = (x | (x << 8)) & 0x00ff00ff00ff00ff;
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0f;
    x = (x | (x << 2)) & 0x3333333333333333;
    x = (x | (x << 1)) & 0x5555555555555555;
    x
}

/// Inverse of [`spread2`].
#[inline]
fn gather2(v: u64) -> u32 {
    let mut x = v & 0x5555555555555555;
    x = (x | (x >> 1)) & 0x3333333333333333;
    x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0f;
    x = (x | (x >> 4)) & 0x00ff00ff00ff00ff;
    x = (x | (x >> 8)) & 0x0000ffff0000ffff;
    x = (x | (x >> 16)) & 0x7fff_ffff;
    x as u32
}

impl SpaceFillingCurve for MortonCurve {
    fn dims(&self) -> u32 {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn index_of(&self, coords: &[u32]) -> u64 {
        check_coords(self.dims, self.bits, coords);
        match self.dims {
            // Axis 0 most significant within each bit group.
            2 => (spread2(coords[0]) << 1) | spread2(coords[1]),
            3 => (spread3(coords[0]) << 2) | (spread3(coords[1]) << 1) | spread3(coords[2]),
            _ => {
                let n = self.dims;
                let mut out = 0u64;
                for level in (0..self.bits).rev() {
                    for (axis, &c) in coords.iter().enumerate() {
                        let bit = u64::from((c >> level) & 1);
                        let pos = level * n + (n - 1 - axis as u32);
                        out |= bit << pos;
                    }
                }
                out
            }
        }
    }

    fn coords_of(&self, index: u64, coords: &mut [u32]) {
        check_index(self.dims, self.bits, index);
        assert_eq!(
            coords.len(),
            self.dims as usize,
            "coordinate arity {} does not match curve dimension {}",
            coords.len(),
            self.dims
        );
        match self.dims {
            2 => {
                coords[0] = gather2(index >> 1);
                coords[1] = gather2(index);
            }
            3 => {
                coords[0] = gather3(index >> 2);
                coords[1] = gather3(index >> 1);
                coords[2] = gather3(index);
            }
            _ => {
                let n = self.dims;
                coords.fill(0);
                for level in 0..self.bits {
                    for axis in 0..n {
                        let pos = level * n + (n - 1 - axis);
                        let bit = ((index >> pos) & 1) as u32;
                        coords[axis as usize] |= bit << level;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_figure2_example() {
        // Figure 2: the shaded 1x1 square at x=01, y=00 has z-id 0010 = 2,
        // and the upper-left quadrant (x in {0,1}, y in {2,3}) has z-value
        // prefix 01**, i.e. z-ids 4..=7.
        let z = MortonCurve::new(2, 2);
        assert_eq!(z.index_of(&[1, 0]), 2);
        let mut quad: Vec<u64> = Vec::new();
        for x in 0..2 {
            for y in 2..4 {
                quad.push(z.index_of(&[x, y]));
            }
        }
        quad.sort_unstable();
        assert_eq!(quad, vec![4, 5, 6, 7]);
    }

    #[test]
    fn bit_interleave_convention_3d() {
        let z = MortonCurve::new(3, 2);
        // index bits are x1 y1 z1 x0 y0 z0
        assert_eq!(z.index_of(&[1, 0, 0]), 0b000_100);
        assert_eq!(z.index_of(&[0, 1, 0]), 0b000_010);
        assert_eq!(z.index_of(&[0, 0, 1]), 0b000_001);
        assert_eq!(z.index_of(&[2, 0, 0]), 0b100_000);
        assert_eq!(z.index_of(&[3, 3, 3]), 0b111_111);
    }

    #[test]
    fn fast_paths_match_generic_path() {
        // The generic n-D path must agree with the magic-mask 2-D/3-D paths.
        let fast2 = MortonCurve::new(2, 5);
        let fast3 = MortonCurve::new(3, 4);
        let generic = |dims: u32, bits: u32, coords: &[u32]| -> u64 {
            let mut out = 0u64;
            for level in (0..bits).rev() {
                for (axis, &c) in coords.iter().enumerate() {
                    let bit = u64::from((c >> level) & 1);
                    out |= bit << (level * dims + (dims - 1 - axis as u32));
                }
            }
            out
        };
        for x in 0..32 {
            for y in (0..32).step_by(3) {
                assert_eq!(fast2.index_of(&[x, y]), generic(2, 5, &[x, y]));
            }
        }
        for x in (0..16).step_by(5) {
            for y in 0..16 {
                for zc in (0..16).step_by(3) {
                    assert_eq!(fast3.index_of(&[x, y, zc]), generic(3, 4, &[x, y, zc]));
                }
            }
        }
    }

    #[test]
    fn exhaustive_bijection_small_grids() {
        for (dims, bits) in [(1u32, 6u32), (2, 3), (3, 2), (4, 2)] {
            let z = MortonCurve::new(dims, bits);
            let mut seen = vec![false; z.cell_count() as usize];
            let mut coords = vec![0u32; dims as usize];
            for idx in 0..z.cell_count() {
                z.coords_of(idx, &mut coords);
                assert!(!seen[idx as usize]);
                seen[idx as usize] = true;
                assert_eq!(z.index_of(&coords), idx, "roundtrip failed at {idx}");
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// The generic n-D bit-loop — the oracle the magic-mask paths are
    /// property-tested against (identical to the `_ =>` arms above).
    fn generic_index_of(dims: u32, bits: u32, coords: &[u32]) -> u64 {
        let mut out = 0u64;
        for level in (0..bits).rev() {
            for (axis, &c) in coords.iter().enumerate() {
                let bit = u64::from((c >> level) & 1);
                out |= bit << (level * dims + (dims - 1 - axis as u32));
            }
        }
        out
    }

    fn generic_coords_of(dims: u32, bits: u32, index: u64, coords: &mut [u32]) {
        coords.fill(0);
        for level in 0..bits {
            for axis in 0..dims {
                let pos = level * dims + (dims - 1 - axis);
                let bit = ((index >> pos) & 1) as u32;
                coords[axis as usize] |= bit << level;
            }
        }
    }

    proptest! {
        #[test]
        fn magic_masks_match_bitwise_oracle_64_cubed(
            x in 0u32..64, y in 0u32..64, zc in 0u32..64,
        ) {
            // The 64³ PET grid: encode and decode must both agree with
            // the bit-loop oracle.
            let z = MortonCurve::new(3, 6);
            let idx = z.index_of(&[x, y, zc]);
            prop_assert_eq!(idx, generic_index_of(3, 6, &[x, y, zc]));
            let mut fast = [0u32; 3];
            let mut oracle = [0u32; 3];
            z.coords_of(idx, &mut fast);
            generic_coords_of(3, 6, idx, &mut oracle);
            prop_assert_eq!(fast, oracle);
        }

        #[test]
        fn magic_masks_match_bitwise_oracle_128_cubed(
            x in 0u32..128, y in 0u32..128, zc in 0u32..128,
        ) {
            // The 128³ MRI/atlas grid.
            let z = MortonCurve::new(3, 7);
            let idx = z.index_of(&[x, y, zc]);
            prop_assert_eq!(idx, generic_index_of(3, 7, &[x, y, zc]));
            let mut fast = [0u32; 3];
            let mut oracle = [0u32; 3];
            z.coords_of(idx, &mut fast);
            generic_coords_of(3, 7, idx, &mut oracle);
            prop_assert_eq!(fast, oracle);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_3d_21bits(x in 0u32..(1 << 21), y in 0u32..(1 << 21), zc in 0u32..(1 << 21)) {
            let z = MortonCurve::new(3, 21);
            let idx = z.index_of(&[x, y, zc]);
            let mut back = [0u32; 3];
            z.coords_of(idx, &mut back);
            prop_assert_eq!(back, [x, y, zc]);
        }

        #[test]
        fn roundtrip_2d_31bits(x in 0u32..(1 << 31), y in 0u32..(1 << 31)) {
            let z = MortonCurve::new(2, 31);
            let idx = z.index_of(&[x, y]);
            let mut back = [0u32; 2];
            z.coords_of(idx, &mut back);
            prop_assert_eq!(back, [x, y]);
        }

        #[test]
        fn monotone_in_each_octant(x in 0u32..64, y in 0u32..64, zc in 0u32..64) {
            // Any cell in the first half along axis 0 precedes any cell in
            // the second half only when their leading interleaved bits say
            // so; the cheap sanity check: increasing the most significant
            // coordinate bit increases the index.
            let z = MortonCurve::new(3, 7);
            let lo = z.index_of(&[x, y, zc]);
            let hi = z.index_of(&[x + 64, y, zc]);
            prop_assert!(hi > lo);
        }
    }
}
