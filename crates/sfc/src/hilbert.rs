//! The Hilbert curve.
//!
//! QBISM stores VOLUMEs in Hilbert order and encodes REGIONs as runs of
//! consecutive Hilbert ids, because among the known space-filling curves
//! the Hilbert curve has the best spatial clustering (Faloutsos & Roseman,
//! PODS 1989): neighbouring voxels tend to be near each other on the curve,
//! so compact regions decompose into few runs and few disk pages.
//!
//! The implementation uses the in-place "transpose" formulation of the
//! Butz algorithm (public-domain formulation by J. Skilling, *Programming
//! the Hilbert curve*, AIP Conf. Proc. 707, 2004), which converts between
//! grid coordinates and the bit-transposed Hilbert integer in
//! `O(dims * bits)` bit operations — the `O(n)` complexity the paper cites
//! for both curves.

use crate::curve::{check_coords, check_index};
use crate::{SpaceFillingCurve, MAX_INDEX_BITS};
use std::sync::OnceLock;

/// Hilbert curve over a `dims`-dimensional grid of `2^bits` per axis.
#[derive(Debug, Clone)]
pub struct HilbertCurve {
    dims: u32,
    bits: u32,
}

/// The 3D `index_of` fast path: a finite-state transducer over octants.
///
/// The Hilbert curve is self-similar, so the curve digit emitted for the
/// octant at each refinement level depends only on the suborientation
/// (state) reached through the coarser octants — a classic state-machine
/// formulation.  Rather than hardcoding the table (and risking a skew
/// against the Skilling bit-twiddling above), the table is *derived from
/// the bitwise implementation itself* at first use: states are
/// discovered by breadth-first search over octant prefixes, identified
/// by their one-level octant→digit map (orientations are cube
/// symmetries composed with Gray decode, and that composite is distinct
/// per orientation, so the one-level map is a complete fingerprint).
///
/// The payoff: `index_of` becomes `bits` table lookups instead of the
/// `O(dims · bits)` dependent bit-exchange chain — the hot path of
/// region construction and voxel extraction over 64³/128³ grids.
struct HilbertLut3 {
    start: u8,
    /// `digit[state][octant]` — curve digit emitted.
    digit: Vec<[u8; 8]>,
    /// `next[state][octant]` — successor state.
    next: Vec<[u8; 8]>,
    /// `octant[state][digit]` — inverse of `digit`'s permutation rows;
    /// drives the table-driven `coords_of` decode.
    octant: Vec<[u8; 8]>,
    /// The walk's 4³ id offsets per state, from `octant` and `next`.
    cubes: Vec<crate::walk::CubeOffsets>,
    /// The box cover's 4³ id words per state, from `cubes`.
    masks: Vec<crate::walk::LeafMasks>,
}

static LUT3: OnceLock<HilbertLut3> = OnceLock::new();

/// Resolution the transducer is learned at.  State discovery needs
/// prefixes one level short of the floor; 3D Hilbert closes at a
/// handful of states within a few levels, so 8 levels is generous.
const LUT3_LEARN_BITS: u32 = 8;

impl HilbertLut3 {
    fn get() -> &'static HilbertLut3 {
        LUT3.get_or_init(HilbertLut3::derive)
    }

    /// Learns the transducer from the bitwise implementation.
    fn derive() -> HilbertLut3 {
        let oracle = HilbertCurve { dims: 3, bits: LUT3_LEARN_BITS };
        // One-level octant→digit map of the subcube reached by `prefix`
        // (top-down octant path).  By self-similarity the digit at a
        // level is independent of the finer octants, so probing with
        // zero-filled suffixes is exact.
        let probe = |prefix: &[u8]| -> [u8; 8] {
            let mut map = [0u8; 8];
            for o in 0..8u8 {
                let mut coords = [0u32; 3];
                let mut level = LUT3_LEARN_BITS;
                for &oct in prefix.iter().chain(std::iter::once(&o)) {
                    level -= 1;
                    coords[0] |= u32::from((oct >> 2) & 1) << level;
                    coords[1] |= u32::from((oct >> 1) & 1) << level;
                    coords[2] |= u32::from(oct & 1) << level;
                }
                let mut buf = coords;
                oracle.axes_to_transpose(&mut buf);
                let index = oracle.pack(&buf);
                map[o as usize] = ((index >> (3 * level)) & 7) as u8;
            }
            map
        };
        let mut ids: std::collections::HashMap<[u8; 8], u8> = std::collections::HashMap::new();
        let mut digit: Vec<[u8; 8]> = Vec::new();
        let mut next: Vec<[u8; 8]> = Vec::new();
        let mut queue: std::collections::VecDeque<(u8, Vec<u8>)> =
            std::collections::VecDeque::new();
        let mut intern = |map: [u8; 8],
                          prefix: &[u8],
                          digit: &mut Vec<[u8; 8]>,
                          next: &mut Vec<[u8; 8]>,
                          queue: &mut std::collections::VecDeque<(u8, Vec<u8>)>|
         -> u8 {
            *ids.entry(map).or_insert_with(|| {
                let id = digit.len() as u8;
                digit.push(map);
                next.push([0u8; 8]);
                queue.push_back((id, prefix.to_vec()));
                id
            })
        };
        let start = intern(probe(&[]), &[], &mut digit, &mut next, &mut queue);
        while let Some((state, prefix)) = queue.pop_front() {
            assert!(
                prefix.len() + 2 <= LUT3_LEARN_BITS as usize,
                "Hilbert transducer did not close within {LUT3_LEARN_BITS} levels"
            );
            for o in 0..8u8 {
                let mut child_prefix = prefix.clone();
                child_prefix.push(o);
                let child =
                    intern(probe(&child_prefix), &child_prefix, &mut digit, &mut next, &mut queue);
                next[state as usize][o as usize] = child;
            }
        }
        // Each state's octant→digit map is a permutation of 0..8 (pinned
        // by tests), so inverting it gives the decode table for free.
        let octant = digit
            .iter()
            .map(|row| {
                let mut inv = [0u8; 8];
                for (oct, &d) in row.iter().enumerate() {
                    inv[d as usize] = oct as u8;
                }
                inv
            })
            .collect::<Vec<_>>();
        let cubes = crate::walk::cube_offsets(&octant, &next);
        let masks = crate::walk::leaf_masks(&cubes);
        HilbertLut3 { start, digit, next, octant, cubes, masks }
    }

    /// Table-driven `index_of` for any `bits`: the transducer starts in
    /// the same orientation at every resolution (the curve refines from
    /// the top), so one table serves all grids.
    fn index_of(&self, bits: u32, coords: &[u32]) -> u64 {
        let mut state = self.start as usize;
        let mut index = 0u64;
        for level in (0..bits).rev() {
            let octant = (((coords[0] >> level) & 1) << 2
                | ((coords[1] >> level) & 1) << 1
                | (coords[2] >> level) & 1) as usize;
            index = (index << 3) | u64::from(self.digit[state][octant]);
            state = self.next[state][octant] as usize;
        }
        index
    }

    /// Table-driven `coords_of`: the exact inverse walk of
    /// [`HilbertLut3::index_of`] — extract the curve digit per level,
    /// invert it to the octant through `octant[state]`, set one
    /// coordinate bit per axis, and follow the same successor states.
    fn coords_of(&self, bits: u32, index: u64, coords: &mut [u32]) {
        let mut state = self.start as usize;
        coords.fill(0);
        for level in (0..bits).rev() {
            let digit = ((index >> (3 * level)) & 7) as usize;
            let oct = self.octant[state][digit];
            coords[0] |= u32::from((oct >> 2) & 1) << level;
            coords[1] |= u32::from((oct >> 1) & 1) << level;
            coords[2] |= u32::from(oct & 1) << level;
            state = self.next[state][oct as usize] as usize;
        }
    }
}

/// The learned 3-D transducer in the form [`crate::walk`] descends.
pub(crate) fn transducer3() -> crate::walk::Transducer3 {
    let lut = HilbertLut3::get();
    crate::walk::Transducer3 {
        start: lut.start,
        octant: &lut.octant,
        next: &lut.next,
        cubes: &lut.cubes,
        masks: &lut.masks,
    }
}

impl HilbertCurve {
    /// Creates a Hilbert curve.  See [`crate::validate_geometry`] for limits.
    pub fn new(dims: u32, bits: u32) -> Self {
        crate::validate_geometry(dims, bits);
        HilbertCurve { dims, bits }
    }

    /// Converts grid axes (in place) to the transposed Hilbert integer.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = x.len();
        let m = 1u32 << (self.bits - 1);
        // Inverse undo
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert
                } else {
                    let t = (x[0] ^ x[i]) & p; // exchange
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Converts a transposed Hilbert integer (in place) back to grid axes.
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = x.len();
        let cap = 2u32 << (self.bits - 1);
        // Gray decode by H ^ (H/2)
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work
        let mut q = 2u32;
        while q != cap {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Packs a transposed Hilbert integer into a single `u64`.
    ///
    /// Bit `j` of transpose word `i` (axis `i`) contributes index bit
    /// `j * dims + (dims - 1 - i)`: within each group of `dims` index bits,
    /// axis 0 is most significant — the same convention as the Morton code.
    fn pack(&self, x: &[u32]) -> u64 {
        let n = self.dims;
        let mut out = 0u64;
        for level in (0..self.bits).rev() {
            for (axis, &word) in x.iter().enumerate() {
                let bit = u64::from((word >> level) & 1);
                out |= bit << (level * n + (n - 1 - axis as u32));
            }
        }
        out
    }

    /// The Skilling bit-exchange `index_of` (ground truth for the LUT
    /// fast path, and the general-dimension fallback).
    fn index_of_bitwise(&self, coords: &[u32]) -> u64 {
        // `validate_geometry` caps dims at `MAX_INDEX_BITS` (one bit per axis).
        let mut x = [0u32; MAX_INDEX_BITS as usize];
        let buf = &mut x[..coords.len()];
        buf.copy_from_slice(coords);
        self.axes_to_transpose(buf);
        self.pack(buf)
    }

    /// Inverse of [`HilbertCurve::pack`].
    fn unpack(&self, index: u64, x: &mut [u32]) {
        let n = self.dims;
        x.fill(0);
        for level in 0..self.bits {
            for axis in 0..n {
                let pos = level * n + (n - 1 - axis);
                let bit = ((index >> pos) & 1) as u32;
                x[axis as usize] |= bit << level;
            }
        }
    }
}

impl SpaceFillingCurve for HilbertCurve {
    fn dims(&self) -> u32 {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn index_of(&self, coords: &[u32]) -> u64 {
        check_coords(self.dims, self.bits, coords);
        if self.dims == 1 {
            return u64::from(coords[0]);
        }
        if self.dims == 3 {
            // Table-driven fast path for the 3D grids QBISM lives on.
            return HilbertLut3::get().index_of(self.bits, coords);
        }
        self.index_of_bitwise(coords)
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
        if self.dims == 1 {
            coords[0] = index as u32;
            return;
        }
        if self.dims == 3 {
            // Table-driven fast path, mirroring `index_of`: one digit
            // lookup per level instead of the unpack + bit-exchange chain.
            return HilbertLut3::get().coords_of(self.bits, index, coords);
        }
        self.unpack(index, coords);
        self.transpose_to_axes(coords);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 4x4 Hilbert ordering used by the paper's Figure 3 (solid line):
    /// h-id 0 at the origin corner, the curve visiting the `y` half-plane
    /// boundary so the shaded region collapses to the single run <3,9>.
    ///
    /// With our axis convention (axis 0 = x most significant), the Skilling
    /// orientation visits (0,0),(0,1),(1,1),(1,0),(2,0),(3,0),... We verify
    /// the full first-quadrant order here and the paper's region in the
    /// region crate, where axis roles are documented.
    #[test]
    fn order2_2d_is_a_hamiltonian_unit_step_path() {
        let h = HilbertCurve::new(2, 2);
        let mut prev = h.coords_of_pair(0);
        for idx in 1..16 {
            let cur = h.coords_of_pair(idx);
            let dist = prev.0.abs_diff(cur.0) + prev.1.abs_diff(cur.1);
            assert_eq!(dist, 1, "steps {:?} -> {:?} not unit", prev, cur);
            prev = cur;
        }
    }

    impl HilbertCurve {
        fn coords_of_pair(&self, idx: u64) -> (u32, u32) {
            let mut c = [0u32; 2];
            self.coords_of(idx, &mut c);
            (c[0], c[1])
        }

        /// The Skilling unpack + bit-exchange decode — ground truth for
        /// the LUT `coords_of` fast path.
        fn coords_of_bitwise(&self, index: u64, coords: &mut [u32]) {
            self.unpack(index, coords);
            self.transpose_to_axes(coords);
        }
    }

    #[test]
    fn paper_table2_region_is_one_run() {
        // Figure 3's shaded region, expressed with the axis roles that
        // reproduce the paper's Table 2: the region occupies h-ids 3..=9.
        // Region cells (derived from the z-run encoding in Table 1 under
        // the Figure 2 bit-interleave convention z-id = a1 b1 a0 b0):
        //   z-ids {1, 4,5,6,7, 12, 13}
        //   = cells (a,b) in {(0,1)} u {0,1}x{2,3} u {(2,2),(2,3)}.
        let z = crate::MortonCurve::new(2, 2);
        let mut cells: Vec<(u32, u32)> = Vec::new();
        for zid in [1u64, 4, 5, 6, 7, 12, 13] {
            let mut c = [0u32; 2];
            z.coords_of(zid, &mut c);
            cells.push((c[0], c[1]));
        }
        // Map the same cells through the Hilbert curve.  The Skilling
        // orientation reproduces the paper's Figure 3 solid line directly
        // under our shared axis convention.
        let h = HilbertCurve::new(2, 2);
        let mut hids: Vec<u64> = cells.iter().map(|&(a, b)| h.index_of(&[a, b])).collect();
        hids.sort_unstable();
        assert_eq!(hids, vec![3, 4, 5, 6, 7, 8, 9], "region must be the single h-run <3,9>");
    }

    #[test]
    fn exhaustive_bijection_small_grids() {
        for (dims, bits) in [(1u32, 5u32), (2, 4), (3, 3), (4, 2), (5, 2)] {
            let h = HilbertCurve::new(dims, bits);
            let mut seen = vec![false; h.cell_count() as usize];
            let mut coords = vec![0u32; dims as usize];
            for idx in 0..h.cell_count() {
                h.coords_of(idx, &mut coords);
                assert!(!seen[idx as usize], "index {idx} maps to duplicate cell");
                seen[idx as usize] = true;
                assert_eq!(h.index_of(&coords), idx, "roundtrip failed at {idx}");
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn round_trips_at_every_admitted_dimension_count() {
        // `validate_geometry` admits up to 63 axes, not only the first
        // eight: 9 and 63 axes at 1 bit, 21 axes at 3 bits.
        for (dims, bits) in [(9u32, 1u32), (63, 1), (21, 3)] {
            let h = HilbertCurve::new(dims, bits);
            let mut state = dims;
            let mut coords = vec![0u32; dims as usize];
            coords[0] = 1;
            let mut back = vec![0u32; dims as usize];
            for trial in 0..64 {
                let idx = h.index_of(&coords);
                h.coords_of(idx, &mut back);
                assert_eq!(back, coords, "{dims} dims x {bits} bits, trial {trial}");
                for c in &mut coords {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    *c = (state >> 16) % (1 << bits);
                }
            }
        }
    }

    #[test]
    fn consecutive_indices_are_grid_neighbours_3d() {
        // The defining continuity property: cells with consecutive Hilbert
        // ids are face neighbours in the grid.
        let h = HilbertCurve::new(3, 3);
        let mut prev = [0u32; 3];
        let mut cur = [0u32; 3];
        h.coords_of(0, &mut prev);
        for idx in 1..h.cell_count() {
            h.coords_of(idx, &mut cur);
            let dist: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(dist, 1, "indices {} and {idx} not adjacent", idx - 1);
            prev = cur;
        }
    }

    #[test]
    fn clustering_beats_morton_on_boxes() {
        // The reason QBISM picks Hilbert: a compact box decomposes into
        // fewer runs of consecutive ids than under Morton order.  Count
        // runs for a 20x20x20 box in a 64^3 grid under both curves.
        let count_runs = |curve: &dyn SpaceFillingCurve| -> usize {
            let mut ids: Vec<u64> = Vec::new();
            for x in 10..30 {
                for y in 10..30 {
                    for z in 10..30 {
                        ids.push(curve.index_of(&[x, y, z]));
                    }
                }
            }
            ids.sort_unstable();
            1 + ids.windows(2).filter(|w| w[1] != w[0] + 1).count()
        };
        let h = HilbertCurve::new(3, 6);
        let z = crate::MortonCurve::new(3, 6);
        let hr = count_runs(&h);
        let zr = count_runs(&z);
        assert!(hr < zr, "expected fewer Hilbert runs than Z runs, got h={hr} z={zr}");
    }

    #[test]
    fn lut_learns_a_small_closed_state_machine() {
        let lut = HilbertLut3::get();
        assert!(lut.digit.len() >= 2, "3D Hilbert needs more than one orientation");
        assert!(lut.digit.len() <= 48, "states are cube symmetries, at most 48");
        for (row, digits) in lut.digit.iter().enumerate() {
            let mut seen = [false; 8];
            for &d in digits {
                seen[d as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "state {row} digit map is not a permutation");
        }
    }

    /// Not a correctness test: prints LUT vs bitwise timings over a full
    /// 128³ sweep.  Run with
    /// `cargo test -p qbism-sfc --release -- --ignored --nocapture lut_speed`.
    #[test]
    #[ignore = "timing report, run explicitly in release mode"]
    #[expect(
        clippy::disallowed_methods,
        reason = "an ignored speed report: it measures native time by design"
    )]
    fn lut_speedup_report() {
        let h = HilbertCurve::new(3, 7);
        let mut acc = 0u64;
        acc ^= h.index_of(&[1, 2, 3]); // force LUT derivation outside timing
        let lut = std::time::Instant::now();
        for x in 0..128u32 {
            for y in 0..128 {
                for z in 0..128 {
                    acc ^= h.index_of(&[x, y, z]);
                }
            }
        }
        let lut = lut.elapsed();
        let bitwise = std::time::Instant::now();
        for x in 0..128u32 {
            for y in 0..128 {
                for z in 0..128 {
                    acc ^= h.index_of_bitwise(&[x, y, z]);
                }
            }
        }
        let bitwise = bitwise.elapsed();
        println!("128^3 index_of sweep: lut {lut:?}  bitwise {bitwise:?}  (acc {acc})");
    }

    #[test]
    fn lut_matches_bitwise_exhaustively_at_low_bits() {
        // Every cell of every grid up to 16³: the LUT path and the
        // Skilling bit-exchange path must agree index for index.
        for bits in 1..=4u32 {
            let h = HilbertCurve::new(3, bits);
            let side = 1u32 << bits;
            for x in 0..side {
                for y in 0..side {
                    for z in 0..side {
                        let c = [x, y, z];
                        assert_eq!(
                            HilbertLut3::get().index_of(bits, &c),
                            h.index_of_bitwise(&c),
                            "bits={bits} coords={c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lut_decode_matches_bitwise_exhaustively_at_low_bits() {
        // Every index of every grid up to 16³: the inverse-table decode
        // and the Skilling unpack + bit-exchange must agree.
        for bits in 1..=4u32 {
            let h = HilbertCurve::new(3, bits);
            let mut lut = [0u32; 3];
            let mut oracle = [0u32; 3];
            for idx in 0..h.cell_count() {
                HilbertLut3::get().coords_of(bits, idx, &mut lut);
                h.coords_of_bitwise(idx, &mut oracle);
                assert_eq!(lut, oracle, "bits={bits} index={idx}");
            }
        }
    }

    proptest! {
        #[test]
        fn lut_matches_bitwise_64_cubed(x in 0u32..64, y in 0u32..64, z in 0u32..64) {
            // The 64³ PET grid of the paper's experiments.
            let h = HilbertCurve::new(3, 6);
            prop_assert_eq!(h.index_of(&[x, y, z]), h.index_of_bitwise(&[x, y, z]));
        }

        #[test]
        fn lut_matches_bitwise_128_cubed(x in 0u32..128, y in 0u32..128, z in 0u32..128) {
            // The 128³ MRI/atlas grid.
            let h = HilbertCurve::new(3, 7);
            prop_assert_eq!(h.index_of(&[x, y, z]), h.index_of_bitwise(&[x, y, z]));
        }

        #[test]
        fn lut_decode_matches_bitwise_64_cubed(idx in 0u64..(1u64 << 18)) {
            let h = HilbertCurve::new(3, 6);
            let mut lut = [0u32; 3];
            let mut oracle = [0u32; 3];
            h.coords_of(idx, &mut lut);
            h.coords_of_bitwise(idx, &mut oracle);
            prop_assert_eq!(lut, oracle);
        }

        #[test]
        fn lut_decode_matches_bitwise_128_cubed(idx in 0u64..(1u64 << 21)) {
            let h = HilbertCurve::new(3, 7);
            let mut lut = [0u32; 3];
            let mut oracle = [0u32; 3];
            h.coords_of(idx, &mut lut);
            h.coords_of_bitwise(idx, &mut oracle);
            prop_assert_eq!(lut, oracle);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_3d_7bits(x in 0u32..128, y in 0u32..128, z in 0u32..128) {
            // 128^3 is the atlas-space grid used throughout the paper.
            let h = HilbertCurve::new(3, 7);
            let idx = h.index_of(&[x, y, z]);
            let mut back = [0u32; 3];
            h.coords_of(idx, &mut back);
            prop_assert_eq!(back, [x, y, z]);
        }

        #[test]
        fn roundtrip_3d_9bits(x in 0u32..512, y in 0u32..512, z in 0u32..512) {
            // 512^3: the paper notes <z-id, rank> packs into 4 bytes at
            // this resolution; our indices must stay exact there too.
            let h = HilbertCurve::new(3, 9);
            let idx = h.index_of(&[x, y, z]);
            let mut back = [0u32; 3];
            h.coords_of(idx, &mut back);
            prop_assert_eq!(back, [x, y, z]);
        }

        #[test]
        fn roundtrip_4d(c in proptest::array::uniform4(0u32..32)) {
            // The paper claims the techniques extend to other
            // dimensionalities "in a straightforward manner".
            let h = HilbertCurve::new(4, 5);
            let idx = h.index_of(&c);
            let mut back = [0u32; 4];
            h.coords_of(idx, &mut back);
            prop_assert_eq!(back, c);
        }

        #[test]
        fn unit_step_property_random_pairs(idx in 0u64..((1u64 << 21) - 1)) {
            let h = HilbertCurve::new(3, 7);
            let mut a = [0u32; 3];
            let mut b = [0u32; 3];
            h.coords_of(idx, &mut a);
            h.coords_of(idx + 1, &mut b);
            let dist: u32 = a.iter().zip(&b).map(|(p, q)| p.abs_diff(*q)).sum();
            prop_assert_eq!(dist, 1);
        }
    }
}
