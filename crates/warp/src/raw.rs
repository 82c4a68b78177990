//! Raw (acquisition-space) studies.
//!
//! The paper's radiological inputs are *not* cubic: "5 PET studies (each
//! with 51 128x128 8-bit deep image slices) and 3 MRI studies (each with
//! 44 512x512 8-bit deep image slices)."  [`RawStudy`] holds such a
//! volume at its native resolution, in slice/scanline order, and supports
//! the trilinear sampling warping needs.

use qbism_geometry::Vec3;

/// An 8-bit volume at acquisition resolution, stored in scanline order
/// (x slowest, z fastest), with physical voxel spacing.
///
/// Patient-space coordinates are measured in the study's own millimetre
/// frame: voxel `(i, j, k)` is centred at
/// `((i + 0.5) * spacing.x, (j + 0.5) * spacing.y, (k + 0.5) * spacing.z)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RawStudy {
    dims: [u32; 3],
    spacing: Vec3,
    data: Vec<u8>,
}

impl RawStudy {
    /// Wraps raw slice data.
    ///
    /// # Panics
    /// Panics if the data length does not equal `nx * ny * nz`, any
    /// dimension is zero, or any spacing is non-positive.
    pub fn new(dims: [u32; 3], spacing: Vec3, data: Vec<u8>) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "raw study dims must be positive: {dims:?}");
        assert!(
            spacing.x > 0.0 && spacing.y > 0.0 && spacing.z > 0.0,
            "voxel spacing must be positive: {spacing:?}"
        );
        let expect = dims.iter().map(|&d| d as usize).product::<usize>();
        assert_eq!(
            data.len(),
            expect,
            "raw study data length {} does not match dims {dims:?}",
            data.len()
        );
        RawStudy { dims, spacing, data }
    }

    /// Builds a study by evaluating `f` at every voxel index.
    pub fn from_fn<F: FnMut(u32, u32, u32) -> u8>(dims: [u32; 3], spacing: Vec3, mut f: F) -> Self {
        let mut data = Vec::with_capacity(dims.iter().map(|&d| d as usize).product());
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..dims[2] {
                    data.push(f(x, y, z));
                }
            }
        }
        RawStudy::new(dims, spacing, data)
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Physical voxel spacing (mm per voxel along each axis).
    pub fn spacing(&self) -> Vec3 {
        self.spacing
    }

    /// Raw scanline bytes (x slowest, z fastest).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Voxel value by index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn at(&self, x: u32, y: u32, z: u32) -> u8 {
        assert!(
            x < self.dims[0] && y < self.dims[1] && z < self.dims[2],
            "voxel ({x},{y},{z}) outside dims {:?}",
            self.dims
        );
        self.data[((x as usize * self.dims[1] as usize) + y as usize) * self.dims[2] as usize
            + z as usize]
    }

    /// Trilinear sample at a patient-space point (millimetres).
    /// Points outside the study volume — and points with a non-finite
    /// coordinate — sample as 0 (air), which is how warped volumes
    /// acquire their black border.
    pub fn sample_trilinear(&self, p: Vec3) -> f64 {
        self.sample_lanes([[p.x; LANES], [p.y; LANES], [p.z; LANES]])[0]
    }

    /// The trilinear sums at [`LANES`] patient-space points, given axis
    /// by axis (`p[axis][lane]`): the resampler's one kernel.
    ///
    /// Each lane computes what one point's sample always has, operation
    /// for operation — `p / spacing − 0.5`, the floor split, and
    /// [`blend`]'s sum — so a sum is the same bits whichever lanes it
    /// shares and whichever path its batch takes.  A batch wholly inside
    /// the grid loads its taps directly, and one wholly off it is air.
    /// Any other batch takes the masked path: a tap off the grid reads
    /// an in-grid cell and is masked to 0 (what zero padding reads), and
    /// a lane off the grid has every tap masked and its coordinates
    /// replaced by 0 so its weights stay finite — its terms are all
    /// `+0.0`, its sum `0.0`.
    #[inline]
    pub(crate) fn sample_lanes(&self, p: [[f64; LANES]; 3]) -> [f64; LANES] {
        let spacing = [self.spacing.x, self.spacing.y, self.spacing.z];
        let mut f = [[0.0; LANES]; 3];
        for ((f, p), spacing) in f.iter_mut().zip(&p).zip(spacing) {
            for (f, &p) in f.iter_mut().zip(p) {
                *f = p / spacing - 0.5;
            }
        }
        let [_, ny, nz] = self.dims.map(|d| d as usize);
        let strides = [ny * nz, nz, 1];
        // The taps are cells `floor(f)` and `floor(f) + 1`.  A lane is
        // interior when all eight are in the grid (`0 <= f < n - 1` on
        // every axis) and off once any coordinate is a whole cell off it
        // (outside `[-1, n)`, or not finite): then all eight are air.
        let mut interior = true;
        let mut off = [false; LANES];
        for (f, &n) in f.iter().zip(&self.dims) {
            let n = f64::from(n);
            for (&f, off) in f.iter().zip(&mut off) {
                interior &= f >= 0.0 && f < n - 1.0;
                *off |= !(f >= -1.0 && f < n);
            }
        }
        let mut weight = [[[0.0; LANES]; 2]; 3];
        let mut taps = [[0.0; LANES]; 8];
        if interior {
            let mut base = [0; LANES];
            for ((f, weight), stride) in f.iter().zip(&mut weight).zip(strides) {
                for (lane, &f) in f.iter().enumerate() {
                    let (cell, whole) = floor(f);
                    weight[0][lane] = 1.0 - (f - whole);
                    weight[1][lane] = f - whole;
                    base[lane] += cell as usize * stride;
                }
            }
            for (k, taps) in taps.iter_mut().enumerate() {
                let at = (k >> 2) * strides[0] + (k >> 1 & 1) * nz + (k & 1);
                for (tap, &base) in taps.iter_mut().zip(&base) {
                    *tap = f64::from(self.data.get(base + at).copied().unwrap_or(0));
                }
            }
            return blend(&weight, &taps);
        }
        if off == [true; LANES] {
            return [0.0; LANES];
        }
        // Per axis, per corner (the cell's low and high tap), per lane:
        // the tap's offset along the axis, clamped into the grid, and
        // `0xFF` where the unclamped tap is in the grid, else 0.
        let mut offset = [[[0; LANES]; 2]; 3];
        let mut live = [[[0u8; LANES]; 2]; 3];
        for (axis, (f, (&n, stride))) in f.iter().zip(self.dims.iter().zip(strides)).enumerate() {
            let last = i64::from(n) - 1;
            for (lane, &f) in f.iter().enumerate() {
                let f = if off[lane] { 0.0 } else { f };
                let (cell, whole) = floor(f);
                weight[axis][0][lane] = 1.0 - (f - whole);
                weight[axis][1][lane] = f - whole;
                offset[axis][0][lane] = cell.max(0) as usize * stride;
                offset[axis][1][lane] = (cell + 1).min(last) as usize * stride;
                live[axis][0][lane] = mask(cell >= 0 && !off[lane]);
                live[axis][1][lane] = mask(cell < last && !off[lane]);
            }
        }
        for (k, taps) in taps.iter_mut().enumerate() {
            let (dx, dy, dz) = (k >> 2, k >> 1 & 1, k & 1);
            for (lane, tap) in taps.iter_mut().enumerate() {
                let at = offset[0][dx][lane] + offset[1][dy][lane] + offset[2][dz][lane];
                let keep = live[0][dx][lane] & live[1][dy][lane] & live[2][dz][lane];
                *tap = f64::from(self.data.get(at).map_or(0, |&v| v & keep));
            }
        }
        blend(&weight, &taps)
    }
}

/// The trilinear sum of each lane: one weight and one tap per cell
/// corner (tap `k` is corner `(k >> 2, k >> 1 & 1, k & 1)`), x slowest,
/// each term `((wx · wy) · wz) · tap`.  (A zero weight adds `+0.0`:
/// weights and taps are non-negative, so skipping the term would change
/// nothing.)  Always inlined: called out of line, with its taps passed
/// through memory, it made the kernel slower than the scalar loop it
/// replaced.
#[inline(always)]
fn blend(weight: &[[[f64; LANES]; 2]; 3], taps: &[[f64; LANES]; 8]) -> [f64; LANES] {
    let mut acc = [0.0; LANES];
    for (dx, wx) in weight[0].iter().enumerate() {
        for (dy, wy) in weight[1].iter().enumerate() {
            let wxy: [f64; LANES] = std::array::from_fn(|l| wx[l] * wy[l]);
            for (dz, wz) in weight[2].iter().enumerate() {
                let tap = &taps[dx * 4 + dy * 2 + dz];
                for lane in 0..LANES {
                    acc[lane] += wxy[lane] * wz[lane] * tap[lane];
                }
            }
        }
    }
    acc
}

/// Points the resampler evaluates together.  Four independent sums
/// interleave, so one voxel's eight dependent adds no longer wait on
/// the last voxel's.
pub(crate) const LANES: usize = 4;

/// `0xFF` where `keep` holds, else `0`: a tap mask without a branch.
#[inline]
fn mask(keep: bool) -> u8 {
    u8::from(keep).wrapping_neg()
}

/// `floor(f)` as an integer and as a float, for `|f| < 2^51`, without
/// a branch: adding 1.5 · 2^52 rounds `f` to the nearest integer, held
/// in the sum's low mantissa bits, and the floor is one below wherever
/// that rounded up.  (`f64::floor` is a libm call on baseline x86-64,
/// and `as` saturates, which costs a clamp and a NaN test per value.)
#[inline]
pub(crate) fn floor(f: f64) -> (i64, f64) {
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let sum = f + ROUND;
    let nearest = sum - ROUND;
    let down = nearest > f;
    let cell = (sum.to_bits() as i64 - ROUND.to_bits() as i64) - i64::from(down);
    (cell, nearest - if down { 1.0 } else { 0.0 })
}

/// The scalar resampler the lane kernel replaced, kept as the tests'
/// bit-identity oracle: one point at a time, `f64::floor`, every tap
/// through a bounds test, zero weights skipped.
#[cfg(test)]
pub(crate) fn sample_trilinear_reference(s: &RawStudy, p: Vec3) -> f64 {
    let fx = p.x / s.spacing.x - 0.5;
    let fy = p.y / s.spacing.y - 0.5;
    let fz = p.z / s.spacing.z - 0.5;
    let floor_split = |f: f64| (f.floor() as i64, f - f.floor());
    let (x0, tx) = floor_split(fx);
    let (y0, ty) = floor_split(fy);
    let (z0, tz) = floor_split(fz);
    let fetch = |x: i64, y: i64, z: i64| {
        let [nx, ny, nz] = s.dims.map(i64::from);
        if (0..nx).contains(&x) && (0..ny).contains(&y) && (0..nz).contains(&z) {
            f64::from(s.at(x as u32, y as u32, z as u32))
        } else {
            0.0
        }
    };
    let mut acc = 0.0;
    for (dx, wx) in [(0i64, 1.0 - tx), (1, tx)] {
        for (dy, wy) in [(0i64, 1.0 - ty), (1, ty)] {
            for (dz, wz) in [(0i64, 1.0 - tz), (1, tz)] {
                let w = wx * wy * wz;
                if w == 0.0 {
                    continue;
                }
                acc += w * fetch(x0 + dx, y0 + dy, z0 + dz);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_geometry::Affine3;

    fn pet_like() -> RawStudy {
        // A small analogue of the paper's 128x128x51 PET geometry.
        RawStudy::from_fn([16, 16, 7], Vec3::new(1.0, 1.0, 2.0), |x, y, z| {
            (x * 8 + y * 4 + z * 16) as u8
        })
    }

    #[test]
    fn dims_and_spacing() {
        let s = pet_like();
        assert_eq!(s.dims(), [16, 16, 7]);
        assert_eq!(s.spacing(), Vec3::new(1.0, 1.0, 2.0));
        assert_eq!(s.data().len(), 16 * 16 * 7);
    }

    #[test]
    fn at_matches_generator() {
        let s = pet_like();
        assert_eq!(s.at(0, 0, 0), 0);
        assert_eq!(s.at(1, 2, 3), 8 + 8 + 48);
        assert_eq!(s.at(15, 15, 6), (15 * 8 + 15 * 4 + 6 * 16) as u8);
    }

    #[test]
    fn sample_at_voxel_center_is_exact() {
        let s = pet_like();
        for (x, y, z) in [(0u32, 0u32, 0u32), (5, 9, 3), (15, 15, 6)] {
            let p = Vec3::new(
                (f64::from(x) + 0.5) * 1.0,
                (f64::from(y) + 0.5) * 1.0,
                (f64::from(z) + 0.5) * 2.0,
            );
            assert!(
                (s.sample_trilinear(p) - f64::from(s.at(x, y, z))).abs() < 1e-9,
                "at ({x},{y},{z})"
            );
        }
    }

    #[test]
    fn sample_midway_interpolates() {
        // Constant-gradient field along x: halfway between voxel centres
        // the sample is the average of the neighbours.
        let s = RawStudy::from_fn([8, 4, 4], Vec3::ONE, |x, _, _| (x * 10) as u8);
        let p = Vec3::new(2.0, 1.5, 1.5); // between x=1 and x=2 centres
        assert!((s.sample_trilinear(p) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn outside_samples_zero() {
        let s = pet_like();
        assert_eq!(s.sample_trilinear(Vec3::new(-5.0, 1.0, 1.0)), 0.0);
        assert_eq!(s.sample_trilinear(Vec3::new(100.0, 100.0, 100.0)), 0.0);
        // The very edge fades toward zero rather than clamping.
        let edge = s.sample_trilinear(Vec3::new(0.1, 8.0, 7.0));
        assert!(edge < f64::from(s.at(0, 7, 3)) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn wrong_data_length_panics() {
        let _ = RawStudy::new([4, 4, 4], Vec3::ONE, vec![0u8; 63]);
    }

    #[test]
    #[should_panic(expected = "outside dims")]
    fn out_of_range_at_panics() {
        let _ = pet_like().at(16, 0, 0);
    }

    proptest! {
        #[test]
        fn fast_paths_are_bit_equal_to_the_reference(
            angles in proptest::array::uniform3(-3.2f64..3.2),
            scale in 0.3f64..3.0,
            shift in proptest::array::uniform3(-40.0f64..40.0),
            seed in 0u32..1000,
        ) {
            // Random affine maps of a 12³ probe lattice: small shifts
            // keep it inside the study (interior path), larger ones put
            // it across the border (zero-padded taps) or wholly outside
            // (all air); lattice points also land exactly on cell
            // centres and faces, where fractions are 0.  Each point is
            // sampled alone and as a lane of a batch of 4 consecutive
            // points, so batches mix interior, border and outside lanes.
            let s = RawStudy::from_fn([16, 16, 7], Vec3::new(1.0, 1.0, 2.0), |x, y, z| {
                (x * 31 + y * 17 + z * 7 + seed) as u8
            });
            let map = Affine3::rotation_x(angles[0])
                .then(&Affine3::rotation_y(angles[1]))
                .then(&Affine3::rotation_z(angles[2]))
                .then(&Affine3::uniform_scaling(scale))
                .then(&Affine3::translation(Vec3::from(shift)));
            let lattice = (0..12).map(|i| f64::from(i) * 1.5);
            let mut points = Vec::new();
            for x in lattice.clone() {
                for y in lattice.clone() {
                    for z in lattice.clone() {
                        points.extend([Vec3::new(x, y, z), map.apply(Vec3::new(x, y, z))]);
                    }
                }
            }
            for batch in points.chunks(LANES) {
                let lanes = s.sample_lanes(std::array::from_fn(|axis| {
                    std::array::from_fn(|lane| {
                        let p = batch[lane.min(batch.len() - 1)];
                        [p.x, p.y, p.z][axis]
                    })
                }));
                for (&p, lane) in batch.iter().zip(lanes) {
                    let reference = sample_trilinear_reference(&s, p).to_bits();
                    prop_assert_eq!(s.sample_trilinear(p).to_bits(), reference, "at {:?}", p);
                    prop_assert_eq!(lane.to_bits(), reference, "lane at {:?}", p);
                }
            }
        }

        #[test]
        fn samples_are_bounded_by_data_range(
            px in -2.0f64..20.0, py in -2.0f64..20.0, pz in -2.0f64..20.0,
        ) {
            let s = pet_like();
            let v = s.sample_trilinear(Vec3::new(px, py, pz));
            prop_assert!((0.0..=255.0).contains(&v));
        }

        #[test]
        fn constant_study_samples_constant_inside(
            x in 1u32..15, y in 1u32..15, z in 1u32..6,
            fx in 0.0f64..1.0, fy in 0.0f64..1.0, fz in 0.0f64..1.0,
        ) {
            let s = RawStudy::new([16, 16, 7], Vec3::ONE, vec![99u8; 16 * 16 * 7]);
            // any point at least one voxel away from the border
            let p = Vec3::new(
                f64::from(x) + fx * 0.999,
                f64::from(y) + fy * 0.999,
                f64::from(z) + fz * 0.999,
            );
            // stay a full voxel inside
            prop_assume!(p.x >= 1.0 && p.x <= 15.0 && p.y >= 1.0 && p.y <= 15.0 && p.z >= 1.0 && p.z <= 6.0);
            prop_assert!((s.sample_trilinear(p) - 99.0).abs() < 1e-9);
        }
    }
}
