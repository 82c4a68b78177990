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
    #[inline]
    pub fn sample_trilinear(&self, p: Vec3) -> f64 {
        // Convert to continuous voxel coordinates, centred samples.
        let fx = p.x / self.spacing.x - 0.5;
        let fy = p.y / self.spacing.y - 0.5;
        let fz = p.z / self.spacing.z - 0.5;
        let [nx, ny, nz] = self.dims.map(|d| d as usize);
        // The taps are cells `floor(f)` and `floor(f) + 1`; once any
        // coordinate is a whole cell off the grid all eight are air.
        let on = |f: f64, n: usize| f >= -1.0 && f < n as f64;
        if !(on(fx, nx) && on(fy, ny) && on(fz, nz)) {
            return 0.0;
        }
        let (x0, tx) = split(fx);
        let (y0, ty) = split(fy);
        let (z0, tz) = split(fz);
        let weights = [[1.0 - tx, tx], [1.0 - ty, ty], [1.0 - tz, tz]];
        let interior = |c: i64, n: usize| c >= 0 && (c as usize) + 1 < n;
        if !(interior(x0, nx) && interior(y0, ny) && interior(z0, nz)) {
            return blend(weights, |dx, dy, dz| {
                self.fetch(x0 + dx as i64, y0 + dy as i64, z0 + dz as i64)
            });
        }
        // All eight taps are in the grid: one bounds test, then the four
        // z-adjacent pairs load directly.
        let base = (x0 as usize * ny + y0 as usize) * nz + z0 as usize;
        let cell = &self.data[base..base + (ny + 1) * nz + 2];
        let pair = |at: usize| [cell[at], cell[at + 1]];
        let taps = [[pair(0), pair(nz)], [pair(ny * nz), pair(ny * nz + nz)]];
        blend(weights, |dx, dy, dz| f64::from(taps[dx][dy][dz]))
    }

    /// Fetches with zero padding outside the grid.
    fn fetch(&self, x: i64, y: i64, z: i64) -> f64 {
        if x < 0
            || y < 0
            || z < 0
            || x >= i64::from(self.dims[0])
            || y >= i64::from(self.dims[1])
            || z >= i64::from(self.dims[2])
        {
            return 0.0;
        }
        f64::from(self.at(x as u32, y as u32, z as u32))
    }
}

/// The trilinear sum: one weight and one tap per cell corner, x slowest,
/// each term `((wx * wy) * wz) * tap` — the one order and association
/// every path through [`RawStudy::sample_trilinear`] shares, so they
/// agree to the bit.  (A zero weight adds `+0.0`: weights and taps are
/// non-negative, so skipping the term would change nothing.)
#[inline]
fn blend(w: [[f64; 2]; 3], tap: impl Fn(usize, usize, usize) -> f64) -> f64 {
    let mut acc = 0.0;
    for dx in 0..2 {
        for dy in 0..2 {
            for dz in 0..2 {
                acc += w[0][dx] * w[1][dy] * w[2][dz] * tap(dx, dy, dz);
            }
        }
    }
    acc
}

/// Splits a continuous coordinate into integer base (its floor) and
/// fraction.  `as i64` truncates toward zero, so the floor is one below
/// wherever truncation rounded a negative coordinate up — exact for
/// every `|f| < 2^53`, and the caller has already confined `f` to
/// `[-1, dim)`.  (`f64::floor` is a libm call on baseline x86-64, and
/// three of them were a fifth of the warp.)
#[inline]
fn split(f: f64) -> (i64, f64) {
    let mut base = f as i64;
    if base as f64 > f {
        base -= 1;
    }
    (base, f - base as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_geometry::Affine3;

    /// The resampler as it stood before the interior fast path and the
    /// all-air early-out: every tap through the bounds-checked `fetch`,
    /// zero weights skipped.  Kept as the bit-identity oracle.
    fn sample_trilinear_reference(s: &RawStudy, p: Vec3) -> f64 {
        let fx = p.x / s.spacing.x - 0.5;
        let fy = p.y / s.spacing.y - 0.5;
        let fz = p.z / s.spacing.z - 0.5;
        let floor_split = |f: f64| (f.floor() as i64, f - f.floor());
        let (x0, tx) = floor_split(fx);
        let (y0, ty) = floor_split(fy);
        let (z0, tz) = floor_split(fz);
        let mut acc = 0.0;
        for (dx, wx) in [(0i64, 1.0 - tx), (1, tx)] {
            for (dy, wy) in [(0i64, 1.0 - ty), (1, ty)] {
                for (dz, wz) in [(0i64, 1.0 - tz), (1, tz)] {
                    let w = wx * wy * wz;
                    if w == 0.0 {
                        continue;
                    }
                    acc += w * s.fetch(x0 + dx, y0 + dy, z0 + dz);
                }
            }
        }
        acc
    }

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
            // (early-out); lattice points also land exactly on cell
            // centres and faces, where fractions are 0.
            let s = RawStudy::from_fn([16, 16, 7], Vec3::new(1.0, 1.0, 2.0), |x, y, z| {
                (x * 31 + y * 17 + z * 7 + seed) as u8
            });
            let map = Affine3::rotation_x(angles[0])
                .then(&Affine3::rotation_y(angles[1]))
                .then(&Affine3::rotation_z(angles[2]))
                .then(&Affine3::uniform_scaling(scale))
                .then(&Affine3::translation(Vec3::from(shift)));
            let lattice = (0..12).map(|i| f64::from(i) * 1.5);
            for x in lattice.clone() {
                for y in lattice.clone() {
                    for z in lattice.clone() {
                        for p in [Vec3::new(x, y, z), map.apply(Vec3::new(x, y, z))] {
                            prop_assert_eq!(
                                s.sample_trilinear(p).to_bits(),
                                sample_trilinear_reference(&s, p).to_bits(),
                                "at {:?}", p
                            );
                        }
                    }
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
