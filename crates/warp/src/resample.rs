//! Resampling a raw study onto the atlas grid.

use crate::raw::LANES;
use crate::RawStudy;
use qbism_geometry::{round_to_byte, Affine3};
use qbism_region::GridGeometry;
use qbism_volume::Volume;

/// Why a raw study could not be warped onto an atlas grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarpError {
    /// The atlas grid is not 3-D.
    NotThreeD {
        /// Dimensions of the grid supplied.
        dims: u32,
    },
    /// The atlas voxel size is not a positive number of millimetres.
    NonPositiveVoxelSize {
        /// The voxel size supplied, in mm.
        mm: f64,
    },
    /// The patient → atlas matrix has no inverse.
    SingularTransform,
}

impl std::fmt::Display for WarpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarpError::NotThreeD { dims } => write!(f, "atlas grid must be 3-D, got {dims}-D"),
            WarpError::NonPositiveVoxelSize { mm } => {
                write!(f, "atlas voxel size must be positive, got {mm} mm")
            }
            WarpError::SingularTransform => write!(f, "warping matrix must be invertible"),
        }
    }
}

impl std::error::Error for WarpError {}

/// Warps a raw study into atlas space: for every atlas voxel centre the
/// stored `patient_to_atlas` matrix is inverted to find the matching
/// patient-space point, which is sampled trilinearly.  Atlas voxels that
/// map outside the study come out 0.
///
/// Atlas-space coordinates are voxel units of the atlas grid (the paper's
/// 128³ "atlas space"), with `atlas_mm_per_voxel` relating them to the
/// millimetre frame the registration was computed in.
///
/// This is the computation QBISM performs **once at load time** ("we
/// generate and store the warped volume here at database load time
/// (rather than query time) since the computation is expensive").
///
/// # Errors
/// [`WarpError`] if the geometry is not 3-D, `atlas_mm_per_voxel` is not
/// positive, or the transform is singular.
pub fn warp_to_atlas(
    raw: &RawStudy,
    patient_to_atlas: &Affine3,
    atlas_geom: GridGeometry,
    atlas_mm_per_voxel: f64,
) -> Result<Volume, WarpError> {
    if atlas_geom.dims() != 3 {
        return Err(WarpError::NotThreeD { dims: atlas_geom.dims() });
    }
    if atlas_mm_per_voxel.is_nan() || atlas_mm_per_voxel <= 0.0 {
        return Err(WarpError::NonPositiveVoxelSize { mm: atlas_mm_per_voxel });
    }
    let atlas_to_patient = patient_to_atlas.inverse().ok_or(WarpError::SingularTransform)?;
    let side = atlas_geom.side() as usize;
    let scan = resample_scanline(raw, &atlas_to_patient, side, atlas_mm_per_voxel);
    Ok(Volume::from_fn3(atlas_geom, |x, y, z| {
        scan[(x as usize * side + y as usize) * side + z as usize]
    }))
}

/// The warped atlas grid in scanline order (x slowest, z fastest), each
/// voxel `sample_trilinear(atlas_to_patient.apply(centre))` rounded half
/// away from zero and clamped to a byte.
///
/// `apply` at the centre `c = ((x + ½)·mm, (y + ½)·mm, (z + ½)·mm)` is
/// `((m[i][0]·cx + m[i][1]·cy) + m[i][2]·cz) + t[i]`: each product
/// depends on one coordinate, so they are tabled once per axis, the
/// first sum once per row, and a voxel pays two adds per axis — the
/// same operands and order, so the same bits.  A row's voxels go
/// through [`RawStudy::sample_lanes`] [`LANES`] at a time; a short last
/// batch repeats its last voxel and keeps what the row needs.
fn resample_scanline(raw: &RawStudy, atlas_to_patient: &Affine3, side: usize, mm: f64) -> Vec<u8> {
    let centres: Vec<f64> = (0..side as u32).map(|k| (f64::from(k) + 0.5) * mm).collect();
    let m = atlas_to_patient.m;
    let products = |j: usize| -> Vec<[f64; 3]> {
        centres.iter().map(|&c| [m[0][j] * c, m[1][j] * c, m[2][j] * c]).collect()
    };
    let (along_x, along_y, along_z) = (products(0), products(1), products(2));
    let t = atlas_to_patient.t;
    let t = [t.x, t.y, t.z];
    let mut scan = vec![0; side * side * side];
    let rows = along_x.iter().flat_map(|px| along_y.iter().map(move |py| (px, py)));
    for (out, (px, py)) in scan.chunks_exact_mut(side).zip(rows) {
        let row: [f64; 3] = std::array::from_fn(|i| px[i] + py[i]);
        for (out, batch) in out.chunks_mut(LANES).zip(along_z.chunks(LANES)) {
            let last = batch.len() - 1;
            let p = std::array::from_fn(|i| {
                std::array::from_fn(|lane| (row[i] + batch[lane.min(last)][i]) + t[i])
            });
            for (out, &v) in out.iter_mut().zip(&raw.sample_lanes(p)) {
                *out = round_to_byte(v);
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::sample_trilinear_reference;
    use proptest::prelude::*;
    use qbism_geometry::Vec3;
    use qbism_sfc::CurveKind;

    /// `warp_to_atlas` as it stood before the lane kernel, one voxel at a
    /// time along the curve: the bit-identity oracle.
    fn warp_per_voxel(
        raw: &RawStudy,
        patient_to_atlas: &Affine3,
        atlas_geom: GridGeometry,
        mm: f64,
    ) -> Volume {
        let atlas_to_patient = patient_to_atlas.inverse().unwrap();
        Volume::from_fn3(atlas_geom, |x, y, z| {
            let centre = Vec3::new(
                (f64::from(x) + 0.5) * mm,
                (f64::from(y) + 0.5) * mm,
                (f64::from(z) + 0.5) * mm,
            );
            let v = sample_trilinear_reference(raw, atlas_to_patient.apply(centre));
            v.round().clamp(0.0, 255.0) as u8
        })
    }

    proptest! {
        #[test]
        fn warp_is_bit_equal_to_the_per_voxel_oracle(
            dims in proptest::array::uniform3(1u32..10),
            spacing in proptest::array::uniform3(0.4f64..3.0),
            angles in proptest::array::uniform3(-3.2f64..3.2),
            scale in 0.3f64..3.0,
            shift in proptest::array::uniform3(-24.0f64..40.0),
            mm in 0.5f64..2.5,
            aligned in any::<bool>(),
            seed in 0u32..320,
        ) {
            // Raw dims of 1–9 (1–3 slices included; most rows are not a
            // multiple of the lane width), anisotropic spacing, and a
            // footprint that the shift puts inside, across or outside
            // the atlas.  An aligned case (no rotation, unit scale and
            // spacing, a shift of whole or half mm, 1 mm atlas voxels)
            // lands atlas centres on raw centres or midway between them:
            // fractions are exactly 0 or ½, and sums hit the x.5 ties the
            // rounding must take away from zero.  A saturated study
            // (seed ≥ 256) sums to 255 ± rounding.
            let (angles, scale, shift, mm, spacing) = if aligned {
                ([0.0; 3], 1.0, shift.map(|s| (s * 2.0).round() / 2.0), 1.0, [1.0; 3])
            } else {
                (angles, scale, shift, mm, spacing)
            };
            let raw = RawStudy::from_fn(dims, Vec3::from(spacing), |x, y, z| {
                if seed >= 256 { 255 } else { (x * 73 + y * 151 + z * 37 + seed) as u8 }
            });
            let map = Affine3::rotation_x(angles[0])
                .then(&Affine3::rotation_y(angles[1]))
                .then(&Affine3::rotation_z(angles[2]))
                .then(&Affine3::uniform_scaling(scale))
                .then(&Affine3::translation(Vec3::from(shift)));
            for kind in [CurveKind::Hilbert, CurveKind::Morton] {
                for bits in [4, 5] {
                    let geom = GridGeometry::new(kind, 3, bits);
                    let warped = warp_to_atlas(&raw, &map, geom, mm).unwrap();
                    let oracle = warp_per_voxel(&raw, &map, geom, mm);
                    let first = warped.values().iter().zip(oracle.values()).position(|(a, b)| a != b);
                    prop_assert!(first.is_none(), "{kind:?} {bits} bits: first differing id {first:?}");
                }
            }
        }
    }

    fn atlas_geom() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 4) // 16^3 test atlas
    }

    #[test]
    fn identity_warp_same_grid_is_near_lossless() {
        // Raw study already on the atlas grid with 1 mm voxels: identity
        // warp must reproduce each voxel exactly (centres align).
        let raw =
            RawStudy::from_fn([16, 16, 16], Vec3::ONE, |x, y, z| (x * 13 + y * 5 + z * 3) as u8);
        let warped = warp_to_atlas(&raw, &Affine3::IDENTITY, atlas_geom(), 1.0).unwrap();
        for (x, y, z) in [(0, 0, 0), (5, 9, 3), (15, 15, 15), (8, 1, 14)] {
            assert_eq!(warped.probe(x, y, z), raw.at(x, y, z), "at ({x},{y},{z})");
        }
    }

    #[test]
    fn translation_warp_shifts_content() {
        // A bright voxel at patient (3,3,3) with a +2 mm x shift must
        // appear at atlas x = 5.
        let raw = RawStudy::from_fn([16, 16, 16], Vec3::ONE, |x, y, z| {
            if (x, y, z) == (3, 3, 3) {
                200
            } else {
                0
            }
        });
        let shift = Affine3::translation(Vec3::new(2.0, 0.0, 0.0));
        let warped = warp_to_atlas(&raw, &shift, atlas_geom(), 1.0).unwrap();
        assert_eq!(warped.probe(5, 3, 3), 200);
        assert_eq!(warped.probe(3, 3, 3), 0);
    }

    #[test]
    fn scaling_warp_resamples_anisotropic_study() {
        // The paper's PET studies are 128x128x51 with thick slices; model
        // a 16x16x8 study with 2 mm slices warped into a cubic atlas by a
        // pure unit mapping (patient mm == atlas mm).
        let raw =
            RawStudy::from_fn([16, 16, 8], Vec3::new(1.0, 1.0, 2.0), |_, _, z| (z * 30) as u8);
        let warped = warp_to_atlas(&raw, &Affine3::IDENTITY, atlas_geom(), 1.0).unwrap();
        // Atlas z = 2.5 mm falls exactly at slice 1's centre (3 mm)...
        // verify monotone increase along z instead of exact values.
        let lo = warped.probe(8, 8, 1);
        let mid = warped.probe(8, 8, 7);
        let hi = warped.probe(8, 8, 13);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn out_of_study_voxels_are_zero() {
        let raw = RawStudy::from_fn([4, 4, 4], Vec3::ONE, |_, _, _| 255);
        // Atlas is 16^3 mm; the study covers only 4 mm.
        let warped = warp_to_atlas(&raw, &Affine3::IDENTITY, atlas_geom(), 1.0).unwrap();
        assert_eq!(warped.probe(1, 1, 1), 255);
        assert_eq!(warped.probe(12, 12, 12), 0);
    }

    #[test]
    fn warp_respects_atlas_voxel_size() {
        // With 2 mm atlas voxels, atlas voxel 4 is at 9 mm.
        let raw = RawStudy::from_fn([32, 32, 32], Vec3::ONE, |x, _, _| {
            if x == 8 {
                180
            } else {
                0
            } // bright plane slab at 8.5mm
        });
        let warped = warp_to_atlas(&raw, &Affine3::IDENTITY, atlas_geom(), 2.0).unwrap();
        // atlas voxel x=4 centre = 9.0 mm -> halfway between raw 8 (8.5mm)
        // and 9 (9.5mm) centres -> trilinear = 90.
        assert_eq!(warped.probe(4, 8, 8), 90);
    }

    #[test]
    fn unwarpable_inputs_are_typed_errors() {
        let raw = RawStudy::from_fn([4, 4, 4], Vec3::ONE, |_, _, _| 0);
        let singular = Affine3::scaling(Vec3::new(1.0, 1.0, 0.0));
        assert_eq!(
            warp_to_atlas(&raw, &singular, atlas_geom(), 1.0),
            Err(WarpError::SingularTransform)
        );
        for mm in [0.0, -1.0] {
            assert_eq!(
                warp_to_atlas(&raw, &Affine3::IDENTITY, atlas_geom(), mm),
                Err(WarpError::NonPositiveVoxelSize { mm })
            );
        }
        assert!(matches!(
            warp_to_atlas(&raw, &Affine3::IDENTITY, atlas_geom(), f64::NAN),
            Err(WarpError::NonPositiveVoxelSize { .. })
        ));
        let plane = GridGeometry::new(CurveKind::Hilbert, 2, 4);
        assert_eq!(
            warp_to_atlas(&raw, &Affine3::IDENTITY, plane, 1.0),
            Err(WarpError::NotThreeD { dims: 2 })
        );
    }

    #[test]
    fn registration_plus_warp_recovers_alignment() {
        // End-to-end: a study acquired with a known misalignment, landmarks
        // marked in both frames, registration computed, study warped —
        // the bright feature must land where the atlas expects it.
        use crate::register_landmarks;
        // Truth: patient -> atlas is a translation by (3, 1, 2) mm.
        let truth = Affine3::translation(Vec3::new(3.0, 1.0, 2.0));
        let inv = truth.inverse().unwrap();
        // Feature at atlas (8.5, 8.5, 8.5) mm lives at patient (5.5, 7.5, 6.5).
        let raw = RawStudy::from_fn([16, 16, 16], Vec3::ONE, |x, y, z| {
            if (x, y, z) == (5, 7, 6) {
                220
            } else {
                0
            }
        });
        // Landmarks: atlas-frame points and their patient-frame positions.
        let atlas_pts = vec![
            Vec3::new(2.0, 2.0, 2.0),
            Vec3::new(12.0, 3.0, 5.0),
            Vec3::new(4.0, 11.0, 7.0),
            Vec3::new(6.0, 5.0, 13.0),
            Vec3::new(9.0, 9.0, 3.0),
        ];
        let patient_pts: Vec<Vec3> = atlas_pts.iter().map(|&a| inv.apply(a)).collect();
        let est = register_landmarks(&patient_pts, &atlas_pts).unwrap();
        let warped = warp_to_atlas(&raw, &est, atlas_geom(), 1.0).unwrap();
        assert_eq!(warped.probe(8, 8, 8), 220);
    }
}
