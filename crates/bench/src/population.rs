//! The REGION population Section 4 measures over: "the various anatomic
//! and intensity band REGIONs" — 11 atlas structures plus 8 bands from
//! each of 5 PET and 3 MRI studies.
//!
//! Volumes here are sampled directly from the atlas-space truth fields
//! (no misalignment/warp round trip): Section 4 studies representation
//! statistics of *warped* volumes, and the warp is identity-like by
//! construction, so sampling the truth preserves every measured
//! statistic while keeping the harness fast.

use qbism_phantom::{build_atlas, MriField, PetField, ScalarField3};
use qbism_region::{GridGeometry, Region};
use qbism_sfc::CurveKind;
use qbism_volume::Volume;

/// A named region sample.
pub struct NamedRegion {
    /// Where the region came from (structure name or `PET3 band 64-95`).
    pub name: String,
    /// The region, on the Hilbert curve.
    pub region: Region,
}

/// Builds the full Section 4 population at the given grid size.
///
/// `pet` and `mri` control the number of studies (paper: 5 and 3);
/// bands are 32 wide.  Empty bands are skipped (they carry no
/// representation statistics).
pub fn region_population(bits: u32, pet: usize, mri: usize, seed: u64) -> Vec<NamedRegion> {
    let geom = GridGeometry::new(CurveKind::Hilbert, 3, bits);
    let atlas = build_atlas(geom);
    let mut out: Vec<NamedRegion> = atlas
        .structures()
        .iter()
        .map(|s| NamedRegion { name: s.name.to_string(), region: s.region.clone() })
        .collect();
    let mut add_bands = |label: &str, volume: &Volume| {
        for (lo, hi, region) in volume.intensity_bands(32) {
            if !region.is_empty() {
                out.push(NamedRegion { name: format!("{label} band {lo}-{hi}"), region });
            }
        }
    };
    for i in 0..pet {
        let field = PetField::new(&atlas, seed.wrapping_add(100 + i as u64), 4);
        let vol = sample_field(geom, &field);
        add_bands(&format!("PET{}", i + 1), &vol);
    }
    for i in 0..mri {
        let field = MriField::new(&atlas, seed.wrapping_add(900 + i as u64));
        let vol = sample_field(geom, &field);
        add_bands(&format!("MRI{}", i + 1), &vol);
    }
    out
}

/// Samples a continuous field at voxel centres into a volume, one z
/// row of the grid at a time.
pub fn sample_field<F: ScalarField3>(geom: GridGeometry, field: &F) -> Volume {
    let side = geom.side() as usize;
    let centre = |c: usize| c as f64 + 0.5;
    let (mut points, mut row) = (Vec::with_capacity(side), vec![0.0; side]);
    let mut scan = Vec::with_capacity(side * side * side);
    for x in 0..side {
        for y in 0..side {
            points.clear();
            points.extend(
                (0..side).map(|z| qbism_geometry::Vec3::new(centre(x), centre(y), centre(z))),
            );
            field.row(&points, &mut row);
            scan.extend(row.iter().map(|&v| qbism_geometry::round_to_byte(v)));
        }
    }
    Volume::from_fn3(geom, |x, y, z| scan[(x as usize * side + y as usize) * side + z as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_has_structures_and_bands() {
        let pop = region_population(5, 1, 1, 7);
        assert!(pop.len() > 11, "structures plus at least some bands");
        assert!(pop.iter().any(|r| r.name == "ntal1"));
        assert!(pop.iter().any(|r| r.name.starts_with("PET1 band")));
        assert!(pop.iter().any(|r| r.name.starts_with("MRI1 band")));
        for r in &pop {
            assert!(!r.region.is_empty(), "{} empty", r.name);
        }
    }

    #[test]
    fn population_is_deterministic() {
        let a = region_population(5, 1, 0, 3);
        let b = region_population(5, 1, 0, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.region, y.region, "{} differs", x.name);
        }
    }

    #[test]
    fn bands_of_one_study_partition_the_grid() {
        let geom = GridGeometry::new(CurveKind::Hilbert, 3, 5);
        let atlas = build_atlas(geom);
        let field = PetField::new(&atlas, 5, 3);
        let vol = sample_field(geom, &field);
        let total: u64 = vol.intensity_bands(32).iter().map(|(_, _, r)| r.voxel_count()).sum();
        assert_eq!(total, geom.cell_count());
    }
}
