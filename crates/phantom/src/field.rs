//! Continuous atlas-space intensity fields.
//!
//! A *study* is ultimately a sampled scalar field (Section 1 of the
//! paper).  We synthesize the underlying continuous field per modality
//! and let [`crate::study`] sample it through a misalignment transform,
//! which is exactly how a scanner sees a patient.

use crate::anatomy::PhantomAtlas;
use crate::noise::ValueNoise;
use qbism_geometry::{Bounds3, Solid, Vec3};
use qbism_sfc::SpaceFillingCurve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A continuous scalar field over atlas space (units: atlas voxels =
/// millimetres), producing values in `[0, 255]`.
pub trait ScalarField3 {
    /// Field value at a point.
    fn value(&self, p: Vec3) -> f64;
}

/// MRI-like structural field: each structure has a characteristic tissue
/// intensity, modulated by fractal noise ("soft-tissue structural
/// information").
pub struct MriField<'a> {
    atlas: &'a PhantomAtlas,
    /// The hull of every structure's bounds and the brain's: outside
    /// it no tissue can match, so most of the scanner's field of view
    /// is air after one box test.
    tissue_bounds: Bounds3,
    texture: ValueNoise,
    /// Noise amplitude around each tissue's base intensity.
    amplitude: f64,
}

impl<'a> MriField<'a> {
    /// An MRI field with the given seed.
    pub fn new(atlas: &'a PhantomAtlas, seed: u64) -> Self {
        let side = f64::from(atlas.geometry().side());
        let tissue_bounds =
            atlas.structures().iter().fold(atlas.brain_solid().bounds(), |b, s| b.hull(&s.bounds));
        MriField {
            atlas,
            tissue_bounds,
            texture: ValueNoise::new(seed, side / 18.0),
            amplitude: 28.0,
        }
    }
}

impl ScalarField3 for MriField<'_> {
    fn value(&self, p: Vec3) -> f64 {
        if !self.tissue_bounds.contains(p) {
            return 0.0;
        }
        // Last matching structure wins: deep structures are listed after
        // the hemispheres and override their base tissue.
        let mut base =
            self.atlas.structures().iter().rev().find(|s| s.contains(p)).map(|s| s.mri_intensity);
        // The longitudinal fissure lies between the hemisphere REGIONs
        // but is still brain tissue on an MR image.
        if base.is_none() && self.atlas.brain_solid().contains(p) {
            base = Some(95.0);
        }
        let Some(base) = base else { return 0.0 };
        let t = self.texture.sample_fractal(p) - 0.5;
        (base + t * 2.0 * self.amplitude).clamp(0.0, 255.0)
    }
}

/// One focal activation: a Gaussian blob of elevated metabolic activity.
#[derive(Debug, Clone, Copy)]
pub struct Activation {
    /// Blob centre in atlas coordinates.
    pub center: Vec3,
    /// Gaussian sigma in millimetres.
    pub sigma: f64,
    /// Peak intensity contribution.
    pub peak: f64,
}

/// PET-like functional field: a smooth metabolic baseline inside the
/// brain plus focal activations ("localized, non-uniform intensity
/// distributions involving sections or layers of brain structures").
pub struct PetField<'a> {
    atlas: &'a PhantomAtlas,
    baseline: f64,
    activations: Vec<Activation>,
    /// Fine-grained measurement texture.
    texture: ValueNoise,
    /// Broad regional perfusion variation: real PET images span most of
    /// the intensity range across the cortex, not just at focal spots.
    perfusion: ValueNoise,
}

impl<'a> PetField<'a> {
    /// A PET field with `blob_count` activations placed pseudo-randomly
    /// inside structures (seeded, deterministic).
    pub fn new(atlas: &'a PhantomAtlas, seed: u64, blob_count: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
        let side = f64::from(atlas.geometry().side());
        let deep: Vec<&str> = vec![
            "ntal",
            "thalamus",
            "putamen-l",
            "putamen-r",
            "hippocampus-l",
            "hippocampus-r",
            "caudate",
            "cerebellum",
        ];
        let mut activations = Vec::with_capacity(blob_count);
        let mut guard = 0;
        while activations.len() < blob_count && guard < blob_count * 200 {
            guard += 1;
            let name = deep[rng.gen_range(0..deep.len())];
            let Some(structure) = atlas.structure(name) else {
                continue;
            };
            let region = &structure.region;
            if region.is_empty() {
                continue;
            }
            // Pick a random voxel of the structure as the blob centre.
            let Some(id) = region.nth_id(rng.gen_range(0..region.voxel_count())) else {
                continue;
            };
            let (x, y, z) = region.geometry().curve().coords_of3(id);
            activations.push(Activation {
                center: Vec3::new(f64::from(x) + 0.5, f64::from(y) + 0.5, f64::from(z) + 0.5),
                sigma: rng.gen_range(0.03..0.08) * side,
                peak: rng.gen_range(120.0..190.0),
            });
        }
        PetField {
            atlas,
            baseline: 100.0,
            activations,
            texture: ValueNoise::new(seed ^ 0x5151_5151, side / 24.0),
            perfusion: ValueNoise::new(seed ^ 0x0bad_cafe, side / 5.0),
        }
    }

    /// The activation blobs (exposed so experiments can assert ground
    /// truth, e.g. "the high band must overlap blob centres").
    pub fn activations(&self) -> &[Activation] {
        &self.activations
    }
}

impl ScalarField3 for PetField<'_> {
    fn value(&self, p: Vec3) -> f64 {
        let side = f64::from(self.atlas.geometry().side());
        let brain = self.atlas.brain_solid();
        if !brain.contains(p) {
            return 0.0;
        }
        let mut v = self.baseline
            + (self.perfusion.sample_fractal(p) - 0.5) * 110.0
            + (self.texture.sample(p) - 0.5) * 36.0;
        // Anatomy-locked metabolism, identical across studies and seeds:
        // cortical grey matter (the outer shell) and the deep nuclei burn
        // more glucose than white matter.  This is what makes voxels
        // *consistently* fall in a band across a population of studies —
        // the effect Table 4's n-way intersection depends on.
        let depth = -brain.field(p); // positive inside
        if depth < 0.10 * side {
            v += 28.0;
        }
        for st in self.atlas.structures().iter().skip(3) {
            if st.contains(p) {
                v += 22.0;
                break;
            }
        }
        for a in &self.activations {
            let d2 = (p - a.center).length_squared();
            v += a.peak * (-d2 / (2.0 * a.sigma * a.sigma)).exp();
        }
        v.clamp(0.0, 255.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomy::build_atlas;
    use qbism_region::GridGeometry;
    use qbism_sfc::CurveKind;

    fn atlas() -> PhantomAtlas {
        build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 5))
    }

    #[test]
    fn mri_zero_outside_brain_tissue_inside() {
        let a = atlas();
        let f = MriField::new(&a, 1);
        assert_eq!(f.value(Vec3::new(0.5, 0.5, 0.5)), 0.0, "air is 0");
        // A plain white-matter point in the left hemisphere, clear of
        // the dark ventricle and the deep nuclei.
        let tissue = Vec3::new(10.0, 16.0, 17.0);
        let v = f.value(tissue);
        assert!(v > 40.0, "brain tissue should be bright, got {v}");
    }

    #[test]
    fn mri_deep_structures_override_hemisphere_tissue() {
        let a = atlas();
        let f = MriField::new(&a, 1);
        // ventricle (dark CSF) lies inside the brain but must read dark.
        let s = a.structure("ventricle").unwrap();
        let (x, y, z) = s.region.iter_voxels3().next().unwrap();
        let p = Vec3::new(f64::from(x) + 0.5, f64::from(y) + 0.5, f64::from(z) + 0.5);
        assert!(f.value(p) < 90.0, "ventricle should be dark, got {}", f.value(p));
    }

    #[test]
    fn pet_blobs_raise_activity_at_their_centres() {
        let a = atlas();
        let f = PetField::new(&a, 7, 3);
        assert_eq!(f.activations().len(), 3);
        for blob in f.activations() {
            let at = f.value(blob.center);
            let far = f.value(blob.center + Vec3::splat(blob.sigma * 5.0));
            assert!(at > far, "activation centre {at} not hotter than far point {far}");
            assert!(at > 100.0, "blob centre too cold: {at}");
        }
    }

    #[test]
    fn pet_outside_brain_is_zero() {
        let a = atlas();
        let f = PetField::new(&a, 7, 2);
        assert_eq!(f.value(Vec3::new(1.0, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn fields_are_deterministic_per_seed() {
        let a = atlas();
        let p = Vec3::new(15.0, 17.0, 16.0);
        assert_eq!(PetField::new(&a, 9, 4).value(p), PetField::new(&a, 9, 4).value(p));
        assert_eq!(MriField::new(&a, 3).value(p), MriField::new(&a, 3).value(p));
        // Different seeds give different activations.
        let f1 = PetField::new(&a, 1, 4);
        let f2 = PetField::new(&a, 2, 4);
        assert_ne!(
            f1.activations().first().map(|b| (b.center.x, b.sigma)),
            f2.activations().first().map(|b| (b.center.x, b.sigma))
        );
    }

    #[test]
    fn values_stay_in_byte_range() {
        let a = atlas();
        let pet = PetField::new(&a, 11, 6);
        let mri = MriField::new(&a, 11);
        for i in 0..200 {
            let p = Vec3::new((i % 32) as f64, ((i * 7) % 32) as f64, ((i * 13) % 32) as f64);
            for v in [pet.value(p), mri.value(p)] {
                assert!((0.0..=255.0).contains(&v), "value {v} out of byte range");
            }
        }
    }
}
