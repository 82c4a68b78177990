//! Continuous atlas-space intensity fields.
//!
//! A *study* is ultimately a sampled scalar field (Section 1 of the
//! paper).  We synthesize the underlying continuous field per modality
//! and let [`crate::study`] sample it through a misalignment transform,
//! which is exactly how a scanner sees a patient.
//!
//! The PET field is evaluated a scanner row at a time: consecutive
//! points of a row are about a millimetre apart, so they mostly share
//! each noise octave's lattice cell, and a row's bounding box tells
//! which structures it can meet at all.  Every point still takes the
//! same floating-point operations, in the same order, as it would alone.
//! The MRI field answers a row point by point.

use crate::anatomy::{AtlasStructure, PhantomAtlas};
use crate::noise::{Corners, ValueNoise};
use qbism_geometry::{Bounds3, Solid, Vec3};
use qbism_sfc::SpaceFillingCurve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A continuous scalar field over atlas space (units: atlas voxels =
/// millimetres), producing values in `[0, 255]`.
pub trait ScalarField3 {
    /// Field values along a row of points: `out[i]` is the value at
    /// `points[i]`, for as many points as both slices hold.  Any points
    /// are answered exactly; neighbouring points, as on a scanner row,
    /// are answered fastest.
    fn row(&self, points: &[Vec3], out: &mut [f64]);

    /// Field value at a point; by default a row of one.
    fn value(&self, p: Vec3) -> f64 {
        let mut out = [0.0];
        self.row(&[p], &mut out);
        out[0]
    }
}

/// The smallest box holding every point of a row.  A solid whose
/// bounds miss it contains none of the row's points.
fn row_box(points: &[Vec3]) -> Bounds3 {
    let empty = Bounds3 { min: Vec3::splat(f64::INFINITY), max: Vec3::splat(f64::NEG_INFINITY) };
    points.iter().fold(empty, |b, &p| Bounds3 { min: b.min.min(p), max: b.max.max(p) })
}

/// Whether two boxes share a point.
fn meets(a: &Bounds3, b: &Bounds3) -> bool {
    let both = a.intersect(b);
    both.min.x <= both.max.x && both.min.y <= both.max.y && both.min.z <= both.max.z
}

/// Bit `i` set for each of `structures[i]` whose bounds meet `row`.
fn structures_meeting(structures: &[AtlasStructure], row: &Bounds3) -> u32 {
    structures
        .iter()
        .enumerate()
        .fold(0, |mask, (i, s)| mask | u32::from(meets(&s.bounds, row)) << i)
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
    fn row(&self, points: &[Vec3], out: &mut [f64]) {
        for (&p, v) in points.iter().zip(out) {
            *v = self.value(p);
        }
    }

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
    /// The brain solid's bounds: no point outside them is brain.
    brain_bounds: Bounds3,
    baseline: f64,
    activations: Vec<Activation>,
    /// Fine-grained measurement texture.
    texture: ValueNoise,
    /// Broad regional perfusion variation: real PET images span most of
    /// the intensity range across the cortex, not just at focal spots.
    perfusion: ValueNoise,
    /// `2σ²` of each activation, the exponent's divisor.
    spreads: Vec<f64>,
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
            brain_bounds: atlas.brain_solid().bounds(),
            baseline: 100.0,
            spreads: activations.iter().map(|a| 2.0 * a.sigma * a.sigma).collect(),
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

/// Points a PET row kernel takes in one pass of each stage.
const CHUNK: usize = 16;

impl ScalarField3 for PetField<'_> {
    /// Evaluated in chunks of up to [`CHUNK`] points, one stage at a
    /// time over a chunk's brain points: each noise octave and each
    /// activation is a short loop whose points are independent, where a
    /// point's whole evaluation is one long dependency chain.
    fn row(&self, points: &[Vec3], out: &mut [f64]) {
        let side = f64::from(self.atlas.geometry().side());
        let row = row_box(points);
        let values = points.iter().zip(out.iter_mut());
        if !meets(&self.brain_bounds, &row) {
            values.for_each(|(_, v)| *v = 0.0);
            return;
        }
        let deep = self.atlas.structures().get(3..).unwrap_or_default();
        let near = structures_meeting(deep, &row);
        let (coarse, fine) = self.perfusion.octaves();
        let mut corners = [Corners::default(); 3];
        for (points, out) in points.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            // The chunk's brain points and their brain field.
            let (mut inside, mut fields, mut n) = ([Vec3::ZERO; CHUNK], [0.0; CHUNK], 0);
            let mut slot = [0usize; CHUNK];
            for (i, (&p, v)) in points.iter().zip(out.iter_mut()).enumerate() {
                *v = 0.0;
                if !self.brain_bounds.contains(p) {
                    continue;
                }
                if let Some(field) = self.atlas.brain_field_inside(p) {
                    (inside[n], fields[n], slot[n]) = (p, field, i);
                    n += 1;
                }
            }
            let inside = &inside[..n];
            let [c0, c1, c2] = &mut corners;
            let stage = |noise: &ValueNoise, c: &mut Corners| -> [f64; CHUNK] {
                let mut got = [0.0; CHUNK];
                for (g, &p) in got.iter_mut().zip(inside) {
                    *g = noise.sample_in(p, c);
                }
                got
            };
            let (coarse, fine, texture) =
                (stage(&coarse, c0), stage(&fine, c1), stage(&self.texture, c2));
            let mut sums = [0.0; CHUNK];
            for k in 0..n {
                let (p, perfusion) = (inside[k], (coarse[k] * 2.0 / 3.0) + (fine[k] / 3.0));
                let mut sum = self.baseline + (perfusion - 0.5) * 110.0 + (texture[k] - 0.5) * 36.0;
                // Anatomy-locked metabolism, identical across studies and
                // seeds: cortical grey matter (the outer shell) and the
                // deep nuclei burn more glucose than white matter.  This
                // is what makes voxels *consistently* fall in a band
                // across a population of studies — the effect Table 4's
                // n-way intersection depends on.
                let depth = -fields[k]; // positive inside
                if depth < 0.10 * side {
                    sum += 28.0;
                }
                let mut left = near;
                while left != 0 {
                    let i = left.trailing_zeros();
                    left &= left - 1;
                    if deep[i as usize].contains(p) {
                        sum += 22.0;
                        break;
                    }
                }
                sums[k] = sum;
            }
            for (a, spread) in self.activations.iter().zip(&self.spreads) {
                for (sum, &p) in sums.iter_mut().zip(inside) {
                    let d2 = (p - a.center).length_squared();
                    *sum += a.peak * (-d2 / spread).exp();
                }
            }
            for (&i, sum) in slot[..n].iter().zip(&sums) {
                out[i] = sum.clamp(0.0, 255.0);
            }
        }
    }
}

/// The per-point PET field the row kernel replaced, kept as the tests'
/// oracle: every point through `brain_solid`, every structure's bounds,
/// and fresh lattice hashes per octave.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn pet(f: &PetField<'_>, p: Vec3) -> f64 {
        let side = f64::from(f.atlas.geometry().side());
        let brain = f.atlas.brain_solid();
        if !brain.contains(p) {
            return 0.0;
        }
        let mut v = f.baseline
            + (f.perfusion.fractal_reference(p) - 0.5) * 110.0
            + (f.texture.sample_reference(p) - 0.5) * 36.0;
        let depth = -brain.field(p);
        if depth < 0.10 * side {
            v += 28.0;
        }
        for st in f.atlas.structures().iter().skip(3) {
            if st.contains(p) {
                v += 22.0;
                break;
            }
        }
        for a in &f.activations {
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
    use crate::study::{Modality, StudyGenerator};
    use proptest::prelude::*;
    use qbism_region::GridGeometry;
    use qbism_sfc::CurveKind;
    use std::sync::OnceLock;

    fn atlas() -> PhantomAtlas {
        build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 5))
    }

    /// The 16³, 32³ and 64³ atlases, built once per test binary.
    fn atlas_at(bits: u32) -> &'static PhantomAtlas {
        static ATLASES: [OnceLock<PhantomAtlas>; 3] = [const { OnceLock::new() }; 3];
        ATLASES[(bits - 4) as usize]
            .get_or_init(|| build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, bits)))
    }

    /// Checks the PET row kernel, and its rows of one, against the
    /// per-point oracle on one row, and the MRI row against its points
    /// one by one; returns how many points lie in the brain.
    fn check_row(pet: &PetField<'_>, mri: &MriField<'_>, points: &[Vec3]) -> usize {
        let mut got = vec![f64::NAN; points.len()];
        pet.row(points, &mut got);
        for (&p, v) in points.iter().zip(&got) {
            assert_eq!(v.to_bits(), reference::pet(pet, p).to_bits(), "PET at {p:?}");
            assert_eq!(pet.value(p).to_bits(), v.to_bits(), "PET row of one at {p:?}");
        }
        mri.row(points, &mut got);
        for (&p, v) in points.iter().zip(&got) {
            assert_eq!(v.to_bits(), mri.value(p).to_bits(), "MRI at {p:?}");
        }
        points.iter().filter(|&&p| pet.atlas.brain_solid().contains(p)).count()
    }

    proptest! {
        #[test]
        fn rows_are_bit_equal_to_the_per_point_oracle(
            bits in 4u32..=6,
            seed in any::<u64>(),
            cell in proptest::array::uniform2(0.0f64..1.0),
            origin in proptest::array::uniform3(-0.1f64..1.1),
            step in proptest::array::uniform3(-2.0f64..2.0),
            len in 1usize..90,
            edge in 0u32..3,
        ) {
            let atlas = atlas_at(bits);
            let side = atlas.geometry().side();
            let s = f64::from(side);
            let (pet, mri) = (PetField::new(atlas, seed, 4), MriField::new(atlas, seed));
            // A scanner row through a random misalignment, as `acquire`
            // lays it: y varies, x and z hold.
            let gen = StudyGenerator::new(side);
            let mut rng = StdRng::seed_from_u64(seed);
            let patient_to_atlas = gen.random_misalignment(&mut rng);
            for modality in [Modality::Pet, Modality::Mri] {
                let dims = modality.native_dims(side);
                let spacing = modality.native_spacing(side);
                let x = (cell[0] * f64::from(dims[0])) as u32;
                let z = (cell[1] * f64::from(dims[2])) as u32;
                let row: Vec<Vec3> = (0..dims[1])
                    .map(|y| {
                        let c = |i: u32, step: f64| (f64::from(i) + 0.5) * step;
                        patient_to_atlas.apply(Vec3::new(c(x, spacing.x), c(y, spacing.y), c(z, spacing.z)))
                    })
                    .collect();
                check_row(&pet, &mri, &row);
            }
            // A random row, in and out of the brain and the structures.
            let origin = Vec3::from(origin) * s;
            let line: Vec<Vec3> = (0..len).map(|i| origin + Vec3::from(step) * i as f64).collect();
            check_row(&pet, &mri, &line);
            // A row across a noise octave's lattice planes: every point
            // on one, just below it or just above it.
            let scale = [s / 24.0, s / 5.0 * 0.5, s / 18.0 * 0.5][edge as usize];
            let planes: Vec<Vec3> = (0..len)
                .map(|i| {
                    let on = (i / 3) as f64 * scale;
                    let x = [on, on.next_down(), on.next_up()][i % 3];
                    Vec3::new(x, origin.y, origin.z)
                })
                .collect();
            check_row(&pet, &mri, &planes);
        }
    }

    #[test]
    fn a_row_through_the_brain_crosses_its_boundary_and_structures() {
        let atlas = atlas_at(6);
        let (pet, mri) = (PetField::new(atlas, 3, 4), MriField::new(atlas, 3));
        // Along y through the centre: air, cortex, ntal and the
        // thalamus, cortex, air; 0.3 mm apart, so several points share
        // each lattice cell and several cross into the next.
        let row: Vec<Vec3> = (0..220).map(|i| Vec3::new(32.2, f64::from(i) * 0.3, 30.1)).collect();
        let inside = check_row(&pet, &mri, &row);
        assert!(inside > 20 && inside < row.len(), "{inside} of {} points inside", row.len());
        let crossings = |name: &str| {
            let b = atlas.structure(name).unwrap().bounds;
            row.windows(2).filter(|w| b.contains(w[0]) != b.contains(w[1])).count()
        };
        assert_eq!(crossings("ntal"), 2);
        assert_eq!(crossings("thalamus"), 2);
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
