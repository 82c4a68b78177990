//! Acquisition simulation: sampling a field onto a scanner grid through
//! a misalignment transform.
//!
//! "A PET study of a patient is not perfectly aligned with the
//! corresponding atlas" — we *generate* that misalignment: a random
//! small rigid+scale transform maps patient space to atlas space, the
//! scanner samples the atlas-space truth through its inverse, and the
//! loader later recovers the transform from landmark pairs and warps the
//! study back.

use crate::field::ScalarField3;
use qbism_geometry::{round_to_byte, Affine3, Vec3};
use qbism_warp::RawStudy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Imaging modality, with the paper's native grid shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Positron emission tomography: coarse, functional.
    /// Paper-native grid: 128x128 slices, 51 of them.
    Pet,
    /// Magnetic resonance imaging: fine, structural.
    /// Paper-native grid: 512x512 slices, 44 of them.
    Mri,
}

impl Modality {
    /// Native grid dims for an atlas of side `s` (scaled from the
    /// paper's 128-atlas shapes so small test atlases stay cheap).
    pub fn native_dims(self, s: u32) -> [u32; 3] {
        match self {
            // 128x128x51 at s = 128.
            Modality::Pet => [s, s, (s * 51).div_ceil(128).max(4)],
            // 512x512x44 at s = 128.
            Modality::Mri => [s * 4, s * 4, (s * 44).div_ceil(128).max(4)],
        }
    }

    /// Native voxel spacing (mm) for an atlas of side `s` mm: each
    /// modality covers the same physical head volume with its own grid.
    pub fn native_spacing(self, s: u32) -> Vec3 {
        let dims = self.native_dims(s);
        Vec3::new(
            f64::from(s) / f64::from(dims[0]),
            f64::from(s) / f64::from(dims[1]),
            f64::from(s) / f64::from(dims[2]),
        )
    }

    /// Modality name as stored in the *Raw Volume* entity.
    pub fn name(self) -> &'static str {
        match self {
            Modality::Pet => "PET",
            Modality::Mri => "MRI",
        }
    }
}

/// One simulated acquisition.
pub struct AcquiredStudy {
    /// The scanner-grid volume (scanline order, native spacing).
    pub raw: RawStudy,
    /// Ground-truth patient→atlas transform (what registration should
    /// recover).
    pub true_transform: Affine3,
    /// Landmark pairs `(patient_mm, atlas_mm)` — the anatomist's clicks.
    pub landmarks: Vec<(Vec3, Vec3)>,
    /// Modality of the acquisition.
    pub modality: Modality,
}

impl std::fmt::Debug for AcquiredStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcquiredStudy")
            .field("modality", &self.modality)
            .field("dims", &self.raw.dims())
            .finish()
    }
}

/// Deterministic study factory.
#[derive(Debug, Clone, Copy)]
pub struct StudyGenerator {
    /// Atlas side in voxels (= mm).
    pub atlas_side: u32,
    /// Measurement noise amplitude (intensity units).
    pub noise: f64,
}

impl StudyGenerator {
    /// A generator for the given atlas side with default scanner noise.
    pub fn new(atlas_side: u32) -> Self {
        StudyGenerator { atlas_side, noise: 9.0 }
    }

    /// Draws a small random patient→atlas misalignment: rotations up to
    /// ~6°, scale within 5 %, translations up to 6 % of the head.
    pub fn random_misalignment(&self, rng: &mut StdRng) -> Affine3 {
        let s = f64::from(self.atlas_side);
        let t = s * 0.06;
        Affine3::rotation_x(rng.gen_range(-0.1..0.1))
            .then(&Affine3::rotation_y(rng.gen_range(-0.1..0.1)))
            .then(&Affine3::rotation_z(rng.gen_range(-0.1..0.1)))
            .then(&Affine3::uniform_scaling(rng.gen_range(0.95..1.05)))
            .then(&Affine3::translation(Vec3::new(
                rng.gen_range(-t..t),
                rng.gen_range(-t..t),
                rng.gen_range(-t..t),
            )))
    }

    /// Samples `field` at the centre of every scanner voxel, mapped to
    /// atlas space by `patient_to_atlas`, plus one draw of scanner noise
    /// per voxel in scanline order (x slowest, z fastest).
    ///
    /// The field is evaluated one x slab at a time along y rows, not
    /// along the scanline's z rows: y steps 1 mm at PET's 64³ grid where
    /// z steps 2.46, as much as the finest noise cell.  Each point is
    /// `patient_to_atlas.apply`'s sum of the same products in the same
    /// order, so it is that call's point bit for bit.
    fn scan<F: ScalarField3>(
        &self,
        field: &F,
        patient_to_atlas: &Affine3,
        dims: [u32; 3],
        spacing: Vec3,
        seed: u64,
    ) -> RawStudy {
        let noise = self.noise;
        let mut nrng = StdRng::seed_from_u64(seed);
        let centres = |n: u32, step: f64| (0..n).map(move |i| (f64::from(i) + 0.5) * step);
        let (m, t) = (&patient_to_atlas.m, patient_to_atlas.t);
        let products = |axis: usize, n: u32, step: f64| -> Vec<[f64; 3]> {
            centres(n, step).map(|c| [m[0][axis] * c, m[1][axis] * c, m[2][axis] * c]).collect()
        };
        let [nx, ny, nz] = dims.map(|n| n as usize);
        let (xs, ys, zs) = (
            products(0, dims[0], spacing.x),
            products(1, dims[1], spacing.y),
            products(2, dims[2], spacing.z),
        );
        let mut points = Vec::with_capacity(ny);
        let mut row = vec![0.0; ny];
        let mut slab = vec![0.0; ny * nz];
        let mut data = Vec::with_capacity(nx * ny * nz);
        for px in &xs {
            for (z, pz) in zs.iter().enumerate() {
                points.clear();
                points.extend(ys.iter().map(|py| {
                    let axis = |r: usize| px[r] + py[r] + pz[r];
                    Vec3::new(axis(0) + t.x, axis(1) + t.y, axis(2) + t.z)
                }));
                field.row(&points, &mut row);
                for (y, &v) in row.iter().enumerate() {
                    slab[y * nz + z] = v;
                }
            }
            // Two passes: with the draw's call in the same loop, the
            // libm-free rounding ran slower than `f64::round`.
            for v in &mut slab {
                *v += nrng.gen_range(-noise..noise);
            }
            data.extend(slab.iter().map(|&v| round_to_byte(v)));
        }
        RawStudy::new(dims, spacing, data)
    }

    /// Acquires `field` (atlas-space truth) as a `modality` study with
    /// seed-determined misalignment, scanner noise, and landmarks.
    #[expect(
        clippy::panic,
        reason = "documented invariant: small rigid+scale misalignments are always invertible"
    )]
    pub fn acquire<F: ScalarField3>(
        &self,
        field: &F,
        modality: Modality,
        seed: u64,
    ) -> AcquiredStudy {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xacc0_1ade);
        let patient_to_atlas = self.random_misalignment(&mut rng);
        let atlas_to_patient = match patient_to_atlas.inverse() {
            Some(inv) => inv,
            None => panic!("small rigid+scale transforms are invertible"),
        };
        let dims = modality.native_dims(self.atlas_side);
        let spacing = modality.native_spacing(self.atlas_side);
        let raw = self.scan(field, &patient_to_atlas, dims, spacing, seed ^ 0x0157_1030);
        // Landmarks: well-spread atlas points mapped back to patient
        // space (an anatomist marks matching points in both frames).
        let s = f64::from(self.atlas_side);
        let landmarks: Vec<(Vec3, Vec3)> = [
            (0.3, 0.3, 0.4),
            (0.7, 0.3, 0.45),
            (0.3, 0.7, 0.5),
            (0.7, 0.7, 0.55),
            (0.5, 0.5, 0.3),
            (0.5, 0.5, 0.75),
            (0.4, 0.55, 0.6),
            (0.62, 0.45, 0.38),
        ]
        .into_iter()
        .map(|(x, y, z)| {
            let atlas = Vec3::new(x * s, y * s, z * s);
            (atlas_to_patient.apply(atlas), atlas)
        })
        .collect();
        AcquiredStudy { raw, true_transform: patient_to_atlas, landmarks, modality }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomy::build_atlas;
    use crate::field::{reference, MriField, PetField, ScalarField3};
    use qbism_region::GridGeometry;
    use qbism_sfc::CurveKind;
    use qbism_warp::{register_landmarks, warp_to_atlas};

    fn atlas() -> crate::PhantomAtlas {
        build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 5))
    }

    #[test]
    fn native_shapes_scale_from_paper() {
        assert_eq!(Modality::Pet.native_dims(128), [128, 128, 51]);
        assert_eq!(Modality::Mri.native_dims(128), [512, 512, 44]);
        // spacing covers the same head volume
        let sp = Modality::Pet.native_spacing(128);
        assert!((sp.z * 51.0 - 128.0).abs() < 1e-9);
        assert_eq!(Modality::Pet.name(), "PET");
        assert_eq!(Modality::Mri.name(), "MRI");
    }

    #[test]
    fn acquisition_is_deterministic() {
        let a = atlas();
        let f = PetField::new(&a, 3, 3);
        let g = StudyGenerator::new(32);
        let s1 = g.acquire(&f, Modality::Pet, 99);
        let s2 = g.acquire(&f, Modality::Pet, 99);
        assert_eq!(s1.raw, s2.raw);
        assert_eq!(s1.true_transform, s2.true_transform);
        let s3 = g.acquire(&f, Modality::Pet, 100);
        assert_ne!(s1.raw, s3.raw, "different seeds differ");
    }

    /// The acquisition loop the row scan replaced, kept as the tests'
    /// oracle: one `value` call and one `round` a voxel, in scanline
    /// order.
    fn acquire_reference(
        gen: &StudyGenerator,
        value: impl Fn(Vec3) -> f64,
        modality: Modality,
        seed: u64,
    ) -> RawStudy {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xacc0_1ade);
        let patient_to_atlas = gen.random_misalignment(&mut rng);
        let dims = modality.native_dims(gen.atlas_side);
        let spacing = modality.native_spacing(gen.atlas_side);
        let noise = gen.noise;
        let mut nrng = StdRng::seed_from_u64(seed ^ 0x0157_1030);
        RawStudy::from_fn(dims, spacing, |x, y, z| {
            let patient_mm = Vec3::new(
                (f64::from(x) + 0.5) * spacing.x,
                (f64::from(y) + 0.5) * spacing.y,
                (f64::from(z) + 0.5) * spacing.z,
            );
            let v = value(patient_to_atlas.apply(patient_mm)) + nrng.gen_range(-noise..noise);
            v.round().clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn acquisition_is_bit_equal_to_the_per_point_oracle() {
        for bits in 4..=6 {
            let a = build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, bits));
            let gen = StudyGenerator::new(a.geometry().side());
            for seed in [u64::from(bits), 0x51b1_5a17 + u64::from(bits)] {
                let pet = PetField::new(&a, seed, 4);
                let want =
                    acquire_reference(&gen, |p| reference::pet(&pet, p), Modality::Pet, seed);
                assert_eq!(gen.acquire(&pet, Modality::Pet, seed).raw, want, "PET {bits} {seed}");
                let mri = MriField::new(&a, seed);
                let want = acquire_reference(&gen, |p| mri.value(p), Modality::Mri, seed);
                assert_eq!(gen.acquire(&mri, Modality::Mri, seed).raw, want, "MRI {bits} {seed}");
            }
        }
    }

    /// Best-of-`runs` ms per study of `acquire` and of the oracle loop
    /// over `oracle`, alternating the two.
    #[expect(
        clippy::disallowed_methods,
        reason = "an ignored speed report: it measures native time by design"
    )]
    fn acquire_times<F: ScalarField3>(
        gen: &StudyGenerator,
        field: &F,
        oracle: impl Fn(Vec3) -> f64,
        modality: Modality,
        runs: u64,
    ) -> (f64, f64) {
        let ms = |t: std::time::Instant| t.elapsed().as_secs_f64() * 1e3;
        let (mut row, mut point) = (f64::INFINITY, f64::INFINITY);
        for seed in 0..runs {
            let t = std::time::Instant::now();
            let got = gen.acquire(field, modality, seed).raw;
            row = row.min(ms(t));
            let t = std::time::Instant::now();
            let want = acquire_reference(gen, &oracle, modality, seed);
            point = point.min(ms(t));
            assert_eq!(got, want, "{} seed {seed}", modality.name());
        }
        (row, point)
    }

    /// Not a correctness test: prints `acquire` at 64³ in ms per study,
    /// PET (5 blobs, best of 30) and MRI (best of 5), against the
    /// per-point oracle loop (`reference::pet` and `MriField::value`
    /// with `f64::round`).  Run with
    /// `cargo test -p qbism-phantom --release -- --ignored --nocapture acquire_speed`.
    #[test]
    #[ignore = "timing report, run explicitly in release mode"]
    fn acquire_speed_report() {
        let a = build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 6));
        let gen = StudyGenerator::new(a.geometry().side());
        let pet = PetField::new(&a, 1994, 5);
        let mri = MriField::new(&a, 1994);
        for (name, (row, point)) in [
            ("PET", acquire_times(&gen, &pet, |p| reference::pet(&pet, p), Modality::Pet, 30)),
            ("MRI", acquire_times(&gen, &mri, |p| mri.value(p), Modality::Mri, 5)),
        ] {
            println!(
                "{name} 64³: acquire {row:.2} ms/study, per-point oracle {point:.2} ms/study ({:.2}×)",
                row / point
            );
        }
    }

    #[test]
    fn landmarks_are_consistent_with_truth() {
        let a = atlas();
        let f = PetField::new(&a, 3, 3);
        let s = StudyGenerator::new(32).acquire(&f, Modality::Pet, 5);
        for (patient, atlas_pt) in &s.landmarks {
            let mapped = s.true_transform.apply(*patient);
            assert!(mapped.distance(*atlas_pt) < 1e-9);
        }
        assert!(s.landmarks.len() >= 4, "enough landmarks for affine registration");
    }

    #[test]
    fn register_then_warp_recovers_atlas_truth() {
        // End-to-end data path the loader executes: acquire -> register
        // from landmarks -> warp to atlas -> compare against the truth
        // field.  Agreement is approximate (resampling + noise), so
        // compare means over the brain.
        let a = atlas();
        let f = PetField::new(&a, 3, 2);
        let gen = StudyGenerator::new(32);
        let s = gen.acquire(&f, Modality::Pet, 5);
        let (pts_p, pts_a): (Vec<_>, Vec<_>) = s.landmarks.iter().copied().unzip();
        let est = register_landmarks(&pts_p, &pts_a).unwrap();
        assert!(est.max_abs_diff(&s.true_transform) < 1e-6, "landmarks are exact");
        let warped = warp_to_atlas(&s.raw, &est, a.geometry(), 1.0).unwrap();
        // Compare against direct sampling of the truth at atlas centres.
        let ntal = &a.structure("ntal").unwrap().region;
        let mut truth_sum = 0.0;
        let mut got_sum = 0.0;
        let mut n = 0.0;
        for (x, y, z) in ntal.iter_voxels3() {
            let p = Vec3::new(f64::from(x) + 0.5, f64::from(y) + 0.5, f64::from(z) + 0.5);
            truth_sum += f.value(p);
            got_sum += f64::from(warped.probe(x, y, z));
            n += 1.0;
        }
        let (truth_mean, got_mean) = (truth_sum / n, got_sum / n);
        assert!(
            (truth_mean - got_mean).abs() < 12.0,
            "warped mean {got_mean:.1} far from truth {truth_mean:.1}"
        );
        assert!(got_mean > 20.0, "warped ntal should show real activity");
    }

    #[test]
    fn misalignment_is_small_but_nonzero() {
        let g = StudyGenerator::new(64);
        let mut rng = StdRng::seed_from_u64(1);
        let t = g.random_misalignment(&mut rng);
        assert!(t.max_abs_diff(&Affine3::IDENTITY) > 1e-3, "should be misaligned");
        // determinant near 1 (rigid + mild scale)
        assert!((0.85..1.18).contains(&t.det()), "det {}", t.det());
    }

    #[test]
    fn pet_study_captures_bright_blobs() {
        let a = atlas();
        let f = PetField::new(&a, 8, 4);
        let s = StudyGenerator::new(32).acquire(&f, Modality::Pet, 2);
        let max = s.raw.data().iter().copied().max().unwrap();
        assert!(max > 120, "study should capture hot spots, max={max}");
    }
}
