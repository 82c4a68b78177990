//! The synthetic atlas: 11 named neuro-anatomic structures.
//!
//! Stands in for the digitized Talairach & Tournoux atlas ("11
//! neuro-anatomic structures as REGIONs in a 128x128x128 atlas space
//! grid").  Two structure names are load-bearing for the evaluation,
//! because Table 3 queries them by name and reports their sizes:
//!
//! * `ntal`  — a deep central structure, ≈ 16 k voxels at 128³
//!   (paper Q3: 16,016 voxels);
//! * `ntal1` — one brain hemisphere, ≈ 160 k voxels at 128³
//!   (paper Q4: 162,628 voxels).
//!
//! Structure sizes are defined as fractions of the grid side, so the
//! same anatomy scales from test grids (32³) to the paper's 128³.

use qbism_geometry::{
    Affine3, Bounds3, Ellipsoid, HalfSpace, Intersection, Solid, Superquadric, Transformed, Vec3,
};
use qbism_region::{GridGeometry, Region};
use std::sync::Arc;

/// A named structure: its analytic solid and its rasterized REGION.
#[derive(Clone)]
pub struct AtlasStructure {
    /// Structure name (the *Neural Structure* entity's `structureName`).
    pub name: &'static str,
    /// The analytic membership predicate (drives rasterization and
    /// MRI tissue synthesis), shared by every clone of the atlas.
    pub solid: Arc<dyn Solid + Send + Sync>,
    /// `solid.bounds()`, computed once: nine of the eleven structures
    /// fill under 2 % of the grid, so most points are rejected here
    /// before the virtual `contains` call (three `powf`s for a
    /// superquadric).
    pub bounds: Bounds3,
    /// The volumetric REGION stored in the *Atlas Structure* entity.
    pub region: Region,
    /// Characteristic MRI tissue intensity (0-255) of this structure.
    pub mri_intensity: f64,
}

impl AtlasStructure {
    /// Whether `p` lies inside the structure's analytic solid.
    pub fn contains(&self, p: Vec3) -> bool {
        self.bounds.contains(p) && self.solid.contains(p)
    }
}

impl std::fmt::Debug for AtlasStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtlasStructure")
            .field("name", &self.name)
            .field("voxels", &self.region.voxel_count())
            .finish()
    }
}

/// The full synthetic atlas.
#[derive(Clone)]
pub struct PhantomAtlas {
    geom: GridGeometry,
    structures: Vec<AtlasStructure>,
    /// The cerebral ellipsoid (hemispheres without the longitudinal
    /// fissure carved out) — the tissue mask for field synthesis.
    cerebrum: Ellipsoid,
    cerebellum: Ellipsoid,
}

impl std::fmt::Debug for PhantomAtlas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhantomAtlas")
            .field("geom", &self.geom)
            .field("structures", &self.structures)
            .finish()
    }
}

/// The 11 structure names, in synthesis order (later structures lie
/// inside earlier ones and override their tissue intensity).
pub const STRUCTURE_NAMES: [&str; 11] = [
    "ntal0",
    "ntal1",
    "cerebellum",
    "ntal",
    "thalamus",
    "caudate",
    "ventricle",
    "putamen-l",
    "putamen-r",
    "hippocampus-l",
    "hippocampus-r",
];

impl PhantomAtlas {
    /// Grid geometry the regions live on.
    pub fn geometry(&self) -> GridGeometry {
        self.geom
    }

    /// All structures, in [`STRUCTURE_NAMES`] order.
    pub fn structures(&self) -> &[AtlasStructure] {
        &self.structures
    }

    /// Looks a structure up by name.
    pub fn structure(&self, name: &str) -> Option<&AtlasStructure> {
        self.structures.iter().find(|s| s.name == name)
    }

    /// The whole-brain solid (cerebrum plus cerebellum, fissure filled),
    /// used as the tissue mask during field synthesis.
    pub fn brain_solid(&self) -> impl Solid + '_ {
        qbism_geometry::Union(self.cerebrum, self.cerebellum)
    }
}

/// Builds the atlas on the given grid (1 atlas voxel = 1 mm by
/// convention; coordinates below are voxel units).
///
/// # Panics
/// Panics unless the geometry is 3-D with side ≥ 16 (the smallest grid
/// on which the smallest structure still rasterizes to something).
pub fn build_atlas(geom: GridGeometry) -> PhantomAtlas {
    assert_eq!(geom.dims(), 3, "atlas must be 3-D");
    assert!(geom.side() >= 16, "atlas grid too small for the anatomy");
    let s = f64::from(geom.side());
    let c = |x: f64, y: f64, z: f64| Vec3::new(x * s, y * s, z * s);
    let r = |x: f64, y: f64, z: f64| Vec3::new(x * s, y * s, z * s);

    // The cerebral ellipsoid both hemispheres are carved from.
    let brain = || Ellipsoid::new(c(0.5, 0.5, 0.54), r(0.40, 0.33, 0.28));
    let mut specs: Vec<(&'static str, Arc<dyn Solid + Send + Sync>, f64)> = vec![(
        "ntal0",
        Arc::new(Intersection(brain(), HalfSpace::new(Vec3::new(1.0, 0.0, 0.0), 0.495 * s))),
        95.0,
    )];
    specs.push((
        "ntal1",
        Arc::new(Intersection(brain(), HalfSpace::new(Vec3::new(-1.0, 0.0, 0.0), -0.505 * s))),
        95.0,
    ));
    specs.push((
        "cerebellum",
        Arc::new(Ellipsoid::new(c(0.5, 0.72, 0.30), r(0.17, 0.12, 0.09))),
        105.0,
    ));
    specs.push(("ntal", Arc::new(Ellipsoid::new(c(0.5, 0.48, 0.47), r(0.16, 0.11, 0.104))), 150.0));
    specs.push((
        "thalamus",
        Arc::new(Ellipsoid::new(c(0.5, 0.55, 0.52), r(0.07, 0.055, 0.05))),
        120.0,
    ));
    specs.push((
        "caudate",
        Arc::new(Superquadric::new(c(0.5, 0.42, 0.58), r(0.04, 0.10, 0.04), 1.7)),
        135.0,
    ));
    specs.push((
        "ventricle",
        Arc::new(Superquadric::new(c(0.5, 0.5, 0.56), r(0.03, 0.09, 0.06), 1.3)),
        30.0,
    ));
    // Putamina: small tilted ellipsoids, one per hemisphere.  The tilt
    // exercises the Transformed solid path.
    let putamen = |cx: f64, tilt: f64| -> Arc<dyn Solid + Send + Sync> {
        let base = Ellipsoid::new(Vec3::ZERO, r(0.055, 0.035, 0.045));
        let place = Affine3::rotation_z(tilt).then(&Affine3::translation(c(cx, 0.52, 0.5)));
        Arc::new(Transformed::new(base, place))
    };
    specs.push(("putamen-l", putamen(0.36, 0.3), 140.0));
    specs.push(("putamen-r", putamen(0.64, -0.3), 140.0));
    let hippo = |cx: f64, yaw: f64| -> Arc<dyn Solid + Send + Sync> {
        let base = Superquadric::new(Vec3::ZERO, r(0.09, 0.030, 0.030), 2.0);
        let place = Affine3::rotation_y(yaw).then(&Affine3::translation(c(cx, 0.62, 0.42)));
        Arc::new(Transformed::new(base, place))
    };
    specs.push(("hippocampus-l", hippo(0.40, 0.5), 130.0));
    specs.push(("hippocampus-r", hippo(0.60, -0.5), 130.0));

    let structures: Vec<AtlasStructure> = specs
        .into_iter()
        .map(|(name, solid, mri)| {
            let region = Region::rasterize_solid(geom, &solid);
            AtlasStructure { name, bounds: solid.bounds(), solid, region, mri_intensity: mri }
        })
        .collect();
    debug_assert_eq!(structures.len(), STRUCTURE_NAMES.len());
    PhantomAtlas {
        geom,
        structures,
        cerebrum: brain(),
        cerebellum: Ellipsoid::new(c(0.5, 0.72, 0.30), r(0.17, 0.12, 0.09)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_sfc::CurveKind;

    fn atlas64() -> PhantomAtlas {
        build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 6))
    }

    #[test]
    fn eleven_structures_in_declared_order() {
        let a = atlas64();
        assert_eq!(a.structures().len(), 11);
        for (s, name) in a.structures().iter().zip(STRUCTURE_NAMES) {
            assert_eq!(s.name, name);
            assert!(!s.region.is_empty(), "{name} rasterized to nothing");
        }
        assert!(a.structure("putamen-l").is_some());
        assert!(a.structure("amygdala").is_none());
    }

    #[test]
    fn paper_target_volume_fractions() {
        // Scale-invariant check of the Table 3 query sizes:
        // ntal  -> 16,016 / 128^3 ≈ 0.76 % of the grid;
        // ntal1 -> 162,628 / 128^3 ≈ 7.75 %.
        let a = atlas64();
        let cells = a.geometry().cell_count() as f64;
        let ntal = a.structure("ntal").unwrap().region.voxel_count() as f64 / cells;
        assert!((0.0061..0.0092).contains(&ntal), "ntal fraction {ntal}");
        let ntal1 = a.structure("ntal1").unwrap().region.voxel_count() as f64 / cells;
        assert!((0.062..0.093).contains(&ntal1), "ntal1 fraction {ntal1}");
    }

    #[test]
    fn hemispheres_are_disjoint_and_mirror_sized() {
        let a = atlas64();
        let l = &a.structure("ntal0").unwrap().region;
        let r = &a.structure("ntal1").unwrap().region;
        assert!(l.intersect(r).is_empty(), "hemispheres must not overlap");
        let (lv, rv) = (l.voxel_count() as f64, r.voxel_count() as f64);
        assert!((lv / rv - 1.0).abs() < 0.05, "asymmetric hemispheres: {lv} vs {rv}");
    }

    #[test]
    fn deep_structures_sit_inside_a_hemisphere_or_midline() {
        let a = atlas64();
        let brain =
            a.structure("ntal0").unwrap().region.union(&a.structure("ntal1").unwrap().region);
        for name in ["thalamus", "putamen-l", "putamen-r", "ventricle"] {
            let s = &a.structure(name).unwrap().region;
            let inside = brain.intersect(s).voxel_count() as f64 / s.voxel_count() as f64;
            assert!(inside > 0.60, "{name} mostly outside the brain ({inside:.2})");
        }
    }

    #[test]
    fn lateral_structures_are_mirrored_pairs() {
        let a = atlas64();
        for (l, r) in [("putamen-l", "putamen-r"), ("hippocampus-l", "hippocampus-r")] {
            let lv = a.structure(l).unwrap().region.voxel_count() as f64;
            let rv = a.structure(r).unwrap().region.voxel_count() as f64;
            assert!((lv / rv - 1.0).abs() < 0.10, "{l} vs {r}: {lv} vs {rv}");
            assert!(a
                .structure(l)
                .unwrap()
                .region
                .intersect(&a.structure(r).unwrap().region)
                .is_empty());
        }
    }

    #[test]
    fn regions_match_their_solids() {
        let a = atlas64();
        let s = a.structure("thalamus").unwrap();
        for (x, y, z) in s.region.iter_voxels3().step_by(7) {
            assert!(s.solid.contains(qbism_geometry::IVec3::new(x, y, z).center()));
        }
    }

    #[test]
    fn bounded_rasterization_equals_the_full_sweep_for_every_structure() {
        // The atlas REGIONs are the stored bytes: the bounds-limited,
        // curve-ordered rasterizer must produce exactly the voxel sets
        // the plain predicate sweep over the whole grid does.
        let grids = [
            (CurveKind::Hilbert, 4),
            (CurveKind::Hilbert, 5),
            (CurveKind::Hilbert, 6),
            (CurveKind::Morton, 5),
            (CurveKind::Scanline, 5),
        ];
        for (kind, bits) in grids {
            let geom = GridGeometry::new(kind, 3, bits);
            for s in build_atlas(geom).structures() {
                let swept = Region::rasterize(geom, |c| {
                    s.solid.contains(qbism_geometry::IVec3::new(c[0], c[1], c[2]).center())
                });
                assert_eq!(s.region, swept, "{} on {kind} 2^{bits}", s.name);
                for (x, y, z) in s.region.iter_voxels3() {
                    assert!(s.contains(qbism_geometry::IVec3::new(x, y, z).center()));
                }
            }
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = atlas64();
        let b = atlas64();
        for (sa, sb) in a.structures().iter().zip(b.structures()) {
            assert_eq!(sa.region, sb.region, "{} differs across builds", sa.name);
        }
    }

    #[test]
    fn brain_mask_covers_all_structures() {
        let a = atlas64();
        let mask = a.brain_solid();
        let p = Vec3::new(32.0, 32.0, 34.0);
        assert!(mask.contains(p), "brain centre inside mask");
        assert!(!mask.contains(Vec3::new(1.0, 1.0, 1.0)), "corner outside mask");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_grid_rejected() {
        let _ = build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 3));
    }

    /// Exact paper-scale sizes.
    #[test]
    fn paper_scale_voxel_counts() {
        let a = build_atlas(GridGeometry::new(CurveKind::Hilbert, 3, 7));
        let ntal = a.structure("ntal").unwrap().region.voxel_count();
        assert!((13_000..20_000).contains(&ntal), "ntal {ntal} vs paper 16,016");
        let ntal1 = a.structure("ntal1").unwrap().region.voxel_count();
        assert!((140_000..190_000).contains(&ntal1), "ntal1 {ntal1} vs paper 162,628");
    }
}
