//! Database population — everything QBISM computes "at database load
//! time (rather than query time) since the computation is expensive".
//!
//! For each synthesized study the loader performs the paper's full data
//! path: store the raw scanline volume, register it to the atlas from
//! landmark pairs, resample it into a warped VOLUME stored in curve
//! order, and band it into intensity-band REGIONs.  Atlas structures are
//! rasterized into REGION long fields with their surface meshes.

use crate::config::QbismConfig;
use crate::ops::register_spatial_ops;
use crate::schema::create_schema;
use crate::server::MedicalServer;
use crate::wire::{mesh_to_long_field, volume_to_long_field};
use crate::Result;
use qbism_phantom::{
    build_atlas, demographics, Modality, MriField, PetField, PhantomAtlas, StudyGenerator,
};
use qbism_region::{GridGeometry, Region};

use qbism_render::extract_surface;
use qbism_starburst::{Database, DbError, Value};
use qbism_warp::{register_landmarks, warp_to_atlas};

/// Identifier of the single atlas the loader installs.
pub const ATLAS_ID: i64 = 1;

/// A fully installed QBISM system: populated database plus the phantom
/// ground truth the benchmarks compare against.
pub struct QbismSystem {
    /// The MedicalServer wrapping the populated database.
    pub server: MedicalServer,
    /// The synthetic atlas (ground truth for experiments).
    pub atlas: PhantomAtlas,
    /// Study ids of the loaded PET studies, in load order.
    pub pet_study_ids: Vec<i64>,
    /// Study ids of the loaded MRI studies, in load order.
    pub mri_study_ids: Vec<i64>,
}

impl QbismSystem {
    /// Installs a complete system from a configuration: schema, UDFs,
    /// atlas, patients, studies (raw → registered → warped → banded).
    pub fn install(config: &QbismConfig) -> Result<QbismSystem> {
        config.validate()?;
        let mut db = Database::new(config.device_capacity)?;
        register_spatial_ops(&mut db, config.geometry());
        register_geometry_ops(&mut db, config.geometry());
        create_schema(&mut db)?;
        let side = config.side();
        // Ground truth (atlas, fields, blob placement) is generated on a
        // canonical Hilbert geometry so the *data* is bit-identical across
        // storage-curve configurations — Table 4 compares encodings of
        // the same voxel sets, not different phantoms.
        let truth_geom = GridGeometry::new(qbism_sfc::CurveKind::Hilbert, 3, config.atlas_bits);

        // ------------------------------------------------------------------
        // Atlas and structures.
        // ------------------------------------------------------------------
        db.insert_row(
            "atlas",
            vec![
                Value::Int(ATLAS_ID),
                Value::from("Talairach"),
                Value::Int(i64::from(side)),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::from("adult reference"),
            ],
        )?;
        let atlas = build_atlas(truth_geom);
        load_neuro_catalog(&mut db, &atlas)?;
        for (idx, s) in atlas.structures().iter().enumerate() {
            let structure_id = (idx + 1) as i64;
            let stored = s.region.to_curve(config.curve);
            let region_lf = store_region(&mut db, config, &stored)?;
            let mesh = extract_surface(&s.region);
            let mesh_lf = db.create_long_field(&mesh_to_long_field(&mesh))?;
            db.insert_row(
                "atlasstructure",
                vec![Value::Int(structure_id), Value::Int(ATLAS_ID), region_lf, mesh_lf],
            )?;
        }

        // ------------------------------------------------------------------
        // Patients.
        // ------------------------------------------------------------------
        let patients = demographics::generate_patients(config.seed, config.patients.max(1));
        for p in &patients {
            db.insert_row(
                "patient",
                vec![
                    Value::Int(p.patient_id),
                    Value::from(p.name.clone()),
                    Value::Int(p.age),
                    Value::from(p.sex.code()),
                ],
            )?;
        }

        // ------------------------------------------------------------------
        // Studies: acquire, register, warp, band.
        // ------------------------------------------------------------------
        let generator = StudyGenerator::new(side);
        let mut pet_study_ids = Vec::new();
        let mut mri_study_ids = Vec::new();
        let mut next_study = 1i64;
        for i in 0..config.pet_studies {
            let field =
                PetField::new(&atlas, config.seed.wrapping_add(100 + i as u64), config.pet_blobs);
            let study_id = next_study;
            next_study += 1;
            load_study(
                &mut db,
                config,
                &generator,
                &field,
                Modality::Pet,
                study_id,
                patients[i % patients.len()].patient_id,
                config.seed.wrapping_add(500 + i as u64),
            )?;
            pet_study_ids.push(study_id);
        }
        for i in 0..config.mri_studies {
            let field = MriField::new(&atlas, config.seed.wrapping_add(900 + i as u64));
            let study_id = next_study;
            next_study += 1;
            load_study(
                &mut db,
                config,
                &generator,
                &field,
                Modality::Mri,
                study_id,
                patients[(config.pet_studies + i) % patients.len()].patient_id,
                config.seed.wrapping_add(1300 + i as u64),
            )?;
            mri_study_ids.push(study_id);
        }

        // Loading I/O (volume/region writes) is not part of any measured
        // query; start every session with clean counters.
        db.lfm().reset_stats();
        Ok(QbismSystem {
            server: MedicalServer::new(db, config.clone())?,
            atlas,
            pet_study_ids,
            mri_study_ids,
        })
    }
}

/// Persists a REGION long field per the configured tablespace: the
/// configured codec by default, the k³ layout when the compressed
/// tablespace is on.
fn store_region(db: &mut Database, config: &QbismConfig, region: &Region) -> Result<Value> {
    if config.compressed_tablespace {
        Ok(db.create_long_field_compressed(&qbism_region::encode_compressed(region)?)?)
    } else {
        Ok(db.create_long_field(&config.region_codec.encode(region)?)?)
    }
}

/// Registers the geometry-literal helpers the MedicalServer's generated
/// SQL uses: `fullRegion()` and `boxRegion(x0,y0,z0,x1,y1,z1)` build
/// typed REGION values on `geom` (costing no device I/O, like any
/// literal).
fn register_geometry_ops(db: &mut Database, geom: GridGeometry) {
    db.register_udf("fullregion", move |_, args| {
        if !args.is_empty() {
            return Err(DbError::Binding("fullRegion takes no arguments".into()));
        }
        Ok(Value::object(Region::full(geom)))
    });
    db.register_udf("boxregion", move |_, args| {
        if args.len() != 6 {
            return Err(DbError::Binding("boxRegion takes 6 integer corner coordinates".into()));
        }
        let mut c = [0u32; 6];
        for (slot, a) in c.iter_mut().zip(args) {
            *slot = a
                .as_i64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| DbError::Type("boxRegion wants ints in 0..2^32".into()))?;
        }
        Region::from_box(geom, [c[0], c[1], c[2]], [c[3], c[4], c[5]])
            .map(Value::object)
            .ok_or_else(|| DbError::Exec("boxRegion corners outside the grid".into()))
    });
}

/// Inserts neural systems, structures, and their m:n links.
fn load_neuro_catalog(db: &mut Database, atlas: &PhantomAtlas) -> Result<()> {
    let systems = [(1i64, "limbic"), (2, "motor"), (3, "visual")];
    for (id, name) in systems {
        db.insert_row("neuralsystem", vec![Value::Int(id), Value::from(name)])?;
    }
    for (idx, s) in atlas.structures().iter().enumerate() {
        let structure_id = (idx + 1) as i64;
        db.insert_row("neuralstructure", vec![Value::Int(structure_id), Value::from(s.name)])?;
        // Membership: hippocampi in limbic, putamina+caudate in motor,
        // hemispheres in visual (coarse but queryable).
        let system = match s.name {
            n if n.starts_with("hippocampus") || n == "ventricle" => 1,
            n if n.starts_with("putamen") || n == "caudate" || n == "thalamus" => 2,
            _ => 3,
        };
        db.insert_row("systemstructure", vec![Value::Int(system), Value::Int(structure_id)])?;
    }
    Ok(())
}

/// Loads one study end to end.
#[allow(clippy::too_many_arguments)]
fn load_study<F: qbism_phantom::ScalarField3>(
    db: &mut Database,
    config: &QbismConfig,
    generator: &StudyGenerator,
    field: &F,
    modality: Modality,
    study_id: i64,
    patient_id: i64,
    seed: u64,
) -> Result<()> {
    let acquired = generator.acquire(field, modality, seed);
    let dims = acquired.raw.dims();
    let spacing = acquired.raw.spacing();
    let raw_lf = db.create_long_field(acquired.raw.data())?;
    db.insert_row(
        "rawvolume",
        vec![
            Value::Int(study_id),
            Value::Int(patient_id),
            Value::from(modality.name()),
            Value::from(format!("1993-0{}-15", 1 + (study_id as usize % 9))),
            Value::Int(i64::from(dims[0])),
            Value::Int(i64::from(dims[1])),
            Value::Int(i64::from(dims[2])),
            Value::Float(spacing.x),
            Value::Float(spacing.y),
            Value::Float(spacing.z),
            raw_lf,
        ],
    )?;
    // Register from landmarks (the warping-matrix computation).
    let (patient_pts, atlas_pts): (Vec<_>, Vec<_>) = acquired.landmarks.iter().copied().unzip();
    let warp = register_landmarks(&patient_pts, &atlas_pts)?;
    let warped = warp_to_atlas(&acquired.raw, &warp, config.geometry(), 1.0);
    let warped_lf = db.create_long_field(&volume_to_long_field(&warped))?;
    let m = warp.m;
    db.insert_row(
        "warpedvolume",
        vec![
            Value::Int(study_id),
            Value::Int(ATLAS_ID),
            warped_lf,
            Value::Float(m[0][0]),
            Value::Float(m[0][1]),
            Value::Float(m[0][2]),
            Value::Float(m[1][0]),
            Value::Float(m[1][1]),
            Value::Float(m[1][2]),
            Value::Float(m[2][0]),
            Value::Float(m[2][1]),
            Value::Float(m[2][2]),
            Value::Float(warp.t.x),
            Value::Float(warp.t.y),
            Value::Float(warp.t.z),
        ],
    )?;
    // Banding: the Intensity Band index entity, computed at load time.
    for (lo, hi, region) in warped.intensity_bands(config.band_width) {
        let band_lf = store_region(db, config, &region)?;
        db.insert_row(
            "intensityband",
            vec![
                Value::Int(study_id),
                Value::Int(ATLAS_ID),
                Value::Int(i64::from(lo)),
                Value::Int(i64::from(hi)),
                band_lf,
            ],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbism_volume::DataRegion;

    fn system() -> QbismSystem {
        QbismSystem::install(&QbismConfig::small_test()).unwrap()
    }

    #[test]
    fn install_populates_all_tables() {
        let mut sys = system();
        let db = sys.server.database();
        assert_eq!(db.table_len("atlas").unwrap(), 1);
        assert_eq!(db.table_len("atlasstructure").unwrap(), 11);
        assert_eq!(db.table_len("neuralstructure").unwrap(), 11);
        assert_eq!(db.table_len("patient").unwrap(), 4);
        assert_eq!(db.table_len("rawvolume").unwrap(), 3);
        assert_eq!(db.table_len("warpedvolume").unwrap(), 3);
        // 8 bands per study (width 32).
        assert_eq!(db.table_len("intensityband").unwrap(), 3 * 8);
        assert_eq!(sys.pet_study_ids, vec![1, 2]);
        assert_eq!(sys.mri_study_ids, vec![3]);
    }

    #[test]
    fn stats_start_clean_after_install() {
        let sys = system();
        let stats = sys.server.lfm_stats();
        assert_eq!(stats.pages_read, 0);
        assert_eq!(stats.pages_written, 0);
    }

    #[test]
    fn bands_partition_each_study() {
        let mut sys = system();
        let rs = sys
            .server
            .database()
            .query("select sum(regionVoxels(b.region)) from intensityBand b where b.studyId = 1")
            .unwrap();
        let total = rs.single_value().unwrap().as_i64().unwrap();
        assert_eq!(total, 16 * 16 * 16, "bands must cover the whole grid once");
    }

    #[test]
    fn warped_volume_row_stores_the_matrix() {
        let mut sys = system();
        let rs = sys
            .server
            .database()
            .query("select wv.m00, wv.m11, wv.m22 from warpedVolume wv where wv.studyId = 1")
            .unwrap();
        let row = &rs.rows()[0];
        // A small misalignment: diagonal elements near 1.
        for v in row {
            let x = v.as_f64().unwrap();
            assert!((0.8..1.2).contains(&x), "diagonal {x} not near identity");
        }
    }

    #[test]
    fn install_is_deterministic() {
        let mut a = system();
        let mut b = system();
        let q =
            "select extractVoxels(wv.data, fullRegion()) from warpedVolume wv where wv.studyId = 1";
        let answer = |sys: &mut QbismSystem| {
            let row = sys.server.database().query(q).unwrap().into_rows().remove(0);
            row.into_iter().next().and_then(Value::into_object::<DataRegion<u8>>).unwrap()
        };
        assert_eq!(answer(&mut a), answer(&mut b));
    }
}
