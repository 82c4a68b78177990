//! Database population — everything QBISM computes "at database load
//! time (rather than query time) since the computation is expensive".
//!
//! An install is two steps.  [`QbismSystem::prepare`] performs the
//! paper's data path, which knows no curve, codec or device: rasterise
//! the atlas structures and mesh their surfaces, then per synthesized
//! study acquire the raw scanline volume, register it to the atlas from
//! landmark pairs, resample it into a warped VOLUME and band it into
//! intensity-band REGIONs, all on the canonical Hilbert grid.
//! [`PreparedSet::store_as`] is the per-physical-design half: it puts the
//! prepared volumes and REGIONs on the configured curve, encodes the
//! REGIONs in the configured codec, and writes the long fields and
//! catalog rows.  [`QbismSystem::install`] is one of each; a warehouse's
//! shards and a table's storage designs store many times from one
//! prepared set.
//!
//! Prepare runs its studies concurrently: once the atlas is built, up to
//! [`PREPARE_THREADS`] scoped workers take the next study index from a
//! shared counter while the calling thread meshes the structures.  No
//! prepared byte can depend on the schedule: each study reads only the
//! immutable atlas and its own seeds (field, acquisition, patient), all
//! fixed by its index, and its result lands in its index's slot, so the
//! set is the one a loop over the studies builds.

use crate::config::QbismConfig;
use crate::ops::register_spatial_ops;
use crate::schema::create_schema;
use crate::server::MedicalServer;
use crate::wire::mesh_to_long_field;
use crate::{QbismError, Result};
use qbism_geometry::Affine3;
use qbism_phantom::{
    build_atlas, demographics, Modality, MriField, Patient, PetField, PhantomAtlas, StudyGenerator,
};
use qbism_region::{GridGeometry, Region, RegionCodec};
use qbism_sfc::CurveKind;
use qbism_volume::Volume;
use qbism_warp::RawStudy;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// It prepares afresh and stores once.
    pub fn install(config: &QbismConfig) -> Result<QbismSystem> {
        QbismSystem::prepare(config)?.store_as(config)
    }

    /// The curve-, codec- and device-free half of an install: the
    /// atlas, the structure meshes, the patients, and every study
    /// acquired, registered, warped and banded.  Only `config`'s
    /// prepare inputs are read (see [`PreparedSet::store_as`]).
    pub fn prepare(config: &QbismConfig) -> Result<PreparedSet> {
        config.validate()?;
        // Ground truth (atlas, fields, blob placement) is generated on a
        // canonical Hilbert geometry so the *data* is bit-identical across
        // storage-curve configurations — Table 4 compares encodings of
        // the same voxel sets, not different phantoms.
        let truth_geom = GridGeometry::new(CurveKind::Hilbert, 3, config.atlas_bits);
        let atlas = build_atlas(truth_geom);
        let patients = demographics::generate_patients(config.seed, config.patients.max(1));
        let study_count = config.pet_studies + config.mri_studies;
        let (meshes, studies) = concurrently(
            study_count,
            |i| prepare_nth_study(config, &atlas, &patients, i),
            || {
                atlas
                    .structures()
                    .iter()
                    .map(|s| mesh_to_long_field(&extract_surface(&s.region)))
                    .collect()
            },
        );
        let studies = studies?;
        Ok(PreparedSet { inputs: config.clone(), atlas, meshes, patients, studies })
    }
}

/// What [`QbismSystem::prepare`] computes once for any number of
/// physical designs: ground truth and studies on the canonical Hilbert
/// grid, ready for [`PreparedSet::store_as`].
pub struct PreparedSet {
    /// The configuration prepared from; only its prepare inputs bind.
    inputs: QbismConfig,
    atlas: PhantomAtlas,
    /// Each structure's surface mesh, in its long-field layout.
    meshes: Vec<Vec<u8>>,
    patients: Vec<Patient>,
    /// PET studies, then MRI studies; study `i` gets id `i + 1`.
    studies: Vec<PreparedStudy>,
}

/// One study after the load-time data path, before any design.
struct PreparedStudy {
    modality: Modality,
    patient_id: i64,
    raw: RawStudy,
    /// The warping matrix registration computed.
    warp: Affine3,
    /// The warped VOLUME, on the canonical Hilbert grid.
    warped: Volume,
    /// `(lo, hi, band REGION)` of `warped`, on the canonical grid.
    bands: Vec<(u8, u8, Region)>,
}

/// The configuration fields [`QbismSystem::prepare`] reads, by name.
/// Any other field may change between a prepare and a store.
const PREPARE_INPUTS: [&str; 7] =
    ["atlas_bits", "seed", "pet_studies", "mri_studies", "patients", "pet_blobs", "band_width"];

/// The first of [`PREPARE_INPUTS`] on which `a` and `b` differ.
fn differing_prepare_input(a: &QbismConfig, b: &QbismConfig) -> Option<&'static str> {
    let differs = [
        a.atlas_bits != b.atlas_bits,
        a.seed != b.seed,
        a.pet_studies != b.pet_studies,
        a.mri_studies != b.mri_studies,
        a.patients != b.patients,
        a.pet_blobs != b.pet_blobs,
        a.band_width != b.band_width,
    ];
    PREPARE_INPUTS.into_iter().zip(differs).find_map(|(name, d)| d.then_some(name))
}

impl PreparedSet {
    /// Stores the prepared set as one physical design — `config`'s
    /// curve, REGION codec and device — and returns the installed
    /// system.  Long fields and rows are written in the order an
    /// install has always written them, so every stored byte lands
    /// where [`QbismSystem::install`] puts it.
    ///
    /// # Errors
    /// [`QbismError::PreparedMismatch`] when one of `config`'s prepare
    /// inputs (`atlas_bits`, `seed`, `pet_studies`, `mri_studies`,
    /// `patients`, `pet_blobs`, `band_width`) differs from the
    /// prepared set's; otherwise what the device or catalog reports.
    pub fn store_as(&self, config: &QbismConfig) -> Result<QbismSystem> {
        if let Some(input) = differing_prepare_input(&self.inputs, config) {
            return Err(QbismError::PreparedMismatch { input });
        }
        let mut db = Database::new(config.device_capacity)?;
        register_spatial_ops(&mut db, config.geometry());
        register_geometry_ops(&mut db, config.geometry());
        create_schema(&mut db)?;

        // ------------------------------------------------------------------
        // Atlas and structures.
        // ------------------------------------------------------------------
        db.insert_row(
            "atlas",
            vec![
                Value::Int(ATLAS_ID),
                Value::from("Talairach"),
                Value::Int(i64::from(config.side())),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::from("adult reference"),
            ],
        )?;
        load_neuro_catalog(&mut db, &self.atlas)?;
        for (idx, (s, mesh)) in self.atlas.structures().iter().zip(&self.meshes).enumerate() {
            let structure_id = (idx + 1) as i64;
            let transcoded;
            let region = if s.region.geometry().kind() == config.curve {
                &s.region
            } else {
                transcoded = s.region.to_curve(config.curve);
                &transcoded
            };
            let region_lf = store_region(&mut db, config, region)?;
            let mesh_lf = db.create_long_field(mesh)?;
            db.insert_row(
                "atlasstructure",
                vec![Value::Int(structure_id), Value::Int(ATLAS_ID), region_lf, mesh_lf],
            )?;
        }

        // ------------------------------------------------------------------
        // Patients.
        // ------------------------------------------------------------------
        for p in &self.patients {
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
        // Studies: raw, warped and banded, on the configured curve.
        // ------------------------------------------------------------------
        for (study_id, study) in (1i64..).zip(&self.studies) {
            store_study(&mut db, config, study_id, study)?;
        }

        // Loading I/O (volume/region writes) is not part of any measured
        // query; start every session with clean counters.
        db.lfm().reset_stats();
        let pet = config.pet_studies as i64;
        Ok(QbismSystem {
            server: MedicalServer::new(db, config.clone())?,
            atlas: self.atlas.clone(),
            pet_study_ids: (1..=pet).collect(),
            mri_study_ids: (pet + 1..=self.studies.len() as i64).collect(),
        })
    }
}

/// Persists a REGION long field in the stored codec.  A k³ field is
/// marked compressed in the LFM, so its reads count toward
/// `qbism_lfm_compressed_pages_read_total` and open an
/// `lfm.compressed_scan` span.
fn store_region(db: &mut Database, config: &QbismConfig, region: &Region) -> Result<Value> {
    let codec = config.stored_codec();
    let bytes = codec.encode(region)?;
    Ok(match codec {
        RegionCodec::K3Tree => db.create_long_field_compressed(&bytes)?,
        _ => db.create_long_field(&bytes)?,
    })
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

/// Worker threads [`QbismSystem::prepare`] runs studies on, capped at
/// the study count (the paper's install is 5 PET + 3 MRI).  A constant,
/// not the host's core count: an install does the same work on every
/// host, and no value the loader computes depends on the machine.
const PREPARE_THREADS: usize = 8;

/// Runs `job(i)` for every `i < count` on up to [`PREPARE_THREADS`]
/// scoped workers, each pulling the next index from a shared counter,
/// while `caller` runs on the calling thread.  Returns `caller`'s value
/// and the jobs' results in index order, or the error of the lowest
/// failing index — what a loop over `0..count` stopping at its first
/// error returns.  A worker's panic is re-raised on the caller.
fn concurrently<T: Send, E: Send, C>(
    count: usize,
    job: impl Fn(usize) -> std::result::Result<T, E> + Sync,
    caller: impl FnOnce() -> C,
) -> (C, std::result::Result<Vec<T>, E>) {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results reach
            // the caller through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let (own, finished) = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..PREPARE_THREADS.min(count)).map(|_| scope.spawn(worker)).collect();
        let own = caller();
        let finished: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        (own, finished)
    });
    // Every index was claimed by exactly one worker, which ran it.
    let mut slots: Vec<Option<std::result::Result<T, E>>> = (0..count).map(|_| None).collect();
    for (i, result) in finished.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result);
        }
    }
    (own, slots.into_iter().flatten().collect())
}

/// Prepares study `i` of `config`'s install: PET studies first, then
/// MRI, each with the field, acquisition and patient its index fixes.
fn prepare_nth_study(
    config: &QbismConfig,
    atlas: &PhantomAtlas,
    patients: &[Patient],
    i: usize,
) -> Result<PreparedStudy> {
    let patient_id = patients[i % patients.len()].patient_id;
    let pet = config.pet_studies;
    if i < pet {
        let field =
            PetField::new(atlas, config.seed.wrapping_add(100 + i as u64), config.pet_blobs);
        let seed = config.seed.wrapping_add(500 + i as u64);
        prepare_study(config, atlas.geometry(), &field, Modality::Pet, patient_id, seed)
    } else {
        let j = (i - pet) as u64;
        let field = MriField::new(atlas, config.seed.wrapping_add(900 + j));
        let seed = config.seed.wrapping_add(1300 + j);
        prepare_study(config, atlas.geometry(), &field, Modality::Mri, patient_id, seed)
    }
}

/// Runs one study through the load-time data path: acquire, register
/// from landmarks (the warping-matrix computation), warp onto the
/// canonical grid, band.
fn prepare_study<F: qbism_phantom::ScalarField3>(
    config: &QbismConfig,
    truth_geom: GridGeometry,
    field: &F,
    modality: Modality,
    patient_id: i64,
    seed: u64,
) -> Result<PreparedStudy> {
    let acquired = StudyGenerator::new(config.side()).acquire(field, modality, seed);
    let (patient_pts, atlas_pts): (Vec<_>, Vec<_>) = acquired.landmarks.iter().copied().unzip();
    let warp = register_landmarks(&patient_pts, &atlas_pts)?;
    let warped = warp_to_atlas(&acquired.raw, &warp, truth_geom, 1.0)?;
    // Banding: the Intensity Band index entity, computed at load time.
    let bands = warped.intensity_bands(config.band_width);
    Ok(PreparedStudy { modality, patient_id, raw: acquired.raw, warp, warped, bands })
}

/// Writes one prepared study's raw volume, warped volume and intensity
/// bands, with their rows, on `config`'s curve and codec.  A study on
/// the canonical curve is written from the prepared set as it is.
fn store_study(
    db: &mut Database,
    config: &QbismConfig,
    study_id: i64,
    study: &PreparedStudy,
) -> Result<()> {
    let dims = study.raw.dims();
    let spacing = study.raw.spacing();
    let raw_lf = db.create_long_field(study.raw.data())?;
    db.insert_row(
        "rawvolume",
        vec![
            Value::Int(study_id),
            Value::Int(study.patient_id),
            Value::from(study.modality.name()),
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
    let relaid;
    let rebanded;
    let (warped, bands) = if study.warped.geometry().kind() == config.curve {
        (&study.warped, &study.bands)
    } else {
        relaid = study.warped.relayout(config.curve);
        rebanded = relaid.intensity_bands(config.band_width);
        (&relaid, &rebanded)
    };
    let warped_lf = db.create_long_field(warped.values())?;
    let (m, t) = (study.warp.m, study.warp.t);
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
            Value::Float(t.x),
            Value::Float(t.y),
            Value::Float(t.z),
        ],
    )?;
    for (lo, hi, region) in bands {
        let band_lf = store_region(db, config, region)?;
        db.insert_row(
            "intensityband",
            vec![
                Value::Int(study_id),
                Value::Int(ATLAS_ID),
                Value::Int(i64::from(*lo)),
                Value::Int(i64::from(*hi)),
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
    fn store_refuses_each_changed_prepare_input() {
        let base = QbismConfig::small_test();
        let prepared = QbismSystem::prepare(&base).unwrap();
        let changed = [
            ("atlas_bits", QbismConfig { atlas_bits: 5, ..base.clone() }),
            ("seed", QbismConfig { seed: base.seed + 1, ..base.clone() }),
            ("pet_studies", QbismConfig { pet_studies: 3, ..base.clone() }),
            ("mri_studies", QbismConfig { mri_studies: 0, ..base.clone() }),
            ("patients", QbismConfig { patients: 5, ..base.clone() }),
            ("pet_blobs", QbismConfig { pet_blobs: 3, ..base.clone() }),
            ("band_width", QbismConfig { band_width: 64, ..base.clone() }),
        ];
        assert_eq!(changed.each_ref().map(|(name, _)| *name), PREPARE_INPUTS);
        for (name, config) in changed {
            match prepared.store_as(&config) {
                Err(QbismError::PreparedMismatch { input }) => assert_eq!(input, name),
                Err(other) => panic!("{name}: {other}"),
                Ok(_) => panic!("{name}: stored from a set prepared for another {name}"),
            }
        }
        // Curve, codec and device are the store's own.
        let design = QbismConfig {
            curve: qbism_sfc::CurveKind::Morton,
            region_codec: RegionCodec::K3Tree,
            device_capacity: 1 << 25,
            ..base
        };
        assert!(prepared.store_as(&design).is_ok());
    }

    /// More studies than [`PREPARE_THREADS`], both modalities.
    fn crowded() -> QbismConfig {
        QbismConfig { pet_studies: 11, mri_studies: 2, ..QbismConfig::small_test() }
    }

    fn assert_same_study(got: &PreparedStudy, want: &PreparedStudy, i: usize) {
        assert_eq!(got.modality, want.modality, "study {i} modality");
        assert_eq!(got.patient_id, want.patient_id, "study {i} patient");
        assert_eq!(got.raw, want.raw, "study {i} raw bytes");
        assert_eq!(
            got.warp.m.map(|r| r.map(f64::to_bits)),
            want.warp.m.map(|r| r.map(f64::to_bits)),
            "study {i} warp matrix"
        );
        assert_eq!(
            [got.warp.t.x, got.warp.t.y, got.warp.t.z].map(f64::to_bits),
            [want.warp.t.x, want.warp.t.y, want.warp.t.z].map(f64::to_bits),
            "study {i} warp translation"
        );
        assert_eq!(got.warped, want.warped, "study {i} warped values");
        assert_eq!(got.bands, want.bands, "study {i} bands");
    }

    #[test]
    fn concurrent_prepare_matches_a_loop_on_the_calling_thread() {
        let config = crowded();
        assert!(config.pet_studies + config.mri_studies > PREPARE_THREADS);
        let prepared = QbismSystem::prepare(&config).unwrap();

        // A loop on this thread, one `prepare_study` call per study, with
        // the seeds and patients an install has always given them.
        let truth_geom = GridGeometry::new(CurveKind::Hilbert, 3, config.atlas_bits);
        let atlas = build_atlas(truth_geom);
        let patients = demographics::generate_patients(config.seed, config.patients);
        let patient = |i: usize| patients[i % patients.len()].patient_id;
        let mut want = Vec::new();
        for i in 0..config.pet_studies {
            let field =
                PetField::new(&atlas, config.seed.wrapping_add(100 + i as u64), config.pet_blobs);
            let seed = config.seed.wrapping_add(500 + i as u64);
            want.push(
                prepare_study(&config, truth_geom, &field, Modality::Pet, patient(i), seed)
                    .unwrap(),
            );
        }
        for i in 0..config.mri_studies {
            let field = MriField::new(&atlas, config.seed.wrapping_add(900 + i as u64));
            let seed = config.seed.wrapping_add(1300 + i as u64);
            let patient_id = patient(config.pet_studies + i);
            want.push(
                prepare_study(&config, truth_geom, &field, Modality::Mri, patient_id, seed)
                    .unwrap(),
            );
        }

        assert_eq!(prepared.studies.len(), want.len());
        for (i, (got, want)) in prepared.studies.iter().zip(&want).enumerate() {
            assert_same_study(got, want, i);
        }
        let meshes: Vec<_> = atlas
            .structures()
            .iter()
            .map(|s| mesh_to_long_field(&extract_surface(&s.region)))
            .collect();
        assert_eq!(prepared.meshes, meshes);
        assert_eq!(prepared.patients, patients);
    }

    #[test]
    fn a_failed_prepare_reports_its_lowest_failing_study() {
        let config = crowded();
        let truth_geom = GridGeometry::new(CurveKind::Hilbert, 3, config.atlas_bits);
        let atlas = build_atlas(truth_geom);
        let patients = demographics::generate_patients(config.seed, config.patients);
        // Studies 4 and 9 fail in the warp, after acquiring and
        // registering; study 12 fails at once, most likely first.
        let plane = GridGeometry::new(CurveKind::Hilbert, 2, config.atlas_bits);
        let (_, got) = concurrently(
            config.pet_studies + config.mri_studies,
            |i| match i {
                4 | 9 => {
                    let field = PetField::new(&atlas, 100, config.pet_blobs);
                    prepare_study(&config, plane, &field, Modality::Pet, 1, 500).map_err(|e| (i, e))
                }
                12 => Err((i, QbismError::NotFound("study 12".into()))),
                _ => prepare_nth_study(&config, &atlas, &patients, i).map_err(|e| (i, e)),
            },
            || (),
        );
        match got {
            Err((4, QbismError::Warp(qbism_warp::WarpError::NotThreeD { dims: 2 }))) => {}
            Err((i, e)) => panic!("expected study 4's warp error, got study {i}'s: {e}"),
            Ok(_) => panic!("expected study 4's warp error, got a prepared set"),
        }
    }

    #[test]
    #[should_panic(expected = "study 5 panicked")]
    fn a_worker_panic_reaches_the_caller() {
        let _outcome = concurrently(
            9,
            |i| if i == 5 { panic!("study {i} panicked") } else { Ok::<_, ()>(i) },
            || (),
        );
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
