//! End-to-end integration: phantom → load → register/warp → band →
//! SQL query → extract → ship → import → render, across crate
//! boundaries.

#![allow(clippy::expect_used)]

use qbism::{QbismConfig, QbismSystem, QuerySpec};
use qbism_render::{import_data_region, Camera, Rasterizer};
use qbism_volume::DataRegion;

fn system() -> QbismSystem {
    QbismSystem::install(&QbismConfig::medium()).expect("install")
}

#[test]
fn load_query_render_pipeline() {
    let sys = system();
    let study = sys.pet_study_ids[0];
    // Query through SQL + UDFs.
    let answer = sys.server.structure_data(study, "ntal").expect("query");
    assert!(answer.voxel_count() > 0);
    // Import into the DX object.
    let field = import_data_region(&answer.data);
    assert_eq!(field.len() as u64, answer.voxel_count());
    // Render.
    let cam = Camera::default_for_grid(sys.server.config().side());
    let mut raster = Rasterizer::new(128, 128, cam);
    raster.draw_field(&field);
    assert!(raster.points_drawn > 0, "something must reach the screen");
    let fb = raster.finish();
    assert!(fb.coverage() > 0.0);
}

#[test]
fn paper_section34_queries_run_verbatim_in_spirit() {
    let mut sys = system();
    // First query: catalog metadata.
    let db = sys.server.database();
    let rs = db
        .query(
            "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
                    a.atlasId, p.name, p.patientId, rv.date
             from atlas a, rawVolume rv, warpedVolume wv, patient p
             where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
                   rv.patientId = p.patientId and rv.studyId = 1 and
                   a.atlasName = 'Talairach'",
        )
        .expect("first query");
    assert_eq!(rs.len(), 1);
    // Second query: the spatial extraction with a UDF in the select list.
    let rs = db
        .query(
            "select ast.region, extractVoxels(wv.data, ast.region)
             from warpedVolume wv, atlasStructure ast, neuralStructure ns
             where wv.studyId = 1 and
                   ast.structureId = ns.structureId and
                   ns.structureName = 'putamen-l'",
        )
        .expect("second query");
    assert_eq!(rs.len(), 1);
    assert!(rs.rows()[0][0].as_long().is_some(), "region handle column");
    let dr = rs.rows()[0][1].as_object::<DataRegion<u8>>().expect("a typed DATA_REGION");
    assert!(dr.voxel_count() > 0);
    // At the wire boundary it is the client's DATA_REGION.
    let wire = qbism::wire::encode_data_region(dr).expect("encodes");
    assert_eq!(&qbism::wire::decode_data_region(&wire).expect("parses"), dr);
}

#[test]
fn every_query_class_returns_consistent_answers() {
    let mut sys = system();
    let study = sys.pet_study_ids[0];
    let side = sys.server.config().side();
    for spec in [
        QuerySpec::FullStudy,
        QuerySpec::Box { min: [2, 2, 2], max: [side - 3, side / 2, side - 3] },
        QuerySpec::Structure("cerebellum".into()),
        QuerySpec::Band { lo: 96, hi: 127 },
        QuerySpec::BandInStructure { lo: 96, hi: 127, structure: "ntal0".into() },
    ] {
        let report = qbism::report::run_full_query(&mut sys, study, &spec).expect("runs");
        assert_eq!(
            report.total_sim_seconds,
            report.db_sim_seconds
                + report.net_sim_seconds
                + report.import_sim_seconds
                + report.render_sim_seconds
                + report.other_sim_seconds,
            "{}: total must be the sum of parts",
            report.label
        );
        assert!(report.voxels <= u64::from(side).pow(3));
    }
}

#[test]
fn stored_warped_volume_matches_registration_ground_truth() {
    // The warp matrix stored in warpedVolume reproduces the transform
    // that registration computed, study by study.
    let mut sys = system();
    for &study in &sys.pet_study_ids.clone() {
        let rs = sys
            .server
            .database()
            .query(&format!(
                "select wv.m00, wv.m11, wv.m22, wv.t0, wv.t1, wv.t2
                 from warpedVolume wv where wv.studyId = {study}"
            ))
            .expect("matrix row");
        let row = &rs.rows()[0];
        for d in &row[0..3] {
            let v = d.as_f64().expect("float");
            assert!((0.8..1.2).contains(&v), "diagonal {v}");
        }
        for t in &row[3..6] {
            let v = t.as_f64().expect("float");
            assert!(v.abs() < f64::from(sys.server.config().side()), "translation {v}");
        }
    }
}

#[test]
fn multi_study_results_are_consistent_with_single_study_bands() {
    let sys = system();
    let ids = sys.pet_study_ids.clone();
    let (joint, _) = sys.server.multi_study_band_region(&ids, 96, 127).expect("joint");
    for &id in &ids {
        let single = sys.server.band_data(id, 96, 127).expect("band");
        assert!(
            single.data.region().contains_region(&joint),
            "study {id}'s band must contain the joint region"
        );
    }
}

#[test]
fn different_codecs_store_identical_science() {
    // The on-disk REGION encoding must never change query answers.
    use qbism_region::{OctantKind, RegionCodec};
    let mut answers = Vec::new();
    for codec in [RegionCodec::Naive, RegionCodec::Elias, RegionCodec::Octant(OctantKind::Cubic)] {
        let config = QbismConfig { region_codec: codec, ..QbismConfig::small_test() };
        let sys = QbismSystem::install(&config).expect("install");
        let a = sys.server.structure_data(1, "ntal").expect("query");
        answers.push((a.data.region().voxel_count(), a.data.values().to_vec()));
    }
    assert_eq!(answers[0], answers[1], "elias vs naive");
    assert_eq!(answers[0], answers[2], "octant vs naive");
}

#[test]
fn different_curves_store_identical_science() {
    use qbism_sfc::CurveKind;
    let mut per_curve = Vec::new();
    for curve in [CurveKind::Hilbert, CurveKind::Morton, CurveKind::Scanline] {
        let config = QbismConfig { curve, ..QbismConfig::small_test() };
        let sys = QbismSystem::install(&config).expect("install");
        let a = sys.server.structure_data(1, "thalamus").expect("query");
        // Compare as (sorted voxel, value) sets — ids differ per curve.
        let mut pairs: Vec<((u32, u32, u32), u8)> =
            a.data.region().iter_voxels3().zip(a.data.values().iter().copied()).collect();
        pairs.sort();
        per_curve.push(pairs);
    }
    assert_eq!(per_curve[0], per_curve[1], "hilbert vs morton");
    assert_eq!(per_curve[0], per_curve[2], "hilbert vs scanline");
}
