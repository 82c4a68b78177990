//! Robustness: hostile inputs and resource exhaustion across crates.
//!
//! A DBMS's decode paths face bytes from disk it must never trust, and
//! its storage layer must fail cleanly when the device fills.

#![allow(clippy::panic)]

use proptest::prelude::*;
use qbism::{QbismConfig, QbismSystem};
use qbism_region::RegionCodec;

proptest! {
    /// REGION decoding must never panic, whatever the bytes.
    #[test]
    fn region_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = RegionCodec::decode(&bytes); // Ok or Err, never a panic
    }

    /// Mutating valid encodings must either round-trip consistently or
    /// error out — never panic, never silently produce out-of-grid runs.
    #[test]
    fn region_decode_survives_bit_flips(
        ids in proptest::collection::vec(0u64..4096, 1..100),
        flip_at in 0usize..200,
        flip_bit in 0u8..8,
    ) {
        let geom = qbism_region::GridGeometry::new(qbism_sfc::CurveKind::Hilbert, 3, 4);
        let region = qbism_region::Region::from_ids(geom, ids);
        for codec in RegionCodec::ALL {
            let mut bytes = codec.encode(&region).expect("encodes");
            if !bytes.is_empty() {
                let i = flip_at % bytes.len();
                bytes[i] ^= 1 << flip_bit;
            }
            if let Ok(decoded) = RegionCodec::decode(&bytes) {
                // Whatever came back must satisfy the REGION invariants.
                let cells = decoded.geometry().cell_count();
                for run in decoded.runs() {
                    prop_assert!(run.end < cells);
                }
            }
        }
    }

    /// DATA_REGION wire parsing must never panic either.
    #[test]
    fn data_region_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = qbism::wire::decode_data_region(&bytes);
    }

    /// Mesh long fields: arbitrary bytes must parse or error, not panic.
    #[test]
    fn mesh_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = qbism::wire::mesh_from_long_field(&bytes);
    }

    /// SQL text from users must never panic the parser.
    #[test]
    fn sql_parser_never_panics(sql in "[a-zA-Z0-9_.,'()*=<> ]{0,120}") {
        let _ = qbism_starburst::parse_statement(&sql);
    }
}

/// The DATA_REGION wire decoder's fuzz contract over a real answer:
/// every truncation is a typed error, and every single-bit flip decodes
/// or is one.
#[test]
fn every_truncation_and_bit_flip_of_a_data_region_is_decoded_or_typed() {
    let geom = qbism_region::GridGeometry::new(qbism_sfc::CurveKind::Hilbert, 3, 4);
    let ids: Vec<u64> = (0..4096).filter(|id| id % 97 < 9 || (700..760).contains(id)).collect();
    let region = qbism_region::Region::from_ids(geom, ids);
    let values: Vec<u8> = (0..region.voxel_count()).map(|i| (i * 7) as u8).collect();
    let data = qbism_volume::DataRegion::new(region, values);
    let bytes = qbism::wire::encode_data_region(&data).expect("encodes");
    let decode = |bytes: &[u8]| match qbism::wire::decode_data_region(bytes) {
        Ok(_) => true,
        Err(qbism::QbismError::Wire(_) | qbism::QbismError::Region(_)) => false,
        Err(other) => panic!("untyped refusal: {other:?}"),
    };
    assert_eq!(qbism::wire::decode_data_region(&bytes).expect("decodes"), data);
    // A value cut anywhere has lost values (or header) its run list
    // still promises.
    for cut in 0..bytes.len() {
        assert!(!decode(&bytes[..cut]), "cut at {cut} accepted");
    }
    // A flipped length or run-count field claims up to 2³¹ more bytes
    // or runs than the value holds; the decoder must refuse before
    // allocating for the claim.
    let mut accepted = 0;
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        accepted += usize::from(decode(&flipped));
    }
    assert!(accepted >= data.voxel_count() * 8, "every value-byte flip is still a valid value");
}

/// A REGION on the database's resolution but another curve is refused
/// by `extractVoxels` as a typed error, in any codec: its ids would name
/// other voxels of the Hilbert-ordered VOLUME (they once came back as 96
/// wrong values).  The same box on the database's own curve extracts.
#[test]
fn extract_voxels_refuses_a_region_on_another_curve() {
    let config = QbismConfig::small_test();
    assert_eq!(config.curve, qbism_sfc::CurveKind::Hilbert);
    let mut sys = QbismSystem::install(&config).expect("install");
    let study = sys.pet_study_ids[0];
    let db = sys.server.database();
    let stmt = db
        .prepare("select extractVoxels(wv.data, ?) from warpedVolume wv where wv.studyId = ?")
        .expect("prepare");
    for (curve, codec) in [
        (qbism_sfc::CurveKind::Hilbert, RegionCodec::Naive),
        (qbism_sfc::CurveKind::Morton, RegionCodec::Naive),
        (qbism_sfc::CurveKind::Morton, RegionCodec::K3Tree),
    ] {
        let grid = qbism_region::GridGeometry::new(curve, 3, config.atlas_bits);
        let region = qbism_region::Region::from_box(grid, [1, 2, 3], [6, 9, 4]).expect("box");
        let bytes = qbism_starburst::Value::Bytes(codec.encode(&region).expect("encode"));
        match db.run(&stmt, &[bytes, qbism_starburst::Value::Int(study)]) {
            Ok(rs) if curve == config.curve => assert_eq!(rs.len(), 1),
            Err(qbism_starburst::DbError::Exec(msg)) if curve != config.curve => {
                assert!(msg.contains("not the database's"), "{msg}");
            }
            other => panic!("{curve:?} {}: {other:?}", codec.name()),
        }
    }
}

#[test]
fn device_exhaustion_fails_cleanly_at_install() {
    // A device too small for even the atlas: install must return an
    // error (storage OutOfSpace bubbled through), not panic, and not
    // produce a half-usable system.
    let config = QbismConfig {
        device_capacity: 8 * 4096, // 8 pages
        ..QbismConfig::small_test()
    };
    let Err(err) = QbismSystem::install(&config) else {
        panic!("device is far too small; install should fail");
    };
    let msg = err.to_string();
    assert!(msg.contains("full") || msg.contains("allocate"), "unexpected error: {msg}");
}

#[test]
fn unusable_configs_are_typed_errors_at_every_entry_point() {
    // Bands that do not tile 0–255, no bands at all, and a grid too
    // small for the anatomy: each used to reach an `assert!` (or a
    // division by zero) deep in the loader or the server.
    use qbism::QbismError::Config;
    use qbism_cluster::{ClusterError, ClusterWarehouse};
    let small = QbismConfig::small_test;
    for (what, config) in [
        ("band_width 48", QbismConfig { band_width: 48, ..small() }),
        ("band_width 0", QbismConfig { band_width: 0, ..small() }),
        ("atlas_bits 1", QbismConfig { atlas_bits: 1, ..small() }),
    ] {
        assert!(matches!(QbismSystem::install(&config), Err(Config(_))), "{what}: install");
        assert!(
            matches!(
                ClusterWarehouse::install(&config, 2, 2),
                Err(ClusterError::Prepare(Config(_)))
            ),
            "{what}: warehouse"
        );
        let db = qbism_starburst::Database::new(1 << 20).expect("empty database");
        assert!(matches!(qbism::MedicalServer::new(db, config), Err(Config(_))), "{what}: server");
    }
}

#[test]
fn udfs_report_clean_errors_for_wrong_arguments() {
    let mut sys = QbismSystem::install(&QbismConfig::small_test()).expect("install");
    let db = sys.server.database();
    // Wrong arity and wrong types through the SQL surface.
    for bad in [
        "select intersection(ast.region) from atlasStructure ast",
        "select extractVoxels(ast.region, ast.region, ast.region) from atlasStructure ast",
        "select contains(1, 2) from atlasStructure ast",
        "select regionVoxels('nope') from atlasStructure ast",
        "select boxRegion(1, 2, 3) from atlasStructure ast",
        "select boxRegion(-1, 0, 0, 5, 5, 5) from atlasStructure ast",
        "select boxRegion(0, 0, 0, 999, 5, 5) from atlasStructure ast",
    ] {
        let err = db.query(bad).expect_err(bad);
        let msg = err.to_string();
        assert!(!msg.is_empty(), "{bad} should explain itself");
    }
}

#[test]
fn box_region_corners_past_u32_are_a_type_error() {
    // Corners of 2³² and 2³² + 1 must not wrap to 0 and 1, the 2³ box
    // at the origin; a corner past the grid but inside u32 is an
    // execution error.
    use qbism_starburst::{DbError, Value};
    let mut sys = QbismSystem::install(&QbismConfig::small_test()).expect("install");
    let db = sys.server.database();
    let voxels = |corners: &str| {
        db.query(&format!("select regionVoxels(boxRegion({corners})) from patient p"))
            .map(|rs| rs.rows().to_vec())
    };
    let origin = voxels("0, 0, 0, 1, 1, 1").expect("the 2³ box at the origin");
    assert!(!origin.is_empty() && origin.iter().all(|row| row == &[Value::Int(8)]), "{origin:?}");
    for wrapped in ["4294967296, 0, 0, 4294967297, 1, 1", "0, 0, 0, 1, 1, 4294967297"] {
        assert!(matches!(voxels(wrapped), Err(DbError::Type(_))), "{wrapped}");
    }
    assert!(matches!(voxels("0, 0, 0, 4294967295, 1, 1"), Err(DbError::Exec(_))));
}

#[test]
fn queries_against_dropped_rows_degrade_gracefully() {
    // DELETE support means catalog rows can vanish; spatial queries must
    // then report NotFound, not panic.
    let mut sys = QbismSystem::install(&QbismConfig::small_test()).expect("install");
    sys.server
        .database()
        .execute("delete from warpedVolume where warpedVolume.studyId = 1")
        .expect("delete runs");
    assert!(matches!(sys.server.structure_data(1, "ntal"), Err(qbism::QbismError::NotFound(_))));
    // Other studies keep working.
    assert!(sys.server.structure_data(2, "ntal").is_ok());
}

#[test]
fn caller_supplied_names_are_values_never_sql() {
    // A structure name reaches the engine as a bound parameter.  One
    // that would end a spliced literal is not a parse error, and one
    // that would add a predicate selects nothing: both are plain
    // NotFound from every entry point that takes a name.
    use qbism::QbismError::NotFound;
    use qbism_cluster::{ClusterError, ClusterWarehouse};
    let config = QbismConfig::small_test();
    let sys = QbismSystem::install(&config).expect("install");
    let server = &sys.server;
    let studies = sys.pet_study_ids.clone();
    let warehouse = ClusterWarehouse::install(&config, 2, 2).expect("warehouse");
    for name in ["o'brien", "nope' or ns.structureName = 'ntal", "ntal' --", "café"] {
        assert!(matches!(server.structure_data(1, name), Err(NotFound(_))), "{name}");
        assert!(matches!(server.band_in_structure(1, 32, 63, name), Err(NotFound(_))), "{name}");
        assert!(matches!(server.population_stage(1, name).outcome, Err(NotFound(_))), "{name}");
        assert!(matches!(server.structure_mesh(name), Err(NotFound(_))), "{name}");
        assert!(matches!(server.structure_region(name), Err(NotFound(_))), "{name}");
        // The aggregate skips every study for the same typed reason, so
        // it fails with the first study's NotFound …
        assert!(matches!(server.population_average(&studies, name), Err(NotFound(_))), "{name}");
        // … which a router sees from the last replica it tried.
        match warehouse.population_average(&studies, name) {
            Err(ClusterError::ShardsUnavailable { study, last, .. }) => {
                assert_eq!(study, studies[0], "{name}");
                assert!(
                    matches!(*last, ClusterError::Query { error: NotFound(_), .. }),
                    "{name}: {last}"
                );
            }
            other => panic!("{name}: expected every study skipped as NotFound, got {other:?}"),
        }
    }
    // The names did nothing to the data.
    assert!(server.structure_data(1, "ntal").is_ok());
    assert!(warehouse.population_average(&studies, "ntal").expect("ntal").is_complete());
}
