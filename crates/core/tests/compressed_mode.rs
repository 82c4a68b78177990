//! k³ (compressed) REGION storage, end to end.
//!
//! Three pins:
//!
//! 1. **Phantom-derived equivalence** — the run kernels produce over
//!    k³ cursors exactly what they produce over the decoded run lists
//!    on *real* atlas anatomy (the phantom's rasterized structures),
//!    not just random id soup, at the paper's 64³ and 128³ scales.
//! 2. **Codec equivalence** — a system installed with
//!    `region_codec: K3Tree` answers every query class identically to
//!    the naive installation while, at 64³, persisting at least 3×
//!    fewer REGION bytes and reading at least 1.5× fewer pages on the
//!    region-only multi-study fold (no more pages on any other class);
//!    the naive installation's storage layout is untouched (every
//!    REGION long field still holds the paper codec).
//! 3. **Mismatched grids** — operands on different grids are the same
//!    typed error with both codecs, from every binary UDF and from the
//!    multi-study fold; neither panics.

#![allow(clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use qbism::server::fold_band_regions;
use qbism::{QbismConfig, QbismSystem};
use qbism::{QbismError, StoredRegion};
use qbism_coding::K3Cursor;
use qbism_phantom::build_atlas;
use qbism_region::{compressed_cursor, kernel, open_k3, GridGeometry, Region};
use qbism_region::{RegionCodec, RegionEncodeError};
use qbism_sfc::CurveKind;
use qbism_starburst::{Database, DbError, Value};
use std::sync::Arc;

fn open(bytes: &[u8]) -> K3Cursor<'_> {
    compressed_cursor(bytes).expect("open cursor").1
}

fn encode_k3(region: &Region) -> Result<Vec<u8>, RegionEncodeError> {
    RegionCodec::K3Tree.encode(region)
}

/// `config` with its REGIONs stored k³-coded.
fn k3(config: QbismConfig) -> QbismConfig {
    QbismConfig { region_codec: RegionCodec::K3Tree, ..config }
}

#[test]
fn compressed_kernels_match_on_phantom_anatomy() {
    let geom = GridGeometry::new(CurveKind::Hilbert, 3, 6);
    let atlas = build_atlas(geom);
    let regions: Vec<&Region> = atlas.structures().iter().map(|s| &s.region).collect();
    assert!(regions.len() >= 3, "phantom should have several structures");
    for a in &regions {
        for b in &regions {
            let ab = encode_k3(a).expect("encode a");
            let bb = encode_k3(b).expect("encode b");
            let got = kernel::intersect(&mut open(&ab), &mut open(&bb)).expect("intersect");
            assert_eq!(got, a.intersect(b).runs());
            let got = kernel::union(&mut open(&ab), &mut open(&bb)).expect("union");
            assert_eq!(got, a.union(b).runs());
            let got = kernel::difference(&mut open(&ab), &mut open(&bb)).expect("difference");
            assert_eq!(got, a.difference(b).runs());
        }
    }
}

#[test]
fn compressed_kernels_match_on_phantom_anatomy_at_paper_scale() {
    // One pair at the full 128³ grid keeps debug runtime bounded while
    // still exercising deep octrees.
    let geom = GridGeometry::new(CurveKind::Hilbert, 3, 7);
    let atlas = build_atlas(geom);
    let a = &atlas.structures()[0].region;
    let b = &atlas.structures()[1].region;
    let ab = encode_k3(a).expect("encode a");
    let bb = encode_k3(b).expect("encode b");
    assert!(
        ab.len() * 2 < RegionCodec::Naive.encode(a).expect("naive").len(),
        "queryable codec should at least halve the paper's naive encoding"
    );
    let got = kernel::intersect(&mut open(&ab), &mut open(&bb)).expect("intersect");
    assert_eq!(got, a.intersect(b).runs());
}

/// Collects every stored REGION long field (atlas structures + bands)
/// as raw bytes.
fn region_fields(system: &mut QbismSystem) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let db = system.server.database();
    for sql in ["select ast.region from atlasStructure ast", "select b.region from intensityBand b"]
    {
        let rs = db.query(sql).expect("region query");
        for row in rs.rows() {
            match &row[0] {
                Value::Long(id) => out.push(db.read_long_field(*id).expect("read field")),
                other => panic!("region column is not a long field: {other}"),
            }
        }
    }
    out
}

#[test]
fn compressed_mode_matches_default_answers_with_smaller_tablespace() {
    // 64³ with the paper's five PET studies: the scale the count
    // floors below are stated at.
    let default_cfg = QbismConfig { atlas_bits: 6, mri_studies: 0, ..QbismConfig::paper_scale() };
    let compressed_cfg = k3(default_cfg.clone());
    let mut plain = QbismSystem::install(&default_cfg).expect("install default");
    let mut packed = QbismSystem::install(&compressed_cfg).expect("install compressed");
    let study = plain.pet_study_ids[0];
    assert_eq!(plain.pet_study_ids, packed.pet_study_ids);

    // EQ1: full study (volume-only; the REGION codec must not perturb
    // it at all).
    let a = plain.server.full_study(study).expect("default full_study");
    let b = packed.server.full_study(study).expect("compressed full_study");
    assert_eq!(a.data, b.data);
    assert_eq!(a.cost.lfm.pages_read, b.cost.lfm.pages_read);

    // EQ2: band query — the band REGION now comes off compressed pages.
    let a = plain.server.band_data(study, 32, 63).expect("default band");
    let b = packed.server.band_data(study, 32, 63).expect("compressed band");
    assert_eq!(a.data, b.data);
    assert!(b.cost.lfm.pages_read <= a.cost.lfm.pages_read);

    // Mixed query: band ∩ structure, intersected inside the DBMS — in
    // k³ mode both operands come off k³ pages, and the merge runs over
    // their decoded runs.
    let a = plain.server.band_in_structure(study, 64, 95, "thalamus").expect("default mixed");
    let b = packed.server.band_in_structure(study, 64, 95, "thalamus").expect("compressed mixed");
    assert_eq!(a.data, b.data);
    assert!(b.cost.lfm.pages_read <= a.cost.lfm.pages_read);

    // Table 4's multi-study fold reads REGION pages only: k-way
    // intersect over compressed streams must produce the identical
    // REGION for at least 1.5× fewer pages (21 → 10).  The k³ count is
    // pinned: the codec's bytes are a format, and a change that moves
    // them must say so here.
    let ids = plain.pet_study_ids.clone();
    let (ra, ca) = plain.server.multi_study_band_region(&ids, 32, 63).expect("default multi");
    let (rb, cb) = packed.server.multi_study_band_region(&ids, 32, 63).expect("compressed multi");
    assert_eq!(ra, rb);
    assert!(
        2 * ca.lfm.pages_read >= 3 * cb.lfm.pages_read,
        "compressed fold must read >= 1.5x fewer pages: {} vs {}",
        cb.lfm.pages_read,
        ca.lfm.pages_read
    );
    assert_eq!(cb.lfm.pages_read, 10, "compressed fold pages drifted");

    // k³ storage is at least 3× smaller on device (567,046 → exactly
    // 148,600 bytes), and its fields actually hold the k³ layout; the
    // naive installation is untouched (paper codec, nothing k³).
    let plain_fields = region_fields(&mut plain);
    let packed_fields = region_fields(&mut packed);
    assert_eq!(plain_fields.len(), packed_fields.len());
    let plain_bytes: usize = plain_fields.iter().map(Vec::len).sum();
    let packed_bytes: usize = packed_fields.iter().map(Vec::len).sum();
    assert!(
        plain_bytes >= 3 * packed_bytes,
        "k³ storage must be >= 3x smaller: {packed_bytes} vs {plain_bytes}"
    );
    assert_eq!(packed_bytes, 148_600, "compressed REGION bytes drifted");
    assert!(plain_fields.iter().all(|f| matches!(open_k3(f), Ok(None))));
    assert!(packed_fields.iter().all(|f| matches!(open_k3(f), Ok(Some(_)))));

    // And the decoded REGIONs are bit-identical across modes.
    for (p, c) in plain_fields.iter().zip(&packed_fields) {
        assert_eq!(
            qbism_region::RegionCodec::decode(p).expect("decode default"),
            qbism_region::RegionCodec::decode(c).expect("decode compressed"),
        );
    }
}

#[test]
fn compressed_mode_counts_skips_and_compressed_pages() {
    let cfg = k3(QbismConfig::medium());
    let system = QbismSystem::install(&cfg).expect("install compressed");
    let reg = qbism_obs::global();
    let pages = reg.counter("qbism_lfm_compressed_pages_read_total");
    let before_pages = pages.get();
    let ids = system.pet_study_ids.clone();
    system.server.multi_study_band_region(&ids, 32, 63).expect("multi");
    system.server.band_data(ids[0], 0, 31).expect("band");
    assert!(pages.get() > before_pages, "compressed reads must be metered");
}

/// How one codec encodes its REGION long fields.
type Encode = fn(&Region) -> Result<Vec<u8>, RegionEncodeError>;

#[test]
fn mismatched_grids_are_the_same_typed_error_in_both_modes() {
    let modes: [Encode; 2] = [|r| RegionCodec::Naive.encode(r), encode_k3];
    for encode in modes {
        // REGIONs on an 8³ and a 16³ grid.
        let [r8, r16] = [3, 4].map(|bits| {
            let geom = GridGeometry::new(CurveKind::Hilbert, 3, bits);
            encode(&Region::from_box(geom, [1, 1, 1], [5, 6, 7]).expect("box")).expect("encode")
        });
        let mut db = Database::new(1 << 20).expect("database");
        let grid = GridGeometry::new(CurveKind::Hilbert, 3, 3);
        qbism::ops::register_spatial_ops(&mut db, grid);
        db.execute("create table t (r1 long, r2 long)").expect("create");
        let row = vec![
            db.create_long_field(&r8).expect("store r1"),
            db.create_long_field(&r16).expect("store r2"),
        ];
        db.insert_row("t", row).expect("insert");
        for udf in ["intersection", "runion", "rdifference", "contains"] {
            match db.query(&format!("select {udf}(t.r1, t.r2) from t")) {
                Err(DbError::Exec(msg)) => {
                    assert!(msg.contains(udf) && msg.contains("mismatched grids"), "{msg}")
                }
                other => panic!("{udf} across grids: expected an Exec error, got {other:?}"),
            }
        }
        let bands = [r8, r16].map(|bytes| Arc::new(StoredRegion::decode(bytes).expect("open").0));
        match fold_band_regions(&bands, RegionCodec::Naive) {
            Err(QbismError::Wire(msg)) => assert!(msg.contains("mismatched grids"), "{msg}"),
            other => panic!("fold across grids: expected a Wire error, got {:?}", other.err()),
        }
    }
}
