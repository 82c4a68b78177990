//! The generated-query oracle, first slice (ROADMAP 10a and a two-row
//! 10c): every query the seeded generator writes, over all seven
//! classes, gets the reference evaluator's answer from both stored
//! codecs (`Naive`, `K3Tree`), at 16³ and 32³, with the page cache off
//! and with one that fits — and within a mode the cache changes no
//! deterministic cost field.
//! At 64³ the k³ multi-study fold gets one row of its own.
//!
//! This is the net a REGION format change lands on: the oracle never
//! touches a codec, so an answer that moved is the format's fault.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

mod support;

use qbism::{QbismConfig, QbismSystem, QueryCost};
use qbism_lfm::{CacheConfig, IoStats};
use qbism_region::RegionCodec;
use support::{generate, Oracle, Query};

/// A `QueryCost` minus its native fields (`native_db_seconds`, and
/// `sim_db_seconds`, which adds native CPU to the disk model).
fn deterministic(cost: &QueryCost) -> (IoStats, u64, u64, u64, u64, u64) {
    (
        cost.lfm,
        cost.rows_scanned,
        cost.wire_bytes,
        cost.messages,
        cost.sim_net_seconds.to_bits(),
        cost.coverage.to_bits(),
    )
}

fn check_grid(atlas_bits: u32, seed: u64) {
    let default = QbismConfig {
        atlas_bits,
        pet_studies: 5,
        mri_studies: 0,
        device_capacity: 1 << 26,
        ..QbismConfig::small_test()
    };
    let mut classes_answered = [0usize; 7];
    let modes = [
        ("default", default.clone()),
        ("k3 codec", QbismConfig { region_codec: RegionCodec::K3Tree, ..default }),
    ];
    for (mode, config) in modes {
        let mut system = QbismSystem::install(&config).expect("install");
        let oracle = Oracle::new(&system);
        let structures = system.atlas.structures().len();
        let queries = generate(seed, config.side(), structures, &system.pet_study_ids);
        // Cache off (the paper's unbuffered LFM), then one every long
        // field fits in, queried twice so the second pass is all hits.
        let mut uncached: Vec<Option<QueryCost>> = Vec::new();
        for pass in 0..3 {
            if pass == 1 {
                system.server.set_cache_config(CacheConfig {
                    capacity_pages: 4096,
                    enabled: true,
                    readahead_pages: 8,
                });
            }
            for (at, query) in queries.iter().enumerate() {
                let what = format!("{mode} {atlas_bits} bits, pass {pass}: {query:?}");
                let Some(want) = oracle.answer(query) else {
                    assert!(oracle.ask(&system.server, query).is_err(), "{what} was answered");
                    if pass == 0 {
                        uncached.push(None);
                    }
                    continue;
                };
                let (got, cost) = oracle.ask(&system.server, query).expect(&what);
                assert!(got == want, "{what} disagrees with the reference evaluator");
                if pass == 0 {
                    uncached.push(Some(cost));
                    classes_answered[class_of(query)] += 1;
                } else {
                    let cold = uncached[at].as_ref().expect("answered uncached");
                    assert_eq!(deterministic(&cost), deterministic(cold), "{what}");
                }
            }
        }
        assert!(system.server.cache_stats().hits > 0, "{mode}: the cached passes never hit");
    }
    assert!(classes_answered.iter().all(|&n| n >= 10), "thin class: {classes_answered:?}");
}

fn class_of(query: &Query) -> usize {
    match query {
        Query::FullStudy { .. } => 0,
        Query::Box { .. } => 1,
        Query::Structure { .. } => 2,
        Query::Band { .. } => 3,
        Query::BandInStructure { .. } => 4,
        Query::MultiStudyBand { .. } => 5,
        Query::PopulationAverage { .. } => 6,
    }
}

#[test]
fn every_generated_query_gets_the_reference_answer_at_16() {
    check_grid(4, 0x16);
}

#[test]
fn every_generated_query_gets_the_reference_answer_at_32() {
    check_grid(5, 0x32);
}

/// The 64³ row, k³ REGIONs: the first grid whose k³
/// directories have a second level (16³ is one leaf, 32³ one node over
/// leaves), so the fold's synchronized descent meets FULL codes, pruned
/// subtrees and masked leaves.  Every stored band, folded over two to
/// five studies, gets the reference evaluator's answer.
#[test]
fn every_multi_study_band_gets_the_reference_answer_at_64_compressed() {
    let config = QbismConfig {
        atlas_bits: 6,
        pet_studies: 5,
        mri_studies: 0,
        region_codec: RegionCodec::K3Tree,
        ..QbismConfig::paper_scale()
    };
    let system = QbismSystem::install(&config).expect("install");
    let oracle = Oracle::new(&system);
    let studies = &system.pet_study_ids;
    let mut masked = 0;
    for lo in (0..=255u8).step_by(usize::from(support::BAND_WIDTH)) {
        for width in 2..=studies.len() {
            let query = Query::MultiStudyBand { studies: studies[..width].to_vec(), lo };
            let want = oracle.answer(&query).expect("a fold always has an answer");
            let (got, _) = oracle.ask(&system.server, &query).expect("fold");
            assert!(got == want, "{query:?} disagrees with the reference evaluator");
            let root = qbism_obs::trace::last_root().expect("the fold's span tree");
            if let Some(qbism_obs::trace::FieldValue::U64(leaves)) = root.field("leaves_masked") {
                masked += leaves;
            }
        }
    }
    assert!(masked > 0, "no fold reached the descent's leaf kernel");
}

#[test]
fn the_generator_is_seeded_and_covers_the_edge_cases() {
    let studies = [1, 2, 3, 4, 5];
    let queries = generate(7, 16, 11, &studies);
    assert_eq!(queries, generate(7, 16, 11, &studies));
    assert_ne!(queries, generate(8, 16, 11, &studies));
    let boxes = |want: fn(&[u32; 3], &[u32; 3]) -> bool| {
        queries.iter().any(|q| matches!(q, Query::Box { min, max, .. } if want(min, max)))
    };
    assert!(boxes(|min, max| min[0] > max[0]), "an inverted box");
    assert!(boxes(|_, max| max[2] == 16), "a box leaving the grid");
    assert!(boxes(|min, max| min == max), "a single voxel");
    assert!(boxes(|min, max| *min == [0; 3] && *max == [15; 3]), "the full grid");
    for width in 1..=5 {
        let folds = |q: &Query| matches!(q, Query::MultiStudyBand { studies, .. } if studies.len() == width);
        assert!(queries.iter().any(folds), "a {width}-study fold");
    }
}
