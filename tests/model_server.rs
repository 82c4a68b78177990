//! The shared-read `MedicalServer` under the deterministic scheduler.
//!
//! These are random-sweep model runs (not exhaustive — a full query
//! crosses hundreds of facade operations, so bounded DFS would be
//! astronomically deep).  The system is installed once and shared
//! across explored executions: every query below takes `&self`, which
//! is exactly the shared-read contract concurrent clients rely on.

#![allow(clippy::unwrap_used)]

use qbism::{QbismConfig, QbismSystem};
use qbism_lfm::CacheConfig;
use std::sync::OnceLock;

fn system() -> &'static QbismSystem {
    static SYS: OnceLock<QbismSystem> = OnceLock::new();
    SYS.get_or_init(|| {
        let mut sys = QbismSystem::install(&QbismConfig::small_test()).unwrap();
        // Cache on so the model walks the clock-sweep path too.
        sys.server.set_cache_config(CacheConfig {
            capacity_pages: 32,
            enabled: true,
            readahead_pages: 2,
        });
        sys
    })
}

#[test]
fn model_two_clients_share_one_server() {
    let sys = system();
    qbism_check::Checker::random(0x5E_4E41, 8).check(|| {
        qbism_check::thread::scope(|s| {
            s.spawn(|| {
                let a = sys.server.full_study(1).unwrap();
                assert_eq!(a.voxel_count(), 4096, "EQ1 torn by a concurrent client");
            });
            s.spawn(|| {
                let b = sys.server.band_data(1, 32, 63).unwrap();
                assert!(b.voxel_count() <= 4096);
                for &v in b.data.values() {
                    assert!((32..=63).contains(&v), "band answer leaked out-of-band voxel");
                }
            });
        });
    });
}

/// Two clients folding the same studies at once each get the answer
/// and the logical cost a lone client gets.
#[test]
fn model_two_clients_fold_the_sequential_answer() {
    let sys = system();
    let studies: Vec<i64> = sys.pet_study_ids.clone();
    let (reference, reference_cost) = sys.server.multi_study_band_region(&studies, 32, 63).unwrap();
    qbism_check::Checker::random(0xFA_4007, 6).check(|| {
        qbism_check::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let (region, cost) =
                        sys.server.multi_study_band_region(&studies, 32, 63).unwrap();
                    assert_eq!(region, reference, "fold answer diverged under a model schedule");
                    assert_eq!(cost.lfm, reference_cost.lfm, "fold cost leaked across clients");
                    assert_eq!(cost.rows_scanned, reference_cost.rows_scanned);
                });
            }
        });
    });
}
