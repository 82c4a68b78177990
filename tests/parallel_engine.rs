//! The concurrent query engine: a shared-read `MedicalServer` that any
//! number of client threads query at once, and the LFM page cache.
//!
//! The contracts under test:
//!
//! * **Thread-count determinism** — multi-study answers and every
//!   deterministic [`qbism::QueryCost`] field are bit-identical at any
//!   number of client threads (wall-clock fields are, of course, not
//!   compared).
//! * **Cache transparency** — enabling the LFM page cache changes no
//!   answer and no *logical* I/O count; only [`qbism::MedicalServer::
//!   cache_stats`] sees the pool absorb repeat reads.
//! * **Concurrent integrity** — many client threads hammering one
//!   shared server (including under an armed fault plane) get exactly
//!   the answers and per-query costs a sequential client gets; faults
//!   surface as typed errors, never as panics or torn answers.

#![allow(clippy::unwrap_used)]

use qbism::{QbismConfig, QbismSystem};
use qbism_fault::{FaultOutcome, FaultPlane, Trigger};
use qbism_lfm::CacheConfig;
use qbism_region::RegionCodec;
use std::sync::Arc;

fn system() -> QbismSystem {
    QbismSystem::install(&QbismConfig::small_test()).unwrap()
}

/// A slightly wider installation so a multi-study query folds five PET
/// studies instead of two.
fn five_study_system() -> QbismSystem {
    let config = QbismConfig { pet_studies: 5, ..QbismConfig::small_test() };
    QbismSystem::install(&config).unwrap()
}

/// The deterministic QueryCost fields (everything but wall-clock time).
fn deterministic_cost(c: &qbism::QueryCost) -> (qbism_lfm::IoStats, u64, u64, u64, f64, f64) {
    (c.lfm, c.rows_scanned, c.wire_bytes, c.messages, c.sim_net_seconds, c.coverage)
}

#[test]
fn multi_study_queries_are_identical_at_any_thread_count() {
    let config = QbismConfig { pet_studies: 5, ..QbismConfig::small_test() };
    let k3 = QbismConfig { region_codec: RegionCodec::K3Tree, ..config.clone() };
    for config in [config, k3] {
        let sys = QbismSystem::install(&config).unwrap();
        let (server, studies) = (&sys.server, &sys.pet_study_ids);
        let pop_ref = server.population_average(studies, "ntal").unwrap();
        let (band_ref, band_cost_ref) = server.multi_study_band_region(studies, 32, 63).unwrap();

        for clients in [2, 8] {
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| {
                        let pop = server.population_average(studies, "ntal").unwrap();
                        assert_eq!(pop.data, pop_ref.data, "answer diverged at {clients} clients");
                        assert!(pop.is_complete());
                        assert_eq!(
                            deterministic_cost(&pop.cost),
                            deterministic_cost(&pop_ref.cost),
                            "population cost diverged at {clients} clients"
                        );

                        let (band, band_cost) =
                            server.multi_study_band_region(studies, 32, 63).unwrap();
                        assert_eq!(band, band_ref, "band region diverged at {clients} clients");
                        assert_eq!(
                            deterministic_cost(&band_cost),
                            deterministic_cost(&band_cost_ref),
                            "band cost diverged at {clients} clients"
                        );
                    });
                }
            });
        }
    }
}

#[test]
fn fan_out_errors_pick_the_first_study_in_study_order() {
    let sys = system();
    // Study 99 never exists; the multi-study intersection must fail,
    // and the population aggregate must degrade around it.
    let err = sys.server.multi_study_band_region(&[99, 1], 32, 63).unwrap_err();
    assert!(matches!(err, qbism::QbismError::NotFound(_)), "{err}");
    let pop = sys.server.population_average(&[1, 99, 2], "ntal").unwrap();
    assert_eq!(pop.skipped.len(), 1);
    assert_eq!(pop.skipped[0].0, 99);
    assert!((pop.cost.coverage - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn cache_changes_no_answer_and_no_logical_io() {
    let config = QbismConfig::small_test();
    let k3 = QbismConfig { region_codec: RegionCodec::K3Tree, ..config.clone() };
    for config in [config, k3] {
        let mut sys = QbismSystem::install(&config).unwrap();
        let cold = sys.server.full_study(1).unwrap();
        let structure_cold = sys.server.structure_data(1, "ntal").unwrap();
        assert!(!sys.server.cache_config().enabled, "paper fidelity: cache off by default");
        assert_eq!(sys.server.cache_stats().hits, 0);

        sys.server.set_cache_config(CacheConfig {
            capacity_pages: 64,
            enabled: true,
            readahead_pages: 4,
        });
        let warm1 = sys.server.full_study(1).unwrap();
        let warm2 = sys.server.full_study(1).unwrap();
        let structure_warm = sys.server.structure_data(1, "ntal").unwrap();

        // Same bytes, same *logical* I/O accounting — the cache may change
        // when the device is touched, never what the tables report.
        assert_eq!(warm1.data, cold.data);
        assert_eq!(warm2.data, cold.data);
        assert_eq!(structure_warm.data, structure_cold.data);
        assert_eq!(warm1.cost.lfm, cold.cost.lfm);
        assert_eq!(warm2.cost.lfm, cold.cost.lfm);
        assert_eq!(structure_warm.cost.lfm, structure_cold.cost.lfm);
        assert_eq!(warm1.cost.wire_bytes, cold.cost.wire_bytes);

        // The pool itself saw the reuse: the second EQ1 run re-reads pages
        // the first one faulted in.
        let stats = sys.server.cache_stats();
        assert!(stats.hits > 0, "second EQ1 run should hit the cache: {stats:?}");

        // Disabling restores the unbuffered LFM.
        sys.server.set_cache_config(CacheConfig::default());
        let off = sys.server.full_study(1).unwrap();
        assert_eq!(off.data, cold.data);
        assert_eq!(sys.server.cache_stats().hits, stats.hits, "disabled pool takes no lookups");
    }
}

#[test]
fn concurrent_clients_get_sequential_answers_and_costs() {
    let sys = system();
    let server = &sys.server;

    // Sequential references, one per query class used below.
    let full = server.full_study(1).unwrap();
    let structure = server.structure_data(1, "ntal").unwrap();
    let band = server.band_data(2, 32, 63).unwrap();
    let pop = server.population_average(&[1, 2], "ntal").unwrap();

    // Every round starts on all workers at once, so their queries
    // overlap instead of finishing before the next thread starts.  A
    // failed round still meets the others at the next barrier, then
    // fails its worker once every round has run, rather than leaving
    // the rest waiting for it.
    const WORKERS: usize = 8;
    let round_start = std::sync::Barrier::new(WORKERS);
    let query = |worker: usize, round: usize| match (worker + round) % 4 {
        0 => {
            let a = server.full_study(1).unwrap();
            assert_eq!(a.data, full.data);
            // Per-query accounting must not leak across threads: the
            // bracket sees only this query.
            assert_eq!(a.cost.lfm, full.cost.lfm);
            assert_eq!(a.cost.wire_bytes, full.cost.wire_bytes);
        }
        1 => {
            let a = server.structure_data(1, "ntal").unwrap();
            assert_eq!(a.data, structure.data);
            assert_eq!(a.cost.lfm, structure.cost.lfm);
        }
        2 => {
            let a = server.band_data(2, 32, 63).unwrap();
            assert_eq!(a.data, band.data);
            assert_eq!(a.cost.lfm, band.cost.lfm);
        }
        _ => {
            let a = server.population_average(&[1, 2], "ntal").unwrap();
            assert_eq!(a.data, pop.data);
            assert_eq!(a.cost.lfm, pop.cost.lfm);
            assert_eq!(a.cost.coverage, 1.0);
        }
    };
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let (query, round_start) = (&query, &round_start);
            scope.spawn(move || {
                let mut failed = None;
                for round in 0..10 {
                    round_start.wait();
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        query(worker, round);
                    }));
                    failed = failed.or(outcome.err());
                }
                if let Some(panic) = failed {
                    std::panic::resume_unwind(panic);
                }
            });
        }
    });
}

#[test]
fn concurrent_stress_under_faults_never_tears_an_answer() {
    let mut sys = system();
    // Cache on during the storm: eviction, invalidation and pinning all
    // run under contention too.
    sys.server.set_cache_config(CacheConfig {
        capacity_pages: 16,
        enabled: true,
        readahead_pages: 2,
    });
    let server = &sys.server;

    let full = server.full_study(1).unwrap();
    let structure = server.structure_data(2, "ntal").unwrap();

    // A mean schedule: 2 % of device reads error out, independently per
    // injection site draw.  Each client arms the shared plane itself —
    // fault planes are thread-local by design.
    let plane =
        Arc::new(FaultPlane::new(0xC0FFEE).with_probability("lfm.read", 0.02, FaultOutcome::Error));

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let plane = Arc::clone(&plane);
            let full = &full;
            let structure = &structure;
            scope.spawn(move || {
                let _scope = plane.arm_shared();
                for round in 0..15 {
                    if (worker + round) % 2 == 0 {
                        match server.full_study(1) {
                            // Answers are whole or absent — never torn.
                            Ok(a) => assert_eq!(a.data, full.data),
                            Err(e) => {
                                assert!(matches!(e, qbism::QbismError::Db(_)), "unexpected: {e}")
                            }
                        }
                    } else {
                        match server.structure_data(2, "ntal") {
                            Ok(a) => assert_eq!(a.data, structure.data),
                            Err(e) => {
                                assert!(matches!(e, qbism::QbismError::Db(_)), "unexpected: {e}")
                            }
                        }
                    }
                }
            });
        }
    });
    assert!(plane.ops_seen() > 0, "the plane saw the storm");

    // The server is intact afterwards: clean queries succeed unfaulted.
    let after = sys.server.full_study(1).unwrap();
    assert_eq!(after.data, full.data);
    assert_eq!(after.cost.lfm, full.cost.lfm);
}

/// A multi-study query's per-study stages run under the fault plane its
/// caller armed: with every device read failing, no study survives.
#[test]
fn multi_study_stages_run_under_the_callers_fault_plane() {
    let sys = five_study_system();
    let studies: Vec<i64> = sys.pet_study_ids.clone();
    let scope =
        FaultPlane::new(5).rule("lfm.read", Trigger::Probability(1.0), FaultOutcome::Error).arm();
    let result = sys.server.population_average(&studies, "ntal");
    let injected = scope.plane().faults_injected();
    drop(scope);
    assert!(result.is_err(), "with every read failing, no study survives");
    assert_eq!(injected, studies.len() as u64, "one failed read a study");
    // And cleanly afterwards.
    assert!(sys.server.population_average(&studies, "ntal").unwrap().is_complete());
}
