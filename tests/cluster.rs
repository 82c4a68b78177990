//! The sharded warehouse's robustness contract, end to end:
//!
//! * answers and every deterministic [`QueryCost`] column are
//!   byte-identical to the single-node server at shard counts
//!   {1, 2, 4, 8} with naive REGIONs and (to 4 shards) with
//!   `region_codec: K3Tree`;
//! * killing any single replica at an arbitrary injection point
//!   mid-`population_average` (a fault-plane sweep over kill sites,
//!   device faults, and answer-leg timeouts) leaves answers and
//!   deterministic columns byte-identical to the fault-free run;
//! * losing *all* k replicas of a study degrades to typed per-study
//!   `skipped` entries, and only a total loss errors;
//! * a study the warehouse did not load is a typed `UnknownStudy` that
//!   reaches no shard;
//! * router claim/merge and racing shard-kill transitions are model
//!   checked on the `qbism-check` scheduler;
//! * kill, failover and fault events land inside the owning trace;
//! * the multi-study fold's work counts are the same through the router
//!   as on the single-node server, with the cache off and on.
//!
//! The obs rings and the fault plane are process-global/thread-local,
//! so these tests serialize on one lock, like `tests/observability.rs`.

#![allow(clippy::expect_used)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use qbism::{QbismConfig, QbismSystem, QueryCost};
use qbism_cluster::{ClusterError, ClusterWarehouse};
use qbism_fault::{sites, FaultOutcome, FaultPlane, Trigger};
use qbism_lfm::IoStats;
use qbism_region::RegionCodec;

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> QbismConfig {
    QbismConfig { pet_studies: 5, ..QbismConfig::small_test() }
}

/// `config` with its REGIONs stored k³-coded.
fn k3(config: QbismConfig) -> QbismConfig {
    QbismConfig { region_codec: RegionCodec::K3Tree, ..config }
}

/// The deterministic tablegen columns of a cost: logical LFM I/O, rows
/// scanned, wire bytes, messages, simulated network seconds, coverage.
/// (`native_db_seconds`/`sim_db_seconds` carry wall-clock components.)
fn det(cost: &QueryCost) -> (IoStats, u64, u64, u64, u64, u64) {
    (
        cost.lfm,
        cost.rows_scanned,
        cost.wire_bytes,
        cost.messages,
        cost.sim_net_seconds.to_bits(),
        cost.coverage.to_bits(),
    )
}

#[test]
fn answers_and_costs_byte_identical_at_every_shard_count() {
    let _g = serialize();
    // k³ REGIONs fold by directory descent and size the gathered band
    // answer as k³, so they are a second case of the same contract.
    shard_counts_match_the_reference(&config(), &[1, 2, 4, 8]);
    shard_counts_match_the_reference(&k3(config()), &[1, 2, 4]);
}

fn shard_counts_match_the_reference(config: &QbismConfig, shard_counts: &[usize]) {
    let reference = QbismSystem::install(config).expect("single-node install");
    let studies: Vec<i64> = reference.pet_study_ids.clone();
    let pop_ref = reference.server.population_average(&studies, "ntal").expect("reference pop");
    let (band_ref_region, band_ref_cost) =
        reference.server.multi_study_band_region(&studies, 32, 63).expect("reference band");
    assert!(pop_ref.is_complete());

    for &shard_count in shard_counts {
        let warehouse =
            ClusterWarehouse::install(config, shard_count, 2).expect("warehouse install");
        let pop =
            warehouse.population_average(&studies, "ntal").expect("sharded population answers");
        assert!(pop.is_complete());
        assert_eq!(
            pop.data.region(),
            pop_ref.data.region(),
            "population region diverged at {shard_count} shards"
        );
        assert_eq!(
            pop.data.values(),
            pop_ref.data.values(),
            "population voxels diverged at {shard_count} shards"
        );
        assert_eq!(
            det(&pop.cost),
            det(&pop_ref.cost),
            "population cost columns diverged at {shard_count} shards"
        );

        let (band_region, band_cost) =
            warehouse.multi_study_band_region(&studies, 32, 63).expect("sharded band answers");
        assert_eq!(band_region, band_ref_region, "band region diverged at {shard_count} shards");
        assert_eq!(
            det(&band_cost),
            det(&band_ref_cost),
            "band cost columns diverged at {shard_count} shards"
        );
        // The answer legs carried real (per-shard) traffic, but none of
        // it reached QueryCost: the client channel shipped one answer
        // per query, exactly like the single-node server.
        assert!(warehouse.total_shard_net_stats().answers >= 4);
    }
}

#[test]
fn any_single_replica_fault_mid_query_stays_exact() {
    let _g = serialize();
    let config = config();
    // 4 shards spread the replica pairs; 2 × 2 (the shape the
    // `clients-2-64` benchmark workload measures) puts every study on
    // both shards, so each kill leaves exactly one server for everything.
    let shapes = [4, 2]
        .into_iter()
        .flat_map(|shards| [config.clone(), k3(config.clone())].map(|c| (shards, c)));
    for (shards, config) in shapes {
        let warehouse = ClusterWarehouse::install(&config, shards, 2).expect("warehouse install");
        let studies: Vec<i64> = warehouse.studies().to_vec();
        let baseline = warehouse.population_average(&studies, "ntal").expect("fault-free baseline");
        let baseline_det = det(&baseline.cost);

        // Sweep 1: kill the serving shard at the n-th kill-site pass — the
        // sub-query in flight reroutes to the study's replica.
        for n in 1..=studies.len() as u64 {
            let scope = FaultPlane::new(0xC1)
                .rule(sites::CLUSTER_SHARD_KILL, Trigger::Nth(n), FaultOutcome::Error)
                .arm();
            let answer = warehouse.population_average(&studies, "ntal").expect("survives kill");
            let injected = scope.plane().injected_log();
            drop(scope);
            assert_eq!(injected.len(), 1, "kill {n} fired exactly once");
            assert!(answer.is_complete(), "kill {n}: no study may be lost");
            assert_eq!(answer.data.values(), baseline.data.values(), "kill {n} changed the answer");
            assert_eq!(det(&answer.cost), baseline_det, "kill {n} changed a deterministic column");
            warehouse.revive_all();
        }
        let stats = warehouse.recovery_stats();
        assert_eq!(stats.shard_kills, studies.len() as u64);
        assert!(stats.failovers >= studies.len() as u64, "every kill forced a failover");
        let failovers_after_kills = stats.failovers;

        // Sweep 2: fail the n-th device read on whichever shard performs
        // it — the stage errors, charges nothing, and the replica re-reads
        // the same bytes for the same cost.
        for n in [1u64, 2, 3, 5, 8, 13] {
            let scope =
                FaultPlane::new(0xD2).rule("lfm.read", Trigger::Nth(n), FaultOutcome::Error).arm();
            let answer =
                warehouse.population_average(&studies, "ntal").expect("survives read fault");
            drop(scope);
            assert!(answer.is_complete(), "read fault {n}: no study may be lost");
            assert_eq!(answer.data.values(), baseline.data.values());
            assert_eq!(det(&answer.cost), baseline_det, "read fault {n} changed a column");
            warehouse.revive_all();
        }
        let stats = warehouse.recovery_stats();
        assert!(stats.failovers > failovers_after_kills, "device faults also forced failovers");

        // Sweep 3: drop the first answer leg's message on every retry —
        // the per-shard channel times out after its bounded budget and the
        // router reroutes; the timed-out leg never touches QueryCost.
        // Legs go out one after another, so the drops all land on the
        // first one.
        let attempts = u64::from(qbism_netsim::RetryPolicy::default().max_attempts);
        let mut drop_plane = FaultPlane::new(0xE3);
        for i in 1..=attempts {
            drop_plane =
                drop_plane.rule(sites::CLUSTER_ROUTE_DROP, Trigger::Nth(i), FaultOutcome::Drop);
        }
        let scope = drop_plane.arm();
        let answer = warehouse.population_average(&studies, "ntal").expect("survives leg timeout");
        drop(scope);
        assert!(answer.is_complete());
        assert_eq!(answer.data.values(), baseline.data.values());
        assert_eq!(det(&answer.cost), baseline_det, "leg timeout changed a deterministic column");
        assert_eq!(warehouse.recovery_stats().route_drops, 1, "exactly one leg timed out");

        // And the band query class under a kill, for the same contract.
        let (band_base, band_cost) =
            warehouse.multi_study_band_region(&studies, 32, 63).expect("band baseline");
        let scope = FaultPlane::new(0xF4)
            .rule(sites::CLUSTER_SHARD_KILL, Trigger::Nth(2), FaultOutcome::Error)
            .arm();
        let (band_faulted, band_faulted_cost) =
            warehouse.multi_study_band_region(&studies, 32, 63).expect("band survives kill");
        drop(scope);
        assert_eq!(band_faulted, band_base);
        assert_eq!(det(&band_faulted_cost), det(&band_cost));
        warehouse.revive_all();
    }
}

#[test]
fn losing_every_replica_degrades_to_typed_skips() {
    let _g = serialize();
    let config = config();
    let warehouse = ClusterWarehouse::install(&config, 4, 2).expect("warehouse install");
    let studies: Vec<i64> = warehouse.studies().to_vec();
    let victim = studies[0];
    let owners: Vec<u64> = warehouse.replicas(victim);
    assert_eq!(owners.len(), 2);
    for &shard in &owners {
        assert!(warehouse.kill_shard(shard));
    }
    // Killing two shards may strand other studies whose replica sets
    // are the same pair — compute the expected loss set from the
    // replica ring rather than assuming only the victim.
    let lost: Vec<i64> = studies
        .iter()
        .copied()
        .filter(|&s| warehouse.replicas(s).iter().all(|o| owners.contains(o)))
        .collect();
    assert!(lost.contains(&victim));

    if lost.len() == studies.len() {
        let err = warehouse.population_average(&studies, "ntal").expect_err("total loss errors");
        assert!(matches!(err, ClusterError::ShardsUnavailable { .. }));
        return;
    }
    let answer = warehouse.population_average(&studies, "ntal").expect("degrades, not dies");
    let skipped_ids: Vec<i64> = answer.skipped.iter().map(|(id, _)| *id).collect();
    assert_eq!(skipped_ids, lost, "exactly the stranded studies are skipped");
    for (study, error) in &answer.skipped {
        match error {
            ClusterError::ShardsUnavailable { study: s, replicas, .. } => {
                assert_eq!(s, study);
                assert_eq!(*replicas, 2, "both replicas were tried");
            }
            other => panic!("study {study} skipped with untyped error: {other}"),
        }
    }
    let expected_coverage = (studies.len() - lost.len()) as f64 / studies.len() as f64;
    assert_eq!(answer.cost.coverage.to_bits(), expected_coverage.to_bits());

    // The all-or-nothing band class fails on the first stranded study
    // in study order, with the same typed error.
    let err =
        warehouse.multi_study_band_region(&studies, 32, 63).expect_err("band needs every study");
    match err {
        ClusterError::ShardsUnavailable { study, replicas, .. } => {
            assert_eq!(study, lost[0], "first stranded study in study order decides");
            assert_eq!(replicas, 2);
        }
        other => panic!("band error untyped: {other}"),
    }

    // Total loss: down everything, the aggregate returns the typed
    // error instead of an empty answer.
    for &s in &studies {
        for o in warehouse.replicas(s) {
            warehouse.kill_shard(o);
        }
    }
    let err = warehouse.population_average(&studies, "ntal").expect_err("nothing left to serve");
    assert!(matches!(err, ClusterError::ShardsUnavailable { .. }));
}

#[test]
fn unknown_study_reaches_no_shard() {
    let _g = serialize();
    let warehouse = ClusterWarehouse::install(&config(), 2, 2).expect("warehouse install");
    let unknown = warehouse.studies().iter().max().expect("loaded studies") + 1;
    assert!(warehouse.replicas(unknown).is_empty());
    let scope = FaultPlane::observer().arm();
    let pop = warehouse.population_average(&[unknown], "ntal").expect_err("unknown study");
    let band = warehouse.multi_study_band_region(&[unknown], 32, 63).expect_err("unknown study");
    let site_ops = scope.plane().site_ops();
    drop(scope);
    for err in [pop, band] {
        assert!(matches!(err, ClusterError::UnknownStudy { study } if study == unknown), "{err}");
    }
    let kill_passes = site_ops.iter().find(|(site, _)| site == sites::CLUSTER_SHARD_KILL);
    assert_eq!(kill_passes.map_or(0, |(_, n)| *n), 0, "no shard was tried");
    assert_eq!(warehouse.recovery_stats().failovers, 0);
}

#[test]
fn router_claim_and_kill_races_model_check() {
    use qbism_check::sync::{AtomicU64, Mutex as ModelMutex};
    use qbism_check::thread;
    use qbism_cluster::ShardState;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    // Two router workers race a shard kill and the claim/merge of two
    // studies.  Under every interleaving: the shard transitions down
    // exactly once, each study is claimed exactly once, and both
    // results land in their slots.
    qbism_check::model(|| {
        let state = Arc::new(ShardState::new());
        let transitions = Arc::new(AtomicU64::named("test.transitions", 0));
        let claim = Arc::new(AtomicU64::named("test.claim", 0));
        let merged = Arc::new(ModelMutex::named("test.merged", vec![None::<u64>, None]));
        thread::scope(|s| {
            for _ in 0..2 {
                let state = Arc::clone(&state);
                let transitions = Arc::clone(&transitions);
                let claim = Arc::clone(&claim);
                let merged = Arc::clone(&merged);
                s.spawn(move || {
                    // Racing kill: only one worker observes the
                    // transition and would emit the shard_down event.
                    if state.mark_down() {
                        transitions.fetch_add(1, Ordering::Relaxed);
                    }
                    // Claim/merge: take the next study, record its
                    // result in its own slot.
                    let study = claim.fetch_add(1, Ordering::Relaxed);
                    let _lane = state.enter_lane();
                    merged.lock_or_recover()[study as usize] = Some(study * 10);
                });
            }
        });
        assert_eq!(transitions.load(Ordering::Relaxed), 1, "kill transitioned exactly once");
        assert!(!state.is_healthy());
        let slots = merged.lock_or_recover().clone();
        assert_eq!(slots, vec![Some(0), Some(10)], "each study claimed and merged once");
    });
}

#[test]
fn failover_and_kill_events_land_inside_the_owning_trace() {
    let _g = serialize();
    let config = config();
    let warehouse = ClusterWarehouse::install(&config, 4, 2).expect("warehouse install");
    let studies: Vec<i64> = warehouse.studies().to_vec();
    qbism_obs::trace::clear();
    qbism_obs::event::clear();
    let scope = FaultPlane::new(7)
        .rule(sites::CLUSTER_SHARD_KILL, Trigger::Nth(1), FaultOutcome::Error)
        .arm();
    warehouse.population_average(&studies, "ntal").expect("survives the kill");
    drop(scope);
    let tree = qbism_obs::trace::recent_roots()
        .into_iter()
        .rev()
        .find(|t| t.name == "cluster.population_average")
        .expect("cluster query root retained");
    assert_ne!(tree.trace_id, 0);
    let owned = qbism_obs::event::events_for_trace(tree.trace_id);
    let has = |pred: &dyn Fn(&qbism_obs::EventKind) -> bool| owned.iter().any(|e| pred(&e.kind));
    assert!(
        has(&|k| matches!(k, qbism_obs::EventKind::FaultInjected { site, .. }
            if site == sites::CLUSTER_SHARD_KILL)),
        "kill injection attributed to the owning trace"
    );
    assert!(
        has(&|k| matches!(k, qbism_obs::EventKind::ShardDown { .. })),
        "shard_down inside the owning trace"
    );
    assert!(
        has(&|k| matches!(k, qbism_obs::EventKind::Failover { .. })),
        "failover inside the owning trace"
    );
    qbism_obs::event::clear();
    qbism_obs::trace::clear();
}

/// The fold's exact work counts ride on its root span: the k³ descent's
/// `decode_skips` and `leaves_masked` are the same with the page cache
/// off and fitting, and on the 2 × 2 warehouse's router as on the
/// single-node server, band by band.
#[test]
fn fold_work_counts_are_exact_across_cache_and_router() {
    let _g = serialize();
    let config = k3(QbismConfig { atlas_bits: 5, ..config() });
    let mut system = QbismSystem::install(&config).expect("single-node install");
    let warehouse = ClusterWarehouse::install(&config, 2, 2).expect("warehouse install");
    let studies = system.pet_study_ids.clone();
    let counts = |root: &str| {
        let tree = qbism_obs::trace::last_root().expect("the fold's span tree");
        assert_eq!(tree.name, root);
        ["decode_skips", "leaves_masked"].map(|key| match tree.field(key) {
            Some(qbism_obs::trace::FieldValue::U64(n)) => *n,
            other => panic!("{root}: {key} is {other:?}"),
        })
    };
    let bands: Vec<u8> = (0..=224).step_by(32).collect();
    let mut single = Vec::new();
    for &lo in &bands {
        system.server.multi_study_band_region(&studies, lo, lo + 31).expect("uncached fold");
        single.push(counts("query.multi_study_band"));
    }
    assert!(single.iter().any(|[_, masked]| *masked > 0), "no fold masked a leaf: {single:?}");
    system.server.set_cache_config(qbism_lfm::CacheConfig {
        capacity_pages: 4096,
        enabled: true,
        readahead_pages: 8,
    });
    for _pass in 0..2 {
        for (&lo, want) in bands.iter().zip(&single) {
            system.server.multi_study_band_region(&studies, lo, lo + 31).expect("cached fold");
            assert_eq!(&counts("query.multi_study_band"), want, "cached band {lo}");
        }
    }
    for (&lo, want) in bands.iter().zip(&single) {
        warehouse.multi_study_band_region(&studies, lo, lo + 31).expect("routed fold");
        assert_eq!(&counts("cluster.multi_study_band"), want, "routed band {lo}");
    }
}
