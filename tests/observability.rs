//! End-to-end observability: every layer of a real query shows up in the
//! span tree, and the process-wide registry exports exactly the LFM
//! series the benchmark reads.
//!
//! The span ring, registry, and enabled switch are process-global, so
//! these tests serialize on one lock and search `recent_roots` rather
//! than assuming exclusive ring access.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use qbism::{QbismConfig, QbismSystem, QueryCost};
use qbism_fault::{FaultOutcome, FaultPlane, Trigger};
use qbism_lfm::CacheConfig;
use qbism_obs::trace::FieldValue;
use qbism_obs::{EventKind, SpanNode};
use qbism_region::RegionCodec;

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn install() -> QbismSystem {
    QbismSystem::install(&QbismConfig::small_test()).expect("install")
}

#[test]
fn mixed_query_emits_a_full_span_tree() {
    let _g = serialize();
    let sys = install();
    let study = sys.pet_study_ids[0];
    sys.server.band_in_structure(study, 224, 255, "ntal1").expect("Q6 runs");
    let tree = qbism_obs::trace::recent_roots()
        .into_iter()
        .rev()
        .find(|t| t.name == "query.band_in_structure")
        .expect("query root span retained");
    // The tree crosses all three instrumented layers.
    for name in ["db.execute", "exec.select", "lfm.read"] {
        assert!(tree.find(name).is_some(), "span {name} missing:\n{}", tree.render_tree());
    }
    // The statement was compiled when the server was built: a query
    // neither parses nor plans.
    for name in ["sql.parse", "db.prepare"] {
        assert!(tree.find(name).is_none(), "span {name} in a query:\n{}", tree.render_tree());
    }
    match tree.find("db.execute").unwrap().field("sql") {
        Some(qbism_obs::trace::FieldValue::Str(sql)) => {
            assert!(sql.starts_with("select extractVoxels(wv.data, intersection("), "{sql}")
        }
        other => panic!("db.execute sql field: {other:?}"),
    }
    // The executor annotated row counts and the LFM its page reads.
    let select = tree.find("exec.select").unwrap();
    assert!(select.field("rows_scanned").is_some());
    let lfm = tree.find("lfm.read").unwrap();
    match lfm.field("pages") {
        Some(qbism_obs::trace::FieldValue::U64(p)) => assert!(*p >= 1),
        other => panic!("lfm.read pages field: {other:?}"),
    }
    // finish_query stamped the roll-up costs on the root.
    for key in ["lfm_pages_read", "rows_scanned", "wire_bytes", "sim_db_s"] {
        assert!(tree.field(key).is_some(), "root field {key} missing");
    }
}

/// The series the benchmark reads, and nothing else: every count the
/// paper's tables use has its typed home in `QueryCost`, `IoStats`,
/// `NetStats` and the span tree, so a series nobody reads fails here
/// by name.
const REGISTRY_SERIES: [&str; 11] = [
    "qbism_lfm_allocated_pages",
    "qbism_lfm_cache_evictions_total",
    "qbism_lfm_cache_hits_total",
    "qbism_lfm_cache_misses_total",
    "qbism_lfm_compressed_decode_skips_total",
    "qbism_lfm_compressed_pages_read_total",
    "qbism_lfm_extent_coalesced_pages_total",
    "qbism_lfm_extent_phys_reads_total",
    "qbism_lfm_extent_readahead_pages_total",
    "qbism_lfm_journal_bytes_total",
    "qbism_lfm_pages_written_total",
];

#[test]
fn registry_exports_the_acceptance_series() {
    let _g = serialize();
    let sys = install();
    run_every_class(&sys);
    let text = qbism_obs::global().render_prometheus();
    let types: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .collect();
    assert_eq!(types, REGISTRY_SERIES, "exported series:\n{text}");
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        assert!(!line.contains('{'), "labelled sample: {line}");
        assert!(!line.contains("_bucket"), "histogram bucket: {line}");
    }
    // The JSON snapshot carries the same series.
    let json = qbism_obs::global().snapshot_json();
    let keys: Vec<&str> = json
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .filter_map(|pair| pair.split_once(':'))
        .map(|(key, _)| key.trim_matches('"'))
        .collect();
    assert_eq!(keys, REGISTRY_SERIES, "snapshot: {json}");
}

#[test]
fn query_cost_default_and_accumulate_fold() {
    let _g = serialize();
    let sys = install();
    let study = sys.pet_study_ids[0];
    let a = sys.server.full_study(study).expect("Q1 runs").cost;
    let b = sys.server.structure_data(study, "ntal").expect("Q3 runs").cost;
    let mut folded = QueryCost::default();
    assert_eq!(folded.rows_scanned, 0);
    assert_eq!(folded.wire_bytes, 0);
    folded.accumulate(&a);
    folded.accumulate(&b);
    assert_eq!(folded.rows_scanned, a.rows_scanned + b.rows_scanned);
    assert_eq!(folded.wire_bytes, a.wire_bytes + b.wire_bytes);
    assert_eq!(folded.lfm.pages_read, a.lfm.pages_read + b.lfm.pages_read);
    assert!(folded.sim_db_seconds >= a.sim_db_seconds);
}

/// A multi-study query's tree shape — preorder span ids and parent
/// links — is the same whichever client thread runs it, and however
/// many run it at once.
#[test]
fn span_tree_shape_is_identical_at_any_thread_count() {
    let _g = serialize();
    let config = QbismConfig { pet_studies: 5, ..QbismConfig::small_test() };
    let sys = QbismSystem::install(&config).expect("install");
    let studies: Vec<i64> = sys.pet_study_ids.clone();
    let server = &sys.server;
    let fold = || server.multi_study_band_region(&studies, 32, 63).expect("multi-study query");
    fold();
    let shape = qbism_obs::trace::last_root().expect("the fold's tree").shape();
    for (span_id, parent, _) in &shape {
        assert!(*span_id > *parent, "preorder ids grow away from the root");
    }
    for clients in [2usize, 8] {
        qbism_obs::trace::clear();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| drop(fold()));
            }
        });
        let roots: Vec<_> = qbism_obs::trace::recent_roots()
            .into_iter()
            .filter(|t| t.name == "query.multi_study_band")
            .collect();
        assert_eq!(roots.len(), clients, "one tree per client");
        for root in &roots {
            assert_eq!(root.shape(), shape, "tree shape diverged at {clients} client threads");
        }
    }
    qbism_obs::trace::clear();
}

#[test]
fn injected_faults_land_inside_the_owning_trace() {
    let _g = serialize();
    let config = QbismConfig { pet_studies: 3, ..QbismConfig::small_test() };
    let sys = QbismSystem::install(&config).expect("install");
    let studies: Vec<i64> = sys.pet_study_ids.clone();
    qbism_obs::trace::clear();
    qbism_obs::event::clear();
    let scope = FaultPlane::new(5)
        .rule("lfm.read", Trigger::Always, FaultOutcome::Latency { seconds: 0.0001 })
        .arm();
    sys.server.multi_study_band_region(&studies, 32, 63).expect("query under latency");
    drop(scope);
    let tree = qbism_obs::trace::recent_roots()
        .into_iter()
        .rev()
        .find(|t| t.name == "query.multi_study_band")
        .expect("root retained");
    let owned = qbism_obs::event::events_for_trace(tree.trace_id);
    let faults: Vec<_> = owned
        .iter()
        .filter(|e| matches!(&e.kind, qbism_obs::EventKind::FaultInjected { site, .. } if site == "lfm.read"))
        .collect();
    assert!(!faults.is_empty(), "injected faults must be attributed to the query's trace");
    qbism_obs::event::clear();
    qbism_obs::trace::clear();
}

#[test]
fn eight_client_storm_exports_coherent_chrome_traces() {
    let _g = serialize();
    let sys = install();
    let study = sys.pet_study_ids[0];
    qbism_obs::trace::clear();
    qbism_obs::event::clear();
    let server = &sys.server;
    std::thread::scope(|scope| {
        for _client in 0..8u8 {
            scope.spawn(move || {
                server.band_data(study, 32, 63).expect("storm query");
            });
        }
    });
    let roots: Vec<_> =
        qbism_obs::trace::recent_roots().into_iter().filter(|t| t.name == "query.band").collect();
    assert_eq!(roots.len(), 8, "one coherent tree per client");
    let mut traces = std::collections::BTreeSet::new();
    for root in &roots {
        traces.insert(root.trace_id);
        assert_parent_links(root);
        assert_eq!(
            root.shape(),
            roots[0].shape(),
            "storm tree shapes must not depend on the client"
        );
    }
    assert_eq!(traces.len(), 8, "each client minted its own trace id");
    let json = qbism_obs::export::chrome_trace(&roots, &qbism_obs::event::events());
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // Every span is exported once: the tree is its only record.
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        roots.iter().map(SpanNode::span_count).sum::<usize>()
    );
    for trace in traces {
        assert!(json.contains(&format!("\"pid\":{trace}")), "trace {trace} exported");
    }
    qbism_obs::event::clear();
    qbism_obs::trace::clear();
}

fn assert_parent_links(node: &qbism_obs::SpanNode) {
    for child in &node.children {
        assert_eq!(child.parent_span_id, node.span_id, "child links to its parent");
        assert_eq!(child.trace_id, node.trace_id, "one trace per tree");
        assert_parent_links(child);
    }
}

#[test]
fn slow_queries_capture_their_tree_and_events() {
    let _g = serialize();
    let sys = install();
    let study = sys.pet_study_ids[0];
    qbism_obs::event::clear_slow_queries();
    qbism_obs::event::set_slow_query_threshold(std::time::Duration::ZERO);
    sys.server.full_study(study).expect("Q1 runs");
    let slow = qbism_obs::event::slow_queries();
    let hit = slow.iter().rev().find(|s| s.tree.name == "query.full_study").expect("captured");
    assert!(hit.trace != 0);
    assert!(hit.tree.find("db.execute").is_some(), "captured tree keeps its children");
    // Restore the default threshold for later tests.
    qbism_obs::event::set_slow_query_threshold(std::time::Duration::from_micros(250_000));
    qbism_obs::event::clear_slow_queries();
}

#[test]
fn a_crash_fault_dumps_the_flight_recorder() {
    let _g = serialize();
    let sys = install();
    let study = sys.pet_study_ids[0];
    qbism_obs::trace::clear();
    qbism_obs::event::clear();
    qbism_obs::event::clear_crash_dumps();
    let scope = FaultPlane::new(7).crash_nth("lfm.read", 1).arm();
    let result = sys.server.full_study(study);
    drop(scope);
    assert!(result.is_err(), "a crash fault fails the query");
    let dump = qbism_obs::event::last_crash_dump().expect("crash captured a dump");
    assert_eq!(dump.site, "lfm.read");
    assert!(
        dump.events.iter().any(|e| matches!(
            &e.kind,
            qbism_obs::EventKind::FaultInjected { site, outcome } if site == "lfm.read" && *outcome == "crash"
        )),
        "the dump's event slice contains the fault that triggered it"
    );
    assert!(
        dump.live_spans.iter().any(|s| s.starts_with("query.")),
        "the dump records the in-flight query's open spans: {:?}",
        dump.live_spans
    );
    let json = qbism_obs::export::crash_dump_json(&dump);
    assert!(json.contains("\"site\":\"lfm.read\""));
    qbism_obs::event::clear_crash_dumps();
    qbism_obs::event::clear();
    qbism_obs::trace::clear();
}

/// Σ of the `u64` field `key` over every span of `tree` named `name`.
fn sum_field(tree: &SpanNode, name: &str, key: &str) -> u64 {
    let here = match tree.field(key) {
        Some(FieldValue::U64(v)) if tree.name == name => *v,
        _ => 0,
    };
    here + tree.children.iter().map(|c| sum_field(c, name, key)).sum::<u64>()
}

/// A cached read stamps its pool lookups on the `lfm.read` span it
/// opens anyway — hits and misses that account for every page it read —
/// and journals nothing: a lookup is not an incident.
#[test]
fn cached_reads_record_cache_lookups_on_the_read_span() {
    let _g = serialize();
    // 64³: one study volume is 64 pages.
    let config = QbismConfig {
        atlas_bits: 6,
        pet_studies: 1,
        mri_studies: 0,
        device_capacity: 1 << 26,
        ..QbismConfig::small_test()
    };
    let mut sys = QbismSystem::install(&config).expect("install");
    sys.server.set_cache_config(CacheConfig {
        capacity_pages: 4096,
        enabled: true,
        readahead_pages: 0,
    });
    let study = sys.pet_study_ids[0];
    for pass in ["cold", "warm"] {
        qbism_obs::trace::clear();
        qbism_obs::event::clear();
        let answer = sys.server.full_study(study).expect("EQ1 runs");
        let tree = qbism_obs::trace::recent_roots()
            .into_iter()
            .rev()
            .find(|t| t.name == "query.full_study")
            .expect("root retained");
        let [hits, misses] =
            ["cache_hits", "cache_misses"].map(|key| sum_field(&tree, "lfm.read", key));
        assert!(answer.cost.lfm.pages_read >= 64, "EQ1 reads a whole 64-page volume");
        assert_eq!(
            hits + misses,
            answer.cost.lfm.pages_read,
            "{pass}: every distinct page is looked up exactly once"
        );
        assert_eq!(misses == 0, pass == "warm", "{pass}: {misses} misses");
        assert_eq!(qbism_obs::event::events(), [], "{pass}: lookups are not incidents");
    }
    qbism_obs::trace::clear();
}

/// Each read of a stored REGION is one object lookup in `CacheStats`,
/// with the pool off and on: the first read of a field misses and every
/// later one hits, and extractions over one cached REGION share it — in
/// either codec.
#[test]
fn stored_region_reads_are_counted_as_object_lookups() {
    let _g = serialize();
    let naive = QbismConfig::small_test();
    let k3 = QbismConfig { region_codec: RegionCodec::K3Tree, ..naive.clone() };
    for config in [naive, k3] {
        let mut sys = QbismSystem::install(&config).expect("install");
        let (study, studies) = (sys.pet_study_ids[0], sys.pet_study_ids.clone());
        let objects = |sys: &QbismSystem| {
            let stats = sys.server.cache_stats();
            (stats.object_hits, stats.object_misses, stats.object_evictions)
        };
        // The object cache is host memory, not the modelled buffer: it
        // serves decoded REGIONs with the pool off too.
        let a = sys.server.structure_data(study, "ntal").expect("structure");
        assert_eq!(objects(&sys), (0, 1, 0), "pool off: the first read decodes");
        let b = sys.server.structure_data(study, "ntal").expect("structure");
        assert_eq!(objects(&sys), (1, 1, 0), "pool off: the second is served decoded");
        assert!(std::sync::Arc::ptr_eq(a.data.shared_region(), b.data.shared_region()));
        assert_eq!(a.cost.lfm, b.cost.lfm, "pool off: a hit reads the pages a miss does");
        sys.server.set_cache_config(CacheConfig {
            capacity_pages: 4096,
            enabled: true,
            readahead_pages: 0,
        });
        let c = sys.server.structure_data(study, "ntal").expect("structure");
        assert_eq!(objects(&sys), (2, 1, 0), "switching the pool on keeps the object");
        assert!(std::sync::Arc::ptr_eq(a.data.shared_region(), c.data.shared_region()));
        assert_eq!(a.cost.lfm, c.cost.lfm, "pool on: a hit reads the pages a miss does");
        sys.server.population_average(&studies, "ntal").expect("population_average");
        let n = studies.len() as u64;
        assert_eq!(objects(&sys), (2 + n, 1, 0), "{:?}", config.region_codec);
        sys.server.multi_study_band_region(&studies, 32, 63).expect("multi_study_band");
        assert_eq!(objects(&sys), (2 + n, 1 + n, 0), "each study's band decodes once");
        sys.server.multi_study_band_region(&studies, 32, 63).expect("multi_study_band");
        assert_eq!(objects(&sys), (2 + 2 * n, 1 + n, 0));
    }
}

/// One query of each of the seven classes.
fn run_every_class(sys: &QbismSystem) {
    let (server, studies) = (&sys.server, &sys.pet_study_ids);
    let study = studies[0];
    server.full_study(study).expect("full_study");
    server.box_data(study, [2, 2, 2], [9, 9, 9]).expect("box");
    server.structure_data(study, "ntal").expect("structure");
    server.band_data(study, 32, 63).expect("band");
    server.band_in_structure(study, 224, 255, "ntal1").expect("band_in_structure");
    server.multi_study_band_region(studies, 32, 63).expect("multi_study_band");
    server.population_average(studies, "ntal").expect("population_average");
}

/// What a query did is in its span tree; the journal is for what went
/// wrong.  A fault-free query appends nothing — with naive or k³
/// REGIONs, with the pool off or on.
#[test]
fn fault_free_queries_journal_nothing() {
    let _g = serialize();
    // A host stall must not turn into a `slow_query` entry here.
    qbism_obs::event::set_slow_query_threshold(std::time::Duration::MAX);
    let config = QbismConfig::small_test();
    let k3 = QbismConfig { region_codec: RegionCodec::K3Tree, ..config.clone() };
    for config in [config, k3] {
        let mut sys = QbismSystem::install(&config).expect("install");
        qbism_obs::event::clear();
        run_every_class(&sys);
        assert_eq!(qbism_obs::event::events(), [], "pool off");
        sys.server.set_cache_config(CacheConfig {
            capacity_pages: 4096,
            enabled: true,
            readahead_pages: 0,
        });
        // Cold, then warm.
        run_every_class(&sys);
        run_every_class(&sys);
        assert_eq!(qbism_obs::event::events(), [], "pool on");
    }
    qbism_obs::event::set_slow_query_threshold(std::time::Duration::from_micros(
        qbism_obs::event::DEFAULT_SLOW_QUERY_MICROS,
    ));
}

/// A k³ REGION is a compressed long field whatever asked for it: a band
/// query under `region_codec: K3Tree` meters its REGION's pages in
/// `qbism_lfm_compressed_pages_read_total` and opens an
/// `lfm.compressed_scan` span; a naive one does neither.
#[test]
fn k3_regions_are_metered_as_compressed_reads() {
    let _g = serialize();
    let pages = qbism_obs::global().counter("qbism_lfm_compressed_pages_read_total");
    let naive = QbismConfig::small_test();
    let k3 = QbismConfig { region_codec: RegionCodec::K3Tree, ..naive.clone() };
    for (config, compressed) in [(naive, false), (k3, true)] {
        let sys = QbismSystem::install(&config).expect("install");
        let before = pages.get();
        sys.server.band_data(sys.pet_study_ids[0], 32, 63).expect("band");
        let read = pages.get() - before;
        let tree = qbism_obs::trace::last_root().expect("the band query's tree");
        let scan = tree.find("lfm.compressed_scan");
        assert_eq!(
            scan.is_some(),
            compressed,
            "{:?}:\n{}",
            config.region_codec,
            tree.render_tree()
        );
        assert_eq!(read > 0, compressed, "{:?}: {read} compressed pages", config.region_codec);
        if let Some(scan) = scan {
            assert_eq!(scan.field("pages"), Some(&FieldValue::U64(read)));
        }
    }
}

/// Fault-free queries put nothing in the ring, so they evict nothing:
/// an incident is still there however many of them follow it.
#[test]
fn an_incident_outlives_two_thousand_fault_free_queries() {
    let _g = serialize();
    qbism_obs::event::set_slow_query_threshold(std::time::Duration::MAX);
    let sys = install();
    let study = sys.pet_study_ids[0];
    qbism_obs::event::clear();
    let scope = FaultPlane::new(3)
        .rule("lfm.read", Trigger::Nth(1), FaultOutcome::Latency { seconds: 0.0001 })
        .arm();
    sys.server.full_study(study).expect("query under latency");
    drop(scope);
    let incident = qbism_obs::event::events();
    assert!(
        matches!(&incident[..], [e] if matches!(&e.kind, EventKind::FaultInjected { site, .. } if site == "lfm.read")),
        "{incident:?}"
    );
    for _ in 0..286 {
        run_every_class(&sys);
    }
    assert_eq!(qbism_obs::event::events(), incident, "2,002 queries later it is still there");
    assert_eq!(qbism_obs::event::dropped(), 0);
    qbism_obs::event::set_slow_query_threshold(std::time::Duration::from_micros(
        qbism_obs::event::DEFAULT_SLOW_QUERY_MICROS,
    ));
    qbism_obs::event::clear();
}

#[test]
fn disabling_observability_stops_recording() {
    let _g = serialize();
    let sys = install();
    let study = sys.pet_study_ids[0];
    qbism_obs::set_enabled(false);
    let before = qbism_obs::trace::recent_roots().len();
    let answer = sys.server.full_study(study).expect("Q1 runs while disabled");
    let after = qbism_obs::trace::recent_roots().len();
    qbism_obs::set_enabled(true);
    assert!(answer.voxel_count() > 0);
    assert!(after <= before, "disabled query grew the ring");
}

/// Each query class's tree at `small_test()`: spans, fields over the
/// whole tree, and span names in preorder.  A moved count means a span
/// or field was dropped, renamed or added: re-record it with a reason.
/// (`multi_study_band` 38 → 37 and `population_average` 49 → 48 fields
/// when the roots' `threads` field went with intra-query fan-out.)
#[rustfmt::skip]
const SPANS_PER_QUERY: [(&str, usize, usize, &[&str]); 7] = [
    ("full_study", 9, 21, &["query.full_study", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.project", "udf.fullregion", "udf.extractvoxels", "lfm.read", "net.ship"]),
    ("box", 9, 21, &["query.box", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.project", "udf.boxregion", "udf.extractvoxels", "lfm.read", "net.ship"]),
    ("structure", 11, 30, &["query.structure", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.hash_join atlasstructure", "exec.hash_join neuralstructure", "exec.project", "udf.extractvoxels", "lfm.read", "lfm.read", "net.ship"]),
    ("band", 10, 29, &["query.band", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.hash_join intensityband", "exec.project", "udf.extractvoxels", "lfm.read", "lfm.read", "net.ship"]),
    ("band_in_structure", 14, 38, &["query.band_in_structure", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.hash_join intensityband", "exec.hash_join atlasstructure", "exec.hash_join neuralstructure", "exec.project", "udf.intersection", "lfm.read", "lfm.read", "udf.extractvoxels", "lfm.read", "net.ship"]),
    ("multi_study_band", 15, 37, &["query.multi_study_band", "db.execute", "exec.select", "exec.scan intensityband", "exec.project", "db.read_long_field", "lfm.read", "db.execute", "exec.select", "exec.scan intensityband", "exec.project", "db.read_long_field", "lfm.read", "query.fold_band_regions", "net.ship"]),
    ("population_average", 21, 48, &["query.population_average", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.hash_join atlasstructure", "exec.hash_join neuralstructure", "exec.project", "udf.extractvoxels", "lfm.read", "lfm.read", "db.execute", "exec.select", "exec.scan warpedvolume", "exec.hash_join atlasstructure", "exec.hash_join neuralstructure", "exec.project", "udf.extractvoxels", "lfm.read", "lfm.read", "query.voxel_mean", "net.ship"]),
];

/// Preorder span names of a finished tree.
fn preorder_names<'a>(node: &'a SpanNode, out: &mut Vec<&'a str>) {
    out.push(&node.name);
    for child in &node.children {
        preorder_names(child, out);
    }
}

/// Fields recorded over a whole tree.
fn field_count(node: &SpanNode) -> usize {
    node.fields.len() + node.children.iter().map(field_count).sum::<usize>()
}

/// What one query of each class records is an exact count, read off
/// the tree the calling thread finished.
#[test]
fn spans_per_query_are_an_exact_count() {
    let _g = serialize();
    let sys = install();
    let (server, studies) = (&sys.server, &sys.pet_study_ids);
    let study = studies[0];
    let run = |class: &str| match class {
        "full_study" => drop(server.full_study(study).expect("full_study")),
        "box" => drop(server.box_data(study, [2, 2, 2], [9, 9, 9]).expect("box")),
        "structure" => drop(server.structure_data(study, "ntal").expect("structure")),
        "band" => drop(server.band_data(study, 32, 63).expect("band")),
        "band_in_structure" => {
            drop(server.band_in_structure(study, 224, 255, "ntal1").expect("band_in_structure"))
        }
        "multi_study_band" => {
            drop(server.multi_study_band_region(studies, 32, 63).expect("multi_study_band"))
        }
        "population_average" => {
            drop(server.population_average(studies, "ntal").expect("population_average"))
        }
        other => panic!("no query class {other}"),
    };
    for (class, spans, fields, names) in SPANS_PER_QUERY {
        run(class);
        let tree = qbism_obs::trace::last_root().expect("the query's tree");
        let mut preorder = Vec::new();
        preorder_names(&tree, &mut preorder);
        assert_eq!(preorder, names, "{class}:\n{}", tree.render_tree());
        assert_eq!(tree.span_count(), spans, "{class}");
        assert_eq!(field_count(&tree), fields, "{class}:\n{}", tree.render_tree());
    }
}
