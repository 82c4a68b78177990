//! The traced run: per-layer metrics from the program's span trees,
//! from counter deltas taken at the same boundaries, and from probes.
//!
//! End-to-end numbers never come from here — tracing costs time, and
//! `harness.trace_overhead_ratio` says how much.

use crate::estimator::{cv, median};
use crate::probes;
use crate::run::{
    check_host, pooled_tail_ratio, quiet_ops_per_s, Counts, Metric, Outcome, Round, Session,
};
use crate::target::{user_bytes, Installed, Target, PAGE_BYTES, SHARDS};
use crate::trace::{to_json, ClientTrace, Layer, LAYERS};
use crate::workload::{Class, Spec};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rounds of each kind (untraced, traced, observability off) the traced
/// run interleaves.
pub const TRACED_ROUNDS: usize = 10;

/// Registry counters read at round boundaries, and their slots in a
/// snapshot (the last slot holds the shards' answer-leg messages).
const COUNTERS: [&str; 10] = [
    "qbism_lfm_extent_phys_reads_total",
    "qbism_lfm_extent_coalesced_pages_total",
    "qbism_lfm_extent_readahead_pages_total",
    "qbism_lfm_cache_hits_total",
    "qbism_lfm_cache_misses_total",
    "qbism_lfm_cache_evictions_total",
    "qbism_lfm_compressed_pages_read_total",
    "qbism_lfm_compressed_decode_skips_total",
    "qbism_lfm_pages_written_total",
    "qbism_lfm_journal_bytes_total",
];

const PHYS_READS: usize = 0;
const COALESCED: usize = 1;
const READAHEAD: usize = 2;
const CACHE_HITS: usize = 3;
const CACHE_MISSES: usize = 4;
const EVICTIONS: usize = 5;
const COMPRESSED_PAGES: usize = 6;
const DECODE_SKIPS: usize = 7;
const PAGES_WRITTEN: usize = 8;
const JOURNAL_BYTES: usize = 9;
const LEG_MESSAGES: usize = 10;

fn read_counters(target: Option<&Target>) -> [u64; 11] {
    let registry = qbism_obs::global();
    let mut out = [0; 11];
    for (slot, name) in out.iter_mut().zip(COUNTERS) {
        *slot = registry.counter(name).get();
    }
    // Answer-leg messages between the shards and the router.
    if let Some(Target { installed: Installed::Cluster(warehouse), .. }) = target {
        out[LEG_MESSAGES] = warehouse.total_shard_net_stats().messages;
    }
    out
}

fn delta(after: &[u64; 11], before: &[u64; 11]) -> [f64; 11] {
    let mut out = [0.0; 11];
    for i in 0..11 {
        out[i] = after[i].saturating_sub(before[i]) as f64;
    }
    out
}

/// A fixed sort-and-hash kernel: the same work on every commit, so its
/// time reads the host's speed, not the program's.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut rng = crate::workload::Rng::new(0xca11b);
    let mut words: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    black_box(words.iter().fold(0u64, |h, &w| (h ^ w).wrapping_mul(0x100_0000_01b3)));
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `spec` traced and returns the per-layer metrics.  Spans are
/// written to `<out_dir>/<workload>.trace.json`.
pub fn run_traced(spec: Spec, seed: u64, out_dir: &Path) -> Result<Outcome, String> {
    check_host(&spec)?;
    let epoch = Instant::now();

    // One set-up, with the write-side counters read around it.
    let before_install = read_counters(None);
    let target = Target::set_up(&spec)?;
    let install = delta(&read_counters(None), &before_install);
    let shards = if spec.cluster { SHARDS as f64 } else { 1.0 };
    let studies = target.config.pet_studies as f64;
    let pages_written = install[PAGES_WRITTEN] / shards;

    let mut session = Session::new(spec, target, seed);
    let warm_up = session.round(None)?;
    let mut traces: Vec<ClientTrace> = (0..spec.clients).map(|_| ClientTrace::new(epoch)).collect();
    let (mut plain, mut traced, mut obs_off): (Vec<Round>, Vec<Round>, Vec<Round>) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut counters = [0.0; 11];
    let mut calib = Vec::with_capacity(TRACED_ROUNDS);
    for number in 0..TRACED_ROUNDS {
        plain.push(session.round(None)?);

        let before = read_counters(Some(&session.target));
        for trace in &mut traces {
            trace.keep_program_spans = number == 0;
            trace.begin_round(number);
        }
        traced.push(session.round(Some(&mut traces))?);
        traces.iter_mut().for_each(ClientTrace::end_round);
        let after = delta(&read_counters(Some(&session.target)), &before);
        for (sum, d) in counters.iter_mut().zip(after) {
            *sum += d;
        }

        qbism_obs::set_enabled(false);
        let round = session.round(None);
        qbism_obs::set_enabled(true);
        obs_off.push(round?);

        calib.push(calibrate());
    }

    // ---- span-derived: self time by layer, per query -----------------
    // Each op contributes its quietest traced repetition, layer by
    // layer (the same floor the end-to-end timings use).
    let mut self_s = [0.0; LAYERS];
    let (mut ops, mut missing, mut violations) = (0u64, 0u64, 0u64);
    for trace in &traces {
        for op in trace.floor_self_s.iter().filter(|op| op[0].is_finite()) {
            for (sum, s) in self_s.iter_mut().zip(op) {
                *sum += s;
            }
        }
        ops += trace.ops;
        missing += trace.missing;
        violations += trace.sum_violations;
    }
    let queries_per_round = traces.iter().map(|t| t.floor_self_s.len()).sum::<usize>().max(1);
    let us_per_query = |layer: Layer| self_s[layer as usize] * 1e6 / queries_per_round as f64;

    // ---- counter-derived: exact costs of the traced rounds ---------
    let mut counts = Counts::default();
    for round in &traced {
        counts.add(&round.counts);
    }
    let queries = counts.queries.max(1) as f64;
    let multi_study = (TRACED_ROUNDS
        * spec.clients
        * spec.passes
        * (spec.counts[Class::MultiStudyBand.index()]
            + spec.counts[Class::PopulationAverage.index()])) as f64;
    let lookups = counters[CACHE_HITS] + counters[CACHE_MISSES];
    let rate = quiet_ops_per_s;
    let plain_rates: Vec<f64> = plain.iter().map(Round::ops_per_s).collect();

    let mut metrics = vec![
        Metric::new("starburst.parse_us_per_query", us_per_query(Layer::Parse), "us"),
        Metric::new("starburst.exec_us_per_query", us_per_query(Layer::Exec), "us"),
        Metric::new("starburst.rows_scanned_per_query", counts.rows as f64 / queries, "rows/op"),
        Metric::new("core.udf_us_per_query", us_per_query(Layer::Udf), "us"),
        Metric::new("core.server_self_us_per_query", us_per_query(Layer::Server), "us"),
        Metric::new("lfm.read_us_per_query", us_per_query(Layer::Lfm), "us"),
        Metric::new(
            "lfm.phys_pages_per_query",
            (counters[PHYS_READS] + counters[COALESCED] + counters[READAHEAD]) / queries,
            "pages/op",
        ),
        Metric::new("lfm.extents_per_query", counts.extents as f64 / queries, "extents/op"),
        Metric::new(
            "lfm.cache_hit_ratio",
            if lookups > 0.0 { counters[CACHE_HITS] / lookups } else { 0.0 },
            "ratio",
        ),
        Metric::new("lfm.cache_evictions_per_query", counters[EVICTIONS] / queries, "count/op"),
        Metric::new("lfm.sim_disk_s_per_query", counts.sim_disk_s() / queries, "s"),
        Metric::new("lfm.decode_skips_per_query", counters[DECODE_SKIPS] / queries, "count/op"),
        Metric::new(
            "lfm.compressed_pages_per_query",
            counters[COMPRESSED_PAGES] / queries,
            "pages/op",
        ),
        Metric::new("lfm.pages_written_per_study", pages_written / studies, "pages"),
        Metric::new(
            "lfm.journal_bytes_per_study",
            install[JOURNAL_BYTES] / shards / studies,
            "bytes",
        ),
        Metric::new(
            "lfm.write_amp",
            pages_written * PAGE_BYTES as f64 / user_bytes(&session.target.config) as f64,
            "ratio",
        ),
        Metric::new("netsim.ship_us_per_query", us_per_query(Layer::Net), "us"),
        Metric::new("netsim.messages_per_query", counts.messages as f64 / queries, "msgs/op"),
        Metric::new("netsim.wire_bytes_per_query", counts.wire_bytes as f64 / queries, "bytes/op"),
        Metric::new("netsim.sim_net_s_per_query", counts.sim_net_s / queries, "s"),
        Metric::new("cluster.router_self_us_per_query", us_per_query(Layer::Router), "us"),
        Metric::new(
            "cluster.leg_messages_per_query",
            counters[LEG_MESSAGES] / multi_study,
            "msgs/op",
        ),
        Metric::new("obs.enabled_overhead_ratio", rate(&obs_off) / rate(&plain), "ratio"),
        Metric::new("harness.trace_overhead_ratio", rate(&traced) / rate(&plain), "ratio"),
        Metric::new("harness.round_cv", cv(&plain_rates), "ratio"),
        Metric::new("harness.calib_ms", median(&calib), "ms"),
        Metric::new("harness.lat_ms.p99_over_p50", pooled_tail_ratio(&plain), "ratio"),
        Metric::new("harness.span_sum_violations", violations as f64, "count"),
    ];
    metrics.extend(probes::run(&mut session.target)?);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.json", spec.name));
    std::fs::write(&path, to_json(&traces)).map_err(|e| format!("{}: {e}", path.display()))?;

    let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    let total: f64 = self_s.iter().sum();
    eprintln!(
        "{}: traced {ops} ops ({missing} without a tree, {violations} whose self times miss \
         the root by > 2 %), {spans} spans -> {}",
        spec.name,
        path.display()
    );
    for (layer, label) in [
        (Layer::Parse, "starburst parse"),
        (Layer::Exec, "starburst exec"),
        (Layer::Udf, "core udf"),
        (Layer::Server, "core server self"),
        (Layer::Lfm, "lfm"),
        (Layer::Net, "netsim"),
        (Layer::Router, "cluster router"),
        (Layer::Other, "other"),
    ] {
        eprintln!(
            "  {label:<18} {:>9.2} us/query {:>6.1} % of op time",
            us_per_query(layer),
            100.0 * self_s[layer as usize] / total.max(f64::MIN_POSITIVE)
        );
    }

    let rounds = plain.iter().chain(&traced).chain(&obs_off);
    let failed = warm_up.failed + rounds.map(|r| r.failed).sum::<u64>();
    // A traced op without a tree, or one whose layers do not add up to
    // its root, breaks the per-layer numbers: both count as failures.
    let failed = failed + missing + violations;
    Ok(Outcome {
        correct: failed == 0,
        attempted: session.ops_per_round() * (3 * TRACED_ROUNDS as u64 + 1),
        failed,
        metrics,
    })
}
