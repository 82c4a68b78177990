//! MedicalServer: high-level query specifications → SQL → answers.
//!
//! "MedicalServer translates high-level query specifications it receives
//! from DX into SQL, sends the query strings to Starburst, and then
//! returns the results to DX."  Each public method is one of the query
//! classes of Sections 2.1 and 6: simple (full study), spatial
//! (box / structure), attribute (band), mixed (band ∩ structure),
//! multi-study (n-way intersection), and the population aggregate.
//!
//! Every answer carries a [`QueryCost`]: exact LFM I/O counts, tuple
//! scans, native elapsed time, and simulated 1994 times from the disk
//! and network models — the raw material of Tables 3 and 4.

use crate::config::QbismConfig;
use crate::loader::ATLAS_ID;
use crate::wire::{data_region_wire_size, decode_data_region};
use crate::{QbismError, Result};
use qbism_lfm::{CacheConfig, CacheStats, DiskModel, IoBracket, IoStats};
use qbism_netsim::{NetStats, NetworkModel, RpcChannel, SharedRpcChannel};
use qbism_obs::trace;
use qbism_parallel::Executor;
use qbism_region::{kernel, GridGeometry, Region, RegionCodec};
use qbism_starburst::{Database, Value};
use qbism_volume::{DataRegion, Volume};

/// Cost accounting for one executed query.
#[derive(Debug, Clone, Copy)]
pub struct QueryCost {
    /// LFM I/O performed by the query (the "LFM Disk I/Os (4KB)" column).
    pub lfm: IoStats,
    /// Base-table tuples examined.
    pub rows_scanned: u64,
    /// Native wall-clock seconds of the database phase on this machine.
    pub native_db_seconds: f64,
    /// Simulated 1994 database real time: disk model + native cpu.
    pub sim_db_seconds: f64,
    /// Answer payload bytes shipped to DX.
    pub wire_bytes: u64,
    /// RPC messages for the answer.
    pub messages: u64,
    /// Simulated network real time.
    pub sim_net_seconds: f64,
    /// Fraction of the requested inputs this answer actually covers.
    /// `1.0` for every ordinary query; the population aggregate lowers
    /// it when it degrades gracefully by skipping failed studies.
    pub coverage: f64,
}

impl Default for QueryCost {
    fn default() -> Self {
        QueryCost {
            lfm: IoStats::default(),
            rows_scanned: 0,
            native_db_seconds: 0.0,
            sim_db_seconds: 0.0,
            wire_bytes: 0,
            messages: 0,
            sim_net_seconds: 0.0,
            coverage: 1.0,
        }
    }
}

impl QueryCost {
    /// Field-wise accumulation: folds `other`'s costs into `self`.
    /// Multi-statement query classes (the population aggregate, the
    /// intensity-range union) sum their per-statement brackets with
    /// this.  Coverage folds as the minimum: a composite answer is only
    /// as complete as its least complete part.
    pub fn accumulate(&mut self, other: &QueryCost) {
        self.lfm = self.lfm.plus(&other.lfm);
        self.rows_scanned += other.rows_scanned;
        self.native_db_seconds += other.native_db_seconds;
        self.sim_db_seconds += other.sim_db_seconds;
        self.wire_bytes += other.wire_bytes;
        self.messages += other.messages;
        self.sim_net_seconds += other.sim_net_seconds;
        self.coverage = self.coverage.min(other.coverage);
    }
}

/// A spatially restricted answer plus its costs.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The extracted data (REGION + intensities).
    pub data: DataRegion<u8>,
    /// Cost accounting.
    pub cost: QueryCost,
}

impl QueryAnswer {
    /// Number of h-runs in the answer's REGION (a Table 3 column).
    pub fn run_count(&self) -> usize {
        self.data.region().run_count()
    }

    /// Number of voxels in the answer (a Table 3 column).
    pub fn voxel_count(&self) -> u64 {
        self.data.voxel_count() as u64
    }
}

/// A population-aggregate answer: the averaged DATA_REGION, its costs,
/// and the studies the aggregate had to leave out.
///
/// The aggregate degrades gracefully: a study whose extraction fails
/// (missing row, injected device fault, …) is skipped rather than
/// sinking the whole query, `cost.coverage` records the surviving
/// fraction, and `skipped` says exactly what went wrong per study.  The
/// call errors only when *no* study could be read.
#[derive(Debug)]
pub struct PopulationAnswer {
    /// The voxel-wise mean over the studies that could be read.
    pub data: DataRegion<u8>,
    /// Cost accounting (`coverage < 1.0` when studies were skipped).
    pub cost: QueryCost,
    /// Studies excluded from the mean, with the error that excluded each.
    pub skipped: Vec<(i64, QbismError)>,
}

impl PopulationAnswer {
    /// Number of h-runs in the answer's REGION.
    pub fn run_count(&self) -> usize {
        self.data.region().run_count()
    }

    /// Number of voxels in the answer.
    pub fn voxel_count(&self) -> u64 {
        self.data.voxel_count() as u64
    }

    /// True when every requested study contributed to the mean.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// Pre-resolved observability handles for one query class, so the
/// per-query cost is a histogram observe and a counter add rather than
/// four registry-map lookups.
struct QueryClassMetrics {
    seconds: qbism_obs::Histogram,
    total: qbism_obs::Counter,
}

/// Handles shared by every query class.
struct ServerMetrics {
    wire_bytes: qbism_obs::Counter,
    rows_scanned: qbism_obs::Counter,
    classes: std::collections::HashMap<&'static str, QueryClassMetrics>,
}

/// The Section 3.4 query classes `finish_query` reports under.
const QUERY_CLASSES: [&str; 8] = [
    "full_study",
    "box",
    "structure",
    "band",
    "intensity_range",
    "band_in_structure",
    "multi_study_band",
    "population_average",
];

impl ServerMetrics {
    fn new() -> Self {
        let reg = qbism_obs::global();
        reg.describe("qbism_query_seconds", "Native database seconds per query, by class.");
        reg.describe("qbism_query_total", "Queries answered, by class.");
        reg.describe("qbism_query_wire_bytes_total", "Answer payload bytes shipped to DX.");
        reg.describe("qbism_query_rows_scanned_total", "Base tuples scanned by server queries.");
        let classes = QUERY_CLASSES
            .iter()
            .map(|&class| {
                let labels = [("class", class)];
                (
                    class,
                    QueryClassMetrics {
                        seconds: reg.histogram_with("qbism_query_seconds", &labels),
                        total: reg.counter_with("qbism_query_total", &labels),
                    },
                )
            })
            .collect();
        ServerMetrics {
            wire_bytes: reg.counter("qbism_query_wire_bytes_total"),
            rows_scanned: reg.counter("qbism_query_rows_scanned_total"),
            classes,
        }
    }
}

/// The query front end over a populated database.
///
/// All query methods take `&self`: per-query I/O is measured with
/// thread-local [`IoBracket`]s, answers ship through a mutex-guarded
/// [`SharedRpcChannel`], and the LFM's counters sit behind their own
/// locks — so any number of client threads may run queries against one
/// shared server concurrently.  Mutation (loading data, reconfiguring
/// the cache or the fan-out width) still requires `&mut self`, which
/// the borrow checker keeps disjoint from in-flight queries.
pub struct MedicalServer {
    db: Database,
    config: QbismConfig,
    disk: DiskModel,
    chan: SharedRpcChannel,
    threads: usize,
    metrics: ServerMetrics,
}

impl MedicalServer {
    /// Wraps a populated database.
    pub fn new(db: Database, config: QbismConfig) -> Self {
        MedicalServer {
            db,
            config,
            disk: DiskModel::RS6000_1994,
            chan: SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994)),
            threads: 1,
            metrics: ServerMetrics::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &QbismConfig {
        &self.config
    }

    /// Fan-out width for the multi-study query classes (default 1,
    /// which runs them inline exactly as the sequential engine does).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the fan-out width for multi-study queries.  Answers and
    /// every deterministic [`QueryCost`] field are identical at any
    /// width: workers claim whole studies and the reduce folds results
    /// in study order.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Reconfigures the LFM page cache (disabled by default, keeping
    /// the paper's unbuffered LFM).  Resident pages are dropped.
    pub fn set_cache_config(&mut self, config: CacheConfig) {
        self.db.lfm().set_cache_config(config);
    }

    /// The LFM page-cache configuration in force.
    pub fn cache_config(&self) -> CacheConfig {
        self.db.lfm_ref().cache_config()
    }

    /// Cumulative page-cache behaviour (hits stay 0 while disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.db.lfm_ref().cache_stats()
    }

    /// The process-wide metrics registry (scrape with
    /// `render_prometheus()` / `snapshot_json()`).
    pub fn metrics(&self) -> &'static qbism_obs::Registry {
        qbism_obs::global()
    }

    /// The EXPLAIN ANALYZE-style span tree of the most recent query on
    /// this process, if tracing is enabled.
    pub fn last_query_trace(&self) -> Option<qbism_obs::SpanNode> {
        qbism_obs::trace::last_root()
    }

    /// The flight recorder's recent span trees plus journal events as
    /// Chrome trace-event JSON (load in `about:tracing` or Perfetto).
    pub fn flight_recorder_chrome_trace(&self) -> String {
        qbism_obs::export::chrome_trace(
            &qbism_obs::trace::recent_roots(),
            &qbism_obs::event::events(),
        )
    }

    /// The flight recorder's journal as newline-delimited JSON.
    pub fn flight_recorder_events_jsonl(&self) -> String {
        qbism_obs::export::events_jsonl(&qbism_obs::event::events())
    }

    /// Queries whose end-to-end time crossed the slow-query threshold,
    /// each with its captured span tree and event slice.
    pub fn slow_queries(&self) -> Vec<qbism_obs::SlowQuery> {
        qbism_obs::event::slow_queries()
    }

    /// Sets the slow-query capture threshold for this process.
    pub fn set_slow_query_threshold(&self, threshold: std::time::Duration) {
        qbism_obs::event::set_slow_query_threshold(threshold);
    }

    /// Flight-recorder dumps captured by crash-outcome faults.
    pub fn crash_dumps(&self) -> Vec<qbism_obs::CrashDump> {
        qbism_obs::event::crash_dumps()
    }

    /// Direct database access (examples, tests, ad-hoc SQL).
    pub fn database(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Current LFM counters.
    pub fn lfm_stats(&self) -> IoStats {
        self.db.lfm_stats()
    }

    /// Cumulative simulated-network counters for every answer this
    /// server has shipped (retransmits and backoff stay zero unless a
    /// fault plane injects message loss).
    pub fn net_stats(&self) -> NetStats {
        self.chan.stats()
    }

    // ----------------------------------------------------------------
    // Query classes
    // ----------------------------------------------------------------

    /// Q1: "show a full PET study" — the flat-file reference point.
    pub fn full_study(&self, study_id: i64) -> Result<QueryAnswer> {
        let span = Self::query_span("full_study");
        span.record_i64("study_id", study_id);
        let answer = self.extract_with_sql(&format!(
            "select extractVoxels(wv.data, fullRegion())
             from warpedVolume wv
             where wv.studyId = {study_id} and wv.atlasId = {ATLAS_ID}"
        ))?;
        self.finish_query(&span, "full_study", &answer.cost);
        Ok(answer)
    }

    /// Q2-style spatial query: data inside a rectangular solid.
    pub fn box_data(&self, study_id: i64, min: [u32; 3], max: [u32; 3]) -> Result<QueryAnswer> {
        let span = Self::query_span("box");
        span.record_i64("study_id", study_id);
        let answer = self.extract_with_sql(&format!(
            "select extractVoxels(wv.data, boxRegion({}, {}, {}, {}, {}, {}))
             from warpedVolume wv
             where wv.studyId = {study_id} and wv.atlasId = {ATLAS_ID}",
            min[0], min[1], min[2], max[0], max[1], max[2]
        ))?;
        self.finish_query(&span, "box", &answer.cost);
        Ok(answer)
    }

    /// Q3/Q4-style spatial query: data inside a named structure — the
    /// exact Section 3.4 query pair.
    pub fn structure_data(&self, study_id: i64, structure: &str) -> Result<QueryAnswer> {
        let span = Self::query_span("structure");
        span.record_i64("study_id", study_id);
        span.record_str("structure", structure);
        let answer = self.extract_with_sql(&format!(
            "select extractVoxels(wv.data, ast.region)
             from warpedVolume wv, atlasStructure ast, neuralStructure ns
             where wv.studyId = {study_id} and wv.atlasId = {ATLAS_ID} and
                   ast.atlasId = {ATLAS_ID} and
                   ast.structureId = ns.structureId and
                   ns.structureName = '{structure}'"
        ))?;
        self.finish_query(&span, "structure", &answer.cost);
        Ok(answer)
    }

    /// Q5-style attribute query: data within a stored intensity band.
    pub fn band_data(&self, study_id: i64, lo: u8, hi: u8) -> Result<QueryAnswer> {
        let span = Self::query_span("band");
        span.record_i64("study_id", study_id);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        let answer = self.extract_with_sql(&format!(
            "select extractVoxels(wv.data, b.region)
             from warpedVolume wv, intensityBand b
             where wv.studyId = {study_id} and b.studyId = {study_id} and
                   wv.atlasId = {ATLAS_ID} and
                   b.lo = {lo} and b.hi = {hi}"
        ))?;
        self.finish_query(&span, "band", &answer.cost);
        Ok(answer)
    }

    /// Attribute query over an *arbitrary* intensity range — an
    /// extension beyond the paper, which "queried intensity ranges that
    /// exactly matched intensity bands stored in the database".
    ///
    /// The stored bands act as the index the paper intended: the bands
    /// overlapping `lo..=hi` are UNIONed inside the DBMS (reading only
    /// band REGIONs, never the full volume), the union is extracted, and
    /// the boundary bands' excess voxels are filtered out of the answer
    /// — the same candidate-then-refine pattern as approximate REGIONs.
    pub fn intensity_range_data(&self, study_id: i64, lo: u8, hi: u8) -> Result<QueryAnswer> {
        if lo > hi {
            return Err(QbismError::NotFound(format!("empty intensity range {lo}-{hi}")));
        }
        let span = Self::query_span("intensity_range");
        span.record_i64("study_id", study_id);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        let width = self.config.band_width;
        let first_band = u16::from(lo) / width;
        let last_band = u16::from(hi) / width;
        let n = (last_band - first_band + 1) as usize;
        // select extractVoxels(wv.data, runion(b1.region, runion(...)))
        let mut region_expr = String::new();
        for i in 0..n {
            if i + 1 < n {
                region_expr.push_str(&format!("runion(b{}.region, ", i + 1));
            } else {
                region_expr.push_str(&format!("b{}.region", i + 1));
            }
        }
        region_expr.push_str(&")".repeat(n.saturating_sub(1)));
        let mut from = vec!["warpedVolume wv".to_string()];
        let mut preds =
            vec![format!("wv.studyId = {study_id}"), format!("wv.atlasId = {ATLAS_ID}")];
        for (i, band) in (first_band..=last_band).enumerate() {
            from.push(format!("intensityBand b{}", i + 1));
            preds.push(format!("b{}.studyId = {study_id}", i + 1));
            preds.push(format!("b{}.lo = {}", i + 1, band * width));
        }
        let sql = format!(
            "select extractVoxels(wv.data, {region_expr}) from {} where {}",
            from.join(", "),
            preds.join(" and ")
        );
        // Extract the candidate union, refine, then ship only the exact
        // answer (one shipment per query).
        let (candidate, _, partial) = self.extract_measured(&sql)?;
        let exact = candidate.filter_intensity(lo, hi);
        let cost = self.finish_cost(partial, data_region_wire_size(&exact))?;
        let answer = QueryAnswer { data: exact, cost };
        self.finish_query(&span, "intensity_range", &answer.cost);
        Ok(answer)
    }

    /// Q6-style mixed query: band ∩ structure, intersected inside the
    /// DBMS ("includes a call to intersection() in the select list and
    /// additional joins").
    pub fn band_in_structure(
        &self,
        study_id: i64,
        lo: u8,
        hi: u8,
        structure: &str,
    ) -> Result<QueryAnswer> {
        let span = Self::query_span("band_in_structure");
        span.record_i64("study_id", study_id);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        span.record_str("structure", structure);
        let answer = self.extract_with_sql(&format!(
            "select extractVoxels(wv.data, intersection(b.region, ast.region))
             from warpedVolume wv, intensityBand b, atlasStructure ast, neuralStructure ns
             where wv.studyId = {study_id} and b.studyId = {study_id} and
                   wv.atlasId = {ATLAS_ID} and ast.atlasId = {ATLAS_ID} and
                   b.lo = {lo} and b.hi = {hi} and
                   ast.structureId = ns.structureId and
                   ns.structureName = '{structure}'"
        ))?;
        self.finish_query(&span, "band_in_structure", &answer.cost);
        Ok(answer)
    }

    /// Table 4's multi-study query: the REGION where *all* the given
    /// studies have intensities in `lo..=hi`, computed as an n-way
    /// intersection of stored band REGIONs.
    ///
    /// Each study's band REGION is fetched by its own single-table
    /// query (a per-study stage the executor fans out over
    /// [`MedicalServer::set_threads`] workers); the intersection is
    /// then folded innermost-last — exactly the shape the nested
    /// `intersection(b1.region, intersection(..))` select list produced
    /// when this ran as one n-way join, so answers, I/O counts, row
    /// scans and wire bytes are unchanged, at any thread count.
    pub fn multi_study_band_region(
        &self,
        study_ids: &[i64],
        lo: u8,
        hi: u8,
    ) -> Result<(Region, QueryCost)> {
        if study_ids.is_empty() {
            return Err(QbismError::NotFound("no studies given".into()));
        }
        let span = Self::query_span("multi_study_band");
        span.record_u64("studies", study_ids.len() as u64);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        span.record_u64("threads", self.threads as u64);
        let plane = qbism_fault::current();
        // The executor forks the trace context: worker-side spans land
        // inside this query's tree, in study order, at any thread count.
        let fetched = Executor::new(self.threads).map(study_ids.to_vec(), |_, id| {
            let _fault = plane.clone().map(qbism_fault::FaultPlane::arm_shared);
            self.band_region_fetch(id, lo, hi)
        });
        // Ordered reduce: fold costs in study order (f64 sums are then
        // identical at every thread count); the first failing study in
        // study order decides the error, as the join's scan order did.
        let mut cost = QueryCost::default();
        let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(study_ids.len());
        let mut field_ids: Vec<Option<qbism_lfm::LongFieldId>> =
            Vec::with_capacity(study_ids.len());
        for fetch in fetched {
            let (bytes, field_id, partial) = fetch?;
            cost.accumulate(&self.db_cost(&partial));
            blobs.push(bytes);
            field_ids.push(field_id);
        }
        // The gather is server CPU, part of the database phase.
        let start = std::time::Instant::now();
        let (bytes, region, skips) = fold_band_regions(blobs, self.config.region_codec)?;
        // Galloping skips are credited to the
        // `qbism_lfm_compressed_decode_skips_total` metric.
        for (field_id, skipped) in field_ids.iter().zip(skips) {
            if let Some(id) = field_id {
                self.db.lfm_ref().note_decode_skips(*id, skipped);
            }
        }
        let fold_seconds = start.elapsed().as_secs_f64();
        cost.native_db_seconds += fold_seconds;
        cost.sim_db_seconds += fold_seconds;
        let wire_bytes = bytes.len() as u64;
        self.ship_answer(&mut cost, wire_bytes)?;
        self.finish_query(&span, "multi_study_band", &cost);
        Ok((region, cost))
    }

    /// The per-study stage of the multi-study query: fetch one study's
    /// stored band REGION bytes under a measurement bracket.
    fn band_region_fetch(
        &self,
        study_id: i64,
        lo: u8,
        hi: u8,
    ) -> Result<(Vec<u8>, Option<qbism_lfm::LongFieldId>, PartialCost)> {
        let bracket = IoBracket::begin();
        let start = std::time::Instant::now();
        let outcome = (|| {
            let rs = self.db.query(&format!(
                "select b.region from intensityBand b
                 where b.studyId = {study_id} and b.lo = {lo} and b.hi = {hi}"
            ))?;
            let rows_scanned = rs.rows_scanned;
            let value = rs
                .single_value()
                .map_err(|_| QbismError::NotFound(format!("query returned {} rows", rs.len())))?
                .clone();
            let (bytes, field_id): (Vec<u8>, _) = match value {
                Value::Long(id) => (self.db.read_long_field(id)?, Some(id)),
                Value::Bytes(b) => (b, None),
                other => {
                    return Err(QbismError::Wire(format!(
                        "multi-study answer is not a REGION: {other}"
                    )))
                }
            };
            Ok((bytes, field_id, rows_scanned))
        })();
        let native = start.elapsed().as_secs_f64();
        let (lfm, fault_latency) = bracket.finish();
        let (bytes, field_id, rows_scanned) = outcome?;
        Ok((
            bytes,
            field_id,
            PartialCost { lfm, rows_scanned, native_db_seconds: native, fault_latency },
        ))
    }

    /// The per-study stage of the multi-study band query, exposed for
    /// scatter/gather routers: one measured band-REGION fetch with its
    /// database-phase cost attached on success.  A failed fetch charges
    /// nothing — the router discards the attempt and retries a replica,
    /// which is what keeps the fault-free and failover cost columns
    /// byte-identical.
    pub fn band_region_stage(&self, study_id: i64, lo: u8, hi: u8) -> StudyFetch {
        match self.band_region_fetch(study_id, lo, hi) {
            Ok((bytes, _, partial)) => {
                StudyFetch { cost: Some(self.db_cost(&partial)), outcome: Ok(bytes) }
            }
            Err(e) => StudyFetch { cost: None, outcome: Err(e) },
        }
    }

    /// The Section 6.4 aggregate: voxel-wise average intensity inside a
    /// structure over a set of studies.  Only the per-study relevant
    /// pages are read; the answer is one structure-sized DATA_REGION —
    /// "the reduction in data traffic will be linear in the number of
    /// studies involved."
    ///
    /// The aggregate is the one query class that degrades gracefully: a
    /// study whose extraction fails — missing row, injected device
    /// fault — is skipped, the mean is taken over the survivors,
    /// `cost.coverage` drops below 1.0, and the per-study errors travel
    /// back in [`PopulationAnswer::skipped`].  Only when *every* study
    /// fails does the call return the first error.
    pub fn population_average(
        &self,
        study_ids: &[i64],
        structure: &str,
    ) -> Result<PopulationAnswer> {
        if study_ids.is_empty() {
            return Err(QbismError::NotFound("no studies given".into()));
        }
        let span = Self::query_span("population_average");
        span.record_u64("studies", study_ids.len() as u64);
        span.record_str("structure", structure);
        span.record_u64("threads", self.threads as u64);
        // Per-study measured extraction, fanned out over the executor
        // (each worker re-arms the caller's fault plane, so injected
        // schedules stay in force inside the pool), then folded into
        // one cost *in study order* — the deterministic reduce that
        // keeps QueryCost bit-identical at every thread count.  A
        // study whose decode fails still contributes the I/O its query
        // performed — the work was done, so the cost is real.
        let plane = qbism_fault::current();
        let per_study = Executor::new(self.threads).map(study_ids.to_vec(), |_, id| {
            let _fault = plane.clone().map(qbism_fault::FaultPlane::arm_shared);
            self.population_stage(id, structure)
        });
        let mut cost = QueryCost::default();
        let mut extracts: Vec<DataRegion<u8>> = Vec::with_capacity(study_ids.len());
        let mut skipped: Vec<(i64, QbismError)> = Vec::new();
        for (extract, &id) in per_study.into_iter().zip(study_ids) {
            if let Some(db_cost) = extract.cost {
                cost.accumulate(&db_cost);
            }
            match extract.outcome {
                Ok(extract) => extracts.push(extract),
                Err(e) => skipped.push((id, e)),
            }
        }
        // Voxel-wise mean across the aligned extractions (server CPU,
        // still part of the database phase).
        let start = std::time::Instant::now();
        let Some(data) = voxel_mean(&extracts) else {
            // Nothing survived: degrading further would return an empty
            // answer pretending to be a mean — fail with the first cause.
            let (id, error) = skipped.remove(0);
            span.record_str(
                "failed",
                &format!("all {} studies; first: study {id}", study_ids.len()),
            );
            return Err(error);
        };
        let mean_seconds = start.elapsed().as_secs_f64();
        cost.coverage = extracts.len() as f64 / study_ids.len() as f64;
        cost.native_db_seconds += mean_seconds;
        cost.sim_db_seconds += mean_seconds;
        // Only the final averaged DATA_REGION crosses the wire.
        self.ship_answer(&mut cost, data_region_wire_size(&data))?;
        self.finish_query(&span, "population_average", &cost);
        Ok(PopulationAnswer { data, cost, skipped })
    }

    /// The Section 3.4 "first query": atlas coordinate-space and patient
    /// information needed for rendering and annotation.  Returns the
    /// (columns, row) of the catalog lookup.
    pub fn atlas_info(&self, study_id: i64) -> Result<Vec<Value>> {
        let span = Self::query_span("atlas_info");
        span.record_i64("study_id", study_id);
        let rs = self.db.query(&format!(
            "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
                    a.atlasId, p.name, p.patientId, rv.date
             from atlas a, rawVolume rv, warpedVolume wv, patient p
             where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
                   rv.patientId = p.patientId and rv.studyId = {study_id} and
                   a.atlasName = 'Talairach'"
        ))?;
        rs.rows().first().cloned().ok_or_else(|| QbismError::NotFound(format!("study {study_id}")))
    }

    /// Loads a warped VOLUME fully (used by rendering examples to
    /// texture meshes).  Charged as ordinary LFM reads.
    pub fn warped_volume(&self, study_id: i64) -> Result<Volume> {
        let span = Self::query_span("warped_volume");
        span.record_i64("study_id", study_id);
        let rs = self.db.query(&format!(
            "select wv.data from warpedVolume wv
             where wv.studyId = {study_id} and wv.atlasId = {ATLAS_ID}"
        ))?;
        let id = rs
            .single_value()
            .map_err(|_| QbismError::NotFound(format!("study {study_id}")))?
            .as_long()
            .ok_or_else(|| QbismError::Wire("warpedVolume.data is not a long field".into()))?;
        let bytes = self.db.read_long_field(id)?;
        crate::wire::volume_from_long_field(self.config.geometry(), &bytes)
    }

    /// Loads a structure's stored surface mesh.
    pub fn structure_mesh(&self, structure: &str) -> Result<qbism_geometry::TriMesh> {
        let span = Self::query_span("structure_mesh");
        span.record_str("structure", structure);
        let rs = self.db.query(&format!(
            "select ast.surface from atlasStructure ast, neuralStructure ns
             where ast.structureId = ns.structureId and ast.atlasId = {ATLAS_ID} and
                   ns.structureName = '{structure}'"
        ))?;
        let id = rs
            .single_value()
            .map_err(|_| QbismError::NotFound(format!("structure {structure}")))?
            .as_long()
            .ok_or_else(|| QbismError::Wire("surface is not a long field".into()))?;
        let bytes = self.db.read_long_field(id)?;
        crate::wire::mesh_from_long_field(&bytes)
    }

    /// Loads a structure's stored volumetric REGION.
    pub fn structure_region(&self, structure: &str) -> Result<Region> {
        let span = Self::query_span("structure_region");
        span.record_str("structure", structure);
        let rs = self.db.query(&format!(
            "select ast.region from atlasStructure ast, neuralStructure ns
             where ast.structureId = ns.structureId and ast.atlasId = {ATLAS_ID} and
                   ns.structureName = '{structure}'"
        ))?;
        let id = rs
            .single_value()
            .map_err(|_| QbismError::NotFound(format!("structure {structure}")))?
            .as_long()
            .ok_or_else(|| QbismError::Wire("region is not a long field".into()))?;
        let bytes = self.db.read_long_field(id)?;
        Ok(RegionCodec::decode(&bytes)?)
    }

    // ----------------------------------------------------------------
    // Internals
    // ----------------------------------------------------------------

    /// Opens the per-class root span for a query method.
    fn query_span(class: &str) -> trace::SpanGuard {
        if !qbism_obs::enabled() {
            return trace::root("");
        }
        trace::root(format!("query.{class}"))
    }

    /// Records a finished query's costs on its span and in the global
    /// per-class metrics.
    fn finish_query(&self, span: &trace::SpanGuard, class: &str, cost: &QueryCost) {
        if !qbism_obs::enabled() {
            return;
        }
        match self.metrics.classes.get(class) {
            Some(m) => {
                m.seconds.observe(cost.native_db_seconds);
                m.total.inc();
            }
            None => {
                // Unknown class (future query kinds): fall back to the
                // registry so nothing is silently dropped.
                let reg = qbism_obs::global();
                reg.histogram_with("qbism_query_seconds", &[("class", class)])
                    .observe(cost.native_db_seconds);
                reg.counter_with("qbism_query_total", &[("class", class)]).inc();
            }
        }
        self.metrics.wire_bytes.add(cost.wire_bytes);
        self.metrics.rows_scanned.add(cost.rows_scanned);
        span.record_u64("lfm_pages_read", cost.lfm.pages_read);
        span.record_u64("lfm_extents_read", cost.lfm.extents_read);
        span.record_u64("rows_scanned", cost.rows_scanned);
        span.record_u64("wire_bytes", cost.wire_bytes);
        span.record_u64("messages", cost.messages);
        span.record_f64("sim_db_s", cost.sim_db_seconds);
        span.record_f64("sim_net_s", cost.sim_net_seconds);
        if cost.coverage < 1.0 {
            span.record_f64("coverage", cost.coverage);
        }
    }

    /// Runs a one-value SQL query under measurement brackets.
    ///
    /// Measurement is a thread-local [`IoBracket`], not a before/after
    /// delta of the global LFM counters — so concurrent queries on
    /// other threads never leak their I/O into this query's cost.
    fn run_measured(&self, sql: &str) -> Result<(Value, PartialCost)> {
        let bracket = IoBracket::begin();
        let start = std::time::Instant::now();
        let outcome = self.db.query(sql);
        let native = start.elapsed().as_secs_f64();
        let (lfm, fault_latency) = bracket.finish();
        let rs = outcome?;
        let value = rs
            .single_value()
            .map_err(|_| QbismError::NotFound(format!("query returned {} rows", rs.len())))?
            .clone();
        Ok((
            value,
            PartialCost {
                lfm,
                rows_scanned: rs.rows_scanned,
                native_db_seconds: native,
                fault_latency,
            },
        ))
    }

    /// The per-study stage of the population aggregate: one measured
    /// extraction.  The database cost is reported whenever the query
    /// itself ran, even if the answer then fails to decode — which is
    /// exactly what the sequential loop charged.
    ///
    /// Public so scatter/gather routers (`qbism-cluster`) can run the
    /// stage on a shard's server and fold the costs themselves; the
    /// stage never ships, so the router keeps the ship-exactly-once
    /// invariant.
    pub fn population_stage(&self, id: i64, structure: &str) -> StudyExtract {
        let measured = self
            .run_measured(&format!(
                "select extractVoxels(wv.data, ast.region)
                 from warpedVolume wv, atlasStructure ast, neuralStructure ns
                 where wv.studyId = {id} and wv.atlasId = {ATLAS_ID} and
                       ast.atlasId = {ATLAS_ID} and
                       ast.structureId = ns.structureId and
                       ns.structureName = '{structure}'"
            ))
            .map_err(|e| match e {
                QbismError::NotFound(_) => {
                    QbismError::NotFound(format!("study {id} / {structure}"))
                }
                other => other,
            });
        match measured {
            Err(e) => StudyExtract { cost: None, outcome: Err(e) },
            Ok((value, partial)) => {
                let cost = self.db_cost(&partial);
                let outcome = value
                    .as_bytes()
                    .ok_or_else(|| QbismError::Wire("extract returned a non-bytes value".into()))
                    .and_then(decode_data_region);
                StudyExtract { cost: Some(cost), outcome }
            }
        }
    }

    /// The database-phase bracket of a cost: everything except shipping.
    fn db_cost(&self, partial: &PartialCost) -> QueryCost {
        QueryCost {
            lfm: partial.lfm,
            rows_scanned: partial.rows_scanned,
            native_db_seconds: partial.native_db_seconds,
            sim_db_seconds: self.disk.seconds(&partial.lfm)
                + partial.native_db_seconds
                + partial.fault_latency,
            ..QueryCost::default()
        }
    }

    /// Ships the answer payload over the RPC channel and folds the
    /// receipt into `cost`.  With no fault plane armed this is exactly
    /// the lossless network model; under injected message loss the
    /// channel's retries surface here as extra messages and backoff
    /// seconds, and an exhausted retry budget as [`QbismError::Net`].
    fn ship_answer(&self, cost: &mut QueryCost, wire_bytes: u64) -> Result<()> {
        let receipt = self.chan.ship(wire_bytes).map_err(QbismError::Net)?;
        cost.wire_bytes = wire_bytes;
        cost.messages = receipt.messages;
        cost.sim_net_seconds = receipt.seconds;
        Ok(())
    }

    fn finish_cost(&self, partial: PartialCost, wire_bytes: u64) -> Result<QueryCost> {
        let mut cost = self.db_cost(&partial);
        self.ship_answer(&mut cost, wire_bytes)?;
        Ok(cost)
    }

    /// Runs an `extractVoxels` query and decodes its DATA_REGION without
    /// shipping — callers that post-process the answer (the intensity
    /// range refinement) ship the final payload exactly once.
    fn extract_measured(&self, sql: &str) -> Result<(DataRegion<u8>, u64, PartialCost)> {
        let (value, partial) = self.run_measured(sql)?;
        let bytes = value
            .as_bytes()
            .ok_or_else(|| QbismError::Wire("extract returned a non-bytes value".into()))?;
        let data = decode_data_region(bytes)?;
        Ok((data, bytes.len() as u64, partial))
    }

    fn extract_with_sql(&self, sql: &str) -> Result<QueryAnswer> {
        let (data, wire_bytes, partial) = self.extract_measured(sql)?;
        let cost = self.finish_cost(partial, wire_bytes)?;
        Ok(QueryAnswer { data, cost })
    }
}

struct PartialCost {
    lfm: IoStats,
    rows_scanned: u64,
    native_db_seconds: f64,
    fault_latency: f64,
}

/// One study's contribution to the population aggregate: the database
/// cost of its measured query (present whenever the query ran) and the
/// decoded extraction or the error that will skip the study.
pub struct StudyExtract {
    /// Database-phase cost of the measured query, present whenever the
    /// query itself ran (even if decoding then failed).
    pub cost: Option<QueryCost>,
    /// The decoded extraction, or the error that skips the study.
    pub outcome: Result<DataRegion<u8>>,
}

/// One study's contribution to the multi-study band query: the
/// database-phase cost (present only on success — a failed fetch is
/// discarded wholesale by failover routers) and the stored band-REGION
/// bytes or the error.
pub struct StudyFetch {
    /// Database-phase cost of the measured fetch, present on success.
    pub cost: Option<QueryCost>,
    /// The study's stored band-REGION bytes, or the error.
    pub outcome: Result<Vec<u8>>,
}

/// The gather of the multi-study band query, shared by
/// [`MedicalServer::multi_study_band_region`] and scatter/gather
/// routers so both ship byte-identical answers in every tablespace
/// mode: the n-way intersection of the studies' stored band REGION
/// `blobs` (study order), as answer bytes, the decoded [`Region`], and
/// each operand's galloping skip count (empty unless the operands
/// streamed compressed).
///
/// One study degenerates to the stored bytes.  Otherwise the operands
/// open — all-compressed ones as cursors straight over the compact
/// payloads, anything else decoded — their grids are checked once, and
/// one k-way simultaneous merge intersects them (no intermediate region
/// per fold step — intersection is associative and commutative, so the
/// answer is byte-identical to a pairwise fold).  Compressed cursors
/// gallop past non-overlapping skip blocks and subtrees, only the
/// answer's runs are ever materialized, and the answer re-encodes
/// compressed; decoded operands re-encode with `codec`.
pub fn fold_band_regions(
    mut blobs: Vec<Vec<u8>>,
    codec: RegionCodec,
) -> Result<(Vec<u8>, Region, Vec<u64>)> {
    if let [bytes] = &mut blobs[..] {
        let bytes = std::mem::take(bytes);
        let region = RegionCodec::decode(&bytes)?;
        return Ok((bytes, region, Vec::new()));
    }
    if blobs.iter().all(|b| qbism_region::compressed::is_compressed(b)) {
        let mut opened = Vec::with_capacity(blobs.len());
        for blob in &blobs {
            opened.push(qbism_region::compressed_cursor(blob)?);
        }
        let geom = common_grid(opened.iter().map(|(g, _)| *g))?;
        let mut refs: Vec<_> = opened.iter_mut().map(|(_, cursor)| cursor).collect();
        let runs = kernel::intersect_k_cursors(&mut refs)?;
        let skips = opened.iter().map(|(_, cursor)| cursor.skip_count()).collect();
        let acc = Region::from_runs(geom, runs);
        let bytes = qbism_region::encode_compressed(&acc)?;
        return Ok((bytes, acc, skips));
    }
    let mut regions = Vec::with_capacity(blobs.len());
    for blob in &blobs {
        regions.push(RegionCodec::decode(blob)?);
    }
    let geom = common_grid(regions.iter().map(Region::geometry))?;
    let lists: Vec<_> = regions.iter().map(Region::runs).collect();
    let acc = Region::from_runs(geom, kernel::intersect_k(&lists));
    let bytes = codec.encode(&acc)?;
    Ok((bytes, acc, Vec::new()))
}

/// The one grid every operand of a fold must share.
fn common_grid(mut grids: impl Iterator<Item = GridGeometry>) -> Result<GridGeometry> {
    let Some(geom) = grids.next() else {
        return Err(QbismError::NotFound("band query needs at least one study".into()));
    };
    if grids.any(|g| g != geom) {
        return Err(QbismError::Wire("band REGIONs on mismatched grids".into()));
    }
    Ok(geom)
}

/// The gather of the population aggregate, shared like
/// [`fold_band_regions`]: the voxel-wise mean of aligned per-study
/// extractions over the first one's REGION, `None` when there are none.
pub fn voxel_mean(extracts: &[DataRegion<u8>]) -> Option<DataRegion<u8>> {
    let first = extracts.first()?;
    let n = extracts.len() as u32;
    let mut values = Vec::with_capacity(first.voxel_count());
    for i in 0..first.voxel_count() {
        let sum: u32 = extracts.iter().map(|e| u32::from(e.values()[i])).sum();
        values.push((sum / n) as u8);
    }
    Some(DataRegion::new(first.region().clone(), values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::QbismSystem;
    use crate::QbismConfig;

    fn system() -> QbismSystem {
        QbismSystem::install(&QbismConfig::small_test()).unwrap()
    }

    #[test]
    fn full_study_returns_every_voxel() {
        let sys = system();
        let a = sys.server.full_study(1).unwrap();
        assert_eq!(a.voxel_count(), 4096);
        assert_eq!(a.run_count(), 1, "the whole grid is one run");
        assert!(a.cost.lfm.pages_read >= 1);
        assert!(a.cost.messages > 2);
        assert!(a.cost.sim_db_seconds > 0.0);
        assert!(a.cost.sim_net_seconds > 0.0);
    }

    #[test]
    fn box_query_counts_match_geometry() {
        let sys = system();
        let a = sys.server.box_data(1, [4, 4, 4], [11, 11, 11]).unwrap();
        assert_eq!(a.voxel_count(), 512);
        // every returned voxel is inside the box
        for (x, y, z) in a.data.region().iter_voxels3() {
            assert!((4..=11).contains(&x) && (4..=11).contains(&y) && (4..=11).contains(&z));
        }
    }

    #[test]
    fn structure_query_matches_ground_truth() {
        let sys = system();
        let truth = sys.atlas.structure("ntal").unwrap().region.clone();
        let a = sys.server.structure_data(1, "ntal").unwrap();
        assert_eq!(a.data.region(), &truth);
        // spot-check values against the stored warped volume
        let vol = sys.server.warped_volume(1).unwrap();
        let direct = vol.extract(&truth).unwrap();
        assert_eq!(a.data.values(), direct.values());
    }

    #[test]
    fn band_query_matches_band_semantics() {
        let sys = system();
        let a = sys.server.band_data(1, 32, 63).unwrap();
        for &v in a.data.values() {
            assert!((32..=63).contains(&v), "value {v} outside the band");
        }
        let vol = sys.server.warped_volume(1).unwrap();
        let expect = vol.intensity_region(32, 63);
        assert_eq!(a.data.region(), &expect);
    }

    #[test]
    fn mixed_query_is_the_intersection() {
        let sys = system();
        let band = sys.server.band_data(1, 32, 63).unwrap();
        let ntal1 = sys.atlas.structure("ntal1").unwrap().region.clone();
        let mixed = sys.server.band_in_structure(1, 32, 63, "ntal1").unwrap();
        let expect = band.data.region().intersect(&ntal1);
        assert_eq!(mixed.data.region(), &expect);
        assert!(mixed.voxel_count() <= band.voxel_count());
    }

    #[test]
    fn early_filtering_reduces_traffic() {
        // The paper's central claim: selective queries ship and read far
        // less than the full-study query.
        let sys = system();
        let full = sys.server.full_study(1).unwrap();
        let small = sys.server.structure_data(1, "thalamus").unwrap();
        assert!(small.voxel_count() < full.voxel_count() / 4);
        assert!(small.cost.wire_bytes < full.cost.wire_bytes / 4);
        assert!(small.cost.messages < full.cost.messages);
        assert!(small.cost.sim_net_seconds < full.cost.sim_net_seconds);
    }

    #[test]
    fn multi_study_intersection_shrinks_with_studies() {
        let sys = system();
        let (r1, _) = sys.server.multi_study_band_region(&[1], 32, 63).unwrap();
        let (r12, cost) = sys.server.multi_study_band_region(&[1, 2], 32, 63).unwrap();
        assert!(r12.voxel_count() <= r1.voxel_count());
        assert!(r1.contains_region(&r12));
        assert!(cost.lfm.pages_read >= 2, "reads both band REGIONs");
    }

    #[test]
    fn population_average_matches_manual_mean() {
        let sys = system();
        let avg = sys.server.population_average(&[1, 2], "ntal").unwrap();
        let a = sys.server.structure_data(1, "ntal").unwrap();
        let b = sys.server.structure_data(2, "ntal").unwrap();
        for ((&m, &x), &y) in avg.data.values().iter().zip(a.data.values()).zip(b.data.values()) {
            assert_eq!(u32::from(m), (u32::from(x) + u32::from(y)) / 2);
        }
    }

    #[test]
    fn intensity_range_extension_matches_exact_semantics() {
        let sys = system();
        // A range straddling two stored bands (32-wide): 40..=80.
        let a = sys.server.intensity_range_data(1, 40, 80).unwrap();
        let vol = sys.server.warped_volume(1).unwrap();
        let expect = vol.intensity_region(40, 80);
        assert_eq!(a.data.region(), &expect);
        for &v in a.data.values() {
            assert!((40..=80).contains(&v));
        }
        // Aligned ranges agree with the plain band query.
        let b = sys.server.intensity_range_data(1, 32, 63).unwrap();
        let plain = sys.server.band_data(1, 32, 63).unwrap();
        assert_eq!(b.data, plain.data);
        // Degenerate range errors.
        assert!(sys.server.intensity_range_data(1, 90, 40).is_err());
    }

    #[test]
    fn atlas_info_returns_metadata() {
        let sys = system();
        let row = sys.server.atlas_info(1).unwrap();
        assert_eq!(row[0], Value::Int(16), "grid resolution n");
        assert!(matches!(row[8], Value::Str(_)), "patient name present");
    }

    #[test]
    fn missing_entities_are_not_found() {
        let sys = system();
        assert!(matches!(sys.server.structure_data(99, "ntal"), Err(QbismError::NotFound(_))));
        assert!(matches!(sys.server.structure_data(1, "amygdala"), Err(QbismError::NotFound(_))));
        assert!(matches!(
            sys.server.multi_study_band_region(&[], 0, 31),
            Err(QbismError::NotFound(_))
        ));
        assert!(matches!(sys.server.atlas_info(42), Err(QbismError::NotFound(_))));
    }

    #[test]
    fn mesh_and_region_accessors() {
        let sys = system();
        let mesh = sys.server.structure_mesh("thalamus").unwrap();
        assert!(mesh.triangle_count() > 0);
        let region = sys.server.structure_region("thalamus").unwrap();
        assert_eq!(region, sys.atlas.structure("thalamus").unwrap().region);
    }
}
