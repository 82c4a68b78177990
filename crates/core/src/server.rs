//! MedicalServer: high-level query specifications → SQL → answers.
//!
//! "MedicalServer translates high-level query specifications it receives
//! from DX into SQL, sends the query strings to Starburst, and then
//! returns the results to DX."  Each public method is one of the query
//! classes of Sections 2.1 and 6: simple (full study), spatial
//! (box / structure), attribute (band), mixed (band ∩ structure),
//! multi-study (n-way intersection), and the population aggregate.
//!
//! The SQL is a fixed statement table compiled once, when the server is
//! built; a query binds the caller's values as `?` parameters — none is
//! ever spliced into statement text — and runs through one measured path.
//!
//! Every answer carries a [`QueryCost`]: exact LFM I/O counts, tuple
//! scans, native elapsed time, and simulated 1994 times from the disk
//! and network models — the raw material of Tables 3 and 4.

use crate::config::QbismConfig;
use crate::loader::ATLAS_ID;
use crate::wire::data_region_wire_size;
use crate::{QbismError, Result};
use qbism_lfm::{CacheConfig, CacheStats, DiskModel, IoBracket, IoStats};
use qbism_netsim::{NetStats, NetworkModel, RpcChannel, SharedRpcChannel};
use qbism_obs::trace;
use qbism_region::{kernel, GridGeometry, Region, RegionCodec};
use qbism_starburst::{Database, Prepared, Value};
use qbism_volume::{DataRegion, Volume};

/// The host clock: a query's `native_*` seconds, which `measured` and
/// `add_gather_seconds` also add into `sim_db_seconds` (ROADMAP 9a).
#[expect(
    clippy::disallowed_methods,
    reason = "wall clock feeds native_* seconds and, through measured and add_gather_seconds, sim_db_seconds (ROADMAP 9a); tests/tables_golden.rs masks the cells it reaches, and the counts and net columns derive from simulated stats"
)]
pub(crate) fn host_now() -> std::time::Instant {
    std::time::Instant::now()
}

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

    /// Charges CPU spent gathering per-study results: native time that
    /// is also part of the simulated database phase.
    fn add_gather_seconds(&mut self, seconds: f64) {
        self.native_db_seconds += seconds;
        self.sim_db_seconds += seconds;
    }

    /// Stamps the roll-up costs of a finished query on its root span.
    pub fn record_on(&self, span: &trace::SpanGuard) {
        span.record_u64("lfm_pages_read", self.lfm.pages_read);
        span.record_u64("lfm_extents_read", self.lfm.extents_read);
        span.record_u64("rows_scanned", self.rows_scanned);
        span.record_u64("wire_bytes", self.wire_bytes);
        span.record_u64("messages", self.messages);
        span.record_f64("sim_db_s", self.sim_db_seconds);
        span.record_f64("sim_net_s", self.sim_net_seconds);
        if self.coverage < 1.0 {
            span.record_f64("coverage", self.coverage);
        }
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
///
/// `E` is the per-study error: [`QbismError`] from the single-node
/// server, a cluster error from a scatter/gather router.
#[derive(Debug)]
pub struct PopulationAnswer<E = QbismError> {
    /// The voxel-wise mean over the studies that could be read.
    pub data: DataRegion<u8>,
    /// Cost accounting (`coverage < 1.0` when studies were skipped).
    pub cost: QueryCost,
    /// Studies excluded from the mean, with the error that excluded each.
    pub skipped: Vec<(i64, E)>,
}

impl<E> PopulationAnswer<E> {
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

/// The fixed statement shapes every query and accessor enters through,
/// compiled once at construction (no DROP or ALTER exists to make one
/// stale).  Each `?` is bound per call, in text order.
struct Statements {
    full_study: Prepared,
    box_data: Prepared,
    /// Also the per-study stage of the population aggregate.
    structure: Prepared,
    band: Prepared,
    band_in_structure: Prepared,
    /// The per-study stage of the multi-study band query.
    band_region: Prepared,
    /// `[n - 1]` unions `n` stored bands: the join shape depends on `n` only.
    intensity_range: Vec<Prepared>,
    atlas_info: Prepared,
    warped_volume: Prepared,
    structure_mesh: Prepared,
    structure_region: Prepared,
}

impl Statements {
    fn prepare(db: &Database, band_width: u16) -> Result<Self> {
        let prepare = |sql: &str| db.prepare(sql);
        let bands = usize::from(256 / band_width);
        Ok(Statements {
            full_study: prepare(&format!(
                "select extractVoxels(wv.data, fullRegion())
                 from warpedVolume wv
                 where wv.studyId = ? and wv.atlasId = {ATLAS_ID}"
            ))?,
            box_data: prepare(&format!(
                "select extractVoxels(wv.data, boxRegion(?, ?, ?, ?, ?, ?))
                 from warpedVolume wv
                 where wv.studyId = ? and wv.atlasId = {ATLAS_ID}"
            ))?,
            structure: prepare(&format!(
                "select extractVoxels(wv.data, ast.region)
                 from warpedVolume wv, atlasStructure ast, neuralStructure ns
                 where wv.studyId = ? and wv.atlasId = {ATLAS_ID} and
                       ast.atlasId = {ATLAS_ID} and
                       ast.structureId = ns.structureId and
                       ns.structureName = ?"
            ))?,
            band: prepare(&format!(
                "select extractVoxels(wv.data, b.region)
                 from warpedVolume wv, intensityBand b
                 where wv.studyId = ? and b.studyId = ? and
                       wv.atlasId = {ATLAS_ID} and
                       b.lo = ? and b.hi = ?"
            ))?,
            band_in_structure: prepare(&format!(
                "select extractVoxels(wv.data, intersection(b.region, ast.region))
                 from warpedVolume wv, intensityBand b, atlasStructure ast, neuralStructure ns
                 where wv.studyId = ? and b.studyId = ? and
                       wv.atlasId = {ATLAS_ID} and ast.atlasId = {ATLAS_ID} and
                       b.lo = ? and b.hi = ? and
                       ast.structureId = ns.structureId and
                       ns.structureName = ?"
            ))?,
            band_region: prepare(
                "select b.region from intensityBand b
                 where b.studyId = ? and b.lo = ? and b.hi = ?",
            )?,
            intensity_range: (1..=bands)
                .map(|n| prepare(&Self::intensity_range_sql(n)))
                .collect::<std::result::Result<_, _>>()?,
            atlas_info: prepare(
                "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
                        a.atlasId, p.name, p.patientId, rv.date
                 from atlas a, rawVolume rv, warpedVolume wv, patient p
                 where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
                       rv.patientId = p.patientId and rv.studyId = ? and
                       a.atlasName = 'Talairach'",
            )?,
            warped_volume: prepare(&format!(
                "select wv.data from warpedVolume wv
                 where wv.studyId = ? and wv.atlasId = {ATLAS_ID}"
            ))?,
            structure_mesh: prepare(&format!(
                "select ast.surface from atlasStructure ast, neuralStructure ns
                 where ast.structureId = ns.structureId and ast.atlasId = {ATLAS_ID} and
                       ns.structureName = ?"
            ))?,
            structure_region: prepare(&format!(
                "select ast.region from atlasStructure ast, neuralStructure ns
                 where ast.structureId = ns.structureId and ast.atlasId = {ATLAS_ID} and
                       ns.structureName = ?"
            ))?,
        })
    }

    /// `select extractVoxels(wv.data, runion(b1.region, runion(…)))` over
    /// `n` bands; parameters are the study, then `(study, lo)` per band.
    fn intensity_range_sql(n: usize) -> String {
        let mut region = format!("b{n}.region");
        for i in (1..n).rev() {
            region = format!("runion(b{i}.region, {region})");
        }
        let mut from = String::from("warpedVolume wv");
        let mut preds = format!("wv.studyId = ? and wv.atlasId = {ATLAS_ID}");
        for i in 1..=n {
            from.push_str(&format!(", intensityBand b{i}"));
            preds.push_str(&format!(" and b{i}.studyId = ? and b{i}.lo = ?"));
        }
        format!("select extractVoxels(wv.data, {region}) from {from} where {preds}")
    }
}

/// The query front end over a populated database.
///
/// All query methods take `&self`: per-query I/O is measured with
/// thread-local [`IoBracket`]s, answers ship through a mutex-guarded
/// [`SharedRpcChannel`], and the LFM's counters sit behind their own
/// locks — so any number of client threads may run queries against one
/// shared server concurrently.  Mutation (loading data, reconfiguring
/// the cache) still requires `&mut self`, which the borrow checker
/// keeps disjoint from in-flight queries.
pub struct MedicalServer {
    db: Database,
    config: QbismConfig,
    disk: DiskModel,
    chan: SharedRpcChannel,
    statements: Statements,
}

impl MedicalServer {
    /// Wraps a populated database, compiling the statement table against
    /// it; errors if the medical schema is not there to bind to.
    pub fn new(db: Database, config: QbismConfig) -> Result<Self> {
        config.validate()?;
        Ok(MedicalServer {
            statements: Statements::prepare(&db, config.band_width)?,
            db,
            config,
            disk: DiskModel::RS6000_1994,
            chan: SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994)),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &QbismConfig {
        &self.config
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
        let span = Self::query_span("query.full_study");
        span.record_i64("study_id", study_id);
        let stmt = &self.statements.full_study;
        self.extract(&span, stmt, &[Value::Int(study_id)])
    }

    /// Q2-style spatial query: data inside a rectangular solid.
    pub fn box_data(&self, study_id: i64, min: [u32; 3], max: [u32; 3]) -> Result<QueryAnswer> {
        let span = Self::query_span("query.box");
        span.record_i64("study_id", study_id);
        let corners = min.iter().chain(&max).map(|&c| Value::Int(i64::from(c)));
        let params: Vec<Value> = corners.chain([Value::Int(study_id)]).collect();
        self.extract(&span, &self.statements.box_data, &params)
    }

    /// Q3/Q4-style spatial query: data inside a named structure — the
    /// exact Section 3.4 query pair.
    pub fn structure_data(&self, study_id: i64, structure: &str) -> Result<QueryAnswer> {
        let span = Self::query_span("query.structure");
        span.record_i64("study_id", study_id);
        span.record_str("structure", structure);
        let params = [Value::Int(study_id), Value::from(structure)];
        self.extract(&span, &self.statements.structure, &params)
    }

    /// Q5-style attribute query: data within a stored intensity band.
    pub fn band_data(&self, study_id: i64, lo: u8, hi: u8) -> Result<QueryAnswer> {
        let span = Self::query_span("query.band");
        span.record_i64("study_id", study_id);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        let study = Value::Int(study_id);
        let params = [study.clone(), study, Value::Int(lo.into()), Value::Int(hi.into())];
        self.extract(&span, &self.statements.band, &params)
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
        let span = Self::query_span("query.intensity_range");
        span.record_i64("study_id", study_id);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        let width = self.config.band_width;
        let bands = u16::from(lo) / width..=u16::from(hi) / width;
        let stmt = &self.statements.intensity_range[bands.len() - 1];
        let mut params = vec![Value::Int(study_id)];
        for band in bands {
            params.extend([Value::Int(study_id), Value::Int(i64::from(band * width))]);
        }
        // Extract the candidate union, refine, then ship only the exact
        // answer (one shipment per query).
        let (candidate, cost) = self.measured(stmt, &params, Self::data_region).into_result()?;
        self.answer(&span, candidate.filter_intensity(lo, hi), cost)
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
        let span = Self::query_span("query.band_in_structure");
        span.record_i64("study_id", study_id);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        span.record_str("structure", structure);
        let study = Value::Int(study_id);
        let (lo, hi) = (Value::Int(lo.into()), Value::Int(hi.into()));
        let params = [study.clone(), study, lo, hi, Value::from(structure)];
        self.extract(&span, &self.statements.band_in_structure, &params)
    }

    /// Table 4's multi-study query: the REGION where *all* the given
    /// studies have intensities in `lo..=hi`, computed as an n-way
    /// intersection of stored band REGIONs.
    ///
    /// Each study's band REGION is fetched by its own single-table
    /// query, in study order; the intersection is then folded
    /// innermost-last — exactly the shape the nested
    /// `intersection(b1.region, intersection(..))` select list produced
    /// when this ran as one n-way join, so answers, I/O counts, row
    /// scans and wire bytes are unchanged.
    pub fn multi_study_band_region(
        &self,
        study_ids: &[i64],
        lo: u8,
        hi: u8,
    ) -> Result<(Region, QueryCost)> {
        let span = Self::query_span("query.multi_study_band");
        span.record_u64("studies", study_ids.len() as u64);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        let fetched: Vec<_> =
            study_ids.iter().map(|&id| self.band_region_stage(id, lo, hi)).collect();
        let (mut cost, fold) = reduce_band_stages(fetched, self.config.stored_codec(), |e| e)?;
        // The descent's skips are credited to the
        // `qbism_lfm_compressed_decode_skips_total` metric.
        self.db.lfm_ref().note_decode_skips(fold.decode_skips);
        span.record_u64("decode_skips", fold.decode_skips);
        span.record_u64("leaves_masked", fold.leaves_masked);
        self.ship_answer(&mut cost, fold.wire_bytes)?;
        cost.record_on(&span);
        Ok((fold.region, cost))
    }

    /// The per-study stage of the multi-study band query: one measured
    /// fetch of the study's stored band REGION, long field and bytes.
    /// Public, like [`MedicalServer::population_stage`], for
    /// scatter/gather routers; a stage never ships.
    pub fn band_region_stage(&self, study_id: i64, lo: u8, hi: u8) -> StudyStage<Vec<u8>> {
        let params = [Value::Int(study_id), Value::Int(lo.into()), Value::Int(hi.into())];
        self.measured(&self.statements.band_region, &params, Self::long_field)
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
        let span = Self::query_span("query.population_average");
        span.record_u64("studies", study_ids.len() as u64);
        span.record_str("structure", structure);
        let per_study: Vec<_> =
            study_ids.iter().map(|&id| self.population_stage(id, structure)).collect();
        let no_studies = || QbismError::NotFound("no studies given".into());
        let mut answer = reduce_population_stages(study_ids, per_study, no_studies, |e| e)?;
        // Only the final averaged DATA_REGION crosses the wire.
        self.ship_answer(&mut answer.cost, data_region_wire_size(&answer.data))?;
        answer.cost.record_on(&span);
        Ok(answer)
    }

    /// The per-study stage of the population aggregate: one measured
    /// extraction.  Public so scatter/gather routers (`qbism-cluster`)
    /// can run it on a shard's server; the stage never ships, so the
    /// router keeps the ship-exactly-once invariant.
    pub fn population_stage(&self, id: i64, structure: &str) -> StudyStage<DataRegion<u8>> {
        let params = [Value::Int(id), Value::from(structure)];
        self.measured(&self.statements.structure, &params, Self::data_region)
            .named(|| format!("study {id} / {structure}"))
    }

    /// The Section 3.4 "first query": atlas coordinate-space and patient
    /// information needed for rendering and annotation.  Returns the
    /// row of the catalog lookup.
    pub fn atlas_info(&self, study_id: i64) -> Result<Vec<Value>> {
        let span = Self::query_span("query.atlas_info");
        span.record_i64("study_id", study_id);
        let row = |_: &Self, row: Vec<Value>| Ok(row);
        let stage = self.measured(&self.statements.atlas_info, &[Value::Int(study_id)], row);
        Self::accessed(&span, stage.named(|| format!("study {study_id}")))
    }

    /// Loads a warped VOLUME fully (used by rendering examples to
    /// texture meshes).  Charged as ordinary LFM reads.
    pub fn warped_volume(&self, study_id: i64) -> Result<Volume> {
        let span = Self::query_span("query.warped_volume");
        span.record_i64("study_id", study_id);
        let stmt = &self.statements.warped_volume;
        let stage = self.measured(stmt, &[Value::Int(study_id)], Self::long_field);
        let bytes = Self::accessed(&span, stage.named(|| format!("study {study_id}")))?;
        crate::wire::volume_from_long_field(self.config.geometry(), &bytes)
    }

    /// Loads a structure's stored surface mesh.
    pub fn structure_mesh(&self, structure: &str) -> Result<qbism_geometry::TriMesh> {
        let span = Self::query_span("query.structure_mesh");
        span.record_str("structure", structure);
        let bytes = self.structure_field(&span, &self.statements.structure_mesh, structure)?;
        crate::wire::mesh_from_long_field(&bytes)
    }

    /// Loads a structure's stored volumetric REGION.
    pub fn structure_region(&self, structure: &str) -> Result<Region> {
        let span = Self::query_span("query.structure_region");
        span.record_str("structure", structure);
        let bytes = self.structure_field(&span, &self.statements.structure_region, structure)?;
        Ok(RegionCodec::decode(&bytes)?)
    }

    // ----------------------------------------------------------------
    // Internals
    // ----------------------------------------------------------------

    /// Opens the root span `name` (`query.<method>`) of a query or
    /// accessor method.
    fn query_span(name: &'static str) -> trace::SpanGuard {
        trace::root(name)
    }

    /// The one measured path: the database phase of `stmt` — its run
    /// and `decode` over its single row (handed over by value: an
    /// answer's bytes are the decoder's to keep), so a decoder's
    /// long-field read is charged like the statement's own I/O.  Cost
    /// is charged once the row exists, whether or not it then decodes;
    /// a statement that fails or matches no row charges nothing.
    ///
    /// Measurement is a thread-local [`IoBracket`], not a before/after
    /// delta of the global LFM counters — so concurrent queries on
    /// other threads never leak their I/O into this query's cost.
    fn measured<T>(
        &self,
        stmt: &Prepared,
        params: &[Value],
        decode: impl FnOnce(&Self, Vec<Value>) -> Result<T>,
    ) -> StudyStage<T> {
        let bracket = IoBracket::begin();
        let start = host_now();
        let mut rows_scanned = None;
        let outcome = self.db.run(stmt, params).map_err(QbismError::from).and_then(|rs| {
            let scanned = rs.rows_scanned;
            let [row]: [Vec<Value>; 1] = rs.into_rows().try_into().map_err(|rows: Vec<_>| {
                QbismError::NotFound(format!("query returned {} rows", rows.len()))
            })?;
            rows_scanned = Some(scanned);
            decode(self, row)
        });
        let native_db_seconds = start.elapsed().as_secs_f64();
        let (lfm, fault_latency) = bracket.finish();
        let cost = rows_scanned.map_or_else(QueryCost::default, |rows_scanned| QueryCost {
            lfm,
            rows_scanned,
            native_db_seconds,
            sim_db_seconds: self.disk.seconds(&lfm) + native_db_seconds + fault_latency,
            ..QueryCost::default()
        });
        StudyStage { cost, outcome }
    }

    /// Decoder of the extraction statements: the typed DATA_REGION
    /// `extractVoxels` built, moved out of the row as it is.
    fn data_region(&self, row: Vec<Value>) -> Result<DataRegion<u8>> {
        row.into_iter()
            .next()
            .and_then(Value::into_object)
            .ok_or_else(|| QbismError::Wire("extract returned no DATA_REGION".into()))
    }

    /// Decoder of the long-field statements: the selected field, read
    /// in full.
    fn long_field(&self, row: Vec<Value>) -> Result<Vec<u8>> {
        let id = row
            .first()
            .and_then(Value::as_long)
            .ok_or_else(|| QbismError::Wire("statement did not select a long field".into()))?;
        Ok(self.db.read_long_field(id)?)
    }

    /// A single-study extraction class: measure, ship, report.
    fn extract(
        &self,
        span: &trace::SpanGuard,
        stmt: &Prepared,
        params: &[Value],
    ) -> Result<QueryAnswer> {
        let (data, cost) = self.measured(stmt, params, Self::data_region).into_result()?;
        self.answer(span, data, cost)
    }

    /// Ships a single-study answer and closes its query.
    fn answer(
        &self,
        span: &trace::SpanGuard,
        data: DataRegion<u8>,
        mut cost: QueryCost,
    ) -> Result<QueryAnswer> {
        self.ship_answer(&mut cost, data_region_wire_size(&data))?;
        cost.record_on(span);
        Ok(QueryAnswer { data, cost })
    }

    /// Closes an accessor: measured like a query — its cost lands on
    /// the span — but nothing ships.
    fn accessed<T>(span: &trace::SpanGuard, stage: StudyStage<T>) -> Result<T> {
        let (value, cost) = stage.into_result()?;
        cost.record_on(span);
        Ok(value)
    }

    /// One long field of the named atlas structure.
    fn structure_field(
        &self,
        span: &trace::SpanGuard,
        stmt: &Prepared,
        structure: &str,
    ) -> Result<Vec<u8>> {
        let stage = self.measured(stmt, &[Value::from(structure)], Self::long_field);
        Self::accessed(span, stage.named(|| format!("structure {structure}")))
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
}

/// One measured statement's contribution to a query — what a per-study
/// stage of the multi-study classes hands to its reduce, on the server
/// and (with `E` a cluster error) on a scatter/gather router.
pub struct StudyStage<T, E = QbismError> {
    /// Database-phase cost; all zero if the statement failed or matched
    /// no row.
    pub cost: QueryCost,
    /// The decoded value, or the error.
    pub outcome: std::result::Result<T, E>,
}

impl<T, E> StudyStage<T, E> {
    /// The value with its cost, or the error.
    pub fn into_result(self) -> std::result::Result<(T, QueryCost), E> {
        Ok((self.outcome?, self.cost))
    }
}

impl<T> StudyStage<T> {
    /// Names what a missing row was asked for.
    fn named(mut self, what: impl FnOnce() -> String) -> Self {
        if let Err(QbismError::NotFound(message)) = &mut self.outcome {
            *message = what();
        }
        self
    }
}

/// The study-order reduce of the multi-study band query, shared by
/// [`MedicalServer::multi_study_band_region`] and scatter/gather
/// routers.  Costs fold in study order (f64 sums are then identical at
/// every thread and shard count); the first failing study in study
/// order decides the error, as the join's scan order did.  The gather
/// ([`fold_band_regions`]; `gather_error` lifts its failure into `E`)
/// is database-phase CPU.  Nothing ships here: returns the cost so
/// far and the fold's answer.
pub fn reduce_band_stages<E>(
    stages: impl IntoIterator<Item = StudyStage<Vec<u8>, E>>,
    codec: RegionCodec,
    gather_error: impl FnOnce(QbismError) -> E,
) -> std::result::Result<(QueryCost, BandFold), E> {
    let mut cost = QueryCost::default();
    let mut blobs = Vec::new();
    for stage in stages {
        blobs.push(stage.outcome?);
        cost.accumulate(&stage.cost);
    }
    let start = host_now();
    let gather = trace::span("query.fold_band_regions");
    let fold = fold_band_regions(&blobs, codec).map_err(gather_error)?;
    drop(gather);
    cost.add_gather_seconds(start.elapsed().as_secs_f64());
    Ok((cost, fold))
}

/// The study-order reduce of the population aggregate, shared like
/// [`reduce_band_stages`].  Every stage's cost folds in study order (a
/// study whose answer fails to decode still did its I/O), a failed
/// study becomes a `skipped` entry — as does, after those, one whose
/// extraction covers another REGION than the first survivor's
/// (`gather_error` lifts that into `E`) — and [`voxel_mean`] over the
/// rest — database-phase CPU — is the answer, not yet shipped.  It
/// fails only when nothing survives, with the first study's error
/// (`no_studies` for an empty study list).
pub fn reduce_population_stages<E>(
    study_ids: &[i64],
    stages: impl IntoIterator<Item = StudyStage<DataRegion<u8>, E>>,
    no_studies: impl FnOnce() -> E,
    gather_error: impl Fn(QbismError) -> E,
) -> std::result::Result<PopulationAnswer<E>, E> {
    let mut cost = QueryCost::default();
    let mut extracts = Vec::with_capacity(study_ids.len());
    let mut skipped = Vec::new();
    for (stage, &id) in stages.into_iter().zip(study_ids) {
        cost.accumulate(&stage.cost);
        match stage.outcome {
            Ok(extract) => extracts.push((id, extract)),
            Err(e) => skipped.push((id, e)),
        }
    }
    let start = host_now();
    let gather = trace::span("query.voxel_mean");
    let Some((data, misaligned)) = voxel_mean(extracts.iter().map(|(_, extract)| extract)) else {
        // Degrading further would return an empty answer pretending to
        // be a mean — fail with the first cause.
        return Err(skipped.into_iter().next().map_or_else(no_studies, |(_, error)| error));
    };
    drop(gather);
    cost.add_gather_seconds(start.elapsed().as_secs_f64());
    cost.coverage = (extracts.len() - misaligned.len()) as f64 / study_ids.len() as f64;
    for (id, extract) in misaligned.into_iter().filter_map(|at| extracts.get(at)) {
        let (region, mean) = (extract.region(), data.region());
        let error = QbismError::Wire(format!(
            "extraction covers {} voxels in {} runs, not the {} in {} the mean is taken over",
            region.voxel_count(),
            region.run_count(),
            mean.voxel_count(),
            mean.run_count()
        ));
        skipped.push((*id, gather_error(error)));
    }
    Ok(PopulationAnswer { data, cost, skipped })
}

/// What [`fold_band_regions`] returns.
#[derive(Debug)]
pub struct BandFold {
    /// The answer.
    pub region: Region,
    /// The answer's size as shipped: its `encoded_len` as `K3Tree` on
    /// the descent path, as the fold's `codec` on the decode path.
    pub wire_bytes: u64,
    /// Operand subtrees and leaves the k³ descent consumed undecoded
    /// (zero on the decode path).
    pub decode_skips: u64,
    /// Leaves where two or more operands met and were ANDed as masks
    /// (zero on the decode path).
    pub leaves_masked: u64,
}

/// The gather of the multi-study band query, shared by
/// [`MedicalServer::multi_study_band_region`] and scatter/gather
/// routers so both ship the same answer size for every stored codec:
/// the n-way intersection of the studies' stored band REGION `blobs`
/// (study order) as a [`Region`], its wire size and the descent's work
/// counts.  The grids are checked once; then there are two paths, one
/// answer:
///
/// * every operand a k³ payload — every stored band under
///   `region_codec: K3Tree` — is one synchronized directory descent
///   ([`qbism_region::intersect_k3`]), no operand decoded into runs,
///   and the answer is sized as `K3Tree` encodes it;
/// * anything else is decoded and merged by [`kernel::intersect_k`] and
///   sized as `codec` encodes it.
pub fn fold_band_regions(blobs: &[Vec<u8>], codec: RegionCodec) -> Result<BandFold> {
    // Each operand's header is parsed once, as it opens.
    let mut k3 = Vec::with_capacity(blobs.len());
    for blob in blobs {
        match qbism_region::open_k3(blob)? {
            Some(operand) => k3.push(operand),
            None => break,
        }
    }
    if k3.len() == blobs.len() {
        let geom = common_grid(k3.iter().map(|(g, _)| *g))?;
        let payloads: Vec<&[u8]> = k3.iter().map(|(_, payload)| *payload).collect();
        let (region, counts) = qbism_region::intersect_k3(geom, &payloads)?;
        return Ok(BandFold {
            wire_bytes: RegionCodec::K3Tree.encoded_len(&region)? as u64,
            region,
            decode_skips: counts.skips,
            leaves_masked: counts.leaves_masked,
        });
    }
    let mut regions = Vec::with_capacity(blobs.len());
    for blob in blobs {
        regions.push(RegionCodec::decode(blob)?);
    }
    let geom = common_grid(regions.iter().map(Region::geometry))?;
    let lists: Vec<_> = regions.iter().map(Region::runs).collect();
    let region = Region::from_canonical_runs(geom, kernel::intersect_k(&lists))?;
    let wire_bytes = codec.encoded_len(&region)? as u64;
    Ok(BandFold { region, wire_bytes, decode_skips: 0, leaves_masked: 0 })
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
/// [`fold_band_regions`]: the voxel-wise mean of per-study extractions
/// over the first one's REGION, `None` when there are none.  An extract
/// over any other REGION has no voxel-for-voxel alignment with the
/// first: it is left out of the mean and its position in `extracts`
/// returned (the first is always in, so the divisor is at least one).
pub fn voxel_mean<'a>(
    extracts: impl IntoIterator<Item = &'a DataRegion<u8>>,
) -> Option<(DataRegion<u8>, Vec<usize>)> {
    let mut extracts = extracts.into_iter().enumerate().peekable();
    let region = extracts.peek()?.1.region().clone();
    let (mut aligned, mut misaligned) = (Vec::new(), Vec::new());
    for (at, extract) in extracts {
        if *extract.region() == region {
            aligned.push(extract.values());
        } else {
            misaligned.push(at);
        }
    }
    let voxels = region.voxel_count() as usize;
    // Column-wise in cache-sized blocks: each study's slice of the block
    // into `u32` sums (wide enough for 2²⁴ studies) that stay in L1,
    // then the block's means.
    let mut values = Vec::with_capacity(voxels);
    let mut sums = [0u32; MEAN_BLOCK];
    for lo in (0..voxels).step_by(MEAN_BLOCK) {
        let hi = voxels.min(lo + MEAN_BLOCK);
        let sums = &mut sums[..hi - lo];
        sums.fill(0);
        for study in &aligned {
            for (sum, &value) in sums.iter_mut().zip(&study[lo..hi]) {
                *sum += u32::from(value);
            }
        }
        push_means(sums, aligned.len() as u32, &mut values);
    }
    Some((DataRegion::new(region, values), misaligned))
}

/// Voxels per block of [`voxel_mean`]: 16 KiB of sums.
const MEAN_BLOCK: usize = 4096;

/// Appends `sum / n` for each of `sums` — sums of `n` bytes, so at most
/// `255·n` — as one multiply and shift by an exact reciprocal: with
/// `m = ⌊2⁵⁶/n⌋ + 1`, `⌊sum·m / 2⁵⁶⌋ = ⌊sum/n⌋` whenever
/// `sum·n < 2⁵⁶`, which `255·n² < 2⁵⁶` guarantees for every `n ≤ 2²⁴`,
/// and `sum·m < 2⁶⁴` there.  Larger counts divide.
fn push_means(sums: &[u32], n: u32, out: &mut Vec<u8>) {
    if n <= 1 << 24 {
        let m = (1u64 << 56) / u64::from(n) + 1;
        out.extend(sums.iter().map(|&sum| ((u64::from(sum) * m) >> 56) as u8));
    } else {
        out.extend(sums.iter().map(|&sum| (sum / n) as u8));
    }
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

    /// The extraction decoder takes the typed answer out of its row by
    /// move — its values are the allocation the UDF filled — and refuses
    /// a row holding anything else.
    #[test]
    fn the_answer_is_moved_out_of_its_row() {
        let sys = system();
        let geom = sys.server.config().geometry();
        let dr = DataRegion::new(Region::from_ids(geom, vec![3, 4, 90]), vec![7u8, 8, 9]);
        let filled = dr.values().as_ptr();
        let taken = sys.server.data_region(vec![Value::object(dr.clone())]).unwrap();
        assert_eq!(taken, dr);
        let row = vec![Value::object(taken)];
        let held = row[0].as_object::<DataRegion<u8>>().map(|d| d.values().as_ptr());
        let moved = sys.server.data_region(row).unwrap();
        assert_eq!(Some(moved.values().as_ptr()), held, "moved, not copied");
        assert_ne!(held, Some(filled), "the clone is another allocation");
        for row in [vec![], vec![Value::Bytes(vec![1])], vec![Value::object(7u8)]] {
            assert!(matches!(sys.server.data_region(row), Err(QbismError::Wire(_))));
        }
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
    fn population_mean_skips_a_study_over_another_region() {
        let geom = QbismConfig::small_test().geometry();
        let extract = |ids: Vec<u64>, values: Vec<u8>| StudyStage::<_, QbismError> {
            cost: QueryCost::default(),
            outcome: Ok(DataRegion::new(Region::from_ids(geom, ids), values)),
        };
        // Study 8 extracted a larger REGION: indexing it by the first
        // study's voxel count would read the wrong voxels, and a smaller
        // one would index out of bounds.
        let stages = vec![
            extract(vec![4, 5, 9], vec![255, 1, 7]),
            extract(vec![4, 5, 9, 10], vec![0, 0, 0, 0]),
            extract(vec![4], vec![3]),
            extract(vec![4, 5, 9], vec![254, 2, 8]),
        ];
        let none = || QbismError::NotFound("no studies given".into());
        let answer = reduce_population_stages(&[7, 8, 9, 10], stages, none, |e| e).unwrap();
        assert_eq!(answer.data.values(), [254, 1, 7], "sum / n truncates");
        assert_eq!(answer.data.region(), &Region::from_ids(geom, vec![4, 5, 9]));
        assert_eq!(answer.cost.coverage, 0.5);
        let skipped: Vec<i64> = answer.skipped.iter().map(|(id, _)| *id).collect();
        assert_eq!(skipped, [8, 9]);
        assert!(answer.skipped.iter().all(|(_, e)| matches!(e, QbismError::Wire(_))));
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

    /// The reciprocal's extremes: every sum a study count's bytes can
    /// reach around each quotient boundary, at counts up to 2²⁴ (all 0,
    /// all 255 and everything between), and past it where it divides.
    #[test]
    fn means_by_reciprocal_are_exact_at_the_extremes() {
        let big = [1u32 << 24, (1 << 24) - 1, 16_777_259, 12_345_678, 1 << 23, 3 << 22];
        for n in (1u32..=300).chain(big).chain([(1 << 24) + 1, 16_843_009]) {
            let n64 = u64::from(n);
            let mut sums = vec![0, 255 * n64];
            for q in [1u64, 2, 127, 128, 254, 255] {
                sums.extend([q * n64 - 1, q * n64, q * n64 + n64 / 2, q * n64 + n64 - 1]);
            }
            let sums: Vec<u32> =
                sums.into_iter().filter(|&sum| sum <= 255 * n64).map(|sum| sum as u32).collect();
            let mut got = Vec::new();
            push_means(&sums, n, &mut got);
            let want: Vec<u8> = sums.iter().map(|&sum| (sum / n) as u8).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    proptest::proptest! {
        /// On a 64³ grid the fold of band REGIONs — solid boxes with
        /// scattered holes and speckle, so FULL codes, partial leaves
        /// and runs across leaf boundaries — answers the slice merge of
        /// the decoded operands, sized as the stored codec writes it:
        /// the k³ descent as `K3Tree` encodes it, naive operands'
        /// decode path as `Naive`, one study as its stored field.
        #[test]
        fn fold_band_regions_answers_the_slice_merge_at_its_encoded_size(
            operands in proptest::collection::vec((
                proptest::collection::vec(0u64..(1 << 18), 0..400),
                proptest::array::uniform3(0u32..64),
                proptest::array::uniform3(0u32..48),
            ), 1..=5),
            naive in proptest::prelude::any::<bool>(),
        ) {
            let geom = qbism_region::GridGeometry::new(qbism_sfc::CurveKind::Hilbert, 3, 6);
            let regions: Vec<Region> = operands.into_iter().map(|(ids, min, size)| {
                let max = [0, 1, 2].map(|a| (min[a] + size[a]).min(63));
                let solid = Region::from_box(geom, min, max).expect("box inside grid");
                let (holes, speckle) = ids.split_at(ids.len() / 2);
                let solid = solid.difference(&Region::from_ids(geom, holes.to_vec()));
                solid.union(&Region::from_ids(geom, speckle.to_vec()))
            }).collect();
            let stored = if naive { RegionCodec::Naive } else { RegionCodec::K3Tree };
            let blobs: Vec<Vec<u8>> =
                regions.iter().map(|r| stored.encode(r).expect("encode")).collect();
            let lists: Vec<_> = regions.iter().map(Region::runs).collect();
            let want = Region::from_runs(geom, kernel::intersect_k(&lists));
            let fold = fold_band_regions(&blobs, RegionCodec::Naive).expect("fold");
            let wire_bytes = match &blobs[..] {
                [field] => field.len(),
                _ if naive => RegionCodec::Naive.encode(&want).expect("encode answer").len(),
                _ => RegionCodec::K3Tree.encode(&want).expect("encode answer").len(),
            };
            proptest::prop_assert_eq!(fold.wire_bytes, wire_bytes as u64);
            if naive {
                proptest::prop_assert_eq!((fold.decode_skips, fold.leaves_masked), (0, 0));
            }
            proptest::prop_assert_eq!(fold.region, want);
        }

        /// The blocked, reciprocal mean is the column-wise `sum / n` of
        /// HEAD for 1…300 studies of random values over REGIONs that
        /// cross block boundaries.
        #[test]
        fn voxel_mean_is_sum_over_n(
            studies in 1usize..=300,
            voxels in 1u64..9_000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let geom = qbism_region::GridGeometry::new(qbism_sfc::CurveKind::Hilbert, 3, 5);
            let region = Region::from_runs(geom, vec![qbism_region::Run::new(7, 6 + voxels)]);
            let mut state = seed | 1;
            let mut byte = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            };
            let extracts: Vec<DataRegion<u8>> = (0..studies)
                .map(|_| DataRegion::new(region.clone(), (0..voxels).map(|_| byte()).collect()))
                .collect();
            let (mean, misaligned) = voxel_mean(&extracts).unwrap();
            proptest::prop_assert!(misaligned.is_empty());
            for (i, &m) in mean.values().iter().enumerate() {
                let sum: u32 = extracts.iter().map(|e| u32::from(e.values()[i])).sum();
                proptest::prop_assert_eq!(u32::from(m), sum / studies as u32);
            }
        }
    }
}
