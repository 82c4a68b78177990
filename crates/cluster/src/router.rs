//! The scatter/gather router: placement-directed fan-out, ordered
//! reduce, and per-attempt read failover.
//!
//! Cost discipline, which is the whole point:
//!
//! * A sub-query's database cost is measured on the shard by the same
//!   thread-local bracket machinery the single-node server uses, and
//!   attached only to *successful* attempts.  Failed attempts are
//!   discarded wholesale — the replica that finally answers charges
//!   exactly what a fault-free run would have.
//! * Shard→router answer legs travel per-shard [`EndpointChannels`]
//!   endpoints at the `cluster.route.drop` fault site.  Their traffic
//!   lands in per-shard [`NetStats`] only, never in [`QueryCost`]:
//!   logically the answer crosses the wire once, router→client, exactly
//!   as the single-node server ships it.
//! * The reduce folds per-study costs in study order, so every
//!   deterministic column is identical at any shard count, thread
//!   count, and under any single-replica fault.  It is the single-node
//!   server's own reduce (`qbism::server::reduce_*_stages`), fed routed
//!   stages instead of local ones.

use crate::placement::PlacementCatalog;
use crate::shard::Shard;
use crate::{ClusterError, Result};
use qbism::server::{reduce_band_stages, reduce_population_stages};
use qbism::wire::data_region_wire_size;
use qbism::{MedicalServer, QbismConfig, QueryCost, StudyStage};
use qbism_check::sync::{AtomicU64, Ordering};
use qbism_fault::{sites, FaultOutcome};
use qbism_netsim::{EndpointChannels, NetStats, NetworkModel, RpcChannel, SharedRpcChannel};
use qbism_obs::{event, trace};
use qbism_parallel::Executor;
use qbism_region::Region;

/// One study's sub-query on a shard's server: the single-node
/// per-study stage.
type Stage<'a, T> = dyn Fn(&MedicalServer, i64) -> StudyStage<T> + Sync + 'a;

/// A population-aggregate answer from the sharded warehouse.  Each
/// skipped study lost *all* of its replicas, so each `skipped` entry is
/// a [`ClusterError::ShardsUnavailable`].
pub type ClusterPopulationAnswer = qbism::PopulationAnswer<ClusterError>;

/// Counters for the failover machinery: per-warehouse snapshot values
/// plus process-wide observability mirrors.
struct ClusterCounters {
    failovers: AtomicU64,
    shard_kills: AtomicU64,
    slow_injections: AtomicU64,
    route_drops: AtomicU64,
    rebalances: AtomicU64,
    studies_moved: AtomicU64,
    obs_failovers: qbism_obs::Counter,
    obs_shard_kills: qbism_obs::Counter,
    obs_slow: qbism_obs::Counter,
    obs_route_drops: qbism_obs::Counter,
    obs_rebalances: qbism_obs::Counter,
    obs_moved: qbism_obs::Counter,
}

impl ClusterCounters {
    fn new() -> Self {
        let reg = qbism_obs::global();
        reg.describe("qbism_cluster_failovers_total", "Sub-queries rerouted to a replica.");
        reg.describe("qbism_cluster_shard_kills_total", "Shards downed by injected kills.");
        reg.describe("qbism_cluster_slow_total", "Injected shard slowdowns honoured.");
        reg.describe("qbism_cluster_route_drops_total", "Answer legs lost after retries.");
        reg.describe("qbism_cluster_rebalances_total", "Placement catalog rebuilds.");
        reg.describe("qbism_cluster_moved_total", "Studies whose replica set moved.");
        ClusterCounters {
            failovers: AtomicU64::named("cluster.ctr.failovers", 0),
            shard_kills: AtomicU64::named("cluster.ctr.kills", 0),
            slow_injections: AtomicU64::named("cluster.ctr.slow", 0),
            route_drops: AtomicU64::named("cluster.ctr.drops", 0),
            rebalances: AtomicU64::named("cluster.ctr.rebalances", 0),
            studies_moved: AtomicU64::named("cluster.ctr.moved", 0),
            obs_failovers: reg.counter("qbism_cluster_failovers_total"),
            obs_shard_kills: reg.counter("qbism_cluster_shard_kills_total"),
            obs_slow: reg.counter("qbism_cluster_slow_total"),
            obs_route_drops: reg.counter("qbism_cluster_route_drops_total"),
            obs_rebalances: reg.counter("qbism_cluster_rebalances_total"),
            obs_moved: reg.counter("qbism_cluster_moved_total"),
        }
    }
}

/// A point-in-time snapshot of one warehouse's failover machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sub-queries rerouted to a replica mid-query.
    pub failovers: u64,
    /// Shards downed by `cluster.shard.kill` faults (or [`ClusterWarehouse::kill_shard`]).
    pub shard_kills: u64,
    /// `cluster.shard.slow` latency injections honoured.
    pub slow_injections: u64,
    /// Shard→router answer legs lost after bounded retries.
    pub route_drops: u64,
    /// Placement-catalog rebuilds (add/remove-shard).
    pub rebalances: u64,
    /// Studies whose replica set changed across all rebuilds.
    pub studies_moved: u64,
}

/// The sharded warehouse: N full-copy shard servers, a placement
/// catalog, per-shard answer-leg channels, and one client-facing RPC
/// channel the final answer ships through exactly once.
pub struct ClusterWarehouse {
    config: QbismConfig,
    shards: Vec<Shard>,
    catalog: PlacementCatalog,
    studies: Vec<i64>,
    threads: usize,
    chan: SharedRpcChannel,
    endpoints: EndpointChannels,
    counters: ClusterCounters,
    next_shard_id: u64,
}

impl ClusterWarehouse {
    /// Installs a warehouse of `shard_count` full-copy shards with
    /// `replication`-way serving ownership over every loaded study.
    pub fn install(config: &QbismConfig, shard_count: usize, replication: usize) -> Result<Self> {
        let shard_count = shard_count.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let shard = Shard::install(id as u64, config).map_err(ClusterError::Gather)?;
            shards.push(shard);
        }
        let system = shards[0].system();
        let mut studies = system.pet_study_ids.clone();
        studies.extend_from_slice(&system.mri_study_ids);
        let shard_ids: Vec<u64> = shards.iter().map(Shard::id).collect();
        let catalog = PlacementCatalog::build(&shard_ids, &studies, replication);
        Ok(ClusterWarehouse {
            config: config.clone(),
            shards,
            catalog,
            studies,
            threads: 1,
            chan: SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994)),
            endpoints: EndpointChannels::new(shard_count, NetworkModel::TESTBED_1994)
                .with_fault_site(sites::CLUSTER_ROUTE_DROP),
            counters: ClusterCounters::new(),
            next_shard_id: shard_count as u64,
        })
    }

    // ----------------------------------------------------------------
    // Topology
    // ----------------------------------------------------------------

    /// Live shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard with cluster id `id`, if still a member.
    pub fn shard(&self, id: u64) -> Option<&Shard> {
        self.shards.iter().find(|s| s.id() == id)
    }

    /// The placement catalog (ownership ground truth for tests).
    pub fn catalog(&self) -> &PlacementCatalog {
        &self.catalog
    }

    /// Every placed study, PET first then MRI, in load order.
    pub fn studies(&self) -> &[i64] {
        &self.studies
    }

    /// The first shard's query server — every shard is a byte-identical
    /// copy, so this is the single-node reference server.
    pub fn reference_server(&self) -> &MedicalServer {
        self.shards[0].server()
    }

    /// Sets the router's fan-out width (studies per worker claim).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Marks a shard down by hand (drills, benches).  Returns whether
    /// the shard transitioned.
    pub fn kill_shard(&self, id: u64) -> bool {
        let Some(shard) = self.shard(id) else { return false };
        let transitioned = shard.state().mark_down();
        if transitioned {
            event::shard_down(id);
            self.counters.shard_kills.fetch_add(1, Ordering::Relaxed);
            self.counters.obs_shard_kills.inc();
        }
        transitioned
    }

    /// Brings a downed shard back into service.
    pub fn revive_shard(&self, id: u64) -> bool {
        match self.shard(id) {
            Some(shard) => {
                shard.state().revive();
                true
            }
            None => false,
        }
    }

    /// Revives every shard (test isolation between fault runs).
    pub fn revive_all(&self) {
        for shard in &self.shards {
            shard.state().revive();
        }
    }

    /// Installs one more full-copy shard and rebalances serving
    /// ownership onto it.  Returns the new shard's id.
    pub fn add_shard(&mut self) -> Result<u64> {
        let id = self.next_shard_id;
        let shard = Shard::install(id, &self.config).map_err(ClusterError::Gather)?;
        let span = trace::root("cluster.rebalance");
        span.record_str("change", "add");
        span.record_u64("shard", id);
        self.next_shard_id += 1;
        self.shards.push(shard);
        let endpoint = self.endpoints.add_endpoint();
        debug_assert_eq!(endpoint as u64, id, "endpoint index tracks shard id");
        self.rebalance(&span)?;
        Ok(id)
    }

    /// Removes a shard from the membership (its endpoint slot is
    /// retired, never reused) and rebalances ownership off it.
    pub fn remove_shard(&mut self, id: u64) -> Result<u64> {
        if self.shards.len() <= 1 {
            return Err(ClusterError::NoShards);
        }
        let Some(at) = self.shards.iter().position(|s| s.id() == id) else {
            return Err(ClusterError::ShardDown { shard: id });
        };
        let span = trace::root("cluster.rebalance");
        span.record_str("change", "remove");
        span.record_u64("shard", id);
        self.shards.remove(at);
        self.rebalance(&span)
    }

    /// Rebuilds the placement catalog over the current membership,
    /// records the move count on the rebalance's span, and runs the
    /// invariant checker.  Returns the number of studies moved.
    fn rebalance(&mut self, span: &trace::SpanGuard) -> Result<u64> {
        let shard_ids: Vec<u64> = self.shards.iter().map(Shard::id).collect();
        let moved = self.catalog.rebuild(&shard_ids);
        span.record_u64("moved", moved);
        self.counters.rebalances.fetch_add(1, Ordering::Relaxed);
        self.counters.obs_rebalances.inc();
        self.counters.studies_moved.fetch_add(moved, Ordering::Relaxed);
        self.counters.obs_moved.add(moved);
        let violations = self.catalog.verify(&shard_ids, &self.studies);
        if violations.is_empty() {
            Ok(moved)
        } else {
            Err(ClusterError::Placement(violations))
        }
    }

    // ----------------------------------------------------------------
    // Accounting
    // ----------------------------------------------------------------

    /// Snapshot of the failover machinery's counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            shard_kills: self.counters.shard_kills.load(Ordering::Relaxed),
            slow_injections: self.counters.slow_injections.load(Ordering::Relaxed),
            route_drops: self.counters.route_drops.load(Ordering::Relaxed),
            rebalances: self.counters.rebalances.load(Ordering::Relaxed),
            studies_moved: self.counters.studies_moved.load(Ordering::Relaxed),
        }
    }

    /// Cumulative traffic on one shard's answer leg.
    pub fn shard_net_stats(&self, id: u64) -> Option<NetStats> {
        self.endpoints.stats(id as usize)
    }

    /// Summed answer-leg traffic across every shard endpoint.
    pub fn total_shard_net_stats(&self) -> NetStats {
        self.endpoints.total_stats()
    }

    /// Traffic on the router→client channel — the only channel whose
    /// receipts reach [`QueryCost`].
    pub fn client_net_stats(&self) -> NetStats {
        self.chan.stats()
    }

    // ----------------------------------------------------------------
    // Query classes
    // ----------------------------------------------------------------

    /// The population aggregate, fanned over the shards: identical
    /// answer and deterministic cost columns to
    /// [`qbism::MedicalServer::population_average`] at any shard count,
    /// thread count, and under any single-replica fault.
    pub fn population_average(
        &self,
        study_ids: &[i64],
        structure: &str,
    ) -> Result<ClusterPopulationAnswer> {
        if study_ids.is_empty() {
            return Err(ClusterError::NoStudies);
        }
        let span = trace::root("cluster.population_average");
        span.record_u64("studies", study_ids.len() as u64);
        span.record_str("structure", structure);
        span.record_u64("shards", self.shards.len() as u64);
        span.record_u64("threads", self.threads as u64);
        let stage = |server: &MedicalServer, id| server.population_stage(id, structure);
        let per_study = self.scatter(study_ids, &stage, data_region_wire_size);
        // A lost study (all replicas down) becomes a typed skipped
        // entry; only a total loss errors.
        let mut answer = reduce_population_stages(
            study_ids,
            per_study,
            || ClusterError::NoStudies,
            ClusterError::Gather,
        )?;
        self.ship(&mut answer.cost, data_region_wire_size(&answer.data))?;
        self.finish(&span, &answer.cost);
        Ok(answer)
    }

    /// The multi-study band intersection, fanned over the shards:
    /// identical answer and deterministic cost columns to
    /// [`qbism::MedicalServer::multi_study_band_region`].  The first
    /// study (in study order) whose every replica fails decides the
    /// error, as the single-node scan order did.
    pub fn multi_study_band_region(
        &self,
        study_ids: &[i64],
        lo: u8,
        hi: u8,
    ) -> Result<(Region, QueryCost)> {
        if study_ids.is_empty() {
            return Err(ClusterError::NoStudies);
        }
        let span = trace::root("cluster.multi_study_band");
        span.record_u64("studies", study_ids.len() as u64);
        span.record_u64("lo", u64::from(lo));
        span.record_u64("hi", u64::from(hi));
        span.record_u64("shards", self.shards.len() as u64);
        span.record_u64("threads", self.threads as u64);
        let stage = |server: &MedicalServer, id| server.band_region_stage(id, lo, hi);
        let fetched = self.scatter(study_ids, &stage, |bytes| bytes.len() as u64);
        // Gather on the router with the single-node server's own fold,
        // so the re-encoded answer bytes — and therefore `wire_bytes` —
        // are identical in every tablespace mode.
        // (The router has no LFM of its own to credit the fold's skips to.)
        let (mut cost, fold) =
            reduce_band_stages(fetched, self.config.region_codec, ClusterError::Gather)?;
        span.record_u64("decode_skips", fold.decode_skips);
        span.record_u64("leaves_masked", fold.leaves_masked);
        self.ship(&mut cost, fold.bytes.len() as u64)?;
        self.finish(&span, &cost);
        Ok((fold.region, cost))
    }

    // ----------------------------------------------------------------
    // Internals
    // ----------------------------------------------------------------

    /// Fans `stage` out over the studies, each routed to a replica that
    /// serves it (`wire` sizes the answer leg), and returns the routed
    /// stages in study order.  Each worker re-arms the caller's fault
    /// plane, so injected schedules stay in force inside the pool.
    fn scatter<T: Send>(
        &self,
        study_ids: &[i64],
        stage: &Stage<'_, T>,
        wire: impl Fn(&T) -> u64 + Sync,
    ) -> Vec<StudyStage<T, ClusterError>> {
        let plane = qbism_fault::current();
        Executor::new(self.threads).map(study_ids.to_vec(), |_, id| {
            let _fault = plane.clone().map(qbism_fault::FaultPlane::arm_shared);
            match self.route(id, stage, &wire) {
                Ok((value, cost)) => StudyStage { cost, outcome: Ok(value) },
                Err(e) => StudyStage { cost: QueryCost::default(), outcome: Err(e) },
            }
        })
    }

    /// Routes one study's sub-query along its replica list, failing
    /// over on dead shards, injected kills, stage errors and dropped
    /// answer legs.  Success returns the stage value and its database
    /// cost — untouched by the failed attempts before it.
    fn route<T>(
        &self,
        study: i64,
        stage: &Stage<'_, T>,
        wire: &dyn Fn(&T) -> u64,
    ) -> Result<(T, QueryCost)> {
        let owners = self.catalog.replicas(study);
        if owners.is_empty() {
            return Err(ClusterError::UnknownStudy { study });
        }
        let mut last: Option<ClusterError> = None;
        let mut prev: Option<u64> = None;
        for &sid in owners {
            if let Some(from) = prev {
                // Recorded here, inside the adopted worker context, so
                // the failover lands in the owning query's trace.
                event::failover(study, from, sid);
                self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                self.counters.obs_failovers.inc();
            }
            prev = Some(sid);
            match self.attempt(sid, study, stage, wire) {
                Ok(hit) => return Ok(hit),
                Err(e) => last = Some(e),
            }
        }
        match last {
            Some(e) => Err(ClusterError::ShardsUnavailable {
                study,
                replicas: owners.len(),
                last: Box::new(e),
            }),
            None => Err(ClusterError::UnknownStudy { study }),
        }
    }

    /// One attempt of a sub-query on one shard: health check, injected
    /// kill/slow sites, the stage inside the shard's service lane, and
    /// the answer leg back to the router.
    fn attempt<T>(
        &self,
        sid: u64,
        study: i64,
        stage: &Stage<'_, T>,
        wire: &dyn Fn(&T) -> u64,
    ) -> Result<(T, QueryCost)> {
        let shard = self.shard(sid).ok_or(ClusterError::ShardDown { shard: sid })?;
        if !shard.state().is_healthy() {
            return Err(ClusterError::ShardDown { shard: sid });
        }
        if qbism_fault::inject(sites::CLUSTER_SHARD_KILL).is_some() {
            // Any outcome at the kill site downs the shard; racing
            // workers transition it exactly once.
            if shard.state().mark_down() {
                event::shard_down(sid);
                self.counters.shard_kills.fetch_add(1, Ordering::Relaxed);
                self.counters.obs_shard_kills.inc();
            }
            return Err(ClusterError::ShardKilled { shard: sid });
        }
        // The slow site honours Latency outcomes only: the shard still
        // answers, the injected seconds join its simulated database
        // time (same channel injected device latency uses).
        let mut fault_latency = 0.0;
        if let Some(FaultOutcome::Latency { seconds }) =
            qbism_fault::inject(sites::CLUSTER_SHARD_SLOW)
        {
            fault_latency = seconds.max(0.0);
            self.counters.slow_injections.fetch_add(1, Ordering::Relaxed);
            self.counters.obs_slow.inc();
        }
        // A failed stage is discarded wholesale, cost included: the
        // replica that finally answers charges what a fault-free run
        // would have.
        let (value, mut cost) = {
            let _lane = shard.state().enter_lane();
            stage(shard.server(), study).into_result()
        }
        .map_err(|error| ClusterError::Query { shard: sid, error })?;
        if let Err(error) = self.endpoints.ship(sid as usize, wire(&value)) {
            self.counters.route_drops.fetch_add(1, Ordering::Relaxed);
            self.counters.obs_route_drops.inc();
            return Err(ClusterError::Route { shard: sid, error });
        }
        cost.sim_db_seconds += fault_latency;
        Ok((value, cost))
    }

    /// Ships the final answer to the client exactly once and folds the
    /// receipt into `cost` — the only place network receipts reach
    /// [`QueryCost`], which is why `messages` and `sim_net_seconds`
    /// match the single-node server at any shard count.
    fn ship(&self, cost: &mut QueryCost, wire_bytes: u64) -> Result<()> {
        let receipt = self.chan.ship(wire_bytes).map_err(ClusterError::Net)?;
        cost.wire_bytes = wire_bytes;
        cost.messages = receipt.messages;
        cost.sim_net_seconds = receipt.seconds;
        Ok(())
    }

    /// Records a finished query's costs on its root span.
    fn finish(&self, span: &trace::SpanGuard, cost: &QueryCost) {
        if qbism_obs::enabled() {
            cost.record_on(span);
        }
    }
}
