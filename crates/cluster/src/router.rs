//! The scatter/gather router: per-study routing over the replica set in
//! study order, ordered reduce, and per-attempt read failover.
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
//!   deterministic column is identical at any shard count and under any
//!   single-replica fault.  It is the single-node server's own reduce
//!   (`qbism::server::reduce_*_stages`), fed routed stages instead of
//!   local ones.

use crate::shard::Shard;
use crate::{ClusterError, Result};
use qbism::server::{reduce_band_stages, reduce_population_stages};
use qbism::wire::data_region_wire_size;
use qbism::{MedicalServer, QbismConfig, QbismSystem, QueryCost, StudyStage};
use qbism_fault::{sites, FaultOutcome};
use qbism_netsim::{EndpointChannels, NetStats, NetworkModel, RpcChannel, SharedRpcChannel};
use qbism_obs::{event, trace};
use qbism_region::{Region, RegionCodec};
use std::sync::atomic::{AtomicU64, Ordering};

/// One study's sub-query on a shard's server: the single-node
/// per-study stage.
type Stage<'a, T> = dyn Fn(&MedicalServer, i64) -> StudyStage<T> + 'a;

/// A population-aggregate answer from the sharded warehouse.  Each
/// skipped study lost *all* of its replicas, so each `skipped` entry is
/// a [`ClusterError::ShardsUnavailable`].
pub type ClusterPopulationAnswer = qbism::PopulationAnswer<ClusterError>;

/// The per-warehouse failover counters [`ClusterWarehouse::recovery_stats`]
/// reads.
#[derive(Default)]
struct ClusterCounters {
    failovers: AtomicU64,
    shard_kills: AtomicU64,
    slow_injections: AtomicU64,
    route_drops: AtomicU64,
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
}

/// The shards serving `study` over a ring of `shards` full copies with
/// `replication`-way serving, primary first: `(study + i) mod shards`
/// for `i < min(replication, shards)`.
fn ring(study: i64, shards: usize, replication: usize) -> Vec<u64> {
    let n = shards as u64;
    let primary = study.rem_euclid(shards as i64) as u64;
    (0..replication.min(shards) as u64).map(|i| (primary + i) % n).collect()
}

/// The sharded warehouse: a fixed replica set of N full-copy shard
/// servers, per-shard answer-leg channels, and one client-facing RPC
/// channel the final answer ships through exactly once.
pub struct ClusterWarehouse {
    codec: RegionCodec,
    /// Membership is fixed at install: a shard's id is its position.
    shards: Vec<Shard>,
    replication: usize,
    studies: Vec<i64>,
    chan: SharedRpcChannel,
    endpoints: EndpointChannels,
    counters: ClusterCounters,
}

impl ClusterWarehouse {
    /// Installs a warehouse of `shard_count` (at least 1) full-copy
    /// shards, each loaded study served by `replication` of them.  The
    /// studies are prepared once, and every shard is stored from that
    /// one prepared set.
    pub fn install(config: &QbismConfig, shard_count: usize, replication: usize) -> Result<Self> {
        let shard_count = shard_count.max(1);
        let prepared = QbismSystem::prepare(config).map_err(ClusterError::Prepare)?;
        // Shards are stored one after another.  An armed fault plane is
        // thread-local and counts one sequence of LFM writes, so stores
        // on worker threads would not see it, and with a shared plane
        // thread timing would choose the shard an nth-write fault hits.
        let shards = (0..shard_count as u64)
            .map(|id| match prepared.store_as(config) {
                Ok(system) => Ok(Shard::new(id, system)),
                Err(error) => Err(ClusterError::Store { shard: id, error }),
            })
            .collect::<Result<Vec<_>>>()?;
        let studies = shards.first().map_or_else(Vec::new, |first| {
            let system = first.system();
            [system.pet_study_ids.as_slice(), &system.mri_study_ids].concat()
        });
        Ok(ClusterWarehouse {
            codec: config.stored_codec(),
            shards,
            replication: replication.max(1),
            studies,
            chan: SharedRpcChannel::new(RpcChannel::new(NetworkModel::TESTBED_1994)),
            endpoints: EndpointChannels::new(shard_count, NetworkModel::TESTBED_1994)
                .with_fault_site(sites::CLUSTER_ROUTE_DROP),
            counters: ClusterCounters::default(),
        })
    }

    // ----------------------------------------------------------------
    // Topology
    // ----------------------------------------------------------------

    /// Shards in the replica set.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard with cluster id `id`.
    pub fn shard(&self, id: u64) -> Option<&Shard> {
        usize::try_from(id).ok().and_then(|at| self.shards.get(at))
    }

    /// The shards serving `study`, primary first, in failover order:
    /// `(study + i) mod N` for `i < min(k, N)`.  Empty for a study the
    /// warehouse did not load.
    pub fn replicas(&self, study: i64) -> Vec<u64> {
        if !self.studies.contains(&study) {
            return Vec::new();
        }
        ring(study, self.shards.len(), self.replication)
    }

    /// Every loaded study, PET first then MRI, in load order.
    pub fn studies(&self) -> &[i64] {
        &self.studies
    }

    /// The first shard's query server — every shard is a byte-identical
    /// copy, so this is the single-node reference server.
    #[expect(
        clippy::indexing_slicing,
        reason = "install clamps to at least 1 shard, and membership never changes afterwards"
    )]
    pub fn reference_server(&self) -> &MedicalServer {
        self.shards[0].server()
    }

    /// Marks a shard down by hand (drills, benches).  Returns whether
    /// the shard transitioned.
    pub fn kill_shard(&self, id: u64) -> bool {
        self.shard(id).is_some_and(|shard| self.mark_down(shard))
    }

    /// Revives every shard (test isolation between fault runs).
    pub fn revive_all(&self) {
        for shard in &self.shards {
            shard.state().revive();
        }
    }

    /// Downs `shard`; only the caller that sees the transition records
    /// the `shard_down` event and counts the kill.
    fn mark_down(&self, shard: &Shard) -> bool {
        let transitioned = shard.state().mark_down();
        if transitioned {
            event::shard_down(shard.id());
            self.counters.shard_kills.fetch_add(1, Ordering::Relaxed);
        }
        transitioned
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
        }
    }

    /// Summed answer-leg traffic across every shard endpoint.
    pub fn total_shard_net_stats(&self) -> NetStats {
        self.endpoints.total_stats()
    }

    // ----------------------------------------------------------------
    // Query classes
    // ----------------------------------------------------------------

    /// The population aggregate, routed over the shards: identical
    /// answer and deterministic cost columns to
    /// [`qbism::MedicalServer::population_average`] at any shard count
    /// and under any single-replica fault.
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

    /// The multi-study band intersection, routed over the shards:
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
        let stage = |server: &MedicalServer, id| server.band_region_stage(id, lo, hi);
        let fetched = self.scatter(study_ids, &stage, |band| band.encoded_len() as u64);
        // Gather on the router with the single-node server's own fold,
        // so the answer and its wire size are the server's in every
        // stored codec.  (The router has no LFM of its own to credit
        // the fold's skips to.)
        let (mut cost, fold) = reduce_band_stages(fetched, self.codec, ClusterError::Gather)?;
        span.record_u64("decode_skips", fold.decode_skips);
        span.record_u64("leaves_masked", fold.leaves_masked);
        self.ship(&mut cost, fold.wire_bytes)?;
        self.finish(&span, &cost);
        Ok((fold.region, cost))
    }

    // ----------------------------------------------------------------
    // Internals
    // ----------------------------------------------------------------

    /// Runs `stage` for each study in order, each routed to a replica
    /// that serves it (`wire` sizes the answer leg), and returns the
    /// routed stages in study order.
    fn scatter<T>(
        &self,
        study_ids: &[i64],
        stage: &Stage<'_, T>,
        wire: impl Fn(&T) -> u64,
    ) -> Vec<StudyStage<T, ClusterError>> {
        study_ids
            .iter()
            .map(|&id| match self.route(id, stage, &wire) {
                Ok((value, cost)) => StudyStage { cost, outcome: Ok(value) },
                Err(e) => StudyStage { cost: QueryCost::default(), outcome: Err(e) },
            })
            .collect()
    }

    /// Routes one study's sub-query around the ring of its replicas,
    /// failing over on dead shards, injected kills, stage errors and
    /// dropped answer legs.  Success returns the stage value and its
    /// database cost — untouched by the failed attempts before it.
    fn route<T>(
        &self,
        study: i64,
        stage: &Stage<'_, T>,
        wire: &dyn Fn(&T) -> u64,
    ) -> Result<(T, QueryCost)> {
        let owners = self.replicas(study);
        let mut last: Option<ClusterError> = None;
        let mut prev: Option<u64> = None;
        for &sid in &owners {
            if let Some(from) = prev {
                // Recorded on the query's thread, so the failover lands
                // in the owning query's trace.
                event::failover(study, from, sid);
                self.counters.failovers.fetch_add(1, Ordering::Relaxed);
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
            // clients transition it exactly once.
            self.mark_down(shard);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_follow_the_ring() {
        for shards in [1usize, 2, 4] {
            for k in [1usize, 2, 3] {
                for study in -3i64..=9 {
                    let owners = ring(study, shards, k);
                    assert_eq!(owners.len(), k.min(shards), "{study} on {shards} × {k}");
                    let primary = study.rem_euclid(shards as i64) as u64;
                    for (i, &owner) in owners.iter().enumerate() {
                        assert_eq!(owner, (primary + i as u64) % shards as u64, "ring order");
                        assert!(!owners[..i].contains(&owner), "replicas are distinct");
                    }
                }
            }
        }
        // The benchmark's 2 × 2 shape splits primaries over studies 1..=5.
        for shard in 0..2u64 {
            let primaries = (1..=5).filter(|&s| ring(s, 2, 2)[0] == shard).count();
            assert!(primaries >= 2, "shard {shard} is primary for {primaries} studies");
        }
    }
}
