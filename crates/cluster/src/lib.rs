//! qbism-cluster: a replica set of full-copy shard servers with
//! ring-order read failover.
//!
//! The paper's workload is embarrassingly partitionable by study: every
//! multi-study query class is a scatter of independent per-study
//! sub-queries plus an ordered gather.  This crate runs that shape over
//! N shard servers — each a complete [`qbism::MedicalServer`] stored
//! from one prepared set ([`qbism::QbismSystem::prepare`]) with the
//! same configuration, so every replica's bytes are identical — with a
//! [`ClusterWarehouse`] router that routes each study's sub-query in
//! study order and reduces in the same order.
//! Membership is fixed at install; study `s` is tried on shards
//! `(s + i) mod N` for `i < min(k, N)`.
//!
//! **Failover exactness.** Because replicas are byte-identical full
//! copies and a failed attempt charges *nothing* (its cost bracket is
//! discarded wholesale), rerouting a sub-query to the next replica
//! reproduces exactly the cost the first replica would have reported:
//! answers, logical [`qbism::QueryCost`] columns ([`qbism_lfm::IoStats`],
//! rows scanned, wire bytes, messages, simulated network seconds,
//! coverage) are byte-identical at any shard count and under any
//! single-replica fault.  Only when *all* k replicas of a study fail
//! does the router degrade: per-study typed
//! [`ClusterError::ShardsUnavailable`] entries mirroring
//! [`qbism::PopulationAnswer`]'s `skipped`, a whole-query error only
//! when every study is lost.
//!
//! Faults arrive through the existing `qbism-fault` plane at the
//! dotted cluster sites (`cluster.shard.kill`, `cluster.shard.slow`,
//! `cluster.route.drop` — see [`qbism_fault::sites`]) or as netsim
//! timeouts after bounded per-shard channel retries; failover and kill
//! land in the event journal inside the owning trace.

#![forbid(unsafe_code)]

#[doc(hidden)]
pub mod compat;
mod router;
mod shard;

pub use router::{ClusterPopulationAnswer, ClusterWarehouse, RecoveryStats};
pub use shard::{Shard, ShardState};

use qbism::QbismError;
use qbism_netsim::NetError;

/// Errors from the sharded warehouse.
#[derive(Debug)]
pub enum ClusterError {
    /// Every replica of a study failed — the quorum-aware terminal
    /// error.  `last` is the error from the final replica tried.
    ShardsUnavailable {
        /// The study no replica could serve.
        study: i64,
        /// How many replicas were tried.
        replicas: usize,
        /// What the last replica said.
        last: Box<ClusterError>,
    },
    /// A `cluster.shard.kill` fault downed the shard mid-attempt.
    ShardKilled {
        /// The killed shard.
        shard: u64,
    },
    /// The shard was already marked unavailable when routing reached it.
    ShardDown {
        /// The unavailable shard.
        shard: u64,
    },
    /// The shard→router answer leg failed after bounded retries.
    Route {
        /// The shard whose answer leg dropped.
        shard: u64,
        /// The network-layer failure.
        error: NetError,
    },
    /// The sub-query itself failed on the shard (device fault, missing
    /// row, …).
    Query {
        /// The shard the sub-query ran on.
        shard: u64,
        /// The server-side error.
        error: QbismError,
    },
    /// A gather-side (router CPU) step failed: decode, intersect,
    /// re-encode.
    Gather(QbismError),
    /// Preparing the studies every shard is stored from failed (an
    /// unusable configuration, a failed registration).
    Prepare(QbismError),
    /// Storing one shard's copy of the prepared studies failed.
    Store {
        /// The shard being stored.
        shard: u64,
        /// What its store reported.
        error: QbismError,
    },
    /// The router→client ship failed after bounded retries.
    Net(NetError),
    /// The query named a study the warehouse did not load.
    UnknownStudy {
        /// The unknown study.
        study: i64,
    },
    /// The query named no studies.
    NoStudies,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ShardsUnavailable { study, replicas, last } => {
                write!(f, "study {study}: all {replicas} replicas unavailable; last: {last}")
            }
            ClusterError::ShardKilled { shard } => write!(f, "shard {shard} killed by fault"),
            ClusterError::ShardDown { shard } => write!(f, "shard {shard} is down"),
            ClusterError::Route { shard, error } => {
                write!(f, "answer leg from shard {shard}: {error}")
            }
            ClusterError::Query { shard, error } => {
                write!(f, "sub-query on shard {shard}: {error}")
            }
            ClusterError::Gather(e) => write!(f, "gather: {e}"),
            ClusterError::Prepare(e) => write!(f, "prepare: {e}"),
            ClusterError::Store { shard, error } => write!(f, "storing shard {shard}: {error}"),
            ClusterError::Net(e) => write!(f, "client ship: {e}"),
            ClusterError::UnknownStudy { study } => write!(f, "study {study} is not loaded"),
            ClusterError::NoStudies => write!(f, "no studies given"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Result alias for the sharded warehouse.
pub type Result<T> = std::result::Result<T, ClusterError>;
