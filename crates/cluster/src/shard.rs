//! One shard: a complete [`QbismSystem`] behind a health flag and a
//! single service lane.
//!
//! The shard's database is stored from the same prepared set and
//! configuration as every other shard's, so its bytes — and therefore the
//! logical I/O, row scans and wire size of any sub-query — are
//! identical to every replica's.  That is the whole failover-exactness
//! argument: retrying a sub-query on another replica re-reads the same
//! bytes and charges the same cost.

use qbism::QbismSystem;
use qbism_obs::LockOrRecover;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Liveness and service-lane state of one shard.  Liveness is one
/// atomic flag, so racing kills see exactly one transition.
#[derive(Debug)]
pub struct ShardState {
    healthy: AtomicBool,
    lane: Mutex<()>,
}

impl Default for ShardState {
    fn default() -> Self {
        ShardState::new()
    }
}

impl ShardState {
    /// A healthy, idle shard.
    pub fn new() -> Self {
        ShardState { healthy: AtomicBool::new(true), lane: Mutex::new(()) }
    }

    /// Whether the shard is serving.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Marks the shard down; returns true only for the transition, so
    /// racing clients down a shard exactly once (one `shard_down`
    /// event, one counter bump).
    pub fn mark_down(&self) -> bool {
        self.healthy.compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Brings the shard back (tests and drills).
    pub fn revive(&self) {
        self.healthy.store(true, Ordering::Release);
    }

    /// Enters the shard's single service lane: sub-queries on one
    /// shard serialize here, which is what makes shard count a real
    /// throughput axis for the bench.
    pub fn enter_lane(&self) -> MutexGuard<'_, ()> {
        self.lane.lock_or_recover()
    }
}

/// A shard server: id, full-copy system, liveness.
pub struct Shard {
    id: u64,
    system: QbismSystem,
    state: ShardState,
}

impl Shard {
    /// A healthy shard serving `system`, one full copy of the database.
    pub fn new(id: u64, system: QbismSystem) -> Shard {
        Shard { id, system, state: ShardState::new() }
    }

    /// The shard's cluster-wide id: its position in the replica set and
    /// its endpoint index.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shard's query server.
    pub fn server(&self) -> &qbism::MedicalServer {
        &self.system.server
    }

    /// The shard's installed system (ground truth for tests).
    pub fn system(&self) -> &QbismSystem {
        &self.system
    }

    /// Liveness and lane state.
    pub fn state(&self) -> &ShardState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_down_transitions_exactly_once() {
        let state = ShardState::new();
        assert!(state.is_healthy());
        assert!(state.mark_down());
        assert!(!state.mark_down(), "second kill is a no-op");
        assert!(!state.is_healthy());
        state.revive();
        assert!(state.is_healthy());
        assert!(state.mark_down());
    }
}
