// Fixture: raw std::sync in the sharded warehouse.  `cluster` is on
// the facade list like any other ported crate, and the stake is the
// crate's headline claim: failover races (racing kills, claim/merge,
// lane handoff) that the model checker cannot see void the
// exactness-under-fault argument.

use std::sync::Mutex; // LINT: raw-sync
use std::sync::atomic::AtomicBool; // LINT: raw-sync
use std::sync::{Arc, Condvar}; // LINT: raw-sync

struct BadShardState {
    healthy: std::sync::atomic::AtomicU64, // LINT: raw-sync
}

fn bad_lane() -> std::sync::RwLock<()> { // LINT: raw-sync
    std::sync::RwLock::new(()) // LINT: raw-sync
}

// Ownership and one-shot types carry no scheduling the model must see.
use std::sync::OnceLock;
use std::sync::{mpsc, Weak};

fn fine_ownership(a: Arc<u32>, _w: Weak<u32>, _o: &OnceLock<u32>) -> u32 {
    *a
}

#[cfg(test)]
mod tests {
    // Test code may use raw primitives; the gate skips it.
    use std::sync::Mutex;

    fn fine_in_tests() -> Mutex<u32> {
        Mutex::new(0)
    }
}
