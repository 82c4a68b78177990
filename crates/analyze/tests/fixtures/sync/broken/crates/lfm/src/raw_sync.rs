// Fixture: raw std::sync in a facade crate at zero hops: imports, signatures, bodies.

use std::sync::Mutex; // LINT: raw-sync
use std::sync::{Arc, Condvar}; // LINT: raw-sync
use std::sync::atomic::AtomicU64; // LINT: raw-sync

fn bad_inline() -> std::sync::RwLock<u32> { // LINT: raw-sync
    std::sync::RwLock::new(0) // LINT: raw-sync
}

use std::sync::OnceLock;
use std::sync::{Weak, mpsc};

fn fine_ownership(a: Arc<u32>, _w: Weak<u32>, _o: &OnceLock<u32>) -> u32 {
    *a
}

fn fine_poison_types(e: std::sync::PoisonError<u32>) -> u32 {
    e.into_inner()
}
