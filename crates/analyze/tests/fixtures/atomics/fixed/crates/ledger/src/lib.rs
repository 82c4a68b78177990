//! An atomic's `store` is std's, not a workspace method of that name.
//! `sample_wall_clock` reads the clock into a plain gauge, and
//! `Ledger::store` writes a deterministic cost column; no call path
//! joins them, so there is no confluence.  Linking `gauge.store(…)` to
//! `Ledger::store` by name would report one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub struct Ledger {
    sim_db_seconds: f64,
}

impl Ledger {
    pub fn store(&mut self, pages: u64) {
        self.sim_db_seconds += pages as f64 * 0.012;
    }
}

pub fn sample_wall_clock(gauge: &AtomicUsize) {
    let started = Instant::now();
    gauge.store(started.elapsed().as_micros() as usize, Ordering::Relaxed);
}
