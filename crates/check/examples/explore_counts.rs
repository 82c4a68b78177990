//! Prints the exploration statistics quoted in EXPERIMENTS.md:
//! executions, total scheduling decisions, and lock-order edges for a
//! representative random sweep and bounded-exhaustive search over the
//! claim-counter protocol.
//!
//! ```text
//! cargo run --release -p qbism-check --example explore_counts
//! ```

#![allow(clippy::indexing_slicing)]

use qbism_check::sync::{Mutex, Ordering};
use qbism_check::{thread, Checker};
use std::sync::Arc;

fn claim_protocol() {
    use qbism_check::sync::AtomicUsize;
    let next = Arc::new(AtomicUsize::new(0));
    let slots = Arc::new([Mutex::new(Some(10u32)), Mutex::new(Some(20u32))]);
    thread::scope(|s| {
        for _ in 0..2 {
            let next = Arc::clone(&next);
            let slots = Arc::clone(&slots);
            s.spawn(move || {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i < slots.len() {
                    let taken = slots[i].lock_or_recover().take();
                    assert!(taken.is_some(), "work item {i} claimed twice");
                }
            });
        }
    });
}

fn main() {
    let random = Checker::random(0x51C5_EEDC_0FFE_E000, 512).run(claim_protocol);
    println!(
        "random sweep:  executions={} schedule_points={} lock_edges={} failure={:?}",
        random.executions, random.schedule_points, random.lock_edges, random.failure
    );

    let dfs = Checker::exhaustive(2).max_executions(20_000).run(claim_protocol);
    println!(
        "exhaustive p<=2: executions={} schedule_points={} exhausted={} failure={:?}",
        dfs.executions, dfs.schedule_points, dfs.exhausted, dfs.failure
    );
}
