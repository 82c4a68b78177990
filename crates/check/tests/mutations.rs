//! Mutation fixtures: deliberately broken variants of the workspace's
//! hot concurrency patterns, each paired with its fixed form.  The
//! model checker must flag every broken variant and pass every fixed
//! one — this is the regression suite proving the checker has teeth.

#![allow(clippy::indexing_slicing, clippy::panic)]

use qbism_check::sync::{Mutex, Ordering};
use qbism_check::{thread, Checker, TrackedCell};
use std::sync::Arc;

fn find_failure<F: Fn() + Sync>(f: F) -> Option<String> {
    let report = Checker::random(0xBAD_CAFE, 256).run(&f);
    if let Some(failure) = report.failure {
        return Some(failure.kind);
    }
    Checker::exhaustive(2).max_executions(20_000).run(&f).failure.map(|f| f.kind)
}

// ---------------------------------------------------------------------------
// Fixture 1: the parallel executor's claim counter.
//
// Real protocol (crates/parallel): a shared atomic hands out slot
// indices with fetch_add, and each slot's payload lives behind its own
// mutex — the mutex provides the happens-before edge, so the counter
// itself can be Relaxed.  Broken variant A replaces the atomic RMW with
// a load+store pair, so two workers can claim the same slot.  Broken
// variant B drops the mutex and publishes the payload through a plain
// cell with only Relaxed ordering, losing the happens-before edge.
// ---------------------------------------------------------------------------

#[test]
fn broken_claim_counter_load_store_is_caught() {
    let kind = find_failure(|| {
        use qbism_check::sync::AtomicUsize;
        let next = Arc::new(AtomicUsize::new(0));
        let slots = Arc::new([Mutex::new(Some(10u32)), Mutex::new(Some(20u32))]);
        thread::scope(|s| {
            for _ in 0..2 {
                let next = Arc::clone(&next);
                let slots = Arc::clone(&slots);
                s.spawn(move || {
                    // BROKEN: non-atomic claim — load then store.
                    let i = next.load(Ordering::SeqCst);
                    next.store(i + 1, Ordering::SeqCst);
                    if i < slots.len() {
                        let taken = slots[i].lock_or_recover().take();
                        assert!(taken.is_some(), "work item {i} claimed twice");
                    }
                });
            }
        });
    });
    assert_eq!(kind.as_deref(), Some("panic"), "double-claim must be observable");
}

#[test]
fn fixed_claim_counter_fetch_add_passes() {
    qbism_check::model(|| {
        use qbism_check::sync::AtomicUsize;
        let next = Arc::new(AtomicUsize::new(0));
        let slots = Arc::new([Mutex::new(Some(10u32)), Mutex::new(Some(20u32))]);
        thread::scope(|s| {
            for _ in 0..2 {
                let next = Arc::clone(&next);
                let slots = Arc::clone(&slots);
                s.spawn(move || {
                    // Fixed: atomic RMW; the slot mutex supplies the
                    // happens-before edge, exactly as in crates/parallel.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i < slots.len() {
                        let taken = slots[i].lock_or_recover().take();
                        assert!(taken.is_some(), "work item {i} claimed twice");
                    }
                });
            }
        });
    });
}

#[test]
fn broken_relaxed_result_publication_is_caught() {
    let kind = find_failure(|| {
        use qbism_check::sync::AtomicBool;
        let ready = Arc::new(AtomicBool::new(false));
        let result = Arc::new(TrackedCell::new("mutations.result", 0u64));
        let worker = {
            let ready = Arc::clone(&ready);
            let result = Arc::clone(&result);
            thread::spawn(move || {
                result.set(42);
                // BROKEN: Relaxed store publishes no happens-before edge.
                ready.store(true, Ordering::Relaxed);
            })
        };
        if ready.load(Ordering::Acquire) {
            let _ = result.get();
        }
        worker.join().ok();
    });
    assert_eq!(kind.as_deref(), Some("data-race"));
}

// ---------------------------------------------------------------------------
// Fixture 2: eviction while pinned.
//
// Miniature clock cache in the shape of qbism-lfm's page cache: frames
// carry a pin count, and the clock hand must never evict a pinned
// frame.  The broken variant skips the pin check.
// ---------------------------------------------------------------------------

struct MiniClockCache {
    /// (page, pins, referenced) per frame; None = free.
    frames: Vec<Option<(u64, u32, bool)>>,
    hand: usize,
    check_pins: bool,
}

impl MiniClockCache {
    fn new(capacity: usize, check_pins: bool) -> MiniClockCache {
        MiniClockCache { frames: (0..capacity).map(|_| None).collect(), hand: 0, check_pins }
    }

    /// Pins `page` into some frame, evicting via the clock hand when
    /// full.  Returns the frame index.
    fn pin(&mut self, page: u64) -> usize {
        for (i, f) in self.frames.iter_mut().enumerate() {
            if let Some((p, pins, referenced)) = f {
                if *p == page {
                    *pins += 1;
                    *referenced = true;
                    return i;
                }
            }
        }
        if let Some(i) = self.frames.iter().position(Option::is_none) {
            self.frames[i] = Some((page, 1, true));
            return i;
        }
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let Some((_, pins, referenced)) = &mut self.frames[i] else {
                self.frames[i] = Some((page, 1, true));
                return i;
            };
            if self.check_pins && *pins > 0 {
                continue;
            }
            if *referenced {
                *referenced = false;
                continue;
            }
            // BROKEN when check_pins is false: evicts a pinned frame.
            self.frames[i] = Some((page, 1, true));
            return i;
        }
    }

    fn unpin(&mut self, frame: usize) {
        if let Some((_, pins, _)) = &mut self.frames[frame] {
            *pins = pins.saturating_sub(1);
        }
    }

    /// The invariant a pinned caller relies on: its page is still in
    /// the frame it was pinned into.
    fn assert_pinned(&self, frame: usize, page: u64) {
        let Some((p, pins, _)) = &self.frames[frame] else {
            panic!("pinned frame {frame} was freed");
        };
        assert!(*p == page && *pins > 0, "pinned page {page} evicted from frame {frame}");
    }
}

fn clock_cache_scenario(check_pins: bool) -> impl Fn() + Sync {
    move || {
        let cache = Arc::new(Mutex::named("mutations.cache", MiniClockCache::new(2, check_pins)));
        thread::scope(|s| {
            let reader = Arc::clone(&cache);
            s.spawn(move || {
                let frame = reader.lock_or_recover().pin(1);
                thread::yield_now();
                reader.lock_or_recover().assert_pinned(frame, 1);
                reader.lock_or_recover().unpin(frame);
            });
            let churn = Arc::clone(&cache);
            s.spawn(move || {
                for page in [2u64, 3, 4] {
                    let mut c = churn.lock_or_recover();
                    // Clock-2 rounds refill both frames, forcing the
                    // hand past the reader's pinned frame.
                    let f = c.pin(page);
                    if let Some((_, _, referenced)) = &mut c.frames[f] {
                        *referenced = false;
                    }
                    c.unpin(f);
                    drop(c);
                    thread::yield_now();
                }
            });
        });
    }
}

#[test]
fn broken_eviction_while_pinned_is_caught() {
    assert_eq!(find_failure(clock_cache_scenario(false)).as_deref(), Some("panic"));
}

#[test]
fn fixed_eviction_respects_pins() {
    qbism_check::model(clock_cache_scenario(true));
}

// ---------------------------------------------------------------------------
// Fixture 3: lock-order inversion.
//
// Shape of the acct-bracket vs cache-mutex pairing in qbism-lfm: two
// locks that nest.  The broken variant takes them in opposite orders on
// two threads — the checker must report the cycle (either as a
// lock-order edge cycle or a realized deadlock, depending on schedule).
// ---------------------------------------------------------------------------

#[test]
fn broken_lock_order_inversion_is_caught() {
    let kind = find_failure(|| {
        let acct = Arc::new(Mutex::named("mutations.acct", 0u32));
        let cache = Arc::new(Mutex::named("mutations.cache2", 0u32));
        thread::scope(|s| {
            let (a, c) = (Arc::clone(&acct), Arc::clone(&cache));
            s.spawn(move || {
                let _g1 = a.lock_or_recover();
                let _g2 = c.lock_or_recover();
            });
            let (a, c) = (Arc::clone(&acct), Arc::clone(&cache));
            s.spawn(move || {
                // BROKEN: opposite acquisition order.
                let _g2 = c.lock_or_recover();
                let _g1 = a.lock_or_recover();
            });
        });
    });
    assert!(
        matches!(kind.as_deref(), Some("deadlock") | Some("lock-order")),
        "inversion must surface as deadlock or lock-order cycle, got {kind:?}"
    );
}

#[test]
fn fixed_consistent_lock_order_passes() {
    qbism_check::model(|| {
        let acct = Arc::new(Mutex::named("mutations.acct", 0u32));
        let cache = Arc::new(Mutex::named("mutations.cache2", 0u32));
        thread::scope(|s| {
            for _ in 0..2 {
                let (a, c) = (Arc::clone(&acct), Arc::clone(&cache));
                s.spawn(move || {
                    let _g1 = a.lock_or_recover();
                    let _g2 = c.lock_or_recover();
                });
            }
        });
    });
}
