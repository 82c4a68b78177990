//! Trace identity and cross-thread context propagation.
//!
//! Every query entrypoint mints a process-unique trace id when it
//! opens its root span; spans and journal events recorded while that
//! trace is current on the thread inherit the id.  [`fork`] /
//! [`ForkHandle`] carry the context across a `qbism-parallel` fan-out:
//! the executor captures each work item's finished spans on the worker
//! thread and replays them — in input order — into the calling thread's
//! open span, so the finished tree has exactly the parent/child
//! structure the inline (`threads = 1`) execution would have produced.

use qbism_check::sync::lock_or_recover;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace::{self, Tree};

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static NEXT_FILING: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static THREAD_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

/// The host clock: flight-recorder timestamps only.
#[expect(
    clippy::disallowed_methods,
    reason = "span ids come from a monotonic counter; wall clock only timestamps flight-recorder events"
)]
pub(crate) fn host_now() -> Instant {
    Instant::now()
}

/// Microseconds since the process trace epoch (first instrumented
/// operation).  All span and event timestamps share this origin, so a
/// Chrome trace lines every thread up on one timeline.
pub fn now_micros() -> u64 {
    let epoch = EPOCH.get_or_init(host_now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Fixes the trace epoch unless something already has: a span's start
/// is converted against it when the tree is read, so the epoch must
/// not postdate the span.
pub(crate) fn pin_epoch() {
    EPOCH.get_or_init(host_now);
}

/// [`now_micros`] of a clock reading already taken.
pub(crate) fn micros_at(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(host_now);
    u64::try_from(at.saturating_duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

pub(crate) fn mint_trace() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The next number in the process-wide order finished roots are filed
/// in — how [`trace::recent_roots`] merges the per-thread rings.
pub(crate) fn next_filing() -> u64 {
    NEXT_FILING.fetch_add(1, Ordering::Relaxed)
}

/// Replaces this thread's current trace id, returning the previous one.
pub(crate) fn set_current_trace(id: u64) -> u64 {
    CURRENT_TRACE.with(|c| c.replace(id))
}

pub(crate) fn current_raw() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// A small dense ordinal naming this OS thread in exports (1, 2, 3 …
/// in first-use order).  Stable for the thread's lifetime.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|c| {
        let mut v = c.get();
        if v == 0 {
            v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

/// Trace context captured on the coordinating thread before a parallel
/// fan-out.  Workers call [`ForkHandle::adopt`] around each work item;
/// the coordinator calls [`ForkHandle::join`] after the pool drains.
#[derive(Debug)]
pub struct ForkHandle {
    trace: u64,
    slots: Mutex<Vec<(usize, Tree)>>,
}

/// Captures the calling thread's trace context for a fan-out.  Returns
/// `None` while recording is disabled — workers then run exactly as
/// uninstrumented inline code would.
pub fn fork() -> Option<ForkHandle> {
    if !crate::enabled() {
        return None;
    }
    Some(ForkHandle { trace: current_raw(), slots: Mutex::new(Vec::new()) })
}

impl ForkHandle {
    /// Adopts the forked context on a worker thread for work item
    /// `index`.  While the guard lives, events carry the forked trace
    /// id and spans the item opens are captured instead of starting
    /// stray root trees; the guard's drop files the captured subtrees
    /// under `index` for [`ForkHandle::join`] to replay.
    pub fn adopt(&self, index: usize) -> AdoptGuard<'_> {
        let prev = set_current_trace(self.trace);
        trace::capture_begin();
        AdoptGuard { fork: self, index, prev }
    }

    /// Replays every captured item subtree into the calling thread's
    /// open span, in work-item input order (or files them as roots when
    /// no span is open).  Call after all workers have joined.
    pub fn join(self) {
        let mut slots = self.slots.into_inner().unwrap_or_else(|e| e.into_inner());
        slots.sort_by_key(|(i, _)| *i);
        for (_, segment) in slots {
            trace::attach(&segment);
        }
    }
}

/// RAII scope for one adopted work item; see [`ForkHandle::adopt`].
#[derive(Debug)]
pub struct AdoptGuard<'a> {
    fork: &'a ForkHandle,
    index: usize,
    prev: u64,
}

impl Drop for AdoptGuard<'_> {
    fn drop(&mut self) {
        let segment = trace::capture_end();
        set_current_trace(self.prev);
        if !segment.is_empty() {
            lock_or_recover(&self.fork.slots).push((self.index, segment));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique() {
        assert_ne!(mint_trace(), mint_trace());
    }

    #[test]
    fn thread_ordinal_is_stable_per_thread() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn now_micros_is_monotone() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
    }

    #[test]
    fn fork_captures_worker_spans_in_item_order() {
        let _g = crate::test_lock();
        trace::clear();
        {
            let root = trace::root("query.fork_test");
            assert!(root.is_recording());
            let fork = fork().expect("recording is on");
            std::thread::scope(|s| {
                for idx in (0..4).rev() {
                    let fk = &fork;
                    s.spawn(move || {
                        let _adopt = fk.adopt(idx);
                        let span = trace::root("db.execute");
                        span.record_u64("item", idx as u64);
                    });
                }
            });
            fork.join();
        }
        let tree = trace::last_root().expect("root retained");
        assert_eq!(tree.name, "query.fork_test");
        assert_eq!(tree.children.len(), 4);
        for (i, child) in tree.children.iter().enumerate() {
            assert_eq!(child.name, "db.execute");
            assert_eq!(
                child.field("item"),
                Some(&trace::FieldValue::U64(i as u64)),
                "children replayed in item order"
            );
        }
        // Finalized ids: preorder, one trace.
        assert_eq!(tree.span_id, 1);
        assert!(tree.trace_id != 0);
        for child in &tree.children {
            assert_eq!(child.trace_id, tree.trace_id);
            assert_eq!(child.parent_span_id, 1);
        }
    }

    #[test]
    fn fork_without_open_span_files_roots() {
        let _g = crate::test_lock();
        trace::clear();
        let fork = fork().expect("recording is on");
        std::thread::scope(|s| {
            let fk = &fork;
            s.spawn(move || {
                let _adopt = fk.adopt(0);
                let _span = trace::root("db.execute");
            });
        });
        fork.join();
        let tree = trace::last_root().expect("worker root filed to the ring");
        assert_eq!(tree.name, "db.execute");
        assert!(tree.trace_id != 0, "attached roots still get a trace id");
    }
}
