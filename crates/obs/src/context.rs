//! Trace identity and the flight recorder's clock.
//!
//! Every query entrypoint mints a process-unique trace id when it
//! opens its root span; spans and journal events recorded while that
//! trace is current on the thread inherit the id.  A query runs on one
//! thread, so the thread-local id is the whole context.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

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
}
