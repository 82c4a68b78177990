//! Happens-before race detection over [`TrackedCell`]s.
//!
//! A `TrackedCell<T>` is plain data that the model watches: every read
//! and write is checked against the cell's access history using the
//! owning threads' vector clocks.  Two accesses race when neither
//! happens-before the other and at least one is a write.  Storage is a
//! `std::sync::Mutex` rather than an `UnsafeCell` — a real race on the
//! cell is therefore detected *logically* (via clocks) instead of being
//! undefined behaviour, which keeps the whole workspace
//! `#![forbid(unsafe_code)]`-clean.
//!
//! Outside a model execution a `TrackedCell` degrades to an ordinary
//! mutex-wrapped value with no checking.

use crate::clock::VClock;
use crate::sched::{current_ctx, fresh_object_id, Attempt, ExecState, Tid};
use std::collections::HashMap;
use std::sync::{Mutex as StdMutex, OnceLock};

/// Last-access bookkeeping for one tracked cell.
#[derive(Debug, Default)]
pub(crate) struct CellHistory {
    /// Clock of the most recent write and the thread that did it.
    last_write: Option<(Tid, VClock)>,
    /// Clocks of reads not yet ordered behind a subsequent write.
    reads: Vec<(Tid, VClock)>,
}

#[derive(Debug, Default)]
pub(crate) struct RaceState {
    cells: HashMap<u64, CellHistory>,
}

impl RaceState {
    /// Records an access and reports the first race found, as
    /// `(other_tid, access_kind_of_other)`.
    pub(crate) fn access(
        &mut self,
        cell: u64,
        tid: Tid,
        clock: &VClock,
        is_write: bool,
    ) -> Option<(Tid, &'static str)> {
        let h = self.cells.entry(cell).or_default();
        if let Some((wtid, wclock)) = &h.last_write {
            if *wtid != tid && !wclock.leq(clock) {
                return Some((*wtid, "write"));
            }
        }
        if is_write {
            for (rtid, rclock) in &h.reads {
                if *rtid != tid && !rclock.leq(clock) {
                    return Some((*rtid, "read"));
                }
            }
            h.last_write = Some((tid, clock.clone()));
            h.reads.clear();
        } else {
            // Keep only the latest read clock per thread; earlier reads
            // are dominated by it.
            h.reads.retain(|(rtid, _)| *rtid != tid);
            h.reads.push((tid, clock.clone()));
        }
        None
    }
}

/// A value whose accesses are race-checked under the model.
///
/// Use it for the data a synchronization protocol is supposed to
/// protect; if the protocol's happens-before edges are too weak (e.g. a
/// `Relaxed` publication), the checker reports the race with both
/// threads' positions.
#[derive(Debug)]
pub struct TrackedCell<T> {
    id: OnceLock<u64>,
    name: &'static str,
    value: StdMutex<T>,
}

impl<T: Clone> TrackedCell<T> {
    pub const fn new(name: &'static str, value: T) -> TrackedCell<T> {
        TrackedCell { id: OnceLock::new(), name, value: StdMutex::new(value) }
    }

    fn id(&self) -> u64 {
        *self.id.get_or_init(fresh_object_id)
    }

    fn check(&self, is_write: bool) {
        if let Some(ctx) = current_ctx() {
            let id = self.id();
            let name = self.name;
            let kind = if is_write { "write" } else { "read" };
            ctx.exec.op(ctx.tid, &|| format!("{kind} cell '{name}'"), |st: &mut ExecState, tid| {
                let clock = st.threads[tid].clock.clone();
                if let Some((other, other_kind)) = st.race.access(id, tid, &clock, is_write) {
                    let detail = format!(
                        "data race on cell '{name}': {kind} by [{tid}:{}] is concurrent with \
                             {other_kind} by [{other}:{}]\nschedule trace:\n{}",
                        st.threads[tid].name,
                        st.threads[other].name,
                        st.format_trace()
                    );
                    st.fail("data-race", detail);
                }
                Attempt::Done(())
            });
        }
    }

    /// Race-checked read.
    pub fn get(&self) -> T {
        self.check(false);
        self.value.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Race-checked write.
    pub fn set(&self, value: T) {
        self.check(true);
        *self.value.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = value;
    }
}
