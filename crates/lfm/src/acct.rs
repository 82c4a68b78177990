//! Per-query I/O accounting brackets.
//!
//! With the read path taking `&self`, several client threads can issue
//! LFM reads against one manager at once, so "global counter before /
//! global counter after" deltas would blend concurrent queries
//! together.  An [`IoBracket`] is a thread-local RAII scope: every
//! charge made *on this thread* while the bracket is open is added to
//! it (and to any enclosing brackets), so a query measures exactly its
//! own I/O regardless of what other threads are doing.
//!
//! Brackets nest (population queries bracket each per-study sub-query
//! inside the whole-query bracket) and are strictly LIFO per thread.

use crate::model::IoStats;
use std::cell::RefCell;

#[derive(Default)]
struct BracketState {
    stats: IoStats,
    fault_latency: f64,
}

thread_local! {
    static BRACKETS: RefCell<Vec<BracketState>> = const { RefCell::new(Vec::new()) };
}

/// Adds an I/O delta to every bracket open on this thread.  Called by
/// the manager's charge path; a thread with no open bracket pays only
/// the empty-vec check.
pub(crate) fn charge(delta: &IoStats) {
    BRACKETS.with(|b| {
        for frame in b.borrow_mut().iter_mut() {
            frame.stats = frame.stats.plus(delta);
        }
    });
}

/// Adds injected device latency to every bracket open on this thread.
pub(crate) fn charge_latency(seconds: f64) {
    BRACKETS.with(|b| {
        for frame in b.borrow_mut().iter_mut() {
            frame.fault_latency += seconds;
        }
    });
}

/// An open per-thread I/O measurement scope.
///
/// Created with [`IoBracket::begin`], closed with [`IoBracket::finish`]
/// (or by drop, discarding the measurement).  The accumulated
/// [`IoStats`] count the *logical* data-plane I/O issued on this thread
/// while the bracket was open — the same numbers the global
/// [`crate::LongFieldManager::stats`] counter would have moved by in a
/// single-threaded run.
#[must_use = "a bracket measures the I/O of its scope"]
#[derive(Debug)]
pub struct IoBracket {
    depth: usize,
    finished: bool,
}

impl IoBracket {
    /// Opens a bracket on the current thread.
    pub fn begin() -> IoBracket {
        let depth = BRACKETS.with(|b| {
            let mut b = b.borrow_mut();
            b.push(BracketState::default());
            b.len()
        });
        IoBracket { depth, finished: false }
    }

    /// Closes the bracket, returning `(io_delta, fault_latency_seconds)`
    /// charged on this thread during its lifetime.
    ///
    /// # Panics
    /// Panics if brackets are closed out of LIFO order on this thread.
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' LIFO invariant of IoBracket; violation is a programming error, not a data error"
    )]
    pub fn finish(mut self) -> (IoStats, f64) {
        self.finished = true;
        BRACKETS.with(|b| {
            let mut b = b.borrow_mut();
            match b.pop() {
                Some(frame) if b.len() + 1 == self.depth => (frame.stats, frame.fault_latency),
                _ => panic!("IoBracket closed out of LIFO order"),
            }
        })
    }
}

impl Drop for IoBracket {
    fn drop(&mut self) {
        if !self.finished {
            BRACKETS.with(|b| {
                let mut b = b.borrow_mut();
                if b.len() == self.depth {
                    b.pop();
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LongFieldManager;

    #[test]
    fn bracket_measures_only_its_scope() {
        let mut lfm = LongFieldManager::new(1 << 20, 4096).unwrap();
        let id = lfm.create(&vec![7u8; 10_000]).unwrap();
        let _warm = lfm.read(id).unwrap();
        let bracket = IoBracket::begin();
        let _ = lfm.read(id).unwrap();
        let (io, latency) = bracket.finish();
        assert_eq!(io.pages_read, 3);
        assert_eq!(io.read_calls, 1);
        assert_eq!(io.pages_written, 0, "pre-bracket create is not charged");
        assert_eq!(latency, 0.0);
    }

    #[test]
    fn brackets_nest_and_both_see_inner_io() {
        let mut lfm = LongFieldManager::new(1 << 20, 4096).unwrap();
        let id = lfm.create(&vec![1u8; 4096 * 2]).unwrap();
        let outer = IoBracket::begin();
        let _ = lfm.read(id).unwrap();
        let inner = IoBracket::begin();
        let _ = lfm.read(id).unwrap();
        let (inner_io, _) = inner.finish();
        let (outer_io, _) = outer.finish();
        assert_eq!(inner_io.read_calls, 1);
        assert_eq!(outer_io.read_calls, 2, "outer bracket spans both reads");
        assert_eq!(outer_io.pages_read, 4);
    }

    #[test]
    fn dropped_bracket_unwinds_cleanly() {
        let lfm = LongFieldManager::new(1 << 20, 4096).unwrap();
        {
            let _abandoned = IoBracket::begin();
        }
        // A fresh bracket still works after the drop.
        let b = IoBracket::begin();
        let _ = lfm.stats();
        let (io, _) = b.finish();
        assert_eq!(io, IoStats::default());
    }

    #[test]
    fn brackets_are_per_thread() {
        let lfm = std::sync::Arc::new(std::sync::Mutex::new(
            LongFieldManager::new(1 << 20, 4096).unwrap(),
        ));
        let id = lfm.lock().unwrap().create(&vec![3u8; 5000]).unwrap();
        let bracket = IoBracket::begin();
        let lfm2 = lfm.clone();
        std::thread::spawn(move || {
            let _ = lfm2.lock().unwrap().read(id).unwrap();
        })
        .join()
        .unwrap();
        let (io, _) = bracket.finish();
        assert_eq!(io.read_calls, 0, "another thread's I/O is not ours");
    }
}
