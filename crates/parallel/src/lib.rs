//! A tiny owned thread-pool executor for the parallel query engine.
//!
//! QBISM's multi-study queries (population averages, cross-study band
//! intersections) decompose into independent per-study stages followed
//! by an ordered reduce.  This crate provides exactly that shape and
//! nothing more: [`Executor::map`] fans a `Vec` of work items out over
//! scoped worker threads that *claim* indices from a shared atomic
//! counter (work stealing in its simplest form — an idle worker takes
//! the next undone item, so an expensive study never serializes the
//! cheap ones behind it), and hands back results in input order so the
//! caller's reduce is deterministic regardless of thread count.
//!
//! With one thread the executor runs the closure inline on the calling
//! thread.  That is a correctness feature, not an optimization:
//! thread-local machinery (trace spans, fault planes) behaves exactly
//! as in the sequential engine, so `threads = 1` is bit-identical to
//! the pre-parallel code path by construction.
//!
//! The fan-out path carries the caller's *trace context* across the
//! workers (the same shape as the fault plane's `arm_shared` re-arm
//! hook, but owned by the executor so every caller gets it): the
//! caller's `qbism-obs` context is forked before the pool starts, each
//! work item adopts it — its spans are captured on the worker instead
//! of becoming stray root trees — and after the join the captured
//! subtrees are replayed into the caller's open span in input order.
//! The finished span tree is therefore *identical* at any thread
//! count, which is what gives trace/span ids their meaning.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "result and slot indices are claimed below the item count the slot vectors were sized by"
)]

use qbism_check::sync::{AtomicUsize, Mutex, Ordering};
use qbism_check::thread;

/// A fixed-width fan-out executor.
///
/// The pool is *owned* per call — threads are scoped to each
/// [`Executor::map`] invocation and joined before it returns, so the
/// closure may borrow from the caller's stack (the server lends its
/// `&Database` straight to the workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new(1)
    }
}

impl Executor {
    /// An executor that fans out over `threads` workers (clamped to at
    /// least 1).
    pub fn new(threads: usize) -> Executor {
        Executor { threads: threads.max(1) }
    }

    /// Configured fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**.  `f` receives `(index, item)` so workers can label
    /// their work without the caller pre-zipping.
    ///
    /// With `threads == 1` (or a single item) this runs inline on the
    /// calling thread.  Otherwise `min(threads, items)` scoped workers
    /// claim indices from an atomic counter until the list is drained.
    ///
    /// Panics in `f` propagate to the caller once all workers have
    /// stopped (via [`std::thread::scope`]'s join-and-rethrow).
    #[expect(
        clippy::unreachable,
        reason = "the atomic counter hands each slot to one worker, and the scope joins every worker before the results are read"
    )]
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let slots: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::named("parallel.slot", Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> =
            (0..n).map(|_| Mutex::named("parallel.result", None)).collect();
        let next = AtomicUsize::named("parallel.next", 0);
        let workers = self.threads.min(n);
        let fork = qbism_obs::context::fork();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Relaxed is enough: the claim only needs atomicity
                    // (each index handed out once); the happens-before
                    // edge for the item itself comes from the slot
                    // mutex.  The model checker verifies exactly this.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = match slots[i].lock_or_recover().take() {
                        Some(item) => item,
                        None => unreachable!("work item {i} claimed twice"),
                    };
                    let adopted = fork.as_ref().map(|fk| fk.adopt(i));
                    let out = f(i, item);
                    drop(adopted);
                    *results[i].lock_or_recover() = Some(out);
                });
            }
        });
        if let Some(fork) = fork {
            fork.join();
        }
        results
            .into_iter()
            .map(|m| match m.into_inner_or_recover() {
                Some(r) => r,
                None => unreachable!("worker exited without producing its result"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn results_come_back_in_input_order() {
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            let out = exec.map((0..37u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..37u64).map(|x| x * x).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let exec = Executor::new(1);
        let ids = exec.map(vec![(); 4], |_, ()| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn multi_thread_actually_fans_out() {
        // Workers that block until every worker has claimed an item can
        // only finish if the pool really runs them concurrently.
        let exec = Executor::new(4);
        let arrived = AtomicU64::new(0);
        let out = exec.map(vec![(); 4], |i, ()| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let exec = Executor::new(3);
        let out = exec.map((0..100usize).collect(), |_, x| x);
        let distinct: HashSet<usize> = out.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = Executor::new(8);
        let out: Vec<u32> = exec.map(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn trace_context_propagates_and_attaches_in_order() {
        // Worker-side spans must land inside the caller's open span, in
        // input order, producing the same tree at any thread count.
        let mut shapes = Vec::new();
        for threads in [1usize, 4] {
            qbism_obs::trace::clear();
            {
                let _root = qbism_obs::trace::root("query.map_test");
                let exec = Executor::new(threads);
                exec.map((0..8u64).collect(), |i, x| {
                    let span = qbism_obs::trace::root("db.execute");
                    span.record_u64("i", x);
                    i
                });
            }
            let root = qbism_obs::trace::last_root().expect("finished root");
            assert_eq!(root.name, "query.map_test", "threads={threads}");
            assert_eq!(root.children.len(), 8, "threads={threads}");
            for (i, child) in root.children.iter().enumerate() {
                assert_eq!(child.name, "db.execute");
                assert_eq!(child.parent_span_id, root.span_id, "threads={threads}");
                assert_eq!(child.trace_id, root.trace_id, "threads={threads}");
                let got = child.fields.iter().find(|(k, _)| *k == "i").map(|(_, v)| v.clone());
                assert_eq!(got, Some(qbism_obs::trace::FieldValue::U64(i as u64)));
            }
            shapes.push(root.shape());
        }
        assert_eq!(shapes[0], shapes[1], "tree shape differs between 1 and 4 threads");
        qbism_obs::trace::clear();
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(2).map((0..8).collect::<Vec<i32>>(), |_, x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
