//! Observability for the QBISM workspace: metrics, spans, exports.
//!
//! The paper's whole evaluation is cost accounting — Tables 3 and 4 and
//! Figure 4 are columns of LFM 4 KiB I/Os, tuple scans, RPC messages and
//! simulated real time.  This crate makes those costs *first-class and
//! cumulative* instead of per-call throwaways: a process-wide
//! [`Registry`] of atomic counters, gauges and fixed-bucket latency
//! histograms, plus a lightweight nestable [`trace`] span facility that
//! turns each query into an `EXPLAIN ANALYZE`-style tree of operators
//! with their measured costs.
//!
//! # Metric name ↔ paper column map
//!
//! | metric | paper result it generalizes |
//! |---|---|
//! | `qbism_lfm_pages_read_total` | Table 3/4 "LFM Disk I/Os (4KB)" (query side) |
//! | `qbism_lfm_pages_written_total` | Table 3 load-time I/O column |
//! | `qbism_lfm_extents_read_total` | seek count feeding the §5.2 disk model |
//! | `qbism_lfm_read_calls_total` / `qbism_lfm_write_calls_total` | LFM call volume (§5.1) |
//! | `qbism_lfm_sim_disk_micros_total` | Table 3 "DB Time (real)" disk component |
//! | `qbism_lfm_buddy_allocs_total` / `_frees_total` / `_splits_total` / `_coalesces_total` | §5.1 buddy scheme behaviour |
//! | `qbism_exec_rows_total` | Table 3 "Tuples Scanned" |
//! | `qbism_exec_selects_total` | query volume over the §3.4 SQL surface |
//! | `qbism_udf_calls_total{udf=...}` | §3.2 operator invocations (extractVoxels, intersection, …) |
//! | `qbism_query_seconds{class=...}` | Table 3/4 per-query-class end-to-end DB time |
//! | `qbism_query_total{class=...}` | per-class query counts |
//! | `qbism_query_wire_bytes_total` | Table 3 answer-size column (bytes shipped to DX) |
//! | `qbism_net_messages_total` / `qbism_net_wire_bytes_total` / `qbism_net_sim_micros_total` | Table 3 "IPC Messages" and network "Answer Time (real)" |
//! | `qbism_faults_injected_total{site=...,outcome=...}` | faults delivered by an armed `qbism-fault` plane |
//! | `qbism_lfm_journal_records_total` / `qbism_lfm_journal_bytes_total` | LFM metadata write-ahead journal traffic |
//! | `qbism_lfm_checkpoints_total` / `qbism_lfm_recoveries_total` | LFM snapshot checkpoints and crash recoveries |
//! | `qbism_lfm_fault_latency_micros_total` | injected device latency (kept out of the Table 3/4 I/O counters) |
//! | `qbism_net_retries_total` / `qbism_net_timeouts_total` | RPC retransmissions and exhausted retry budgets under injected loss |
//!
//! # Reading the span tree
//!
//! Every `MedicalServer` query opens a root span; the executor, the UDF
//! operators and the LFM add child spans with their wall time and
//! key-value fields (`rows_in`, `rows_out`, `pages`, `extents`, the
//! statement's `sql`, and with the page cache on `cache_hits` /
//! `cache_misses` / `cache_evictions`).  The tree is the **one record**
//! of what a query did: opening, annotating and closing a span touch
//! only the thread's own stack.  Finished roots land in a bounded ring
//! of recent spans of the thread that finished them
//! ([`trace::last_root`] reads the caller's, [`trace::recent_roots`]
//! merges all of them) and render as a tree:
//!
//! ```text
//! query.band_in_structure                                   3.1ms  study_id=1
//! └─ db.execute                                             3.0ms  sql=select …
//!    └─ exec.select                                         2.9ms  rows_out=1
//!       ├─ exec.scan warpedvolume                          41.0µs  rows_in=2 rows_out=1
//!       ├─ exec.hash_join intensityband                    55.1µs  rows_in=12 rows_out=1
//!       └─ exec.project                                     2.7ms  rows=1
//!          └─ udf.extractvoxels                             2.6ms
//!             └─ lfm.read                                 801.0µs  pages=29 extents=25
//! ```
//!
//! # Scraping
//!
//! [`Registry::render_prometheus`] emits the Prometheus text exposition
//! format (serve it from any HTTP endpoint, or dump it after a batch
//! run); [`Registry::snapshot_json`] is the same data as one JSON
//! object for programmatic diffing.  Counters are monotone and
//! **wrap** on `u64` overflow, matching Prometheus counter semantics of
//! "rate over resets".
//!
//! Instrumentation is on by default and costs one relaxed atomic load
//! when disabled via [`set_enabled`] — the benchmark's
//! `obs.enabled_overhead_ratio` metric (`BENCHMARK.json`) is measured
//! by flipping exactly this switch.
//!
//! # The flight recorder
//!
//! Beyond aggregate metrics and span trees, the crate is a flight
//! recorder:
//!
//! * [`context`] — every query root mints a trace id; finished trees
//!   carry preorder span ids with parent links, and [`context::fork`]
//!   carries the context across `qbism-parallel` workers so fanned-out
//!   queries produce the same tree as inline execution;
//! * [`event`] — a bounded ring of typed *incidents* (injected faults,
//!   retries, timeouts, failovers, shard kills), plus the slow-query
//!   log and fault-crash dumps.  A fault-free query appends nothing:
//!   what it did is in its span tree, once;
//! * [`export`] — JSONL event dumps, `about:tracing`-loadable Chrome
//!   trace JSON, and exact folded-stack (flamegraph) exclusive times
//!   computed from the finished trees.
//!
//! All of it — registry, span ring, journal, slow-query log, crash
//! dumps, the [`set_enabled`] switch — is process-wide: the shards of
//! an in-process cluster share one of each.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    reason = "ring-buffer indices are masked by the power-of-two capacity"
)]
#![warn(missing_docs)]

pub mod context;
pub mod event;
pub mod export;
pub mod metrics;
pub mod trace;

pub use event::{CrashDump, Event, EventKind, SlowQuery};
pub use metrics::{global, Counter, Gauge, Histogram, Registry};
pub use trace::SpanNode;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables all recording (counters, histograms and
/// spans).  Handles stay valid; disabled operations are no-ops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Serializes tests that read or toggle process-global state (the
/// enabled flag, the global registry, the span ring).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
