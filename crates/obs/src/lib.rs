//! Observability for the QBISM workspace: spans, incidents, metrics, exports.
//!
//! The paper's whole evaluation is cost accounting — Tables 3 and 4 and
//! Figure 4 are columns of LFM 4 KiB I/Os, tuple scans, RPC messages and
//! simulated real time.  Each of those counts has one typed home (the
//! query's `QueryCost`, the LFM's `IoStats`, the channel's `NetStats`)
//! and is stamped on the query's span tree; this crate supplies that
//! [`trace`] facility, the incident journal, the exporters, and a small
//! process-wide [`Registry`] of counters and gauges.
//!
//! # The registry's series
//!
//! Only the LFM registers series, and only the eleven the benchmark
//! reads: the read path's physical plan, the page cache, the k³ scan,
//! and the write side of an install.
//!
//! | series | what it counts |
//! |---|---|
//! | `qbism_lfm_extent_phys_reads_total` | device transfers after coalescing adjacent pages |
//! | `qbism_lfm_extent_coalesced_pages_total` | demanded pages that rode another page's transfer |
//! | `qbism_lfm_extent_readahead_pages_total` | pages staged by sequential readahead |
//! | `qbism_lfm_cache_{hits,misses,evictions}_total` | page-cache lookups and reclaimed frames |
//! | `qbism_lfm_compressed_pages_read_total` | pages read out of k³ REGION fields |
//! | `qbism_lfm_compressed_decode_skips_total` | k³ subtrees and leaves bypassed without decode |
//! | `qbism_lfm_pages_written_total` | distinct 4 KiB pages written (load-time I/O) |
//! | `qbism_lfm_journal_bytes_total` | metadata journal bytes appended |
//! | `qbism_lfm_allocated_pages` (gauge) | device pages the last LFM to change it holds |
//!
//! # Reading the span tree
//!
//! Every `MedicalServer` query opens a root span; the executor, the UDF
//! operators and the LFM add child spans with their wall time and
//! key-value fields (`rows_in`, `rows_out`, `pages`, `extents`, the
//! statement's `sql`, and with the page cache on `cache_hits` /
//! `cache_misses` / `cache_evictions`).  The tree is the **one record**
//! of what a query did, recorded flat into the thread's own reused
//! buffers: a span costs two clock reads and, once the thread's ring is
//! full, no allocation.  Finished roots land in a bounded ring of the
//! thread that finished them and become [`SpanNode`] trees only when
//! read ([`trace::last_root`] reads the caller's, [`trace::recent_roots`]
//! merges all of them); they render as a tree:
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
//! format, a `# TYPE` line and one sample per series;
//! [`Registry::snapshot_json`] is the same data as one JSON object.  Counters are monotone and
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
//! Beyond span trees, the crate is a flight recorder:
//!
//! * [`context`] — every query root mints a trace id; finished trees
//!   carry preorder span ids with parent links, a pure function of the
//!   tree's shape;
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
pub use metrics::{global, Counter, Gauge, Registry};
pub use trace::SpanNode;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables recording of counters and spans.
/// Handles stay valid; disabled adds and spans are no-ops.  Gauges
/// publish state and store either way.
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
