//! Bounded incident journal, slow-query log, and crash dumps — the
//! always-on half of the flight recorder.
//!
//! The span tree ([`crate::trace`]) records what a query *did*; this
//! journal records what *went wrong*, which no span carries: injected
//! faults, RPC retries and timeouts, shard kills and failovers, slow
//! queries and crash dumps.  A fault-free query appends nothing, so the
//! ring ([`JOURNAL_CAPACITY`] entries, oldest evicted first and counted
//! in [`dropped`]) holds incidents for as long as incidents are rare.
//! Each [`Event`] carries the trace id current on its thread
//! ([`events_for_trace`] slices by it).  The journal is process-wide.
//!
//! Two triggers snapshot the ring:
//!
//! * **slow queries** — a finished root span whose duration meets the
//!   threshold ([`set_slow_query_threshold`]) captures its EXPLAIN
//!   ANALYZE tree plus the journal slice belonging to its trace
//!   ([`slow_queries`]);
//! * **crashes** — the `qbism-fault` crash path calls
//!   [`capture_crash_dump`], which snapshots the whole ring and the
//!   crashing thread's open spans, so a `crash_sweep` failure always
//!   comes with the events leading up to it ([`last_crash_dump`]).

use crate::LockOrRecover;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::context;
use crate::trace::SpanNode;

/// Bound on the event ring.
pub const JOURNAL_CAPACITY: usize = 16_384;
/// How many slow-query records are retained (newest win).
pub const SLOW_LOG_CAPACITY: usize = 16;
/// How many crash dumps are retained (newest win).
pub const CRASH_DUMP_CAPACITY: usize = 8;
/// Default slow-query threshold: 250 ms.
pub const DEFAULT_SLOW_QUERY_MICROS: u64 = 250_000;

/// A typed journal event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An armed fault plane delivered a fault.
    FaultInjected {
        /// Site pattern that matched, e.g. `lfm.read`.
        site: String,
        /// Outcome name (`error`, `torn`, `crash`, `latency`, `drop`).
        outcome: &'static str,
    },
    /// An RPC was retransmitted.
    Retry {
        /// Site, e.g. `net.ship`.
        site: &'static str,
        /// 1-based retransmission attempt.
        attempt: u64,
    },
    /// An RPC exhausted its retry budget.
    Timeout {
        /// Site, e.g. `net.ship`.
        site: &'static str,
        /// Attempts made before giving up.
        attempts: u64,
    },
    /// The cluster router rerouted a sub-query to a replica mid-query.
    Failover {
        /// Study whose sub-query was rerouted.
        study: i64,
        /// Shard the sub-query was abandoned on.
        from_shard: u64,
        /// Replica shard the sub-query was retried on.
        to_shard: u64,
    },
    /// A shard was marked unavailable (injected kill or health check).
    ShardDown {
        /// The downed shard.
        shard: u64,
    },
    /// A root span met the slow-query threshold.
    SlowQuery {
        /// Root span name.
        name: String,
        /// Query duration in microseconds.
        micros: u64,
    },
    /// A crash dump was captured at this point.
    CrashDump {
        /// Faulted site.
        site: String,
    },
}

impl EventKind {
    /// Stable lowercase label for exports (`fault_injected`, `retry`, …).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::Retry { .. } => "retry",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Failover { .. } => "failover",
            EventKind::ShardDown { .. } => "shard_down",
            EventKind::SlowQuery { .. } => "slow_query",
            EventKind::CrashDump { .. } => "crash_dump",
        }
    }
}

/// One journal entry: monotone sequence number, timestamp, causal
/// context, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone per-process sequence number (gaps mean eviction).
    pub seq: u64,
    /// Microseconds since the process trace epoch.
    pub micros: u64,
    /// Owning trace id, or 0 when recorded outside any trace.
    pub trace: u64,
    /// Recording thread's ordinal.
    pub thread: u64,
    /// Payload.
    pub kind: EventKind,
}

struct Journal {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

static JOURNAL: Mutex<Journal> =
    Mutex::new(Journal { events: VecDeque::new(), next_seq: 0, dropped: 0 });
static SLOW_THRESHOLD: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_QUERY_MICROS);

static SLOW_LOG: Mutex<VecDeque<SlowQuery>> = Mutex::new(VecDeque::new());
static CRASH_DUMPS: Mutex<VecDeque<CrashDump>> = Mutex::new(VecDeque::new());

/// Appends one event to the journal.  No-op while recording is
/// disabled; evicts the oldest entry at capacity.
pub fn record(kind: EventKind) {
    if !crate::enabled() {
        return;
    }
    let mut event = Event {
        seq: 0,
        micros: context::now_micros(),
        trace: context::current_raw(),
        thread: context::thread_ordinal(),
        kind,
    };
    let mut journal = JOURNAL.lock_or_recover();
    event.seq = journal.next_seq;
    journal.next_seq += 1;
    if journal.events.len() >= JOURNAL_CAPACITY {
        journal.events.pop_front();
        journal.dropped += 1;
    }
    journal.events.push_back(event);
}

/// Records an injected fault at `site` with the given outcome name.
pub fn fault_injected(site: &str, outcome: &'static str) {
    record(EventKind::FaultInjected { site: site.to_string(), outcome });
}

/// Records an RPC retransmission.
pub fn retry(site: &'static str, attempt: u64) {
    record(EventKind::Retry { site, attempt });
}

/// Records an exhausted RPC retry budget.
pub fn timeout(site: &'static str, attempts: u64) {
    record(EventKind::Timeout { site, attempts });
}

/// Records a mid-query failover of `study`'s sub-query between shards.
pub fn failover(study: i64, from_shard: u64, to_shard: u64) {
    record(EventKind::Failover { study, from_shard, to_shard });
}

/// Records a shard being marked unavailable.
pub fn shard_down(shard: u64) {
    record(EventKind::ShardDown { shard });
}

/// Snapshot of the journal, oldest first.
pub fn events() -> Vec<Event> {
    JOURNAL.lock_or_recover().events.iter().cloned().collect()
}

/// Journal entries belonging to one trace, oldest first.
pub fn events_for_trace(trace: u64) -> Vec<Event> {
    JOURNAL.lock_or_recover().events.iter().filter(|e| e.trace == trace).cloned().collect()
}

/// Events evicted from the ring so far (journal pressure indicator).
pub fn dropped() -> u64 {
    JOURNAL.lock_or_recover().dropped
}

/// Empties the journal (test isolation).  Sequence numbers keep
/// counting; the drop counter resets.
pub fn clear() {
    let mut journal = JOURNAL.lock_or_recover();
    journal.events.clear();
    journal.dropped = 0;
}

/// A captured slow query: its finished EXPLAIN ANALYZE tree plus the
/// journal slice that belongs to its trace.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Owning trace id.
    pub trace: u64,
    /// Query duration in microseconds.
    pub micros: u64,
    /// The finished root span tree.
    pub tree: SpanNode,
    /// Journal events recorded under this trace (bounded by the ring).
    pub events: Vec<Event>,
}

/// Sets the slow-query threshold.  Roots at least this long are
/// captured; `Duration::ZERO` captures every query,
/// `Duration::MAX` effectively disables the log.
pub fn set_slow_query_threshold(threshold: Duration) {
    let micros = u64::try_from(threshold.as_micros()).unwrap_or(u64::MAX);
    SLOW_THRESHOLD.store(micros, Ordering::Relaxed);
}

/// Retained slow-query captures, oldest first (at most
/// [`SLOW_LOG_CAPACITY`]).
pub fn slow_queries() -> Vec<SlowQuery> {
    SLOW_LOG.lock_or_recover().iter().cloned().collect()
}

/// Empties the slow-query log (test isolation).
pub fn clear_slow_queries() {
    SLOW_LOG.lock_or_recover().clear();
}

/// Called by the tracer when a root span of `seconds` finishes:
/// journals the `slow_query` event and captures the tree + event slice
/// when the threshold is met.  Only then is the tree built.
pub(crate) fn note_root_finished(seconds: f64, tree: impl FnOnce() -> Option<SpanNode>) {
    let micros = (seconds * 1e6) as u64;
    if micros < SLOW_THRESHOLD.load(Ordering::Relaxed) {
        return;
    }
    let Some(tree) = tree() else { return };
    record(EventKind::SlowQuery { name: tree.name.to_string(), micros });
    let capture =
        SlowQuery { trace: tree.trace_id, micros, events: events_for_trace(tree.trace_id), tree };
    let mut log = SLOW_LOG.lock_or_recover();
    if log.len() >= SLOW_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(capture);
}

/// A flight-recorder dump captured when an armed fault plane delivered
/// a crash: the whole event ring plus the crashing thread's open spans
/// at the moment of the crash.
#[derive(Debug, Clone)]
pub struct CrashDump {
    /// Faulted site, e.g. `lfm.meta.write`.
    pub site: String,
    /// Microseconds since the process trace epoch.
    pub micros: u64,
    /// Trace current on the crashing thread (0 = none).
    pub trace: u64,
    /// Crashing thread's ordinal.
    pub thread: u64,
    /// The event ring at the moment of the crash, oldest first.
    pub events: Vec<Event>,
    /// Spans open on the crashing thread, outermost first.
    pub live_spans: Vec<String>,
}

/// Captures a crash dump: journals a `crash_dump` event, then snapshots
/// the event ring and the calling thread's open spans.  Called by the
/// `qbism-fault` crash path; bounded at [`CRASH_DUMP_CAPACITY`].
pub fn capture_crash_dump(site: &str) {
    if !crate::enabled() {
        return;
    }
    record(EventKind::CrashDump { site: site.to_string() });
    let dump = CrashDump {
        site: site.to_string(),
        micros: context::now_micros(),
        trace: context::current_raw(),
        thread: context::thread_ordinal(),
        events: events(),
        live_spans: crate::trace::open_span_names(),
    };
    let mut dumps = CRASH_DUMPS.lock_or_recover();
    if dumps.len() >= CRASH_DUMP_CAPACITY {
        dumps.pop_front();
    }
    dumps.push_back(dump);
}

/// The most recent crash dump, if any.
pub fn last_crash_dump() -> Option<CrashDump> {
    CRASH_DUMPS.lock_or_recover().back().cloned()
}

/// Empties the crash-dump store (test isolation).
pub fn clear_crash_dumps() {
    CRASH_DUMPS.lock_or_recover().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    #[test]
    fn journal_records_and_bounds() {
        let _g = crate::test_lock();
        clear();
        let appends = JOURNAL_CAPACITY as u64 + 20;
        for i in 0..appends {
            shard_down(i);
        }
        let evs = events();
        assert_eq!(evs.len(), JOURNAL_CAPACITY);
        assert_eq!(dropped(), 20);
        // Oldest were evicted: the survivors are the last appends.
        assert_eq!(evs[0].kind, EventKind::ShardDown { shard: 20 });
        // Sequence numbers are monotone and dense within the window.
        for w in evs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        clear();
    }

    #[test]
    fn events_carry_the_current_trace() {
        let _g = crate::test_lock();
        clear();
        trace::clear();
        shard_down(1); // outside any trace
        let trace_id = {
            let _root = trace::root("query.event_ctx");
            let _inner = trace::span("lfm.read");
            retry("net.ship", 3);
            context::current_raw()
        };
        assert!(trace_id != 0);
        let evs = events();
        // Spans journal nothing: the two appends above are all there is.
        assert_eq!(evs.len(), 2, "{evs:?}");
        assert_eq!((evs[0].trace, evs[1].trace), (0, trace_id));
        assert_eq!(events_for_trace(trace_id), vec![evs[1].clone()]);
        assert_eq!(evs[1].kind, EventKind::Retry { site: "net.ship", attempt: 3 });
        clear();
    }

    #[test]
    fn disabled_recording_journals_nothing() {
        let _g = crate::test_lock();
        clear();
        crate::set_enabled(false);
        shard_down(1);
        crate::set_enabled(true);
        assert!(events().is_empty());
    }

    #[test]
    fn slow_query_threshold_captures_tree_and_events() {
        let _g = crate::test_lock();
        clear();
        clear_slow_queries();
        trace::clear();
        set_slow_query_threshold(Duration::ZERO);
        {
            let _root = trace::root("query.slow");
            retry("net.ship", 2);
        }
        set_slow_query_threshold(Duration::from_micros(DEFAULT_SLOW_QUERY_MICROS));
        let log = slow_queries();
        assert_eq!(log.len(), 1);
        let slow = &log[0];
        assert_eq!(slow.tree.name, "query.slow");
        assert!(slow.trace != 0);
        assert!(slow
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Retry { site: "net.ship", attempt: 2 })));
        // The slow_query event itself landed in the journal.
        assert!(events()
            .iter()
            .any(|e| matches!(&e.kind, EventKind::SlowQuery { name, .. } if name == "query.slow")));
        clear_slow_queries();
        clear();
    }

    #[test]
    fn fast_queries_are_not_captured() {
        let _g = crate::test_lock();
        clear_slow_queries();
        trace::clear();
        {
            let _root = trace::root("query.fast");
        }
        assert!(slow_queries().is_empty(), "default 250ms threshold skips a µs query");
    }

    #[test]
    fn crash_dump_snapshots_ring_and_open_spans() {
        let _g = crate::test_lock();
        clear();
        clear_crash_dumps();
        trace::clear();
        {
            let _root = trace::root("query.crashing");
            let _inner = trace::span("lfm.read");
            fault_injected("lfm.read", "crash");
            capture_crash_dump("lfm.read");
        }
        let dump = last_crash_dump().expect("dump captured");
        assert_eq!(dump.site, "lfm.read");
        assert!(dump.trace != 0, "dump tied to the crashing query's trace");
        assert!(dump
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::FaultInjected { site, outcome } if site == "lfm.read" && *outcome == "crash")));
        assert_eq!(dump.live_spans, ["query.crashing", "lfm.read"]);
        assert!(trace::open_span_names().is_empty(), "closed spans leave the stack");
        clear_crash_dumps();
        clear();
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(EventKind::Retry { site: "net.ship", attempt: 1 }.label(), "retry");
        assert_eq!(EventKind::ShardDown { shard: 1 }.label(), "shard_down");
        assert_eq!(
            EventKind::FaultInjected { site: "a.b".into(), outcome: "torn" }.label(),
            "fault_injected"
        );
    }
}
