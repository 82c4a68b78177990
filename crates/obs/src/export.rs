//! Flight-recorder exporters: JSONL event dumps and Chrome trace-event
//! JSON.
//!
//! [`events_jsonl`] writes one JSON object per line — grep-able,
//! stream-appendable, trivially parsed.  [`chrome_trace`] emits the
//! Chrome trace-event format (load the file in `about:tracing` or
//! Perfetto): each finished span becomes a complete `"ph":"X"` slice
//! and each journal event an instant `"ph":"i"` tick.  Traces map to
//! process rows (`pid` = trace id) and threads to `tid` rows, so an
//! 8-client storm renders as 8 stacked query timelines.
//!
//! Both exporters are pure string builders — callers decide where the
//! bytes go, so `qbism-obs` stays free of filesystem side effects.

use std::fmt::Write as _;

use crate::event::{CrashDump, Event, EventKind};
use crate::metrics::{format_f64, json_string};
use crate::trace::{FieldValue, SpanNode};

/// One JSON object per event, newline-delimited.
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_json(event));
        out.push('\n');
    }
    out
}

/// One event as a single-line JSON object.
pub fn event_json(event: &Event) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"seq\":{},\"micros\":{},\"trace\":{},\"thread\":{},\"kind\":{}",
        event.seq,
        event.micros,
        event.trace,
        event.thread,
        json_string(event.kind.label())
    );
    append_kind_fields(&mut out, &event.kind);
    out.push('}');
    out
}

fn append_kind_fields(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::SpanOpen { name } => {
            let _ = write!(out, ",\"name\":{}", json_string(name));
        }
        EventKind::SpanClose { name, micros } => {
            let _ = write!(out, ",\"name\":{},\"dur_micros\":{micros}", json_string(name));
        }
        EventKind::PageRead { pages, extents } => {
            let _ = write!(out, ",\"pages\":{pages},\"extents\":{extents}");
        }
        EventKind::CacheHit { page, pages } | EventKind::CacheMiss { page, pages } => {
            let _ = write!(out, ",\"page\":{page},\"pages\":{pages}");
        }
        EventKind::CacheEvict { page } => {
            let _ = write!(out, ",\"page\":{page}");
        }
        EventKind::CompressedScan { field, pages, skips } => {
            let _ = write!(out, ",\"field\":{field},\"pages\":{pages},\"skips\":{skips}");
        }
        EventKind::JournalRecord { bytes } => {
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        EventKind::FaultInjected { site, outcome } => {
            let _ =
                write!(out, ",\"site\":{},\"outcome\":{}", json_string(site), json_string(outcome));
        }
        EventKind::Retry { site, attempt } => {
            let _ = write!(out, ",\"site\":{},\"attempt\":{attempt}", json_string(site));
        }
        EventKind::Timeout { site, attempts } => {
            let _ = write!(out, ",\"site\":{},\"attempts\":{attempts}", json_string(site));
        }
        EventKind::Failover { study, from_shard, to_shard } => {
            let _ = write!(
                out,
                ",\"study\":{study},\"from_shard\":{from_shard},\"to_shard\":{to_shard}"
            );
        }
        EventKind::ShardDown { shard } => {
            let _ = write!(out, ",\"shard\":{shard}");
        }
        EventKind::Rebalance { shards, moved } => {
            let _ = write!(out, ",\"shards\":{shards},\"moved\":{moved}");
        }
        EventKind::SlowQuery { name, micros } => {
            let _ = write!(out, ",\"name\":{},\"dur_micros\":{micros}", json_string(name));
        }
        EventKind::CrashDump { site } => {
            let _ = write!(out, ",\"site\":{}", json_string(site));
        }
        EventKind::Custom { name, detail } => {
            let _ =
                write!(out, ",\"name\":{},\"detail\":{}", json_string(name), json_string(detail));
        }
    }
}

/// Chrome trace-event JSON over finished span trees plus journal
/// events.  Span open/close journal entries are skipped — the `"X"`
/// slices already carry them.
pub fn chrome_trace(roots: &[SpanNode], events: &[Event]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for root in roots {
        span_slices(root, &mut parts);
    }
    for event in events {
        if matches!(event.kind, EventKind::SpanOpen { .. } | EventKind::SpanClose { .. }) {
            continue;
        }
        parts.push(instant_slice(event));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", parts.join(","))
}

fn span_slices(node: &SpanNode, out: &mut Vec<String>) {
    let mut args = String::from("{");
    let _ = write!(
        args,
        "\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{}",
        node.trace_id, node.span_id, node.parent_span_id
    );
    for (key, value) in &node.fields {
        let _ = write!(args, ",{}:{}", json_string(key), field_json(value));
    }
    args.push('}');
    out.push(format!(
        "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
        json_string(&node.name),
        node.start_micros,
        format_f64((node.seconds * 1e6).max(0.001)),
        node.trace_id,
        node.thread,
        args
    ));
    for child in &node.children {
        span_slices(child, out);
    }
}

fn instant_slice(event: &Event) -> String {
    let mut args = String::from("{");
    let _ = write!(args, "\"seq\":{}", event.seq);
    append_kind_fields(&mut args, &event.kind);
    args.push('}');
    format!(
        "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
        json_string(event.kind.label()),
        event.micros,
        event.trace,
        event.thread,
        args
    )
}

fn field_json(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) if v.is_finite() => format_f64(*v),
        FieldValue::F64(v) => json_string(&v.to_string()),
        FieldValue::Str(v) => json_string(v),
    }
}

/// One crash dump as a JSON object (events inline, live stacks as
/// arrays of span names).
pub fn crash_dump_json(dump: &CrashDump) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"site\":{},\"micros\":{},\"trace\":{},\"thread\":{},\"events\":[",
        json_string(&dump.site),
        dump.micros,
        dump.trace,
        dump.thread
    );
    for (i, event) in dump.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_json(event));
    }
    out.push_str("],\"live_spans\":[");
    for (i, stack) in dump.live_spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, name) in stack.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event;
    use crate::trace;

    fn balanced(s: &str) {
        assert_eq!(s.matches('{').count(), s.matches('}').count(), "braces: {s}");
        assert_eq!(s.matches('[').count(), s.matches(']').count(), "brackets: {s}");
        assert_eq!(s.matches('"').count() % 2, 0, "quotes: {s}");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let _g = crate::test_lock();
        event::clear();
        event::page_read(3, 2);
        event::fault_injected("lfm.read", "torn");
        event::custom("note", "a \"quoted\" detail\nwith newline");
        let text = events_jsonl(&event::events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            balanced(line);
        }
        assert!(lines[0].contains("\"kind\":\"page_read\""));
        assert!(lines[1].contains("\"outcome\":\"torn\""));
        assert!(lines[2].contains("\\\"quoted\\\""));
        event::clear();
    }

    #[test]
    fn chrome_trace_has_slices_and_instants() {
        let _g = crate::test_lock();
        event::clear();
        trace::clear();
        {
            let root = trace::root("query.chrome");
            root.record_u64("study_id", 7);
            let _inner = trace::span("lfm.read");
            event::page_read(5, 1);
        }
        let json = chrome_trace(&trace::recent_roots(), &event::events());
        balanced(&json);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"query.chrome\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"span_id\":1"));
        assert!(json.contains("\"parent_span_id\":1"), "child links to root");
        assert!(json.contains("\"study_id\":7"));
        // Span open/close journal entries are not duplicated as instants.
        assert!(!json.contains("\"name\":\"span_open\""));
        event::clear();
        trace::clear();
    }

    #[test]
    fn crash_dump_json_roundtrips_shape() {
        let _g = crate::test_lock();
        event::clear();
        event::clear_crash_dumps();
        {
            let _root = trace::root("query.boom");
            event::capture_crash_dump("lfm.meta.write");
        }
        let dump = event::last_crash_dump().expect("dump");
        let json = crash_dump_json(&dump);
        balanced(&json);
        assert!(json.contains("\"site\":\"lfm.meta.write\""));
        assert!(json.contains("\"live_spans\":[[\"query.boom\"]]"));
        event::clear_crash_dumps();
        event::clear();
    }
}
