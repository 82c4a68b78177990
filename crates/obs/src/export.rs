//! Flight-recorder exporters: JSONL event dumps, Chrome trace-event
//! JSON and folded stacks.
//!
//! [`events_jsonl`] writes one JSON object per line — grep-able,
//! stream-appendable, trivially parsed.  [`chrome_trace`] emits the
//! Chrome trace-event format (load the file in `about:tracing` or
//! Perfetto): each finished span becomes a complete `"ph":"X"` slice
//! and each journal event an instant `"ph":"i"` tick.  Traces map to
//! process rows (`pid` = trace id) and threads to `tid` rows, so an
//! 8-client storm renders as 8 stacked query timelines.
//! [`folded_stacks`] folds the same trees into flamegraph-ready
//! `outer;inner;leaf micros` lines of exclusive time — exact, no
//! sampler.
//!
//! All exporters are pure string builders — callers decide where the
//! bytes go, so `qbism-obs` stays free of filesystem side effects.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{CrashDump, Event, EventKind};
use crate::metrics::json_string;
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
fn event_json(event: &Event) -> String {
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
        EventKind::SlowQuery { name, micros } => {
            let _ = write!(out, ",\"name\":{},\"dur_micros\":{micros}", json_string(name));
        }
        EventKind::CrashDump { site } => {
            let _ = write!(out, ",\"site\":{}", json_string(site));
        }
    }
}

/// Chrome trace-event JSON over finished span trees plus journal
/// events: one `"X"` slice per span, one `"i"` instant per event.
pub fn chrome_trace(roots: &[SpanNode], events: &[Event]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for root in roots {
        span_slices(root, &mut parts);
    }
    parts.extend(events.iter().map(instant_slice));
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

/// Exclusive wall time per span path over finished trees, in the
/// folded-stack format flamegraph tooling reads: one
/// `outer;inner;leaf micros` line per distinct path, where a span's
/// exclusive time is its duration minus its children's (floored at
/// zero, so a clock's rounding never goes negative).
pub fn folded_stacks(roots: &[SpanNode]) -> String {
    fn fold(node: &SpanNode, prefix: &str, into: &mut BTreeMap<String, f64>) {
        let path = if prefix.is_empty() {
            node.name.to_string()
        } else {
            format!("{prefix};{}", node.name)
        };
        let mut exclusive = node.seconds;
        for child in &node.children {
            exclusive -= child.seconds;
            fold(child, &path, into);
        }
        *into.entry(path).or_insert(0.0) += exclusive.max(0.0) * 1e6;
    }
    let mut micros = BTreeMap::new();
    for root in roots {
        fold(root, "", &mut micros);
    }
    let mut out = String::new();
    for (path, micros) in &micros {
        let _ = writeln!(out, "{path} {}", micros.round() as u64);
    }
    out
}

/// One crash dump as a JSON object (events inline, the crashing
/// thread's open spans as an array of names).
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
    for (i, name) in dump.live_spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(name));
    }
    out.push_str("]}");
    out
}

/// Shortest float rendering that survives a round-trip parse.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep a decimal point so the type is evident
    } else {
        format!("{v}")
    }
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
        event::shard_down(3);
        event::fault_injected("lfm.read", "torn");
        event::fault_injected("a \"quoted\" site\nwith newline", "error");
        let text = events_jsonl(&event::events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            balanced(line);
        }
        assert!(lines[0].contains("\"kind\":\"shard_down\",\"shard\":3"));
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
            event::retry("net.ship", 1);
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
        // One slice per span, one instant per journal entry.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
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
        assert!(json.contains("\"live_spans\":[\"query.boom\"]"));
        event::clear_crash_dumps();
        event::clear();
    }

    fn node(name: &'static str, micros: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            seconds: micros as f64 / 1e6,
            start_micros: 0,
            trace_id: 1,
            span_id: 0,
            parent_span_id: 0,
            thread: 1,
            fields: Vec::new(),
            children,
        }
    }

    #[test]
    fn folded_stacks_are_exclusive_time_and_sum_to_the_root() {
        let read = || node("lfm.read", 120, Vec::new());
        let tree = node(
            "query.fold",
            1000,
            vec![
                node("db.execute", 700, vec![read(), read(), node("exec.scan", 60, Vec::new())]),
                node("net.ship", 150, Vec::new()),
            ],
        );
        let folded = folded_stacks(std::slice::from_ref(&tree));
        let lines: Vec<(&str, u64)> = folded
            .lines()
            .map(|l| l.rsplit_once(' ').expect("path, then a count"))
            .map(|(path, n)| (path, n.parse().expect("integer micros")))
            .collect();
        // A path's value is that span's self time; same-path siblings add up.
        assert_eq!(
            lines,
            [
                ("query.fold", 150),
                ("query.fold;db.execute", 400),
                ("query.fold;db.execute;exec.scan", 60),
                ("query.fold;db.execute;lfm.read", 240),
                ("query.fold;net.ship", 150),
            ]
        );
        assert_eq!(lines.iter().map(|(_, n)| n).sum::<u64>(), 1000, "Σ folded = root duration");
        // Two trees of one shape fold into the same paths.
        let twice = folded_stacks(&[tree.clone(), tree]);
        assert!(twice.starts_with("query.fold 300\n"), "{twice}");
    }
}
