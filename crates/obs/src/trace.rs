//! Lightweight nestable timed spans — the EXPLAIN ANALYZE backbone.
//!
//! A span is opened with [`root`] (starts a new tree when no span is
//! active) or [`span`] (attaches to the active span, or is discarded
//! when none is).  Guards record key-value fields and finish on drop;
//! finished root trees land in a bounded ring of the thread that
//! finished them, readable via [`last_root`] (this thread's newest) /
//! [`recent_roots`] (every ring, in finish order) and render with
//! [`SpanNode::render_tree`].  One ring per thread means no thread's
//! roots are evicted by another's: a client descheduled between
//! finishing a query and reading its tree still finds it.
//!
//! # Causal identity
//!
//! A true root (no active parent) mints a process-unique trace id and
//! makes it current for the thread (see [`crate::context`]).  When the
//! root finishes, the whole tree is *finalized*: every span is stamped
//! with the trace id and a span id equal to its 1-based preorder
//! position, with parent links.  Because numbering
//! happens on the finished tree, the ids are a pure function of tree
//! shape — a query fanned out over 8 workers gets exactly the ids its
//! single-threaded execution would have.
//!
//! # One record
//!
//! The tree is the only record of what a query *did*: opening, closing
//! and annotating a span touch nothing but this thread's stack, so a
//! fault-free query takes no shared observability lock: its finished
//! root files into its own thread's ring.  What went *wrong* — faults,
//! retries, failovers — is the journal's job ([`crate::event`]); a crash dump reads the
//! crashing thread's open spans straight off this stack.

use qbism_check::sync::lock_or_recover;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::{context, event};

/// How many finished root spans each thread's ring retains.
pub const RING_CAPACITY: usize = 32;

/// How many rings of threads that have exited stay readable; past it
/// the one that filed longest ago is let go as another thread exits.
/// With [`RING_CAPACITY`], this bounds what exited threads retain.
const RETIRED_RINGS: usize = 16;

/// A recorded field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer field (row counts, page counts, bytes).
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field (seconds, ratios).
    F64(f64),
    /// Short string field (SQL text, operator detail).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// A finished span: identity, name, wall time, fields and children.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name, e.g. `exec.scan` or `lfm.read`.  Borrowed for the
    /// common literal names so opening a span does not allocate.
    pub name: Cow<'static, str>,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Microseconds since the process trace epoch when the span opened.
    pub start_micros: u64,
    /// Owning trace; 0 until the tree is finalized (root finished).
    pub trace_id: u64,
    /// 1-based preorder position in the finished tree (1 = root);
    /// 0 until finalized.
    pub span_id: u64,
    /// `span_id` of the parent span; 0 for the root.
    pub parent_span_id: u64,
    /// Ordinal of the OS thread that executed the span
    /// ([`context::thread_ordinal`]).
    pub thread: u64,
    /// Key-value annotations recorded while the span was open.  Keys are
    /// static so recording a field costs one `Vec` push.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total spans in this tree, including self.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// The value of field `key` on this span, if recorded.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The tree's shape as a flat preorder list of `(span_id,
    /// parent_span_id, name)` — the thing that must be identical at any
    /// thread count.
    pub fn shape(&self) -> Vec<(u64, u64, String)> {
        let mut out = Vec::with_capacity(self.span_count());
        self.shape_into(&mut out);
        out
    }

    fn shape_into(&self, out: &mut Vec<(u64, u64, String)>) {
        out.push((self.span_id, self.parent_span_id, self.name.to_string()));
        for child in &self.children {
            child.shape_into(out);
        }
    }

    /// Renders the tree with `├─`/`└─` rails, one span per line:
    /// name, padded duration, then `key=value` fields.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", "", "");
        out
    }

    fn render_into(&self, out: &mut String, lead: &str, here: &str, below: &str) {
        let mut label = format!("{lead}{here}{}", self.name);
        if label.len() < 52 {
            label.push_str(&" ".repeat(52 - label.len()));
        }
        let _ = write!(out, "{label} {:>10}", format_duration(self.seconds));
        for (k, v) in &self.fields {
            let _ = write!(out, "  {k}={v}");
        }
        out.push('\n');
        let child_lead = format!("{lead}{below}");
        for (i, child) in self.children.iter().enumerate() {
            if i + 1 == self.children.len() {
                child.render_into(out, &child_lead, "└─ ", "   ");
            } else {
                child.render_into(out, &child_lead, "├─ ", "│  ");
            }
        }
    }
}

/// Human-scaled duration: `801.0µs`, `3.1ms`, `2.45s`.
fn format_duration(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.1}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

/// An open span frame on the thread-local stack.
struct Frame {
    name: Cow<'static, str>,
    started: Instant,
    start_micros: u64,
    /// Capture sentinel pushed by [`capture_begin`]: collects a
    /// parallel work item's subtrees for later replay and never becomes
    /// a span itself.
    capture: bool,
    fields: Vec<(&'static str, FieldValue)>,
    children: Vec<SpanNode>,
}

impl Frame {
    /// A frame opened at `started`: the one clock reading is both the
    /// duration's origin and the epoch-relative start.
    fn new(name: Cow<'static, str>, started: Instant, capture: bool) -> Frame {
        Frame {
            name,
            started,
            start_micros: context::micros_at(started),
            capture,
            fields: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// One thread's finished roots, oldest first, each with its
/// [`context::next_filing`] number.
type Ring = Mutex<VecDeque<(u64, SpanNode)>>;

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// This thread's ring, registered in [`RINGS`] when it first files.
    static OWN_RING: RefCell<OwnRing> = const { RefCell::new(OwnRing(None)) };
}

/// Every registered ring, so [`recent_roots`] sees all threads and a
/// thread's roots outlive it.  A ring whose only owner is this list
/// belongs to a thread that has exited.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Guard for an open span; finishes (and files the result) on drop.
///
/// Inert guards (tracing disabled, or [`span`] with no active parent)
/// record nothing and cost only the construction check.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard {
    live: bool,
    /// Root spans push the finished tree to the global ring.
    is_root: bool,
    /// Trace id this guard minted (0 when it joined an existing trace).
    minted: u64,
}

impl SpanGuard {
    fn open(name: Cow<'static, str>, is_root: bool, minted: u64) -> SpanGuard {
        let frame = Frame::new(name, context::host_now(), false);
        STACK.with(|stack| stack.borrow_mut().push(frame));
        SpanGuard { live: true, is_root, minted }
    }

    fn inert() -> SpanGuard {
        SpanGuard { live: false, is_root: false, minted: 0 }
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.live
    }

    /// Records an unsigned integer field on this span.
    pub fn record_u64(&self, key: &'static str, value: u64) {
        self.record(key, FieldValue::U64(value));
    }

    /// Records a signed integer field on this span.
    pub fn record_i64(&self, key: &'static str, value: i64) {
        self.record(key, FieldValue::I64(value));
    }

    /// Records a floating-point field on this span.
    pub fn record_f64(&self, key: &'static str, value: f64) {
        self.record(key, FieldValue::F64(value));
    }

    /// Records a string field on this span, cut to at most 96 bytes
    /// (93 and `...`) at a char boundary before anything is copied.
    pub fn record_str(&self, key: &'static str, value: &str) {
        if !self.live {
            return;
        }
        let v = if value.len() > 96 {
            let mut cut = 93;
            while !value.is_char_boundary(cut) {
                cut -= 1;
            }
            format!("{}...", &value[..cut])
        } else {
            value.to_string()
        };
        self.record(key, FieldValue::Str(v));
    }

    fn record(&self, key: &'static str, value: FieldValue) {
        if !self.live {
            return;
        }
        STACK.with(|stack| {
            if let Some(frame) = stack.borrow_mut().last_mut() {
                frame.fields.push((key, value));
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let node = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop()?;
            let seconds = frame.started.elapsed().as_secs_f64();
            let node = SpanNode {
                name: frame.name,
                seconds,
                start_micros: frame.start_micros,
                trace_id: 0,
                span_id: 0,
                parent_span_id: 0,
                thread: context::thread_ordinal(),
                fields: frame.fields,
                children: frame.children,
            };
            if let Some(parent) = stack.last_mut() {
                parent.children.push(node);
                None
            } else {
                Some(node)
            }
        });
        if let Some(mut node) = node {
            if self.is_root {
                finalize_root(&mut node, self.minted);
                file_root(node);
            }
        }
        if self.minted != 0 {
            context::set_current_trace(0);
        }
    }
}

/// Stamps trace id, preorder span ids and parent links onto a finished
/// tree.  `trace_id == 0` mints a fresh trace.
fn finalize_root(node: &mut SpanNode, trace_id: u64) {
    let trace = if trace_id != 0 { trace_id } else { context::mint_trace() };
    let mut next = 0u64;
    assign_ids(node, trace, 0, &mut next);
}

fn assign_ids(node: &mut SpanNode, trace: u64, parent: u64, next: &mut u64) {
    *next += 1;
    node.trace_id = trace;
    node.span_id = *next;
    node.parent_span_id = parent;
    let me = *next;
    for child in &mut node.children {
        assign_ids(child, trace, me, next);
    }
}

/// Slow-query check, then this thread's bounded ring — whose lock only
/// a reader of every ring ever contends for.
fn file_root(node: SpanNode) {
    event::note_root_finished(&node);
    let filed = (context::next_filing(), node);
    // The evicted tree is freed here, on the thread that filed it, once
    // the lock is released.  (A root finished while the thread's locals
    // are being torn down has no ring left to file into.)
    let _evicted = OWN_RING.try_with(|own| {
        let mut own = own.borrow_mut();
        let ring = own.0.get_or_insert_with(|| {
            let ring = Arc::new(Ring::default());
            lock_or_recover(&RINGS).push(Arc::clone(&ring));
            ring
        });
        let mut ring = lock_or_recover(ring);
        ring.push_back(filed);
        if ring.len() > RING_CAPACITY {
            ring.pop_front()
        } else {
            None
        }
    });
}

/// The calling thread's ring.  When the thread exits, the ring stays
/// in [`RINGS`] — its roots readable until [`clear`] — and the rings
/// of exited threads past [`RETIRED_RINGS`] are let go, those whose
/// newest root is oldest first.
struct OwnRing(Option<Arc<Ring>>);

impl Drop for OwnRing {
    fn drop(&mut self) {
        // Ours is retired the moment this handle is gone.
        if self.0.take().is_none() {
            return;
        }
        let newest = |r: &Ring| lock_or_recover(r).back().map_or(0, |(filed, _)| *filed);
        let mut released = Vec::new();
        let mut rings = lock_or_recover(&RINGS);
        // Threads exiting together may each have left one more.
        loop {
            let retired: Vec<usize> =
                (0..rings.len()).filter(|&at| Arc::strong_count(&rings[at]) == 1).collect();
            if retired.len() <= RETIRED_RINGS {
                break;
            }
            let stalest = retired.into_iter().min_by_key(|&at| newest(&rings[at]));
            released.extend(stalest.map(|at| rings.swap_remove(at)));
        }
        // The released trees are freed once the lock is released.
        drop(rings);
        drop(released);
    }
}

/// Pushes a capture sentinel frame: spans opened on this thread until
/// the matching [`capture_end`] nest under it instead of starting trees
/// of their own.  Used by [`context::ForkHandle`] on worker threads.
pub(crate) fn capture_begin() {
    let frame = Frame::new(Cow::Borrowed("(capture)"), context::host_now(), true);
    STACK.with(|stack| stack.borrow_mut().push(frame));
}

/// Pops the capture sentinel and returns the subtrees it collected.
pub(crate) fn capture_end() -> Vec<SpanNode> {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        match stack.pop() {
            Some(frame) if frame.capture => frame.children,
            Some(frame) => {
                // Unbalanced (a guard leaked past its capture scope);
                // restore and bail rather than corrupt the stack.
                stack.push(frame);
                Vec::new()
            }
            None => Vec::new(),
        }
    })
}

/// Appends already-finished subtrees to the currently open span, in
/// order — the replay half of cross-thread capture.  With no open span
/// each subtree is finalized and filed as a root of its own.
pub(crate) fn attach(nodes: Vec<SpanNode>) {
    let leftover = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(frame) = stack.last_mut() {
            frame.children.extend(nodes);
            None
        } else {
            Some(nodes)
        }
    });
    if let Some(nodes) = leftover {
        for mut node in nodes {
            finalize_root(&mut node, 0);
            file_root(node);
        }
    }
}

/// Opens a span that starts a new tree when no span is active on this
/// thread (the finished tree is kept in the recent-roots ring), or
/// nests under the active span otherwise.  A true root mints the
/// thread's current trace id.
///
/// Accepts `&'static str` (no allocation) or an owned `String` for
/// dynamic names.
pub fn root(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inert();
    }
    let has_parent = STACK.with(|stack| !stack.borrow().is_empty());
    let minted = if has_parent {
        0
    } else {
        let id = context::mint_trace();
        context::set_current_trace(id);
        id
    };
    SpanGuard::open(name.into(), !has_parent, minted)
}

/// Opens a child span under the currently active span.  When no span is
/// active (or tracing is disabled) the guard is inert — interior layers
/// like the LFM can instrument unconditionally without ever starting
/// trees of their own.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inert();
    }
    let has_parent = STACK.with(|stack| !stack.borrow().is_empty());
    if !has_parent {
        return SpanGuard::inert();
    }
    SpanGuard::open(name.into(), false, 0)
}

/// Names of the spans open on the calling thread, outermost first —
/// what a crash dump records of the query in flight.
pub(crate) fn open_span_names() -> Vec<String> {
    STACK.with(|stack| {
        stack.borrow().iter().filter(|f| !f.capture).map(|f| f.name.to_string()).collect()
    })
}

/// The root span tree the calling thread finished most recently, if
/// any — whatever other threads filed since.
pub fn last_root() -> Option<SpanNode> {
    OWN_RING
        .try_with(|own| {
            let own = own.borrow();
            let ring = lock_or_recover(own.0.as_ref()?);
            ring.back().map(|(_, node)| node.clone())
        })
        .ok()
        .flatten()
}

/// Every retained finished root of every thread, oldest first (at most
/// [`RING_CAPACITY`] per thread).
pub fn recent_roots() -> Vec<SpanNode> {
    let rings = lock_or_recover(&RINGS).clone();
    let mut filed: Vec<(u64, SpanNode)> =
        rings.iter().flat_map(|ring| lock_or_recover(ring).clone()).collect();
    filed.sort_unstable_by_key(|&(at, _)| at);
    filed.into_iter().map(|(_, node)| node).collect()
}

/// Empties every thread's ring and lets go of those of exited threads
/// (test isolation).
pub fn clear() {
    let released = {
        let mut rings = lock_or_recover(&RINGS);
        let (live, retired): (Vec<_>, Vec<_>) =
            rings.drain(..).partition(|ring| Arc::strong_count(ring) > 1);
        *rings = live;
        for ring in rings.iter() {
            lock_or_recover(ring).clear();
        }
        retired
    };
    drop(released);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_the_expected_tree() {
        let _g = crate::test_lock();
        clear();
        {
            let q = root("query.test_nesting");
            q.record_u64("study_id", 7);
            {
                let ex = span("exec.select");
                ex.record_u64("rows_out", 3);
                {
                    let _scan = span("exec.scan");
                }
                {
                    let udf = span("udf.extractvoxels");
                    let lfm = span("lfm.read");
                    lfm.record_u64("pages", 29);
                    drop(lfm);
                    drop(udf);
                }
            }
        }
        let tree = last_root().expect("root retained");
        assert_eq!(tree.name, "query.test_nesting");
        assert_eq!(tree.span_count(), 5);
        assert_eq!(tree.children.len(), 1);
        let ex = &tree.children[0];
        assert_eq!(ex.name, "exec.select");
        assert_eq!(ex.children.len(), 2);
        assert_eq!(ex.children[0].name, "exec.scan");
        assert_eq!(ex.children[1].name, "udf.extractvoxels");
        let lfm = tree.find("lfm.read").expect("lfm span nested");
        assert_eq!(lfm.field("pages"), Some(&FieldValue::U64(29)));
        // Parent durations cover child durations.
        assert!(tree.seconds >= ex.seconds);
    }

    #[test]
    fn finalized_ids_are_preorder_with_parent_links() {
        let _g = crate::test_lock();
        clear();
        {
            let _q = root("query.ids");
            {
                let _a = span("exec.select");
                let _b = span("exec.scan");
            }
            let _c = span("net.ship");
        }
        let tree = last_root().expect("root retained");
        assert!(tree.trace_id != 0);
        let shape = tree.shape();
        let expected: Vec<(u64, u64, &str)> = vec![
            (1, 0, "query.ids"),
            (2, 1, "exec.select"),
            (3, 2, "exec.scan"),
            (4, 1, "net.ship"),
        ];
        assert_eq!(shape.len(), expected.len());
        for ((id, parent, name), (eid, eparent, ename)) in shape.iter().zip(&expected) {
            assert_eq!((id, parent, name.as_str()), (eid, eparent, *ename));
        }
        // Every span carries the same trace and a timestamp after epoch.
        fn walk(n: &SpanNode, trace: u64) {
            assert_eq!(n.trace_id, trace);
            assert!(n.thread >= 1);
            for c in &n.children {
                assert!(c.start_micros >= n.start_micros);
                walk(c, trace);
            }
        }
        walk(&tree, tree.trace_id);
    }

    #[test]
    fn current_trace_is_set_while_root_open() {
        let _g = crate::test_lock();
        clear();
        assert_eq!(context::current_raw(), 0);
        {
            let _q = root("query.current");
            assert!(context::current_raw() != 0, "trace current inside root");
        }
        assert_eq!(context::current_raw(), 0, "cleared after root drop");
    }

    #[test]
    fn orphan_child_spans_are_discarded() {
        let _g = crate::test_lock();
        clear();
        {
            let s = span("lfm.read");
            assert!(!s.is_recording());
            s.record_u64("pages", 1);
        }
        assert!(last_root().is_none());
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = crate::test_lock();
        clear();
        crate::set_enabled(false);
        {
            let r = root("query.disabled");
            assert!(!r.is_recording());
        }
        crate::set_enabled(true);
        assert!(last_root().is_none());
    }

    #[test]
    fn nested_root_behaves_as_child() {
        let _g = crate::test_lock();
        clear();
        {
            let _outer = root("query.outer");
            let _inner = root("db.execute"); // root() nests when a parent exists
        }
        let tree = last_root().expect("one tree");
        assert_eq!(tree.name, "query.outer");
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "db.execute");
        // Only one ring entry: the inner "root" did not start its own tree.
        assert_eq!(recent_roots().len(), 1);
    }

    #[test]
    fn ring_is_bounded() {
        let _g = crate::test_lock();
        clear();
        for i in 0..(RING_CAPACITY + 5) {
            let r = root("query.ring");
            r.record_u64("i", i as u64);
        }
        let roots = recent_roots();
        assert_eq!(roots.len(), RING_CAPACITY);
        // Oldest entries were evicted.
        assert_eq!(roots[0].field("i"), Some(&FieldValue::U64(5)));
    }

    /// Thread A files a root, thread B files more than a ring holds: A's
    /// newest is still A's, and B's oldest were evicted from B's ring.
    #[test]
    fn each_thread_reads_back_its_own_newest_root() {
        let _g = crate::test_lock();
        clear();
        let (to_b, b_waits) = std::sync::mpsc::channel::<()>();
        let (to_a, a_waits) = std::sync::mpsc::channel::<()>();
        let a = std::thread::spawn(move || {
            drop(root("query.thread_a"));
            to_b.send(()).unwrap();
            a_waits.recv().unwrap();
            last_root().map(|tree| tree.name)
        });
        b_waits.recv().unwrap();
        let b = std::thread::spawn(|| {
            for i in 0..40u64 {
                root("query.thread_b").record_u64("i", i);
            }
            last_root().and_then(|tree| tree.field("i").cloned())
        });
        assert_eq!(b.join().unwrap(), Some(FieldValue::U64(39)));
        to_a.send(()).unwrap();
        assert_eq!(a.join().unwrap().as_deref(), Some("query.thread_a"));
        assert!(last_root().is_none(), "this thread filed nothing");
        // Both threads have exited; their roots stay readable, merged
        // in finish order: A's one, then B's newest RING_CAPACITY.
        let roots = recent_roots();
        assert_eq!(roots.len(), 1 + RING_CAPACITY);
        assert_eq!(roots[0].name, "query.thread_a");
        assert_eq!(roots[1].field("i"), Some(&FieldValue::U64(40 - RING_CAPACITY as u64)));
        assert_eq!(roots[RING_CAPACITY].field("i"), Some(&FieldValue::U64(39)));
        clear();
        assert!(recent_roots().is_empty());
    }

    /// However many threads file and exit, what they leave behind stays
    /// within `RETIRED_RINGS` rings, the most recently filed kept.
    #[test]
    fn exited_threads_retain_a_bounded_number_of_rings() {
        let _g = crate::test_lock();
        clear();
        for t in 0..(RETIRED_RINGS as u64 + 9) {
            std::thread::spawn(move || root("query.exited").record_u64("t", t)).join().unwrap();
        }
        let roots = recent_roots();
        assert_eq!(roots.len(), RETIRED_RINGS);
        assert_eq!(roots[0].field("t"), Some(&FieldValue::U64(9)));
        clear();
    }

    #[test]
    fn tree_rendering_has_rails_and_durations() {
        let _g = crate::test_lock();
        clear();
        {
            let q = root("query.render");
            q.record_str("sql", "select voxels from study");
            let _a = span("exec.scan");
            drop(_a);
            let _b = span("exec.project");
        }
        let text = last_root().unwrap().render_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("query.render"));
        assert!(lines[0].contains("sql=select voxels from study"));
        assert!(lines[1].contains("├─ exec.scan"));
        assert!(lines[2].contains("└─ exec.project"));
        for line in &lines {
            assert!(
                line.contains("µs") || line.contains("ms") || line.contains('s'),
                "no duration in {line}"
            );
        }
    }

    #[test]
    fn long_string_fields_are_truncated() {
        let _g = crate::test_lock();
        clear();
        {
            let q = root("query.trunc");
            q.record_str("sql", &"x".repeat(400));
            // 'é' is two bytes and byte 93 falls inside one: the cut
            // backs up to the boundary at 92.
            q.record_str("wide", &"é".repeat(200));
            q.record_str("short", "é");
        }
        let tree = last_root().unwrap();
        for (key, kept) in [("sql", "x".repeat(93)), ("wide", "é".repeat(46))] {
            match tree.field(key) {
                Some(FieldValue::Str(s)) => {
                    assert!(s.len() <= 96);
                    assert_eq!(*s, format!("{kept}..."));
                }
                other => panic!("unexpected field {other:?}"),
            }
        }
        assert_eq!(tree.field("short"), Some(&FieldValue::Str("é".to_string())));
    }
}
