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
//! makes it current for the thread (see [`crate::context`]).  Every
//! span of the finished tree carries that trace id and a span id equal
//! to its 1-based preorder position, with parent links.  Because the
//! ids are positions, they are a pure function of tree shape — the
//! same query gets the same ids on any client thread.
//!
//! # One record
//!
//! The tree is the only record of what a query *did*, kept flat: each
//! thread records into its own reused buffers — span records in open
//! order (which is preorder, so a record's index + 1 is its span id),
//! one field list, one text arena for names and string fields, and the
//! stack of open indices.  Opening a span reads the clock and pushes a
//! record, closing it reads the clock once more, and a guard writes
//! fields to its own record.  A finished root hands its buffers to the
//! thread's ring in exchange for the evicted tree's, cleared, so once
//! the ring is full a query records without allocating or taking a
//! shared lock.  [`SpanNode`] trees are built only when read.  What
//! went *wrong* — faults, retries, failovers — is the journal's job
//! ([`crate::event`]); a crash dump reads the crashing thread's open
//! spans straight off its recorder.

use qbism_check::sync::lock_or_recover;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::marker::PhantomData;
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
    /// Span name, e.g. `exec.scan` or `lfm.read`.
    pub name: Cow<'static, str>,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Microseconds since the process trace epoch when the span opened.
    pub start_micros: u64,
    /// Owning trace.
    pub trace_id: u64,
    /// 1-based preorder position in the finished tree (1 = root).
    pub span_id: u64,
    /// `span_id` of the parent span; 0 for the root.
    pub parent_span_id: u64,
    /// Ordinal of the OS thread that executed the span
    /// ([`context::thread_ordinal`]).
    pub thread: u64,
    /// Key-value annotations recorded while the span was open.
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

/// "No span": the parent of a root, and the index of an inert guard.
const NONE: usize = usize::MAX;

/// A string kept in a tree's text arena: its byte range.
#[derive(Debug, Clone, Copy)]
struct Text {
    at: usize,
    len: usize,
}

/// A recorded field value; strings live in the tree's text arena.
#[derive(Debug, Clone, Copy)]
enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(Text),
}

/// A field and the index of the span it annotates.
#[derive(Debug, Clone, Copy)]
struct Field {
    span: usize,
    key: &'static str,
    value: Value,
}

/// One span of a flat tree.
#[derive(Debug, Clone, Copy)]
struct Record {
    name: Text,
    started: Instant,
    /// Wall time, set when the span closes.
    seconds: f64,
    /// Index of the parent record, [`NONE`] for a top-level span.
    parent: usize,
    /// Ordinal of the OS thread that executed the span.
    thread: u64,
}

/// A span tree in flat preorder: what a thread records into and what
/// its ring keeps.
#[derive(Debug, Default)]
pub(crate) struct Tree {
    /// Trace id of a finished root; 0 until one is minted.
    trace: u64,
    spans: Vec<Record>,
    fields: Vec<Field>,
    text: String,
}

impl Tree {
    /// Appends a span opened now under `parent`; returns its index.
    fn push(&mut self, name: &str, parent: usize, thread: u64) -> usize {
        let name = self.keep(name);
        let started = context::host_now();
        self.spans.push(Record { name, started, seconds: 0.0, parent, thread });
        self.spans.len() - 1
    }

    /// Copies `s` into the text arena.
    fn keep(&mut self, s: &str) -> Text {
        let at = self.text.len();
        self.text.push_str(s);
        Text { at, len: s.len() }
    }

    /// Copies `s` into the text arena, cut to at most 96 bytes (93 and
    /// `...`) at a char boundary.
    fn keep_cut(&mut self, s: &str) -> Text {
        if s.len() <= 96 {
            return self.keep(s);
        }
        let mut cut = 93;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        let kept = self.keep(&s[..cut]);
        self.text.push_str("...");
        Text { len: kept.len + 3, ..kept }
    }

    fn str(&self, t: Text) -> &str {
        self.text.get(t.at..t.at + t.len).unwrap_or_default()
    }

    fn clear(&mut self) {
        self.trace = 0;
        self.spans.clear();
        self.fields.clear();
        self.text.clear();
    }

    /// The tree rooted at the first span, as nodes with their ids.
    fn build(&self) -> Option<SpanNode> {
        let mut nodes: Vec<SpanNode> = (self.spans.iter().enumerate())
            .map(|(at, rec)| SpanNode {
                name: Cow::Owned(self.str(rec.name).to_owned()),
                seconds: rec.seconds,
                start_micros: context::micros_at(rec.started),
                trace_id: self.trace,
                span_id: at as u64 + 1,
                parent_span_id: if rec.parent == NONE { 0 } else { rec.parent as u64 + 1 },
                thread: rec.thread,
                fields: Vec::new(),
                children: Vec::new(),
            })
            .collect();
        for field in &self.fields {
            let value = match field.value {
                Value::U64(v) => FieldValue::U64(v),
                Value::I64(v) => FieldValue::I64(v),
                Value::F64(v) => FieldValue::F64(v),
                Value::Str(t) => FieldValue::Str(self.str(t).to_owned()),
            };
            if let Some(node) = nodes.get_mut(field.span) {
                node.fields.push((field.key, value));
            }
        }
        // Children follow their parent in preorder: folding from the
        // back, every child has joined its parent (last child first)
        // by the time the parent itself is folded.
        while let Some(mut node) = nodes.pop() {
            node.children.reverse();
            let parent = self.spans.get(nodes.len()).map_or(NONE, |rec| rec.parent);
            match nodes.get_mut(parent) {
                Some(parent) => parent.children.push(node),
                None => return Some(node),
            }
        }
        None
    }
}

/// A thread's recording state.
struct Recorder {
    tree: Tree,
    /// Indices of the open spans, outermost first.
    open: Vec<usize>,
    /// Counts filed trees, so a guard that outlives its tree writes
    /// nothing into the next one.
    generation: u64,
    /// [`context::thread_ordinal`], read on the first span.
    thread: u64,
}

impl Recorder {
    const fn new() -> Recorder {
        Recorder {
            tree: Tree { trace: 0, spans: Vec::new(), fields: Vec::new(), text: String::new() },
            open: Vec::new(),
            generation: 0,
            thread: 0,
        }
    }

    /// Opens a span under the innermost open one.
    fn open_span(&mut self, name: &str) -> usize {
        if self.thread == 0 {
            self.thread = context::thread_ordinal();
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        let at = self.tree.push(name, parent, self.thread);
        self.open.push(at);
        at
    }

    /// Whether a guard's span is a record of the tree being recorded.
    fn holds(&self, span: usize, generation: u64) -> bool {
        generation == self.generation && span < self.tree.spans.len()
    }

    /// Closes `span` (and anything left open inside it); the last
    /// close files the tree.
    fn close(&mut self, span: usize, generation: u64) {
        if generation != self.generation {
            return;
        }
        let Some(at) = self.open.iter().rposition(|&open| open == span) else { return };
        self.open.truncate(at);
        if let Some(rec) = self.tree.spans.get_mut(span) {
            rec.seconds = rec.started.elapsed().as_secs_f64();
        }
        if self.open.is_empty() {
            self.finish();
        }
    }

    /// Files the finished tree and takes back cleared buffers.
    fn finish(&mut self) {
        self.generation += 1;
        if self.tree.trace == 0 {
            self.tree.trace = context::mint_trace();
        }
        let done = std::mem::take(&mut self.tree);
        if let Some(mut evicted) = file_root(done) {
            evicted.clear();
            self.tree = evicted;
        }
    }
}

/// One thread's finished roots, oldest first, each with its
/// [`context::next_filing`] number.
type Ring = Mutex<VecDeque<(u64, Tree)>>;

thread_local! {
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
    /// This thread's ring, registered in [`RINGS`] when it first files.
    static OWN_RING: RefCell<OwnRing> = const { RefCell::new(OwnRing(None)) };
}

/// Every registered ring, so [`recent_roots`] sees all threads and a
/// thread's roots outlive it.  A ring whose only owner is this list
/// belongs to a thread that has exited.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Runs `f` on this thread's recorder (not at all once the thread's
/// locals are being torn down).
fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.try_with(|r| f(&mut r.borrow_mut())).ok()
}

/// Guard for an open span; finishes (and files the result) on drop.
///
/// Inert guards (tracing disabled, or [`span`] with no active parent)
/// record nothing and cost only the construction check.  A guard
/// writes into its own thread's recorder, so it cannot be sent.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard {
    /// Index of this guard's record; [`NONE`] when inert.
    span: usize,
    /// The recorder generation the record belongs to.
    generation: u64,
    /// Trace id this guard minted (0 when it joined an existing trace).
    minted: u64,
    not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn inert() -> SpanGuard {
        SpanGuard { span: NONE, generation: 0, minted: 0, not_send: PhantomData }
    }

    /// Whether this guard is actually recording.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.span != NONE
    }

    /// Records an unsigned integer field on this span.
    pub fn record_u64(&self, key: &'static str, value: u64) {
        self.record(key, |_| Value::U64(value));
    }

    /// Records a signed integer field on this span.
    pub fn record_i64(&self, key: &'static str, value: i64) {
        self.record(key, |_| Value::I64(value));
    }

    /// Records a floating-point field on this span.
    pub fn record_f64(&self, key: &'static str, value: f64) {
        self.record(key, |_| Value::F64(value));
    }

    /// Records a string field on this span, cut to at most 96 bytes
    /// (93 and `...`) at a char boundary before anything is copied.
    pub fn record_str(&self, key: &'static str, value: &str) {
        self.record(key, |tree| Value::Str(tree.keep_cut(value)));
    }

    fn record(&self, key: &'static str, value: impl FnOnce(&mut Tree) -> Value) {
        if self.span == NONE {
            return;
        }
        with_recorder(|r| {
            if r.holds(self.span, self.generation) {
                let value = value(&mut r.tree);
                r.tree.fields.push(Field { span: self.span, key, value });
            }
        });
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.span == NONE {
            return;
        }
        with_recorder(|r| r.close(self.span, self.generation));
        if self.minted != 0 {
            context::set_current_trace(0);
        }
    }
}

/// Slow-query check, then this thread's bounded ring — whose lock only
/// a reader of every ring ever contends for.  Returns the tree the
/// ring evicted, whose buffers the thread records into next.  (A root
/// finished while the thread's locals are being torn down has no ring
/// left to file into.)
fn file_root(tree: Tree) -> Option<Tree> {
    let seconds = tree.spans.first().map_or(0.0, |root| root.seconds);
    event::note_root_finished(seconds, || tree.build());
    let filed = (context::next_filing(), tree);
    OWN_RING
        .try_with(|own| {
            let mut own = own.borrow_mut();
            let ring = own.0.get_or_insert_with(|| {
                let ring = Arc::new(Ring::default());
                lock_or_recover(&RINGS).push(Arc::clone(&ring));
                ring
            });
            let mut ring = lock_or_recover(ring);
            let evicted = if ring.len() >= RING_CAPACITY { ring.pop_front() } else { None };
            ring.push_back(filed);
            evicted.map(|(_, tree)| tree)
        })
        .ok()
        .flatten()
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

/// Opens a span that starts a new tree when no span is active on this
/// thread (the finished tree is kept in the recent-roots ring), or
/// nests under the active span otherwise.  A true root mints the
/// thread's current trace id.  The name is copied into the thread's
/// reused text arena.
//
// `root`, `span` and the guard's drop are inlined across crates: called
// out of line, they left band extraction ~7 % slower with recording on
// or off (the LFM read path's code layout).
#[inline]
pub fn root(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inert();
    }
    with_recorder(|r| {
        let minted = if r.open.is_empty() {
            context::pin_epoch();
            let id = context::mint_trace();
            context::set_current_trace(id);
            r.tree.trace = id;
            id
        } else {
            0
        };
        let span = r.open_span(name);
        SpanGuard { span, generation: r.generation, minted, not_send: PhantomData }
    })
    .unwrap_or_else(SpanGuard::inert)
}

/// Opens a child span under the currently active span.  When no span is
/// active (or tracing is disabled) the guard is inert — interior layers
/// like the LFM can instrument unconditionally without ever starting
/// trees of their own.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::inert();
    }
    with_recorder(|r| {
        if r.open.is_empty() {
            return SpanGuard::inert();
        }
        let span = r.open_span(name);
        SpanGuard { span, generation: r.generation, minted: 0, not_send: PhantomData }
    })
    .unwrap_or_else(SpanGuard::inert)
}

/// Names of the spans open on the calling thread, outermost first —
/// what a crash dump records of the query in flight.
pub(crate) fn open_span_names() -> Vec<String> {
    with_recorder(|r| {
        let open = r.open.iter().filter_map(|&at| r.tree.spans.get(at));
        open.map(|rec| r.tree.str(rec.name).to_owned()).collect()
    })
    .unwrap_or_default()
}

/// The root span tree the calling thread finished most recently, if
/// any — whatever other threads filed since.
pub fn last_root() -> Option<SpanNode> {
    OWN_RING
        .try_with(|own| {
            let own = own.borrow();
            let ring = lock_or_recover(own.0.as_ref()?);
            ring.back().and_then(|(_, tree)| tree.build())
        })
        .ok()
        .flatten()
}

/// Every retained finished root of every thread, oldest first (at most
/// [`RING_CAPACITY`] per thread).
pub fn recent_roots() -> Vec<SpanNode> {
    let rings = lock_or_recover(&RINGS).clone();
    let mut filed: Vec<(u64, SpanNode)> = Vec::new();
    for ring in &rings {
        let ring = lock_or_recover(ring);
        filed.extend(ring.iter().filter_map(|(at, tree)| Some((*at, tree.build()?))));
    }
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

    /// A guard annotates its own span, whichever span is innermost.
    #[test]
    fn fields_land_on_the_guards_own_span() {
        let _g = crate::test_lock();
        clear();
        {
            let q = root("query.own_fields");
            let child = span("exec.select");
            q.record_u64("on_root", 1);
            child.record_u64("on_child", 2);
            drop(child);
            q.record_str("after", "x");
        }
        let tree = last_root().expect("root retained");
        assert_eq!(tree.field("on_root"), Some(&FieldValue::U64(1)));
        assert_eq!(tree.field("after"), Some(&FieldValue::Str("x".to_string())));
        let child = &tree.children[0];
        assert_eq!(child.field("on_child"), Some(&FieldValue::U64(2)));
        assert_eq!(child.fields.len(), 1, "{:?}", child.fields);
    }

    /// One tree of the structure query's shape: 11 spans, dynamic
    /// names, a nested root, an `sql` field cut at 96 bytes.
    fn structure_shaped(tables: &[String], sql: &str) {
        let q = root("query.structure");
        q.record_str("structure", "ntal");
        {
            let db = root("db.execute");
            db.record_str("sql", sql);
            let select = span("exec.select");
            for table in tables {
                let join = span(table);
                join.record_u64("rows_in", 12);
                join.record_u64("rows_out", 1);
            }
            {
                let project = span("exec.project");
                let udf = span("udf.extractvoxels");
                for pages in [29, 3] {
                    let lfm = span("lfm.read");
                    lfm.record_u64("pages", pages);
                    lfm.record_u64("extents", 2);
                    lfm.record_f64("sim_disk_s", 0.5);
                }
                drop(udf);
                project.record_u64("rows", 1);
            }
            select.record_u64("rows_scanned", 3);
            select.record_u64("rows_out", 1);
        }
        span("net.ship").record_u64("wire_bytes", 4096);
        for key in ["lfm_pages_read", "rows_scanned", "wire_bytes", "messages"] {
            q.record_u64(key, 7);
        }
        q.record_i64("delta", -1);
        q.record_f64("sim_db_s", 0.25);
    }

    /// Every buffer the calling thread records into or keeps in its
    /// ring, as (address, capacity).
    fn storage() -> Vec<(usize, usize)> {
        fn of(tree: &Tree, out: &mut Vec<(usize, usize)>) {
            out.push((tree.spans.as_ptr() as usize, tree.spans.capacity()));
            out.push((tree.fields.as_ptr() as usize, tree.fields.capacity()));
            out.push((tree.text.as_ptr() as usize, tree.text.capacity()));
        }
        let mut out = Vec::new();
        RECORDER.with(|r| {
            let r = r.borrow();
            of(&r.tree, &mut out);
            out.push((r.open.as_ptr() as usize, r.open.capacity()));
        });
        OWN_RING.with(|own| {
            let own = own.borrow();
            let ring = lock_or_recover(own.0.as_ref().expect("this thread filed"));
            out.push((0, ring.capacity()));
            ring.iter().for_each(|(_, tree)| of(tree, &mut out));
        });
        out.sort_unstable();
        out
    }

    /// Once the ring is full, recording a tree reuses the buffers of
    /// the tree it evicts: no buffer is allocated, grown or freed.
    #[test]
    fn recording_reuses_its_storage() {
        let _g = crate::test_lock();
        clear();
        let tables: Vec<String> = ["warpedvolume", "atlasstructure", "neuralstructure"]
            .iter()
            .enumerate()
            .map(|(k, t)| format!("exec.{} {t}", if k == 0 { "scan" } else { "hash_join" }))
            .collect();
        let sql = format!("select extractVoxels(wv.data, {})", "x".repeat(200));
        // One past full: the recorder then holds an evicted tree's buffers.
        for _ in 0..=RING_CAPACITY {
            structure_shaped(&tables, &sql);
        }
        let before = storage();
        for _ in 0..1_000 {
            structure_shaped(&tables, &sql);
        }
        assert_eq!(storage(), before);
        let tree = last_root().expect("root retained");
        assert_eq!(tree.span_count(), 11);
        assert_eq!(tree.find("exec.hash_join neuralstructure").map(|n| n.span_id), Some(6));
        match tree.find("db.execute").and_then(|n| n.field("sql")) {
            Some(FieldValue::Str(sql)) => assert_eq!(sql.len(), 96),
            other => panic!("sql field: {other:?}"),
        }
        clear();
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
