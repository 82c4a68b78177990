//! The traced run's bookkeeping: harness spans around every public
//! call, and the read-out of the program's own span tree into
//! per-layer self times.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! A layer's self time is its span's duration minus its children's.

use qbism_obs::SpanNode;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers span names are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `sql.parse` — lexing and parsing the query text.
    Parse,
    /// `db.*` and `exec.*` — binding, planning, scans, joins,
    /// projection (UDF bodies excluded: they are children).
    Exec,
    /// `udf.*` — the spatial operators: REGION decode, run kernels,
    /// voxel extraction, answer encoding.
    Udf,
    /// `query.*` roots — SQL formatting, the multi-study fold, answer
    /// decode and cost assembly in `MedicalServer`.
    Server,
    /// `lfm.*` — long-field reads, cache lookups, compressed scans.
    Lfm,
    /// `net.*` and the per-shard answer legs — the network model.
    Net,
    /// `cluster.*` roots — the scatter/gather router's own work.
    Router,
    /// Anything else (fault sites, future spans).
    Other,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 8;

impl Layer {
    /// The layer a program span name belongs to.
    pub fn of(name: &str) -> Layer {
        let starts = |p: &str| name.starts_with(p);
        if name == "sql.parse" {
            Layer::Parse
        } else if starts("exec.") || starts("db.") {
            Layer::Exec
        } else if starts("udf.") {
            Layer::Udf
        } else if starts("query.") {
            Layer::Server
        } else if starts("lfm.") {
            Layer::Lfm
        } else if starts("net.") || starts("cluster.route.") {
            Layer::Net
        } else if starts("cluster.") {
            Layer::Router
        } else {
            Layer::Other
        }
    }
}

/// One harness span: a round, a public call, or (first traced round
/// only) a program span copied under the call that caused it.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Microseconds since the harness epoch.
    pub start_us: f64,
    /// Microseconds since the harness epoch.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the op in the client's sequence, for op spans and
    /// everything under them.
    pub op: Option<usize>,
}

/// An open op span: where it sits and when the program clock read at
/// its start (to reject a stale tree).
#[derive(Debug, Clone, Copy)]
pub struct OpenOp {
    span: usize,
    program_start_us: u64,
}

/// One client's trace.
#[derive(Debug)]
pub struct ClientTrace {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<SpanRec>,
    round: Option<usize>,
    /// Copy the program's span trees into `spans` (first traced round
    /// only: ten rounds of trees would be tens of megabytes).
    pub keep_program_spans: bool,
    /// Self seconds by [`Layer`] of each op of the round in progress.
    round_self_s: Vec<[f64; LAYERS]>,
    /// Self seconds by [`Layer`] of each op's quietest repetition so
    /// far: the floor across traced rounds, layer by layer.
    pub floor_self_s: Vec<[f64; LAYERS]>,
    /// Ops whose tree was read.
    pub ops: u64,
    /// Ops with no tree of their own on this thread.
    pub missing: u64,
    /// Ops whose self times missed the root's duration by over 2 %.
    pub sum_violations: u64,
}

impl ClientTrace {
    /// An empty trace on the shared harness epoch.
    pub fn new(epoch: Instant) -> ClientTrace {
        ClientTrace {
            epoch,
            spans: Vec::new(),
            round: None,
            keep_program_spans: false,
            round_self_s: Vec::new(),
            floor_self_s: Vec::new(),
            ops: 0,
            missing: 0,
            sum_violations: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a harness span under the current round.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now_us();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.round,
            op: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`ClientTrace::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Opens the round span every later span nests under.
    pub fn begin_round(&mut self, number: usize) {
        self.round = None;
        self.round = Some(self.open(&format!("harness.round {number}")));
    }

    /// Closes the round span and folds the round's per-op self times
    /// into the floors.
    pub fn end_round(&mut self) {
        if let Some(round) = self.round.take() {
            self.close(round);
        }
        let round = std::mem::take(&mut self.round_self_s);
        if self.floor_self_s.is_empty() {
            self.floor_self_s = round;
        } else {
            for (floor, sample) in self.floor_self_s.iter_mut().zip(round) {
                for (f, s) in floor.iter_mut().zip(sample) {
                    *f = f.min(s);
                }
            }
        }
    }

    /// Opens the span around one public call.
    pub fn open_op(&mut self, class: &str, op: usize) -> OpenOp {
        let span = self.open(&format!("call.{class}"));
        self.spans[span].op = Some(op);
        OpenOp { span, program_start_us: qbism_obs::context::now_micros() }
    }

    /// Closes an op span and reads the program's span tree for it: the
    /// most recent finished root on this thread that started after the
    /// op did.
    pub fn close_op(&mut self, open: OpenOp, elapsed_s: f64) {
        let start_us = self.spans[open.span].start_us;
        self.spans[open.span].end_us = start_us + elapsed_s * 1e6;
        let thread = qbism_obs::context::thread_ordinal();
        let mine = |r: &SpanNode| r.thread == thread && r.start_micros >= open.program_start_us;
        let root = qbism_obs::trace::last_root()
            .filter(mine)
            .or_else(|| qbism_obs::trace::recent_roots().into_iter().rev().find(mine));
        let Some(root) = root else {
            self.missing += 1;
            // Never the floor of anything.
            self.round_self_s.push([f64::INFINITY; LAYERS]);
            return;
        };
        self.ops += 1;
        let mut selfs = [0.0; LAYERS];
        self_times(&root, &mut selfs);
        let total: f64 = selfs.iter().sum();
        if (total - root.seconds).abs() > 0.02 * root.seconds {
            self.sum_violations += 1;
        }
        self.round_self_s.push(selfs);
        if self.keep_program_spans {
            // Program timestamps are whole microseconds on the program's
            // own epoch; shift the tree so its root starts with the call.
            let shift = start_us - root.start_micros as f64;
            self.copy_tree(&root, open.span, shift, self.spans[open.span].op);
        }
    }

    fn copy_tree(&mut self, node: &SpanNode, parent: usize, shift: f64, op: Option<usize>) {
        let start_us = node.start_micros as f64 + shift;
        self.spans.push(SpanRec {
            name: node.name.to_string(),
            start_us,
            end_us: start_us + node.seconds * 1e6,
            parent: Some(parent),
            op,
        });
        let me = self.spans.len() - 1;
        for child in &node.children {
            self.copy_tree(child, me, shift, op);
        }
    }
}

/// Adds each span's self time (duration minus children, floored at
/// zero) to its layer's slot.
pub fn self_times(node: &SpanNode, out: &mut [f64; LAYERS]) {
    let children: f64 = node.children.iter().map(|c| c.seconds).sum();
    out[Layer::of(&node.name) as usize] += (node.seconds - children).max(0.0);
    for child in &node.children {
        self_times(child, out);
    }
}

/// Serializes every client's spans as one JSON array.
pub fn to_json(clients: &[ClientTrace]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (client, trace) in clients.iter().enumerate() {
        for (id, span) in trace.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"client\":{client},\"id\":{id},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                opt(span.parent),
                opt(span.op),
                span.name.replace('\\', "\\\\").replace('"', "\\\""),
                span.start_us,
                span.end_us,
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, seconds: f64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            seconds,
            start_micros: 0,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            thread: 0,
            fields: Vec::new(),
            children,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_and_land_on_their_layers() {
        let tree = node(
            "query.structure",
            10.0,
            vec![
                node(
                    "db.execute",
                    8.0,
                    vec![
                        node("sql.parse", 1.0, vec![]),
                        node(
                            "exec.select",
                            6.0,
                            vec![node(
                                "udf.extractvoxels",
                                4.0,
                                vec![node("lfm.read", 3.0, vec![])],
                            )],
                        ),
                    ],
                ),
                node("net.ship", 0.5, vec![]),
            ],
        );
        let mut selfs = [0.0; LAYERS];
        self_times(&tree, &mut selfs);
        assert_eq!(selfs.iter().sum::<f64>(), 10.0);
        assert_eq!(selfs[Layer::Parse as usize], 1.0);
        assert_eq!(selfs[Layer::Exec as usize], 1.0 + 2.0);
        assert_eq!(selfs[Layer::Udf as usize], 1.0);
        assert_eq!(selfs[Layer::Lfm as usize], 3.0);
        assert_eq!(selfs[Layer::Net as usize], 0.5);
        assert_eq!(selfs[Layer::Server as usize], 1.5);
    }

    #[test]
    fn span_names_map_to_layers() {
        assert_eq!(Layer::of("exec.scan warpedvolume"), Layer::Exec);
        assert_eq!(Layer::of("db.read_long_field"), Layer::Exec);
        assert_eq!(Layer::of("lfm.compressed_scan"), Layer::Lfm);
        assert_eq!(Layer::of("cluster.multi_study_band"), Layer::Router);
        assert_eq!(Layer::of("cluster.route.drop"), Layer::Net);
        assert_eq!(Layer::of("fault.inject"), Layer::Other);
    }
}
