//! `qbism-analyze` — the source rules the compiler cannot host.
//!
//! Every source file is lexed and parsed into a function table, a
//! name-resolved call graph is linked over it, and the invariants in
//! the one rule table ([`rules::RULES`]) are checked, each a pattern ×
//! a scope × how far it is followed.  Panics, indexing, the host clock
//! and sleeping are clippy lints (`[workspace.lints.clippy]`,
//! `clippy.toml`); what is left here:
//!
//! - **here** (zero hops) — `traced-entrypoints`: every public query
//!   method of a served type opens a root span;
//! - **through** — `kernel-materialize`: zero hops, plus any call path
//!   that leaves the scope and reaches the pattern;
//! - **whole graph** — `det-taint` (wall-clock / hash-order / thread-id
//!   / env sources must not reach deterministic cost-model sinks) and
//!   `lock-order` (guard-held sets propagated over the graph, flagging
//!   order inversions before any run can hit them).
//!
//! Findings carry stable keys matched by a checked-in allowlist whose
//! entries must each state a justification.  Output is a sorted,
//! byte-stable [`report::Report`] with human call traces and JSON.

#![expect(
    clippy::indexing_slicing,
    reason = "token and function tables are indexed by positions the lexer and parser produced"
)]

pub mod allowlist;
pub mod analysis;
pub mod graph;
pub mod lexer;
pub mod marks;
pub mod parser;
pub mod reach;
pub mod report;
pub mod rules;

use graph::Workspace;
use report::Report;
use std::path::Path;

/// The determinism contract's markers (`det-taint` sources and sinks);
/// rule scopes live in the rule table.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Field names whose writes are deterministic sinks.
    pub det_fields: Vec<String>,
    /// Struct names whose literal construction is a deterministic sink.
    pub det_structs: Vec<String>,
    /// Call names that are deterministic sinks (span minting).
    pub sink_calls: Vec<String>,
    /// Function names that are deterministic sinks by definition
    /// (table emitters).
    pub sink_fns: Vec<String>,
    /// Receiver types whose iteration order is a nondeterminism source.
    pub hash_types: Vec<String>,
}

impl AnalysisConfig {
    /// The workspace configuration — the analysis-level single source
    /// of truth for the determinism contract.  `native_db_seconds` is
    /// deliberately absent from `det_fields`: it is the one
    /// wall-clock-fed column.
    pub fn workspace() -> AnalysisConfig {
        let s = |v: &[&str]| v.iter().map(|c| c.to_string()).collect();
        AnalysisConfig {
            det_fields: s(&[
                // QueryCost deterministic columns.
                "lfm",
                "rows_scanned",
                "sim_db_seconds",
                "wire_bytes",
                "messages",
                "sim_net_seconds",
                "coverage",
                // IoStats.
                "pages_read",
                "pages_written",
                "extents_read",
                "extents_written",
                "read_calls",
                "write_calls",
                // NetStats.
                "bytes",
                "seconds",
                "answers",
                "retransmits",
                "backoff_seconds",
                "payload_bytes",
            ]),
            det_structs: s(&["QueryCost", "IoStats", "NetStats"]),
            sink_calls: s(&["mint_trace"]),
            sink_fns: s(&[
                "table1_z_octants",
                "table1_z_oblong_octants",
                "table2_hilbert_octants",
                "table3_row",
                "table3_header",
            ]),
            hash_types: s(&["HashMap", "HashSet"]),
        }
    }
}

/// Checks every rule over an already-linked workspace (no I/O, no
/// allowlist).  The report is finalized (sorted, deduped).
pub fn analyze_workspace(ws: &Workspace, cfg: &AnalysisConfig) -> Report {
    let marks = marks::mark_all(ws, cfg);
    let adj = ws.adjacency();
    let ctx = analysis::Ctx { ws, marks: &marks, adj: &adj };

    let mut report = Report::default();
    report.findings.extend(rules::zero_hop(ws));
    report.findings.extend(analysis::determinism::run(&ctx));
    report.findings.extend(analysis::transitive::run(&ctx));
    report.findings.extend(analysis::locks::run(&ctx));
    report.stats.files = ws.files.len();
    report.stats.functions = ws.funcs.len();
    report.stats.edges = ws.edge_count();
    report.stats.call_sites = ws.total_calls;
    report.stats.resolved_call_sites = ws.resolved_calls;
    report.finalize();
    report
}

/// Scans a workspace root and analyzes it.
pub fn analyze_root(root: &Path, cfg: &AnalysisConfig) -> std::io::Result<Report> {
    let ws = Workspace::scan(root)?;
    Ok(analyze_workspace(&ws, cfg))
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::graph::crate_of;
    use crate::parser::parse_file;

    /// Analyzes in-memory sources with the workspace config and no
    /// allowlist.
    pub fn analyze_files(files: &[(&str, &str)]) -> Report {
        let parsed = files.iter().map(|(rel, src)| parse_file(src, rel, crate_of(rel))).collect();
        let ws = Workspace::link(parsed);
        analyze_workspace(&ws, &AnalysisConfig::workspace())
    }

    pub fn analyze_source(src: &str) -> Report {
        analyze_files(&[("crates/x/src/lib.rs", src)])
    }
}
