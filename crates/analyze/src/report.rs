//! Findings, call-path rendering, and the machine-readable report.
//!
//! Every finding carries a *stable key* (`rule @ from -> to`) that the
//! allowlist matches against, a human message, the `file:line` where
//! the pattern sits, and — past zero hops — the full call path as
//! `file:line` steps.  The JSON writer is hand-rolled (the analyzer
//! is dependency-free) and emits findings in sorted order so the
//! report is byte-stable across runs.

use crate::graph::Workspace;
use crate::rules::RULES;
use std::fmt::Write as _;

/// One hop on a call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Qualified function name (`crate::module::Type::fn`).
    pub func: String,
    /// Definition site.
    pub file: String,
    pub line: u32,
    /// Line in the *previous* step's body where this function is
    /// called (absent for the first step).
    pub call_line: Option<u32>,
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    /// Stable allowlist key: `rule @ file:fn -> file:fn`.
    pub key: String,
    pub message: String,
    /// Where the offending pattern sits.
    pub file: String,
    pub line: u32,
    /// The call path that reaches it; empty at zero hops.
    pub path: Vec<Step>,
}

impl Finding {
    /// Human rendering with the full call trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message);
        let _ = writeln!(out, "  key: {}", self.key);
        for (i, step) in self.path.iter().enumerate() {
            let arrow = if i == 0 { "  at" } else { "  ->" };
            match step.call_line {
                Some(cl) => {
                    let _ = writeln!(
                        out,
                        "{arrow} {} ({}:{}, called at line {cl})",
                        step.func, step.file, step.line
                    );
                }
                None => {
                    let _ = writeln!(out, "{arrow} {} ({}:{})", step.func, step.file, step.line);
                }
            }
        }
        out
    }
}

/// Builds the step list for a node path, attaching call-site lines
/// from the edge table.
pub fn steps(ws: &Workspace, path: &[usize]) -> Vec<Step> {
    let mut out = Vec::with_capacity(path.len());
    for (i, &id) in path.iter().enumerate() {
        let (file, line) = ws.location(id);
        let call_line = if i == 0 { None } else { ws.edge_line(path[i - 1], id) };
        out.push(Step { func: ws.funcs[id].qualified.clone(), file, line, call_line });
    }
    out
}

/// Scan-level statistics (the EXPERIMENTS table row).
#[derive(Debug, Clone, Default)]
pub struct ScanStats {
    /// Files in the call graph.
    pub files: usize,
    pub functions: usize,
    pub edges: usize,
    pub call_sites: usize,
    pub resolved_call_sites: usize,
    pub scan_ms: u128,
    /// Findings per rule in rule-table order, allowlisted ones
    /// included — every rule is listed, so a 0 reads "ran, found none".
    pub per_rule: Vec<(&'static str, usize)>,
}

/// The full analysis output.
#[derive(Debug, Default)]
pub struct Report {
    pub stats: ScanStats,
    /// Unallowlisted findings (gate-failing), sorted by key.
    pub findings: Vec<Finding>,
    /// Suppressed findings with the allowlist justification.
    pub allowlisted: Vec<(Finding, String)>,
}

impl Report {
    /// Sorts findings and fills the per-rule counts; call once after
    /// all analyses ran.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| a.key.cmp(&b.key));
        self.findings.dedup_by(|a, b| a.key == b.key);
        self.allowlisted.sort_by(|a, b| a.0.key.cmp(&b.0.key));
        self.allowlisted.dedup_by(|a, b| a.0.key == b.0.key);
        let all = || self.findings.iter().chain(self.allowlisted.iter().map(|(f, _)| f));
        self.stats.per_rule =
            RULES.iter().map(|r| (r.name, all().filter(|f| f.rule == r.name).count())).collect();
    }

    /// Machine-readable JSON (sorted, byte-stable).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"stats\": {{");
        let _ = writeln!(out, "    \"files\": {},", self.stats.files);
        let _ = writeln!(out, "    \"functions\": {},", self.stats.functions);
        let _ = writeln!(out, "    \"edges\": {},", self.stats.edges);
        let _ = writeln!(out, "    \"call_sites\": {},", self.stats.call_sites);
        let _ = writeln!(out, "    \"resolved_call_sites\": {},", self.stats.resolved_call_sites);
        let _ = writeln!(out, "    \"scan_ms\": {},", self.stats.scan_ms);
        let _ = writeln!(out, "    \"per_rule\": {{");
        for (i, (rule, n)) in self.stats.per_rule.iter().enumerate() {
            let comma = if i + 1 == self.stats.per_rule.len() { "" } else { "," };
            let _ = writeln!(out, "      \"{}\": {n}{comma}", esc(rule));
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"findings\": [");
        write_findings(&mut out, self.findings.iter().map(|f| (f, None)));
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"allowlisted\": [");
        write_findings(&mut out, self.allowlisted.iter().map(|(f, j)| (f, Some(j.as_str()))));
        let _ = writeln!(out, "  ]");
        out.push('}');
        out.push('\n');
        out
    }
}

fn write_findings<'a, I>(out: &mut String, findings: I)
where
    I: Iterator<Item = (&'a Finding, Option<&'a str>)>,
{
    let items: Vec<_> = findings.collect();
    for (i, (f, justification)) in items.iter().enumerate() {
        let comma = if i + 1 == items.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"rule\": \"{}\",", esc(&f.rule));
        let _ = writeln!(out, "      \"key\": \"{}\",", esc(&f.key));
        let _ = writeln!(out, "      \"message\": \"{}\",", esc(&f.message));
        let _ = writeln!(out, "      \"file\": \"{}\",", esc(&f.file));
        let _ = writeln!(out, "      \"line\": {},", f.line);
        if let Some(j) = justification {
            let _ = writeln!(out, "      \"justification\": \"{}\",", esc(j));
        }
        let _ = writeln!(out, "      \"path\": [");
        for (k, s) in f.path.iter().enumerate() {
            let comma = if k + 1 == f.path.len() { "" } else { "," };
            let call = s.call_line.map(|c| c.to_string()).unwrap_or_else(|| "null".to_string());
            let _ = writeln!(
                out,
                "        {{\"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \"call_line\": {call}}}{comma}",
                esc(&s.func),
                esc(&s.file),
                s.line
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(key: &str) -> Finding {
        Finding {
            rule: "det-taint".to_string(),
            key: key.to_string(),
            message: "m".to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 4,
            path: vec![Step {
                func: "x::f".to_string(),
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                call_line: None,
            }],
        }
    }

    #[test]
    fn finalize_sorts_dedupes_and_counts() {
        let mut r = Report::default();
        r.findings.push(finding("b"));
        r.findings.push(finding("a"));
        r.findings.push(finding("a"));
        r.finalize();
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].key, "a");
        assert_eq!(r.stats.per_rule.len(), RULES.len());
        assert!(r
            .stats
            .per_rule
            .iter()
            .all(|&(rule, n)| n == if rule == "det-taint" { 2 } else { 0 }));
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let mut r = Report::default();
        let mut f = finding("k\"1");
        f.message = "line1\nline2".to_string();
        r.findings.push(f);
        r.finalize();
        let j = r.to_json();
        assert!(j.contains("k\\\"1"));
        assert!(j.contains("line1\\nline2"));
        assert_eq!(j, {
            let mut r2 = Report::default();
            let mut f2 = finding("k\"1");
            f2.message = "line1\nline2".to_string();
            r2.findings.push(f2);
            r2.finalize();
            r2.to_json()
        });
    }
}
