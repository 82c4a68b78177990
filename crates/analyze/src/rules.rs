//! The one rule table: every workspace invariant is a *pattern* × a
//! *scope* × how far it is followed ([`Reach`]).
//!
//! Zero-hop evaluation lives here too: a [`Reach::Here`] or
//! [`Reach::Through`] rule sees every non-test token of an in-scope
//! file — imports, signatures and field types, not only function
//! bodies.  The same [`match_at`] feeds the per-function marks the
//! call-graph analyses follow, so a pattern list exists once.

use crate::graph::Workspace;
use crate::lexer::Token;
use crate::parser::{FnItem, ParsedFile};
use crate::report::Finding;

/// How far a rule's pattern is followed from its scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Zero hops: the pattern may not appear in the scope.
    Here,
    /// Zero hops, plus any call path that leaves the scope and reaches
    /// the pattern outside it (`analysis::transitive`).
    Through,
    /// A whole-graph relation: source/sink confluence
    /// (`analysis::determinism`) or lock-pair order (`analysis::locks`).
    Graph,
}

impl Reach {
    pub fn label(self) -> &'static str {
        match self {
            Reach::Here => "here",
            Reach::Through => "through",
            Reach::Graph => "graph",
        }
    }
}

/// What a rule looks for, in [`RULES`] order.  The token patterns are
/// recognised by [`match_at`]; the rest are evaluated by the analysis
/// named in [`Reach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// A `pub fn (&self) -> Result` on an entry type that opens no root span.
    UntracedEntry,
    /// A call named in [`MATERIALIZE`].
    Materialize,
    /// Nondeterminism source meeting a deterministic sink.
    Taint,
    /// Two locks taken in both orders.
    LockInversion,
}

/// Which files a rule holds in: a crate filter, optionally narrowed to
/// files whose name contains `file_stem`.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// `None` = every crate.
    pub only: Option<&'static [&'static str]>,
    pub file_stem: Option<&'static str>,
}

impl Scope {
    const ALL: Scope = Scope { only: None, file_stem: None };

    const fn only(crates: &'static [&'static str]) -> Scope {
        Scope { only: Some(crates), ..Scope::ALL }
    }

    pub fn contains(&self, file: &ParsedFile) -> bool {
        let name = file.crate_name.as_str();
        let file_name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
        self.only.is_none_or(|c| c.contains(&name))
            && self.file_stem.is_none_or(|stem| file_name.contains(stem))
    }
}

pub struct Rule {
    pub name: &'static str,
    pub pattern: Pattern,
    pub scope: Scope,
    pub reach: Reach,
    /// What to do instead — the tail of every finding's message.
    pub advice: &'static str,
}

/// Crates whose `kernel*` files are the run-native hot paths.
pub const KERNEL_CRATES: &[&str] = &["region", "sfc", "volume", "coding"];
/// The served types: their `pub fn (&self) -> Result` methods must
/// open a root span.
pub const ENTRY_TYPES: &[&str] = &["MedicalServer", "Database", "ClusterWarehouse"];
/// The crates that define [`ENTRY_TYPES`].
pub const ENTRY_CRATES: &[&str] = &["core", "starburst", "cluster"];

/// Calls that materialize what a merge did not ask for — a voxel-id
/// vector (`from_ids`, any `iter_voxels*`) or a fully decoded payload
/// (`decode_all`).  `K3Cursor`'s leaf refill is *not* one: it decodes
/// one leaf into a buffer it reuses, bounded by the leaf and consumed
/// before the next — that is what streaming a compressed payload means.
/// `Curve::walk3` is deliberately *not* here: it streams coordinates for
/// an id range it is handed and allocates nothing, which is what a
/// kernel that must visit voxels (bounded rasterisation) should call;
/// `iter_voxels*` stays because it expands a whole REGION.
pub const MATERIALIZE: &[&str] = &["from_ids", "iter_voxels", "decode_all"];
pub const RULES: &[Rule] = &[
    Rule {
        name: "traced-entrypoints",
        pattern: Pattern::UntracedEntry,
        scope: Scope::only(ENTRY_CRATES),
        reach: Reach::Here,
        advice: "open a root span (`trace::root(..)` or the server's `query_span`) so the flight recorder sees the query",
    },
    Rule {
        name: "kernel-materialize",
        pattern: Pattern::Materialize,
        scope: Scope { file_stem: Some("kernel"), ..Scope::only(KERNEL_CRATES) },
        reach: Reach::Through,
        advice: "kernel code streams runs through the cursors; id vectors and drained payloads belong to API edges and tests",
    },
    Rule {
        name: "det-taint",
        pattern: Pattern::Taint,
        scope: Scope::ALL,
        reach: Reach::Graph,
        advice: "deterministic cost columns derive from the simulated cost model only",
    },
    Rule {
        name: "lock-order",
        pattern: Pattern::LockInversion,
        scope: Scope::ALL,
        reach: Reach::Graph,
        advice: "acquire the pair in one order everywhere",
    },
];

/// The table row for `pattern` (the table is in `Pattern` order).
pub fn rule(pattern: Pattern) -> &'static Rule {
    &RULES[pattern as usize]
}

/// The token pattern starting at `toks[j]`, if any, with a short label
/// of what was matched.
pub fn match_at(toks: &[Token], j: usize) -> Option<(Pattern, String)> {
    let id = toks[j].ident()?;
    let materializes = toks.get(j + 1).is_some_and(|t| t.is_punct('('))
        && MATERIALIZE.iter().any(|m| id == *m || (*m == "iter_voxels" && id.starts_with(m)));
    materializes.then(|| (Pattern::Materialize, format!("{id}(…)")))
}

/// A public query method on an entry type whose body opens no root span.
fn untraced_entry(file: &ParsedFile, f: &FnItem) -> bool {
    let (start, end) = f.body;
    let toks = &file.tokens;
    let opens_root = |j: usize| {
        toks.get(j + 1).is_some_and(|t| t.is_punct('('))
            && (toks[j].is_ident("query_span")
                || (toks[j].is_ident("root") && j >= 3 && toks[j - 3].is_ident("trace")))
    };
    f.is_pub
        && f.shared_self
        && f.returns_result
        && !f.in_trait
        && !f.in_test
        && f.impl_type.as_deref().is_some_and(|t| ENTRY_TYPES.contains(&t))
        && !(start..end).any(opens_root)
}

/// Evaluates every `Here` and `Through` rule at zero hops.
pub fn zero_hop(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |rule: &Rule, file: &ParsedFile, line: u32, what: &str| {
        findings.push(Finding {
            rule: rule.name.to_string(),
            key: format!("{} @ {}:{line}", rule.name, file.rel),
            message: format!("`{what}` — {}", rule.advice),
            file: file.rel.clone(),
            line,
            path: Vec::new(),
        });
    };
    for file in &ws.files {
        let in_force = |pattern: Pattern| {
            let r = rule(pattern);
            (matches!(r.reach, Reach::Here | Reach::Through) && r.scope.contains(file)).then_some(r)
        };
        for j in file.code_positions() {
            if let Some((pattern, what)) = match_at(&file.tokens, j) {
                if let Some(rule) = in_force(pattern) {
                    push(rule, file, file.tokens[j].line, &what);
                }
            }
        }
        if let Some(rule) = in_force(Pattern::UntracedEntry) {
            for f in file.fns.iter().filter(|f| untraced_entry(file, f)) {
                push(rule, file, f.line, &format!("pub fn {}", f.name));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn hits(src: &str) -> Vec<(Pattern, String)> {
        let toks = lex(src);
        (0..toks.len()).filter_map(|j| match_at(&toks, j)).collect()
    }

    #[test]
    fn the_table_is_in_pattern_order_with_unique_names() {
        for (i, r) in RULES.iter().enumerate() {
            assert_eq!(r.pattern as usize, i, "{}", r.name);
            assert!(RULES[i + 1..].iter().all(|b| b.name != r.name), "{}", r.name);
        }
    }

    #[test]
    fn materialize_matches_names_and_the_iter_voxels_prefix() {
        let src = "Region::from_ids(g, ids); r.iter_voxels3(); d.decode_all();";
        assert!(hits(src).iter().all(|(p, _)| *p == Pattern::Materialize));
        assert_eq!(hits(src).len(), 3);
        assert!(hits("let from_ids = 3; decode_all_but(x);").is_empty());
        assert!(hits("for (id, x, y, z) in curve.walk3(run.start..run.end + 1) {}").is_empty());
    }
}
