//! Per-function marker extraction.
//!
//! A *marker* is a syntactic fact about one function body that the
//! reachability analyses combine over the call graph: determinism
//! sources (wall-clock reads, hash-order iteration, thread identity,
//! environment reads), determinism sinks (writes to deterministic
//! cost columns, table emitters, span minting), kernel-contract
//! operations (`from_ids`, `decode_all`, …), raw `std::sync` usage, and
//! lock acquisitions.  The token patterns the zero-hop rules share (the
//! materialize calls, `std::sync` paths) come from
//! [`crate::rules::match_at`].

use crate::graph::{call_sites, local_types, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;
use crate::rules::{match_at, raw_sync_names, Pattern};
use crate::AnalysisConfig;
use std::collections::BTreeMap;

/// One marker occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Mark {
    /// Short label, e.g. `Instant::now`, `write sim_db_seconds`.
    pub what: String,
    pub line: u32,
}

/// One `lock()` / `lock_or_recover()` acquisition.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Stable lock name: the `Mutex::named` literal when the field's
    /// initializer is known, else `Type.field`.
    pub name: String,
    pub line: u32,
    /// Token position (orders the site against call edges).
    pub pos: usize,
    /// Whether the guard is `let`-bound (held past the statement).
    pub held: bool,
}

/// All markers for one function.
#[derive(Debug, Clone, Default)]
pub struct FnMarks {
    pub det_sources: Vec<Mark>,
    pub det_sinks: Vec<Mark>,
    pub materialize: Vec<Mark>,
    pub raw_sync: Vec<Mark>,
    pub locks: Vec<LockSite>,
}

const HASH_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

/// Extracts markers for every function in the workspace.
pub fn mark_all(ws: &Workspace, cfg: &AnalysisConfig) -> Vec<FnMarks> {
    let named = named_mutexes(ws);
    let imports: Vec<Vec<String>> = ws.files.iter().map(raw_sync_imports).collect();
    (0..ws.funcs.len())
        .map(|id| mark_fn(ws, cfg, id, &named, &imports[ws.funcs[id].file]))
        .collect()
}

/// The raw `std::sync` names a file's non-test `use` items import
/// (`Mutex`, `AtomicU64`, …).
fn raw_sync_imports(file: &ParsedFile) -> Vec<String> {
    let toks = &file.tokens;
    file.code_positions()
        .filter(|&j| j >= 4 && toks[j - 4].is_ident("use"))
        .flat_map(|j| raw_sync_names(toks, j))
        .collect()
}

/// Workspace-wide map `field → Mutex::named literal`, harvested from
/// `field: Mutex::named("…")` initializers (the `Mutex` may carry a
/// module path, as in `qbism_check::sync::Mutex::named`) so static
/// lock names line up with the dynamic lock-order registry.
pub fn named_mutexes(ws: &Workspace) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for file in &ws.files {
        let toks = &file.tokens;
        for j in 0..toks.len() {
            // field : [path ::]* Mutex :: named ( "literal"
            if !toks[j].is_ident("Mutex") {
                continue;
            }
            let lit = (|| {
                if !(toks.get(j + 1)?.is_punct(':') && toks.get(j + 2)?.is_punct(':')) {
                    return None;
                }
                if !toks.get(j + 3)?.is_ident("named") || !toks.get(j + 4)?.is_punct('(') {
                    return None;
                }
                match &toks.get(j + 5)?.kind {
                    TokenKind::Str(s) | TokenKind::RawStr(s) => Some(s.clone()),
                    _ => None,
                }
            })();
            let Some(lit) = lit else { continue };
            // Skip back over any leading `module ::` path segments.
            let mut k = j;
            while k >= 3
                && toks[k - 1].is_punct(':')
                && toks[k - 2].is_punct(':')
                && toks[k - 3].ident().is_some()
            {
                k -= 3;
            }
            if k >= 2 && toks[k - 1].is_punct(':') && !toks[k - 2].is_punct(':') {
                if let Some(field) = toks[k - 2].ident() {
                    out.insert(field.to_string(), lit);
                }
            }
        }
    }
    out
}

fn mark_fn(
    ws: &Workspace,
    cfg: &AnalysisConfig,
    id: usize,
    named: &BTreeMap<String, String>,
    raw_sync_imports: &[String],
) -> FnMarks {
    let func = &ws.funcs[id];
    let file = &ws.files[func.file];
    let toks = &file.tokens;
    let (start, end) = func.item.body;
    let mut m = FnMarks::default();
    if func.item.in_test || start >= end {
        return m;
    }
    let locals = local_types(toks, start, end);
    let chain_type = |chain: &[String]| -> Option<String> {
        let mut ty: Option<String> = match chain[0].as_str() {
            "self" => func.item.impl_type.clone(),
            var => locals.get(var).cloned(),
        };
        for seg in &chain[1..] {
            ty = ty.and_then(|t| ws.field_types.get(&(t, seg.clone())).cloned());
        }
        ty
    };

    // Tablegen emitters are sinks by definition.
    if cfg.sink_fns.iter().any(|f| f == &func.item.name) {
        m.det_sinks.push(Mark { what: "tablegen emitter".to_string(), line: func.item.line });
    }

    // --- call-site driven markers -------------------------------------
    for site in call_sites(toks, start, end) {
        let name = site.name.as_str();
        if site.is_method {
            match name {
                "lock" | "lock_or_recover" => {
                    if let Some(chain) = &site.receiver {
                        let lock_name = lock_name(chain, func.item.impl_type.as_deref(), named);
                        let held = let_bound(toks, site.pos, start);
                        m.locks.push(LockSite {
                            name: lock_name,
                            line: site.line,
                            pos: site.pos,
                            held,
                        });
                    }
                }
                _ if HASH_ITER_METHODS.contains(&name) => {
                    if let Some(chain) = &site.receiver {
                        if let Some(ty) = chain_type(chain) {
                            if cfg.hash_types.iter().any(|h| h == &ty) {
                                m.det_sources.push(Mark {
                                    what: format!("{ty}::{name} iteration order"),
                                    line: site.line,
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        } else {
            let qual = site.qualifier.last().map(String::as_str);
            match (qual, name) {
                // Taint follows the value a *call* returns; a bare path
                // (`get_or_init(Instant::now)`) is no source.
                (Some("Instant" | "SystemTime"), "now")
                | (Some("thread"), "current" | "available_parallelism")
                | (None, "available_parallelism")
                | (Some("env"), "var" | "var_os" | "vars") => {
                    m.det_sources.push(Mark {
                        what: format!("{}::{name}", qual.unwrap_or("std")),
                        line: site.line,
                    });
                }
                _ => {}
            }
            if cfg.sink_calls.iter().any(|c| c == name) {
                m.det_sinks.push(Mark { what: format!("{name}(…)"), line: site.line });
            }
        }
    }

    // --- token-pattern markers ----------------------------------------
    for j in start..end {
        // The patterns shared with the zero-hop rules.
        if let Some((pattern, what)) = match_at(toks, j) {
            let marks = match pattern {
                Pattern::Materialize => Some(&mut m.materialize),
                Pattern::RawSync => Some(&mut m.raw_sync),
                _ => None,
            };
            if let Some(marks) = marks {
                marks.push(Mark { what, line: toks[j].line });
            }
        }
        match &toks[j].kind {
            // `for … in <chain> {` — hash iteration via IntoIterator.
            TokenKind::Ident(id) if id == "in" => {
                let mut k = j + 1;
                while k < end && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
                    k += 1;
                }
                let mut chain = Vec::new();
                while let Some(seg) = toks.get(k).and_then(Token::ident) {
                    chain.push(seg.to_string());
                    if k + 1 < end && toks[k + 1].is_punct('.') {
                        k += 2;
                    } else {
                        k += 1;
                        break;
                    }
                }
                if !chain.is_empty() && toks.get(k).is_some_and(|t| t.is_punct('{')) {
                    if let Some(ty) = chain_type(&chain) {
                        if cfg.hash_types.iter().any(|h| h == &ty) {
                            m.det_sources.push(Mark {
                                what: format!("for-loop over {ty} (iteration order)"),
                                line: toks[j].line,
                            });
                        }
                    }
                }
            }
            // Deterministic struct literal: `QueryCost { … }`.
            TokenKind::Ident(id)
                if cfg.det_structs.iter().any(|s| s == id)
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('{'))
                    && !(j > 0 && (toks[j - 1].is_ident("let") || toks[j - 1].is_punct('|'))) =>
            {
                m.det_sinks.push(Mark { what: format!("{id} {{ … }}"), line: toks[j].line });
            }
            // Deterministic field write: `.field =` / `.field +=`.
            TokenKind::Punct('.') => {
                if let Some(field) = toks.get(j + 1).and_then(Token::ident) {
                    if cfg.det_fields.iter().any(|f| f == field) {
                        let k = j + 2;
                        let compound = toks.get(k).is_some_and(|t| {
                            matches!(t.kind, TokenKind::Punct('+' | '-' | '*' | '/'))
                        }) && toks.get(k + 1).is_some_and(|t| t.is_punct('='));
                        let plain = toks.get(k).is_some_and(|t| t.is_punct('='))
                            && !toks.get(k + 1).is_some_and(|t| t.is_punct('='));
                        if compound || plain {
                            m.det_sinks
                                .push(Mark { what: format!("write {field}"), line: toks[j].line });
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // File-level raw-sync imports taint any function in the file that
    // names the imported primitive.
    let names_import =
        |t: &&Token| t.ident().is_some_and(|id| raw_sync_imports.iter().any(|b| b == id));
    if let Some(tok) = toks[start..end].iter().find(names_import) {
        let what = format!("imported std::sync::{}", tok.ident().unwrap_or_default());
        m.raw_sync.push(Mark { what, line: tok.line });
    }
    m
}

/// Maps a receiver chain to a stable lock name.
fn lock_name(
    chain: &[String],
    impl_type: Option<&str>,
    named: &BTreeMap<String, String>,
) -> String {
    let field = chain.last().map(String::as_str).unwrap_or("?");
    if let Some(lit) = named.get(field) {
        return lit.clone();
    }
    match (chain.first().map(String::as_str), impl_type) {
        (Some("self"), Some(ty)) => format!("{ty}.{field}"),
        _ => chain.join("."),
    }
}

/// Is the lock call's statement `let`-bound (guard outlives the
/// expression)?  Scans back to the statement boundary.
fn let_bound(toks: &[Token], pos: usize, start: usize) -> bool {
    let mut k = pos;
    let floor = start.max(pos.saturating_sub(16));
    while k > floor {
        k -= 1;
        match &toks[k].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => return false,
            TokenKind::Ident(id) if id == "let" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::AnalysisConfig;

    fn marks_for(src: &str, name: &str) -> FnMarks {
        let ws = Workspace::link(vec![parse_file(src, "crates/x/src/lib.rs", "x")]);
        let cfg = AnalysisConfig::workspace();
        let all = mark_all(&ws, &cfg);
        let id = ws.funcs.iter().position(|f| f.item.name == name).expect("fn");
        all[id].clone()
    }

    #[test]
    fn named_mutex_harvest_handles_qualified_paths() {
        let src = "struct S { plain: Mutex, remote: Mutex }\n\
            impl S { fn init() -> S { S {\n\
              plain: Mutex::named(\"s.plain\", 0),\n\
              remote: qbism_check::sync::Mutex::named(\"s.remote\", 0),\n\
            } } }";
        let ws = Workspace::link(vec![parse_file(src, "crates/x/src/lib.rs", "x")]);
        let named = named_mutexes(&ws);
        assert_eq!(named.get("plain").map(String::as_str), Some("s.plain"));
        assert_eq!(named.get("remote").map(String::as_str), Some("s.remote"));
    }

    #[test]
    fn clock_reads_are_sources() {
        let m = marks_for("fn f() { let t = Instant::now(); }", "f");
        assert_eq!(m.det_sources.len(), 1);
        assert!(m.det_sources[0].what.contains("Instant::now"));
    }

    #[test]
    fn hash_iteration_is_a_source_when_receiver_is_typed() {
        let m = marks_for(
            "struct S { map: HashMap }\nimpl S { fn f(&self) { for k in self.map.keys() { } } }",
            "f",
        );
        assert!(m.det_sources.iter().any(|s| s.what.contains("HashMap")), "{:?}", m.det_sources);
    }

    #[test]
    fn for_loop_over_hashmap_field_is_a_source() {
        let m = marks_for(
            "struct S { map: HashMap }\nimpl S { fn f(&self) { for kv in &self.map { } } }",
            "f",
        );
        assert!(m.det_sources.iter().any(|s| s.what.contains("for-loop")), "{:?}", m.det_sources);
    }

    #[test]
    fn vec_iteration_is_not_a_source() {
        let m = marks_for(
            "struct S { v: Vec }\nimpl S { fn f(&self) { for x in self.v.iter() { } } }",
            "f",
        );
        assert!(m.det_sources.is_empty());
    }

    #[test]
    fn deterministic_field_writes_are_sinks() {
        let m = marks_for(
            "fn f(c: &mut QueryCost) { c.sim_db_seconds += 1.0; c.rows_scanned = 3; c.native_db_seconds = 0.5; }",
            "f",
        );
        let whats: Vec<&str> = m.det_sinks.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["write sim_db_seconds", "write rows_scanned"]);
    }

    #[test]
    fn equality_tests_are_not_writes() {
        let m = marks_for("fn f(c: &QueryCost) -> bool { c.rows_scanned == 3 }", "f");
        assert!(m.det_sinks.is_empty(), "{:?}", m.det_sinks);
    }

    #[test]
    fn struct_literal_is_a_sink_but_patterns_are_not() {
        let m = marks_for("fn f() -> QueryCost { QueryCost { lfm: 0 } }", "f");
        assert_eq!(m.det_sinks.len(), 1);
        let m = marks_for("fn g(c: C) { let QueryCost { .. } = c; }", "g");
        assert!(m.det_sinks.is_empty());
    }

    #[test]
    fn lock_sites_use_named_literals_and_track_let_binding() {
        let src = "struct S { acct: Mutex }\n\
                   impl S {\n\
                     fn init() -> S { S { acct: Mutex::named(\"lfm.acct\", 0) } }\n\
                     fn f(&self) { let g = self.acct.lock_or_recover(); drop(g); self.acct.lock(); }\n\
                   }";
        let m = marks_for(src, "f");
        assert_eq!(m.locks.len(), 2);
        assert_eq!(m.locks[0].name, "lfm.acct");
        assert!(m.locks[0].held);
        assert!(!m.locks[1].held);
    }

    #[test]
    fn raw_sync_paths_are_marked() {
        let m = marks_for("fn f() { let m = std::sync::Mutex::new(0); }", "f");
        assert_eq!(m.raw_sync.len(), 1);
        // An imported primitive marks the functions that name it, and only those.
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn f() { let c = AtomicU64::new(0); }\nfn g() { let o = Ordering::SeqCst; }";
        assert_eq!(marks_for(src, "f").raw_sync[0].what, "imported std::sync::AtomicU64");
        assert!(marks_for(src, "g").raw_sync.is_empty());
    }
}
