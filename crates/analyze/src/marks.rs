//! Per-function marker extraction.
//!
//! A *marker* is a syntactic fact about one function body that the
//! reachability analyses combine over the call graph: determinism
//! sources (wall-clock reads, hash-order iteration, thread identity,
//! environment reads), determinism sinks (writes to deterministic
//! cost columns, table emitters, span minting), kernel-contract
//! operations (`from_ids`, `decode_all`, …), and lock acquisitions.
//! The token pattern the zero-hop rules share (the materialize calls)
//! comes from [`crate::rules::match_at`].

use crate::graph::{call_sites, local_types, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::rules::{match_at, Pattern};
use crate::AnalysisConfig;

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
    /// Stable lock name: `Type.field` for a lock on `self`'s field,
    /// else the receiver chain (`shard.lane`).
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
    pub locks: Vec<LockSite>,
}

const HASH_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

/// Extracts markers for every function in the workspace.
pub fn mark_all(ws: &Workspace, cfg: &AnalysisConfig) -> Vec<FnMarks> {
    (0..ws.funcs.len()).map(|id| mark_fn(ws, cfg, id)).collect()
}

fn mark_fn(ws: &Workspace, cfg: &AnalysisConfig, id: usize) -> FnMarks {
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
                        let lock_name = lock_name(chain, func.item.impl_type.as_deref());
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
        // The pattern shared with the zero-hop rules.
        if let Some((Pattern::Materialize, what)) = match_at(toks, j) {
            m.materialize.push(Mark { what, line: toks[j].line });
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

    m
}

/// Maps a receiver chain to a stable lock name.
fn lock_name(chain: &[String], impl_type: Option<&str>) -> String {
    let field = chain.last().map(String::as_str).unwrap_or("?");
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
    fn lock_sites_are_named_by_type_and_field_and_track_let_binding() {
        let src = "struct S { acct: Mutex<u64> }\n\
                   impl S {\n\
                     fn f(&self) { let g = self.acct.lock_or_recover(); drop(g); self.acct.lock(); }\n\
                   }";
        let m = marks_for(src, "f");
        assert_eq!(m.locks.len(), 2);
        assert_eq!(m.locks[0].name, "S.acct");
        assert!(m.locks[0].held);
        assert!(!m.locks[1].held);
    }
}
