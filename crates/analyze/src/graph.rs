//! Workspace module map and function-level call graph.
//!
//! Files are collected from `crates/*/src/**.rs` plus the root `src/`,
//! parsed with [`crate::parser`], and joined into one function table.
//! Call edges are *name-based* (no type inference): qualified calls resolve
//! through `Type::method` / `module::fn` suffixes, bare calls resolve
//! same-module → same-crate → workspace-unique, and method calls
//! resolve through receiver typing (`self`, `self.field` via struct
//! field types, `let`-bound locals) with a conservative name-based
//! fallback.  The approximations are listed in DESIGN.md.

use crate::lexer::{Token, TokenKind};
use crate::parser::{is_call_keyword, parse_file, skip_angles, FnItem, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One function in the workspace call graph.
#[derive(Debug)]
pub struct Func {
    /// Index into [`Workspace::files`].
    pub file: usize,
    pub item: FnItem,
    /// Display name: `crate::module::Type::name`.
    pub qualified: String,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    pub callee: usize,
    /// 1-based source line of the call site.
    pub line: u32,
    /// Token index of the callee name (ordering within the caller).
    pub pos: usize,
}

/// The parsed workspace.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    pub funcs: Vec<Func>,
    /// Outgoing call edges per function (caller-ordered by position).
    pub calls: Vec<Vec<CallEdge>>,
    /// `(type, field) → outermost field type segment`.
    pub field_types: BTreeMap<(String, String), String>,
    /// Resolved / total call-site counts (graph density stats).
    pub resolved_calls: usize,
    pub total_calls: usize,
}

/// Methods so common on std types that a name-based fallback edge
/// would be noise; receiver-typed resolution still links them.  The
/// atomics' methods are here because the parser never types an atomic
/// receiver: without them a `flag.store(…)` would link to any
/// workspace method named `store`.
const COMMON_STD_METHODS: &[&str] = &[
    "load",
    "store",
    "fetch_add",
    "compare_exchange",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "cloned",
    "copied",
    "collect",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "map",
    "and_then",
    "or_else",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "to_string",
    "to_vec",
    "to_owned",
    "as_str",
    "as_ref",
    "as_mut",
    "as_bytes",
    "as_slice",
    "as_deref",
    "into",
    "from",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "total_cmp",
    "hash",
    "default",
    "drop",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "round",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "dedup",
    "extend",
    "clear",
    "join",
    "split",
    "splitn",
    "trim",
    "parse",
    "write",
    "read",
    "flush",
    "take",
    "replace",
    "swap",
    "zip",
    "enumerate",
    "sum",
    "product",
    "count",
    "last",
    "first",
    "rev",
    "chain",
    "skip",
    "skip_while",
    "take_while",
    "step_by",
    "windows",
    "chunks",
    "starts_with",
    "ends_with",
    "find",
    "rfind",
    "position",
    "any",
    "all",
    "retain",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "keys",
    "values",
    "drain",
    "truncate",
    "resize",
    "reserve",
    "with_capacity",
    "split_at",
    "split_off",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "wrapping_add",
    "wrapping_sub",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "get_or_init",
    "get_or_insert_with",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "expect",
    "unwrap",
    "push_str",
    "chars",
    "bytes",
    "lines",
    "flatten",
    "copied",
    "peekable",
    "peek",
    "nth",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "range",
    "abs_diff",
    "powi",
    "powf",
    "sqrt",
    "exp",
    "ln",
    "log2",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "contains_key",
    "rsplit",
    "strip_prefix",
    "strip_suffix",
];

impl Workspace {
    /// Scans a workspace root: a directory with `crates/*/src`, plus an
    /// optional root `src/` (the fixture corpora have the same shape).
    pub fn scan(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(root.join("crates"))? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, &mut paths)?;
        }
        paths.sort();

        let mut files = Vec::new();
        for path in &paths {
            let source = std::fs::read_to_string(path)?;
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
            files.push(parse_file(&source, &rel, crate_of(&rel)));
        }
        Ok(Workspace::link(files))
    }

    /// Builds the function table and resolves call edges.
    pub fn link(files: Vec<ParsedFile>) -> Workspace {
        let mut funcs = Vec::new();
        let mut field_types = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for s in &file.structs {
                for (field, ty) in &s.fields {
                    field_types.insert((s.name.clone(), field.clone()), ty.clone());
                }
            }
            for item in &file.fns {
                let qualified = qualified_name(file, item);
                funcs.push(Func { file: fi, item: item.clone(), qualified });
            }
        }

        // Per-function module paths, owned up-front so the resolution
        // indices below can borrow them.
        let modules: Vec<Vec<String>> =
            funcs.iter().map(|f| module_path(&files[f.file], &f.item)).collect();

        // Resolution indices over non-test functions.
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_by_module: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_by_crate: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_global: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, f) in funcs.iter().enumerate() {
            if f.item.in_test {
                continue;
            }
            let name = f.item.name.as_str();
            if let Some(ty) = f.item.impl_type.as_deref() {
                typed.entry((ty, name)).or_default().push(id);
                if f.item.has_self {
                    methods_by_name.entry(name).or_default().push(id);
                }
            } else {
                let file = &files[f.file];
                if let Some(last) = modules[id].last() {
                    free_by_module.entry((last.as_str(), name)).or_default().push(id);
                }
                free_by_crate.entry((file.crate_name.as_str(), name)).or_default().push(id);
                free_global.entry(name).or_default().push(id);
            }
        }

        let mut calls: Vec<Vec<CallEdge>> = vec![Vec::new(); funcs.len()];
        let mut resolved = 0usize;
        let mut total = 0usize;
        for id in 0..funcs.len() {
            if funcs[id].item.in_test {
                continue;
            }
            let file = &files[funcs[id].file];
            let (start, end) = funcs[id].item.body;
            if start >= end {
                continue;
            }
            let locals = local_types(&file.tokens, start, end);
            let sites = call_sites(&file.tokens, start, end);
            total += sites.len();
            let mut edges = Vec::new();
            for site in sites {
                let targets = resolve(
                    &site,
                    &funcs[id],
                    file,
                    &locals,
                    &field_types,
                    &typed,
                    &free_by_module,
                    &free_by_crate,
                    &free_global,
                    &methods_by_name,
                );
                if !targets.is_empty() {
                    resolved += 1;
                }
                for callee in targets {
                    edges.push(CallEdge { callee, line: site.line, pos: site.pos });
                }
            }
            calls[id] = edges;
        }

        Workspace { files, funcs, calls, field_types, resolved_calls: resolved, total_calls: total }
    }

    /// Deduplicated adjacency (callee set per function).
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        self.calls
            .iter()
            .map(|edges| {
                let set: BTreeSet<usize> = edges.iter().map(|e| e.callee).collect();
                set.into_iter().collect()
            })
            .collect()
    }

    /// Total resolved edge count.
    pub fn edge_count(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }

    /// `file:line` of a function's definition.
    pub fn location(&self, id: usize) -> (String, u32) {
        (self.files[self.funcs[id].file].rel.clone(), self.funcs[id].item.line)
    }

    /// The line of the first edge `caller → callee`, if any.
    pub fn edge_line(&self, caller: usize, callee: usize) -> Option<u32> {
        self.calls[caller].iter().find(|e| e.callee == callee).map(|e| e.line)
    }
}

/// `crates/<name>/src/…` → `<name>`; anything else → `suite`.
pub fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "suite",
    }
}

/// File-level module path (from the path under `src/`) plus the item's
/// inline modules.
fn module_path(file: &ParsedFile, item: &FnItem) -> Vec<String> {
    let mut modules = Vec::new();
    if let Some(idx) = file.rel.find("src/") {
        let under = &file.rel[idx + 4..];
        for part in under.split('/') {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" && !stem.is_empty() {
                modules.push(stem.to_string());
            }
        }
    }
    modules.extend(item.modules.iter().cloned());
    modules
}

fn qualified_name(file: &ParsedFile, item: &FnItem) -> String {
    let mut parts = vec![file.crate_name.clone()];
    parts.extend(module_path(file, item));
    if let Some(ty) = &item.impl_type {
        parts.push(ty.clone());
    }
    parts.push(item.name.clone());
    parts.join("::")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Call-site extraction
// ---------------------------------------------------------------------------

/// One syntactic call site inside a body.
#[derive(Debug)]
pub struct CallSite {
    pub name: String,
    /// `a::b::name(` → `["a", "b"]`.
    pub qualifier: Vec<String>,
    /// Receiver chain for `.name(` calls: `self.field.name(` →
    /// `["self", "field"]`; `None` when the receiver is an expression.
    pub receiver: Option<Vec<String>>,
    pub is_method: bool,
    pub line: u32,
    pub pos: usize,
}

/// Extracts every `name(`, `path::name(`, `.name(` and
/// `name::<T>(` site in `[start, end)`.
pub fn call_sites(tokens: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    let mut sites = Vec::new();
    let mut j = start;
    while j < end {
        let Some(name) = tokens[j].ident() else {
            j += 1;
            continue;
        };
        if is_call_keyword(name) {
            j += 1;
            continue;
        }
        // Where does the argument list open?  Either directly, or
        // after a turbofish `::<…>`.
        let mut open = j + 1;
        if open + 2 < end
            && tokens[open].is_punct(':')
            && tokens[open + 1].is_punct(':')
            && tokens[open + 2].is_punct('<')
        {
            open = skip_angles(tokens, open + 2, end);
        }
        if open >= end || !tokens[open].is_punct('(') {
            j += 1;
            continue;
        }
        // Macro invocation (`name!(…)`) is not a call.
        if j > 0 && tokens[j - 1].is_punct('!') {
            j = open;
            continue;
        }
        let is_method = j >= 1 && tokens[j - 1].is_punct('.');
        let mut qualifier = Vec::new();
        let mut receiver = None;
        if is_method {
            receiver = receiver_chain(tokens, j - 1, start);
        } else {
            // Walk back `ident ::` pairs.
            let mut k = j;
            while k >= 2 && tokens[k - 1].is_punct(':') && tokens[k - 2].is_punct(':') {
                if k >= 3 {
                    if let Some(seg) = tokens[k - 3].ident() {
                        qualifier.insert(0, seg.to_string());
                        k -= 3;
                        continue;
                    }
                }
                break;
            }
        }
        sites.push(CallSite {
            name: name.to_string(),
            qualifier,
            receiver,
            is_method,
            line: tokens[j].line,
            pos: j,
        });
        j = open;
    }
    sites
}

/// Walks back from the `.` at `dot` to recover a simple receiver
/// chain (`self`, `self.field`, `var`).  Returns `None` for
/// expression receivers (`foo().bar(`, `xs[i].bar(`).
fn receiver_chain(tokens: &[Token], dot: usize, start: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut k = dot;
    loop {
        if k == 0 || k <= start {
            break;
        }
        let prev = &tokens[k - 1];
        match &prev.kind {
            TokenKind::Ident(id) => {
                chain.insert(0, id.clone());
                // Continue if the ident is itself preceded by `.`.
                if k >= 2 && tokens[k - 2].is_punct('.') {
                    k -= 2;
                    continue;
                }
                break;
            }
            // `foo().bar(` / `xs[i].bar(` / `"s".bar(` — expression
            // receiver, unknown type.
            _ => return None,
        }
    }
    if chain.is_empty() {
        None
    } else {
        Some(chain)
    }
}

/// Crude local `let` typing: `let x: Type = …` and `let x = Type::…`.
pub fn local_types(tokens: &[Token], start: usize, end: usize) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut j = start;
    while j < end {
        if !tokens[j].is_ident("let") {
            j += 1;
            continue;
        }
        let mut k = j + 1;
        if k < end && tokens[k].is_ident("mut") {
            k += 1;
        }
        let Some(var) = tokens.get(k).and_then(Token::ident).map(str::to_string) else {
            j = k;
            continue;
        };
        k += 1;
        if k < end && tokens[k].is_punct(':') {
            // `let x: Type = …` — type tokens until `=` or `;`.
            let mut ty: Option<String> = None;
            let mut depth = 0i64;
            while k < end {
                match &tokens[k].kind {
                    TokenKind::Punct('<') => depth += 1,
                    TokenKind::Punct('>') => depth -= 1,
                    TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Punct('=') | TokenKind::Punct(';') if depth <= 0 => break,
                    TokenKind::Ident(id)
                        if depth <= 0 && !matches!(id.as_str(), "mut" | "dyn" | "impl") =>
                    {
                        ty = Some(id.clone())
                    }
                    _ => {}
                }
                k += 1;
            }
            if let Some(t) = ty {
                out.insert(var, t);
            }
        } else if k + 1 < end && tokens[k].is_punct('=') {
            // `let x = Type::…` — first segment of an uppercase path.
            if let Some(first) = tokens.get(k + 1).and_then(Token::ident) {
                if first.chars().next().is_some_and(char::is_uppercase)
                    && tokens.get(k + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(k + 3).is_some_and(|t| t.is_punct(':'))
                {
                    out.insert(var, first.to_string());
                }
            }
        }
        j = k;
    }
    out
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn resolve(
    site: &CallSite,
    caller: &Func,
    file: &ParsedFile,
    locals: &BTreeMap<String, String>,
    field_types: &BTreeMap<(String, String), String>,
    typed: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_module: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_crate: &BTreeMap<(&str, &str), Vec<usize>>,
    free_global: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let name = site.name.as_str();
    if site.is_method {
        // Receiver-typed resolution first.
        if let Some(chain) = &site.receiver {
            let mut ty: Option<String> = match chain[0].as_str() {
                "self" => caller.item.impl_type.clone(),
                var => locals.get(var).cloned(),
            };
            for seg in &chain[1..] {
                ty = ty.and_then(|t| field_types.get(&(t, seg.clone())).cloned());
            }
            if let Some(t) = ty {
                if let Some(ids) = typed.get(&(t.as_str(), name)) {
                    return ids.clone();
                }
            }
        }
        // Name-based fallback: skip std-common noise, cap ambiguity.
        if COMMON_STD_METHODS.contains(&name) {
            return Vec::new();
        }
        if let Some(ids) = methods_by_name.get(name) {
            if ids.len() <= 3 {
                return ids.clone();
            }
        }
        return Vec::new();
    }

    if let Some(last) = site.qualifier.last() {
        let q = if last == "Self" {
            caller.item.impl_type.clone().unwrap_or_else(|| last.clone())
        } else {
            last.clone()
        };
        if let Some(ids) = typed.get(&(q.as_str(), name)) {
            return ids.clone();
        }
        if let Some(ids) = free_by_module.get(&(q.as_str(), name)) {
            return ids.clone();
        }
        // `crate::helper::f(…)` style with an unmatched middle: fall
        // back to a unique global free fn.
        if let Some(ids) = free_global.get(name) {
            if ids.len() == 1 {
                return ids.clone();
            }
        }
        return Vec::new();
    }

    // Bare call: same module → same crate → workspace-unique.
    let module = module_path(file, &caller.item);
    if let Some(last) = module.last() {
        if let Some(ids) = free_by_module.get(&(last.as_str(), name)) {
            return ids.clone();
        }
    }
    if let Some(ids) = free_by_crate.get(&(file.crate_name.as_str(), name)) {
        return ids.clone();
    }
    if let Some(ids) = free_global.get(name) {
        if ids.len() == 1 {
            return ids.clone();
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn link_one(src: &str) -> Workspace {
        Workspace::link(vec![parse_file(src, "crates/x/src/lib.rs", "x")])
    }

    fn fid(ws: &Workspace, name: &str) -> usize {
        ws.funcs.iter().position(|f| f.item.name == name).unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn callees(ws: &Workspace, name: &str) -> Vec<String> {
        let id = fid(ws, name);
        let mut v: Vec<String> =
            ws.calls[id].iter().map(|e| ws.funcs[e.callee].item.name.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn bare_calls_resolve_same_crate() {
        let ws = link_one("fn a() { b(); }\nfn b() {}");
        assert_eq!(callees(&ws, "a"), vec!["b"]);
    }

    #[test]
    fn qualified_and_self_method_calls_resolve() {
        let ws = link_one(
            "struct S { t: T }\nstruct T;\n\
             impl T { fn leaf(&self) {} }\n\
             impl S {\n\
               fn a(&self) { self.b(); self.t.leaf(); S::c(); Self::c(); }\n\
               fn b(&self) {}\n fn c() {}\n}",
        );
        assert_eq!(callees(&ws, "a"), vec!["b", "c", "leaf"]);
    }

    #[test]
    fn local_let_typing_resolves_methods() {
        let ws = link_one(
            "struct Cur;\nimpl Cur { fn advance(&mut self) {} }\n\
             fn go() { let mut c = Cur::fresh(); c.advance(); }\n\
             impl Cur { fn fresh() -> Cur { Cur } }",
        );
        assert!(callees(&ws, "go").contains(&"advance".to_string()));
        assert!(callees(&ws, "go").contains(&"fresh".to_string()));
    }

    #[test]
    fn common_std_methods_do_not_link_by_name() {
        let ws = link_one(
            "struct S;\nimpl S { fn len(&self) -> usize { 0 } }\n\
             fn f(v: Vec<u32>) -> usize { v.len() }",
        );
        assert!(callees(&ws, "f").is_empty(), "{:?}", callees(&ws, "f"));
    }

    #[test]
    fn test_functions_are_outside_the_graph() {
        let ws = link_one(
            "fn prod() {}\n#[cfg(test)]\nmod tests { fn prod() { panic!() } #[test] fn t() { super::prod(); } }",
        );
        let prod = fid(&ws, "prod");
        assert!(!ws.funcs[prod].item.in_test);
        assert!(ws
            .calls
            .iter()
            .enumerate()
            .all(|(i, c)| i == prod || c.is_empty() || !ws.funcs[i].item.in_test));
    }

    #[test]
    fn turbofish_calls_resolve() {
        let ws = link_one("fn a() { b::<u32>(); }\nfn b<T>() {}");
        assert_eq!(callees(&ws, "a"), vec!["b"]);
    }

    #[test]
    fn macros_are_not_calls() {
        let ws = link_one("fn a() { println!(\"x\"); vec![1, 2]; }\nfn println() {}");
        assert!(callees(&ws, "a").is_empty());
    }
}
