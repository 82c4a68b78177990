//! Item-level Rust parser over the lexer.
//!
//! This is not a full grammar: it recovers exactly the structure the
//! rules need — modules, inherent/trait impls, function items with
//! signatures and body token ranges, struct field types (for
//! method-receiver resolution), and the token spans of test-only
//! items.  Bodies are kept as raw token ranges; expression structure is
//! recovered lazily by the call-extraction pass in `graph`.
//!
//! Known approximations (documented in DESIGN.md): nested `fn` items
//! and closures are attributed to their enclosing function; macro
//! bodies are scanned as plain token streams; `#[cfg(...)]` selections
//! other than `test` are treated as always-compiled.

use crate::lexer::{lex, Token, TokenKind};

/// One parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel: String,
    /// `crates/<name>/src/…` → `<name>`; the workspace's own `src/`
    /// tree is crate `suite`.
    pub crate_name: String,
    pub tokens: Vec<Token>,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    /// Outermost token spans `[start, end)` of items under
    /// `#[cfg(test)]` / `#[test]`, attribute included, in file order.
    pub test_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Indices of every token outside test-only items — what a zero-hop
    /// rule sees (imports, signatures and field types, not only bodies).
    pub fn code_positions(&self) -> impl Iterator<Item = usize> + '_ {
        let mut spans = self.test_spans.iter().peekable();
        (0..self.tokens.len()).filter(move |&j| {
            while spans.peek().is_some_and(|s| s.1 <= j) {
                spans.next();
            }
            spans.peek().is_none_or(|s| j < s.0)
        })
    }
}

/// A function item (free fn, inherent/trait method, or trait default
/// method).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// The `impl` target's (or trait's) last path segment, if any.
    pub impl_type: Option<String>,
    /// Defined inside `impl Trait for Type` or a `trait` declaration.
    pub in_trait: bool,
    /// Inline-module path within the file (file-level path is added by
    /// the graph layer).
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    pub is_pub: bool,
    pub has_self: bool,
    /// The receiver is exactly `&self` (not `&mut self`, not by value).
    pub shared_self: bool,
    pub returns_result: bool,
    /// Inside `#[cfg(test)]` or carrying `#[test]`.
    pub in_test: bool,
    /// Body token range `[start, end)` into [`ParsedFile::tokens`]
    /// (the tokens between, not including, the outer braces).  Empty
    /// for bodyless trait-method declarations.
    pub body: (usize, usize),
}

/// A struct with named fields: `field → outermost type segment`
/// (`cache: Mutex<PageCache>` → `("cache", "Mutex")`).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub fields: Vec<(String, String)>,
}

/// Keywords that can directly precede `(` without being a call.
pub const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "fn", "impl", "where",
    "use", "mod", "struct", "enum", "trait", "type", "const", "static", "ref", "mut", "else",
    "break", "continue", "dyn", "move", "unsafe", "pub", "crate", "super", "async", "await",
];

pub fn is_call_keyword(name: &str) -> bool {
    CALL_KEYWORDS.contains(&name)
}

/// Parses one file's source text.
pub fn parse_file(source: &str, rel: &str, crate_name: &str) -> ParsedFile {
    let tokens = lex(source);
    let mut file = ParsedFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        tokens: Vec::new(),
        fns: Vec::new(),
        structs: Vec::new(),
        test_spans: Vec::new(),
    };
    let end = tokens.len();
    let mut ctx = Ctx { tokens: &tokens, out: &mut file };
    parse_items(&mut ctx, 0, end, &ItemScope::default());
    file.tokens = tokens;
    file
}

/// Scope inherited while recursing into modules / impls / traits.
#[derive(Debug, Clone, Default)]
struct ItemScope {
    modules: Vec<String>,
    impl_type: Option<String>,
    in_trait: bool,
    in_test: bool,
}

struct Ctx<'a> {
    tokens: &'a [Token],
    out: &'a mut ParsedFile,
}

/// Pending per-item modifiers reset after each item.
#[derive(Debug, Clone, Default)]
struct Pending {
    is_pub: bool,
    cfg_test: bool,
    is_test_attr: bool,
}

fn parse_items(ctx: &mut Ctx<'_>, mut i: usize, end: usize, scope: &ItemScope) {
    let mut pending = Pending::default();
    let mut item_start = i;
    while i < end {
        let tok = &ctx.tokens[i];
        let next = ctx.tokens.get(i + 1);
        match &tok.kind {
            // Attributes and modifiers accumulate onto the item they precede.
            TokenKind::Punct('#') => {
                let (cfg_test, is_test, next) = parse_attr(ctx.tokens, i, end);
                pending.cfg_test |= cfg_test;
                pending.is_test_attr |= is_test;
                i = next;
                continue;
            }
            TokenKind::Ident(name) => match name.as_str() {
                "pub" => {
                    pending.is_pub = true;
                    i += 1;
                    if i < end && ctx.tokens[i].is_punct('(') {
                        i = skip_balanced(ctx.tokens, i, end, '(', ')');
                    }
                    continue;
                }
                "unsafe" | "async" | "default" => {
                    i += 1;
                    continue;
                }
                // `extern "C" fn` / `const fn` are modifiers; `extern crate x;`
                // and `const X: T = …;` are items.
                "extern" if next.is_some_and(|t| matches!(t.kind, TokenKind::Str(_))) => {
                    i += 2;
                    continue;
                }
                "const" if next.is_some_and(|t| t.is_ident("fn")) => {
                    i += 1;
                    continue;
                }
                "fn" => i = parse_fn(ctx, i, end, scope, &pending),
                "mod" => i = parse_mod(ctx, i, end, scope, &pending),
                "impl" => i = parse_impl(ctx, i, end, scope, &pending),
                "trait" => i = parse_trait(ctx, i, end, scope, &pending),
                "struct" => i = parse_struct(ctx, i, end, &pending),
                "enum" | "union" => {
                    i += 1;
                    while i < end && !ctx.tokens[i].is_punct('{') && !ctx.tokens[i].is_punct(';') {
                        i += 1;
                    }
                    if i < end && ctx.tokens[i].is_punct('{') {
                        i = skip_balanced(ctx.tokens, i, end, '{', '}');
                    } else {
                        i += 1;
                    }
                }
                "use" | "static" | "type" | "extern" | "const" => {
                    i = skip_to_semi(ctx.tokens, i, end);
                }
                "macro_rules" => {
                    // macro_rules! name { … }
                    i += 1;
                    while i < end && !ctx.tokens[i].is_punct('{') {
                        i += 1;
                    }
                    i = skip_balanced(ctx.tokens, i, end, '{', '}');
                }
                _ => i += 1,
            },
            TokenKind::Punct('{') => i = skip_balanced(ctx.tokens, i, end, '{', '}'),
            _ => i += 1,
        }
        // An item just ended at `i`.
        if (pending.cfg_test || pending.is_test_attr) && !scope.in_test {
            ctx.out.test_spans.push((item_start, i));
        }
        pending = Pending::default();
        item_start = i;
    }
}

/// Parses `#…[…]` starting at the `#`; returns (is cfg(test)-like,
/// is #[test]-like, index after the attribute).
fn parse_attr(tokens: &[Token], i: usize, end: usize) -> (bool, bool, usize) {
    let mut j = i + 1;
    if j < end && tokens[j].is_punct('!') {
        j += 1;
    }
    if j >= end || !tokens[j].is_punct('[') {
        return (false, false, i + 1);
    }
    let close = skip_balanced(tokens, j, end, '[', ']');
    let body = &tokens[j + 1..close.saturating_sub(1).max(j + 1)];
    let idents: Vec<&str> = body.iter().filter_map(Token::ident).collect();
    let cfg_test = idents.first() == Some(&"cfg") && idents.contains(&"test");
    // `#[test]`, `#[tokio::test]`, but not `#[cfg(test)]`.
    let is_test = !cfg_test && idents.last() == Some(&"test");
    (cfg_test, is_test, close)
}

/// Parses a `fn` item starting at the `fn` keyword; returns the index
/// after the item.
fn parse_fn(
    ctx: &mut Ctx<'_>,
    i: usize,
    end: usize,
    scope: &ItemScope,
    pending: &Pending,
) -> usize {
    let line = ctx.tokens[i].line;
    let mut j = i + 1;
    let name = match ctx.tokens.get(j).and_then(Token::ident) {
        Some(n) => n.to_string(),
        None => return i + 1,
    };
    j += 1;
    if j < end && ctx.tokens[j].is_punct('<') {
        j = skip_angles(ctx.tokens, j, end);
    }
    if j >= end || !ctx.tokens[j].is_punct('(') {
        return j;
    }
    let params_end = skip_balanced(ctx.tokens, j, end, '(', ')');
    let params = &ctx.tokens[j + 1..params_end.saturating_sub(1).max(j + 1)];
    let has_self = params_have_self(params);
    let shared_self =
        has_self && params[0].is_punct('&') && !params.iter().take(3).any(|t| t.is_ident("mut"));
    j = params_end;

    // Return type + where clause: scan to the body `{` or a `;`.
    let mut returns_result = false;
    let mut depth = 0i64;
    while j < end {
        match &ctx.tokens[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('<') if !prev_is(ctx.tokens, j, '-') => depth += 1,
            TokenKind::Punct('>')
                if !prev_is(ctx.tokens, j, '-') && !prev_is(ctx.tokens, j, '=') =>
            {
                depth -= 1
            }
            TokenKind::Punct('{') | TokenKind::Punct(';') if depth <= 0 => break,
            TokenKind::Ident(id) if id == "Result" || id.ends_with("Result") => {
                returns_result = true
            }
            _ => {}
        }
        j += 1;
    }
    if j >= end {
        return end;
    }
    // `;` ends a bodyless trait-method declaration.
    let (body, next) = if ctx.tokens[j].is_punct(';') {
        ((0, 0), j + 1)
    } else {
        let body_end = skip_balanced(ctx.tokens, j, end, '{', '}');
        ((j + 1, body_end.saturating_sub(1).max(j + 1)), body_end)
    };
    ctx.out.fns.push(FnItem {
        name,
        impl_type: scope.impl_type.clone(),
        in_trait: scope.in_trait,
        modules: scope.modules.clone(),
        line,
        is_pub: pending.is_pub,
        has_self,
        shared_self,
        returns_result,
        in_test: scope.in_test || pending.cfg_test || pending.is_test_attr,
        body,
    });
    next
}

fn parse_mod(
    ctx: &mut Ctx<'_>,
    i: usize,
    end: usize,
    scope: &ItemScope,
    pending: &Pending,
) -> usize {
    let mut j = i + 1;
    let name = match ctx.tokens.get(j).and_then(Token::ident) {
        Some(n) => n.to_string(),
        None => return i + 1,
    };
    j += 1;
    if j < end && ctx.tokens[j].is_punct(';') {
        return j + 1;
    }
    if j >= end || !ctx.tokens[j].is_punct('{') {
        return j;
    }
    let body_end = skip_balanced(ctx.tokens, j, end, '{', '}');
    let mut inner = scope.clone();
    inner.modules.push(name);
    inner.in_test = scope.in_test || pending.cfg_test;
    inner.impl_type = None;
    inner.in_trait = false;
    parse_items(ctx, j + 1, body_end.saturating_sub(1).max(j + 1), &inner);
    body_end
}

fn parse_impl(
    ctx: &mut Ctx<'_>,
    i: usize,
    end: usize,
    scope: &ItemScope,
    pending: &Pending,
) -> usize {
    let mut j = i + 1;
    if j < end && ctx.tokens[j].is_punct('<') {
        j = skip_angles(ctx.tokens, j, end);
    }
    // Header tokens up to `{` (or `where`).
    let mut header: Vec<usize> = Vec::new();
    let mut depth = 0i64;
    while j < end {
        match &ctx.tokens[j].kind {
            TokenKind::Punct('<') if !prev_is(ctx.tokens, j, '-') => depth += 1,
            TokenKind::Punct('>')
                if !prev_is(ctx.tokens, j, '-') && !prev_is(ctx.tokens, j, '=') =>
            {
                depth -= 1
            }
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('{') if depth <= 0 => break,
            TokenKind::Ident(w) if w == "where" && depth <= 0 => break,
            _ => {}
        }
        header.push(j);
        j += 1;
    }
    // Skip a where clause.
    while j < end && !ctx.tokens[j].is_punct('{') {
        j += 1;
    }
    if j >= end {
        return end;
    }

    // `impl Trait for Type` → self type after `for`; else whole header.
    let mut in_trait = false;
    let mut type_tokens: &[usize] = &header;
    if let Some(pos) = header.iter().position(|&t| ctx.tokens[t].is_ident("for")) {
        in_trait = true;
        type_tokens = &header[pos + 1..];
    }
    let impl_type = last_type_segment(ctx.tokens, type_tokens);

    let body_end = skip_balanced(ctx.tokens, j, end, '{', '}');
    let mut inner = scope.clone();
    inner.impl_type = impl_type;
    inner.in_trait = in_trait;
    inner.in_test = scope.in_test || pending.cfg_test;
    parse_items(ctx, j + 1, body_end.saturating_sub(1).max(j + 1), &inner);
    body_end
}

fn parse_trait(
    ctx: &mut Ctx<'_>,
    i: usize,
    end: usize,
    scope: &ItemScope,
    pending: &Pending,
) -> usize {
    let mut j = i + 1;
    let name = match ctx.tokens.get(j).and_then(Token::ident) {
        Some(n) => n.to_string(),
        None => return i + 1,
    };
    while j < end && !ctx.tokens[j].is_punct('{') && !ctx.tokens[j].is_punct(';') {
        j += 1;
    }
    if j >= end || ctx.tokens[j].is_punct(';') {
        return j.saturating_add(1).min(end);
    }
    let body_end = skip_balanced(ctx.tokens, j, end, '{', '}');
    let mut inner = scope.clone();
    inner.impl_type = Some(name);
    inner.in_trait = true;
    inner.in_test = scope.in_test || pending.cfg_test;
    parse_items(ctx, j + 1, body_end.saturating_sub(1).max(j + 1), &inner);
    body_end
}

fn parse_struct(ctx: &mut Ctx<'_>, i: usize, end: usize, pending: &Pending) -> usize {
    let mut j = i + 1;
    let name = match ctx.tokens.get(j).and_then(Token::ident) {
        Some(n) => n.to_string(),
        None => return i + 1,
    };
    j += 1;
    if j < end && ctx.tokens[j].is_punct('<') {
        j = skip_angles(ctx.tokens, j, end);
    }
    // Skip a where clause before the body.
    while j < end
        && !ctx.tokens[j].is_punct('{')
        && !ctx.tokens[j].is_punct('(')
        && !ctx.tokens[j].is_punct(';')
    {
        j += 1;
    }
    if j >= end {
        return end;
    }
    if ctx.tokens[j].is_punct('(') {
        // Tuple struct: skip to the terminating `;`.
        let close = skip_balanced(ctx.tokens, j, end, '(', ')');
        return skip_to_semi(ctx.tokens, close, end);
    }
    if ctx.tokens[j].is_punct(';') {
        return j + 1;
    }
    let body_end = skip_balanced(ctx.tokens, j, end, '{', '}');
    if pending.cfg_test {
        return body_end;
    }
    let mut fields = Vec::new();
    let mut k = j + 1;
    let inner_end = body_end.saturating_sub(1).max(j + 1);
    while k < inner_end {
        // Skip attributes and `pub(…)`.
        if ctx.tokens[k].is_punct('#') {
            let (_, _, next) = parse_attr(ctx.tokens, k, inner_end);
            k = next;
            continue;
        }
        if ctx.tokens[k].is_ident("pub") {
            k += 1;
            if k < inner_end && ctx.tokens[k].is_punct('(') {
                k = skip_balanced(ctx.tokens, k, inner_end, '(', ')');
            }
            continue;
        }
        let Some(field) = ctx.tokens.get(k).and_then(Token::ident).map(str::to_string) else {
            k += 1;
            continue;
        };
        if k + 1 >= inner_end || !ctx.tokens[k + 1].is_punct(':') {
            k += 1;
            continue;
        }
        // Type tokens to the next `,` at depth 0.
        let mut t = k + 2;
        let mut depth = 0i64;
        let mut ty: Vec<usize> = Vec::new();
        while t < inner_end {
            match &ctx.tokens[t].kind {
                TokenKind::Punct('<') if !prev_is(ctx.tokens, t, '-') => depth += 1,
                TokenKind::Punct('>') if !prev_is(ctx.tokens, t, '-') => depth -= 1,
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct(',') if depth <= 0 => break,
                _ => {}
            }
            ty.push(t);
            t += 1;
        }
        if let Some(seg) = last_type_segment(ctx.tokens, &ty) {
            fields.push((field, seg));
        }
        k = t + 1;
    }
    ctx.out.structs.push(StructItem { name, fields });
    body_end
}

/// The outermost type's last path segment: the last identifier seen at
/// angle/paren/bracket depth 0 (`std::sync::Arc<Foo>` → `Arc`,
/// `&'a mut Foo` → `Foo`).
fn last_type_segment(tokens: &[Token], indices: &[usize]) -> Option<String> {
    let mut depth = 0i64;
    let mut last: Option<String> = None;
    for &t in indices {
        match &tokens[t].kind {
            TokenKind::Punct('<') if !prev_is(tokens, t, '-') => depth += 1,
            TokenKind::Punct('>') if !prev_is(tokens, t, '-') => depth -= 1,
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Ident(id)
                if depth <= 0
                    && !matches!(
                        id.as_str(),
                        "mut" | "dyn" | "impl" | "const" | "where" | "as"
                    ) =>
            {
                last = Some(id.clone());
            }
            _ => {}
        }
    }
    last
}

/// True when a parameter list starts with a receiver (`self`,
/// `&self`, `&'a mut self`, `mut self`).
fn params_have_self(params: &[Token]) -> bool {
    for tok in params.iter().take(5) {
        match &tok.kind {
            TokenKind::Ident(id) if id == "self" => return true,
            TokenKind::Ident(id) if id == "mut" => continue,
            TokenKind::Punct('&') => continue,
            TokenKind::Lifetime(_) => continue,
            _ => return false,
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Token-walk helpers (shared with graph)
// ---------------------------------------------------------------------------

/// Index after the group opened by `open` at `i` (or `end`).
pub fn skip_balanced(tokens: &[Token], i: usize, end: usize, open: char, close: char) -> usize {
    debug_assert!(i >= tokens.len() || tokens[i].is_punct(open));
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        if tokens[j].is_punct(open) {
            depth += 1;
        } else if tokens[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Index after a generic group `<…>` opened at `i`; `->` and `=>`
/// arrows do not count as angle brackets.
pub fn skip_angles(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        if tokens[j].is_punct('<') && !prev_is(tokens, j, '-') && !prev_is(tokens, j, '<') {
            depth += 1;
        } else if tokens[j].is_punct('>') && !prev_is(tokens, j, '-') && !prev_is(tokens, j, '=') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Index after the next `;` at brace depth 0 (skipping `{…}` groups,
/// so `static X: T = { … };` works).
pub fn skip_to_semi(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut j = i;
    while j < end {
        if tokens[j].is_punct('{') {
            j = skip_balanced(tokens, j, end, '{', '}');
            continue;
        }
        if tokens[j].is_punct(';') {
            return j + 1;
        }
        j += 1;
    }
    end
}

fn prev_is(tokens: &[Token], i: usize, c: char) -> bool {
    i > 0 && tokens[i - 1].is_punct(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(src, "crates/x/src/lib.rs", "x")
    }

    #[test]
    fn extracts_free_and_method_fns() {
        let f = parse(
            "pub fn free(a: u32) -> Result<u32> { helper(a) }\n\
             struct S { inner: Mutex<u64> }\n\
             impl S {\n  pub fn method(&self) -> u32 { 1 }\n  fn private(&mut self) {}\n}\n\
             impl Drop for S { fn drop(&mut self) {} }",
        );
        let names: Vec<(&str, Option<&str>, bool)> =
            f.fns.iter().map(|x| (x.name.as_str(), x.impl_type.as_deref(), x.in_trait)).collect();
        assert_eq!(
            names,
            vec![
                ("free", None, false),
                ("method", Some("S"), false),
                ("private", Some("S"), false),
                ("drop", Some("S"), true),
            ]
        );
        assert!(f.fns[0].returns_result && f.fns[0].is_pub && !f.fns[0].has_self);
        assert!(f.fns[1].has_self && f.fns[1].is_pub);
        assert_eq!(f.structs.len(), 1);
        assert_eq!(f.structs[0].fields, vec![("inner".to_string(), "Mutex".to_string())]);
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_marked() {
        let f = parse(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { prod() }\n  fn helper() {}\n}",
        );
        let by_name = |n: &str| f.fns.iter().find(|x| x.name == n).map(|x| x.in_test);
        assert_eq!(by_name("prod"), Some(false));
        assert_eq!(by_name("t"), Some(true));
        assert_eq!(by_name("helper"), Some(true));
    }

    #[test]
    fn generics_where_clauses_and_fn_pointers_parse() {
        let f = parse(
            "pub fn map<T, F: Fn(T) -> T>(xs: Vec<T>, f: F) -> Vec<T> where T: Clone { xs }\n\
             fn takes_ptr(g: fn(u32) -> u32) -> u32 { g(3) }",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "map");
        assert_eq!(f.fns[1].name, "takes_ptr");
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let f = parse(
            "pub trait Cursor {\n  fn peek(&self) -> Option<u64>;\n  fn count(&mut self) -> usize { 0 }\n}",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].body, (0, 0));
        assert!(
            f.fns[1].body.0 < f.fns[1].body.1
                || f.fns[1].body == (f.fns[1].body.0, f.fns[1].body.0)
        );
        assert!(f.fns.iter().all(|x| x.in_trait && x.impl_type.as_deref() == Some("Cursor")));
    }

    #[test]
    fn inline_modules_extend_the_path() {
        let f = parse("mod outer { mod inner { fn deep() {} } fn shallow() {} }");
        let deep = f.fns.iter().find(|x| x.name == "deep").map(|x| x.modules.clone());
        assert_eq!(deep, Some(vec!["outer".to_string(), "inner".to_string()]));
    }

    #[test]
    fn test_spans_cover_gated_items_and_nothing_else() {
        let f = parse(
            "use a::B;\n#[cfg(test)]\nuse c::D;\nimpl S {\n  #[cfg(test)]\n  pub fn probe(&self) {}\n  \
             pub fn real(&self) {}\n}\n#[cfg(test)]\nmod tests { #[test] fn t() { x.unwrap(); } }\nfn tail() {}",
        );
        assert_eq!(f.test_spans.len(), 3, "{:?}", f.test_spans);
        let code: Vec<&str> =
            f.code_positions().filter_map(|j| f.tokens[j].ident()).collect::<Vec<_>>();
        for gone in ["D", "probe", "unwrap", "tests"] {
            assert!(!code.contains(&gone), "`{gone}` is test-only: {code:?}");
        }
        for kept in ["B", "real", "tail"] {
            assert!(code.contains(&kept), "`{kept}` is code: {code:?}");
        }
    }

    #[test]
    fn receivers_are_classified() {
        let f = parse("impl S { fn a(&self) {} fn b(&mut self) {} fn c(self) {} fn d(&'a self) {} fn e(x: &S) {} }");
        let kinds: Vec<(bool, bool)> = f.fns.iter().map(|x| (x.has_self, x.shared_self)).collect();
        assert_eq!(
            kinds,
            vec![(true, true), (true, false), (true, false), (true, true), (false, false)]
        );
    }

    #[test]
    fn impl_headers_with_generics() {
        let f = parse("impl<T: Clone> Wrapper<T> { fn get(&self) -> &T { &self.0 } }");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn macro_rules_bodies_do_not_leak_items() {
        let f = parse("macro_rules! m { ($x:expr) => { fn fake() {} }; }\nfn real() {}");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }
}
