//! The analyzer's dependency-free Rust lexer.
//!
//! [`lex`] tokenizes a complete source text into [`Token`]s with line
//! numbers — identifiers, literals (string / raw-string / byte-string /
//! char / number), lifetimes, and single-character punctuation.
//! Comments vanish; doc comments are comments.  Raw strings whose
//! contents contain quotes or `//`, and *nested* block comments, are
//! handled here once, so every rule — zero-hop or call-graph — agrees
//! on what is code.

/// One lexed token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

/// Token classes.  Keywords are [`TokenKind::Ident`]s — the parser
/// layers keyword meaning on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`r#ident` is unescaped to `ident`).
    Ident(String),
    /// `'a` (disambiguated from char literals).
    Lifetime(String),
    /// `"…"` contents, escapes left raw.
    Str(String),
    /// `r"…"` / `r#"…"#` contents.
    RawStr(String),
    /// `b"…"` / `br#"…"#` contents.
    ByteStr(String),
    /// A char or byte literal (`'x'`, `b'\n'`); contents dropped.
    Char,
    /// Numeric literal, verbatim (`0xff_u64`, `1.5e3`).
    Num(String),
    /// Any other single character (`::` is two `:` tokens).
    Punct(char),
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, TokenKind::Punct(p) if p == c)
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }
}

/// Tokenizes `source`.  Invalid input never panics: unknown bytes
/// become [`TokenKind::Punct`], unterminated literals run to EOF.
pub fn lex(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let (content, next) = scan_string(&chars, i + 1, &mut line);
                tokens.push(Token { kind: TokenKind::Str(content), line: start_line });
                i = next;
            }
            '\'' => {
                let start_line = line;
                match scan_quote(&chars, i) {
                    QuoteKind::Char(next) => {
                        tokens.push(Token { kind: TokenKind::Char, line: start_line });
                        i = next;
                    }
                    QuoteKind::Lifetime => {
                        let mut name = String::new();
                        i += 1;
                        while i < chars.len() && is_ident_char(chars[i]) {
                            name.push(chars[i]);
                            i += 1;
                        }
                        tokens.push(Token { kind: TokenKind::Lifetime(name), line: start_line });
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let start_line = line;
                let mut text = String::new();
                while i < chars.len() && (is_ident_char(chars[i]) || chars[i] == '.') {
                    // `1..10` — the range dots are not part of the number.
                    if chars[i] == '.'
                        && (chars.get(i + 1) == Some(&'.')
                            || !chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
                    {
                        break;
                    }
                    text.push(chars[i]);
                    i += 1;
                }
                tokens.push(Token { kind: TokenKind::Num(text), line: start_line });
            }
            c if is_ident_start(c) => {
                let start_line = line;
                let mut text = String::new();
                while i < chars.len() && is_ident_char(chars[i]) {
                    text.push(chars[i]);
                    i += 1;
                }
                // Raw / byte string prefixes: r" r#" b" br#" …
                if i < chars.len() && matches!(text.as_str(), "r" | "b" | "br") {
                    let is_byte = text.starts_with('b');
                    let is_raw = text.contains('r');
                    if is_raw {
                        let mut hashes = 0usize;
                        let mut j = i;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            let (content, next) = scan_raw_string(&chars, j + 1, hashes, &mut line);
                            let kind = if is_byte {
                                TokenKind::ByteStr(content)
                            } else {
                                TokenKind::RawStr(content)
                            };
                            tokens.push(Token { kind, line: start_line });
                            i = next;
                            continue;
                        }
                    } else if chars.get(i) == Some(&'"') {
                        let (content, next) = scan_string(&chars, i + 1, &mut line);
                        tokens.push(Token { kind: TokenKind::ByteStr(content), line: start_line });
                        i = next;
                        continue;
                    } else if text == "b" && chars.get(i) == Some(&'\'') {
                        if let QuoteKind::Char(next) = scan_quote(&chars, i) {
                            tokens.push(Token { kind: TokenKind::Char, line: start_line });
                            i = next;
                            continue;
                        }
                    }
                }
                // `r#ident` raw identifiers.
                if text == "r"
                    && chars.get(i) == Some(&'#')
                    && chars.get(i + 1).copied().is_some_and(is_ident_start)
                {
                    let mut name = String::new();
                    i += 1;
                    while i < chars.len() && is_ident_char(chars[i]) {
                        name.push(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token { kind: TokenKind::Ident(name), line: start_line });
                    continue;
                }
                tokens.push(Token { kind: TokenKind::Ident(text), line: start_line });
            }
            other => {
                tokens.push(Token { kind: TokenKind::Punct(other), line });
                i += 1;
            }
        }
    }
    tokens
}

/// Scans an ordinary string body starting *after* the opening quote;
/// returns (content, index after closing quote).
fn scan_string(chars: &[char], mut i: usize, line: &mut u32) -> (String, usize) {
    let mut content = String::new();
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                content.push('\\');
                if let Some(&next) = chars.get(i + 1) {
                    content.push(next);
                    if next == '\n' {
                        *line += 1;
                    }
                }
                i += 2;
            }
            '"' => return (content, i + 1),
            c => {
                if c == '\n' {
                    *line += 1;
                }
                content.push(c);
                i += 1;
            }
        }
    }
    (content, i)
}

/// Scans a raw string body starting *after* the opening quote; the
/// terminator is `"` followed by `hashes` `#`s.
fn scan_raw_string(chars: &[char], mut i: usize, hashes: usize, line: &mut u32) -> (String, usize) {
    let mut content = String::new();
    while i < chars.len() {
        if chars[i] == '"'
            && chars[i + 1..].iter().take(hashes).filter(|c| **c == '#').count() == hashes
        {
            return (content, i + 1 + hashes);
        }
        if chars[i] == '\n' {
            *line += 1;
        }
        content.push(chars[i]);
        i += 1;
    }
    (content, i)
}

enum QuoteKind {
    /// Char literal; holds the index after the closing quote.
    Char(usize),
    Lifetime,
}

/// Disambiguates `'` at index `i`: char literal vs lifetime.
fn scan_quote(chars: &[char], i: usize) -> QuoteKind {
    // Byte-char prefix: caller may pass i at the quote of `b'…'`.
    match chars.get(i + 1) {
        Some('\\') => {
            // Escape: scan to the closing quote (handles \u{…}).
            let mut j = i + 2;
            let mut budget = 12;
            while j < chars.len() && budget > 0 {
                if chars[j] == '\'' {
                    return QuoteKind::Char(j + 1);
                }
                j += 1;
                budget -= 1;
            }
            QuoteKind::Lifetime
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => QuoteKind::Char(i + 3),
        _ => QuoteKind::Lifetime,
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().filter_map(Token::ident).collect()
    }

    #[test]
    fn lexes_idents_strings_and_numbers() {
        let toks = lex("fn f(x: u32) -> u32 { x + 0xff_u32 } // tail");
        assert_eq!(idents(&toks), ["fn", "f", "x", "u32", "u32", "x"]);
        assert!(toks.iter().any(|t| matches!(&t.kind, TokenKind::Num(n) if n == "0xff_u32")));
    }

    #[test]
    fn raw_strings_hide_contents() {
        let toks = lex("let s = r#\"x.unwrap() \"inner\" // not a comment\"#; s.len()");
        assert!(idents(&toks).contains(&"len"));
        assert!(!idents(&toks).contains(&"unwrap"));
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::RawStr(s) if s.contains("inner"))));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let toks = lex("/* outer /* inner */ still comment */ real()");
        assert_eq!(idents(&toks), ["real"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let u = '\\u{41}'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| matches!(&t.kind, TokenKind::Lifetime(_))).collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = toks.iter().filter(|t| matches!(t.kind, TokenKind::Char)).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let toks = lex("a\n\"two\nline\"\nb /* c\nd */ e");
        let a = toks.iter().find(|t| t.is_ident("a")).map(|t| t.line);
        let b = toks.iter().find(|t| t.is_ident("b")).map(|t| t.line);
        let e = toks.iter().find(|t| t.is_ident("e")).map(|t| t.line);
        assert_eq!((a, b, e), (Some(1), Some(4), Some(5)));
    }

    #[test]
    fn identifier_tail_r_is_not_a_raw_string_prefix() {
        // `var` ends in `r` but is an identifier; what follows is an
        // ordinary literal, and lexing resumes after it.
        let toks = lex("var\"x.unwrap()\" ; b = 1");
        assert_eq!(idents(&toks), ["var", "b"]);
        assert!(toks.iter().any(|t| matches!(&t.kind, TokenKind::Str(s) if s == "x.unwrap()")));
    }

    #[test]
    fn raw_identifiers_unescape() {
        let toks = lex("let r#type = 3;");
        assert!(idents(&toks).contains(&"type"));
    }
}
