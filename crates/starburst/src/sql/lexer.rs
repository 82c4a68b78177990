//! SQL lexer.

use crate::{DbError, Result};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (lowercased; keyword-ness decided in the
    /// parser so identifiers like `count` can still name columns where
    /// unambiguous).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes removed, `''` unescaped).
    Str(String),
    /// Punctuation / operator.
    Punct(&'static str),
}

/// A token plus its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Byte offset in the source.
    pub at: usize,
}

/// Tokenizes SQL text.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let bytes = src.as_bytes();
    // Every read goes through `byte`: past the end there is no byte.
    let byte = |i: usize| bytes.get(i).copied();
    let digit_at = |i: usize| byte(i).is_some_and(|b| b.is_ascii_digit());
    // The end of the run of bytes from `i` on that satisfy `f`.
    let run_end = |mut i: usize, f: fn(u8) -> bool| {
        while byte(i).is_some_and(f) {
            i += 1;
        }
        i
    };
    // Token text; the scanner only stops on ASCII bytes and quotes, so
    // every cut falls on a character boundary.
    let text = |from: usize, to: usize| {
        src.get(from..to).ok_or_else(|| bad(src, from, "token splits a character"))
    };
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(b) = byte(i) {
        let c = b as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // -- line comments
        if c == '-' && byte(i + 1) == Some(b'-') {
            i = run_end(i, |b| b != b'\n');
            continue;
        }
        let at = i;
        if c.is_ascii_alphabetic() || c == '_' {
            i = run_end(i, |b| b.is_ascii_alphanumeric() || b == b'_');
            out.push(SpannedTok { tok: Tok::Ident(text(at, i)?.to_ascii_lowercase()), at });
            continue;
        }
        if c.is_ascii_digit() {
            i = run_end(i, |b| b.is_ascii_digit());
            let mut is_float = false;
            if byte(i) == Some(b'.') && digit_at(i + 1) {
                is_float = true;
                i = run_end(i + 1, |b| b.is_ascii_digit());
            }
            if matches!(byte(i), Some(b'e' | b'E')) {
                let mut j = i + 1;
                if matches!(byte(j), Some(b'+' | b'-')) {
                    j += 1;
                }
                if digit_at(j) {
                    is_float = true;
                    i = run_end(j, |b| b.is_ascii_digit());
                }
            }
            let literal = text(at, i)?;
            let tok = if is_float {
                Tok::Float(literal.parse().map_err(|_| bad(src, at, "invalid float literal"))?)
            } else {
                Tok::Int(literal.parse().map_err(|_| bad(src, at, "integer literal out of range"))?)
            };
            out.push(SpannedTok { tok, at });
            continue;
        }
        if c == '\'' {
            // The literal's text is copied as `str` slices between
            // quotes, so multi-byte characters arrive intact; a doubled
            // quote is one quote of content.
            i += 1;
            let mut s = String::new();
            loop {
                let Some(len) = src.get(i..).and_then(|rest| rest.find('\'')) else {
                    return Err(bad(src, at, "unterminated string literal"));
                };
                s.push_str(text(i, i + len)?);
                i += len + 1;
                if byte(i) != Some(b'\'') {
                    break;
                }
                s.push('\'');
                i += 1;
            }
            out.push(SpannedTok { tok: Tok::Str(s), at });
            continue;
        }
        // multi-char operators first
        let two = src.get(i..i + 2);
        let punct: &'static str = match two {
            Some("<=") => "<=",
            Some(">=") => ">=",
            Some("<>") => "<>",
            Some("!=") => "<>",
            _ => match c {
                '(' => "(",
                ')' => ")",
                ',' => ",",
                '.' => ".",
                '=' => "=",
                '<' => "<",
                '>' => ">",
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '/' => "/",
                '%' => "%",
                ';' => ";",
                '?' => "?",
                _ => return Err(bad(src, at, "unexpected character")),
            },
        };
        i += punct.len();
        out.push(SpannedTok { tok: Tok::Punct(punct), at });
    }
    Ok(out)
}

fn bad(src: &str, at: usize, what: &str) -> DbError {
    let snippet: String = src.get(at..).unwrap_or_default().chars().take(12).collect();
    DbError::Parse(format!("{what} at byte {at} near {snippet:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_identifiers_lowercase() {
        assert_eq!(
            toks("SELECT Name FROM Patient"),
            vec![
                Tok::Ident("select".into()),
                Tok::Ident("name".into()),
                Tok::Ident("from".into()),
                Tok::Ident("patient".into()),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42)]);
        assert_eq!(toks("3.5"), vec![Tok::Float(3.5)]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0)]);
        assert_eq!(toks("2.5e-1"), vec![Tok::Float(0.25)]);
        // dot not followed by digit is punctuation (qualified names)
        assert_eq!(
            toks("a.b"),
            vec![Tok::Ident("a".into()), Tok::Punct("."), Tok::Ident("b".into())]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'hello'"), vec![Tok::Str("hello".into())]);
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
        assert_eq!(toks("'café ''☕'''"), vec![Tok::Str("café '☕'".into())]);
        assert_eq!(toks("''"), vec![Tok::Str(String::new())]);
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <= b <> c != d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<="),
                Tok::Ident("b".into()),
                Tok::Punct("<>"),
                Tok::Ident("c".into()),
                Tok::Punct("<>"),
                Tok::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("select -- the projection\n x"),
            vec![Tok::Ident("select".into()), Tok::Ident("x".into())]
        );
    }

    #[test]
    fn bad_character_reports_position() {
        let err = lex("select @").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("byte 7"), "{msg}");
    }
}
