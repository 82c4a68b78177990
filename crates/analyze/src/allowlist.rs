//! The checked-in allowlist.
//!
//! Format, one entry per line:
//!
//! ```text
//! # comment
//! <key pattern> :: <justification>
//! ```
//!
//! Patterns are matched against finding keys; `*` matches any
//! substring, anchored at both ends (`det-taint @ crates/core/* -> *`).
//! The justification is mandatory — an entry without one is a parse
//! error, so every suppression carries its reasoning in review.

use crate::report::Report;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub pattern: String,
    pub justification: String,
    /// 1-based line in the allowlist file (for unused-entry warnings).
    pub line: usize,
}

/// Parses allowlist text; rejects entries without a justification.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((pattern, justification)) = trimmed.split_once("::") else {
            return Err(format!(
                "allowlist line {line}: missing ` :: <justification>` — every suppression must say why"
            ));
        };
        let pattern = pattern.trim();
        let justification = justification.trim();
        if pattern.is_empty() || justification.is_empty() {
            return Err(format!("allowlist line {line}: empty pattern or justification"));
        }
        entries.push(Entry {
            pattern: pattern.to_string(),
            justification: justification.to_string(),
            line,
        });
    }
    Ok(entries)
}

/// Anchored glob match where `*` matches any substring.
pub fn glob_match(pattern: &str, s: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == s;
    }
    let first = parts[0];
    let last = parts[parts.len() - 1];
    if !s.starts_with(first) {
        return false;
    }
    let mut pos = first.len();
    for mid in &parts[1..parts.len() - 1] {
        if mid.is_empty() {
            continue;
        }
        match s[pos..].find(mid) {
            Some(i) => pos += i + mid.len(),
            None => return false,
        }
    }
    if last.is_empty() {
        return true;
    }
    match s[pos..].rfind(last) {
        Some(i) => pos + i + last.len() == s.len(),
        None => false,
    }
}

/// Moves matching findings into `report.allowlisted`; returns the
/// entries that matched nothing (candidates for removal).
pub fn apply(report: &mut Report, entries: &[Entry]) -> Vec<Entry> {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    for finding in report.findings.drain(..) {
        match entries.iter().position(|e| glob_match(&e.pattern, &finding.key)) {
            Some(i) => {
                used[i] = true;
                report.allowlisted.push((finding, entries[i].justification.clone()));
            }
            None => kept.push(finding),
        }
    }
    report.findings = kept;
    entries.iter().zip(used).filter(|(_, u)| !u).map(|(e, _)| e.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_semantics() {
        assert!(glob_match("a", "a"));
        assert!(!glob_match("a", "ab"));
        assert!(glob_match("a*", "ab"));
        assert!(glob_match("*b", "ab"));
        assert!(glob_match("a*c", "abc"));
        assert!(!glob_match("a*c", "abd"));
        assert!(glob_match(
            "det-taint @ crates/core/* -> *",
            "det-taint @ crates/core/src/server.rs:run -> crates/lfm/src/acct.rs:tally"
        ));
        assert!(!glob_match(
            "det-taint @ crates/core/* -> *",
            "lock-order @ crates/core/src/server.rs:run"
        ));
        assert!(glob_match("*", "anything"));
    }

    #[test]
    fn entries_require_justification() {
        assert!(parse("det-taint @ x").is_err());
        assert!(parse("det-taint @ x ::   ").is_err());
        let ok = parse("# header\n\ndet-taint @ x :: invariant: checked above\n").expect("parse");
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].pattern, "det-taint @ x");
        assert_eq!(ok[0].justification, "invariant: checked above");
        assert_eq!(ok[0].line, 3);
    }

    #[test]
    fn apply_moves_matches_and_reports_unused() {
        use crate::report::{Finding, Report};
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "det-taint".to_string(),
            key: "det-taint @ crates/x/src/lib.rs:f".to_string(),
            message: String::new(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 1,
            path: Vec::new(),
        });
        let entries =
            parse("det-taint @ crates/x/* :: fine\nlock-order @ never <-> matches :: stale\n")
                .expect("parse");
        let unused = apply(&mut r, &entries);
        assert!(r.findings.is_empty());
        assert_eq!(r.allowlisted.len(), 1);
        assert_eq!(r.allowlisted[0].1, "fine");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line, 2);
    }
}
