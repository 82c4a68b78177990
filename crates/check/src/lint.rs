//! qbism-lint: source-level enforcement of workspace invariants the
//! compiler can't express.
//!
//! Rules (each scoped to the crates where the invariant holds):
//!
//! - **no-unwrap** — no `.unwrap()` / `.expect(` outside test code and
//!   the bench crate: library code returns errors or documents the
//!   invariant with an explicit `panic!`/`unreachable!` message, and
//!   lock poisoning is handled via `lock_or_recover`.
//! - **no-wall-clock** — deterministic crates (the simulation and
//!   storage planes) never read `Instant::now` / `SystemTime::now`;
//!   simulated time comes from the cost models.
//! - **no-sleep** — no `thread::sleep` outside test code, in any crate:
//!   simulated time comes from the cost models and native time is CPU
//!   actually spent, so nothing paces itself or waits by sleeping.
//! - **no-raw-sync** — crates ported to the `qbism_check::sync` facade
//!   don't reach around it for `std::sync` mutexes, condvars or
//!   atomics (`Arc` and friends are fine); a raw primitive would be
//!   invisible to the model checker.
//! - **facade-sync-in-cluster** — the sharded warehouse's router and
//!   shard state (`crates/cluster`) never reach for raw `std::sync`:
//!   failover races (racing kills, claim/merge, lane handoff) must run
//!   on the `qbism_check::sync` facade so the model checker can drive
//!   them.  Same detection as `no-raw-sync`, reported under its own
//!   rule name because the stake is different — an invisible primitive
//!   here voids the crate's headline exactness-under-fault argument.
//! - **no-cache-iostats** — the page-cache layer must stay below the
//!   accounting layer: cache code never touches logical `IoStats`
//!   (PR 3 separated logical from physical I/O counts; this keeps the
//!   layers from re-tangling).
//! - **no-materialize-in-kernel** — kernel modules (the run-native hot
//!   paths of the region/sfc/volume/coding crates, any file named
//!   `kernel*`) stream runs through cursors and never materialize what
//!   a merge did not ask for: no voxel-id vectors (`from_ids(`,
//!   `iter_voxels`) and no full decompression of a compressed payload
//!   (`decode_all(`, `to_runs_vec(`) — id lists and drained cursors are
//!   for tests and API edges (the compressed tablespace's I/O win
//!   depends on kernels touching only the runs a merge actually needs).
//! - **fault-site-name** — fault-injection site patterns are dotted
//!   lowercase (`plane.op`, e.g. `lfm.meta.write`), with `*` wildcards,
//!   so rules written against one crate keep matching as sites grow.
//! - **traced-entrypoints** — every public query method (`pub fn` with
//!   `&self` returning `Result<…>`) on the monitored server/database
//!   types opens a root span (`trace::root(` or `query_span(`), so no
//!   query entrypoint can silently fall out of the flight recorder.
//!
//! The scanner is line-based on top of the shared workspace lexer
//! ([`crate::lexer::LineScanner`]), which strips `//` and *nested*
//! `/* */` comments and both ordinary and raw (`r#"…"#`) string
//! literals (so tokens inside strings or docs never count); this
//! module then tracks `#[cfg(test)]` blocks by brace depth and
//! associates fault-API calls with their site-name literal.  The
//! whole-program analyzer (`qbism-analyze`) builds its call graph on
//! the same lexer, so the two layers cannot disagree about what is
//! code.

use crate::lexer::LineScanner;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the linted root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Which crates each rule applies to, plus scanner behaviour.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Skip `#[cfg(test)]` blocks (true for the workspace gate; the
    /// fixture corpus also runs with true so fixtures can prove the
    /// exemption works).
    pub skip_test_blocks: bool,
    /// Apply every rule to every file regardless of crate (fixture
    /// mode).
    pub all_crates_in_scope: bool,
    /// Crates exempt from `no-unwrap` (benches are harness code).
    pub unwrap_exempt: Vec<String>,
    /// Crates that must never read the wall clock.
    pub deterministic_crates: Vec<String>,
    /// Crates ported to the sync facade.
    pub facade_crates: Vec<String>,
    /// Type names whose inherent impls must trace their public query
    /// methods (`traced-entrypoints`).
    pub traced_impls: Vec<String>,
    /// Crates where `traced-entrypoints` applies.
    pub traced_crates: Vec<String>,
}

impl LintConfig {
    /// The workspace gate configuration — the single source of truth
    /// for which crate holds which invariant.
    pub fn workspace() -> LintConfig {
        let s = |v: &[&str]| v.iter().map(|c| c.to_string()).collect();
        LintConfig {
            skip_test_blocks: true,
            all_crates_in_scope: false,
            unwrap_exempt: s(&["bench"]),
            deterministic_crates: s(&[
                "lfm",
                "netsim",
                "fault",
                "parallel",
                "region",
                "coding",
                "volume",
                "phantom",
                "geometry",
                "index",
                "warp",
                "sfc",
                "starburst",
                "render",
                "check",
            ]),
            facade_crates: s(&["parallel", "lfm", "netsim", "fault", "core"]),
            traced_impls: s(&["MedicalServer", "Database", "ClusterWarehouse"]),
            traced_crates: s(&["core", "starburst", "cluster"]),
        }
    }

    /// Fixture-corpus configuration: every rule in scope for every
    /// file, test blocks still exempt.
    pub fn fixtures() -> LintConfig {
        LintConfig { all_crates_in_scope: true, ..LintConfig::workspace() }
    }
}

/// `std::sync` items a facade crate may still use: ownership and
/// one-shot types carry no scheduling behaviour the model must see.
const RAW_SYNC_ALLOWED: &[&str] =
    &["Arc", "Weak", "OnceLock", "Once", "PoisonError", "LockResult", "TryLockError", "mpsc"];

const FAULT_APIS: &[&str] = &["rule", "fail_nth", "torn_nth", "crash_nth"];

/// Lints one source text.  `rel` is the path reported in findings;
/// `crate_name` decides rule scope (fixture mode ignores it).
pub fn lint_source(source: &str, rel: &str, crate_name: &str, cfg: &LintConfig) -> Vec<Finding> {
    let in_scope =
        |list: &[String]| cfg.all_crates_in_scope || list.iter().any(|c| c == crate_name);
    let check_unwrap =
        cfg.all_crates_in_scope || !cfg.unwrap_exempt.iter().any(|c| c == crate_name);
    let check_clock = in_scope(&cfg.deterministic_crates);
    let file_name = rel.rsplit('/').next().unwrap_or(rel);
    // The cluster crate gets its own rule name for the same detection:
    // in fixture mode (flat corpus, no crates/ prefix) scope by file
    // name, as the cache/kernel rules do.
    let cluster_scope =
        crate_name == "cluster" || (cfg.all_crates_in_scope && file_name.starts_with("cluster"));
    let check_sync = cluster_scope || in_scope(&cfg.facade_crates);
    let check_cache =
        file_name.contains("cache") && (cfg.all_crates_in_scope || crate_name == "lfm");
    let check_kernel = file_name.contains("kernel")
        && (cfg.all_crates_in_scope
            || matches!(crate_name, "region" | "sfc" | "volume" | "coding"));

    let check_traced = in_scope(&cfg.traced_crates);

    let mut findings = Vec::new();
    let mut scanner = LineScanner::default();
    let mut test_state = TestBlockState::default();
    let mut traced_state = TracedEntrypoints::default();

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let parsed = scanner.strip(raw_line);
        let skip = cfg.skip_test_blocks && test_state.update(raw_line, &parsed.code);
        if check_traced {
            // Fed every line (even skipped ones) so brace depths stay
            // true across `#[cfg(test)]` blocks; `skip` only suppresses
            // monitoring and findings.
            traced_state.update(&parsed.code, line_no, skip, &cfg.traced_impls, rel, &mut findings);
        }
        if skip {
            continue;
        }

        let code = parsed.code.as_str();
        let mut push = |rule: &'static str, message: String| {
            findings.push(Finding { file: rel.to_string(), line: line_no, rule, message });
        };

        if check_unwrap {
            if code.contains(".unwrap()") {
                push("no-unwrap", "`.unwrap()` outside test code; return the error or use a poison-recovering lock helper".to_string());
            }
            if code.contains(".expect(") {
                push("no-unwrap", "`.expect(...)` outside test code; return the error or document the invariant with an explicit panic".to_string());
            }
        }
        if check_clock && (code.contains("Instant::now") || code.contains("SystemTime::now")) {
            push(
                "no-wall-clock",
                "wall-clock read in a deterministic crate; use the simulated cost model"
                    .to_string(),
            );
        }
        if code.contains("thread::sleep") {
            push(
                "no-sleep",
                "`thread::sleep` outside test code; charge simulated time to the cost model or measure real work".to_string(),
            );
        }
        if check_sync {
            for banned in banned_sync_uses(code) {
                if cluster_scope {
                    push(
                        "facade-sync-in-cluster",
                        format!("raw `std::sync::{banned}` in the sharded warehouse; use `qbism_check::sync::{banned}` so failover races stay model-checkable"),
                    );
                } else {
                    push(
                        "no-raw-sync",
                        format!("raw `std::sync::{banned}` in a facade-ported crate; use `qbism_check::sync::{banned}` so the model checker sees it"),
                    );
                }
            }
        }
        if check_cache && code.contains("IoStats") {
            push(
                "no-cache-iostats",
                "cache code must not touch logical IoStats; physical counts live in CacheStats"
                    .to_string(),
            );
        }
        if check_kernel {
            for banned in ["from_ids(", "iter_voxels", "decode_all(", "to_runs_vec("] {
                if code.contains(banned) {
                    let name = banned.trim_end_matches('(');
                    push(
                        "no-materialize-in-kernel",
                        format!("kernel code must not materialize via `{name}`; stream runs through the cursors — id vectors and drained payloads belong to API edges and tests"),
                    );
                }
            }
        }
        for (api, site) in fault_site_literals(code, &parsed.literals) {
            if !valid_fault_site(&site) {
                push(
                    "fault-site-name",
                    format!("fault site \"{site}\" passed to `{api}` is not dotted lowercase (e.g. \"lfm.meta.write\", wildcards allowed)"),
                );
            }
        }
    }
    findings
}

/// Lints every `.rs` file under `crates/*/src` and `src/` of a
/// workspace root (the gate), or every `.rs` file under a plain
/// directory (fixture corpora).
pub fn lint_path(root: &Path, cfg: &LintConfig) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, &mut files)?;
        }
    } else {
        collect_rs(root, &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
        let crate_name = crate_of(&rel);
        findings.extend(lint_source(&source, &rel, crate_name, cfg));
    }
    Ok(findings)
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

/// `crates/<name>/src/...` → `<name>`; anything else → `suite`.
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "suite",
    }
}

/// Tracks `#[cfg(test)]`-gated blocks by brace depth.  Returns `true`
/// while inside one (including the attribute line itself).
#[derive(Default)]
struct TestBlockState {
    pending: bool,
    depth: i64,
    active: bool,
}

impl TestBlockState {
    fn update(&mut self, raw_line: &str, code: &str) -> bool {
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if self.active {
            self.depth += opens - closes;
            if self.depth <= 0 {
                self.active = false;
            }
            return true;
        }
        if raw_line.trim_start().starts_with("#[cfg(test)]") {
            self.pending = true;
            // An attribute on a braceless item (e.g. a gated `use`)
            // ends at the semicolon.
            if opens == 0 && code.contains(';') {
                self.pending = false;
            }
            return true;
        }
        if self.pending {
            if opens > 0 {
                self.pending = false;
                self.active = true;
                self.depth = opens - closes;
                if self.depth <= 0 {
                    self.active = false;
                }
            } else if code.contains(';') {
                self.pending = false;
            }
            return true;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// traced-entrypoints
// ---------------------------------------------------------------------------

/// A public query method whose body is being watched for a root span.
struct WatchedBody {
    fn_name: String,
    sig_line: usize,
    /// Brace depth the body's closing `}` returns to.
    close_depth: i64,
    traced: bool,
}

/// Tracks inherent `impl` blocks of the monitored types and requires
/// every `pub fn (&self, …) -> Result<…>` inside them to open a root
/// span before its body closes.
#[derive(Default)]
struct TracedEntrypoints {
    depth: i64,
    /// Brace depth of the monitored impl's body, while inside one.
    impl_body_depth: Option<i64>,
    /// Saw a monitored `impl` header whose `{` hasn't appeared yet.
    pending_impl: bool,
    /// Accumulated method signature awaiting its body `{`.
    sig: Option<(String, usize)>,
    body: Option<WatchedBody>,
}

fn opens_root_span(code: &str) -> bool {
    code.contains("trace::root(") || code.contains("query_span(")
}

impl TracedEntrypoints {
    fn update(
        &mut self,
        code: &str,
        line_no: usize,
        suppress: bool,
        impls: &[String],
        rel: &str,
        findings: &mut Vec<Finding>,
    ) {
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        let before = self.depth;
        let after = before + opens - closes;
        self.depth = after;

        if let Some(body) = &mut self.body {
            if opens_root_span(code) {
                body.traced = true;
            }
            if after <= body.close_depth {
                if !body.traced && !suppress {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: body.sig_line,
                        rule: "traced-entrypoints",
                        message: format!(
                            "public query method `{}` does not open a root span; call `trace::root(..)` (or the server's `query_span`) so the flight recorder sees it",
                            body.fn_name
                        ),
                    });
                }
                self.body = None;
            }
            return;
        }

        if let Some(impl_depth) = self.impl_body_depth {
            if let Some((mut sig, sig_line)) = self.sig.take() {
                sig.push(' ');
                sig.push_str(code);
                if code.contains('{') {
                    self.watch_if_query(&sig, sig_line, impl_depth, after, suppress, rel, findings);
                } else if code.contains(';') {
                    // Signature without a body here (shouldn't occur in
                    // an inherent impl) — drop it.
                } else {
                    self.sig = Some((sig, sig_line));
                }
                return;
            }
            if after < impl_depth {
                self.impl_body_depth = None;
                return;
            }
            if before == impl_depth && code.contains("pub fn ") && !suppress {
                if code.contains('{') {
                    self.watch_if_query(code, line_no, impl_depth, after, suppress, rel, findings);
                } else if !code.contains(';') {
                    self.sig = Some((code.to_string(), line_no));
                }
            }
            return;
        }

        if self.pending_impl {
            if opens > 0 {
                self.pending_impl = false;
                self.impl_body_depth = Some(before + 1);
            } else if code.contains(';') {
                self.pending_impl = false;
            }
            return;
        }
        if monitored_impl_header(code, impls) {
            if opens > 0 {
                self.impl_body_depth = Some(before + 1);
            } else {
                self.pending_impl = true;
            }
        }
    }

    /// A complete signature (body `{` seen on `sig`'s last line):
    /// start watching the body if it is a public query method.
    #[allow(clippy::too_many_arguments)]
    fn watch_if_query(
        &mut self,
        sig: &str,
        sig_line: usize,
        impl_depth: i64,
        depth_after: i64,
        suppress: bool,
        rel: &str,
        findings: &mut Vec<Finding>,
    ) {
        // `&self` is not a substring of `&mut self`, so mutating
        // (load/maintenance) methods are exempt by construction.
        if !(sig.contains("&self") && sig.contains("Result<")) {
            return;
        }
        let fn_name: String = sig
            .split("pub fn ")
            .nth(1)
            .unwrap_or("")
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let traced = opens_root_span(sig);
        if depth_after <= impl_depth {
            // Single-line method: the body already closed.
            if !traced && !suppress {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: sig_line,
                    rule: "traced-entrypoints",
                    message: format!(
                        "public query method `{fn_name}` does not open a root span; call `trace::root(..)` (or the server's `query_span`) so the flight recorder sees it"
                    ),
                });
            }
            return;
        }
        self.body = Some(WatchedBody { fn_name, sig_line, close_depth: impl_depth, traced });
    }
}

/// An inherent-impl header for one of the monitored types (trait impls
/// — `impl X for Y` — are exempt: they satisfy external contracts).
fn monitored_impl_header(code: &str, impls: &[String]) -> bool {
    let trimmed = code.trim_start();
    if !(trimmed.starts_with("impl ") || trimmed.starts_with("impl<")) {
        return false;
    }
    if code.contains(" for ") {
        return false;
    }
    impls.iter().any(|name| {
        code.match_indices(name.as_str()).any(|(pos, _)| {
            let before_ok =
                code[..pos].chars().next_back().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            let after_ok = code[pos + name.len()..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
            before_ok && after_ok
        })
    })
}

// ---------------------------------------------------------------------------
// Rule helpers
// ---------------------------------------------------------------------------

/// Banned identifiers reached through `std::sync::` on this line,
/// including grouped imports (`use std::sync::{Arc, Mutex}`).
fn banned_sync_uses(code: &str) -> Vec<String> {
    let mut banned = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find("std::sync::") {
        let after = &rest[pos + "std::sync::".len()..];
        if let Some(group) = after.strip_prefix('{') {
            let body = group.split('}').next().unwrap_or(group);
            for item in body.split(',') {
                let name = item.trim().split("::").next().unwrap_or("").trim();
                check_sync_item(name, &mut banned);
            }
        } else {
            let name: String =
                after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            check_sync_item(&name, &mut banned);
        }
        rest = after;
    }
    banned
}

fn check_sync_item(name: &str, banned: &mut Vec<String>) {
    if is_banned_sync(name) && !banned.iter().any(|b| b == name) {
        banned.push(name.to_string());
    }
}

/// Is `name` a `std::sync` item the facade rule bans?  Shared with the
/// whole-program analyzer so the two layers agree on the banned set.
pub fn is_banned_sync(name: &str) -> bool {
    !name.is_empty() && name != "self" && !RAW_SYNC_ALLOWED.contains(&name)
}

/// `(api, literal)` for every fault-registry call whose first argument
/// is a string literal on this line.
fn fault_site_literals(code: &str, literals: &[String]) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for api in FAULT_APIS {
        let needle = format!("{api}(\"");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&needle) {
            let abs = from + pos;
            // Reject identifier tails like `push_rule(`.
            let preceded = abs > 0
                && code[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !preceded {
                // The N-th `"` pair before this call indexes `literals`.
                let quote_pairs = code[..abs].matches('"').count() / 2;
                if let Some(lit) = literals.get(quote_pairs) {
                    out.push((*api, lit.clone()));
                }
            }
            from = abs + needle.len();
        }
    }
    out
}

/// `*`, or ≥2 dotted components of `[a-z][a-z0-9_]*` (components may
/// be `*` wildcards).
fn valid_fault_site(site: &str) -> bool {
    if site == "*" {
        return true;
    }
    let parts: Vec<&str> = site.split('.').collect();
    if parts.len() < 2 {
        return false;
    }
    parts.iter().all(|p| {
        *p == "*"
            || (p.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && p.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(src, "crates/lfm/src/x.rs", "lfm", &LintConfig::workspace())
    }

    #[test]
    fn flags_unwrap_and_expect() {
        let f = lint("fn f() { x.unwrap(); y.expect(\"msg\"); }");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "no-unwrap"));
    }

    #[test]
    fn unwrap_or_else_is_fine() {
        assert!(lint("fn f() { x.unwrap_or_else(|| 3); x.unwrap_or(0); }").is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = "fn f() { // x.unwrap()\n  let s = \".unwrap()\"; /* y.expect(\"z\") */ }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn prod() { y.unwrap(); }";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn wall_clock_scoped_to_deterministic_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(lint(src).len(), 1);
        let core = lint_source(src, "crates/core/src/x.rs", "core", &LintConfig::workspace());
        assert!(core.is_empty(), "core is allowed to time queries");
    }

    #[test]
    fn raw_sync_catches_grouped_imports_but_allows_arc() {
        let f = lint("use std::sync::{Arc, Mutex};");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Mutex"));
        assert!(lint("use std::sync::Arc;").is_empty());
        assert!(lint("use std::sync::atomic::AtomicU64;").len() == 1);
    }

    #[test]
    fn fault_sites_must_be_dotted_lowercase() {
        let f = lint("let s = plane.fail_nth(\"BadSite\", 1);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "fault-site-name");
        assert!(lint("let s = plane.fail_nth(\"lfm.meta.write\", 1);").is_empty());
        assert!(lint("let s = plane.rule(\"*\", t, o);").is_empty());
        assert!(lint("push_rule(\"Whatever\", 1);").is_empty(), "identifier tails skipped");
    }

    #[test]
    fn kernel_files_must_not_materialize() {
        let src = "fn f(g: G, ids: Vec<u64>, c: Cursor) { let r = Region::from_ids(g, ids); \
                   r.iter_voxels3(); let v = c.to_runs_vec(); let w = d.decode_all(); }";
        let f = lint_source(src, "crates/region/src/kernel.rs", "region", &LintConfig::workspace());
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "no-materialize-in-kernel"));
        // The coding crate's kernel files are in scope too.
        let coding =
            lint_source(src, "crates/coding/src/kernel.rs", "coding", &LintConfig::workspace());
        assert_eq!(coding.len(), 4);
        // Same tokens outside a kernel module (API edges, decode paths) are fine.
        let api =
            lint_source(src, "crates/region/src/region.rs", "region", &LintConfig::workspace());
        assert!(api.is_empty(), "API-edge materialization is allowed: {api:?}");
        // And kernel files in out-of-scope crates are fine too.
        let core = lint_source(src, "crates/core/src/kernel.rs", "core", &LintConfig::workspace());
        assert!(core.is_empty());
    }

    #[test]
    fn traced_entrypoints_flags_untraced_query_methods() {
        let src = "impl MedicalServer {\n    pub fn quick(&self, id: i64) -> Result<Answer> {\n        self.fetch(id)\n    }\n}";
        let f = lint_source(src, "crates/core/src/server.rs", "core", &LintConfig::workspace());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "traced-entrypoints");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`quick`"));
    }

    #[test]
    fn traced_entrypoints_accepts_rooted_methods_and_exemptions() {
        let src = concat!(
            "impl Database {\n",
            // Traced via trace::root — fine.
            "    pub fn query(&self, sql: &str) -> Result<Rows> {\n",
            "        let span = qbism_obs::trace::root(\"db.execute\");\n",
            "        self.run(sql)\n",
            "    }\n",
            // Traced via query_span, multi-line signature — fine.
            "    pub fn multi(\n",
            "        &self,\n",
            "        id: i64,\n",
            "    ) -> Result<Rows> {\n",
            "        let span = Self::query_span(\"multi\");\n",
            "        self.fetch(id)\n",
            "    }\n",
            // `&mut self` (DML/maintenance) — exempt.
            "    pub fn execute(&mut self, sql: &str) -> Result<Outcome> {\n",
            "        self.mutate(sql)\n",
            "    }\n",
            // Non-Result accessor — exempt.
            "    pub fn len(&self) -> usize {\n",
            "        self.rows.len()\n",
            "    }\n",
            // Private helper — exempt.\n
            "    fn run_read(&self, s: Statement) -> Result<Rows> {\n",
            "        self.go(s)\n",
            "    }\n",
            "}\n",
            // Trait impls satisfy external contracts — exempt.
            "impl Render for Database {\n",
            "    pub fn draw(&self) -> Result<()> {\n",
            "        Ok(())\n",
            "    }\n",
            "}\n",
            // Other types — out of scope.
            "impl ResultSet {\n",
            "    pub fn single_value(&self) -> Result<&Value> {\n",
            "        self.pick()\n",
            "    }\n",
            "}\n",
        );
        let f =
            lint_source(src, "crates/starburst/src/db.rs", "starburst", &LintConfig::workspace());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn traced_entrypoints_scoped_to_monitored_crates() {
        let src =
            "impl Database {\n    pub fn peek(&self) -> Result<u32> {\n        self.go()\n    }\n}";
        let f = lint_source(src, "crates/lfm/src/x.rs", "lfm", &LintConfig::workspace());
        assert!(f.is_empty(), "lfm is out of traced scope: {f:?}");
        let f =
            lint_source(src, "crates/starburst/src/db.rs", "starburst", &LintConfig::workspace());
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn cache_files_must_not_touch_iostats() {
        let f = lint_source(
            "fn f(s: &mut IoStats) {}",
            "crates/lfm/src/cache.rs",
            "lfm",
            &LintConfig::workspace(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-cache-iostats");
    }
}
