//! The one fixture corpus: a deliberately broken mini-workspace per
//! rule family (real `crates/<name>/src/…` paths, so scope is tested
//! by path), plus its fixed form where there is one.
//!
//! Every line annotated `// LINT: <rule>[, <rule>]` must produce
//! exactly those findings at that `file:line` — zero-hop or at the far
//! end of a call path — and no unannotated line may produce any, so a
//! fixed form (no annotations) must come back completely clean.  The
//! per-analysis tests below additionally pin keys and call traces.

#![allow(clippy::expect_used, clippy::panic)]

use qbism_analyze::report::Report;
use qbism_analyze::{analyze_root, AnalysisConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str, form: &str) -> Report {
    analyze_root(&corpus().join(name).join(form), &AnalysisConfig::workspace())
        .unwrap_or_else(|e| panic!("scanning fixture {name}/{form}: {e}"))
}

/// `(file, line, rule)` for every `// LINT:` annotation under `dir`.
fn annotations(root: &Path, dir: &Path, out: &mut BTreeSet<(String, u32, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            annotations(root, &path, out);
            continue;
        }
        let rel = path.strip_prefix(root).expect("under root").to_string_lossy().replace('\\', "/");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        for (idx, line) in text.lines().enumerate() {
            for rule in line.split("// LINT:").nth(1).into_iter().flat_map(|t| t.split(',')) {
                out.insert((rel.clone(), idx as u32 + 1, rule.trim().to_string()));
            }
        }
    }
}

#[test]
fn every_annotated_line_is_flagged_and_nothing_else() {
    let mut annotated = 0;
    for name in std::fs::read_dir(corpus()).expect("corpus").map(|e| e.expect("entry").path()) {
        for form in ["broken", "fixed"].map(|f| name.join(f)).into_iter().filter(|f| f.is_dir()) {
            let mut want = BTreeSet::new();
            annotations(&form, &form, &mut want);
            assert_eq!(want.is_empty(), form.ends_with("fixed"), "{}", form.display());
            annotated += want.len();
            let report = analyze_root(&form, &AnalysisConfig::workspace()).expect("scan");
            let got: BTreeSet<(String, u32, String)> =
                report.findings.iter().map(|f| (f.file.clone(), f.line, f.rule.clone())).collect();
            let missed: Vec<_> = want.difference(&got).collect();
            let spurious: Vec<_> = got.difference(&want).collect();
            assert!(
                missed.is_empty() && spurious.is_empty(),
                "{}\n  missed (annotated but not flagged): {missed:#?}\n  \
                 spurious (flagged but not annotated): {spurious:#?}",
                form.display()
            );
        }
    }
    assert!(annotated >= 25, "the corpus lost annotations: {annotated}");
}

#[test]
fn taint_broken_is_caught_with_full_path() {
    let r = fixture("taint", "broken");
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "det-taint")
        .unwrap_or_else(|| panic!("no det-taint finding: {:#?}", r.findings));
    assert_eq!(
        f.key,
        "det-taint @ crates/server/src/lib.rs:sample_clock -> crates/server/src/lib.rs:record"
    );
    assert!(f.message.contains("Instant::now"), "{}", f.message);
    assert!(f.message.contains("sim_db_seconds"), "{}", f.message);
    // Full source → confluence → sink trace: sample_clock ← run_query → record.
    let funcs: Vec<&str> = f.path.iter().map(|s| s.func.as_str()).collect();
    assert_eq!(funcs, vec!["server::sample_clock", "server::run_query", "server::record"]);
}

#[test]
fn kernel_broken_is_caught_across_files() {
    let r = fixture("kernel", "broken");
    // One rule covers a laundered id vector, a laundered full decode, and
    // the `iter_voxels*` family by prefix.
    for (from, helper, banned) in [
        ("intersect", "normalize", "from_ids"),
        ("intersect", "drain", "decode_all"),
        ("count", "voxels", "iter_voxels3"),
    ] {
        let key = format!(
            "kernel-materialize @ crates/region/src/kernel.rs:{from} -> crates/region/src/support.rs:{helper}"
        );
        let f = r
            .findings
            .iter()
            .find(|f| f.key == key)
            .unwrap_or_else(|| panic!("no finding {key}: {:#?}", r.findings));
        assert_eq!(f.rule, "kernel-materialize");
        assert!(f.message.contains(banned), "{}", f.message);
        assert_eq!(f.path.len(), 2, "{:#?}", f.path);
    }
}

#[test]
fn raw_sync_broken_is_caught_across_crates() {
    let r = fixture("sync", "broken");
    let f = r
        .findings
        .iter()
        .find(|f| f.key == "raw-sync @ lfm -> crates/util/src/lib.rs")
        .unwrap_or_else(|| panic!("no transitive raw-sync finding: {:#?}", r.findings));
    assert!(f.message.contains("std::sync::Mutex"), "{}", f.message);
    let funcs: Vec<&str> = f.path.iter().map(|s| s.func.as_str()).collect();
    assert_eq!(funcs, vec!["lfm::acct::account", "util::tally"]);
    // The zero-hop half sits beside it, without a path.
    assert!(r.findings.iter().any(|f| f.rule == "raw-sync" && f.path.is_empty()));
}

#[test]
fn lock_inversion_is_caught_with_both_witnesses() {
    let r = fixture("locks", "broken");
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .unwrap_or_else(|| panic!("no lock-order finding: {:#?}", r.findings));
    assert_eq!(f.key, "lock-order @ pool.free <-> pool.used");
    assert_eq!(f.path.len(), 2, "{:#?}", f.path);
    assert!(f.path.iter().any(|s| s.func.contains("grab")), "{:#?}", f.path);
    assert!(f.path.iter().any(|s| s.func.contains("release")), "{:#?}", f.path);
}

/// The workspace gate: the real tree plus the checked-in allowlist
/// must come back clean, with every allowlist entry earning its keep.
/// This is the same contract CI's analyze-gate enforces via the
/// binary; failing here means either a new violation crept in or an
/// allowlist entry went stale.
#[test]
fn workspace_is_clean_under_the_checked_in_allowlist() {
    let root = workspace_root();
    let mut report = analyze_root(&root, &AnalysisConfig::workspace())
        .unwrap_or_else(|e| panic!("scanning workspace: {e}"));
    let text = std::fs::read_to_string(root.join("analyze-allowlist.txt"))
        .unwrap_or_else(|e| panic!("reading allowlist: {e}"));
    let entries =
        qbism_analyze::allowlist::parse(&text).unwrap_or_else(|e| panic!("allowlist: {e}"));
    // The ratchet: the list only shrinks.  Lower the bound with every
    // entry a fix retires; a new finding is fixed, not listed.
    assert!(
        entries.len() <= 7,
        "analyze-allowlist.txt grew to {} entries; fix the finding instead of allowlisting it",
        entries.len()
    );
    let unused = qbism_analyze::allowlist::apply(&mut report, &entries);
    assert!(
        report.findings.is_empty(),
        "unallowlisted findings in the workspace:\n{}",
        report.findings.iter().map(|f| f.key.as_str()).collect::<Vec<_>>().join("\n")
    );
    assert!(
        unused.is_empty(),
        "stale allowlist entries (matched nothing): {:?}",
        unused.iter().map(|e| e.pattern.as_str()).collect::<Vec<_>>()
    );
    // Zero-hop findings are fixed, never listed: their keys carry a line.
    assert!(report.allowlisted.iter().all(|(f, _)| !f.path.is_empty()));
}

/// Cross-check against the dynamic lockorder checker: every
/// `Mutex::named` field literal in production code must show up at
/// some static lock site the lock-order analysis can see (non-test
/// code outside the `check` crate itself).  A literal missing from
/// the static universe means the analysis is blind to a lock the
/// dynamic checker orders at runtime.
#[test]
fn every_named_mutex_is_visible_to_the_static_lock_analysis() {
    let root = workspace_root();
    let ws = qbism_analyze::graph::Workspace::scan(&root)
        .unwrap_or_else(|e| panic!("scanning workspace: {e}"));
    let cfg = AnalysisConfig::workspace();
    let marks = qbism_analyze::marks::mark_all(&ws, &cfg);

    // Named-field literals outside the check crate (its internal
    // mutexes model the primitive itself, not an ordering client).
    let named: std::collections::BTreeSet<String> = qbism_analyze::marks::named_mutexes(&ws)
        .into_values()
        .filter(|lit| !lit.starts_with("mutex"))
        .collect();
    assert!(!named.is_empty(), "no Mutex::named field literals found in the workspace");

    // The static universe, scoped exactly as the lock-order analysis
    // scopes it: non-test functions outside crate `check`.
    let mut universe = std::collections::BTreeSet::new();
    for (id, m) in marks.iter().enumerate() {
        let (file, _) = ws.location(id);
        if ws.funcs[id].item.in_test
            || qbism_analyze::graph::crate_of(&file) == qbism_analyze::rules::FACADE_IMPL_CRATE
        {
            continue;
        }
        universe.extend(m.locks.iter().map(|l| l.name.clone()));
    }
    assert!(!universe.is_empty(), "no static lock sites resolved in the workspace");

    let invisible: Vec<&String> = named.iter().filter(|n| !universe.contains(*n)).collect();
    assert!(
        invisible.is_empty(),
        "Mutex::named locks never seen at a static lock site: {invisible:?}\nstatic universe: {universe:?}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}
