//! Seeded-bug fixture corpus: one deliberately broken mini-workspace
//! per analysis, plus its fixed form.  Broken forms must be caught
//! with the right rule, key, and call trace; fixed forms must come
//! back completely clean — both halves gate regressions in the
//! analyses themselves.

use qbism_analyze::report::Report;
use qbism_analyze::{analyze_root, AnalysisConfig};
use std::path::{Path, PathBuf};

fn fixture(name: &str, form: &str) -> Report {
    let root =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name).join(form);
    analyze_root(&root, &AnalysisConfig::workspace())
        .unwrap_or_else(|e| panic!("scanning fixture {name}/{form}: {e}"))
}

fn assert_clean(name: &str) {
    let r = fixture(name, "fixed");
    assert!(
        r.findings.is_empty(),
        "fixed fixture `{name}` should be clean, got: {:#?}",
        r.findings
    );
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
fn taint_fixed_is_clean() {
    assert_clean("taint");
}

#[test]
fn kernel_broken_is_caught_across_files() {
    let r = fixture("kernel", "broken");
    // One rule covers a laundered id vector and a laundered full decode.
    for (helper, banned) in [("normalize", "from_ids"), ("drain", "to_runs_vec")] {
        let key = format!(
            "kernel-materialize @ crates/region/src/kernel.rs:intersect -> crates/region/src/support.rs:{helper}"
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
fn kernel_fixed_is_clean() {
    assert_clean("kernel");
}

#[test]
fn panic_broken_is_caught_with_shortest_path() {
    let r = fixture("panics", "broken");
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "panic-reach")
        .unwrap_or_else(|| panic!("no panic-reach finding: {:#?}", r.findings));
    assert_eq!(f.key, "panic-reach @ crates/server/src/lib.rs:lookup");
    assert!(f.message.contains("fetch_study"), "{}", f.message);
    assert!(f.message.contains(".unwrap()"), "{}", f.message);
    // Entry → resolve → lookup.
    let funcs: Vec<&str> = f.path.iter().map(|s| s.func.as_str()).collect();
    assert_eq!(
        funcs,
        vec!["server::MedicalServer::fetch_study", "server::resolve", "server::lookup"]
    );
}

#[test]
fn panic_fixed_is_clean() {
    assert_clean("panics");
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

#[test]
fn lock_fixed_is_clean() {
    assert_clean("locks");
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
        entries.len() <= 32,
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
    let ws = qbism_analyze::graph::Workspace::scan(&root, &["bench".to_string()])
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
        if ws.funcs[id].item.in_test || qbism_analyze::graph::crate_of(&file) == "check" {
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
