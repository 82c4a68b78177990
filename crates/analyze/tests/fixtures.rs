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
    assert!(annotated >= 13, "the corpus lost annotations: {annotated}");
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
fn lock_inversion_is_caught_with_both_witnesses() {
    let r = fixture("locks", "broken");
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .unwrap_or_else(|| panic!("no lock-order finding: {:#?}", r.findings));
    assert_eq!(f.key, "lock-order @ Pool.free <-> Pool.used");
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

/// The lock-order analysis is not blind: every non-test `Mutex<…>`
/// struct field in the workspace is seen at some static lock site
/// (non-test code), under the `Type.field` name the analysis gives it.
/// A field missing from the static universe is a lock the analysis
/// cannot order.
#[test]
fn every_mutex_field_is_visible_to_the_static_lock_analysis() {
    let root = workspace_root();
    let ws = qbism_analyze::graph::Workspace::scan(&root)
        .unwrap_or_else(|e| panic!("scanning workspace: {e}"));
    let marks = qbism_analyze::marks::mark_all(&ws, &AnalysisConfig::workspace());

    // Struct fields whose outermost type is `Mutex` (the parser skips
    // `#[cfg(test)]` structs).
    let fields: BTreeSet<String> = ws
        .field_types
        .iter()
        .filter(|(_, ty)| ty.as_str() == "Mutex")
        .map(|((owner, field), _)| format!("{owner}.{field}"))
        .collect();
    assert!(fields.len() >= 7, "the Mutex field harvest went blind: {fields:?}");

    let universe: BTreeSet<&str> = marks
        .iter()
        .enumerate()
        .filter(|&(id, _)| !ws.funcs[id].item.in_test)
        .flat_map(|(_, m)| m.locks.iter().map(|l| l.name.as_str()))
        .collect();
    let invisible: Vec<&String> =
        fields.iter().filter(|f| !universe.contains(f.as_str())).collect();
    assert!(
        invisible.is_empty(),
        "Mutex fields never seen at a static lock site: {invisible:?}\nstatic universe: {universe:?}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The atomics fixture is clean for the right reason: it holds both a
/// nondeterminism source and a deterministic sink, and the atomic's
/// `store` call is not linked to the workspace `Ledger::store`.
#[test]
fn an_atomic_store_does_not_link_to_a_workspace_store() {
    let root = corpus().join("atomics").join("fixed");
    let ws = qbism_analyze::graph::Workspace::scan(&root)
        .unwrap_or_else(|e| panic!("scanning fixture: {e}"));
    let marks = qbism_analyze::marks::mark_all(&ws, &AnalysisConfig::workspace());
    let id = |name: &str| {
        ws.funcs
            .iter()
            .position(|f| f.qualified.ends_with(name))
            .unwrap_or_else(|| panic!("no {name} in the fixture"))
    };
    let (clock, store) = (id("sample_wall_clock"), id("Ledger::store"));
    assert!(!marks[clock].det_sources.is_empty(), "the clock read is a source");
    assert!(!marks[store].det_sinks.is_empty(), "the cost column is a sink");
    assert!(ws.calls[clock].iter().all(|edge| edge.callee != store), "{:?}", ws.calls[clock]);
    assert!(fixture("atomics", "fixed").findings.is_empty());
}
