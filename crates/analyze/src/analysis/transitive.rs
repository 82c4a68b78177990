//! Transitive lifting of the line-level workspace rules.
//!
//! The linter flags `from_ids` / `decode_all` / raw `std::sync` *in
//! the file where they appear*; these analyses lift the same rules to
//! reachability, catching the laundering case where kernel or facade
//! code calls a helper in an out-of-scope file that performs the
//! banned operation.  Direct (zero-hop) uses are the linter's job and
//! are not re-reported here.

use super::Ctx;
use crate::reach::shortest_path_to;
use crate::report::{steps, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Is this function in a kernel file of one of the scoped crates?
fn in_kernel_scope(ctx: &Ctx<'_>, id: usize) -> bool {
    let file = ctx.file_of(id);
    let name = file.rsplit('/').next().unwrap_or(file);
    name.contains("kernel") && ctx.cfg.kernel_crates.iter().any(|c| c == ctx.crate_of(id))
}

pub fn run(ctx: &Ctx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    kernel_materialize(ctx, &mut findings);
    raw_sync(ctx, &mut findings);
    findings
}

fn kernel_materialize(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let n = ctx.ws.funcs.len();
    // Targets: marked functions *outside* kernel scope (in-scope uses
    // are direct lint findings).
    let targets: BTreeSet<usize> = (0..n)
        .filter(|&i| !ctx.marks[i].materialize.is_empty() && !in_kernel_scope(ctx, i))
        .collect();
    if targets.is_empty() {
        return;
    }
    for id in 0..n {
        if !in_kernel_scope(ctx, id) || ctx.ws.funcs[id].item.in_test {
            continue;
        }
        // Each reachable target gets its own stable key.
        for &t in &targets {
            if t == id {
                continue;
            }
            let Some(path) = shortest_path_to(ctx.adj, id, &[t].into_iter().collect()) else {
                continue;
            };
            if path.len() < 2 {
                continue;
            }
            let mark = &ctx.marks[t].materialize[0];
            findings.push(Finding {
                rule: "kernel-materialize".to_string(),
                key: format!("kernel-materialize @ {} -> {}", ctx.loc(id), ctx.loc(t)),
                message: format!(
                    "kernel code must not reach a helper that materializes ids or fully \
                     decodes a payload; stream runs through the cursors: reaches `{}` \
                     (line {}) outside kernel scope",
                    mark.what, mark.line
                ),
                path: steps(ctx.ws, &path),
            });
        }
    }
}

fn raw_sync(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let n = ctx.ws.funcs.len();
    let facade = |c: &str| ctx.cfg.facade_crates.iter().any(|f| f == c);
    let targets: BTreeSet<usize> = (0..n)
        .filter(|&i| {
            let c = ctx.crate_of(i);
            !ctx.marks[i].raw_sync.is_empty() && !facade(c) && c != "check"
        })
        .collect();
    if targets.is_empty() {
        return;
    }
    // One finding per (facade crate, target file): the pairing is what
    // the allowlist reasons about, not each individual caller.
    let mut best: BTreeMap<(String, String), (Vec<usize>, usize)> = BTreeMap::new();
    for id in 0..n {
        if !facade(ctx.crate_of(id)) || ctx.ws.funcs[id].item.in_test {
            continue;
        }
        let Some(path) = shortest_path_to(ctx.adj, id, &targets) else { continue };
        if path.len() < 2 {
            continue;
        }
        let t = *path.last().unwrap_or(&id);
        let pair = (ctx.crate_of(id).to_string(), ctx.file_of(t).to_string());
        let entry = best.entry(pair).or_insert_with(|| (path.clone(), t));
        if path.len() < entry.0.len() {
            *entry = (path, t);
        }
    }
    for ((crate_name, file), (path, t)) in best {
        let mark = &ctx.marks[t].raw_sync[0];
        findings.push(Finding {
            rule: "raw-sync".to_string(),
            key: format!("raw-sync @ {crate_name} -> {file}"),
            message: format!(
                "facade crate `{crate_name}` reaches raw `{}` (line {}) in `{file}`, outside the model checker's view",
                mark.what, mark.line
            ),
            path: steps(ctx.ws, &path),
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::test_util::analyze_files;

    #[test]
    fn kernel_reaching_materializing_helper_is_flagged() {
        let r = analyze_files(&[
            (
                "crates/region/src/kernel.rs",
                "pub fn merge(a: &Run, b: &Run) -> Run { expand(a) }",
            ),
            (
                "crates/region/src/helper.rs",
                "pub fn expand(a: &Run) -> Run { from_ids(a) }\nfn from_ids(a: &Run) -> Run { a.clone() }",
            ),
        ]);
        assert!(
            r.findings.iter().any(|f| f.rule == "kernel-materialize" && f.key.contains("expand")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn direct_kernel_use_is_left_to_the_linter() {
        let r = analyze_files(&[(
            "crates/region/src/kernel.rs",
            "pub fn merge(a: &Run) -> Run { from_ids(a) }",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "kernel-materialize"), "{:?}", r.findings);
    }

    #[test]
    fn facade_crate_reaching_raw_sync_helper_is_flagged() {
        let r = analyze_files(&[
            ("crates/lfm/src/lib.rs", "pub fn account() { tally() }"),
            ("crates/util/src/lib.rs", "pub fn tally() { let m = std::sync::Mutex::new(0); }"),
        ]);
        assert!(
            r.findings.iter().any(|f| f.rule == "raw-sync" && f.key.contains("lfm")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn non_facade_crates_may_use_raw_sync() {
        let r = analyze_files(&[(
            "crates/util/src/lib.rs",
            "pub fn tally() { let m = std::sync::Mutex::new(0); }",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "raw-sync"), "{:?}", r.findings);
    }
}
