//! The transitive half of the [`Reach::Through`](crate::rules::Reach)
//! rule.
//!
//! At zero hops `rules::zero_hop` flags `from_ids` / `decode_all` *in
//! the scope where they appear*; here the same marks are followed along
//! call paths that leave the scope, catching the laundering case where
//! kernel code calls a helper in an out-of-scope file that performs the
//! banned operation.

use super::Ctx;
use crate::reach::shortest_path_to;
use crate::report::{steps, Finding};
use crate::rules::{rule, Pattern};
use std::collections::BTreeSet;

pub fn run(ctx: &Ctx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rule = rule(Pattern::Materialize);
    let in_scope = |id: usize| rule.scope.contains(ctx.file(id));
    let n = ctx.ws.funcs.len();
    let targets: BTreeSet<usize> =
        (0..n).filter(|&i| !ctx.marks[i].materialize.is_empty() && !in_scope(i)).collect();
    for id in (0..n).filter(|&id| in_scope(id) && !ctx.ws.funcs[id].item.in_test) {
        // Each reachable target gets its own stable key.
        for &t in &targets {
            let Some(path) = shortest_path_to(ctx.adj, id, &[t].into_iter().collect()) else {
                continue;
            };
            let mark = &ctx.marks[t].materialize[0];
            findings.push(Finding {
                rule: rule.name.to_string(),
                key: format!("{} @ {} -> {}", rule.name, ctx.loc(id), ctx.loc(t)),
                message: format!(
                    "kernel code reaches `{}` outside kernel scope — {}",
                    mark.what, rule.advice
                ),
                file: ctx.file(t).rel.clone(),
                line: mark.line,
                path: steps(ctx.ws, &path),
            });
        }
    }
    findings
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
    fn direct_kernel_use_is_one_zero_hop_finding() {
        // `merge` → `helper` stays inside the scope: only the line is reported.
        let r = analyze_files(&[(
            "crates/region/src/kernel.rs",
            "pub fn merge(a: &Run) -> Run { helper(a) }\nfn helper(a: &Run) -> Run { from_ids(a) }",
        )]);
        let hits: Vec<_> = r.findings.iter().filter(|f| f.rule == "kernel-materialize").collect();
        assert_eq!(hits.len(), 1, "{:?}", r.findings);
        assert!(hits[0].path.is_empty() && hits[0].line == 2, "{:?}", hits[0]);
    }
}
