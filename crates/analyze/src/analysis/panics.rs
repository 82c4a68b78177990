//! Panic reachability from public entry points.
//!
//! Entry points are the public methods of the served types
//! ([`ENTRY_TYPES`]).  Any function
//! reachable from one that contains a panic site is reported with the
//! shortest entry → function call path.  Explicit panics
//! (`.unwrap()`, `.expect(`, `panic!` family) report under
//! `panic-reach`; slice indexing — pervasive and usually
//! bounds-correct by construction — reports separately under
//! `index-reach` so it can be allowlisted at file granularity without
//! masking new unwraps.

use super::Ctx;
use crate::reach::{multi_source, unwind_multi};
use crate::report::{steps, Finding};
use crate::rules::{rule, Pattern, ENTRY_TYPES};

pub fn run(ctx: &Ctx<'_>) -> Vec<Finding> {
    let n = ctx.ws.funcs.len();
    let entries: Vec<usize> = (0..n)
        .filter(|&i| {
            let f = &ctx.ws.funcs[i].item;
            f.is_pub
                && !f.in_test
                && f.impl_type.as_deref().is_some_and(|t| ENTRY_TYPES.contains(&t))
        })
        .collect();
    if entries.is_empty() {
        return Vec::new();
    }
    let (parent, dist) = multi_source(ctx.adj, &entries);

    let (panic_rule, index_rule) = (rule(Pattern::Panic), rule(Pattern::Index));
    let mut findings = Vec::new();
    for (id, d) in dist.iter().enumerate() {
        if d.is_none() || ctx.marks[id].panics.is_empty() {
            continue;
        }
        let path = unwind_multi(&parent, id);
        let (hard, index): (Vec<_>, Vec<_>) =
            ctx.marks[id].panics.iter().partition(|m| m.what != "slice index");
        if !hard.is_empty() {
            let sites: Vec<String> =
                hard.iter().take(3).map(|m| format!("`{}` at line {}", m.what, m.line)).collect();
            let more =
                if hard.len() > 3 { format!(" (+{} more)", hard.len() - 3) } else { String::new() };
            findings.push(Finding {
                rule: panic_rule.name.to_string(),
                key: format!("{} @ {}", panic_rule.name, ctx.loc(id)),
                message: format!(
                    "panic site reachable from entry point `{}` ({} hops): {}{more} — {}",
                    ctx.ws.funcs[path[0]].qualified,
                    path.len() - 1,
                    sites.join(", "),
                    panic_rule.advice
                ),
                file: ctx.file(id).rel.clone(),
                line: hard[0].line,
                path: steps(ctx.ws, &path),
            });
        }
        if !index.is_empty() {
            findings.push(Finding {
                rule: index_rule.name.to_string(),
                key: format!("{} @ {}", index_rule.name, ctx.loc(id)),
                message: format!(
                    "{} slice-index site(s) (first at line {}) reachable from entry point `{}` — {}",
                    index.len(),
                    index[0].line,
                    ctx.ws.funcs[path[0]].qualified,
                    index_rule.advice
                ),
                file: ctx.file(id).rel.clone(),
                line: index[0].line,
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
    fn unwrap_reachable_from_entry_point_is_flagged_with_path() {
        let r = analyze_files(&[(
            "crates/core/src/server.rs",
            "impl MedicalServer {\n\
               pub fn query(&self) -> Result<u32> { helper() }\n\
             }\n\
             fn helper() -> Result<u32> { Ok(inner()) }\n\
             fn inner() -> u32 { Some(1).unwrap() }\n",
        )]);
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "panic-reach" && f.key.contains("inner"))
            .expect("panic-reach finding");
        assert_eq!(f.path.len(), 3, "{:?}", f.path);
        assert!(f.path[0].func.contains("query"));
    }

    #[test]
    fn unreachable_unwrap_is_not_flagged() {
        let r = analyze_files(&[(
            "crates/core/src/server.rs",
            "impl MedicalServer { pub fn query(&self) -> Result<u32> { Ok(0) } }\n\
             fn orphan() -> u32 { Some(1).unwrap() }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "panic-reach"), "{:?}", r.findings);
    }

    #[test]
    fn indexing_reports_under_its_own_rule() {
        let r = analyze_files(&[(
            "crates/core/src/server.rs",
            "impl MedicalServer { pub fn query(&self, v: &[u32]) -> u32 { v[0] } }\n",
        )]);
        assert!(r.findings.iter().any(|f| f.rule == "index-reach"));
        assert!(r.findings.iter().all(|f| f.rule != "panic-reach"));
    }

    #[test]
    fn private_methods_are_not_entry_points() {
        let r = analyze_files(&[(
            "crates/core/src/server.rs",
            "impl MedicalServer { fn internal(&self) -> u32 { Some(1).unwrap() } }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "panic-reach"), "{:?}", r.findings);
    }
}
