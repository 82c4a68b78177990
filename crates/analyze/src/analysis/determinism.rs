//! Determinism taint: nondeterminism sources must not reach
//! deterministic sinks along any call path.
//!
//! Sources are wall-clock reads, hash-order iteration, thread
//! identity, and environment reads; sinks are writes to deterministic
//! `QueryCost`/`IoStats`/`NetStats` columns, table emitters, and span
//! minting (see `marks`).  With no data-flow, the call-graph
//! approximation is the *confluence* closure: a tainted value can
//! travel from source fn `s` to sink fn `t` when some function `c`
//! transitively calls both — the value returns up the `c → … → s`
//! chain and is passed down the `c → … → t` chain.  `c = s` is plain
//! argument flow, `c = t` is return flow, and `c = s = t` is inline
//! co-occurrence.
//!
//! Each confluence point contributes one `(nearest source, nearest
//! sink)` pair; pairs are deduplicated, and the stable key
//! `det-taint @ <source fn> -> <sink fn>` is what the allowlist
//! matches.

use super::Ctx;
use crate::reach::{multi_source, reverse, unwind_multi};
use crate::report::{Finding, Step};
use crate::rules::{rule, Pattern};
use std::collections::BTreeSet;

pub fn run(ctx: &Ctx<'_>) -> Vec<Finding> {
    let n = ctx.ws.funcs.len();
    let sources: Vec<usize> = (0..n).filter(|&i| !ctx.marks[i].det_sources.is_empty()).collect();
    let sinks: Vec<usize> = (0..n).filter(|&i| !ctx.marks[i].det_sinks.is_empty()).collect();
    if sources.is_empty() || sinks.is_empty() {
        return Vec::new();
    }
    let radj = reverse(ctx.adj);
    let (sparent, sdist) = multi_source(&radj, &sources);
    let (tparent, tdist) = multi_source(&radj, &sinks);

    let rule = rule(Pattern::Taint);
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut findings = Vec::new();
    for c in 0..n {
        if sdist[c].is_none() || tdist[c].is_none() {
            continue;
        }
        // `unwind_multi` walks the reversed-graph parents: the result
        // is `[s, …, c]`, i.e. the original call chain c → … → s read
        // backwards.
        let down_to_source = unwind_multi(&sparent, c);
        let down_to_sink = unwind_multi(&tparent, c);
        let (s, t) = (down_to_source[0], down_to_sink[0]);
        if !pairs.insert((s, t)) {
            continue;
        }
        let src = &ctx.marks[s].det_sources[0];
        let snk = &ctx.marks[t].det_sinks[0];

        // Full source → sink path: s … c … t.
        let mut nodes: Vec<usize> = down_to_source;
        nodes.extend(down_to_sink.iter().rev().skip(1));
        let path = path_steps(ctx, &nodes);

        let shape = if s == t {
            "inline in one function".to_string()
        } else if c == s {
            "via argument flow".to_string()
        } else if c == t {
            "via callee return flow".to_string()
        } else {
            format!("returning through `{}`", ctx.ws.funcs[c].qualified)
        };
        findings.push(Finding {
            rule: rule.name.to_string(),
            key: format!("{} @ {} -> {}", rule.name, ctx.loc(s), ctx.loc(t)),
            message: format!(
                "nondeterminism source `{}` (line {}) can reach deterministic sink `{}` (line {}) {shape} — {}",
                src.what, src.line, snk.what, snk.line, rule.advice
            ),
            file: ctx.file(s).rel.clone(),
            line: src.line,
            path,
        });
    }
    findings
}

/// Steps for a source→sink node list whose first half runs against the
/// call direction: the connecting call-site line is looked up in
/// whichever direction the edge exists.
fn path_steps(ctx: &Ctx<'_>, nodes: &[usize]) -> Vec<Step> {
    let mut out = Vec::with_capacity(nodes.len());
    for (i, &id) in nodes.iter().enumerate() {
        let (file, line) = ctx.ws.location(id);
        let call_line = if i == 0 {
            None
        } else {
            let prev = nodes[i - 1];
            ctx.ws.edge_line(prev, id).or_else(|| ctx.ws.edge_line(id, prev))
        };
        out.push(Step { func: ctx.ws.funcs[id].qualified.clone(), file, line, call_line });
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::test_util::analyze_source;

    #[test]
    fn confluence_through_a_common_caller_is_flagged() {
        let src = "\
            fn entry(c: &mut QueryCost) { let t = helper(); apply(c, t); }\n\
            fn helper() -> f64 { jitter() }\n\
            fn jitter() -> f64 { let t = Instant::now(); 0.0 }\n\
            fn apply(c: &mut QueryCost, t: f64) { c.sim_db_seconds += t; }\n";
        let r = analyze_source(src);
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "det-taint")
            .unwrap_or_else(|| panic!("no det-taint finding: {:?}", r.findings));
        assert!(f.key.contains("jitter") && f.key.contains("apply"), "{}", f.key);
        // Full path: jitter ← helper ← entry → apply.
        let funcs: Vec<&str> = f.path.iter().map(|s| s.func.as_str()).collect();
        assert_eq!(funcs, vec!["x::jitter", "x::helper", "x::entry", "x::apply"]);
        assert!(f.message.contains("entry"), "{}", f.message);
    }

    #[test]
    fn argument_flow_is_flagged() {
        let src = "\
            fn timed(c: &mut QueryCost) { let t = Instant::now(); apply(c); }\n\
            fn apply(c: &mut QueryCost) { c.sim_db_seconds += 1.0; }\n";
        let r = analyze_source(src);
        assert!(
            r.findings.iter().any(|f| f.rule == "det-taint"
                && f.key.contains("timed")
                && f.key.contains("apply")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn inline_co_occurrence_is_flagged() {
        let src = "fn f(c: &mut QueryCost) { let t = Instant::now(); c.sim_db_seconds = 0.0; }\n";
        let r = analyze_source(src);
        assert!(r.findings.iter().any(|f| f.rule == "det-taint" && f.path.len() == 1));
    }

    #[test]
    fn unconnected_source_and_sink_are_clean() {
        let src = "\
            fn a() { let t = Instant::now(); }\n\
            fn b(c: &mut QueryCost) { c.sim_db_seconds = 0.0; }\n";
        let r = analyze_source(src);
        assert!(r.findings.iter().all(|f| f.rule != "det-taint"), "{:?}", r.findings);
    }

    #[test]
    fn native_db_seconds_is_not_a_sink() {
        let src =
            "fn f(c: &mut QueryCost) { let t = Instant::now(); c.native_db_seconds = 0.1; }\n";
        let r = analyze_source(src);
        assert!(r.findings.iter().all(|f| f.rule != "det-taint"), "{:?}", r.findings);
    }
}
