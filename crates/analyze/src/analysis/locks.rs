//! Static lock-order analysis.
//!
//! Lock sites come from `marks` (`.lock()` / `.lock_or_recover()` on
//! a receiver, named `Type.field` for a field of `self`).  A
//! `let`-bound guard is approximated as held to the end of the
//! function; while held, every later lock site in the same body — and
//! every lock transitively acquired by a later callee — yields an
//! ordering edge `a → b`.  A pair with edges in both directions is a
//! potential deadlock cycle.

use super::Ctx;
use crate::marks::FnMarks;
use crate::report::{Finding, Step};
use crate::rules::{rule, Pattern};
use std::collections::{BTreeMap, BTreeSet};

/// `a → b` witness: which function ordered the pair, and where.
#[derive(Debug, Clone)]
struct Witness {
    func: usize,
    first_line: u32,
    second_line: u32,
}

pub fn run(ctx: &Ctx<'_>) -> Vec<Finding> {
    let trans = transitive_locks(ctx.marks, ctx.adj);
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();

    for (id, m) in ctx.marks.iter().enumerate() {
        if ctx.ws.funcs[id].item.in_test {
            continue;
        }
        for (i, site) in m.locks.iter().enumerate() {
            if !site.held {
                continue;
            }
            // Later lock sites in the same body.
            for later in &m.locks[i + 1..] {
                record(&mut edges, &site.name, &later.name, id, site.line, later.line);
            }
            // Locks acquired by callees invoked while the guard is held.
            for edge in &ctx.ws.calls[id] {
                if edge.pos <= site.pos {
                    continue;
                }
                for callee_lock in &trans[edge.callee] {
                    record(&mut edges, &site.name, callee_lock, id, site.line, edge.line);
                }
            }
        }
    }

    let rule = rule(Pattern::LockInversion);
    let mut findings = Vec::new();
    for ((a, b), w_ab) in &edges {
        if a >= b {
            continue;
        }
        let Some(w_ba) = edges.get(&(b.clone(), a.clone())) else { continue };
        let step = |w: &Witness, first: &str, second: &str| {
            let (file, _) = ctx.ws.location(w.func);
            Step {
                func: format!(
                    "{} (locks `{first}` at line {}, then `{second}` via line {})",
                    ctx.ws.funcs[w.func].qualified, w.first_line, w.second_line
                ),
                file,
                line: w.first_line,
                call_line: None,
            }
        };
        findings.push(Finding {
            rule: rule.name.to_string(),
            key: format!("{} @ {a} <-> {b}", rule.name),
            message: format!(
                "lock order inversion: `{a}` → `{b}` and `{b}` → `{a}` both occur; a concurrent pair can deadlock — {}",
                rule.advice
            ),
            file: ctx.ws.location(w_ab.func).0,
            line: w_ab.first_line,
            path: vec![step(w_ab, a, b), step(w_ba, b, a)],
        });
    }
    findings
}

/// Lock names each function may acquire, directly or transitively
/// (fixpoint over the call graph; cycles converge because sets only
/// grow).
pub fn transitive_locks(marks: &[FnMarks], adj: &[Vec<usize>]) -> Vec<BTreeSet<String>> {
    let mut trans: Vec<BTreeSet<String>> =
        marks.iter().map(|m| m.locks.iter().map(|l| l.name.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..trans.len() {
            let mut add: Vec<String> = Vec::new();
            for &callee in &adj[id] {
                for name in &trans[callee] {
                    if !trans[id].contains(name) {
                        add.push(name.clone());
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[id].extend(add);
            }
        }
        if !changed {
            return trans;
        }
    }
}

fn record(
    edges: &mut BTreeMap<(String, String), Witness>,
    a: &str,
    b: &str,
    func: usize,
    first_line: u32,
    second_line: u32,
) {
    if a == b {
        return;
    }
    edges.entry((a.to_string(), b.to_string())).or_insert(Witness {
        func,
        first_line,
        second_line,
    });
}

#[cfg(test)]
mod tests {
    use crate::test_util::analyze_files;

    const TWO_LOCKS: &str = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
        impl S {\n";

    #[test]
    fn direct_inversion_is_flagged() {
        let src = format!(
            "{TWO_LOCKS}\
              fn ab(&self) {{ let g = self.a.lock_or_recover(); let h = self.b.lock_or_recover(); }}\n\
              fn ba(&self) {{ let g = self.b.lock_or_recover(); let h = self.a.lock_or_recover(); }}\n\
            }}"
        );
        let r = analyze_files(&[("crates/x/src/lib.rs", &src)]);
        let f = r.findings.iter().find(|f| f.rule == "lock-order").expect("inversion");
        assert_eq!(f.key, "lock-order @ S.a <-> S.b");
        assert_eq!(f.path.len(), 2);
    }

    #[test]
    fn inversion_through_a_callee_is_flagged() {
        let src = format!(
            "{TWO_LOCKS}\
              fn ab(&self) {{ let g = self.a.lock_or_recover(); self.take_b(); }}\n\
              fn take_b(&self) {{ let h = self.b.lock_or_recover(); }}\n\
              fn ba(&self) {{ let g = self.b.lock_or_recover(); let h = self.a.lock_or_recover(); }}\n\
            }}"
        );
        let r = analyze_files(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.findings.iter().any(|f| f.rule == "lock-order"), "{:?}", r.findings);
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{TWO_LOCKS}\
              fn ab(&self) {{ let g = self.a.lock_or_recover(); let h = self.b.lock_or_recover(); }}\n\
              fn ab2(&self) {{ let g = self.a.lock_or_recover(); self.take_b(); }}\n\
              fn take_b(&self) {{ let h = self.b.lock_or_recover(); }}\n\
            }}"
        );
        let r = analyze_files(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.findings.iter().all(|f| f.rule != "lock-order"), "{:?}", r.findings);
    }

    #[test]
    fn unheld_temporary_guards_do_not_order() {
        // `self.a.lock();` without a binding drops the guard at the
        // end of the statement: no ordering edge to the later lock.
        let src = format!(
            "{TWO_LOCKS}\
              fn ab(&self) {{ self.a.lock(); let h = self.b.lock_or_recover(); }}\n\
              fn ba(&self) {{ let g = self.b.lock_or_recover(); self.a.lock(); }}\n\
            }}"
        );
        let r = analyze_files(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.findings.iter().all(|f| f.rule != "lock-order"), "{:?}", r.findings);
    }
}
