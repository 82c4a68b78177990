//! Seeded bug: the kernel launders a banned materialization and a
//! banned full decode through helpers in another file.  The line
//! linter cannot see them — no `from_ids` or `to_runs_vec` token
//! appears here — but the call graph can.

pub fn intersect(a: &RunList, b: &Cursor) -> RunList {
    let lhs = crate::support::normalize(a);
    let rhs = crate::support::drain(b);
    lhs
}
