//! Seeded bugs, one rule at both reaches.  Through: `intersect`
//! launders a banned materialization and a banned full decode through
//! helpers in another file, and `count` reaches `iter_voxels3` the same
//! way — no banned token appears in those bodies, but the call graph
//! sees it.  Here: `rebuild` names the banned call itself.

pub fn intersect(a: &RunList, b: &Cursor) -> RunList {
    let lhs = crate::support::normalize(a);
    let rhs = crate::support::drain(b);
    lhs
}

pub fn count(a: &Region) -> u64 {
    crate::support::voxels(a)
}

pub fn rebuild(geom: Geom, ids: Vec<u64>) -> Region {
    Region::from_ids(geom, ids) // LINT: kernel-materialize
}
