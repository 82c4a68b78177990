//! Out-of-scope helpers that materialize an id list or drain a
//! compressed cursor — fine when called from API edges, a contract
//! violation when the kernel reaches them.

pub fn normalize(a: &RunList) -> RunList {
    from_ids(a) // LINT: kernel-materialize
}

fn from_ids(a: &RunList) -> RunList {
    a.clone()
}

pub fn drain(c: &Cursor) -> RunList {
    c.decode_all() // LINT: kernel-materialize
}

pub fn voxels(a: &Region) -> u64 {
    a.iter_voxels3().count() as u64 // LINT: kernel-materialize
}

// Not reached from the kernel: an API edge may materialize.
pub fn api_edge(geom: Geom, ids: Vec<u64>) -> Region {
    Region::from_ids(geom, ids)
}
