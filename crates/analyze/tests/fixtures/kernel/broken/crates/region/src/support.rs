//! Out-of-scope helpers that materialize an id list or drain a
//! compressed cursor — fine when called from API edges, a contract
//! violation when the kernel reaches them.

pub fn normalize(a: &RunList) -> RunList {
    from_ids(a)
}

fn from_ids(a: &RunList) -> RunList {
    a.clone()
}

pub fn drain(c: &Cursor) -> RunList {
    c.to_runs_vec()
}
