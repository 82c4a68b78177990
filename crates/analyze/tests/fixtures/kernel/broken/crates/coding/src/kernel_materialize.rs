// Fixture: kernel code materializing what a merge did not ask for —
// voxel-id vectors or a fully decompressed payload — at zero hops.  The
// path scopes the rule: a `kernel*` file of region/sfc/volume/coding
// (here `coding`; the transitive half lives in ../../region/src).

fn bad_rebuild(geom: Geom, ids: Vec<u64>) -> Region {
    Region::from_ids(geom, ids) // LINT: kernel-materialize
}

fn bad_expand(region: &Region) -> u64 {
    region.iter_voxels3().count() as u64 // LINT: kernel-materialize
}

fn bad_decode(cursor: &K3Cursor<'_>) -> Vec<(u64, u64)> {
    cursor.clone().decode_all().unwrap_or_default() // LINT: kernel-materialize
}

// A block cursor's refill: one leaf's runs decoded into the buffer the
// cursor reuses, bounded by the leaf and consumed before the next one
// is read.  That is streaming, not a drain — no finding.
fn fine_leaf_refill(block: &mut Vec<(u64, u64)>, base: u64, pairs: &[(u64, u64)]) {
    block.clear();
    let mut floor = base;
    for &(gap, len) in pairs {
        block.push((floor + gap, floor + gap + len));
        floor += gap + len + 2;
    }
}

fn fine_streaming_merge(a: &mut dyn RunCursor, b: &mut dyn RunCursor) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    while let (Some((a_s, a_e)), Some((b_s, b_e))) = (a.peek(), b.peek()) {
        if a_e < b_s {
            let _ = a.seek(b_s); // gallop, don't decode
        } else if b_e < a_s {
            let _ = b.seek(a_s);
        } else {
            out.push((a_s.max(b_s), a_e.min(b_e)));
            if a_e <= b_e {
                let _ = a.advance();
            } else {
                let _ = b.advance();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    // Oracles may materialize and drain: test blocks are exempt.
    fn oracle(geom: Geom, ids: Vec<u64>, cursor: K3Cursor<'_>) -> (Region, Vec<(u64, u64)>) {
        (Region::from_ids(geom, ids), cursor.decode_all().unwrap())
    }
}
